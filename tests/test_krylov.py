import warnings

import numpy as np
import pytest

from conftest import linear_problem
from paramrom import linalg
from paramrom.chebyshev import ChebyshevOperator, CompanionPencil
from paramrom.errors import NoConvergenceError, SingularShiftError
from paramrom.krylov import (ShiftedKrylov, default_sigma, snapshot_sweep)
from paramrom.problems import (advection_diffusion_1d, assemble,
                               direct_reference_solve, helmholtz_2d)


@pytest.fixture(scope="module")
def advdiff_state():
    p = advection_diffusion_1d(199, 0.01)
    pen = CompanionPencil(ChebyshevOperator(p, 2, 0.25), default_sigma((0, 0.5)))
    return p, pen


class TestArnoldi:
    def test_first_step_scalar(self, advdiff_state):
        p, pen = advdiff_state
        st = ShiftedKrylov(pen, p.b)
        st.grow(1)
        u0 = pen.solve(pen.stack_rhs(p.b))
        v1 = u0 / np.linalg.norm(u0)
        expected = v1 @ pen.solve(pen.apply_M(v1))
        assert st.hessenberg[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_orthonormal_basis(self, advdiff_state):
        # At k = 20 one Gram-Schmidt pass leaves ||V^T V - I|| near 1e-9.
        p, pen = advdiff_state
        st = ShiftedKrylov(pen, p.b)
        st.grow(20)
        V = st.basis
        assert np.linalg.norm(V.T @ V - np.eye(20)) <= 1e-12

    def test_arnoldi_relation(self, advdiff_state):
        # S V_k = V_{k+1} Hbar_k with S = (K - sigma M)^{-1} M
        p, pen = advdiff_state
        st = ShiftedKrylov(pen, p.b)
        st.grow(12)
        V = st.basis
        SV = np.column_stack([pen.solve(pen.apply_M(V[:, j]))
                              for j in range(12)])
        V_next = np.column_stack([V, st.next_vector])
        rel = SV - V_next @ st.hessenberg
        assert np.linalg.norm(rel) <= 1e-10 * np.linalg.norm(SV)

    def test_evaluate_at_sigma_warns_and_is_preconditioner_exact(self, advdiff_state):
        p, pen = advdiff_state
        st = ShiftedKrylov(pen, p.b)
        st.grow(3)
        with pytest.warns(UserWarning):
            x = st.evaluate(pen.sigma)
        expected = pen.solve(pen.stack_rhs(p.b))[: p.n]
        assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_residual_estimate_zero_at_sigma(self, advdiff_state):
        p, pen = advdiff_state
        st = ShiftedKrylov(pen, p.b)
        st.grow(5)
        assert st.residual_estimate(pen.sigma) == 0.0

    def test_residual_estimate_matches_explicit(self, advdiff_state):
        p, pen = advdiff_state
        st = ShiftedKrylov(pen, p.b)
        for _ in range(8):  # up to k = 40
            st.grow(5)
            for mu in (0.1, 0.32, 0.5):
                cheap = st.residual_estimate(mu)
                explicit = st.explicit_residual(mu)
                assert abs(cheap - explicit) <= 1e-8

    def test_residual_decays(self, advdiff_state):
        p, pen = advdiff_state
        st = ShiftedKrylov(pen, p.b)
        seen = []
        for _ in range(20):
            st.grow(5)
            seen.append(max(st.residual_estimate(mu) for mu in (0.0, 0.25, 0.5)))
            if seen[-1] < 1e-8:
                break
        assert seen[-1] < 1e-8
        assert st.k <= 300

    def test_evaluate_matches_direct(self, advdiff_state):
        p, pen = advdiff_state
        st = ShiftedKrylov(pen, p.b)
        st.grow(5)
        while st.k < 60 and max(st.residual_estimate(m) for m in (0.0, 0.25, 0.5)) > 1e-10:
            st.grow(5)
        x = st.evaluate(0.25)
        x_ref = direct_reference_solve(p, 0.25, 0.25)
        assert np.linalg.norm(x - x_ref) <= 1e-6 * np.linalg.norm(x_ref)

    def test_singular_projected_system_raises(self, advdiff_state):
        # 1 - (mu - sigma) h_11 == 0 exactly: the 1 x 1 projected system is
        # singular at mu = sigma + 1 / h_11.
        p, pen = advdiff_state
        st = ShiftedKrylov(pen, p.b)
        st.grow(1)
        mu = pen.sigma + 0.25
        st.hessenberg[0, 0] = 1.0 / (mu - pen.sigma)
        assert 1.0 - (mu - pen.sigma) * st.hessenberg[0, 0] == 0.0
        with pytest.raises(SingularShiftError) as info:
            st.evaluate(mu)
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


class TestCompactBasis:
    def test_block_basis_orthonormal_and_small(self, advdiff_state):
        p, pen = advdiff_state
        st = ShiftedKrylov(pen, p.b)
        st.grow(20)
        Q = st.block_basis
        assert Q.shape[0] == p.n
        assert Q.shape[1] <= st.k + 2
        assert np.linalg.norm(Q.T @ Q - np.eye(Q.shape[1])) <= 1e-12

    def test_no_full_length_buffer(self, advdiff_state):
        p, pen = advdiff_state
        st = ShiftedKrylov(pen, p.b)
        st.grow(20)
        for name, value in vars(st).items():
            assert pen.block_size not in np.shape(value), name

    def test_sim1_deflated_breakdown_matches_direct(self):
        # sim1's load is an eigenvector of every term, so every block of
        # every Arnoldi vector is a multiple of it: Q keeps one column and
        # the recurrence ends in a happy breakdown.
        p = helmholtz_2d("sim1", 6)
        assert p.n == 36
        pen = CompanionPencil(ChebyshevOperator(p, 2, 1.5), default_sigma((1, 2)))
        st = ShiftedKrylov(pen, p.b)
        while not st.exhausted and st.k < 60:
            st.grow(1)
        assert st.exhausted
        assert st.block_basis.shape[1] < st.k + 1
        for mu in np.linspace(1, 2, 7):
            ref = direct_reference_solve(p, mu, 1.5)
            assert np.linalg.norm(st.evaluate(mu) - ref) <= 1e-6 * np.linalg.norm(ref)

    def test_degree_one_sweep_matches_direct(self):
        p = linear_problem()
        values = np.linspace(0, 1, 5)
        line = snapshot_sweep(p, 2, 0.5, values)
        assert line.meta["chebyshev_degree"] == 1
        assert line.converged.all()
        for mu, snap in zip(values, line.snapshots):
            ref = direct_reference_solve(p, mu, 0.5)
            assert np.linalg.norm(snap - ref) <= 1e-6 * np.linalg.norm(ref)


class TestBatchedResidual:
    def test_array_matches_scalar_calls(self, advdiff_state):
        p, pen = advdiff_state
        st = ShiftedKrylov(pen, p.b)
        st.grow(10)
        values = np.linspace(0, 0.5, 9)
        batched = st.residual_estimate(values)
        assert batched.shape == values.shape
        assert np.array_equal(batched, [st.residual_estimate(mu) for mu in values])

    def test_singular_value_in_array_raises(self, advdiff_state):
        p, pen = advdiff_state
        st = ShiftedKrylov(pen, p.b)
        st.grow(1)
        mu = pen.sigma + 0.25
        st.hessenberg[0, 0] = 1.0 / (mu - pen.sigma)
        with pytest.raises(SingularShiftError, match="0.505") as info:
            st.residual_estimate(np.array([0.1, mu]))
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


class TestSweep:
    def test_one_factorization_per_sweep(self):
        p = advection_diffusion_1d(99, 0.01)
        before = linalg.factorization_count()
        snapshot_sweep(p, 2, 0.25, np.linspace(0, 0.5, 5))
        assert linalg.factorization_count() - before == 1

    def test_snapshots_match_direct(self):
        p = advection_diffusion_1d(99, 0.01)
        values = np.linspace(0, 0.5, 5)
        line = snapshot_sweep(p, 2, 0.25, values)
        assert line.converged.all()
        for mu, snap in zip(values, line.snapshots):
            ref = direct_reference_solve(p, mu, 0.25)
            assert np.linalg.norm(snap - ref) <= 1e-6 * np.linalg.norm(ref)

    def test_sweep_residual_contract(self):
        # ||A(mu) x - b|| / ||b|| small against the true assembled operator
        p = advection_diffusion_1d(99, 0.01)
        values = np.linspace(0, 0.5, 5)
        line = snapshot_sweep(p, 2, 0.25, values, tol=1e-8)
        for mu, snap in zip(values, line.snapshots):
            r = assemble(p, mu, 0.25) @ snap - p.b
            assert np.linalg.norm(r) <= 1e-8 * 100 * np.linalg.norm(p.b)

    def test_order_independence(self):
        p = advection_diffusion_1d(99, 0.01)
        values = np.linspace(0, 0.5, 5)
        line1 = snapshot_sweep(p, 2, 0.25, values)
        perm = [3, 0, 4, 1, 2]
        line2 = snapshot_sweep(p, 2, 0.25, values[perm])
        for i, j in enumerate(perm):
            assert np.array_equal(line1.snapshots[j], line2.snapshots[i])

    def test_shift_invariance_against_fresh_state(self):
        # One state answers every value identically to a freshly grown
        # state of the same size and shift.
        p = advection_diffusion_1d(99, 0.01)
        pen = CompanionPencil(ChebyshevOperator(p, 2, 0.25),
                              default_sigma((0, 0.5)))
        st1 = ShiftedKrylov(pen, p.b)
        st1.grow(20)
        x_a = st1.evaluate(0.1)
        st2 = ShiftedKrylov(pen, p.b)
        st2.grow(20)
        assert np.linalg.norm(st2.evaluate(0.1) - x_a) <= 1e-10 * np.linalg.norm(x_a)

    def test_no_convergence_reports_values(self):
        p = advection_diffusion_1d(99, 0.01)
        with pytest.raises(NoConvergenceError) as info:
            snapshot_sweep(p, 2, 0.25, np.linspace(0, 0.5, 5), tol=1e-12,
                           k_max=4)
        err = info.value
        assert err.partial is not None
        assert err.partial.snapshots.shape == (5, 99)
        assert len(err.detail["unconverged"]) >= 1

    def test_values_outside_box_rejected(self):
        p = advection_diffusion_1d(50, 0.01)
        with pytest.raises(ValueError):
            snapshot_sweep(p, 2, 0.25, np.array([0.0, 0.7]))

    def test_sim1_seven_values_one_state(self):
        # Seven equidistant values with sigma = 1.48, all from one state.
        p = helmholtz_2d("sim1", 6)
        values = np.linspace(1, 2, 7)
        assert np.allclose(values[:3], [1.0, 1.1667, 1.3333], atol=5e-4)
        line = snapshot_sweep(p, 2, 1.5, values, sigma=1.48)
        assert line.converged.all()
        for mu, snap in zip(values, line.snapshots):
            ref = direct_reference_solve(p, mu, 1.5)
            assert np.linalg.norm(snap - ref) <= 1e-6 * np.linalg.norm(ref)

    def test_cross_needs_two_sweeps(self):
        p = helmholtz_2d("sim1", 5)
        before = linalg.factorization_count()
        line1 = snapshot_sweep(p, 2, 1.5, np.linspace(1, 2, 7), sigma=1.48)
        line2 = snapshot_sweep(p, 1, 1.5, np.linspace(1, 2, 7), sigma=1.48)
        assert linalg.factorization_count() - before == 2
        # shared center: both sweeps produce the anchor snapshot
        center1 = line1.snapshot(1.5)
        center2 = line2.snapshot(1.5)
        assert np.linalg.norm(center1 - center2) <= 1e-6 * np.linalg.norm(center1)

    def test_default_sigma_rule(self):
        assert default_sigma((0.0, 0.5)) == pytest.approx(0.255)
        assert default_sigma((1.0, 2.0)) == pytest.approx(1.51)

    def test_default_sigma_from_free_values(self):
        # A sweep over part of the box shifts at the free values' own
        # interval, whatever their order, not at the box's.
        p = advection_diffusion_1d(99, 0.01)
        values = np.linspace(0.1, 0.3, 5)[[3, 0, 4, 1, 2]]
        line = snapshot_sweep(p, 2, 0.25, values)
        assert line.sigma == default_sigma((values.min(), values.max()))

    def test_sim3_line_near_breakdown_config(self):
        # Regression: sim3 n=50 with sigma = 0.51 broke two-sided Lanczos
        # down twice; the Arnoldi sweep must finish without any warning.
        p = helmholtz_2d("sim3", 50)
        values = np.linspace(0, 1, 7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            line = snapshot_sweep(p, 2, 0.5, values, sigma=0.51)
        assert line.converged.all()
        for mu, snap in zip(values, line.snapshots):
            ref = direct_reference_solve(p, mu, 0.5)
            assert np.linalg.norm(snap - ref) <= 1e-6 * np.linalg.norm(ref)
