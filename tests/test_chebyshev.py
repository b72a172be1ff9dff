import math

import numpy as np
import pytest
from numpy.polynomial import chebyshev as npcheb

from conftest import linear_problem, quadratic_problem
from paramrom.chebyshev import (ChebyshevOperator,ChebyshevSeries,
                                CompanionPencil, chebyshev_fit)
from paramrom.errors import NoConvergenceError
from paramrom.linalg import LUFactorization
from paramrom.problems import advection_diffusion_1d, assemble, helmholtz_2d


class TestScalarFit:
    def test_constant(self):
        s = chebyshev_fit(lambda mu: 1.0, 1.0)
        assert np.allclose(s.coefficients, [1.0])

    def test_linear(self):
        # mu = 2 * T_1(mu / 2) on half-width 2
        s = chebyshev_fit(lambda mu: mu, 2.0)
        assert np.allclose(s.coefficients, [0.0, 2.0], atol=1e-14)

    def test_quadratic(self):
        # mu^2 = (T_0 + T_2) / 2 on half-width 1
        s = chebyshev_fit(lambda mu: mu * mu, 1.0)
        assert np.allclose(s.coefficients, [0.5, 0.0, 0.5], atol=1e-14)

    def test_helmholtz_coefficient_function(self):
        f = lambda mu: 2 * math.pi**2 + math.cos(mu) + mu**4 + math.sin(1.5) + 1.5
        s = chebyshev_fit(f, 2.0, tol=1e-13)
        grid = np.linspace(-2, 2, 1000)
        err = max(abs(s(x) - f(x)) for x in grid)
        assert err < 1e-12

    def test_clenshaw_matches_direct_summation(self, rng):
        coef = rng.standard_normal(9)
        s = ChebyshevSeries(coef, 1.7)
        for x in np.linspace(-1.7, 1.7, 57):
            direct = npcheb.chebval(x / 1.7, coef)
            assert abs(s(x) - direct) < 1e-13 * max(1.0, abs(direct))

    def test_nonsmooth_does_not_converge(self):
        with pytest.raises(NoConvergenceError):
            chebyshev_fit(abs, 1.0, tol=1e-13, max_degree=32)


class TestOperator:
    def test_constant_promoted_to_degree_one(self):
        p = linear_problem()
        # fix the free axis dependence away: fixing axis 1 leaves the mu2
        # dependence, which is constant -> degree promoted to 1, zero P_1
        op = ChebyshevOperator(p, 1, 0.5)
        assert op.degree == 1
        assert op.matrices[1].nnz == 0

    def test_matches_assemble_sim1(self):
        p = helmholtz_2d("sim1", 5)
        op = ChebyshevOperator(p, 2, 1.5)
        for mu1 in (1.0, 1.5, 2.0):
            P = op.evaluate(mu1).toarray()
            A = assemble(p, mu1, 1.5).toarray()
            assert np.abs(P - A).max() <= 1e-12 * np.abs(A).max()

    def test_action_agreement_random_mu(self, rng):
        p = helmholtz_2d("sim2", 4)
        op = ChebyshevOperator(p, 1, 1.25, tol=1e-13)
        scale = max(np.abs(A.toarray()).max() for A in p.matrices) * 10
        for mu2 in rng.uniform(1, 2, 33):
            v = rng.standard_normal(p.n)
            for _ in range(5):
                diff = op.evaluate(mu2) @ v - assemble(p, 1.25, mu2) @ v
                assert np.abs(diff).max() <= 10 * 1e-13 * scale * np.abs(v).max()

    def test_entire_coefficients_decay_fast(self):
        p = advection_diffusion_1d(20, 0.01)
        op = ChebyshevOperator(p, 1, 0.25)
        # f2 is entire: the fit stays low degree with decaying coefficients
        s = op.scalar_series[2]
        assert s.degree <= 16
        mags = np.abs(s.coefficients)
        assert mags[-1] <= 1e-10 * mags.max()

    def test_fixed_value_outside_interval(self):
        with pytest.raises(ValueError):
            ChebyshevOperator(helmholtz_2d("sim1", 4), 1, 0.5)


def _pencils(*cases):
    """Small pencils by name. sim3 has three terms; on each line the
    fixed-axis term folds into P_0."""
    make = {
        "quadratic": lambda: (ChebyshevOperator(quadratic_problem(), 2, 0.5), 0.21),
        "sim1": lambda: (ChebyshevOperator(helmholtz_2d("sim1", 4), 2, 1.5), 1.48),
        "sim3-axis1": lambda: (ChebyshevOperator(helmholtz_2d("sim3", 4), 1, 0.5), 0.48),
        "sim3-axis2": lambda: (ChebyshevOperator(helmholtz_2d("sim3", 4), 2, 0.5), 0.48),
    }
    return [CompanionPencil(*make[case]()) for case in cases]


class TestPencil:
    def test_chebyshev_stack_solves_linearization(self, rng):
        # u = (x, T_1(mu/c) x, ...) with P(mu) x = b satisfies
        # (K - mu M) u = (0, ..., 0, b)
        p = quadratic_problem()
        op = ChebyshevOperator(p, 2, 0.5)
        pen = CompanionPencil(op, 0.43)
        for mu in rng.uniform(0, 1, 4):
            x = LUFactorization(op.evaluate(mu)).solve(p.b)
            t = mu / op.half_width
            taus = [1.0, t] + [0.0] * (op.degree - 1)
            for k in range(2, op.degree):
                taus[k] = 2 * t * taus[k - 1] - taus[k - 2]
            u = np.concatenate([tau * x for tau in taus[: op.degree]])
            out = pen.apply(u, mu)
            expected = pen.stack_rhs(p.b)
            assert np.linalg.norm(out - expected) <= 1e-9 * np.linalg.norm(expected)

    def test_degree_two_dense_structure(self):
        p = quadratic_problem(n=6)
        op = ChebyshevOperator(p, 2, 0.5)
        assert op.degree == 2
        pen = CompanionPencil(op, 0.3)
        n = p.n
        P0, P1, P2 = (M.toarray() for M in op.matrices)
        K = np.zeros((2 * n, 2 * n))
        K[:n, n:] = np.eye(n)
        K[n:, :n] = P0 - P2
        K[n:, n:] = P1
        M = np.zeros((2 * n, 2 * n))
        M[:n, :n] = np.eye(n) / op.half_width
        M[n:, n:] = -2.0 * P2 / op.half_width
        mu = 0.77
        dense = pen.dense_pencil(mu)
        assert np.allclose(dense, K - mu * M, atol=1e-12)

    def test_mu_zero_pencil_equals_K(self, rng):
        # apply(u, 0) is K u, and the pencil is linear in mu with slope -M
        p = quadratic_problem()
        pen = CompanionPencil(ChebyshevOperator(p, 2, 0.5), 0.3)
        u = rng.standard_normal(pen.block_size)
        for mu in (0.4, -1.3):
            assert np.allclose(pen.apply(u, mu), pen.apply(u, 0.0) - mu * pen.apply_M(u))

    def test_solve_round_trip(self, rng):
        p = helmholtz_2d("sim1", 4)
        pen = CompanionPencil(ChebyshevOperator(p, 2, 1.5), 1.48)
        for _ in range(5):
            u = rng.standard_normal(pen.block_size)
            r = pen.apply(u, pen.sigma)
            back = pen.solve(r)
            assert np.linalg.norm(back - u) <= 1e-10 * np.linalg.norm(u)

    def test_transpose_round_trip(self, rng):
        for pen in _pencils("sim1", "sim3-axis1", "sim3-axis2"):
            for _ in range(5):
                r = rng.standard_normal(pen.block_size)
                w = pen.solve(r, transpose=True)
                back = pen.apply(w, pen.sigma, transpose=True)
                assert np.linalg.norm(back - r) <= 1e-10 * np.linalg.norm(r)

    def test_transpose_apply_is_adjoint(self, rng):
        for pen in _pencils("quadratic", "sim3-axis1", "sim3-axis2"):
            K = lambda u, transpose: pen.apply(u, 0.0, transpose)
            pencil = lambda u, transpose: pen.apply(u, 0.4, transpose)
            for op in (K, pen.apply_M, pencil):
                u = rng.standard_normal(pen.block_size)
                v = rng.standard_normal(pen.block_size)
                lhs = v @ op(u, False)
                rhs = u @ op(v, True)
                assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_against_dense_lu(self, rng):
        # small n for the dense oracle
        for pen in _pencils("sim1", "sim3-axis1", "sim3-axis2"):
            dense = pen.dense_pencil(pen.sigma)
            for _ in range(20):
                r = rng.standard_normal(pen.block_size)
                expected = np.linalg.solve(dense, r)
                got = pen.solve(r)
                assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_degree_one_degenerate(self, rng):
        p = linear_problem()
        op = ChebyshevOperator(p, 2, 0.5)
        assert op.degree == 1
        pen = CompanionPencil(op, 0.4)
        r = rng.standard_normal(p.n)
        expected = LUFactorization(op.evaluate(0.4)).solve(r)
        assert np.allclose(pen.solve(r), expected, atol=1e-12)

    def test_first_block_solves_original(self, rng):
        # Linearization equivalence: dense solve of (K - mu M) u = c has
        # first block equal to the direct solve of P(mu) x = b.
        p = helmholtz_2d("sim1", 4)
        op = ChebyshevOperator(p, 2, 1.5)
        pen = CompanionPencil(op, 1.48)
        c = pen.stack_rhs(p.b)
        for mu in rng.uniform(1, 2, 10):
            u = np.linalg.solve(pen.dense_pencil(mu), c)
            x = LUFactorization(op.evaluate(mu)).solve(p.b)
            assert np.linalg.norm(u[: p.n] - x) <= 1e-9 * np.linalg.norm(x)

    def test_recurrence_scalars(self):
        p = helmholtz_2d("sim1", 4)
        pen = CompanionPencil(ChebyshevOperator(p, 2, 1.5), 1.48)
        s = pen.sigma / pen.c
        taus = pen.taus
        assert len(taus) == pen.d + 1
        assert taus[0] == 1.0
        assert taus[1] == pytest.approx(s)
        for i in range(2, len(taus)):
            assert taus[i] == pytest.approx(2 * s * taus[i - 1] - taus[i - 2])
            assert taus[i] == pytest.approx(math.cos((i) * math.acos(s)))
