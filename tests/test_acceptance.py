"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers after its assertions hold. Desk-scale stand-ins for
the published large-mesh runs are noted inline.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np

from paramrom import linalg
from paramrom.chebyshev import ChebyshevOperator, CompanionPencil, chebyshev_fit
from paramrom.estimate import add_noise, refine_estimate
from paramrom.hopgd import (SnapshotTensor, decompose, eval_at_node,
                            full_grid_nodes, line_update_f1, line_update_f2,
                            sparse_cross_nodes)
from paramrom.krylov import ShiftedKrylov, default_sigma, snapshot_sweep
from paramrom.linalg import LUFactorization
from paramrom.problems import (advection_diffusion_1d, direct_reference_solve,
                               helmholtz_2d)
from paramrom.rom import (RELIABLE_THRESHOLD, error_grid, interpolate_model,
                          relative_error)


def report(number, message):
    print("criterion %d PASS: %s" % (number, message))


def dense_pencil_oracle(operator, mu):
    """Independent dense assembly of K - mu M from the block structure."""
    d, n, c = operator.degree, operator.n, operator.half_width
    P = [M.toarray() for M in operator.matrices]
    s = mu / c
    if d == 1:
        return P[0] + s * P[1]
    A = np.zeros((d * n, d * n))
    A[:n, :n] = -s * np.eye(n)
    A[:n, n: 2 * n] = np.eye(n)
    for i in range(1, d - 1):
        A[i * n:(i + 1) * n, (i - 1) * n: i * n] = np.eye(n)
        A[i * n:(i + 1) * n, i * n:(i + 1) * n] = -2 * s * np.eye(n)
        A[i * n:(i + 1) * n, (i + 1) * n:(i + 2) * n] = np.eye(n)
    row = d - 1
    for l in range(d - 2):
        A[row * n:, l * n:(l + 1) * n] = P[l]
    A[row * n:, (d - 2) * n:(d - 1) * n] = P[d - 2] - P[d]
    A[row * n:, (d - 1) * n:] = P[d - 1] + 2 * s * P[d]
    return A


def test_criterion_1_chebyshev_fidelity():
    t0 = time.perf_counter()
    f = lambda mu: 2 * math.pi**2 + math.cos(mu) + mu**4 + math.sin(1.5) + 1.5
    series = chebyshev_fit(f, 2.0, tol=1e-13)
    grid = np.linspace(-2, 2, 1000)
    err = max(abs(series(x) - f(x)) for x in grid)
    elapsed = time.perf_counter() - t0
    assert err < 1e-12
    assert elapsed < 1.0
    report(1, "max sampled fit error %.2e (degree %d) in %.2f s"
           % (err, series.degree, elapsed))


def test_criterion_2_linearization_equivalence():
    t0 = time.perf_counter()
    p = helmholtz_2d("sim1", 10)  # n = 100
    op = ChebyshevOperator(p, 2, 1.5)
    rng = np.random.default_rng(7)
    c = np.zeros(op.degree * p.n)
    c[-p.n:] = p.b
    worst = 0.0
    for mu in rng.uniform(1, 2, 10):
        dense = dense_pencil_oracle(op, mu)
        u = np.linalg.solve(dense, c)
        x = LUFactorization(op.evaluate(mu)).solve(p.b)
        worst = max(worst, np.linalg.norm(u[: p.n] - x) / np.linalg.norm(x))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9
    assert elapsed < 10.0
    report(2, "first-block vs direct solve worst rel err %.2e "
              "(n=100, degree %d) in %.1f s" % (worst, op.degree, elapsed))


def test_criterion_3_pencil_inverse():
    t0 = time.perf_counter()
    p = helmholtz_2d("sim1", 4)
    op = ChebyshevOperator(p, 2, 1.5)
    pen = CompanionPencil(op, 1.48)
    dense = dense_pencil_oracle(op, pen.sigma)
    rng = np.random.default_rng(21)
    worst_round, worst_dense = 0.0, 0.0
    for _ in range(20):
        u = rng.standard_normal(pen.block_size)
        r = pen.apply(u, pen.sigma)
        worst_round = max(worst_round,
                          np.linalg.norm(pen.solve(r) - u) / np.linalg.norm(u))
        rr = rng.standard_normal(pen.block_size)
        expected = np.linalg.solve(dense, rr)
        worst_dense = max(worst_dense,
                          np.linalg.norm(pen.solve(rr) - expected)
                          / np.linalg.norm(expected))
    elapsed = time.perf_counter() - t0
    assert worst_round <= 1e-10
    assert worst_dense <= 1e-10
    assert elapsed < 10.0
    report(3, "round-trip %.2e, dense-oracle %.2e over 20 inputs in %.1f s"
           % (worst_round, worst_dense, elapsed))


def test_criterion_4_shifted_sweep():
    p = advection_diffusion_1d(999, 0.01)
    values = np.linspace(0, 0.5, 5)
    sigma = default_sigma((0, 0.5))
    op = ChebyshevOperator(p, 2, 0.25)
    pen = CompanionPencil(op, sigma)
    state = ShiftedKrylov(pen, p.b)
    worst_mismatch = 0.0
    while state.k < 300:
        state.grow(5)
        residuals = [state.residual_estimate(mu) for mu in values]
        for mu, cheap in zip(values, residuals):
            worst_mismatch = max(worst_mismatch,
                                 abs(cheap - state.explicit_residual(mu)))
        if max(residuals) < 1e-8:
            break
    assert max(residuals) < 1e-8
    assert state.k <= 300
    assert worst_mismatch <= 1e-8

    before = linalg.factorization_count()
    line = snapshot_sweep(p, 2, 0.25, values, tol=1e-8, k_max=300)
    assert linalg.factorization_count() - before == 1
    worst_snap = 0.0
    for mu, snap in zip(values, line.snapshots):
        ref = direct_reference_solve(p, mu, 0.25)
        worst_snap = max(worst_snap, relative_error(snap, ref))
    assert worst_snap < 1e-6
    report(4, "converged at k=%d; snapshot err %.2e; estimate-vs-explicit "
              "mismatch %.2e; one factorization per sweep"
           % (line.k, worst_snap, worst_mismatch))


def test_criterion_5_hopgd_oracle():
    nodes = sparse_cross_nodes(((0, 1), (0, 1)), 5, 5)
    rng = np.random.default_rng(5)
    n = 150
    t = np.linspace(0, 1, n)
    profiles = [np.sin(np.pi * t), np.cos(np.pi * t), t**2]
    g = [1 + nodes.mu1_values, np.cos(nodes.mu1_values),
         nodes.mu1_values**2 + 0.5]
    h = [1 + nodes.mu2_values**2, np.sin(nodes.mu2_values) + 1,
         0.3 + nodes.mu2_values]
    amps = [1.0, 0.3, 0.08]
    data = {(i, j): sum(a * pr * gg[i] * hh[j]
                        for a, pr, gg, hh in zip(amps, profiles, g, h))
            for (i, j) in nodes.members}
    tensor = SnapshotTensor(nodes, data)
    model = decompose(tensor, eps_node=1e-10, max_modes=5)
    assert model.converged
    assert model.rank <= 5
    worst = 0.0
    for node in nodes.members:
        err = (np.linalg.norm(tensor.snapshot(node) - eval_at_node(model, node))
               / np.linalg.norm(tensor.snapshot(node)))
        worst = max(worst, err)
    assert worst < 1e-10

    # reduction of the general row/column update to the per-line ratios
    I = np.array([m[0] for m in nodes.members])
    J = np.array([m[1] for m in nodes.members])
    R = rng.standard_normal((len(nodes.members), n))
    phi = rng.standard_normal(n)
    F2 = rng.uniform(0.5, 1.5, 5)
    p2 = phi @ phi
    proj = R @ phi
    general = (np.bincount(I, weights=F2[J] * proj, minlength=5)
               / (p2 * np.bincount(I, weights=F2[J]**2, minlength=5)))
    literal = line_update_f1(R, I, J, phi, F2, nodes)
    i_star, j_star = nodes.anchor_indices
    gap1 = max(abs(general[i] - literal[i]) / abs(literal[i])
               for i in range(5) if i != i_star)
    general2 = (np.bincount(J, weights=general[I] * proj, minlength=5)
                / (p2 * np.bincount(J, weights=general[I]**2, minlength=5)))
    literal2 = line_update_f2(R, I, J, phi, general, nodes)
    gap2 = max(abs(general2[j] - literal2[j]) / abs(literal2[j])
               for j in range(5) if j != j_star)
    assert max(gap1, gap2) <= 1e-14
    report(5, "rank %d, node errors %.2e, per-line reduction gap %.1e"
           % (model.rank, worst, max(gap1, gap2)))


def test_criterion_6_advdiff_desk_replication():
    t0 = time.perf_counter()
    p = advection_diffusion_1d(999, 0.01)
    nodes = sparse_cross_nodes(p.box, 5, 5)
    assert len(nodes.members) == 9
    lines = [snapshot_sweep(p, *sweep) for sweep in nodes.sweeps()]
    tensor = SnapshotTensor.from_lines(nodes, lines)
    model = decompose(tensor, eps_node=1e-3)
    assert model.converged
    node_errs = []
    for node in nodes.members:
        node_errs.append(np.linalg.norm(
            tensor.snapshot(node) - eval_at_node(model, node))
            / np.linalg.norm(tensor.snapshot(node)))
    assert max(node_errs) < 1e-3

    interpolated = interpolate_model(model)
    rows = error_grid(interpolated, p, 20, 20)
    errs = np.array([r["rel_err"] for r in rows])
    reliable = float(np.mean(errs < RELIABLE_THRESHOLD))
    assert reliable >= 0.90

    # cells at the sampled nodes stay accurate (< 1.5%)
    for node in nodes.members:
        mu1, mu2 = nodes.node_values(node)
        ref = direct_reference_solve(p, mu1, mu2)
        assert relative_error(interpolated(mu1, mu2), ref) < 0.015
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(6, "rank %d, max node err %.2e, reliable fraction %.3f, "
              "max grid err %.3f in %.0f s"
           % (model.rank, max(node_errs), reliable, errs.max(), elapsed))


def test_criterion_7_estimation_noiseless():
    t0 = time.perf_counter()
    p = helmholtz_2d("sim3", 50)  # n = 2500
    true = (0.55, 0.45)
    x_obs = direct_reference_solve(p, *true)
    records = refine_estimate(p, x_obs, runs=3, n1=7, n2=7,
                              true_parameters=true)
    final = records[-1]
    elapsed = time.perf_counter() - t0
    assert final.rel_err_mu1 <= 0.01
    assert final.rel_err_mu2 <= 0.05
    assert elapsed < 600.0
    report(7, "3 runs, final rel errs %.4f%% / %.4f%% (ranks %s) in %.0f s"
           % (100 * final.rel_err_mu1, 100 * final.rel_err_mu2,
              [r.rank for r in records], elapsed))


def test_criterion_8_estimation_noisy():
    p = advection_diffusion_1d(999, 0.01)
    true = (0.3, 0.4)
    u = direct_reference_solve(p, *true)
    outcomes = []
    for seed in range(5):
        x_obs = add_noise(u, 1e-2, seed=seed)
        records = refine_estimate(p, x_obs, runs=3, n1=5, n2=5,
                                  true_parameters=true)
        final = records[-1]
        outcomes.append((final.rel_err_mu1, final.rel_err_mu2))
        for err in outcomes[-1]:
            assert 0.001 <= err <= 0.10
    report(8, "5 seeds, rel errs %% = %s"
           % ["(%.2f, %.2f)" % (100 * a, 100 * b) for a, b in outcomes])


def test_criterion_9_online_offline_split():
    p = advection_diffusion_1d(9999, 0.01)
    nodes = sparse_cross_nodes(p.box, 5, 5)
    lines = [snapshot_sweep(p, *sweep) for sweep in nodes.sweeps()]
    model = decompose(SnapshotTensor.from_lines(nodes, lines), eps_node=1e-3)
    assert model.converged
    interpolated = interpolate_model(model)

    direct_times = []
    for _ in range(11):
        t0 = time.perf_counter()
        direct_reference_solve(p, 0.31, 0.17)
        direct_times.append(time.perf_counter() - t0)
    online_times = []
    for _ in range(101):
        t0 = time.perf_counter()
        interpolated(0.31, 0.17)
        online_times.append(time.perf_counter() - t0)
    direct = float(np.median(direct_times))
    online = float(np.median(online_times))
    assert online <= direct / 10.0
    report(9, "median online %.3f ms vs direct %.3f ms (ratio %.0fx, rank %d)"
           % (1e3 * online, 1e3 * direct, direct / online, model.rank))


def test_criterion_10_full_grid_path():
    p = helmholtz_2d("sim2", 30)  # n = 900
    nodes = full_grid_nodes(p.box, 5, 5)
    lines = [snapshot_sweep(p, *sweep) for sweep in nodes.sweeps()]
    tensor = SnapshotTensor.from_lines(nodes, lines)
    model = decompose(tensor, eps_node=1e-3)
    assert model.converged
    worst_node = 0.0
    for node in nodes.members:
        worst_node = max(worst_node, np.linalg.norm(
            tensor.snapshot(node) - eval_at_node(model, node))
            / np.linalg.norm(tensor.snapshot(node)))
    assert worst_node < 1e-3
    interpolated = interpolate_model(model)
    rows = error_grid(interpolated, p, 10, 10)
    errs = np.array([r["rel_err"] for r in rows])
    assert np.all(errs < RELIABLE_THRESHOLD)
    report(10, "rank %d, max node err %.2e, all %d cells reliable "
               "(max %.3f%%)" % (model.rank, worst_node, len(rows),
                                 100 * errs.max()))
