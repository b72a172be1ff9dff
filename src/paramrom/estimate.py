"""Parameter estimation: recover (mu1, mu2) from an observed solution by
minimizing ||x_obs - model(mu1, mu2)|| over the box, with a multi-run
zoom workflow that rebuilds the model on successively smaller boxes
centered at the previous estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import hopgd, krylov, rom


def add_noise(x, eps, seed=None):
    """x + eps * standard-normal noise from a seeded generator."""
    x = np.asarray(x, dtype=np.float64)
    if eps == 0.0:
        return x.copy()
    rng = np.random.default_rng(seed)
    return x + eps * rng.standard_normal(x.shape[0])


def _nelder_mead(f, x0, box):
    """Minimize f over the box: reflection/expansion/contraction with every
    vertex clamped to the box; stops after 500 iterations or when the
    simplex diameter falls below 1e-10 times the box diagonal.

    ``f`` takes a point (p1, p2) of Python floats and returns a float. The
    vertices are float pairs and all arithmetic is scalar: each iteration
    costs one to four calls of f and no NumPy call. A start at a corner
    pushes the initial vertex that clamping would merge with it inward.
    Returns (point as an ndarray, value)."""
    (a1, b1), (a2, b2) = box
    a1, b1, a2, b2 = float(a1), float(b1), float(a2), float(b2)
    diagonal = math.hypot(b1 - a1, b2 - a2)

    def clamp(p1, p2):
        return (min(max(p1, a1), b1), min(max(p2, a2), b2))

    def toward(p, q, t):
        # p + t (q - p), clamped: reflection, expansion and contraction
        return clamp(p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))

    def close(p, q):
        # np.allclose(p, q) with its default tolerances
        return all(abs(u - v) <= 1e-8 + 1e-5 * abs(v) for u, v in zip(p, q))

    s1, s2 = 0.05 * (b1 - a1), 0.05 * (b2 - a2)
    x = clamp(float(x0[0]), float(x0[1]))
    simplex = [x, clamp(x[0] + s1, x[1]), clamp(x[0], x[1] + s2)]
    # Degenerate start (corner): push inward instead.
    if close(simplex[1], x):
        simplex[1] = clamp(x[0] - s1, x[1])
    if close(simplex[2], x):
        simplex[2] = clamp(x[0], x[1] - s2)
    values = [f(p) for p in simplex]

    for _ in range(500):
        order = sorted(range(3), key=values.__getitem__)
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        diameter = max(math.dist(simplex[0], simplex[1]),
                       math.dist(simplex[0], simplex[2]),
                       math.dist(simplex[1], simplex[2]))
        if diameter < 1e-10 * diagonal:
            break
        worst = simplex[2]
        centroid = (0.5 * (simplex[0][0] + simplex[1][0]),
                    0.5 * (simplex[0][1] + simplex[1][1]))
        reflected = toward(centroid, worst, -1.0)
        f_reflected = f(reflected)
        if f_reflected < values[0]:
            expanded = toward(centroid, worst, -2.0)
            f_expanded = f(expanded)
            if f_expanded < f_reflected:
                simplex[2], values[2] = expanded, f_expanded
            else:
                simplex[2], values[2] = reflected, f_reflected
        elif f_reflected < values[1]:
            simplex[2], values[2] = reflected, f_reflected
        else:
            contracted = toward(centroid, worst, 0.5)
            f_contracted = f(contracted)
            if f_contracted < values[2]:
                simplex[2], values[2] = contracted, f_contracted
            else:
                for idx in (1, 2):
                    simplex[idx] = toward(simplex[0], simplex[idx], 0.5)
                    values[idx] = f(simplex[idx])
    best = min(range(3), key=values.__getitem__)
    return np.array(simplex[best]), float(values[best])


def reduced_misfit(interpolated, x_obs):
    """f(w) = ||x_obs - mode_vectors @ w||_2 in the model's r coordinates.

    With the model's thin QR mode_vectors = QR and z = Q^T x_obs, the misfit
    is sqrt(||z - R w||^2 + c) where c = ||x_obs - Q z||^2 is the part of
    x_obs outside the mode span. c is taken from that residual vector, not
    as ||x_obs||^2 - ||z||^2, which cancels. ``w`` is one weight vector,
    shape (r,), which gives a float, or holds any number of them along
    leading axes, shape (..., r), which gives an array; each costs O(r^2).
    """
    q, r = interpolated.q, interpolated.r
    z = q.T @ x_obs
    outside = x_obs - q @ z
    c = float(outside @ outside)

    def misfit(w):
        d = z - w @ r.T
        # One reduction for both shapes: d @ d rounds differently and moves
        # Nelder-Mead's last, noise-level steps.
        squares = np.einsum("...i,...i->...", d, d) + c
        return math.sqrt(squares) if d.ndim == 1 else np.sqrt(squares)

    return misfit


def estimate_parameters(interpolated, x_obs, coarse=41):
    """argmin over the model box of ||x_obs - model(mu1, mu2)||_2.

    A coarse scan over a ``coarse`` x ``coarse`` grid seeds a box-clamped
    Nelder-Mead refinement; the returned objective never exceeds the best
    scanned value. The objective may be multimodal; the multi-run zoom
    workflow below is the remedy, not a failure condition here.

    Both stages run in the model's r coordinates (``reduced_misfit``, on
    the thin QR that each model takes once at O(n * rank^2)): O(n * rank)
    to project x_obs, then O(rank^2) per scan point and per Nelder-Mead
    call. The scan is one array operation on the splines of each axis at
    the grid values. A Nelder-Mead call is ``interpolated.weights`` (two
    scalar spline calls) and the reduced misfit of one weight vector; the
    simplex itself is kept in Python floats. The returned objective is
    recomputed once in full space at the returned point. No linear system
    is factored or solved.
    """
    x_obs = np.asarray(x_obs, dtype=np.float64)
    (a1, b1), (a2, b2) = interpolated.box
    misfit = reduced_misfit(interpolated, x_obs)
    grid1 = np.linspace(a1, b1, coarse)
    grid2 = np.linspace(a2, b2, coarse)
    scan = misfit(interpolated.spline1(grid1)[:, None] * interpolated.spline2(grid2))
    i, j = np.unravel_index(np.argmin(scan), scan.shape)
    start = np.array([grid1[i], grid2[j]])
    point, value = _nelder_mead(lambda p: misfit(interpolated.weights(*p)),
                                start, interpolated.box)
    if scan[i, j] < value:
        point = start
    mu1, mu2 = float(point[0]), float(point[1])
    return mu1, mu2, float(np.linalg.norm(x_obs - interpolated(mu1, mu2)))


@dataclass
class EstimationRun:
    """Record of one zoom run of the estimation workflow."""

    index: int
    box: tuple
    n1: int
    n2: int
    rank: int
    decomposition_converged: bool
    estimate: tuple
    objective: float
    rel_err_mu1: float = None
    rel_err_mu2: float = None
    sweep_info: list = field(default_factory=list)

    def to_dict(self):
        d = {
            "run": self.index,
            "box": [list(self.box[0]), list(self.box[1])],
            "nodes": {"kind": "sparse_cross", "n1": self.n1, "n2": self.n2},
            "rank": self.rank,
            "decomposition_converged": self.decomposition_converged,
            "estimate": {"mu1": self.estimate[0], "mu2": self.estimate[1]},
            "objective": self.objective,
            "sweeps": self.sweep_info,
        }
        if self.rel_err_mu1 is not None:
            d["rel_err_percent_mu1"] = 100.0 * self.rel_err_mu1
            d["rel_err_percent_mu2"] = 100.0 * self.rel_err_mu2
        return d


def _shrunk_box(original, center, half_widths):
    """Box of the given half-widths centered at ``center``, intersected
    with the original box (zoom boxes never leave it)."""
    out = []
    for (lo, hi), c, hw in zip(original, center, half_widths):
        out.append((max(lo, c - hw), min(hi, c + hw)))
    return tuple(out)


def refine_estimate(problem, x_obs, runs=3, n1=7, n2=7, shrink=0.5,
                    sweep_tol=1e-8, k_max=300, eps_node=1e-3, max_modes=50,
                    true_parameters=None):
    """Multi-run estimation: sample a sparse cross, build and interpolate
    the model, estimate, then halve the box around the estimate and repeat.

    Each run costs two snapshot sweeps (two LU factorizations), each at
    snapshot_sweep's default shift for the run's box; ``sweep_info`` records
    the shift and k of every line. Every run uses the same ``n1``, ``n2``
    and ``eps_node``. A run whose decomposition fails to converge still
    estimates with the best available model and is flagged in its record.
    """
    box0 = problem.box
    box = box0
    records = []
    for run in range(runs):
        nodes = hopgd.sparse_cross_nodes(box, n1, n2)
        lines = [krylov.snapshot_sweep(problem, *sweep, tol=sweep_tol, k_max=k_max)
                 for sweep in nodes.sweeps()]
        sweep_info = [{"fixed_axis": line.fixed_axis,
                       "fixed_value": line.fixed_value,
                       "sigma": line.sigma, "k": line.k} for line in lines]
        tensor = hopgd.SnapshotTensor.from_lines(nodes, lines)
        model = hopgd.decompose(tensor, eps_node=eps_node, max_modes=max_modes)
        interpolated = rom.interpolate_model(model)
        mu1_hat, mu2_hat, objective = estimate_parameters(interpolated, x_obs)
        record = EstimationRun(
            index=run + 1, box=box, n1=n1, n2=n2,
            rank=model.rank, decomposition_converged=model.converged,
            estimate=(mu1_hat, mu2_hat), objective=objective,
            sweep_info=sweep_info,
        )
        if true_parameters is not None:
            t1, t2 = true_parameters
            record.rel_err_mu1 = abs(mu1_hat - t1) / abs(t1)
            record.rel_err_mu2 = abs(mu2_hat - t2) / abs(t2)
        records.append(record)
        half_widths = (shrink * 0.5 * (box[0][1] - box[0][0]),
                       shrink * 0.5 * (box[1][1] - box[1][0]))
        box = _shrunk_box(box0, (mu1_hat, mu2_hat), half_widths)
    return records
