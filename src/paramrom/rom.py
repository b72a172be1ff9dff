"""Interpolated reduced order model: spline the mode profiles and evaluate
anywhere in the parameter box at O(n * rank) cost, no linear solves.

Error classification follows the usual reduced-order-model reporting
bands: below 1.5% relative error is "accurate", below 6% "reliable",
anything above is "poor".
"""

from __future__ import annotations

import csv

import numpy as np

from .errors import OutOfRangeError, ParamRomError, ZeroReferenceError
from .linalg import CubicSpline
from .problems import direct_reference_solve

ACCURATE_THRESHOLD = 0.015
RELIABLE_THRESHOLD = 0.06


class InterpolatedModel:
    """Natural cubic splines through the mode profile evaluations, one
    vector-valued spline per axis (all modes share the knots)."""

    def __init__(self, model):
        if model.rank < 1:
            raise ValueError("model needs at least one mode")
        self.mode_vectors = model.mode_vectors
        self.nodes = model.nodes
        self.box = model.nodes.box
        self.spline1 = CubicSpline(model.nodes.mu1_values, model.f1.T)
        self.spline2 = CubicSpline(model.nodes.mu2_values, model.f2.T)
        self.meta = {
            "interpolation": "natural_cubic_spline",
            "eps_node": model.eps_node,
            "eps_fixed_point": model.eps_fixed_point,
            "converged": model.converged,
        }

    @property
    def rank(self):
        return self.mode_vectors.shape[1]

    @property
    def n(self):
        return self.mode_vectors.shape[0]

    def weights(self, mu1, mu2):
        """Per-mode scalar factors F1(mu1) * F2(mu2)."""
        (a1, b1), (a2, b2) = self.box
        if not (a1 <= mu1 <= b1 and a2 <= mu2 <= b2):
            raise OutOfRangeError(
                "(%g, %g) outside the box [%g, %g] x [%g, %g]"
                % (mu1, mu2, a1, b1, a2, b2))
        return self.spline1(mu1) * self.spline2(mu2)

    def __call__(self, mu1, mu2):
        return self.mode_vectors @ self.weights(mu1, mu2)


def interpolate_model(model):
    """Build the spline-interpolated model from a separated model."""
    return InterpolatedModel(model)


def relative_error(x_approx, x_ref):
    """||x_approx - x_ref||_2 / ||x_ref||_2 (a fraction, not percent)."""
    ref = float(np.linalg.norm(x_ref))
    if ref == 0.0:
        raise ZeroReferenceError("reference vector has zero norm")
    return float(np.linalg.norm(np.asarray(x_approx) - np.asarray(x_ref))) / ref


def classify_error(err):
    """'accurate' (< 1.5%), 'reliable' (< 6%) or 'poor'."""
    if err < ACCURATE_THRESHOLD:
        return "accurate"
    if err < RELIABLE_THRESHOLD:
        return "reliable"
    return "poor"


def error_grid(interpolated, problem, grid1=20, grid2=20):
    """Compare model against the direct solver on an equidistant grid.

    Returns a list of row dicts (mu1, mu2, rel_err, class); toolkit errors
    (ParamRomError, e.g. a singular cell) are recorded per cell ('failed',
    NaN error) without aborting the rest of the grid; anything else, such
    as a model/problem size mismatch, propagates. Each cell assembles and factors its own matrix;
    nothing is reused since the operator varies nonlinearly over the box.
    """
    (a1, b1), (a2, b2) = interpolated.box
    rows = []
    for mu1 in np.linspace(a1, b1, grid1):
        for mu2 in np.linspace(a2, b2, grid2):
            row = {"mu1": float(mu1), "mu2": float(mu2)}
            try:
                reference = direct_reference_solve(problem, mu1, mu2)
                err = relative_error(interpolated(mu1, mu2), reference)
                row["rel_err"] = err
                row["class"] = classify_error(err)
            except ParamRomError as exc:
                row["rel_err"] = float("nan")
                row["class"] = "failed"
                row["error"] = str(exc)
            rows.append(row)
    return rows


def write_error_grid_csv(rows, path):
    """CSV with header mu1,mu2,rel_err_percent,class."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mu1", "mu2", "rel_err_percent", "class"])
        for row in rows:
            writer.writerow([
                "%.12g" % row["mu1"],
                "%.12g" % row["mu2"],
                "%.6g" % (100.0 * row["rel_err"]),
                row["class"],
            ])
    return str(path)
