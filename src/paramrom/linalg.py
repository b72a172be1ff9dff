"""Dense/sparse kernels used by the rest of the toolkit.

Sparse matrices are plain ``scipy.sparse`` CSR matrices throughout; this
module adds the thin pieces the solvers need on top of them: a counted LU
factorization (so tests can assert how many factorizations a workflow
performs), and natural cubic splines that interpolate several value
columns over shared knots.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import OutOfRangeError, SingularMatrixError

# Workflow-level cost counters, incremented by LUFactorization. Read them
# with factorization_count()/triangular_solve_count(); tests assert deltas.
_COUNTS = {"factor": 0, "solve": 0}


def factorization_count():
    return _COUNTS["factor"]


def triangular_solve_count():
    return _COUNTS["solve"]


class LUFactorization:
    """LU factorization of a square sparse matrix with partial pivoting.

    Wraps SuperLU; reusable for repeated solves.
    Raises SingularMatrixError when a pivot falls below 1e-14 times the
    largest matrix entry.
    """

    def __init__(self, A):
        A = sp.csc_matrix(A)
        if A.shape[0] != A.shape[1]:
            raise ValueError("matrix must be square, got %s" % (A.shape,))
        self.n = A.shape[0]
        amax = np.abs(A.data).max() if A.nnz else 0.0
        try:
            self._lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:  # SuperLU signals exact singularity this way
            raise SingularMatrixError(str(exc)) from exc
        piv = np.abs(self._lu.U.diagonal())
        if piv.size == 0 or piv.min() < 1e-14 * amax:
            raise SingularMatrixError(
                "pivot %.3e below threshold %.3e" % (piv.min(), 1e-14 * amax)
            )
        _COUNTS["factor"] += 1

    def solve(self, rhs):
        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.shape[0] != self.n:
            raise ValueError("rhs length %d does not match matrix size %d" % (rhs.shape[0], self.n))
        _COUNTS["solve"] += 1
        return self._lu.solve(rhs)


def _thomas_spd(lower, diag, upper, rhs):
    # Plain Thomas recurrence for the diagonally dominant spline system.
    k = diag.shape[0]
    d = diag.copy()
    b = rhs.copy()
    for i in range(1, k):
        m = lower[i - 1] / d[i - 1]
        d[i] -= m * upper[i - 1]
        b[i] -= m * b[i - 1]
    y = np.empty_like(b)
    y[k - 1] = b[k - 1] / d[k - 1]
    for i in range(k - 2, -1, -1):
        y[i] = (b[i] - upper[i] * y[i + 1]) / d[i]
    return y


class CubicSpline:
    """Natural cubic spline through (knots, values).

    ``values`` may be shaped (k,) or (k, m): all m columns are fitted over
    the shared knots in one pass and evaluated together, which keeps model
    evaluation at O(m) per query. With fewer than 4 knots the spline
    degrades to the interpolating polynomial of matching degree (linear
    for 2 knots, quadratic for 3). Evaluation outside the knot range
    raises OutOfRangeError; the parameter domain is a closed box and
    extrapolation is never meaningful here.

    The fit is stored as a table of cubic coefficients per interval in the
    local variable t = x - knots[i], plus a zero-width row at the last
    knot, so every knot returns its stored value exactly. A call is one
    ``searchsorted`` and a Horner step, for a scalar x (result shaped like
    one row of ``values``) or a 1-D array of p points (result (p,) or
    (p, m)).
    """

    def __init__(self, knots, values):
        x = np.asarray(knots, dtype=np.float64)
        if x.ndim != 1 or x.shape[0] < 2:
            raise ValueError("need at least 2 knots")
        if np.any(np.diff(x) <= 0):
            raise ValueError("knots must be strictly increasing")
        y = np.asarray(values, dtype=np.float64)
        if y.ndim not in (1, 2) or y.shape[0] != x.shape[0]:
            raise ValueError("values length does not match knots")
        self.knots = x
        self.values = y
        self._lo, self._hi = float(x[0]), float(x[-1])
        k = x.shape[0]
        h = np.diff(x).reshape((k - 1,) + (1,) * (y.ndim - 1))
        slope = np.diff(y, axis=0) / h
        # Second derivatives at the knots: natural spline for 4+ knots, and
        # below that the interpolating polynomial's constant one (zero for a
        # line), so both fill the same table.
        M = np.zeros_like(y)
        if k == 3:
            M[:] = 2.0 * (slope[1] - slope[0]) / (x[2] - x[0])
        elif k >= 4:
            rhs = slope[1:] - slope[:-1]
            diag = (h[:-1] + h[1:]) / 3.0
            off = h[1:-1] / 6.0
            M[1:-1] = _thomas_spd(off, diag, off, rhs)
        b, c, d = np.zeros_like(y), np.zeros_like(y), np.zeros_like(y)
        b[:-1] = slope - h * (2.0 * M[:-1] + M[1:]) / 6.0
        c[:-1] = 0.5 * M[:-1]
        d[:-1] = (M[1:] - M[:-1]) / (6.0 * h)
        # Stored with the knot axis last, so that indexing it with an array
        # of intervals broadcasts against the array of local variables t.
        self._coefficients = tuple(np.ascontiguousarray(a.T) for a in (y, b, c, d))

    def __call__(self, x):
        xs = self.knots
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 0:
            inside = self._lo <= float(x) <= self._hi
        else:
            inside = self._lo <= x.min() and x.max() <= self._hi
        if not inside:
            raise OutOfRangeError(
                "x=%s outside interpolation range [%g, %g]" % (x, xs[0], xs[-1])
            )
        i = xs.searchsorted(x, side="right") - 1
        t = x - xs[i]
        a, b, c, d = self._coefficients
        return (((d[..., i] * t + c[..., i]) * t + b[..., i]) * t + a[..., i]).T
