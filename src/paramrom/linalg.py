"""Dense/sparse kernels used by the rest of the toolkit.

Sparse matrices are plain ``scipy.sparse`` CSR matrices throughout; this
module adds the thin pieces the solvers need on top of them: a counted LU
factorization (so tests can assert how many factorizations a workflow
performs), and natural cubic splines that interpolate several value
columns over shared knots.
"""

from __future__ import annotations

from bisect import bisect_right

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
    for 2 knots, quadratic for 3). Evaluation outside the knot range, or
    at NaN, raises OutOfRangeError; the parameter domain is a closed box
    and extrapolation is never meaningful here.

    The fit is one table of per-interval rows (a, b, c, d), shaped
    (k, 4, m): the power-basis coefficients of a + b t + c t^2 + d t^3 in
    the local variable t = x - knots[i], plus a zero-width row at the last
    knot, so every knot returns its stored value exactly. A call evaluates
    the row of x's interval in Horner order, ((d t + c) t + b) t + a:
    - a scalar x (Python int or float, NumPy float or 0-d array) takes a
      fast path on Python floats: a range check, ``bisect_right`` on the
      knot list and the Horner step per column, giving an array shaped
      like one row of ``values``;
    - a 1-D array of p points gathers its rows with one ``searchsorted``
      and makes the same Horner step in NumPy, giving (p,) or (p, m).
    Both paths round alike, so an array call returns the scalar results
    bit for bit.
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
        k = x.shape[0]
        y2 = y.reshape(k, -1)
        h = np.diff(x)[:, None]
        slope = np.diff(y2, axis=0) / h
        # Second derivatives at the knots: natural spline for 4+ knots, and
        # below that the interpolating polynomial's constant one (zero for a
        # line), so both fill the same table.
        M = np.zeros_like(y2)
        if k == 3:
            M[:] = 2.0 * (slope[1] - slope[0]) / (x[2] - x[0])
        elif k >= 4:
            rhs = slope[1:] - slope[:-1]
            diag = (h[:-1] + h[1:]) / 3.0
            off = h[1:-1] / 6.0
            M[1:-1] = _thomas_spd(off, diag, off, rhs)
        table = np.zeros((k, 4, y2.shape[1]))
        table[:, 0] = y2
        table[:-1, 1] = slope - h * (2.0 * M[:-1] + M[1:]) / 6.0
        table[:-1, 2] = 0.5 * M[:-1]
        table[:-1, 3] = (M[1:] - M[:-1]) / (6.0 * h)
        self._table = table
        # The scalar path's view of the same table: per interval, one
        # (a, b, c, d) tuple of Python floats per column.
        self._knot_list = x.tolist()
        self._rows = [list(zip(*row)) for row in table.tolist()]
        self._one_column = y.ndim == 1

    def _out_of_range(self, x):
        return OutOfRangeError("x=%s outside interpolation range [%g, %g]"
                               % (x, self.knots[0], self.knots[-1]))

    def __call__(self, x):
        if not isinstance(x, (float, int)):
            x = np.asarray(x, dtype=np.float64)
            if x.ndim != 0:
                return self._call_array(x)
        x = float(x)
        xs = self._knot_list
        if not xs[0] <= x <= xs[-1]:
            raise self._out_of_range(x)
        i = bisect_right(xs, x) - 1
        t = x - xs[i]
        out = np.array([((d * t + c) * t + b) * t + a for a, b, c, d in self._rows[i]])
        return out[0] if self._one_column else out

    def _call_array(self, x):
        if not (self.knots[0] <= x.min() and x.max() <= self.knots[-1]):
            raise self._out_of_range(x)
        i = self.knots.searchsorted(x, side="right") - 1
        t = (x - self.knots[i])[:, None]
        a, b, c, d = self._table[i].transpose(1, 0, 2)
        out = ((d * t + c) * t + b) * t + a
        return out[:, 0] if self._one_column else out
