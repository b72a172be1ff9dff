"""Dense/sparse kernels used by the rest of the toolkit.

Sparse matrices are plain ``scipy.sparse`` CSR matrices throughout; this
module adds the thin pieces the solvers need on top of them: triplet
assembly with bounds checking, a counted LU factorization (so tests can
assert how many factorizations a workflow performs), and natural cubic
splines that interpolate several value columns over shared knots.
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


def sparse_from_triplets(n_rows, n_cols, rows, cols, values):
    """Assemble a CSR matrix from coordinate triplets.

    Duplicate (row, col) entries are summed; indices are bounds-checked.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if not (rows.shape == cols.shape == values.shape):
        raise ValueError("rows, cols and values must have matching lengths")
    if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
        raise ValueError("row index out of bounds")
    if cols.size and (cols.min() < 0 or cols.max() >= n_cols):
        raise ValueError("column index out of bounds")
    A = sp.coo_matrix((values, (rows, cols)), shape=(n_rows, n_cols))
    A = A.tocsr()
    A.sum_duplicates()
    return A


class LUFactorization:
    """LU factorization of a square sparse matrix with partial pivoting.

    Wraps SuperLU; reusable for repeated solves and transpose solves.
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

    def solve(self, rhs, transpose=False):
        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.shape[0] != self.n:
            raise ValueError("rhs length %d does not match matrix size %d" % (rhs.shape[0], self.n))
        _COUNTS["solve"] += 1
        return self._lu.solve(rhs, trans="T" if transpose else "N")


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
    """

    def __init__(self, knots, values):
        x = np.asarray(knots, dtype=np.float64)
        if x.ndim != 1 or x.shape[0] < 2:
            raise ValueError("need at least 2 knots")
        if np.any(np.diff(x) <= 0):
            raise ValueError("knots must be strictly increasing")
        y = np.asarray(values, dtype=np.float64)
        self._scalar = y.ndim == 1
        if self._scalar:
            y = y[:, None]
        if y.shape[0] != x.shape[0]:
            raise ValueError("values length does not match knots")
        self.knots = x
        self.values = y
        k = x.shape[0]
        if k < 4:
            # Interpolating polynomial, centered for conditioning.
            self._center = x.mean()
            V = np.vander(x - self._center, k, increasing=True)
            self._poly = np.linalg.solve(V, y)       # (deg+1, m)
            self.second_derivatives = None
            return
        h = np.diff(x)                                # (k-1,)
        rhs = (y[2:] - y[1:-1]) / h[1:, None] - (y[1:-1] - y[:-2]) / h[:-1, None]
        diag = (h[:-1] + h[1:]) / 3.0
        off = h[1:-1] / 6.0
        M = np.zeros_like(y)
        M[1:-1] = _thomas_spd(off, diag, off, rhs)    # natural: M[0] = M[-1] = 0
        self.second_derivatives = M
        self._h = h

    def __call__(self, x):
        xs = self.knots
        if x < xs[0] or x > xs[-1]:
            raise OutOfRangeError(
                "x=%g outside interpolation range [%g, %g]" % (x, xs[0], xs[-1])
            )
        if self.second_derivatives is None:
            t = x - self._center
            out = self._poly[-1].copy()
            for c in self._poly[-2::-1]:
                out = out * t + c
            return out[0] if self._scalar else out
        i = int(np.searchsorted(xs, x, side="right")) - 1
        i = min(max(i, 0), xs.shape[0] - 2)
        h = self._h[i]
        a = xs[i + 1] - x
        b = x - xs[i]
        M0 = self.second_derivatives[i]
        M1 = self.second_derivatives[i + 1]
        y0 = self.values[i]
        y1 = self.values[i + 1]
        out = (M0 * a**3 + M1 * b**3) / (6.0 * h) \
            + (y0 / h - M0 * h / 6.0) * a + (y1 / h - M1 * h / 6.0) * b
        return out[0] if self._scalar else out
