"""Shift-invert Arnoldi (FOM) solver: one basis answers every parameter
value on a line.

A sweep fixes one parameter, builds the companion pencil of the Chebyshev
approximation along the free axis and factors P(sigma) once. With
S = (K - sigma M)^{-1} M and u0 = (K - sigma M)^{-1} c, the pencil system
(K - mu M) u = c reads (I - (mu - sigma) S) u = u0, and the Krylov space
of S from u0 does not depend on mu. Arnoldi with full orthogonalization
builds its orthonormal basis V_k and Hessenberg matrix H_k at one solve
pair per step, k + 1 per line with u0; a value mu then costs a k x k solve
of (I - (mu - sigma) H_k) y = beta e_1 and the first block of V_k y, and no
solve. V_k is never stored at its full length d n: every block of every
basis vector lies in one n x (k + 1) subspace, so the state keeps an
orthonormal basis Q of it and the coefficients of each vector in Q (the
compact Arnoldi of Kressner & Roman, NLAA 2014). The paper uses BiCG
instead: its two-sided Lanczos process needs transposed solves for a dual
sequence and breaks down when the dual and primal vectors turn orthogonal,
as it did on sim3 lines.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .chebyshev import ChebyshevOperator, CompanionPencil
from .errors import NoConvergenceError, SingularShiftError


def default_sigma(interval):
    """Default shift: interval midpoint nudged by 2% of the half-width so
    the shift does not collide with equidistant sample values."""
    lo, hi = interval
    return 0.5 * (lo + hi) + 0.02 * 0.5 * (hi - lo)


def _cgs2(rows, w):
    """Classical Gram-Schmidt run twice: removes from w, in place, its
    components along the orthonormal rows and returns their coefficients."""
    h = rows @ w
    w -= h @ rows
    correction = rows @ w
    w -= correction @ rows
    return h + correction


class ShiftedKrylov:
    """Shift-invert Arnoldi state for S = (K - sigma M)^{-1} M started from
    u0 = (K - sigma M)^{-1} (0, ..., 0, b), in compact storage.

    Block i of S v is taus[i] u1 plus a combination of the blocks of v,
    where u1 is the one new n-vector that the step's triangular solve
    returns. So every block of every Arnoldi vector lies in the span of
    one orthonormal n x m matrix Q with m <= k + 1, and v_j is kept as its
    m x d coefficient matrix U_j: block i of v_j is Q U_j[:, i], and
    ||v_j|| = ||U_j||_F. This is the compact Arnoldi of Kressner & Roman,
    "Memory-efficient Arnoldi algorithms for linearizations of matrix
    polynomials in Chebyshev basis", Numer. Linear Algebra Appl. 21 (2014).
    A step orthogonalizes on two levels, each by classical Gram-Schmidt
    run twice: u1 against Q (adding one column, or none when u1 already
    lies in its span), then the new coefficients against U_0..U_j in the
    Frobenius inner product, at O(d k m) cost. The Arnoldi relation
        S V_k = V_k H_k + h_{k+1,k} v_{k+1} e_k^T
    holds to rounding by construction, which makes the cheap residual in
    residual_estimate exact for the shift-inverted system.
    """

    def __init__(self, pencil, b):
        self.pencil = pencil
        self.b = np.asarray(b, dtype=np.float64)
        u0 = pencil.solve(pencil.stack_rhs(self.b)).reshape(pencil.d, pencil.n)
        self.beta = float(np.linalg.norm(u0))
        if self.beta == 0.0:
            raise ValueError("right-hand side must be nonzero")
        # Block i of u0 is taus[i] times its first block.
        self._Q = np.empty((16, pencil.n))
        self._U = np.zeros((16, 16 * pencil.d))
        self._H = np.zeros((17, 16))
        self._Q[0] = u0[0] / np.linalg.norm(u0[0])
        self._U[0, : pencil.d] = (u0 @ self._Q[0]) / self.beta
        self.m = 1                      # columns of Q
        self.k = 0                      # completed Arnoldi steps
        self.exhausted = False          # happy breakdown: invariant subspace

    def _double_capacity(self):
        cap, d = self._Q.shape[0], self.pencil.d
        Q = np.empty((2 * cap, self._Q.shape[1]))
        Q[:cap] = self._Q
        # U_j[a, i] sits at a * d + i of row j, so rows keep their layout.
        U = np.zeros((2 * cap, 2 * cap * d))
        U[:cap, : cap * d] = self._U
        H = np.zeros((2 * cap + 1, 2 * cap))
        H[: cap + 1, :cap] = self._H
        self._Q, self._U, self._H = Q, U, H

    def _assemble(self, coefficients):
        """Full block vectors from coefficient rows (one row or a stack)."""
        m, d = self.m, self.pencil.d
        lead = coefficients.shape[:-1]
        C = coefficients[..., : m * d].reshape(lead + (m, d))
        return (C.swapaxes(-1, -2) @ self._Q[:m]).reshape(lead + (-1,))

    @property
    def block_basis(self):
        """Q (n x m): orthonormal basis of every block of every vector."""
        return self._Q[: self.m].T

    @property
    def basis(self):
        """V_k (block_size x k), assembled from Q and the coefficients."""
        return self._assemble(self._U[: self.k]).T

    @property
    def next_vector(self):
        """Unit vector v_{k+1} of the Arnoldi relation, assembled."""
        return self._assemble(self._U[self.k])

    @property
    def hessenberg(self):
        """(k+1) x k Hessenberg matrix of the Arnoldi relation."""
        return self._H[: self.k + 1, : self.k]

    def grow(self, steps):
        """Advance the recurrence by ``steps`` Arnoldi iterations, one
        shifted solve pair each. A happy breakdown (invariant subspace)
        marks the state exhausted; the projected solutions are then exact.
        """
        d = self.pencil.d
        taus = self.pencil.taus[:d]
        for _ in range(steps):
            if self.exhausted:
                return self
            j, m = self.k, self.m
            if j + 1 == self._Q.shape[0]:
                self._double_capacity()
            Q = self._Q[:m]
            G, u1 = self.pencil.solve_compact(Q, self._U[j, : m * d].reshape(m, d))
            # Level 1: u1 = Q a + rho q. q becomes a new column of Q unless
            # rho is at rounding level, where u1 lies in the span of Q and q
            # would be noise.
            size = float(np.linalg.norm(u1))
            a = _cgs2(Q, u1)
            rho = float(np.linalg.norm(u1))
            W = np.zeros((m + 1, d))
            W[:m] = G + np.outer(a, taus)
            if rho > 1e-14 * size:
                self._Q[m] = u1 / rho
                W[m] = rho * taus
                self.m += 1
            # Level 2: the coefficients against U_0..U_j.
            w = W[: self.m].ravel()
            scale = float(np.linalg.norm(w))
            h = _cgs2(self._U[: j + 1, : w.size], w)
            h_next = float(np.linalg.norm(w))
            self._H[: j + 1, j] = h
            self._H[j + 1, j] = h_next
            self.k += 1
            if h_next <= 1e-14 * scale:
                self._H[j + 1, j] = 0.0
                self.exhausted = True
                return self
            self._U[j + 1, : w.size] = w / h_next
        return self

    def _reduced_solution(self, mu):
        """y of (I - (mu - sigma) H_k) y = beta e_1; for a 1-D array of p
        values, a (p, k) array from one stacked solve."""
        k = self.k
        if k < 1:
            raise ValueError("grow the subspace before evaluating")
        shift = np.asarray(mu, dtype=np.float64) - self.pencil.sigma
        A = np.eye(k) - shift[..., None, None] * self._H[:k, :k]
        rhs = np.zeros(shift.shape + (k, 1))
        rhs[..., 0, 0] = self.beta
        try:
            return np.linalg.solve(A, rhs)[..., 0]
        except np.linalg.LinAlgError as exc:
            raise SingularShiftError(
                "I - (mu - sigma) H_k is singular at mu=%s (k=%d)" % (mu, k)
            ) from exc

    def evaluate(self, mu):
        """Approximate solution of the original n x n system at mu: the
        first block of V_k y, Q (sum_j y_j U_j[:, 0]), with no solve.

        mu == sigma is permitted (the reduced system becomes the identity
        and the result is the first block of u0, the exact pencil
        solution); a warning is emitted since the shift was presumably
        chosen to avoid sample points.
        """
        if mu == self.pencil.sigma:
            warnings.warn("evaluating exactly at the shift sigma", stacklevel=2)
        y = self._reduced_solution(mu)
        m, d = self.m, self.pencil.d
        return (y @ self._U[: self.k, : m * d : d]) @ self._Q[:m]

    def residual_estimate(self, mu):
        """Relative residual of the shift-inverted system at mu, from the
        Arnoldi relation: |mu - sigma| * h_{k+1,k} * |e_k^T y| / beta.
        A 1-D array of values gives an array of estimates."""
        y = self._reduced_solution(mu)
        h_next = self._H[self.k, self.k - 1]
        shift = np.asarray(mu, dtype=np.float64) - self.pencil.sigma
        estimate = np.abs(shift) * h_next * np.abs(y[..., -1]) / self.beta
        return float(estimate) if estimate.ndim == 0 else estimate

    def explicit_residual(self, mu):
        """||u0 - (I - (mu - sigma) S) V_k y|| / beta, the residual the cheap
        estimate reproduces; assembles V_k y and costs one extra solve pair."""
        y = self._reduced_solution(mu)
        u = self._assemble(y @ self._U[: self.k])
        r = (self.beta * self._assemble(self._U[0]) - u
             + (mu - self.pencil.sigma) * self.pencil.solve(self.pencil.apply_M(u)))
        return float(np.linalg.norm(r)) / self.beta


@dataclass
class SnapshotLine:
    """Solutions along one parameter line (one sweep, one factorization)."""

    fixed_axis: int
    fixed_value: float
    values: np.ndarray
    snapshots: np.ndarray          # (len(values), n)
    converged: np.ndarray          # bool per value
    residuals: np.ndarray
    sigma: float
    tol: float
    k: int
    meta: dict = field(default_factory=dict)

    def snapshot(self, mu):
        idx = int(np.argmin(np.abs(self.values - mu)))
        if abs(self.values[idx] - mu) > 1e-12 * max(1.0, abs(mu)):
            raise KeyError("value %g not on this line" % mu)
        return self.snapshots[idx]


def snapshot_sweep(problem, fixed_axis, fixed_value, free_values, sigma=None,
                   tol=1e-8, k_max=300):
    """Generate all snapshots on one parameter line from a single Krylov
    basis (exactly one LU factorization).

    The shift defaults to default_sigma of [min, max] of the free values.
    Grows the subspace one step at a time until the cheap residual
    estimate is below ``tol`` for every requested value (each check is one
    stacked solve of a k x k system per value) or k_max is reached, or the
    recurrence ends in a happy breakdown, then materializes the
    solutions and confirms the estimate against one explicit residual.
    Raises NoConvergenceError (with the partial SnapshotLine attached)
    when some values remain above tolerance at k_max, and
    SingularShiftError when the projected system at some value is
    singular.
    """
    free_values = np.asarray(free_values, dtype=np.float64)
    (a1, b1), (a2, b2) = problem.box
    lo, hi = ((a2, b2) if fixed_axis == 1 else (a1, b1))
    if free_values.min() < lo or free_values.max() > hi:
        raise ValueError("free values outside the parameter box")
    if sigma is None:
        sigma = default_sigma((free_values.min(), free_values.max()))

    operator = ChebyshevOperator(problem, fixed_axis, fixed_value)
    pencil = CompanionPencil(operator, sigma)
    state = ShiftedKrylov(pencil, problem.b)
    while True:
        state.grow(1)
        residuals = state.residual_estimate(free_values)
        if residuals.max() < tol or state.exhausted or state.k >= k_max:
            break

    snaps = np.array([state.evaluate(mu) for mu in free_values])
    converged = residuals < tol
    # One extra solve pair: confirm the cheap estimate against the
    # explicitly computed residual at the worst value.
    worst = int(np.argmax(residuals))
    explicit = state.explicit_residual(free_values[worst])
    if abs(explicit - residuals[worst]) > 100.0 * tol:
        warnings.warn(
            "residual estimate %.2e disagrees with explicit residual %.2e"
            % (residuals[worst], explicit), stacklevel=2)

    line = SnapshotLine(
        fixed_axis=fixed_axis,
        fixed_value=float(fixed_value),
        values=free_values,
        snapshots=snaps,
        converged=converged,
        residuals=residuals,
        sigma=float(sigma),
        tol=float(tol),
        k=state.k,
        meta={"chebyshev_degree": operator.degree,
              "chebyshev_coefficients": [s.coefficients.tolist()
                                         for s in operator.scalar_series]},
    )
    if not converged.all():
        bad = [(float(mu), float(r))
               for mu, r in zip(free_values[~converged], residuals[~converged])]
        raise NoConvergenceError(
            "sweep left %d value(s) above tol %.1e at k=%d: %s"
            % (len(bad), tol, state.k, bad),
            partial=line,
            detail={"unconverged": bad},
        )
    return line
