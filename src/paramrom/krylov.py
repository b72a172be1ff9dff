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
solve. The paper uses BiCG instead: its two-sided Lanczos process needs
transposed solves for a dual sequence and breaks down when the dual and
primal vectors turn orthogonal, as it did on sim3 lines.
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


class ShiftedKrylov:
    """Shift-invert Arnoldi state for S = (K - sigma M)^{-1} M started from
    u0 = (K - sigma M)^{-1} (0, ..., 0, b).

    Basis vectors are orthonormal (classical Gram-Schmidt run twice) and are
    stored as the rows of a buffer that doubles when full. The Arnoldi
    relation
        S V_k = V_k H_k + h_{k+1,k} v_{k+1} e_k^T
    holds to rounding by construction, which makes the cheap residual in
    residual_estimate exact for the shift-inverted system.
    """

    def __init__(self, pencil, b):
        self.pencil = pencil
        self.b = np.asarray(b, dtype=np.float64)
        u0 = pencil.solve(pencil.stack_rhs(self.b))
        self.beta = float(np.linalg.norm(u0))
        if self.beta == 0.0:
            raise ValueError("right-hand side must be nonzero")
        self._V = np.empty((16, pencil.block_size))
        self._H = np.zeros((17, 16))
        self._V[0] = u0 / self.beta
        self.k = 0                      # completed Arnoldi steps
        self.exhausted = False          # happy breakdown: invariant subspace

    def _double_capacity(self):
        cap = self._V.shape[0]
        V = np.empty((2 * cap, self._V.shape[1]))
        V[:cap] = self._V
        H = np.zeros((2 * cap + 1, 2 * cap))
        H[: cap + 1, :cap] = self._H
        self._V, self._H = V, H

    @property
    def basis(self):
        """V_k (block_size x k)."""
        return self._V[: self.k].T

    @property
    def next_vector(self):
        """Unit vector v_{k+1} of the Arnoldi relation."""
        return self._V[self.k]

    @property
    def hessenberg(self):
        """(k+1) x k Hessenberg matrix of the Arnoldi relation."""
        return self._H[: self.k + 1, : self.k]

    def apply_operator(self, u):
        """S u = (K - sigma M)^{-1} M u."""
        return self.pencil.solve(self.pencil.apply_M(u))

    def grow(self, steps):
        """Advance the recurrence by ``steps`` Arnoldi iterations, one
        shifted solve pair each. A happy breakdown (invariant subspace)
        marks the state exhausted; the projected solutions are then exact.
        """
        for _ in range(steps):
            if self.exhausted:
                return self
            j = self.k
            if j + 1 == self._V.shape[0]:
                self._double_capacity()
            w = self.apply_operator(self._V[j])
            scale = float(np.linalg.norm(w))
            V = self._V[: j + 1]
            h = V @ w
            w -= h @ V
            correction = V @ w
            w -= correction @ V
            h += correction
            h_next = float(np.linalg.norm(w))
            self._H[: j + 1, j] = h
            self._H[j + 1, j] = h_next
            self.k += 1
            if h_next <= 1e-14 * scale:
                self._H[j + 1, j] = 0.0
                self.exhausted = True
                return self
            self._V[j + 1] = w / h_next
        return self

    def _reduced_solution(self, mu):
        if self.k < 1:
            raise ValueError("grow the subspace before evaluating")
        A = np.eye(self.k) - (mu - self.pencil.sigma) * self._H[: self.k, : self.k]
        rhs = np.zeros(self.k)
        rhs[0] = self.beta
        try:
            return np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularShiftError(
                "I - (mu - sigma) H_k is singular at mu=%g (k=%d)" % (mu, self.k)
            ) from exc

    def evaluate(self, mu):
        """Approximate solution of the original n x n system at mu: the
        first block of V_k y, with no solve.

        mu == sigma is permitted (the reduced system becomes the identity
        and the result is the first block of u0, the exact pencil
        solution); a warning is emitted since the shift was presumably
        chosen to avoid sample points.
        """
        if mu == self.pencil.sigma:
            warnings.warn("evaluating exactly at the shift sigma", stacklevel=2)
        y = self._reduced_solution(mu)
        return y @ self._V[: self.k, : self.pencil.n]

    def residual_estimate(self, mu):
        """Relative residual of the shift-inverted system at mu, from the
        Arnoldi relation: |mu - sigma| * h_{k+1,k} * |e_k^T y| / beta."""
        y = self._reduced_solution(mu)
        h_next = self._H[self.k, self.k - 1]
        return abs(mu - self.pencil.sigma) * h_next * abs(y[-1]) / self.beta

    def explicit_residual(self, mu):
        """||u0 - (I - (mu - sigma) S) V_k y|| / beta, the residual the cheap
        estimate reproduces; costs one extra solve pair."""
        y = self._reduced_solution(mu)
        u = y @ self._V[: self.k]
        r = (self.beta * self._V[0] - u
             + (mu - self.pencil.sigma) * self.apply_operator(u))
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
    estimate is below ``tol`` for every requested value (each check is a
    k x k solve per value) or k_max is reached, then materializes the
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
    while state.k < k_max and not state.exhausted:
        state.grow(1)
        if max(state.residual_estimate(mu) for mu in free_values) < tol:
            break

    residuals = np.array([state.residual_estimate(mu) for mu in free_values])
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
