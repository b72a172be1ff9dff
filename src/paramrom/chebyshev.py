"""Chebyshev approximation of the parameter dependence and the companion
linearization it induces.

With one parameter fixed, A(mu) is approximated by P(mu) = sum_l P_l T_l(mu/c)
on a symmetric interval [-c, c] containing the parameter range. The
polynomial system P(mu) x = b is equivalent to a block-linear pencil
(K - mu M) u = (0, ..., 0, b) built from the Chebyshev three-term
recurrence, whose first block of u recovers x. CompanionPencil applies
K - mu M (K at mu = 0) and M as implicit block operators and solves
(K - sigma M) u = r with a single n x n LU of P(sigma) per instance (block
elimination; the adjoint elimination handles the transpose).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import NoConvergenceError
from .linalg import LUFactorization


def _cheb_coefficients(values):
    # Interpolation coefficients at second-kind points x_j = cos(pi j / d),
    # via the DCT-I style cosine sums; O(d^2), fine for d <= 64.
    d = values.shape[0] - 1
    j = np.arange(d + 1)
    C = np.cos(np.pi * np.outer(j, j) / d)
    w = np.ones(d + 1)
    w[0] = w[d] = 0.5
    a = (2.0 / d) * (C @ (w * values))
    a[0] *= 0.5
    a[d] *= 0.5
    return a


class ChebyshevSeries:
    """Polynomial sum a_l T_l(x / half_width) evaluated by Clenshaw."""

    def __init__(self, coefficients, half_width):
        self.coefficients = np.asarray(coefficients, dtype=np.float64)
        if self.coefficients.ndim != 1 or self.coefficients.size == 0:
            raise ValueError("coefficients must be a nonempty 1-D array")
        if half_width <= 0:
            raise ValueError("half_width must be positive")
        self.half_width = float(half_width)

    @property
    def degree(self):
        return self.coefficients.shape[0] - 1

    def __call__(self, x):
        a = self.coefficients
        t = np.asarray(x, dtype=np.float64) / self.half_width
        b1 = np.zeros_like(t)
        b2 = np.zeros_like(t)
        for k in range(a.shape[0] - 1, 0, -1):
            b1, b2 = 2.0 * t * b1 - b2 + a[k], b1
        out = t * b1 - b2 + a[0]
        return float(out) if np.isscalar(x) else out


def chebyshev_fit(f, half_width, tol=1e-13, max_degree=64):
    """Fit f on [-half_width, half_width] by adaptive interpolation.

    Interpolates at Chebyshev points of the second kind, doubling the
    degree until the trailing coefficients fall below tol relative to the
    largest one, then truncates the tail. Raises NoConvergenceError when
    max_degree is reached with the tail still above tolerance.
    """
    c = float(half_width)
    if c <= 0:
        raise ValueError("half_width must be positive")
    d = 8
    while True:
        xs = c * np.cos(np.pi * np.arange(d + 1) / d)
        values = np.array([float(f(x)) for x in xs])
        if not np.all(np.isfinite(values)):
            raise ValueError("function not finite on the fitting interval")
        a = _cheb_coefficients(values)
        amax = np.abs(a).max()
        if amax == 0.0:
            return ChebyshevSeries(np.zeros(1), c)
        tail = np.abs(a[-2:]).max()
        if tail <= tol * amax:
            keep = a.shape[0] - 1
            while keep > 0 and abs(a[keep]) <= tol * amax:
                keep -= 1
            return ChebyshevSeries(a[: keep + 1], c)
        if d >= max_degree:
            raise NoConvergenceError(
                "Chebyshev tail %.3e above tol %.3e at max degree %d"
                % (tail / amax, tol, max_degree),
                detail={"degree": d, "relative_tail": tail / amax},
            )
        d = min(2 * d, max_degree)


class ChebyshevOperator:
    """P(mu) = sum_l matrices[l] T_l(mu / half_width) for a problem with one
    parameter axis fixed. Degree is shared across terms (zero padding) and
    at least 1 so the pencil below is always well formed."""

    def __init__(self, problem, fixed_axis, fixed_value, tol=1e-13, max_degree=64):
        if fixed_axis not in (1, 2):
            raise ValueError("fixed_axis must be 1 or 2")
        (a1, b1), (a2, b2) = problem.box
        lo, hi = ((a1, b1) if fixed_axis == 1 else (a2, b2))
        if not lo <= fixed_value <= hi:
            raise ValueError("fixed value %g outside its interval [%g, %g]"
                             % (fixed_value, lo, hi))
        free_lo, free_hi = ((a2, b2) if fixed_axis == 1 else (a1, b1))
        self.half_width = max(abs(free_lo), abs(free_hi))
        self.fixed_axis = fixed_axis
        self.fixed_value = float(fixed_value)
        self.problem = problem

        series = []
        for f in problem.functions:
            if fixed_axis == 1:
                g = lambda mu, f=f: f(fixed_value, mu)
            else:
                g = lambda mu, f=f: f(mu, fixed_value)
            series.append(chebyshev_fit(g, self.half_width, tol, max_degree))
        self.scalar_series = series
        d = max(max(s.degree for s in series), 1)
        self.degree = d
        n = problem.n
        mats = []
        for l in range(d + 1):
            A = None
            for s, M in zip(series, problem.matrices):
                if l <= s.degree and s.coefficients[l] != 0.0:
                    term = M * s.coefficients[l]
                    A = term if A is None else A + term
            mats.append(sp.csr_matrix((n, n)) if A is None else sp.csr_matrix(A))
        self.matrices = mats

    @property
    def n(self):
        return self.problem.n

    def evaluate(self, mu):
        """Assemble P(mu) explicitly (test/oracle use)."""
        t = mu / self.half_width
        taus = [1.0, t]
        for _ in range(2, self.degree + 1):
            taus.append(2.0 * t * taus[-1] - taus[-2])
        A = None
        for tau, M in zip(taus[: self.degree + 1], self.matrices):
            term = M * tau
            A = term if A is None else A + term
        return sp.csr_matrix(A)


class CompanionPencil:
    """Implicit pencil (K, M) of the Chebyshev system plus the shifted
    inverse (K - sigma M)^{-1} realized with one LU of P(sigma).

    Block structure (d = degree, s = mu / half_width, blocks of length n):
      row 1:        -s u_1 + u_2
      rows 2..d-1:  u_{i-1} - 2 s u_i + u_{i+1}
      row d:        sum_{l=0}^{d-3} P_l u_{l+1} + (P_{d-2} - P_d) u_{d-1}
                    + P_{d-1} u_d + 2 s P_d u_d
    so that u_i = T_{i-1}(mu/c) x stacks a solution of P(mu) x = b into
    (K - mu M) u = (0, ..., 0, b). For d = 1 the pencil degenerates to
    P_0 + s P_1 acting on a single block.
    """

    def __init__(self, operator, sigma):
        self.operator = operator
        self.sigma = float(sigma)
        self.n = operator.n
        self.d = operator.degree
        self.c = operator.half_width
        s = self.sigma / self.c
        taus = [1.0, s]
        for _ in range(2, self.d + 1):
            taus.append(2.0 * s * taus[-1] - taus[-2])
        # tau_l = T_l(sigma/c), l = 0..d: recurrence scalars of the solve
        self.taus = np.array(taus[: self.d + 1])
        self.lu = LUFactorization(operator.evaluate(self.sigma))

    @property
    def block_size(self):
        return self.d * self.n

    def _blocks(self, u):
        u = np.asarray(u, dtype=np.float64)
        if u.shape[0] != self.block_size:
            raise ValueError("block vector must have length d*n = %d" % self.block_size)
        return u.reshape(self.d, self.n)

    def apply(self, u, mu, transpose=False):
        """(K - mu M) u, or (K - mu M)^T u; K is apply(u, 0).

        The first d-1 block rows are the scalar recurrence rows L; the last
        one is sum_j Q_j u_j with Q_j = P_j, except that
        Q_{d-2} = P_{d-2} - P_d and Q_{d-1} = P_{d-1} + 2 s P_d (for d = 1,
        Q_0 = P_0 + s P_1)."""
        d, s = self.d, mu / self.c
        P = self.operator.matrices
        U = self._blocks(u)
        L = np.eye(d - 1, d, 1) + np.eye(d - 1, d, -1) - 2.0 * s * np.eye(d - 1, d)
        Q = list(P[:d])
        if d == 1:
            Q[0] = P[0] + s * P[1]
        else:
            L[0, 0] = -s
            Q[d - 2] = P[d - 2] - P[d]
            Q[d - 1] = P[d - 1] + 2.0 * s * P[d]
        if transpose:
            out = L.T @ U[:-1]
            for j in range(d):
                out[j] += Q[j].T @ U[-1]
            return out.ravel()
        out = np.empty_like(U)
        out[:-1] = L @ U
        out[-1] = sum(Qj @ Uj for Qj, Uj in zip(Q, U))
        return out.ravel()

    def apply_M(self, u, transpose=False):
        """M u (or M^T u): scaled identity blocks in the recurrence rows
        and the leading coefficient P_d in the last row."""
        d, n, c = self.d, self.n, self.c
        P = self.operator.matrices
        U = self._blocks(u)
        out = np.empty_like(U)
        if d == 1:
            Pd = P[1].T if transpose else P[1]
            out[0] = -(Pd @ U[0]) / c
            return out.ravel()
        out[0] = U[0] / c
        for i in range(1, d - 1):
            out[i] = 2.0 * U[i] / c
        Pd = P[d].T if transpose else P[d]
        out[d - 1] = -2.0 * (Pd @ U[d - 1]) / c
        return out.ravel()

    def solve(self, r, transpose=False):
        """Solve (K - sigma M) u = r (or its transpose) by block elimination.

        Costs exactly one triangular solve pair with the stored LU of
        P(sigma) plus O(d) sparse products.
        """
        d, n = self.d, self.n
        s = self.sigma / self.c
        P = self.operator.matrices
        R = self._blocks(r)
        if d == 1:
            out = self.lu.solve(R[0], transpose=transpose)
            return out.reshape(1, n).ravel()
        if not transpose:
            g = np.zeros((d, n))
            g[1] = R[0]
            for i in range(2, d):
                g[i] = R[i - 1] + 2.0 * s * g[i - 1] - g[i - 2]
            acc = np.zeros(n)
            for l in range(d):
                acc += P[l] @ g[l]
            acc += P[d] @ (2.0 * s * g[d - 1] - g[d - 2])
            u1 = self.lu.solve(R[d - 1] - acc)
            out = np.empty((d, n))
            for i in range(d):
                out[i] = self.taus[i] * u1 + g[i]
            return out.ravel()
        # Adjoint elimination: transpose of the linear map above.
        v = np.zeros(n)
        for i in range(d):
            v += self.taus[i] * R[i]
        h = self.lu.solve(v, transpose=True)
        q = np.empty((d, n))
        for j in range(0, d - 2):
            q[j] = R[j] - P[j].T @ h
        q[d - 2] = R[d - 2] - (P[d - 2] - P[d]).T @ h
        q[d - 1] = R[d - 1] - (P[d - 1] + 2.0 * s * P[d]).T @ h
        gbar = q
        rbar = np.zeros((d - 1, n))
        for i in range(d - 1, 1, -1):
            rbar[i - 1] += gbar[i]
            gbar[i - 1] += 2.0 * s * gbar[i]
            gbar[i - 2] -= gbar[i]
        rbar[0] += gbar[1]
        out = np.empty((d, n))
        out[: d - 1] = rbar
        out[d - 1] = h
        return out.ravel()

    def stack_rhs(self, b):
        """Right-hand side (0, ..., 0, b) of the linearized system."""
        b = np.asarray(b, dtype=np.float64)
        if b.shape[0] != self.n:
            raise ValueError("rhs length mismatch")
        c = np.zeros(self.block_size)
        c[(self.d - 1) * self.n:] = b
        return c

    def dense_pencil(self, mu):
        """Assemble K - mu M densely (oracle for small problems)."""
        return np.column_stack([self.apply(e, mu) for e in np.eye(self.block_size)])
