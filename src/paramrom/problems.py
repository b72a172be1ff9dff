"""Parameterized test problems in split form A(mu1, mu2) = sum_i A_i f_i(mu1, mu2).

Presets discretize a Helmholtz equation on the unit square and a 1-D
advection-diffusion equation (one implicit Euler step) with finite
differences and homogeneous Dirichlet boundaries; only interior unknowns
are kept. Coefficient functions use a small serializable expression
vocabulary so problems round-trip through a directory of Matrix Market
files plus a JSON manifest.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import storage
from .linalg import LUFactorization

_BASIS = {
    "const": lambda t: 1.0,
    "sin": math.sin,
    "cos": math.cos,
    "sin2": lambda t: math.sin(t) ** 2,
    "cos2": lambda t: math.cos(t) ** 2,
    "pow": None,  # handled separately, needs the exponent
}


class ParamFunction:
    """Scalar coefficient f(mu1, mu2) as a sum of vocabulary terms.

    Each term is a dict {"coeff": c, "fn": name, "var": "mu1"|"mu2",
    "k": exponent (pow only)}; "const" terms need no var. The vocabulary
    covers every coefficient appearing in the presets and keeps problem
    manifests serializable.
    """

    def __init__(self, terms):
        self.terms = [dict(t) for t in terms]
        for t in self.terms:
            fn = t.get("fn")
            if fn not in _BASIS:
                raise ValueError("unknown basis function %r" % fn)
            if fn != "const" and t.get("var") not in ("mu1", "mu2"):
                raise ValueError("term %r needs var 'mu1' or 'mu2'" % t)
            if fn == "pow" and "k" not in t:
                raise ValueError("pow term needs exponent 'k'")

    def __call__(self, mu1, mu2):
        total = 0.0
        for t in self.terms:
            c = t.get("coeff", 1.0)
            fn = t["fn"]
            if fn == "const":
                total += c
                continue
            arg = mu1 if t["var"] == "mu1" else mu2
            if fn == "pow":
                total += c * arg ** t["k"]
            else:
                total += c * _BASIS[fn](arg)
        return total

    def to_dict(self):
        return {"terms": self.terms}

    @classmethod
    def from_dict(cls, d):
        return cls(d["terms"])

    @classmethod
    def const(cls, value):
        return cls([{"coeff": float(value), "fn": "const"}])


ONE = ParamFunction.const(1.0)


@dataclass
class SplitProblem:
    """A(mu1, mu2) = sum_i matrices[i] * functions[i](mu1, mu2), with
    functions[0] identically one. ``box`` is ((a1, b1), (a2, b2))."""

    matrices: list
    functions: list
    b: np.ndarray
    box: tuple
    grid: dict = field(default_factory=dict)
    name: str = "custom"

    def __post_init__(self):
        n = self.matrices[0].shape[0]
        for A in self.matrices:
            if A.shape != (n, n):
                raise ValueError("all term matrices must be n x n")
        if len(self.matrices) != len(self.functions):
            raise ValueError("one coefficient function per matrix required")
        if self.b.shape[0] != n:
            raise ValueError("right-hand side length mismatch")

    @property
    def n(self):
        return self.matrices[0].shape[0]

    def coefficient(self, i, mu1, mu2):
        return float(self.functions[i](mu1, mu2))

    def in_box(self, mu1, mu2):
        (a1, b1), (a2, b2) = self.box
        return a1 <= mu1 <= b1 and a2 <= mu2 <= b2


def assemble(problem, mu1, mu2):
    """Evaluate A(mu1, mu2) as a CSR matrix."""
    if not problem.in_box(mu1, mu2):
        warnings.warn(
            "assembling outside the parameter box (%g, %g)" % (mu1, mu2),
            stacklevel=2,
        )
    A = None
    for M, f in zip(problem.matrices, problem.functions):
        term = M * float(f(mu1, mu2))
        A = term if A is None else A + term
    return A.tocsr()


def direct_reference_solve(problem, mu1, mu2):
    """Assemble and solve by LU: the ground-truth oracle for error maps."""
    A = assemble(problem, mu1, mu2)
    return LUFactorization(A).solve(np.asarray(problem.b, dtype=np.float64))


def _laplacian_2d(grid_n):
    # Five-point discrete Laplacian (of the operator d2/dx1^2 + d2/dx2^2)
    # on the unit square, interior points only, Dirichlet boundary.
    h = 1.0 / (grid_n + 1)
    main = np.full(grid_n, -2.0)
    off = np.ones(grid_n - 1)
    T = sp.diags([off, main, off], [-1, 0, 1], format="csr") / h**2
    eye = sp.identity(grid_n, format="csr")
    L = sp.kron(eye, T) + sp.kron(T, eye)
    return sp.csr_matrix(L), h


def _interior_coords_2d(grid_n, h):
    # Flat index = i2 * grid_n + i1 (x1 varies fastest).
    x = (np.arange(grid_n) + 1) * h
    x2, x1 = np.meshgrid(x, x, indexing="ij")
    return x1.ravel(), x2.ravel()


def helmholtz_2d(variant, grid_n):
    """Helmholtz presets on the unit square.

    sim1: A_0 = L, A_1 = I with f = 2*pi^2 + cos(mu1) + mu1^4 + sin(mu2) + mu2,
          load sin(pi x1) sin(pi x2), box [1,2]^2.
    sim2: A_0 = L, A_1 = I with cos(mu1) + mu1^3, A_2 = diag(x2) with
          sin(mu2) + mu2^2, same load, box [1,2]^2.
    sim3: A_0 = L, A_1 = I with sin^2(mu1), A_2 = diag(x1) with cos^2(mu2),
          load exp(-x1 x2), box [0,1]^2.
    """
    if grid_n < 3:
        raise ValueError("grid_n must be at least 3")
    L, h = _laplacian_2d(grid_n)
    x1, x2 = _interior_coords_2d(grid_n, h)
    eye = sp.identity(grid_n * grid_n, format="csr")
    if variant == "sim1":
        f = ParamFunction([
            {"coeff": 2 * math.pi**2, "fn": "const"},
            {"coeff": 1.0, "fn": "cos", "var": "mu1"},
            {"coeff": 1.0, "fn": "pow", "var": "mu1", "k": 4},
            {"coeff": 1.0, "fn": "sin", "var": "mu2"},
            {"coeff": 1.0, "fn": "pow", "var": "mu2", "k": 1},
        ])
        mats = [L, eye]
        funcs = [ONE, f]
        b = np.sin(np.pi * x1) * np.sin(np.pi * x2)
        box = ((1.0, 2.0), (1.0, 2.0))
    elif variant == "sim2":
        f1 = ParamFunction([
            {"coeff": 1.0, "fn": "cos", "var": "mu1"},
            {"coeff": 1.0, "fn": "pow", "var": "mu1", "k": 3},
        ])
        f2 = ParamFunction([
            {"coeff": 1.0, "fn": "sin", "var": "mu2"},
            {"coeff": 1.0, "fn": "pow", "var": "mu2", "k": 2},
        ])
        mats = [L, eye, sp.diags(x2).tocsr()]
        funcs = [ONE, f1, f2]
        b = np.sin(np.pi * x1) * np.sin(np.pi * x2)
        box = ((1.0, 2.0), (1.0, 2.0))
    elif variant == "sim3":
        f1 = ParamFunction([{"coeff": 1.0, "fn": "sin2", "var": "mu1"}])
        f2 = ParamFunction([{"coeff": 1.0, "fn": "cos2", "var": "mu2"}])
        mats = [L, eye, sp.diags(x1).tocsr()]
        funcs = [ONE, f1, f2]
        b = np.exp(-x1 * x2)
        box = ((0.0, 1.0), (0.0, 1.0))
    else:
        raise ValueError("unknown variant %r (expected sim1, sim2 or sim3)" % variant)
    grid = {"dimension": 2, "h": h, "domain": "unit square, interior points",
            "grid_n": grid_n}
    return SplitProblem(mats, funcs, b, box, grid, name="helmholtz_%s" % variant)


def advection_diffusion_1d(grid_n, dt):
    """One implicit Euler step of u_t = f1(mu1) u_xx + f2(mu2) u_x on (0, 1).

    f1 = 1 + sin(mu1), f2 = 10 + cos(mu2) + pi*mu2; initial condition
    u0 = sin(pi x); Dirichlet boundaries; box [0, 0.5]^2. The step is
    (I - dt f1 D2 - dt f2 D1) u = u0, i.e. split form with terms
    (I, 1), (-dt D2, f1), (-dt D1, f2).
    """
    if grid_n < 3:
        raise ValueError("grid_n must be at least 3")
    if dt <= 0:
        raise ValueError("dt must be positive")
    n = grid_n
    h = 1.0 / (n + 1)
    x = (np.arange(n) + 1) * h
    main = np.full(n, -2.0)
    off = np.ones(n - 1)
    D2 = sp.diags([off, main, off], [-1, 0, 1], format="csr") / h**2
    D1 = sp.diags([-off, off], [-1, 1], format="csr") / (2 * h)
    eye = sp.identity(n, format="csr")
    f1 = ParamFunction([
        {"coeff": 1.0, "fn": "const"},
        {"coeff": 1.0, "fn": "sin", "var": "mu1"},
    ])
    f2 = ParamFunction([
        {"coeff": 10.0, "fn": "const"},
        {"coeff": 1.0, "fn": "cos", "var": "mu2"},
        {"coeff": math.pi, "fn": "pow", "var": "mu2", "k": 1},
    ])
    mats = [eye, sp.csr_matrix(-dt * D2), sp.csr_matrix(-dt * D1)]
    funcs = [ONE, f1, f2]
    b = np.sin(np.pi * x)
    grid = {"dimension": 1, "h": h, "domain": "unit interval, interior points",
            "grid_n": grid_n, "dt": dt}
    return SplitProblem(mats, funcs, b, ((0.0, 0.5), (0.0, 0.5)), grid,
                        name="advection_diffusion")


# Preset name -> (builder from the config dict, the config keys it knows).
_PRESETS = {
    "helmholtz_sim1": (lambda cfg: helmholtz_2d("sim1", cfg.get("grid_n", 20)),
                       {"name", "grid_n"}),
    "helmholtz_sim2": (lambda cfg: helmholtz_2d("sim2", cfg.get("grid_n", 20)),
                       {"name", "grid_n"}),
    "helmholtz_sim3": (lambda cfg: helmholtz_2d("sim3", cfg.get("grid_n", 20)),
                       {"name", "grid_n"}),
    "advection_diffusion": (lambda cfg: advection_diffusion_1d(
        cfg.get("grid_n", 999), cfg.get("dt", 0.01)), {"name", "grid_n", "dt"}),
}


def from_config(cfg):
    """Build a problem from a config dict: a preset name or a directory.

    {"name": "<preset>", "grid_n": ..., "dt": ...} or {"dir": "<path>"}.
    A preset rejects keys it does not know (only advection_diffusion
    knows ``dt``) with ValueError.
    """
    if "dir" in cfg:
        return load_problem(cfg["dir"])
    name = cfg.get("name")
    if name not in _PRESETS:
        raise ValueError("unknown problem %r (presets: %s)" % (name, sorted(_PRESETS)))
    build, known = _PRESETS[name]
    unknown = sorted(set(cfg) - known)
    if unknown:
        raise ValueError("unknown %s problem key %r (known: %s)"
                         % (name, unknown[0], sorted(known)))
    return build(cfg)


def save_problem(problem, directory):
    """Export to a directory: one Matrix Market file per term, f64le load
    vector, JSON manifest with the coefficient expressions."""
    os.makedirs(directory, exist_ok=True)
    terms = []
    for i, (A, f) in enumerate(zip(problem.matrices, problem.functions)):
        fname = "A_%02d.mtx" % i
        storage.save_matrix(os.path.join(directory, fname), A)
        if not isinstance(f, ParamFunction):
            raise ValueError("only ParamFunction coefficients are serializable")
        terms.append({"matrix": fname, "coefficient": f.to_dict()})
    storage.save_vector(os.path.join(directory, "b"), problem.b)
    manifest = {
        "name": problem.name,
        "terms": terms,
        "b": "b.f64le",
        "box": [list(problem.box[0]), list(problem.box[1])],
        "grid": problem.grid,
    }
    storage.save_json(os.path.join(directory, "problem.json"), manifest)
    return directory


def load_problem(directory):
    manifest = storage.load_json(os.path.join(directory, "problem.json"))
    mats = []
    funcs = []
    for term in manifest["terms"]:
        mats.append(storage.load_matrix(os.path.join(directory, term["matrix"])))
        funcs.append(ParamFunction.from_dict(term["coefficient"]))
    b = storage.load_vector(os.path.join(directory, "b"))
    box = (tuple(manifest["box"][0]), tuple(manifest["box"][1]))
    return SplitProblem(mats, funcs, b, box, manifest.get("grid", {}),
                        name=manifest.get("name", "custom"))
