"""Greedy rank-one decomposition of a snapshot tensor sampled on a sparse
cross or a full grid.

Each accepted mode is a rank-one term mode_vector * F1(mu1) * F2(mu2).
Profile updates solve the per-row/per-column normal equations over the
member nodes; on a sparse cross the non-anchor rows and columns then
reduce to single-node ratios.

A note on the defaults: iterating each mode's alternating updates to a
tight fixed point computes the best rank-one fit of the cross data, but
on cross sampling those optima systematically develop huge opposite
scale factors (tiny at the anchor, huge at the ends) whose products
cancel on the sampled lines yet explode between them; the resulting
models interpolate the nodes and are useless elsewhere. The default here
therefore seeds every mode at the worst node and accepts it after a
single update sweep (max_inner=1), a greedy-pivot regime that converges
node errors AND preserves off-node accuracy.
Deeper fixed-point iteration remains available via max_inner/eps settings.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import storage
from .errors import AnchorOffGridError, NodeNotMemberError


@dataclass(frozen=True)
class NodeSet:
    """Sampled parameter pairs: equidistant axis values plus membership."""

    mu1_values: np.ndarray
    mu2_values: np.ndarray
    kind: str                       # "sparse_cross" | "full_grid"
    members: tuple                  # tuple of (i, j) index pairs
    anchor_indices: tuple = None    # (i*, j*) for sparse crosses

    @property
    def n1(self):
        return self.mu1_values.shape[0]

    @property
    def n2(self):
        return self.mu2_values.shape[0]

    @property
    def anchors(self):
        if self.anchor_indices is None:
            return None
        i, j = self.anchor_indices
        return (float(self.mu1_values[i]), float(self.mu2_values[j]))

    @property
    def box(self):
        return ((float(self.mu1_values[0]), float(self.mu1_values[-1])),
                (float(self.mu2_values[0]), float(self.mu2_values[-1])))

    def node_values(self, node):
        i, j = node
        return (float(self.mu1_values[i]), float(self.mu2_values[j]))

    def to_dict(self):
        return {
            "mu1_values": self.mu1_values.tolist(),
            "mu2_values": self.mu2_values.tolist(),
            "kind": self.kind,
            "members": [list(m) for m in self.members],
            "anchor_indices": list(self.anchor_indices) if self.anchor_indices else None,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            mu1_values=np.asarray(d["mu1_values"], dtype=np.float64),
            mu2_values=np.asarray(d["mu2_values"], dtype=np.float64),
            kind=d["kind"],
            members=tuple(tuple(m) for m in d["members"]),
            anchor_indices=tuple(d["anchor_indices"]) if d.get("anchor_indices") else None,
        )


def sparse_cross_nodes(box, n1, n2, anchors=None):
    """Equidistant cross: all (mu1^i, mu2*) plus all (mu1*, mu2^j), the
    shared anchor stored once (n1 + n2 - 1 nodes).

    Default anchors are the interval midpoints, which requires odd n1, n2
    so the anchors are grid members; explicitly supplied anchors must sit
    on the equidistant grids."""
    (a1, b1), (a2, b2) = box
    mu1 = np.linspace(a1, b1, n1)
    mu2 = np.linspace(a2, b2, n2)
    if anchors is None:
        if n1 % 2 == 0 or n2 % 2 == 0 or n1 < 3 or n2 < 3:
            raise AnchorOffGridError(
                "midpoint anchors need odd n1, n2 >= 3; got %d, %d" % (n1, n2)
            )
        i_star, j_star = n1 // 2, n2 // 2
    else:
        i_star = _grid_index(mu1, anchors[0])
        j_star = _grid_index(mu2, anchors[1])
    members = [(i, j_star) for i in range(n1)]
    members += [(i_star, j) for j in range(n2) if j != j_star]
    return NodeSet(mu1, mu2, "sparse_cross", tuple(members), (i_star, j_star))


def full_grid_nodes(box, n1, n2):
    """All n1 * n2 pairs of the equidistant axis grids."""
    (a1, b1), (a2, b2) = box
    mu1 = np.linspace(a1, b1, n1)
    mu2 = np.linspace(a2, b2, n2)
    members = tuple((i, j) for i in range(n1) for j in range(n2))
    return NodeSet(mu1, mu2, "full_grid", members, None)


def _grid_index(grid, value):
    idx = int(np.argmin(np.abs(grid - value)))
    span = grid[-1] - grid[0]
    if abs(grid[idx] - value) > 1e-10 * max(span, 1.0):
        raise AnchorOffGridError("anchor %g is not a grid member" % value)
    return idx


class SnapshotTensor:
    """Node set plus one length-n snapshot per member node."""

    def __init__(self, nodes, data):
        self.nodes = nodes
        missing = [m for m in nodes.members if m not in data]
        if missing:
            raise NodeNotMemberError("missing snapshots for nodes %s" % missing)
        n = next(iter(data.values())).shape[0]
        self.n = n
        self._data = {}
        for m in nodes.members:
            x = np.asarray(data[m], dtype=np.float64)
            if x.shape != (n,):
                raise ValueError("snapshot at %s has wrong length" % (m,))
            self._data[m] = x

    def snapshot(self, node):
        node = tuple(node)
        if node not in self._data:
            raise NodeNotMemberError("node %s not in the sampled set" % (node,))
        return self._data[node]

    def stacked(self):
        """(num_members, n) array in members order."""
        return np.array([self._data[m] for m in self.nodes.members])

    @classmethod
    def from_lines(cls, nodes, lines):
        """Assemble from SnapshotLine sweeps.

        For a sparse cross: one line per axis through the anchors. For a
        full grid: one line per fixed mu2 value. The anchor snapshot of a
        cross is taken from the first line that provides it.
        """
        data = {}
        for line in lines:
            if line.fixed_axis == 2:
                j = _grid_index(nodes.mu2_values, line.fixed_value)
                for mu, snap in zip(line.values, line.snapshots):
                    i = _grid_index(nodes.mu1_values, mu)
                    data.setdefault((i, j), snap)
            else:
                i = _grid_index(nodes.mu1_values, line.fixed_value)
                for mu, snap in zip(line.values, line.snapshots):
                    j = _grid_index(nodes.mu2_values, mu)
                    data.setdefault((i, j), snap)
        return cls(nodes, data)


@dataclass
class SeparatedModel:
    """Sum of rank-one terms: mode_vectors[:, k] * f1[k, i] * f2[k, j].

    Mode vectors are stored unit-norm with magnitudes folded into f1.
    ``log`` records one entry per accepted mode (inner iterations, final
    fixed-point delta, max node error after acceptance, warnings).
    """

    nodes: NodeSet
    mode_vectors: np.ndarray        # (n, m)
    f1: np.ndarray                  # (m, n1)
    f2: np.ndarray                  # (m, n2)
    converged: bool
    eps_fixed_point: float
    eps_node: float
    log: list = field(default_factory=list)

    @property
    def rank(self):
        return self.mode_vectors.shape[1]

    @property
    def n(self):
        return self.mode_vectors.shape[0]


def eval_at_node(model, node):
    """Model reconstruction at a member node."""
    i, j = node
    if tuple(node) not in model.nodes.members:
        raise NodeNotMemberError("node %s not in the sampled set" % (node,))
    weights = model.f1[:, i] * model.f2[:, j]
    return model.mode_vectors @ weights


def node_residual(model, node, tensor):
    """Snapshot minus reconstruction at a member node."""
    return tensor.snapshot(node) - eval_at_node(model, node)


class _Stagnation(Exception):
    pass


def _guarded(value, scale):
    if abs(value) < 1e-300 or abs(value) < 1e-14 * scale:
        raise _Stagnation()
    return value


def _guarded_vec(values, scale):
    if np.any(np.abs(values) < 1e-300) or np.any(np.abs(values) < 1e-14 * scale):
        raise _Stagnation()
    return values


def decompose(tensor, eps_fixed_point=1e-4, eps_node=1e-3, max_modes=50,
              max_inner=1, restart_seed=0):
    """Greedy rank-one decomposition of the snapshot tensor.

    Per mode: seed the profile vectors at the worst node, then loop (at
    most ``max_inner`` times): update the mode vector from all member nodes,
    then F1 per row and F2 per column by least squares, using the freshest
    values; declare a fixed point when the relative rank-one change
    ||old_term - new_term|| / ||new_term|| is below eps_fixed_point at
    every node. The accepted mode is subtracted from the residuals and the
    outer loop stops when every node's relative error is below eps_node.

    A stagnating mode (vanishing update denominator) is retried once from
    a perturbed initialization (seeded); if it stagnates again the model
    is returned with converged=False so the caller can resample snapshots.
    """
    if max_inner < 1 or max_modes < 1:
        raise ValueError("max_inner and max_modes must be at least 1")
    nodes = tensor.nodes
    n1, n2 = nodes.n1, nodes.n2
    I = np.array([m[0] for m in nodes.members])
    J = np.array([m[1] for m in nodes.members])
    R = tensor.stacked().copy()
    norms = np.linalg.norm(R, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("zero snapshot in the tensor")
    rng = np.random.default_rng(restart_seed)

    modes, f1s, f2s, log = [], [], [], []
    converged = False
    prev_max_err = np.inf
    while len(modes) < max_modes:
        node_err = np.linalg.norm(R, axis=1) / norms
        if node_err.max() < eps_node:
            converged = True
            break
        init = _initial_profiles(node_err, I, J, n1, n2, nodes)
        try:
            phi, F1, F2, inner, delta = _fit_mode(
                R, I, J, n1, n2, init, eps_fixed_point, max_inner)
        except _Stagnation:
            perturbed = (init[0] + 0.01 * rng.standard_normal(n1),
                         init[1] + 0.01 * rng.standard_normal(n2))
            try:
                phi, F1, F2, inner, delta = _fit_mode(
                    R, I, J, n1, n2, perturbed, eps_fixed_point, max_inner)
            except _Stagnation:
                log.append({"mode": len(modes) + 1, "event": "stagnated",
                            "max_node_error": float(node_err.max())})
                break
        R = R - np.outer(F1[I] * F2[J], phi)
        scale = float(np.linalg.norm(phi))
        modes.append(phi / scale)
        f1s.append(F1 * scale)
        f2s.append(F2.copy())
        new_err = (np.linalg.norm(R, axis=1) / norms).max()
        entry = {"mode": len(modes), "inner_iterations": inner,
                 "fixed_point_delta": float(delta),
                 "max_node_error": float(new_err)}
        if new_err > 1.01 * prev_max_err:
            entry["warning"] = "max node error grew by more than 1%"
            warnings.warn(
                "mode %d grew the max node error %.3e -> %.3e"
                % (len(modes), prev_max_err, new_err), stacklevel=2)
        prev_max_err = new_err
        log.append(entry)
    else:
        node_err = np.linalg.norm(R, axis=1) / norms
        converged = bool(node_err.max() < eps_node)
        if not converged:
            log.append({"event": "max_modes_reached",
                        "max_node_error": float(node_err.max())})

    if not modes:
        modes = [np.zeros(tensor.n)]
        f1s = [np.zeros(n1)]
        f2s = [np.zeros(n2)]
    return SeparatedModel(
        nodes=nodes,
        mode_vectors=np.array(modes).T,
        f1=np.array(f1s),
        f2=np.array(f2s),
        converged=converged,
        eps_fixed_point=eps_fixed_point,
        eps_node=eps_node,
        log=log,
    )


def _initial_profiles(node_err, I, J, n1, n2, nodes):
    worst = int(np.argmax(node_err))
    F1 = np.zeros(n1)
    F2 = np.zeros(n2)
    F1[I[worst]] = 1.0
    F2[J[worst]] = 1.0
    if nodes.anchor_indices is not None:
        F1[nodes.anchor_indices[0]] = 1.0
        F2[nodes.anchor_indices[1]] = 1.0
    return F1, F2


def _fit_mode(R, I, J, n1, n2, init, eps_fixed_point, max_inner):
    F1 = init[0].astype(np.float64, copy=True)
    F2 = init[1].astype(np.float64, copy=True)
    phi_old = np.zeros(R.shape[1])
    F1_old, F2_old = F1.copy(), F2.copy()
    delta = np.inf
    for inner in range(1, max_inner + 1):
        coef = F1[I] * F2[J]
        den = _guarded(coef @ coef, float((coef * coef).max()))
        phi = (R.T @ coef) / den
        proj = R @ phi
        p2 = _guarded(phi @ phi, float(np.abs(phi).max() ** 2 or 1.0))
        den1 = p2 * np.bincount(I, weights=F2[J] ** 2, minlength=n1)
        _guarded_vec(den1, float(np.abs(den1).max()))
        F1 = np.bincount(I, weights=F2[J] * proj, minlength=n1) / den1
        den2 = p2 * np.bincount(J, weights=F1[I] ** 2, minlength=n2)
        _guarded_vec(den2, float(np.abs(den2).max()))
        F2 = np.bincount(J, weights=F1[I] * proj, minlength=n2) / den2
        # Fixed point: per-node norm of old term minus new term, relative
        # to the new term, from three precomputed inner products.
        a = F1_old[I] * F2_old[J]
        b = F1[I] * F2[J]
        d2 = a * a * (phi_old @ phi_old) - 2.0 * a * b * (phi_old @ phi) + b * b * p2
        dist = np.sqrt(np.maximum(d2, 0.0))
        term = np.sqrt(p2) * np.abs(b)
        floor = 1e-14 * float(term.max()) + 1e-300
        delta = float((dist / np.maximum(term, floor)).max())
        if delta < eps_fixed_point:
            break
        phi_old = phi
        F1_old, F2_old = F1.copy(), F2.copy()
    return phi, F1, F2, inner, delta


def save_model(model, directory, extra=None):
    """Persist as model.json plus phi.f64le (n x m, column-major)."""
    os.makedirs(directory, exist_ok=True)
    storage.save_vector(os.path.join(directory, "phi"),
                        np.asfortranarray(model.mode_vectors).ravel(order="F"))
    doc = {
        "n": model.n,
        "rank": model.rank,
        "nodes": model.nodes.to_dict(),
        "f1": model.f1.tolist(),
        "f2": model.f2.tolist(),
        "converged": model.converged,
        "eps_fixed_point": model.eps_fixed_point,
        "eps_node": model.eps_node,
        "log": model.log,
        "phi": "phi.f64le",
        "phi_layout": "column_major",
        "interpolation": "natural_cubic_spline",
    }
    if extra:
        doc.update(extra)
    storage.save_json(os.path.join(directory, "model.json"), doc)
    return directory


def load_model(directory):
    doc = storage.load_json(os.path.join(directory, "model.json"))
    flat = storage.load_vector(os.path.join(directory, "phi"))
    n, m = int(doc["n"]), int(doc["rank"])
    model = SeparatedModel(
        nodes=NodeSet.from_dict(doc["nodes"]),
        mode_vectors=flat.reshape((n, m), order="F"),
        f1=np.asarray(doc["f1"], dtype=np.float64),
        f2=np.asarray(doc["f2"], dtype=np.float64),
        converged=bool(doc["converged"]),
        eps_fixed_point=float(doc["eps_fixed_point"]),
        eps_node=float(doc["eps_node"]),
        log=doc.get("log", []),
    )
    return model, doc


def line_update_f1(R, I, J, phi, F2, nodes):
    """Literal per-line F1 update on a sparse cross: for every mu1^i the
    single node (mu1^i, mu2*) gives F1_i = phi . r / (phi . phi F2(mu2*)).
    Exposed for the reduction check against the general row update."""
    j_star = nodes.anchor_indices[1]
    p2 = phi @ phi
    out = np.zeros(nodes.n1)
    for k, (i, j) in enumerate(zip(I, J)):
        if j == j_star:
            out[i] = (phi @ R[k]) / (p2 * F2[j_star])
    return out


def line_update_f2(R, I, J, phi, F1, nodes):
    """Literal per-line F2 update on a sparse cross (anchor column line)."""
    i_star = nodes.anchor_indices[0]
    p2 = phi @ phi
    out = np.zeros(nodes.n2)
    for k, (i, j) in enumerate(zip(I, J)):
        if i == i_star:
            out[j] = (phi @ R[k]) / (p2 * F1[i_star])
    return out
