from types import SimpleNamespace

import numpy as np
import pytest

from paramrom import hopgd, storage
from paramrom.errors import AnchorOffGridError, NodeNotMemberError
from paramrom.hopgd import (NodeSet, SeparatedModel, SnapshotTensor, decompose,
                            eval_at_node, full_grid_nodes, node_residual,
                            sparse_cross_nodes)


def separable_tensor(nodes, n=120, amplitudes=(1.0, 0.3, 0.08), seed=5):
    """Exactly separable data from known factors: the recovery oracle."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0, 1, n)
    mu1, mu2 = nodes.mu1_values, nodes.mu2_values
    profiles = [np.sin(np.pi * t), np.cos(np.pi * t), t**2]
    g = [1 + mu1, np.cos(mu1), mu1**2 + 0.5]
    h = [1 + mu2**2, np.sin(mu2) + 1, 0.3 + mu2]
    data = {}
    for (i, j) in nodes.members:
        data[(i, j)] = sum(a * p * gg[i] * hh[j]
                           for a, p, gg, hh in zip(amplitudes, profiles, g, h))
    return SnapshotTensor(nodes, data)


class TestNodeSets:
    def test_thirteen_node_cross(self):
        nodes = sparse_cross_nodes(((1, 2), (1, 2)), 7, 7)
        assert len(nodes.members) == 13
        assert np.allclose(nodes.mu1_values,
                           [1, 7 / 6, 4 / 3, 1.5, 5 / 3, 11 / 6, 2])
        assert nodes.anchors == (1.5, 1.5)

    def test_nine_node_cross(self):
        nodes = sparse_cross_nodes(((0, 0.5), (0, 0.5)), 5, 5)
        assert len(nodes.members) == 9
        assert nodes.anchors == (0.25, 0.25)

    def test_minimal_cross(self):
        nodes = sparse_cross_nodes(((0, 1), (0, 1)), 3, 3)
        assert np.allclose(nodes.mu1_values, [0, 0.5, 1])

    def test_full_grid_77(self):
        nodes = full_grid_nodes(((1, 2), (1, 2)), 11, 7)
        assert len(nodes.members) == 77

    def test_full_grid_single(self):
        nodes = full_grid_nodes(((0, 1), (0, 1)), 1, 1)
        assert len(nodes.members) == 1

    def test_membership_count(self):
        nodes = full_grid_nodes(((0, 1), (0, 1)), 4, 6)
        assert len(nodes.members) == 24

    def test_anchor_off_grid(self):
        with pytest.raises(AnchorOffGridError):
            sparse_cross_nodes(((0, 1), (0, 1)), 4, 4)  # even: no midpoint
        with pytest.raises(AnchorOffGridError):
            sparse_cross_nodes(((0, 1), (0, 1)), 5, 5, anchors=(0.3, 0.5))

    def test_explicit_anchors(self):
        nodes = sparse_cross_nodes(((0, 1), (0, 1)), 5, 5, anchors=(0.25, 0.75))
        assert nodes.anchor_indices == (1, 3)

    def test_round_trip(self):
        nodes = sparse_cross_nodes(((0, 0.5), (0, 0.5)), 5, 7)
        back = NodeSet.from_dict(nodes.to_dict())
        assert back.members == nodes.members
        assert back.anchors == nodes.anchors


class TestTensor:
    def test_missing_node_rejected(self):
        nodes = sparse_cross_nodes(((0, 1), (0, 1)), 3, 3)
        with pytest.raises(NodeNotMemberError):
            SnapshotTensor(nodes, {(0, 1): np.ones(4)})

    def test_off_centre_cross_from_sweeps(self):
        # The lines that sweeps() plans give back every member node.
        nodes = sparse_cross_nodes(((0, 1), (0, 1)), 5, 5, anchors=(0.25, 0.75))
        assert [s[:2] for s in nodes.sweeps()] == [(2, 0.75), (1, 0.25)]
        f = lambda mu1, mu2: np.array([1.0, mu1, mu2, mu1 * mu2])
        lines = [SimpleNamespace(
            fixed_axis=axis, fixed_value=value, values=values,
            snapshots=[f(value, mu) if axis == 1 else f(mu, value) for mu in values])
            for axis, value, values in nodes.sweeps()]
        tensor = SnapshotTensor.from_lines(nodes, lines)
        for node in nodes.members:
            assert np.array_equal(tensor.snapshot(node), f(*nodes.node_values(node)))

    def test_non_member_lookup(self):
        nodes = sparse_cross_nodes(((0, 1), (0, 1)), 3, 3)
        tensor = separable_tensor(nodes, n=10)
        with pytest.raises(NodeNotMemberError):
            tensor.snapshot((0, 0))  # corner is not on the cross


class TestDecompose:
    def test_exact_rank_one(self, rng):
        nodes = sparse_cross_nodes(((1, 2), (1, 2)), 7, 7)
        phi = rng.standard_normal(60)
        g = 1 + 0.5 * np.sin(nodes.mu1_values)
        h = 2 + nodes.mu2_values**2
        data = {(i, j): phi * g[i] * h[j] for (i, j) in nodes.members}
        tensor = SnapshotTensor(nodes, data)
        model = decompose(tensor, eps_node=1e-12)
        assert model.rank == 1
        assert model.converged
        for node in nodes.members:
            r = node_residual(model, node, tensor)
            assert np.linalg.norm(r) <= 1e-12 * np.linalg.norm(tensor.snapshot(node))

    def test_rank_three_recovery(self):
        nodes = sparse_cross_nodes(((0, 1), (0, 1)), 5, 5)
        tensor = separable_tensor(nodes)
        model = decompose(tensor, eps_node=1e-10, max_modes=8)
        assert model.converged
        assert model.rank <= 5
        for node in nodes.members:
            err = np.linalg.norm(node_residual(model, node, tensor))
            assert err <= 1e-10 * np.linalg.norm(tensor.snapshot(node))

    def test_termination_contract(self):
        nodes = sparse_cross_nodes(((0, 1), (0, 1)), 5, 5)
        tensor = separable_tensor(nodes, amplitudes=(1.0, 0.2, 0.05, ))
        model = decompose(tensor, eps_node=1e-6)
        assert model.converged
        for node in nodes.members:
            rel = (np.linalg.norm(node_residual(model, node, tensor))
                   / np.linalg.norm(tensor.snapshot(node)))
            assert rel < 1e-6

    def test_rank_one_residual_zero_after_first_mode(self, rng):
        nodes = sparse_cross_nodes(((0, 1), (0, 1)), 3, 3)
        phi = rng.standard_normal(40)
        data = {(i, j): phi * (1 + i) * (1 + j) for (i, j) in nodes.members}
        tensor = SnapshotTensor(nodes, data)
        model = decompose(tensor, eps_node=1e-12, max_modes=3)
        assert model.rank == 1

    def test_scale_equivariance(self):
        nodes = sparse_cross_nodes(((0, 1), (0, 1)), 5, 5)
        tensor = separable_tensor(nodes)
        scaled = SnapshotTensor(nodes, {m: 7.0 * tensor.snapshot(m)
                                        for m in nodes.members})
        m1 = decompose(tensor, eps_node=1e-9)
        m2 = decompose(scaled, eps_node=1e-9)
        for node in nodes.members:
            assert np.allclose(7.0 * eval_at_node(m1, node),
                               eval_at_node(m2, node), rtol=1e-9, atol=1e-12)

    def test_deterministic(self):
        nodes = sparse_cross_nodes(((0, 1), (0, 1)), 5, 5)
        tensor = separable_tensor(nodes)
        a = decompose(tensor)
        b = decompose(tensor)
        assert np.array_equal(a.mode_vectors, b.mode_vectors)
        assert np.array_equal(a.f1, b.f1)

    def test_max_modes_flag(self):
        nodes = sparse_cross_nodes(((0, 1), (0, 1)), 5, 5)
        tensor = separable_tensor(nodes)
        model = decompose(tensor, eps_node=1e-14, max_modes=1)
        assert not model.converged
        assert model.log[-1]["event"] == "max_modes_reached"

    def test_mode_vectors_unit_norm(self):
        nodes = sparse_cross_nodes(((0, 1), (0, 1)), 5, 5)
        model = decompose(separable_tensor(nodes))
        norms = np.linalg.norm(model.mode_vectors, axis=0)
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_log_structure(self):
        nodes = sparse_cross_nodes(((0, 1), (0, 1)), 5, 5)
        model = decompose(separable_tensor(nodes))
        assert len(model.log) >= model.rank
        entry = model.log[0]
        assert {"mode", "max_node_error"} <= set(entry)


class TestReduction:
    def test_general_update_reduces_to_per_line(self, rng):
        # On a sparse cross the general row/column least-squares update
        # coincides with the single-node per-line ratios at every
        # non-anchor row and column (the anchor row/column sums over its
        # whole crossing line instead of the anchor node alone).
        nodes = sparse_cross_nodes(((0, 1), (0, 1)), 5, 5)
        I = np.array([m[0] for m in nodes.members])
        J = np.array([m[1] for m in nodes.members])
        R = rng.standard_normal((len(nodes.members), 30))
        phi = rng.standard_normal(30)
        F1 = rng.uniform(0.5, 1.5, 5)
        F2 = rng.uniform(0.5, 1.5, 5)
        p2 = phi @ phi
        proj = R @ phi
        general_f1 = (np.bincount(I, weights=F2[J] * proj, minlength=5)
                      / (p2 * np.bincount(I, weights=F2[J]**2, minlength=5)))
        literal_f1 = hopgd.line_update_f1(R, I, J, phi, F2, nodes)
        i_star, j_star = nodes.anchor_indices
        for i in range(5):
            if i != i_star:
                assert abs(general_f1[i] - literal_f1[i]) <= 1e-14 * abs(literal_f1[i])
        general_f2 = (np.bincount(J, weights=general_f1[I] * proj, minlength=5)
                      / (p2 * np.bincount(J, weights=general_f1[I]**2, minlength=5)))
        literal_f2 = hopgd.line_update_f2(R, I, J, phi, general_f1, nodes)
        for j in range(5):
            if j != j_star:
                assert abs(general_f2[j] - literal_f2[j]) <= 1e-14 * abs(literal_f2[j])


class TestFullGridUpdates:
    def test_row_update_is_least_squares(self, rng):
        # On a full grid, each F1 row value solves the stacked 1-D least
        # squares problem min_t sum_j ||r_ij - t * phi * F2_j||^2; compare
        # against numpy's lstsq on the stacked system.
        nodes = full_grid_nodes(((0, 1), (0, 1)), 4, 6)
        I = np.array([m[0] for m in nodes.members])
        J = np.array([m[1] for m in nodes.members])
        R = rng.standard_normal((len(nodes.members), 15))
        phi = rng.standard_normal(15)
        F2 = rng.standard_normal(6)
        p2 = phi @ phi
        proj = R @ phi
        general = (np.bincount(I, weights=F2[J] * proj, minlength=4)
                   / (p2 * np.bincount(I, weights=F2[J]**2, minlength=4)))
        for i in range(4):
            rows = [k for k, ii in enumerate(I) if ii == i]
            A = np.concatenate([F2[J[k]] * phi for k in rows])[:, None]
            bvec = np.concatenate([R[k] for k in rows])
            t, *_ = np.linalg.lstsq(A, bvec, rcond=None)
            assert general[i] == pytest.approx(t[0], rel=1e-12)


class TestRectangularCross:
    def test_asymmetric_pipeline(self):
        # n1 != n2 exercises the row/column index bookkeeping end to end.
        from paramrom.krylov import snapshot_sweep
        from paramrom.problems import (advection_diffusion_1d,
                                       direct_reference_solve)
        from paramrom.rom import interpolate_model, relative_error

        p = advection_diffusion_1d(149, 0.01)
        nodes = sparse_cross_nodes(p.box, 5, 7)
        assert len(nodes.members) == 11
        lines = [snapshot_sweep(p, *sweep) for sweep in nodes.sweeps()]
        tensor = SnapshotTensor.from_lines(nodes, lines)
        model = decompose(tensor)
        assert model.converged
        assert model.f1.shape[1] == 5 and model.f2.shape[1] == 7
        im = interpolate_model(model)
        ref = direct_reference_solve(p, 0.4, 0.12)
        assert relative_error(im(0.4, 0.12), ref) < 0.06


class TestModelEval:
    def test_zero_model_residual_equals_snapshot(self):
        nodes = sparse_cross_nodes(((0, 1), (0, 1)), 3, 3)
        tensor = separable_tensor(nodes, n=20)
        empty = SeparatedModel(
            nodes=nodes, mode_vectors=np.zeros((20, 1)),
            f1=np.zeros((1, 3)), f2=np.zeros((1, 3)), converged=False,
            eps_node=1e-3)
        for node in nodes.members:
            assert np.array_equal(node_residual(empty, node, tensor),
                                  tensor.snapshot(node))

    def test_non_member_rejected(self):
        nodes = sparse_cross_nodes(((0, 1), (0, 1)), 3, 3)
        model = decompose(separable_tensor(nodes, n=20))
        with pytest.raises(NodeNotMemberError):
            eval_at_node(model, (0, 0))


class TestPersistence:
    def test_round_trip(self, tmp_path):
        nodes = sparse_cross_nodes(((0, 1), (0, 1)), 5, 5)
        model = decompose(separable_tensor(nodes))
        hopgd.save_model(model, tmp_path / "model", extra={"problem": {"name": "x"}})
        back, doc = hopgd.load_model(tmp_path / "model")
        assert np.array_equal(back.mode_vectors, model.mode_vectors)
        assert np.array_equal(back.f1, model.f1)
        assert np.array_equal(back.f2, model.f2)
        assert back.nodes.members == model.nodes.members
        assert doc["problem"] == {"name": "x"}
        assert doc["interpolation"] == "natural_cubic_spline"

    def test_loads_model_with_fixed_point_key(self, tmp_path):
        # Model directories written before the fixed-point iteration was
        # removed still carry "eps_fixed_point" in model.json.
        nodes = sparse_cross_nodes(((0, 1), (0, 1)), 5, 5)
        model = decompose(separable_tensor(nodes))
        directory = tmp_path / "model"
        hopgd.save_model(model, directory)
        doc = storage.load_json(directory / "model.json")
        doc["eps_fixed_point"] = 1e-4
        storage.save_json(directory / "model.json", doc)
        back, _ = hopgd.load_model(directory)
        assert np.array_equal(back.mode_vectors, model.mode_vectors)
        assert np.array_equal(back.f1, model.f1)
        assert np.array_equal(back.f2, model.f2)
        assert back.nodes.to_dict() == model.nodes.to_dict()
        assert (back.converged, back.eps_node, back.log) == (
            model.converged, model.eps_node, model.log)
