import csv

import numpy as np
import pytest

from paramrom import linalg, rom
from paramrom.errors import OutOfRangeError, ZeroReferenceError
from paramrom.hopgd import (SeparatedModel, SnapshotTensor, decompose,
                            eval_at_node, sparse_cross_nodes)
from paramrom.krylov import snapshot_sweep
from paramrom.problems import (advection_diffusion_1d,
                               direct_reference_solve, helmholtz_2d)
from paramrom.rom import (classify_error, interpolate_model,
                          relative_error, write_error_grid_csv)
from test_hopgd import separable_tensor


@pytest.fixture(scope="module")
def advdiff_model():
    p = advection_diffusion_1d(199, 0.01)
    nodes = sparse_cross_nodes(p.box, 5, 5)
    lines = [snapshot_sweep(p, *sweep) for sweep in nodes.sweeps()]
    tensor = SnapshotTensor.from_lines(nodes, lines)
    model = decompose(tensor)
    return p, tensor, model, interpolate_model(model)


class TestInterpolation:
    def test_constant_profiles_give_constant_model(self, rng):
        nodes = sparse_cross_nodes(((0, 1), (0, 1)), 5, 5)
        phi = rng.standard_normal(30)
        model = SeparatedModel(
            nodes=nodes, mode_vectors=(phi / np.linalg.norm(phi))[:, None],
            f1=np.full((1, 5), 2.0), f2=np.full((1, 5), 3.0),
            converged=True, eps_node=1e-3)
        im = interpolate_model(model)
        ref = im(0.0, 0.0)
        for mu1, mu2 in [(0.3, 0.7), (1.0, 0.1), (0.5, 0.5)]:
            assert np.allclose(im(mu1, mu2), ref, atol=1e-13)

    def test_reproduces_node_reconstructions(self):
        nodes = sparse_cross_nodes(((0, 1), (0, 1)), 5, 5)
        model = decompose(separable_tensor(nodes), eps_node=1e-10)
        im = interpolate_model(model)
        for node in nodes.members:
            mu1, mu2 = nodes.node_values(node)
            direct = eval_at_node(model, node)
            assert np.linalg.norm(im(mu1, mu2) - direct) <= 1e-12 * np.linalg.norm(direct)

    def test_spline_between_knots_tracks_smooth_profiles(self):
        # Refinement oracle: exactly separable data with smooth factor
        # functions; between nodes the interpolated model stays within a
        # curvature-sized band of the true separable field.
        box = ((0.0, 1.0), (0.0, 1.0))
        nodes = sparse_cross_nodes(box, 9, 9)
        tensor = separable_tensor(nodes, n=50)
        model = decompose(tensor, eps_node=1e-11, max_modes=10)
        im = interpolate_model(model)
        fine = sparse_cross_nodes(box, 17, 17)
        dense = separable_tensor(fine, n=50)
        # Natural-boundary layer dominates: O(h^2 |f''|) at the interval
        # ends; the dense refinement oracle puts the worst deviation at
        # 1.39e-3 for this data (h = 1/8, |f''| <= 2).
        bound = 2e-3
        for (i, j) in dense.nodes.members:
            mu1, mu2 = fine.node_values((i, j))
            truth = dense.snapshot((i, j))
            err = np.linalg.norm(im(mu1, mu2) - truth) / np.linalg.norm(truth)
            assert err < bound

    def test_out_of_range(self, advdiff_model):
        _, _, _, im = advdiff_model
        with pytest.raises(OutOfRangeError):
            im(0.6, 0.1)

    def test_bilinear_in_profiles(self, advdiff_model):
        _, _, model, im = advdiff_model
        doubled = SeparatedModel(
            nodes=model.nodes, mode_vectors=model.mode_vectors,
            f1=2.0 * model.f1, f2=model.f2, converged=model.converged,
            eps_node=model.eps_node)
        im2 = interpolate_model(doubled)
        x = im(0.3, 0.2)
        assert np.allclose(im2(0.3, 0.2), 2.0 * x, rtol=1e-12)

    def test_rank_one_product_equals_matmul(self, rng):
        nodes = sparse_cross_nodes(((0, 1), (0, 1)), 5, 5)
        model = SeparatedModel(
            nodes=nodes, mode_vectors=rng.standard_normal((30, 1)),
            f1=rng.standard_normal((1, 5)), f2=rng.standard_normal((1, 5)),
            converged=True, eps_node=1e-3)
        im = interpolate_model(model)
        for mu1, mu2 in [(0.3, 0.7), (1.0, 0.1), (0.0, 0.55)]:
            x = im(mu1, mu2)
            assert x.shape == (30,)
            assert np.array_equal(x, model.mode_vectors @ im.weights(mu1, mu2))

    @pytest.mark.parametrize("rank", [1, 5])
    def test_weights_are_the_spline_product(self, rng, rank):
        nodes = sparse_cross_nodes(((0, 1), (-1, 2)), 7, 5)
        model = SeparatedModel(
            nodes=nodes, mode_vectors=rng.standard_normal((30, rank)),
            f1=rng.standard_normal((rank, 7)), f2=rng.standard_normal((rank, 5)),
            converged=True, eps_node=1e-3)
        im = interpolate_model(model)
        for mu1, mu2 in [(0.3, 0.7), (1.0, -1.0), (0.0, 2.0), (0.5, 0.25)]:
            w = im.weights(mu1, mu2)
            assert w.shape == (rank,)
            assert np.array_equal(w, im.spline1(mu1) * im.spline2(mu2))

    def test_no_solves_online(self, advdiff_model):
        _, _, _, im = advdiff_model
        f0 = linalg.factorization_count()
        s0 = linalg.triangular_solve_count()
        for mu1 in np.linspace(0, 0.5, 7):
            im(mu1, 0.31)
        assert linalg.factorization_count() == f0
        assert linalg.triangular_solve_count() == s0


class TestHelmholtzDeskRun:
    def test_sim1_reference_evaluation_points(self):
        # Two mid-box evaluation points of the first Helmholtz variant;
        # the desk-scale 13-node cross model should land both in the
        # "accurate" band (< 1.5%).
        p = helmholtz_2d("sim1", 20)
        nodes = sparse_cross_nodes(p.box, 7, 7)
        assert len(nodes.members) == 13
        lines = [snapshot_sweep(p, *sweep, sigma=1.48) for sweep in nodes.sweeps()]
        model = decompose(SnapshotTensor.from_lines(nodes, lines))
        im = interpolate_model(model)
        for point, target in [((1.6, 1.4), 0.015), ((1.45, 1.6), 0.015)]:
            ref = direct_reference_solve(p, *point)
            err = relative_error(im(*point), ref)
            assert err < target


class TestErrors:
    def test_identical(self):
        x = np.ones(5)
        assert relative_error(x, x) == 0.0
        assert classify_error(0.0) == "accurate"

    def test_one_percent(self, rng):
        x = rng.standard_normal(40)
        err = relative_error(1.01 * x, x)
        assert err == pytest.approx(0.01)
        assert classify_error(err) == "accurate"

    def test_five_percent(self, rng):
        x = rng.standard_normal(40)
        err = relative_error(1.05 * x, x)
        assert err == pytest.approx(0.05)
        assert classify_error(err) == "reliable"

    def test_poor(self):
        assert classify_error(0.08) == "poor"

    def test_zero_reference(self):
        with pytest.raises(ZeroReferenceError):
            relative_error(np.ones(3), np.zeros(3))


class TestErrorGrid:
    def test_row_count(self, advdiff_model):
        p, _, _, im = advdiff_model
        rows = rom.error_grid(im, p, 20, 20)
        assert len(rows) == 400

    def test_grid_on_nodes_meets_tolerance(self, advdiff_model):
        p, _, model, im = advdiff_model
        rows = rom.error_grid(im, p, 5, 5)
        by_point = {(round(r["mu1"], 10), round(r["mu2"], 10)): r for r in rows}
        for node in model.nodes.members:
            mu1, mu2 = model.nodes.node_values(node)
            row = by_point[(round(mu1, 10), round(mu2, 10))]
            # decomposition tolerance plus snapshot tolerance headroom
            assert row["rel_err"] < model.eps_node + 1e-6

    def test_csv_output(self, advdiff_model, tmp_path):
        p, _, _, im = advdiff_model
        rows = rom.error_grid(im, p, 4, 5)
        path = write_error_grid_csv(rows, tmp_path / "errmap.csv")
        with open(path) as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == ["mu1", "mu2", "rel_err_percent", "class"]
        assert len(parsed) == 1 + 20
        assert parsed[1][3] in ("accurate", "reliable", "poor", "failed")

    def test_solver_failure_recorded_per_cell(self, advdiff_model, rng):
        _, _, _, im = advdiff_model
        from paramrom.problems import ONE, SplitProblem
        import scipy.sparse as sp
        singular = SplitProblem(
            [sp.csr_matrix((199, 199))], [ONE], np.ones(199),
            ((0.0, 0.5), (0.0, 0.5)))
        rows = rom.error_grid(im, singular, 2, 2)
        assert all(r["class"] == "failed" for r in rows)
        assert len(rows) == 4

    def test_size_mismatch_raises(self, advdiff_model):
        _, _, _, im = advdiff_model
        with pytest.raises(ValueError):
            rom.error_grid(im, advection_diffusion_1d(99, 0.01), 2, 2)
