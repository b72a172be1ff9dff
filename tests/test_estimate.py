import numpy as np
import pytest

from paramrom import linalg
from paramrom.estimate import (add_noise, estimate_parameters, reduced_misfit,
                               refine_estimate)
from paramrom.hopgd import SnapshotTensor, decompose, sparse_cross_nodes
from paramrom.krylov import snapshot_sweep
from paramrom.problems import (advection_diffusion_1d, direct_reference_solve,
                               helmholtz_2d)
from paramrom.rom import interpolate_model


def cross_rom(problem, n1=5, n2=5):
    nodes = sparse_cross_nodes(problem.box, n1, n2)
    lines = [snapshot_sweep(problem, *sweep) for sweep in nodes.sweeps()]
    tensor = SnapshotTensor.from_lines(nodes, lines)
    return tensor, interpolate_model(decompose(tensor))


@pytest.fixture(scope="module")
def advdiff():
    return advection_diffusion_1d(199, 0.01)


@pytest.fixture(scope="module")
def advdiff_rom(advdiff):
    return cross_rom(advdiff)


class TestNoise:
    def test_zero_noise_is_identity(self, rng):
        x = rng.standard_normal(20)
        assert np.array_equal(add_noise(x, 0.0, seed=3), x)

    def test_seeded_determinism(self, rng):
        x = rng.standard_normal(50)
        a = add_noise(x, 1e-2, seed=42)
        b = add_noise(x, 1e-2, seed=42)
        assert np.array_equal(a, b)
        c = add_noise(x, 1e-2, seed=43)
        assert not np.array_equal(a, c)

    def test_magnitude(self):
        x = np.zeros(100000)
        noisy = add_noise(x, 1e-2, seed=0)
        assert np.std(noisy) == pytest.approx(1e-2, rel=0.05)


class TestEstimate:
    def test_self_consistency(self, advdiff_rom):
        _, im = advdiff_rom
        target = (0.3123, 0.1531)
        x_obs = im(*target)
        mu1, mu2, obj = estimate_parameters(im, x_obs)
        box_scale = 0.5
        assert abs(mu1 - target[0]) <= 1e-8 * box_scale
        assert abs(mu2 - target[1]) <= 1e-8 * box_scale

    def test_snapshot_recovers_near_node(self, advdiff_rom):
        tensor, im = advdiff_rom
        node = (1, 2)  # (mu1_values[1], anchor)
        mu1_true, mu2_true = tensor.nodes.node_values(node)
        x_obs = tensor.snapshot(node)
        mu1, mu2, _ = estimate_parameters(im, x_obs)
        cell = 0.5 / 4  # grid spacing of the cross
        assert abs(mu1 - mu1_true) <= cell
        assert abs(mu2 - mu2_true) <= cell

    def test_argmin_dominance(self, advdiff_rom, rng):
        _, im = advdiff_rom
        x_obs = rng.standard_normal(im.n)
        mu1, mu2, obj = estimate_parameters(im, x_obs, coarse=21)
        (a1, b1), (a2, b2) = im.box
        for g1 in np.linspace(a1, b1, 21):
            for g2 in np.linspace(a2, b2, 21):
                assert obj <= np.linalg.norm(x_obs - im(g1, g2)) + 1e-12


class TestReducedObjective:
    @pytest.mark.parametrize("problem, rank", [
        (helmholtz_2d("sim1", 10), 1), (advection_diffusion_1d(199, 0.01), 5)])
    def test_scan_matches_full_space(self, problem, rank):
        _, im = cross_rom(problem)
        assert im.rank == rank
        (a1, b1), (a2, b2) = im.box
        x_obs = direct_reference_solve(problem, 0.37 * a1 + 0.63 * b1,
                                       0.81 * a2 + 0.19 * b2)
        grid1, grid2 = np.linspace(a1, b1, 41), np.linspace(a2, b2, 41)
        scan = reduced_misfit(im, x_obs)(im.spline1(grid1)[:, None]
                                         * im.spline2(grid2))
        assert scan.shape == (41, 41)
        for i, mu1 in enumerate(grid1):
            for j, mu2 in enumerate(grid2):
                full = np.linalg.norm(x_obs - im(mu1, mu2))
                assert abs(scan[i, j] - full) <= 1e-10 * full

    def test_no_factorizations_or_solves(self, advdiff, advdiff_rom):
        _, im = advdiff_rom
        x_obs = direct_reference_solve(advdiff, 0.12, 0.34)
        before = (linalg.factorization_count(), linalg.triangular_solve_count())
        estimate_parameters(im, x_obs)
        after = (linalg.factorization_count(), linalg.triangular_solve_count())
        assert after == before


class TestRefine:
    def test_three_runs_noiseless(self, advdiff):
        true = (0.3, 0.4)
        x_obs = direct_reference_solve(advdiff, *true)
        before = linalg.factorization_count()
        records = refine_estimate(advdiff, x_obs, runs=3, n1=5, n2=5,
                                  true_parameters=true)
        # two sweeps (two factorizations) per run; the estimation itself
        # performs no additional factorizations
        assert linalg.factorization_count() - before == 6
        assert len(records) == 3
        final = records[-1]
        assert final.rel_err_mu1 < 0.05
        assert final.rel_err_mu2 < 0.05

    def test_zoom_boxes_stay_inside(self, advdiff):
        x_obs = direct_reference_solve(advdiff, 0.05, 0.48)
        records = refine_estimate(advdiff, x_obs, runs=3, n1=5, n2=5)
        (a1, b1), (a2, b2) = advdiff.box
        for rec in records:
            assert rec.box[0][0] >= a1 and rec.box[0][1] <= b1
            assert rec.box[1][0] >= a2 and rec.box[1][1] <= b2

    def test_determinism(self, advdiff):
        x_obs = add_noise(direct_reference_solve(advdiff, 0.2, 0.3), 1e-2, seed=7)
        a = refine_estimate(advdiff, x_obs, runs=2, n1=5, n2=5)
        b = refine_estimate(advdiff, x_obs, runs=2, n1=5, n2=5)
        for ra, rb in zip(a, b):
            assert ra.estimate == rb.estimate
            assert ra.objective == rb.objective

    def test_single_run_matches_manual_pipeline(self, advdiff, advdiff_rom):
        _, im = advdiff_rom
        x_obs = direct_reference_solve(advdiff, 0.22, 0.41)
        records = refine_estimate(advdiff, x_obs, runs=1, n1=5, n2=5)
        manual = estimate_parameters(im, x_obs)
        assert records[0].estimate[0] == pytest.approx(manual[0], abs=1e-12)
        assert records[0].estimate[1] == pytest.approx(manual[1], abs=1e-12)

    def test_report_dict(self, advdiff):
        x_obs = direct_reference_solve(advdiff, 0.3, 0.2)
        rec = refine_estimate(advdiff, x_obs, runs=1, n1=5, n2=5,
                              true_parameters=(0.3, 0.2))[0]
        d = rec.to_dict()
        assert d["run"] == 1
        assert "rel_err_percent_mu1" in d
        assert len(d["sweeps"]) == 2
