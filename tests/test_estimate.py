import numpy as np
import pytest

from paramrom import linalg
from paramrom.estimate import (_nelder_mead, add_noise, estimate_parameters,
                               reduced_misfit, refine_estimate)
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


def nelder_mead_numpy(f, x0, box):
    """The NumPy-array form of _nelder_mead it replaced, kept as the
    reference for its iterates."""
    (a1, b1), (a2, b2) = box
    diagonal = float(np.hypot(b1 - a1, b2 - a2))

    def clamp(x):
        return np.array([min(max(x[0], a1), b1), min(max(x[1], a2), b2)])

    step = np.array([0.05 * (b1 - a1), 0.05 * (b2 - a2)])
    simplex = [clamp(np.asarray(x0, dtype=np.float64))]
    simplex.append(clamp(simplex[0] + np.array([step[0], 0.0])))
    simplex.append(clamp(simplex[0] + np.array([0.0, step[1]])))
    for idx in (1, 2):
        if np.allclose(simplex[idx], simplex[0]):
            inward = np.array([-step[0], 0.0]) if idx == 1 else np.array([0.0, -step[1]])
            simplex[idx] = clamp(simplex[0] + inward)
    values = [f(x) for x in simplex]
    for _ in range(500):
        order = np.argsort(values)
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        diameter = max(float(np.linalg.norm(simplex[0] - simplex[1])),
                       float(np.linalg.norm(simplex[0] - simplex[2])),
                       float(np.linalg.norm(simplex[1] - simplex[2])))
        if diameter < 1e-10 * diagonal:
            break
        centroid = 0.5 * (simplex[0] + simplex[1])
        reflected = clamp(centroid + (centroid - simplex[2]))
        f_reflected = f(reflected)
        if f_reflected < values[0]:
            expanded = clamp(centroid + 2.0 * (centroid - simplex[2]))
            f_expanded = f(expanded)
            if f_expanded < f_reflected:
                simplex[2], values[2] = expanded, f_expanded
            else:
                simplex[2], values[2] = reflected, f_reflected
        elif f_reflected < values[1]:
            simplex[2], values[2] = reflected, f_reflected
        else:
            contracted = clamp(centroid + 0.5 * (simplex[2] - centroid))
            f_contracted = f(contracted)
            if f_contracted < values[2]:
                simplex[2], values[2] = contracted, f_contracted
            else:
                for idx in (1, 2):
                    simplex[idx] = clamp(simplex[0] + 0.5 * (simplex[idx] - simplex[0]))
                    values[idx] = f(simplex[idx])
    best = int(np.argmin(values))
    return simplex[best], float(values[best])


class TestNelderMead:
    BOX = ((-1.0, 2.0), (0.5, 1.5))

    @staticmethod
    def quadratic(center):
        c1, c2 = center
        return lambda p: ((p[0] - c1) ** 2 + 3.0 * (p[1] - c2) ** 2
                          + 0.5 * (p[0] - c1) * (p[1] - c2))

    @pytest.mark.parametrize("corner", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_corner_start_pushes_inward(self, corner):
        (a1, b1), (a2, b2) = self.BOX
        start = (self.BOX[0][corner[0]], self.BOX[1][corner[1]])
        f = self.quadratic((0.3, 1.1))
        calls = []
        _nelder_mead(lambda p: calls.append(p) or f(p), np.array(start), self.BOX)
        # The first three calls are the initial simplex: the start and one
        # step of 5% of the box width along each axis, into the box.
        step1 = 0.05 * (b1 - a1) * (1 if corner[0] == 0 else -1)
        step2 = 0.05 * (b2 - a2) * (1 if corner[1] == 0 else -1)
        assert calls[0] == start
        assert calls[1] == pytest.approx((start[0] + step1, start[1]), abs=1e-15)
        assert calls[2] == pytest.approx((start[0], start[1] + step2), abs=1e-15)

    def test_interior_minimizer(self):
        point, value = _nelder_mead(self.quadratic((0.3, 1.1)),
                                    np.array([1.8, 0.6]), self.BOX)
        assert np.abs(point - [0.3, 1.1]).max() <= 1e-8
        assert value <= 1e-15

    @pytest.mark.parametrize("center, minimizer", [
        ((3.0, 1.0), (2.0, 1.0)),       # on an edge
        ((0.5, 0.0), (0.5, 0.5)),       # on the other axis's edge
        ((-2.0, 2.0), (-1.0, 1.5))])    # in a corner
    def test_boundary_minimizer_stays_in_box(self, center, minimizer):
        (a1, b1), (a2, b2) = self.BOX
        f = lambda p: (p[0] - center[0]) ** 2 + (p[1] - center[1]) ** 2
        calls = []
        point, _ = _nelder_mead(lambda p: calls.append(p) or f(p),
                                np.array([0.4, 1.0]), self.BOX)
        assert all(a1 <= p1 <= b1 and a2 <= p2 <= b2 for p1, p2 in calls)
        assert np.abs(point - minimizer).max() <= 1e-8

    @pytest.mark.parametrize("start", [(0.4, 1.0), (-1.0, 0.5), (2.0, 1.5), (1.9, 0.52)])
    @pytest.mark.parametrize("center", [(0.3, 1.1), (3.0, 1.0), (-2.0, 2.0)])
    def test_same_iterates_as_numpy_form(self, start, center):
        # Rounded objective values make ties, which both forms must order alike.
        f = self.quadratic(center)
        calls, reference = [], []
        point, value = _nelder_mead(
            lambda p: calls.append(tuple(p)) or round(f(p), 6), start, self.BOX)
        ref_point, ref_value = nelder_mead_numpy(
            lambda p: reference.append(tuple(p)) or round(f(p), 6), start, self.BOX)
        assert calls == reference
        assert np.array_equal(point, ref_point) and value == ref_value

    def test_returns_array_point_and_float_value(self):
        point, value = _nelder_mead(self.quadratic((0.3, 1.1)), (0.0, 1.0), self.BOX)
        assert isinstance(point, np.ndarray) and point.shape == (2,)
        assert type(value) is float


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

    def test_single_weight_vector_gives_float(self, advdiff_rom, rng):
        # Nelder-Mead calls the misfit on one w, the scan on a batch.
        _, im = advdiff_rom
        misfit = reduced_misfit(im, rng.standard_normal(im.n))
        W = rng.standard_normal((50, im.rank))
        for w, value in zip(W, misfit(W)):
            single = misfit(w)
            assert type(single) is float
            assert abs(single - value) <= 1e-14 * value

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
