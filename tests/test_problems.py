import math

import numpy as np
import pytest
import scipy.sparse as sp

from paramrom import problems
from paramrom.problems import (ONE, ParamFunction, SplitProblem,
                               advection_diffusion_1d, assemble,
                               direct_reference_solve, helmholtz_2d)


class TestParamFunction:
    def test_vocabulary(self):
        f = ParamFunction([
            {"coeff": 2.0, "fn": "const"},
            {"coeff": 1.0, "fn": "sin2", "var": "mu1"},
            {"coeff": -1.0, "fn": "pow", "var": "mu2", "k": 3},
        ])
        assert f(0.5, 2.0) == pytest.approx(2.0 + math.sin(0.5) ** 2 - 8.0)

    def test_round_trip(self):
        f = ParamFunction([{"coeff": 1.5, "fn": "cos", "var": "mu2"}])
        g = ParamFunction.from_dict(f.to_dict())
        assert g(0.3, 0.7) == f(0.3, 0.7)

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            ParamFunction([{"fn": "tan", "var": "mu1"}])


class TestAssemble:
    def test_zero_coefficients_leave_a0(self):
        A0 = sp.identity(4, format="csr") * 3.0
        A1 = sp.identity(4, format="csr")
        p = SplitProblem([A0, A1], [ONE, lambda m1, m2: 0.0],
                         np.ones(4), ((0, 1), (0, 1)))
        assert np.allclose(assemble(p, 0.5, 0.5).toarray(), A0.toarray())

    def test_sim1_coefficient_value(self):
        # f(mu1, mu2) = 2 pi^2 + cos(mu1) + mu1^4 + sin(mu2) + mu2
        p = helmholtz_2d("sim1", 4)
        expected = 2 * math.pi**2 + math.cos(1.6) + 1.6**4 + math.sin(1.4) + 1.4
        assert p.coefficient(1, 1.6, 1.4) == pytest.approx(expected, rel=1e-15)

    def test_affine_in_coefficients(self):
        p = helmholtz_2d("sim2", 4)
        doubled = SplitProblem(
            p.matrices,
            [p.functions[0],
             lambda m1, m2: 2.0 * p.functions[1](m1, m2),
             p.functions[2]],
            p.b, p.box)
        A = assemble(p, 1.3, 1.7).toarray()
        A2 = assemble(doubled, 1.3, 1.7).toarray()
        extra = p.matrices[1].toarray() * p.coefficient(1, 1.3, 1.7)
        assert np.allclose(A2, A + extra, atol=1e-12)

    def test_warns_outside_box(self):
        p = helmholtz_2d("sim1", 4)
        with pytest.warns(UserWarning):
            assemble(p, 5.0, 1.5)


class TestHelmholtz:
    def test_stencil_weights(self):
        p = helmholtz_2d("sim1", 3)
        L = p.matrices[0]
        assert L.shape == (9, 9)
        h2 = (1.0 / 4.0) ** 2
        assert L[4, 4] == pytest.approx(-4.0 / h2)
        assert L[4, 3] == pytest.approx(1.0 / h2)
        assert L[4, 1] == pytest.approx(1.0 / h2)

    def test_sim1_symmetric(self):
        p = helmholtz_2d("sim1", 5)
        A = assemble(p, 1.3, 1.9)
        assert (A != A.T).nnz == 0

    def test_sim3_size(self):
        assert helmholtz_2d("sim3", 100).n == 100 * 100

    def test_boxes(self):
        assert helmholtz_2d("sim1", 3).box == ((1.0, 2.0), (1.0, 2.0))
        assert helmholtz_2d("sim3", 3).box == ((0.0, 1.0), (0.0, 1.0))

    def test_sim2_alpha_is_x2(self):
        p = helmholtz_2d("sim2", 3)
        # flat index = i2 * grid_n + i1; x2 = (i2 + 1) * h
        d = p.matrices[2].diagonal()
        assert d[0] == pytest.approx(0.25)
        assert d[8] == pytest.approx(0.75)

    def test_sim3_alpha_is_x1(self):
        p = helmholtz_2d("sim3", 3)
        d = p.matrices[2].diagonal()
        assert d[0] == pytest.approx(0.25)
        assert d[2] == pytest.approx(0.75)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            helmholtz_2d("sim4", 5)

    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            helmholtz_2d("sim1", 2)


class TestAdvectionDiffusion:
    def test_size(self):
        assert advection_diffusion_1d(9999, 0.01).n == 9999

    def test_coefficients(self):
        p = advection_diffusion_1d(9, 0.01)
        assert p.coefficient(1, 0.0, 0.3) == pytest.approx(1.0)   # 1 + sin(0)
        assert p.coefficient(2, 0.3, 0.0) == pytest.approx(11.0)  # 10 + cos(0)
        assert p.coefficient(2, 0.0, 0.5) == pytest.approx(
            10 + math.cos(0.5) + math.pi * 0.5)

    def test_initial_condition_midpoint(self):
        p = advection_diffusion_1d(9, 0.01)
        assert p.b[4] == pytest.approx(1.0)  # sin(pi * 0.5)

    def test_small_dt_limit(self):
        p = advection_diffusion_1d(50, 1e-12)
        x = direct_reference_solve(p, 0.2, 0.3)
        assert np.linalg.norm(x - p.b) <= 1e-8 * np.linalg.norm(p.b)

    def test_heat_kernel_decay_without_advection(self):
        # Pure diffusion variant: one implicit Euler step approaches the
        # heat-kernel decay of the first Fourier mode to O(h^2 + dt).
        grid_n, dt = 200, 1e-3
        base = advection_diffusion_1d(grid_n, dt)
        pure = SplitProblem(base.matrices[:2], base.functions[:2], base.b,
                            base.box, base.grid)
        mu1 = 0.5
        x = direct_reference_solve(pure, mu1, 0.0)
        f1 = base.coefficient(1, mu1, 0.0)
        expected = math.exp(-math.pi**2 * f1 * dt) * base.b
        err = np.linalg.norm(x - expected) / np.linalg.norm(expected)
        assert err < 5e-4


class TestDirectSolve:
    def test_matches_dense(self, rng):
        p = helmholtz_2d("sim1", 5)
        x = direct_reference_solve(p, 1.4, 1.8)
        dense = np.linalg.solve(assemble(p, 1.4, 1.8).toarray(), p.b)
        assert np.linalg.norm(x - dense) <= 1e-10 * np.linalg.norm(dense)

    def test_residual(self):
        p = advection_diffusion_1d(100, 0.01)
        x = direct_reference_solve(p, 0.2, 0.4)
        r = assemble(p, 0.2, 0.4) @ x - p.b
        assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(p.b)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        p = helmholtz_2d("sim2", 4)
        problems.save_problem(p, tmp_path / "prob")
        q = problems.load_problem(tmp_path / "prob")
        assert q.n == p.n
        assert q.box == p.box
        A = assemble(p, 1.25, 1.75).toarray()
        B = assemble(q, 1.25, 1.75).toarray()
        assert np.allclose(A, B, atol=1e-14)
        assert np.array_equal(q.b, p.b)

    def test_from_config(self, tmp_path):
        p = problems.from_config({"name": "advection_diffusion",
                                  "grid_n": 20, "dt": 0.05})
        assert p.n == 20 and p.grid["dt"] == 0.05
        problems.save_problem(p, tmp_path / "d")
        q = problems.from_config({"dir": str(tmp_path / "d")})
        assert q.n == 20
        with pytest.raises(ValueError):
            problems.from_config({"name": "nope"})

    @pytest.mark.parametrize("cfg, key", [
        ({"name": "helmholtz_sim1", "grid_n": 6, "grid_nn": 4}, "grid_nn"),
        ({"name": "helmholtz_sim3", "grid_n": 4, "dt": 0.01}, "dt"),
        ({"name": "advection_diffusion", "grid_n": 20, "steps": 2}, "steps")])
    def test_from_config_rejects_unknown_preset_keys(self, cfg, key):
        with pytest.raises(ValueError, match=key):
            problems.from_config(cfg)
