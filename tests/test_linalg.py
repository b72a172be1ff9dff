import numpy as np
import pytest
import scipy.interpolate
import scipy.sparse as sp

from conftest import random_sparse
from paramrom.errors import OutOfRangeError, SingularMatrixError
from paramrom.linalg import CubicSpline, LUFactorization


class TestLU:
    def test_identity(self):
        F = LUFactorization(sp.identity(5, format="csr"))
        e1 = np.eye(5)[0]
        assert np.array_equal(F.solve(e1), e1)

    def test_tridiagonal_by_hand(self):
        # tridiag(1, -2, 1), size 4, all-ones rhs: eliminated by hand.
        T = sp.diags([np.ones(3), -2 * np.ones(4), np.ones(3)], [-1, 0, 1])
        x = LUFactorization(sp.csr_matrix(T)).solve(np.ones(4))
        assert np.allclose(x, [-2.0, -3.0, -3.0, -2.0], atol=1e-12)

    def test_multiply_then_solve(self, rng):
        A = random_sparse(rng, 50)
        x_true = rng.standard_normal(50)
        x = LUFactorization(A).solve(A @ x_true)
        assert np.linalg.norm(x - x_true) <= 1e-10 * np.linalg.norm(x_true)

    def test_residual_property_many_rhs(self, rng):
        A = random_sparse(rng, 30)
        F = LUFactorization(A)
        for _ in range(100):
            rhs = rng.standard_normal(30)
            x = F.solve(rhs)
            assert np.linalg.norm(A @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_diagonal(self):
        A = sp.diags([2.0, 4.0]).tocsr()
        assert np.allclose(LUFactorization(A).solve(np.array([2.0, 4.0])), [1.0, 1.0])

    def test_singular_raises(self):
        A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
        with pytest.raises(SingularMatrixError):
            LUFactorization(A)

    def test_dimension_mismatch(self):
        F = LUFactorization(sp.identity(3, format="csr"))
        with pytest.raises(ValueError):
            F.solve(np.ones(4))
        with pytest.raises(ValueError):
            LUFactorization(sp.csr_matrix(np.ones((2, 3))))


class TestCubicSpline:
    def test_constant(self):
        s = CubicSpline(np.linspace(0, 1, 6), np.full(6, 3.5))
        for x in np.linspace(0, 1, 23):
            assert abs(s(x) - 3.5) < 1e-14

    def test_reproduces_linear(self):
        xs = np.array([0.0, 1.0, 2.0, 3.0])
        s = CubicSpline(xs, xs.copy())
        for x in np.linspace(0, 3, 31):
            assert abs(s(x) - x) < 1e-13

    def test_sin_seven_knots(self):
        # Natural boundary leaves an O(h^2) layer where sin'' != 0 at the
        # right end; dense-sampling oracle puts the max error at 1.152e-3.
        xs = np.linspace(0, 1, 7)
        s = CubicSpline(xs, np.sin(xs))
        grid = np.linspace(0, 1, 1000)
        err = max(abs(s(x) - np.sin(x)) for x in grid)
        assert err < 1.3e-3

    def test_matches_scipy_natural(self, rng):
        xs = np.sort(rng.uniform(0, 1, 9))
        xs[0], xs[-1] = 0.0, 1.0
        ys = rng.standard_normal(9)
        ref = scipy.interpolate.CubicSpline(xs, ys, bc_type="natural")
        s = CubicSpline(xs, ys)
        for x in np.linspace(0, 1, 200):
            assert abs(s(x) - ref(x)) < 1e-10

    def test_knot_values_exact(self, rng):
        xs = np.linspace(-1, 2, 8)
        ys = rng.standard_normal(8)
        s = CubicSpline(xs, ys)
        for x, y in zip(xs, ys):
            assert abs(s(x) - y) <= 4 * np.spacing(max(abs(y), 1.0))

    @pytest.mark.parametrize("k", [2, 3])
    def test_knot_values_exact_few_knots(self, rng, k):
        xs = np.linspace(-1, 2, k)
        Y = rng.standard_normal((k, 3))
        s = CubicSpline(xs, Y)
        for x, y in zip(xs, Y):
            assert np.array_equal(s(x), y)

    @pytest.mark.parametrize("k", [2, 3, 4, 8])
    @pytest.mark.parametrize("columns", [None, 3])
    def test_array_call_matches_scalar_calls(self, rng, k, columns):
        xs = np.sort(rng.uniform(0, 1, k))
        ys = rng.standard_normal(k if columns is None else (k, columns))
        s = CubicSpline(xs, ys)
        points = np.concatenate([np.linspace(xs[0], xs[-1], 41), xs])
        out = s(points)
        assert out.shape == (points.shape[0],) + ys.shape[1:]
        for x, row in zip(points, out):
            assert np.array_equal(row, s(x))

    @pytest.mark.parametrize("columns", [None, 1, 5])
    def test_scalar_input_types_agree_bitwise(self, rng, columns):
        xs = np.linspace(-1.0, 3.0, 9)
        ys = rng.standard_normal(9 if columns is None else (9, columns))
        s = CubicSpline(xs, ys)
        for x in (-1, 0, 2, 3, -0.37, 1.5, 2.999):
            ref = s(x)
            assert np.shape(ref) == ys.shape[1:]
            for same in (float(x), np.float64(x), np.array(x), np.array(float(x))):
                assert np.array_equal(s(same), ref)
            assert np.array_equal(s(np.array([x]))[0], ref)

    @pytest.mark.parametrize("bad", [float("nan"), np.nan, np.array(np.nan),
                                     -1.0000001, 3.0000001, 4, -2,
                                     float("inf"), -np.inf])
    def test_scalar_nan_and_out_of_range_raise(self, bad):
        s = CubicSpline(np.linspace(-1.0, 3.0, 9), np.zeros((9, 2)))
        with pytest.raises(OutOfRangeError):
            s(bad)

    def test_array_nan_raises(self):
        s = CubicSpline(np.linspace(0, 1, 5), np.zeros((5, 2)))
        with pytest.raises(OutOfRangeError):
            s(np.array([0.2, np.nan, 0.7]))

    def test_array_out_of_range(self):
        s = CubicSpline(np.linspace(0, 1, 5), np.zeros((5, 2)))
        for bad in (np.array([0.5, 1.0001]), np.array([-0.0001, 0.5]),
                    np.array([0.0, 1.0, 2.0])):
            with pytest.raises(OutOfRangeError):
                s(bad)

    def test_out_of_range(self):
        s = CubicSpline(np.linspace(0, 1, 5), np.zeros(5))
        with pytest.raises(OutOfRangeError):
            s(1.0001)
        with pytest.raises(OutOfRangeError):
            s(-0.0001)

    def test_two_knot_fallback_linear(self):
        s = CubicSpline(np.array([0.0, 2.0]), np.array([1.0, 5.0]))
        assert abs(s(0.5) - 2.0) < 1e-14

    def test_three_knot_fallback_quadratic(self):
        xs = np.array([0.0, 1.0, 2.0])
        s = CubicSpline(xs, xs**2)
        for x in np.linspace(0, 2, 21):
            assert abs(s(x) - x**2) < 1e-12

    def test_vector_valued_matches_columns(self, rng):
        xs = np.linspace(0, 1, 6)
        Y = rng.standard_normal((6, 3))
        stacked = CubicSpline(xs, Y)
        singles = [CubicSpline(xs, Y[:, j]) for j in range(3)]
        for x in np.linspace(0, 1, 17):
            out = stacked(x)
            assert np.allclose(out, [s(x) for s in singles], atol=1e-14)

    def test_rejects_bad_knots(self):
        with pytest.raises(ValueError):
            CubicSpline(np.array([0.0, 0.0, 1.0]), np.zeros(3))
        with pytest.raises(ValueError):
            CubicSpline(np.array([0.0]), np.zeros(1))
