import tracemalloc

import numpy as np
import pytest
from reference import closed_form, kernel_eval

from nestedkrig import kernels
from nestedkrig.exceptions import DimensionMismatch
from nestedkrig.kernels import FAMILIES, KernelSpec, cross_matrix
from nestedkrig.linalg import factor_spd


def test_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("nope", 1.0, (0.1,))
    with pytest.raises(ValueError):
        KernelSpec("matern32", -1.0, (0.1,))
    with pytest.raises(ValueError):
        KernelSpec("matern32", 1.0, (0.1, -0.2))
    for variance, lengthscales in ((np.inf, (0.1,)), (np.nan, (0.1,)),
                                   (1.0, (0.1, np.inf)), (1.0, (np.nan,))):
        with pytest.raises(ValueError, match="finite"):
            KernelSpec("matern32", variance, lengthscales)


def test_stationarity_any_family():
    rng = np.random.default_rng(0)
    for family in FAMILIES:
        spec = KernelSpec(family, 1.7, (0.3, 0.4))
        for _ in range(5):
            x = rng.uniform(0, 1, 2)
            assert kernel_eval(spec, x, x) == pytest.approx(1.7, abs=0.0)
            y = rng.uniform(0, 1, 2)
            assert kernel_eval(spec, x, y) == kernel_eval(spec, y, x)


def test_squared_exponential_example():
    # exp(-12.5 (x - x')^2) corresponds to lengthscale 0.2
    spec = KernelSpec("squared-exponential", 1.0, (0.2,))
    value = kernel_eval(spec, [0.1], [0.3])
    assert value == pytest.approx(np.exp(-0.5), rel=1e-15)
    assert value == pytest.approx(np.exp(-12.5 * 0.2 ** 2), rel=1e-15)


def test_matern52_value():
    spec = KernelSpec("matern52", 1.0, (0.05,))
    expected = (1.0 + np.sqrt(5.0) + 5.0 / 3.0) * np.exp(-np.sqrt(5.0))
    assert kernel_eval(spec, [0.0], [0.05]) == pytest.approx(expected, rel=1e-15)
    assert expected == pytest.approx(0.5239941088318203, rel=1e-12)


def test_exponential_is_tensorized():
    spec = KernelSpec("exponential", 1.0, (0.5, 2.0))
    x, y = np.array([0.0, 0.0]), np.array([0.3, 0.8])
    expected = np.exp(-0.3 / 0.5) * np.exp(-0.8 / 2.0)
    assert kernel_eval(spec, x, y) == pytest.approx(expected, rel=1e-14)


def test_matern32_formula():
    spec = KernelSpec("matern32", 2.0, (0.1, 0.2))
    x, y = np.array([0.0, 0.1]), np.array([0.05, 0.0])
    h = np.array([0.05 / 0.1, 0.1 / 0.2])
    expected = 2.0 * np.prod((1 + np.sqrt(3) * h) * np.exp(-np.sqrt(3) * h))
    assert kernel_eval(spec, x, y) == pytest.approx(expected, rel=1e-14)


class TestCrossMatrix:
    def test_single_point(self):
        spec = KernelSpec("matern52", 2.5, (0.1,))
        np.testing.assert_allclose(cross_matrix(spec, [[0.4]], [[0.4]]),
                                   [[2.5]], rtol=0)

    def test_example_grid(self):
        spec = KernelSpec("squared-exponential", 1.0, (0.2,))
        A = np.array([[0.1], [0.3], [0.5]])
        K = cross_matrix(spec, A, A)
        expected = np.array([
            [1.0, np.exp(-0.5), np.exp(-2.0)],
            [np.exp(-0.5), 1.0, np.exp(-0.5)],
            [np.exp(-2.0), np.exp(-0.5), 1.0],
        ])
        np.testing.assert_allclose(K, expected, rtol=1e-14)

    def test_empty_b(self):
        spec = KernelSpec("matern32", 1.0, (0.1,))
        out = cross_matrix(spec, np.zeros((3, 1)), np.zeros((0, 1)))
        assert out.shape == (3, 0)

    def test_matches_eval_elementwise(self):
        rng = np.random.default_rng(1)
        for family in FAMILIES:
            spec = KernelSpec(family, 1.3, (0.2, 0.5, 0.8))
            A = rng.uniform(0, 1, (4, 3))
            B = rng.uniform(0, 1, (6, 3))
            K = cross_matrix(spec, A, B)
            for i in range(4):
                for j in range(6):
                    assert K[i, j] == kernel_eval(spec, A[i], B[j])
                    assert K[i, j] == pytest.approx(
                        closed_form(spec, A[i], B[j]), rel=1e-14)

    def test_gram_factors_with_tiny_jitter(self):
        rng = np.random.default_rng(2)
        for family in FAMILIES:
            spec = KernelSpec(family, 1.0, (0.2,))
            A = rng.uniform(0, 1, (30, 1))
            K = cross_matrix(spec, A, A) + 1e-10 * np.eye(30)
            factor_spd(K)  # must not raise

    def test_tiled_rows_equal_one_row_calls(self):
        # 101 rows of 997 columns span four row tiles, the last one shorter
        rng = np.random.default_rng(5)
        A = rng.uniform(0, 1, (101, 3))
        B = rng.uniform(0, 1, (997, 3))
        assert A.shape[0] * B.shape[0] > 3 * kernels.TILE_ENTRIES
        for family in FAMILIES:
            spec = KernelSpec(family, 1.3, (0.2, 0.5, 0.8))
            K = cross_matrix(spec, A, B)
            for i in range(A.shape[0]):
                assert np.array_equal(K[i], cross_matrix(spec, A[i:i + 1], B)[0])

    @pytest.mark.parametrize("G, n, m", [
        (5, 4, 4),      # the whole stack in one tile
        (700, 10, 10),  # whole matrices, three tiles, the last one shorter
        (3, 200, 190),  # every matrix larger than one tile: row tiles
        (40, 1, 1),
    ])
    def test_stack_equals_per_matrix_calls(self, G, n, m):
        rng = np.random.default_rng(G + n)
        for d in (1, 2, 3):
            A = rng.uniform(0, 1, (G, n, d))
            B = rng.uniform(0, 1, (G, m, d))
            for family in FAMILIES:
                spec = KernelSpec(family, 1.3, tuple(rng.uniform(0.1, 0.8, d)))
                out = np.empty((G, n, m))
                assert kernels.cross_matrix_into(spec, A, B, out) is out
                for a, b, o in zip(A, B, out):
                    assert np.array_equal(o, cross_matrix(spec, a, b)), family

    def test_allocates_one_tile_pair(self):
        # one call allocates one scratch pair of at most a tile plus a row
        # each, whether the block is one tile or many, and no ufunc buffers
        rng = np.random.default_rng(6)
        for rows, cols in ((10, 190), (200, 1000)):
            A = rng.uniform(0, 1, (rows, 3))
            B = rng.uniform(0, 1, (cols, 3))
            out = np.empty((rows, cols))
            pair = kernels.TILE_ENTRIES + cols
            bound = 2 * 8 * pair + 4096
            for family in FAMILIES:
                spec = KernelSpec(family, 1.0, (0.3, 0.4, 0.5))
                tracemalloc.start()
                kernels.cross_matrix_into(spec, A, B, out)
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                assert peak < bound, (family, rows, cols)
                if out.size > kernels.TILE_ENTRIES:
                    assert peak < out.nbytes, family
                assert np.array_equal(out, cross_matrix(spec, A, B))

    @pytest.mark.parametrize("G, rows, cols", [
        (1, 1, 1), (1, 7, 5), (1, 10, 190), (1, 64, 512),  # one matrix
        (4, 7, 5), (17, 10, 190),  # a stack in one tile
    ])
    def test_one_tile_equals_one_row_calls(self, G, rows, cols):
        assert G * rows * cols <= kernels.TILE_ENTRIES
        rng = np.random.default_rng(G + rows + cols)
        for d in (1, 2, 3):
            A = rng.uniform(0, 1, (G, rows, d))
            B = rng.uniform(0, 1, (G, cols, d))
            for family in FAMILIES:
                spec = KernelSpec(family, 1.3, tuple(rng.uniform(0.1, 0.8, d)))
                out = np.empty((G, rows, cols))
                if G == 1:
                    kernels.cross_matrix_into(spec, A[0], B[0], out[0])
                else:
                    kernels.cross_matrix_into(spec, A, B, out)
                for a, b, o in zip(A, B, out):
                    for i in range(rows):
                        row = cross_matrix(spec, a[i:i + 1], b)[0]
                        assert np.array_equal(o[i], row), (family, d)

    @pytest.mark.parametrize("shape", [
        (0, 3), (3, 0), (0, 0),  # matrices
        (0, 4, 4), (0, 200, 190), (3, 0, 4), (3, 4, 0),  # stacks
    ])
    def test_empty_blocks(self, shape):
        rng = np.random.default_rng(7)
        for d in (1, 2):
            A = rng.uniform(0, 1, shape[:-1] + (d,))
            B = rng.uniform(0, 1, shape[:-2] + shape[-1:] + (d,))
            for family in FAMILIES:
                spec = KernelSpec(family, 1.0, (0.3,) * d)
                out = np.empty(shape)
                assert kernels.cross_matrix_into(spec, A, B, out) is out
                if len(shape) == 2:
                    assert cross_matrix(spec, A, B).shape == shape

    def test_dimension_mismatch(self):
        spec = KernelSpec("matern32", 1.0, (0.1, 0.2))
        with pytest.raises(DimensionMismatch):
            cross_matrix(spec, [[0.1]], [[0.2]])
        with pytest.raises(DimensionMismatch):
            cross_matrix(spec, np.zeros((2, 3)), np.zeros((2, 2)))


def test_for_dim_broadcasts_a_single_lengthscale():
    spec = KernelSpec("matern32", 2.0, (0.3,))
    assert spec.for_dim(1) is spec
    assert spec.for_dim(3) == KernelSpec("matern32", 2.0, (0.3, 0.3, 0.3))
    aniso = KernelSpec("matern32", 2.0, (0.1, 0.2))
    assert aniso.for_dim(2) is aniso
    for d in (1, 3):
        with pytest.raises(DimensionMismatch, match="2 length-scales"):
            aniso.for_dim(d)


def test_monotone_decrease_in_each_coordinate():
    rng = np.random.default_rng(3)
    for family in FAMILIES:
        spec = KernelSpec(family, 1.0, (0.3, 0.6))
        x = rng.uniform(0, 1, 2)
        for j in range(2):
            gaps = np.linspace(0.0, 2.0, 25)
            values = []
            for g in gaps:
                y = x.copy()
                y[j] += g
                values.append(kernel_eval(spec, x, y))
            assert np.all(np.diff(values) < 1e-15)


def test_anisotropy_scaling_identity():
    # scaling coordinate j and lengthscale j by the same power of two is
    # exact in floating point, so the identity can be asserted bitwise
    rng = np.random.default_rng(4)
    for family in FAMILIES:
        theta = (0.2, 0.7)
        spec = KernelSpec(family, 1.0, theta)
        c = 4.0
        scaled = KernelSpec(family, 1.0, (theta[0] * c, theta[1]))
        for _ in range(10):
            x, y = rng.uniform(0, 1, 2), rng.uniform(0, 1, 2)
            xs, ys = x.copy(), y.copy()
            xs[0] *= c
            ys[0] *= c
            assert kernel_eval(spec, x, y) == kernel_eval(scaled, xs, ys)
