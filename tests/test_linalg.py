import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from nestedkrig.exceptions import DimensionMismatch, NotFactorizable
from nestedkrig.linalg import (factor_spd, factor_spd_stack, pseudo_solve,
                               solve, solve_lower, solve_weights)


def random_spd(rng, n):
    w = rng.uniform(1e-3, 1e3, n)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    A = (Q * w) @ Q.T
    return 0.5 * (A + A.T)


class TestFactorSpd:
    def test_identity(self):
        fac = factor_spd(np.eye(3))
        np.testing.assert_array_equal(fac.lower, np.eye(3))
        assert fac.applied_jitter == 0.0

    def test_hand_cholesky(self):
        fac = factor_spd([[4.0, 2.0], [2.0, 3.0]])
        np.testing.assert_allclose(fac.lower, [[2.0, 0.0], [1.0, np.sqrt(2.0)]],
                                   rtol=1e-15)
        assert fac.applied_jitter == 0.0

    def test_rank_deficient_gets_jitter(self):
        fac = factor_spd([[1.0, 1.0], [1.0, 1.0]])
        assert fac.applied_jitter > 0.0
        np.testing.assert_allclose(fac.lower @ fac.lower.T,
                                   np.array([[1.0, 1.0], [1.0, 1.0]])
                                   + fac.applied_jitter * np.eye(2), rtol=1e-12)

    def test_reconstruction_random_spd(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(1, 51))
            w = rng.uniform(1e-3, 1e3, n)
            Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            A = (Q * w) @ Q.T
            A = 0.5 * (A + A.T)
            fac = factor_spd(A)
            rebuilt = fac.lower @ fac.lower.T - fac.applied_jitter * np.eye(n)
            err = np.linalg.norm(rebuilt - A) / np.linalg.norm(A)
            assert err < 1e-8
            assert np.all(np.diag(fac.lower) > 0.0)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            factor_spd([[1.0, 0.5], [0.0, 1.0]])

    def test_hopeless_matrix_raises(self):
        with pytest.raises(NotFactorizable):
            factor_spd([[1.0, 0.0], [0.0, -5.0]])

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            factor_spd(np.ones((2, 3)))


class TestFactorSpdStack:
    @pytest.mark.parametrize("shape", [(1, 1), (7, 3), (40, 12)])
    def test_equals_factor_spd_per_matrix(self, shape):
        rng = np.random.default_rng(shape[0])
        stack = np.stack([random_spd(rng, shape[1]) for _ in range(shape[0])])
        lower, jitter = factor_spd_stack(stack)
        assert lower.flags.c_contiguous
        np.testing.assert_array_equal(jitter, 0.0)
        for m, L in zip(stack, lower):
            assert np.array_equal(L, factor_spd(m).lower)

    def test_one_singular_matrix_sends_the_stack_through_factor_spd(self):
        rng = np.random.default_rng(9)
        stack = np.stack([random_spd(rng, 4) for _ in range(5)])
        stack[3] = 1.0  # rank one: needs jitter
        lower, jitter = factor_spd_stack(stack)
        for m, L, j in zip(stack, lower, jitter):
            fac = factor_spd(m)
            assert np.array_equal(L, fac.lower)
            assert j == fac.applied_jitter
        assert jitter[3] > 0.0
        assert np.count_nonzero(jitter) == 1

    def test_asymmetric_rejected(self):
        stack = np.stack([np.eye(2), [[1.0, 0.5], [0.0, 1.0]]])
        with pytest.raises(ValueError, match="symmetric"):
            factor_spd_stack(stack)

    def test_hopeless_matrix_raises(self):
        stack = np.stack([np.eye(2), np.diag([1.0, -5.0])])
        with pytest.raises(NotFactorizable):
            factor_spd_stack(stack)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            factor_spd_stack(np.ones((2, 2, 3)))


class TestSolveLower:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("rhs_cols", [None, 1, 5])
    @pytest.mark.parametrize("trans", [0, 1])
    def test_equals_scipy_bit_for_bit(self, order, rhs_cols, trans):
        rng = np.random.default_rng(11)
        for n in (1, 2, 7, 30):
            L = np.asarray(factor_spd(random_spd(rng, n)).lower, order=order)
            shape = (n,) if rhs_cols is None else (n, rhs_cols)
            b = np.asarray(rng.standard_normal(shape), order=order)
            want = sla.solve_triangular(L, b, lower=True, trans=trans)
            got = solve_lower(L, b, trans=trans)
            assert got.shape == want.shape
            assert np.array_equal(got, want)
            assert got.flags.f_contiguous == want.flags.f_contiguous

    def test_inverse_factor_equals_scipy(self):
        L = factor_spd(random_spd(np.random.default_rng(12), 9)).lower
        eye = np.eye(9)
        want = sla.solve_triangular(L, eye, lower=True)
        got = solve_lower(L, eye, check_finite=False)
        assert np.array_equal(got, want)
        assert got.flags.f_contiguous and want.flags.f_contiguous

    @pytest.mark.parametrize("where", ["matrix", "rhs"])
    def test_non_finite_input_raises_like_scipy(self, where):
        L = np.array([[2.0, 0.0], [1.0, 3.0]])
        b = np.array([1.0, 2.0])
        if where == "matrix":
            L[1, 0] = np.nan
        else:
            b[1] = np.inf
        with pytest.raises(ValueError) as want:
            sla.solve_triangular(L, b, lower=True)
        with pytest.raises(ValueError) as got:
            solve_lower(L, b)
        assert str(got.value) == str(want.value)
        solve_lower(L, b, check_finite=False)  # unchecked: no error

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_singular_raises_like_scipy(self, order):
        L = np.asarray([[2.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 1.0]],
                       order=order)
        b = np.ones(3)
        with pytest.raises(np.linalg.LinAlgError) as want:
            sla.solve_triangular(L, b, lower=True)
        with pytest.raises(np.linalg.LinAlgError) as got:
            solve_lower(L, b)
        assert str(got.value) == str(want.value)

    def test_empty_rhs(self):
        out = solve_lower(np.eye(3), np.zeros((3, 0)))
        assert out.shape == (3, 0)


class TestSolve:
    def test_identity(self):
        fac = factor_spd(np.eye(4))
        b = np.arange(4.0)
        np.testing.assert_array_equal(solve(fac, b), b)

    def test_hand_solve(self):
        fac = factor_spd([[4.0, 2.0], [2.0, 3.0]])
        np.testing.assert_allclose(solve(fac, [8.0, 7.0]), [1.25, 1.5],
                                   rtol=1e-14)

    def test_diagonal(self):
        fac = factor_spd(np.diag([2.0, 5.0]))
        np.testing.assert_allclose(solve(fac, [2.0, 5.0]), [1.0, 1.0],
                                   rtol=1e-15)

    def test_matrix_rhs_and_residual(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            w = rng.uniform(1e-3, 1e3, n)
            Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            A = 0.5 * ((Q * w) @ Q.T + ((Q * w) @ Q.T).T)
            x_true = rng.standard_normal((n, 3))
            b = A @ x_true
            x = solve(factor_spd(A), b)
            assert np.linalg.norm(A @ x - b) <= 1e-8 * np.linalg.norm(b)
            assert np.linalg.norm(x - x_true) <= 1e-6 * np.linalg.norm(x_true)

    def test_dimension_mismatch(self):
        fac = factor_spd(np.eye(3))
        with pytest.raises(DimensionMismatch):
            solve(fac, np.ones(4))


class TestPseudoSolve:
    def test_agrees_with_solve_on_invertible(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 20))
            w = rng.uniform(0.1, 10.0, n)
            Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            A = 0.5 * ((Q * w) @ Q.T + ((Q * w) @ Q.T).T)
            b = rng.standard_normal(n)
            np.testing.assert_allclose(pseudo_solve(A, b),
                                       solve(factor_spd(A), b), atol=1e-8)

    def test_minimum_norm_on_singular(self):
        x = pseudo_solve([[1.0, 1.0], [1.0, 1.0]], [2.0, 2.0])
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-12)

    def test_zero_matrix(self):
        np.testing.assert_array_equal(pseudo_solve(np.zeros((3, 3)), np.ones(3)),
                                      np.zeros(3))


class TestSolveWeights:
    def test_matches_plain_solve(self):
        rng = np.random.default_rng(3)
        A = np.array([[2.0, 0.3], [0.3, 1.0]])
        b = np.array([1.0, 2.0])
        w, deg = solve_weights(A, b)
        assert not deg
        np.testing.assert_allclose(w, np.linalg.solve(A, b), rtol=1e-12)

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(4)
        K = np.empty((5, 3, 3))
        k = rng.standard_normal((5, 3))
        for i in range(5):
            B = rng.standard_normal((3, 3))
            K[i] = B @ B.T + 0.5 * np.eye(3)
        w, deg = solve_weights(K, k)
        assert not deg.any()
        for i in range(5):
            np.testing.assert_allclose(w[i], np.linalg.solve(K[i], k[i]),
                                       rtol=1e-10, atol=1e-12)

    def test_singular_falls_back_to_pseudo(self):
        K = np.array([[1.0, 1.0], [1.0, 1.0]])
        k = np.array([2.0, 2.0])
        w, deg = solve_weights(K, k)
        assert deg
        np.testing.assert_allclose(w, [1.0, 1.0], atol=1e-10)

    def test_scaling_invariance(self):
        # widely different expert scales must not break the solve
        rng = np.random.default_rng(5)
        base = np.array([[1.0, 0.4, 0.2], [0.4, 1.0, 0.5], [0.2, 0.5, 1.0]])
        s = np.array([1e-6, 1.0, 1e5])
        K = base * np.outer(s, s)
        k = s * np.array([0.3, 0.7, 0.1])
        w, deg = solve_weights(K, k)
        assert not deg
        np.testing.assert_allclose(K @ w, k, rtol=1e-9)

    @settings(max_examples=80, deadline=None)
    @given(p=st.integers(1, 12), batch=st.integers(1, 40), data=st.data())
    def test_weights_do_not_depend_on_batch_mates(self, p, batch, data):
        # healthy systems with expert scales spanning 1e-6..1e5, mixed with
        # singular all-ones systems at random batch positions
        singular = np.array(data.draw(st.lists(st.booleans(), min_size=batch,
                                               max_size=batch)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        B = rng.standard_normal((batch, p, p))
        K = B @ np.swapaxes(B, 1, 2) + 0.5 * np.eye(p)
        scales = 10.0 ** rng.uniform(-6.0, 5.0, (batch, p))
        K *= scales[:, :, None] * scales[:, None, :]
        k = rng.standard_normal((batch, p)) * scales
        K[singular] = 1.0
        w, deg = solve_weights(K, k)
        # a 1x1 all-ones system is regular
        np.testing.assert_array_equal(deg, singular & (p > 1))
        for i in range(batch):
            alone, _ = solve_weights(K[i], k[i])
            assert np.array_equal(w[i], alone)
