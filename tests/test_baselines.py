import numpy as np
import pytest

from nestedkrig.baselines import METHODS, PRECISION_FLOOR_RTOL, evaluate


def one_row(method, M, V, prior_var=1.0):
    """(mean, variance) of a single query given as a one-row batch."""
    means, variances = evaluate(method, [M], [V], prior_var)
    assert means.shape == variances.shape == (1,)
    return means[0], variances[0]


class TestPoe:
    def test_single_expert(self):
        means, variances = evaluate("poe", [[1.5], [-0.2]], [[0.7], [0.3]], 1.0)
        np.testing.assert_array_equal(means, [1.5, -0.2])
        np.testing.assert_array_equal(variances, [0.7, 0.3])

    def test_two_experts_hand(self):
        means, variances = evaluate("poe", [[0.0, 2.0], [1.0, 4.0]],
                                    [[1.0, 1.0], [1.0, 0.5]], 1.0)
        np.testing.assert_allclose(means, [1.0, 3.0])
        np.testing.assert_allclose(variances, [0.5, 1.0 / 3.0])

    def test_identical_experts_overconfident(self):
        mean, var = one_row("poe", [0.3] * 5, [0.8] * 5)
        assert mean == pytest.approx(0.3)
        assert var == pytest.approx(0.8 / 5)

    def test_interpolating_expert_short_circuit(self):
        # only the first row holds an exact expert; the second is fused
        M = [[1.0, 9.9], [1.0, 9.9]]
        V = [[0.5, 1e-14], [0.5, 0.5]]
        for method in METHODS:
            means, variances = evaluate(method, M, V, 1.0)
            assert (means[0], variances[0]) == (9.9, 1e-14)
            assert variances[1] > 1e-3

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError):
            evaluate("poe", [[0.0]], [[0.0]], 1.0)
        with pytest.raises(ValueError):
            evaluate("poe", [[0.0, 1.0]], [[0.5, -0.5]], 1.0)
        with pytest.raises(ValueError):
            evaluate("poe", [[0.0]], [[0.5]], 0.0)
        with pytest.raises(ValueError):
            evaluate("poe", np.empty((3, 0)), np.empty((3, 0)), 1.0)


class TestGpoe:
    def test_uniform_identical_experts(self):
        mean, var = one_row("gpoe2", [0.4] * 7, [0.9] * 7)
        assert mean == pytest.approx(0.4)
        assert var == pytest.approx(0.9)

    def test_uniform_mean_equals_poe_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = int(rng.integers(2, 12))
            M = rng.standard_normal((5, p))
            V = rng.uniform(0.05, 1.0, (5, p))
            m_poe, v_poe = evaluate("poe", M, V, 1.0)
            m_gpoe, v_gpoe = evaluate("gpoe2", M, V, 1.0)
            np.testing.assert_array_equal(m_gpoe, m_poe)  # bitwise
            np.testing.assert_allclose(v_gpoe, p * v_poe, rtol=1e-12)

    def test_entropy_weights_hand(self):
        mean, var = one_row("gpoe1", [0.0, 2.0], [0.5, 1.0])
        beta1 = 0.5 * np.log(2.0)
        assert mean == pytest.approx(0.0)
        assert var == pytest.approx(0.5 / beta1)

    def test_all_zero_weights_returns_prior(self):
        # every expert at or above the prior variance: all exponents are zero
        means, variances = evaluate("gpoe1", [[0.7, -0.7], [0.7, -0.7]],
                                    [[1.0, 1.0], [1.0, 0.5]], 1.0)
        assert (means[0], variances[0]) == (0.0, 1.0)
        assert means[1] == pytest.approx(-0.7)

    def test_entropy_weight_clamped_nonnegative(self):
        # the second expert is less precise than the prior: its exponent is
        # clamped to zero, so it drops out instead of pulling the mean away
        mean, var = one_row("gpoe1", [1.0, 2.0], [0.5, 1.5])
        alone = one_row("gpoe1", [1.0], [0.5])
        assert mean == alone[0] == 1.0
        assert var == alone[1]


class TestBcmRbcm:
    def test_bcm_single_expert(self):
        mean, var = one_row("bcm", [1.2], [0.4])
        assert mean == pytest.approx(1.2)
        assert var == pytest.approx(0.4)

    def test_bcm_uninformative_experts_recover_prior(self):
        mean, var = one_row("bcm", [0.0] * 6, [2.5] * 6, prior_var=2.5)
        assert mean == pytest.approx(0.0)
        assert var == pytest.approx(2.5)

    def test_rbcm_with_unit_weights_is_bcm(self):
        # V = prior * e^-2 makes every entropy exponent exactly one
        V = np.exp(-2.0)
        assert 0.5 * (np.log(1.0) - np.log(V)) == 1.0
        rng = np.random.default_rng(1)
        for _ in range(10):
            p = int(rng.integers(1, 9))
            M = rng.standard_normal((4, p))
            a = evaluate("bcm", M, np.full(p, V), 1.0)
            b = evaluate("rbcm", M, np.full(p, V), 1.0)
            np.testing.assert_array_equal(a[0], b[0])
            np.testing.assert_array_equal(a[1], b[1])

    def test_bcm_negative_precision_floored(self):
        # experts less precise than the prior drive the precision negative
        # in the first row; the second row stays positive
        means, variances = evaluate("bcm", [[1.0] * 3, [1.0] * 3],
                                    [[4.0] * 3, [0.5] * 3], 1.0)
        assert variances[0] == 1.0 / PRECISION_FLOOR_RTOL
        assert means[0] == pytest.approx(0.75 / PRECISION_FLOOR_RTOL)
        assert means[1] == pytest.approx(1.5)
        assert variances[1] == pytest.approx(0.25)

    def test_rbcm_default_weights(self):
        M, V = np.array([0.5, -0.5]), np.array([0.25, 0.5])
        beta = 0.5 * (np.log(1.0) - np.log(V))
        tau = np.sum(beta / V) + 1.0 - np.sum(beta)
        mean, var = one_row("rbcm", M, V)
        assert mean == pytest.approx(np.sum(beta * M / V) / tau)
        assert var == pytest.approx(1.0 / tau)


class TestSpv:
    def test_picks_smallest_variance(self):
        means, variances = evaluate("spv", [[5.0, 6.0, 7.0], [5.0, 6.0, 7.0]],
                                    [[3.0, 1.0, 2.0], [0.5, 1.0, 2.0]], 1.0)
        np.testing.assert_array_equal(means, [6.0, 5.0])
        np.testing.assert_array_equal(variances, [1.0, 0.5])

    def test_tie_breaks_low_index(self):
        means, _ = evaluate("spv", [[1.0, 2.0], [2.0, 1.0]], [1.0, 1.0], 1.0)
        np.testing.assert_array_equal(means, [1.0, 2.0])

    def test_interpolating_expert_wins(self):
        mean, _ = one_row("spv", [0.1, 4.2], [0.9, 0.0 + 1e-18])
        assert mean == 4.2


def test_dispatcher_covers_all_methods():
    M, V = [[0.1, 0.2], [0.3, -0.1]], [[0.5, 0.6], [0.9, 0.2]]
    for method in METHODS:
        means, variances = evaluate(method, M, V, prior_var=1.0)
        assert means.shape == variances.shape == (2,)
        assert np.all(variances > 0.0)
    with pytest.raises(ValueError):
        evaluate("nope", M, V, 1.0)


@pytest.mark.parametrize("method", METHODS)
def test_layout_does_not_change_results(method):
    # numpy sums the rows of a column-major array in sequence and those of
    # a row-major array pairwise; the results must not depend on it
    rng = np.random.default_rng(7)
    q, p = 64, 150
    M = rng.standard_normal((q, p))
    V = rng.uniform(0.01, 1.6, (q, p))
    V[3, 17] = 1e-14
    V[5] = 1.5
    want = evaluate(method, M, V, 1.0)
    got = evaluate(method, np.asfortranarray(M), np.asfortranarray(V), 1.0)
    rows = [evaluate(method, M[t], V[t], 1.0) for t in range(q)]
    for k in range(2):
        np.testing.assert_array_equal(got[k], want[k])
        np.testing.assert_array_equal(np.concatenate([r[k] for r in rows]),
                                      want[k])
    # one (p,) variance row shared by every query
    shared = evaluate(method, np.asfortranarray(M), V[0], 1.0)
    for k in range(2):
        np.testing.assert_array_equal(
            shared[k], evaluate(method, M, np.tile(V[0], (q, 1)), 1.0)[k])
        np.testing.assert_array_equal(shared[k][:1], rows[0][k])
