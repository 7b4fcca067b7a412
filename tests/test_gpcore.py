import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg as sla
from conftest import random_instance
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (ReferenceBank, dense_expert_stats, materialised_layer1,
                       reference_fill, reference_fill_expert_cross_cov,
                       reference_group_factors, reference_group_weights,
                       reference_loo_weights, reference_moments,
                       submodel_predict)

import nestedkrig as nk
from nestedkrig import baselines, estimation, gpcore, kernels, linalg
from nestedkrig.estimation import loo_predict
from nestedkrig.exceptions import DimensionMismatch
from nestedkrig.gpcore import (FullModel, SubModelBank, sample_conditional,
                               sample_gaussian, sample_paths)
from nestedkrig.tree import AggregationTree, nested_predict_batch, plan_tree

EX1_KERNEL = nk.KernelSpec("squared-exponential", 1.0, (0.2,))
EX1_X = np.array([[0.1], [0.3], [0.5], [0.7], [0.9]])
EX1_F = np.sin(2 * np.pi * EX1_X[:, 0]) + EX1_X[:, 0]
EX1_PART = nk.Partition(labels=np.array([0, 0, 0, 1, 1]), p=2)


class TestFullModel:
    def test_interpolation(self):
        model = FullModel(EX1_KERNEL, EX1_X, EX1_F)
        m, v = model.predict(EX1_X)
        np.testing.assert_allclose(m, EX1_F, atol=1e-10)
        assert np.all(v <= 1e-6 * EX1_KERNEL.variance)

    def test_prior_recovery_far_away(self):
        model = FullModel(EX1_KERNEL, EX1_X, EX1_F)
        m, v = model.predict([[25.0]])
        corr = kernels.cross_matrix(EX1_KERNEL, EX1_X, [[25.0]])
        assert np.abs(corr).max() < 1e-12
        assert m[0] == pytest.approx(0.0, abs=1e-10)
        assert v[0] == pytest.approx(EX1_KERNEL.variance, rel=1e-10)

    def test_example_value_at_design_point(self):
        model = FullModel(EX1_KERNEL, EX1_X, EX1_F)
        m, v = model.predict([[0.3]])
        expected = np.sin(2 * np.pi * 0.3) + 0.3
        assert m[0] == pytest.approx(expected, abs=1e-10)
        assert expected == pytest.approx(1.2510565162951537, rel=1e-14)
        assert v[0] == pytest.approx(0.0, abs=1e-10)

    def test_variance_range(self):
        rng = np.random.default_rng(0)
        kern, X, f, _ = random_instance(rng)
        model = FullModel(kern, X, f)
        _, v = model.predict(rng.uniform(0, 1, (50, X.shape[1])))
        assert np.all(v >= 0.0)
        assert np.all(v <= kern.variance + 1e-12)

    def test_cond_cov_consistency(self):
        model = FullModel(EX1_KERNEL, EX1_X, EX1_F)
        Xq = np.array([[0.2], [0.6], [0.85]])
        cov = model.posterior(Xq)[1]
        _, v = model.predict(Xq)
        np.testing.assert_allclose(np.diag(cov), v, atol=1e-10)
        np.testing.assert_allclose(cov, cov.T, atol=0)
        assert np.linalg.eigvalsh(cov).min() > -1e-8
        single = model.posterior(Xq[1:2])[1]
        assert single[0, 0] == pytest.approx(v[1], abs=1e-12)

    def test_posterior_conditions_once(self):
        # one k(X, Xq) and one solve L V = k(X, Xq) give the means and the
        # covariance, with the bits of predict and of the direct formula
        model = FullModel(EX1_KERNEL, EX1_X, EX1_F)
        Xq = np.array([[0.2], [0.6], [0.85], [0.3]])
        with mock.patch.object(kernels, "cross_matrix",
                               wraps=kernels.cross_matrix) as kernel_calls, \
                mock.patch.object(gpcore, "solve_lower",
                                  wraps=gpcore.solve_lower) as solves:
            means, cov = model.posterior(Xq)
        assert [len(c.args[1]) for c in kernel_calls.call_args_list] == [5, 4]
        assert solves.call_count == 1
        assert np.array_equal(means, model.predict(Xq)[0])
        V = linalg.solve_lower(model.factor.lower,
                               kernels.cross_matrix(EX1_KERNEL, EX1_X, Xq))
        direct = kernels.cross_matrix(EX1_KERNEL, Xq, Xq) - V.T @ V
        assert np.array_equal(cov, 0.5 * (direct + direct.T))

    def test_cond_cov_zero_at_design(self):
        model = FullModel(EX1_KERNEL, EX1_X, EX1_F)
        cov = model.posterior(EX1_X[1:3])[1]
        np.testing.assert_allclose(cov, 0.0, atol=1e-8)

    def test_dimension_mismatch(self):
        model = FullModel(EX1_KERNEL, EX1_X, EX1_F)
        with pytest.raises(DimensionMismatch):
            model.predict(np.zeros((2, 3)))


class TestSubModelBank:
    def test_own_design_point(self):
        bank = SubModelBank(EX1_KERNEL, EX1_X, EX1_F, EX1_PART)
        M, kM, KM = submodel_predict(bank, [0.3])
        assert M[0] == pytest.approx(EX1_F[1], abs=1e-10)
        assert kM[0] == pytest.approx(1.0, abs=1e-10)
        assert KM[0, 0] == pytest.approx(1.0, abs=1e-10)

    def test_single_group_bank(self):
        part = nk.Partition(labels=np.zeros(5, dtype=int), p=1)
        bank = SubModelBank(EX1_KERNEL, EX1_X, EX1_F, part)
        M, kM, KM = submodel_predict(bank, [0.6])
        assert KM.shape == (1, 1)
        assert KM[0, 0] == pytest.approx(kM[0], abs=0)
        # single expert over all points reproduces the full model
        full = FullModel(EX1_KERNEL, EX1_X, EX1_F)
        m, _ = full.predict([[0.6]])
        assert M[0] == pytest.approx(m[0], abs=1e-12)

    def test_against_dense_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            kern, X, f, part = random_instance(rng)
            bank = SubModelBank(kern, X, f, part)
            x = rng.uniform(0, 1, X.shape[1])
            M, kM, KM = submodel_predict(bank, x)
            kxx, Mo, kMo, KMo = dense_expert_stats(kern, X, f, part.groups(), x)
            np.testing.assert_allclose(M, Mo, atol=1e-9)
            np.testing.assert_allclose(kM, kMo, atol=1e-9)
            np.testing.assert_allclose(KM, KMo, atol=1e-9)

    def test_example1_oracle(self):
        bank = SubModelBank(EX1_KERNEL, EX1_X, EX1_F, EX1_PART)
        M, kM, KM = submodel_predict(bank, [0.6])
        kxx, Mo, kMo, KMo = dense_expert_stats(EX1_KERNEL, EX1_X, EX1_F,
                                               EX1_PART.groups(), [0.6])
        np.testing.assert_allclose(M, Mo, atol=1e-12)
        np.testing.assert_allclose(kM, kMo, atol=1e-12)
        np.testing.assert_allclose(KM, KMo, atol=1e-12)

    def test_diag_equals_cov_with_process(self):
        bank = SubModelBank(EX1_KERNEL, EX1_X, EX1_F, EX1_PART)
        _, k, K = materialised_layer1(bank, np.linspace(0, 1, 7).reshape(-1, 1))
        np.testing.assert_array_equal(np.einsum("qii->qi", K), k)

    def test_km_psd(self):
        rng = np.random.default_rng(2)
        kern, X, f, part = random_instance(rng)
        bank = SubModelBank(kern, X, f, part)
        K = materialised_layer1(bank, rng.uniform(0, 1, (20, X.shape[1])))[2]
        for t in range(20):
            assert np.linalg.eigvalsh(K[t]).min() > -1e-8 * kern.variance

    def test_full_model_mse_optimality(self):
        # no single expert can beat the full model's error at any point
        rng = np.random.default_rng(3)
        kern, X, f, part = random_instance(rng)
        full = FullModel(kern, X, f)
        bank = SubModelBank(kern, X, f, part)
        Xq = rng.uniform(0, 1, (30, X.shape[1]))
        _, v_full = full.predict(Xq)
        _, k, K = materialised_layer1(bank, Xq)
        expert_mse = kern.variance - k ** 2 / np.einsum("qii->qi", K)
        assert np.all(v_full[:, None] <= expert_mse + 1e-8)


@st.composite
def fill_cases(draw):
    """A random design on an unequal partition, a tree over it and queries."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 3))
    n = draw(st.integers(4, 90))
    layout = draw(st.sampled_from(("flat", "two_layer_sqrt", "equilibrated",
                                   "optimal")))
    if layout == "flat":
        p = draw(st.integers(1, max(1, n // 3)))
        tree = AggregationTree.flat(n, p)
    else:
        plan = plan_tree(n, layout, draw(st.integers(2, 4)))
        p, tree = plan.p, plan.tree
    # every group gets one point, the rest land anywhere: unequal sizes
    labels = rng.permutation(np.concatenate(
        [np.arange(p), rng.integers(0, p, n - p)]))
    family = draw(st.sampled_from(kernels.FAMILIES))
    kern = nk.KernelSpec(family, float(rng.uniform(0.5, 2.0)),
                         tuple(rng.uniform(0.1, 0.6, d)))
    X = rng.uniform(0, 1, (n, d))
    y = np.sin(4.0 * X.sum(axis=1)) + rng.standard_normal(n) * 0.1
    q = draw(st.sampled_from((1, 512)) | st.integers(0, 40).map(lambda k: 2 * k + 1))
    Xq = rng.uniform(0, 1, (q, d))
    Xq[: q // 4] = X[rng.integers(0, n, q // 4)]
    return kern, X, y, nk.Partition(labels=labels, p=p), tree, Xq


class TestFillReference:
    @settings(max_examples=60, deadline=None)
    @given(case=fill_cases())
    def test_fill_and_predictions_equal_reference(self, case):
        kern, X, y, part, tree, Xq = case
        bank = SubModelBank(kern, X, y, part)
        M, kM, AT = bank.layer1(Xq)
        A = np.ascontiguousarray(AT.T)
        q, p = M.shape
        # the packed lower triangle: row g from column g(g+1)/2 on
        g = np.arange(p)
        packed = np.empty((q, p * (p + 1) // 2))
        rows = []
        bank.cross_cov_rows(AT, kM, packed, g * (g + 1) // 2,
                            {g: lambda g=g: rows.append(g)
                             for g in range(0, p, 2)})
        assert rows == list(range(0, p, 2))
        K_ref = np.empty((q, p, p))
        reference_fill_expert_cross_cov(kern, bank._Xc, bank._starts, A,
                                        K_ref, kM)
        assert np.array_equal(packed, K_ref[:, *np.tril_indices(p)])

        sizes = np.bincount(part.labels, minlength=p)
        deletable = np.flatnonzero(sizes[part.labels] > 1)[:q]
        ds = nk.Dataset(X=X, y=y)
        got = nested_predict_batch(bank, tree, Xq)
        loo = loo_predict(ds, part, tree, kern, deletable)
        with mock.patch.object(gpcore, "fill_expert_cross_cov", reference_fill):
            want = nested_predict_batch(bank, tree, Xq)
            loo_want = loo_predict(ds, part, tree, kern, deletable)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert loo == loo_want


def assert_same_factors(bank, inv_factors, jitter):
    assert len(bank.inv_factors) == len(inv_factors)
    for R, R_ref in zip(bank.inv_factors, inv_factors):
        assert np.array_equal(R, R_ref)
        assert R.flags.f_contiguous == R_ref.flags.f_contiguous
    assert np.array_equal(bank.applied_jitter, jitter)


@st.composite
def bank_cases(draw):
    """A random design on a partition whose groups come in mixed size classes.

    Sizes up to 8 repeat freely, size-1 groups always occur, one class of
    9 to 14 holds a single group, and sometimes one group holds a
    duplicated design point.  The kernel tile is drawn small enough, at
    times, that a class stack spans several tiles and a single group
    matrix spans several row tiles.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=25))
    sizes += [1, draw(st.integers(9, 14))]
    p, n = len(sizes), sum(sizes)
    labels = rng.permutation(np.repeat(np.arange(p), sizes))
    family = draw(st.sampled_from(kernels.FAMILIES))
    kern = nk.KernelSpec(family, float(rng.uniform(0.5, 2.0)),
                         tuple(rng.uniform(0.1, 0.6, d)))
    X = rng.uniform(0, 1, (n, d))
    if draw(st.booleans()):
        i, j = np.flatnonzero(labels == p - 1)[:2]
        X[j] = X[i]
    y = np.sin(4.0 * X.sum(axis=1)) + rng.standard_normal(n) * 0.1
    Xq = rng.uniform(0, 1, (draw(st.integers(1, 20)), d))
    tile = draw(st.sampled_from((kernels.TILE_ENTRIES, 50, 16)))
    return kern, X, y, nk.Partition(labels=labels, p=p), Xq, tile


class TestBankReference:
    @settings(max_examples=60, deadline=None)
    @given(case=bank_cases())
    def test_bank_and_predictions_equal_per_group_build(self, case):
        kern, X, y, part, Xq, tile = case
        with mock.patch.object(kernels, "TILE_ENTRIES", tile):
            bank = SubModelBank(kern, X, y, part)
            ref = ReferenceBank(kern, X, y, part)
        assert_same_factors(bank, ref.inv_factors, ref.applied_jitter)

        tree = AggregationTree.flat(part.n, part.p)
        got = nested_predict_batch(bank, tree, Xq)
        want = nested_predict_batch(ref, tree, Xq)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

        sizes = np.bincount(part.labels, minlength=part.p)
        deletable = np.flatnonzero(sizes[part.labels] > 1)[:30]
        ds = nk.Dataset(X=X, y=y)
        loo = loo_predict(ds, part, tree, kern, deletable)
        with mock.patch.object(estimation, "SubModelBank", ReferenceBank):
            assert loo == loo_predict(ds, part, tree, kern, deletable)

    def test_duplicate_point_in_one_group_of_a_clean_class(self):
        # four groups of six and two of three; group 2 repeats a point, so
        # the batched Cholesky of the size-6 class fails
        rng = np.random.default_rng(4)
        labels = np.repeat([0, 1, 2, 3, 4, 5], [6, 6, 6, 6, 3, 3])
        X = rng.uniform(0, 1, (labels.size, 2))
        X[13] = X[12]
        y = rng.standard_normal(labels.size)
        kern = nk.KernelSpec("squared-exponential", 1.0, (0.3, 0.3))
        part = nk.Partition(labels=labels, p=6)
        K2 = kernels.cross_matrix(kern, X[12:18], X[12:18])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(K2)

        with mock.patch.object(linalg, "factor_spd",
                               wraps=linalg.factor_spd) as spy:
            bank = SubModelBank(kern, X, y, part)
        # the failed class goes through factor_spd, the clean one does not
        assert spy.call_count == 4

        fac = linalg.factor_spd(K2)
        assert fac.applied_jitter > 0.0
        assert bank.applied_jitter[2] == fac.applied_jitter
        np.testing.assert_array_equal(np.delete(bank.applied_jitter, 2), 0.0)
        assert np.array_equal(bank.inv_factors[2], sla.solve_triangular(
            fac.lower, np.eye(6), lower=True))
        inv_factors, jitter = reference_group_factors(kern, bank._Xc, bank.spans)
        assert_same_factors(bank, inv_factors, jitter)

    def test_major_row_inverts_point_order(self):
        rng = np.random.default_rng(5)
        kern, X, f, part = random_instance(rng)
        bank = SubModelBank(kern, X, f, part)
        np.testing.assert_array_equal(bank.point_order[bank.major_row],
                                      np.arange(bank.n))


@st.composite
def pass_cases(draw):
    """A random design on an unequal partition, queries and a kernel tile.

    The partition is k-means or random, and at times one group holds about
    half the design, so that at q = 512 it is larger than one tile.  The
    queries are either free points or design points left out of their
    groups, with two deletions in one group whenever q >= 2 and some
    group has three or more points.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 3))
    n = draw(st.integers(4, 240))
    p = draw(st.integers(1, max(1, n // 3)))
    X = rng.uniform(0, 1, (n, d))
    if draw(st.booleans()):
        part = nk.partition_kmeans(X, p, seed=int(rng.integers(1000)))
    else:
        labels = np.concatenate([np.arange(p), rng.integers(0, p, n - p)])
        if draw(st.booleans()):
            labels[p:p + (n - p) // 2] = 0
        part = nk.Partition(labels=rng.permutation(labels), p=p)
    family = draw(st.sampled_from(kernels.FAMILIES))
    kern = nk.KernelSpec(family, float(rng.uniform(0.5, 2.0)),
                         tuple(rng.uniform(0.1, 0.6, d)))
    y = np.sin(4.0 * X.sum(axis=1)) + rng.standard_normal(n) * 0.1
    q = draw(st.sampled_from((1, 512)) | st.integers(1, 40).map(lambda k: 2 * k + 1))
    sizes = np.bincount(part.labels, minlength=part.p)
    deletable = np.flatnonzero(sizes[part.labels] > 1)
    deleted = None
    if deletable.size and draw(st.booleans()):
        deleted = rng.choice(deletable, q)
        crowded = np.flatnonzero(sizes >= 3)
        if q >= 2 and crowded.size:
            members = np.flatnonzero(part.labels == crowded[0])
            deleted[:2] = rng.choice(members, 2, replace=False)
    Xq = X[deleted] if deleted is not None else rng.uniform(0, 1, (q, d))
    tile = draw(st.sampled_from((kernels.TILE_ENTRIES, 600, 40)))
    return kern, X, y, part, Xq, deleted, tile


def assert_same_array(got, want):
    assert got.shape == want.shape
    assert got.flags.c_contiguous == want.flags.c_contiguous
    assert got.flags.f_contiguous == want.flags.f_contiguous
    assert np.array_equal(got, want)


class TestLayer1PassReference:
    @settings(max_examples=80, deadline=None)
    @given(case=pass_cases())
    def test_pass_equals_whole_design_reference(self, case):
        # the tiled pass gives the bits, shapes and layouts of the
        # whole-design evaluation for every tile and run split
        kern, X, y, part, Xq, deleted, tile = case
        bank = SubModelBank(kern, X, y, part)
        if deleted is None:
            C, A = reference_group_weights(bank, Xq)
        else:
            C, A = reference_loo_weights(bank, deleted)
        M_ref, k_ref = reference_moments(bank, C, A)
        with mock.patch.object(kernels, "TILE_ENTRIES", tile):
            M, k, AT = bank.layer1(Xq, deleted)
            moments = bank.layer1(Xq, deleted, with_weights=False)
        assert_same_array(M, M_ref)
        assert_same_array(k, k_ref)
        assert_same_array(AT, np.ascontiguousarray(A.T))
        assert_same_array(moments[0], M_ref)
        assert_same_array(moments[1], k_ref)
        assert moments[2] is None
        alpha = np.random.default_rng(0).standard_normal(M.shape)
        assert_same_array(bank.design_weights(AT, alpha),
                          A[bank.major_row] * alpha.T[bank.labels])

    def test_baseline_chunk_holds_no_n_by_q_array(self):
        # one 512-query chunk of a baseline rule at the predict-deep shape
        # (n = 2500 in d = 3, p = 179 k-means groups) holds one kernel tile
        # and O(p q) reals, less than one n x q array
        rng = np.random.default_rng(10)
        n, q = 2500, 512
        X = rng.uniform(0, 1, (n, 3))
        plan = plan_tree(n, "equilibrated", height=3)
        assert plan.p == 179
        kern = nk.KernelSpec("matern52", 1.0, (0.3, 0.3, 0.3))
        bank = SubModelBank(kern, X, np.sin(4.0 * X.sum(axis=1)),
                            nk.partition_kmeans(X, plan.p, seed=0))
        Xq = rng.uniform(0, 1, (q, 3))

        def chunk():
            M, k, _ = bank.layer1(Xq, with_weights=False)
            return baselines.evaluate("rbcm", M, baselines.expert_variances(
                kern.variance, k), kern.variance)

        chunk()
        tracemalloc.start()
        chunk()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < n * q * 8, f"peak {peak} bytes, n={n}, q={q}"


class TestDesignLayout:
    def test_design_weights_reproduce_combined_means(self):
        # lambda' y = sum_g alpha_g M_g for any expert weights alpha
        rng = np.random.default_rng(6)
        for _ in range(5):
            kern, X, f, part = random_instance(rng)
            bank = SubModelBank(kern, X, f, part)
            Xq = rng.uniform(0, 1, (7, X.shape[1]))
            M, _, AT = bank.layer1(Xq)
            alpha = rng.standard_normal(M.shape)
            lam = bank.design_weights(AT, alpha)
            assert lam.shape == (bank.n, 7)
            np.testing.assert_allclose(lam.T @ f, np.sum(alpha * M, axis=1),
                                       rtol=0, atol=1e-12)

    def test_design_weights_of_one_expert_are_its_kriging_weights(self):
        rng = np.random.default_rng(7)
        kern, X, f, part = random_instance(rng)
        bank = SubModelBank(kern, X, f, part)
        x = rng.uniform(0, 1, (1, X.shape[1]))
        AT = bank.layer1(x)[2]
        for g, idx in enumerate(part.groups()):
            lam = bank.design_weights(AT, np.eye(bank.p)[g][None])[:, 0]
            K = kernels.cross_matrix(kern, X[idx], X[idx])
            want = np.linalg.solve(K, kernels.cross_matrix(kern, X[idx], x))[:, 0]
            np.testing.assert_allclose(lam[idx], want, atol=1e-9)
            np.testing.assert_array_equal(np.delete(lam, idx), 0.0)

    def test_likelihood_terms_equal_dense_group_sums(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            kern, X, f, part = random_instance(rng)
            quad, log_det = SubModelBank(kern, X, f, part).likelihood_terms()
            want_quad = want_log_det = 0.0
            for idx in part.groups():
                K = kernels.cross_matrix(kern, X[idx], X[idx])
                want_quad += f[idx] @ np.linalg.solve(K, f[idx])
                want_log_det += np.linalg.slogdet(K)[1]
            assert quad == pytest.approx(want_quad, rel=1e-9)
            assert log_det == pytest.approx(want_log_det, rel=1e-9, abs=1e-9)

    def test_likelihood_log_det_of_a_diagonal_group(self):
        # far-apart points under a short exponential kernel: K_g = diag(2)
        X = np.array([[0.0], [100.0], [200.0], [300.0]])
        kern = nk.KernelSpec("exponential", 2.0, (1e-3,))
        part = nk.Partition(labels=np.array([0, 0, 0, 1]), p=2)
        quad, log_det = SubModelBank(kern, X, np.ones(4), part).likelihood_terms()
        assert quad == pytest.approx(4 / 2.0)
        assert log_det == pytest.approx(4 * np.log(2.0))


class TestSampling:
    def test_zero_count(self):
        draws = sample_paths(EX1_KERNEL, EX1_X, 0, 0)
        assert draws.shape == (0, 5)

    def test_single_point_standard_normal(self):
        spec = nk.KernelSpec("matern32", 1.0, (0.1,))
        draws = sample_paths(spec, [[0.5]], 10000, 123)
        assert draws.shape == (10000, 1)
        assert np.var(draws) == pytest.approx(1.0, abs=0.05)

    def test_empirical_covariance(self):
        grid = np.linspace(0, 1, 5).reshape(-1, 1)
        target = kernels.cross_matrix(EX1_KERNEL, grid, grid)
        draws = sample_paths(EX1_KERNEL, grid, 10000, 7)
        emp = draws.T @ draws / draws.shape[0]
        err = np.linalg.norm(emp - target) / np.linalg.norm(target)
        assert err < 0.05

    def test_deterministic_given_seed(self):
        a = sample_paths(EX1_KERNEL, EX1_X, 3, 99)
        b = sample_paths(EX1_KERNEL, EX1_X, 3, 99)
        np.testing.assert_array_equal(a, b)

    def test_conditional_hits_data_exactly(self):
        model = FullModel(EX1_KERNEL, EX1_X, EX1_F)
        draws = sample_conditional(model, EX1_X, 4, 11)
        for row in draws:
            np.testing.assert_array_equal(row, model.predict(EX1_X)[0])

    def test_conditional_mixed_grid(self):
        model = FullModel(EX1_KERNEL, EX1_X, EX1_F)
        grid = np.vstack([EX1_X, [[0.6]]])
        draws = sample_conditional(model, grid, 200, 13)
        np.testing.assert_allclose(draws[:, :5],
                                   np.tile(model.predict(EX1_X)[0], (200, 1)),
                                   atol=1e-7)
        assert np.var(draws[:, 5]) > 1e-4

    def test_gaussian_mean_shift(self):
        mean = np.array([3.0, -2.0])
        draws = sample_gaussian(mean, np.zeros((2, 2)), 5, 1)
        np.testing.assert_array_equal(draws, np.tile(mean, (5, 1)))
