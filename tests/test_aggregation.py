from unittest import mock

import numpy as np
import pytest
from conftest import random_instance, random_kernel, separated_points
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (dense_aggregate, dense_expert_stats, dense_process_cov,
                       flat_posterior, flat_prior_cov, kernel_eval,
                       process_cov, reference_prior_cov, submodel_predict)

import nestedkrig as nk
from nestedkrig import aggregation, kernels
from nestedkrig.aggregation import (AggregatedProcess, aggregate,
                                    aggregated_posterior, diagnostics_vs_full)
from nestedkrig.gpcore import FullModel, SubModelBank, sample_conditional
from nestedkrig.linalg import solve_lower
from nestedkrig.tree import (PLAN_MODES, nested_design_weights,
                             nested_predict_batch, plan_tree)

EX1_KERNEL = nk.KernelSpec("squared-exponential", 1.0, (0.2,))
EX1_X = np.array([[0.1], [0.3], [0.5], [0.7], [0.9]])
EX1_F = np.sin(2 * np.pi * EX1_X[:, 0]) + EX1_X[:, 0]
EX1_PART = nk.Partition(labels=np.array([0, 0, 0, 1, 1]), p=2)


def ex1_bank():
    return SubModelBank(EX1_KERNEL, EX1_X, EX1_F, EX1_PART)


def planned_instance(rng, mode, height, kmeans):
    """A separated design, GP-path responses and a planned tree over a partition."""
    d = int(rng.integers(1, 3))
    # n points at spacing 0.02 must fit in [0, 1]
    n = int(rng.integers(12, 31 if d == 1 else 41))
    kern = random_kernel(rng, d)
    X = separated_points(rng, n, d, 0.02 if d == 1 else 0.08)
    f = nk.sample_paths(kern, X, 1, int(rng.integers(2 ** 31)))[0]
    plan = plan_tree(n, mode, height)
    seed = int(rng.integers(2 ** 31))
    part = (nk.partition_kmeans(X, plan.p, seed=seed) if kmeans
            else nk.partition_random(n, plan.p, seed))
    return kern, X, f, part, plan.tree


class TestAggregate:
    def test_single_expert(self):
        res = aggregate(2.0, [1.5], [1.2], [[1.6]])
        assert res.mean == pytest.approx(1.5 * 1.2 / 1.6)
        assert res.variance == pytest.approx(2.0 - 1.2 ** 2 / 1.6)
        assert not res.degenerate

    def test_single_interpolating_expert(self):
        res = aggregate(2.0, [0.7], [2.0], [[2.0]])
        assert res.mean == pytest.approx(0.7)
        assert res.variance == 0.0

    def test_example1_design_point(self):
        bank = ex1_bank()
        res = aggregate(1.0, *submodel_predict(bank, [0.3]))
        assert res.mean == pytest.approx(np.sin(2 * np.pi * 0.3) + 0.3, abs=1e-9)
        assert res.variance == pytest.approx(0.0, abs=1e-9)

    def test_example1_against_dense_oracle(self):
        bank = ex1_bank()
        res = aggregate(1.0, *submodel_predict(bank, [0.6]))
        mo, vo = dense_aggregate(EX1_KERNEL, EX1_X, EX1_F, EX1_PART.groups(), [0.6])
        assert res.mean == pytest.approx(mo, abs=1e-10)
        assert res.variance == pytest.approx(vo, abs=1e-10)

    def test_mean_is_weighted_sum(self):
        bank = ex1_bank()
        M, kM, KM = submodel_predict(bank, [0.42])
        res = aggregate(1.0, M, kM, KM)
        assert res.mean == float(res.weights @ M)

    def test_blue_optimality(self):
        # no other linear combination of the experts beats the solved weights
        rng = np.random.default_rng(0)
        for _ in range(10):
            kern, X, f, part = random_instance(rng, n=int(rng.integers(8, 13)),
                                               p=int(rng.integers(2, 5)))
            x = rng.uniform(0, 1, X.shape[1])
            kxx, M, kM, KM = dense_expert_stats(kern, X, f, part.groups(), x)
            res = aggregate(kxx, M, kM, KM)
            best = kxx - 2 * res.weights @ kM + res.weights @ KM @ res.weights
            for _ in range(100):
                w = rng.standard_normal(len(M))
                other = kxx - 2 * w @ kM + w @ KM @ w
                assert other >= best - 1e-10

    def test_variance_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            kern, X, f, part = random_instance(rng)
            bank = SubModelBank(kern, X, f, part)
            for _ in range(20):
                x = rng.uniform(0, 1, X.shape[1])
                res = aggregate(kern.variance, *submodel_predict(bank, x))
                assert 0.0 <= res.variance <= kern.variance + 1e-12

    def test_interpolation_everywhere(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            kern, X, f, part = random_instance(rng)
            bank = SubModelBank(kern, X, f, part)
            for i in range(X.shape[0]):
                res = aggregate(kern.variance, *submodel_predict(bank, X[i]))
                assert res.mean == pytest.approx(f[i], abs=1e-6 * np.sqrt(kern.variance))
                assert res.variance <= 1e-6 * kern.variance

    def test_degenerate_flag_on_duplicated_experts(self):
        M = np.array([1.0, 1.0])
        kM = np.array([0.5, 0.5])
        KM = np.array([[0.5, 0.5], [0.5, 0.5]])
        res = aggregate(1.0, M, kM, KM)
        assert res.degenerate
        assert res.mean == pytest.approx(1.0)
        assert res.variance == pytest.approx(0.5)

    def test_distribution_free_regression_experts(self):
        # noisy linear-regression experts: k(x,x') = 1 + x x', unit white
        # noise on observations; exercises the non-interpolating path
        X1 = np.array([0.1, 0.3, 0.5])
        X2 = np.array([0.7, 0.9])
        y1 = np.array([2.05, 0.93, 0.31])
        y2 = np.array([-0.47, 0.12])

        def k(a, b):
            return 1.0 + np.outer(a, b)

        x = 0.4
        kxx = 1.0 + x * x
        groups = [(X1, y1), (X2, y2)]
        M = np.empty(2)
        kM = np.empty(2)
        KM = np.empty((2, 2))
        solves = []
        for i, (Xi, yi) in enumerate(groups):
            Ai = np.linalg.solve(k(Xi, Xi) + np.eye(len(Xi)), k(Xi, [x]))[:, 0]
            solves.append(Ai)
            M[i] = Ai @ yi
            kM[i] = Ai @ k(Xi, [x])[:, 0]
        for i, (Xi, _) in enumerate(groups):
            for j, (Xj, _) in enumerate(groups):
                noise = np.eye(len(Xi)) if i == j else np.zeros((len(Xi), len(Xj)))
                KM[i, j] = solves[i] @ (k(Xi, Xj) + noise) @ solves[j]
        res = aggregate(kxx, M, kM, KM)
        assert np.isfinite(res.mean)
        assert 0.0 < res.variance <= kxx
        # noisy experts do not interpolate, and neither must the aggregate
        assert abs(res.mean - 0.93) > 1e-3


class TestProcessView:
    def test_variance_preserved_exactly(self):
        bank = ex1_bank()
        for x in (0.13, 0.3, 0.77):
            got = process_cov(AggregatedProcess(bank), [x], [x])
            assert got == EX1_KERNEL.variance

    def test_design_pairs_match_original_kernel(self):
        bank = ex1_bank()
        for xa in EX1_X[:, 0]:
            for xb in EX1_X[:, 0]:
                got = process_cov(AggregatedProcess(bank), [xa], [xb])
                want = kernel_eval(EX1_KERNEL, [xa], [xb])
                assert got == pytest.approx(want, abs=1e-8)

    def test_against_dense_oracle_on_sweep(self):
        bank = ex1_bank()
        for xb in np.linspace(0.0, 1.0, 21):
            got = process_cov(AggregatedProcess(bank), [0.3], [xb])
            want = dense_process_cov(EX1_KERNEL, EX1_X, EX1_PART.groups(),
                                     [0.3], [xb])
            assert got == pytest.approx(want, abs=1e-10)

    def test_random_instances_match_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            kern, X, f, part = random_instance(rng)
            bank = SubModelBank(kern, X, f, part)
            xa = rng.uniform(0, 1, X.shape[1])
            xb = rng.uniform(0, 1, X.shape[1])
            got = process_cov(AggregatedProcess(bank), xa, xb)
            want = dense_process_cov(kern, X, part.groups(), xa, xb)
            assert got == pytest.approx(want, abs=1e-8)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), ma=st.integers(1, 6),
           mb=st.integers(1, 6), on_design=st.booleans())
    def test_matches_group_pair_assembly(self, seed, ma, mb, on_design):
        # the design-weight form equals the p^2 block assembly, including
        # on design points and with the same point set on both sides
        rng = np.random.default_rng(seed)
        kern, X, f, part = random_instance(rng)
        bank = SubModelBank(kern, X, f, part)
        Za = rng.uniform(0, 1, (ma, X.shape[1]))
        if on_design:
            Za[0] = X[rng.integers(X.shape[0])]
        Zb = Za if mb == ma else rng.uniform(0, 1, (mb, X.shape[1]))
        got = AggregatedProcess(bank).prior_cov(Za, Zb)
        want = reference_prior_cov(bank, Za, Zb)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), ma=st.integers(1, 6),
           mb=st.integers(1, 6), on_design=st.booleans())
    def test_flat_tree_gives_the_flat_blue_bits(self, seed, ma, mb, on_design):
        # on the default flat tree the engine's weights are those of one
        # batched solve on the materialised layer-1 statistics, bit for bit
        rng = np.random.default_rng(seed)
        kern, X, f, part = random_instance(rng)
        bank = SubModelBank(kern, X, f, part)
        Za = rng.uniform(0, 1, (ma, X.shape[1]))
        if on_design:
            Za[0] = X[rng.integers(X.shape[0])]
        Zb = rng.uniform(0, 1, (mb, X.shape[1]))
        process = AggregatedProcess(bank)
        for Z1, Z2 in ((Za, Zb), (Za, Za), (X, Za)):
            assert np.array_equal(process.prior_cov(Z1, Z2),
                                  flat_prior_cov(bank, Z1, Z2))
        half = max(2, X.shape[0] // 2)
        for args in ((X, f), (X[:half], f[:half])):
            got = aggregated_posterior(bank, Zb, *args)
            want = flat_posterior(bank, Zb, *args)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)

    def test_posterior_forms_each_shared_block_once(self):
        # k(X, X) is evaluated once by the process (the bank's layer-1 pass
        # evaluates it in tiles), and the design weights of X are built once
        rng = np.random.default_rng(8)
        kern, X, f, part = random_instance(rng, n=24, p=4)
        bank = SubModelBank(kern, X, f, part)
        Xq = rng.uniform(0, 1, (5, X.shape[1]))
        n = X.shape[0]
        with mock.patch.object(kernels, "cross_matrix",
                               wraps=kernels.cross_matrix) as kernel_calls, \
                mock.patch.object(bank, "layer1",
                                  wraps=bank.layer1) as weight_calls:
            aggregated_posterior(bank, Xq)
        square = [c for c in kernel_calls.call_args_list
                  if len(c.args[1]) == n and len(c.args[2]) == n]
        design = [c for c in weight_calls.call_args_list if len(c.args[0]) == n]
        assert len(square) <= 2
        assert len(design) == 1

    def test_symmetry(self):
        bank = ex1_bank()
        a = process_cov(AggregatedProcess(bank), [0.22], [0.61])
        b = process_cov(AggregatedProcess(bank), [0.61], [0.22])
        assert a == pytest.approx(b, abs=1e-12)


class TestAggregatedPosterior:
    def test_interpolates_design(self):
        bank = ex1_bank()
        means, variances, cov = aggregated_posterior(bank, EX1_X)
        np.testing.assert_allclose(means, EX1_F, atol=1e-8)
        assert np.abs(cov).max() < 1e-8

    def test_single_point_matches_pointwise(self):
        bank = ex1_bank()
        for x in (0.6, 0.25, 0.97):
            means, variances, _ = aggregated_posterior(bank, [[x]])
            res = aggregate(1.0, *submodel_predict(bank, [x]))
            assert means[0] == pytest.approx(res.mean, abs=1e-8)
            assert variances[0] == pytest.approx(res.variance, abs=1e-8)

    def test_conditional_paths_interpolate(self):
        bank = ex1_bank()
        process = AggregatedProcess(bank)
        grid = np.vstack([EX1_X, np.linspace(0, 1, 7).reshape(-1, 1)])
        draws = sample_conditional(process, grid, 25, 5)
        np.testing.assert_allclose(draws[:, :5], np.tile(EX1_F, (25, 1)),
                                   atol=1e-6)
        # away from the data the paths genuinely vary
        assert draws[:, 5:].std(axis=0).max() > 1e-3


class TestDiagnostics:
    def test_zero_gaps_at_design_point(self):
        bank = ex1_bank()
        full = FullModel(EX1_KERNEL, EX1_X, EX1_F)
        d = diagnostics_vs_full(full, bank, [[0.3]])[0]
        assert d.mean_gap == pytest.approx(0.0, abs=1e-8)
        assert d.var_gap == pytest.approx(0.0, abs=1e-8)

    def test_example1_bounds_and_identities(self):
        bank = ex1_bank()
        full = FullModel(EX1_KERNEL, EX1_X, EX1_F)
        d = diagnostics_vs_full(full, bank, [[0.6]])[0]
        assert d.var_gap >= -1e-8
        assert d.var_gap <= d.bound + 1e-8
        assert d.eq_mean_lhs == pytest.approx(d.eq_mean_rhs, rel=1e-6)
        assert d.eq_var_lhs == pytest.approx(d.eq_var_rhs, rel=1e-6)

    def test_fully_informative_singletons(self):
        # one expert per observation point carries all the information, so
        # the aggregation reproduces the full model
        rng = np.random.default_rng(4)
        kern, X, f, _ = random_instance(rng, d=1, n=12)
        part = nk.Partition(labels=np.arange(12), p=12)
        bank = SubModelBank(kern, X, f, part)
        full = FullModel(kern, X, f)
        for d in diagnostics_vs_full(full, bank, rng.uniform(0, 1, (10, 1))):
            assert d.mean_gap == pytest.approx(0.0, abs=1e-8)
            assert d.var_gap == pytest.approx(0.0, abs=1e-8)

    def test_variance_gap_equals_mean_square_gap(self):
        # orthogonality of the full-model residual makes the two gaps equal
        bank = ex1_bank()
        full = FullModel(EX1_KERNEL, EX1_X, EX1_F)
        for d in diagnostics_vs_full(full, bank, [[0.2], [0.45], [0.8]]):
            assert d.var_gap == pytest.approx(d.eq_mean_lhs, rel=1e-8, abs=1e-12)

    def test_batch_has_the_bits_of_one_point_calls(self):
        # lambda(X) is built once per call, and every row of a batch equals
        # a one-point call, on a flat and on a height-3 tree
        rng = np.random.default_rng(9)
        for mode, height in (("two_layer_sqrt", 2), ("equilibrated", 3)):
            kern, X, f, part, tree = planned_instance(rng, mode, height, True)
            bank = SubModelBank(kern, X, f, part)
            full = FullModel(kern, X, f)
            Xq = rng.uniform(0, 1, (6, X.shape[1]))
            Xq[2] = X[rng.integers(X.shape[0])]
            with mock.patch.object(aggregation, "nested_design_weights",
                                   wraps=aggregation.nested_design_weights) as calls:
                batch = diagnostics_vs_full(full, bank, Xq, tree)
            assert [len(c.args[2]) for c in calls.call_args_list] == \
                [X.shape[0]] + [1] * 6
            assert batch == [diagnostics_vs_full(full, bank, x[None], tree)[0]
                             for x in Xq]
            # each row's k_A(X, x) is the one prior_cov assembles
            process, L = AggregatedProcess(bank, tree), full.factor.lower
            for x, d in zip(Xq, batch):
                kXx = kernels.cross_matrix(kern, X, x[None])[:, 0]
                kAXx = process.prior_cov(X, x[None])[:, 0]
                u = solve_lower(L, kXx - kAXx)
                w_full, w_agg = solve_lower(L, kXx), solve_lower(L, kAXx)
                assert d.eq_mean_rhs == float(u @ u)
                assert d.eq_var_rhs == float(w_full @ w_full - w_agg @ w_agg)


class TestPlannedTrees:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), mode=st.sampled_from(PLAN_MODES),
           height=st.integers(2, 3), kmeans=st.booleans())
    def test_modified_prior_identities_on_any_tree(self, seed, mode, height,
                                                   kmeans):
        # the nested predictor is linear in y on every tree, so its
        # modified prior and both error identities hold above height 2 too
        rng = np.random.default_rng(seed)
        kern, X, f, part, tree = planned_instance(rng, mode, height, kmeans)
        bank = SubModelBank(kern, X, f, part)
        full = FullModel(kern, X, f)
        process = AggregatedProcess(bank, tree)
        Xq = rng.uniform(0, 1, (4, X.shape[1]))
        Xq[0] = X[rng.integers(X.shape[0])]
        # variance preservation is exact
        assert np.all(np.diag(process.prior_cov(Xq, Xq)) == kern.variance)
        # on design-point pairs the modified prior coincides with the kernel
        np.testing.assert_allclose(process.prior_cov(X, X),
                                   kernels.cross_matrix(kern, X, X),
                                   rtol=0, atol=1e-8)
        # the design weights reproduce the nested predictor's mean
        means, _, lam, _ = nested_design_weights(bank, tree, Xq)
        m_nested, v_nested = nested_predict_batch(bank, tree, Xq)
        assert np.array_equal(means, m_nested)
        np.testing.assert_allclose(lam.T @ f, m_nested, rtol=1e-12,
                                   atol=1e-12 * np.abs(f).max())
        # conditioning the tree's modified prior on the data gives back the
        # nested predictor
        post_m, post_cov = process.posterior(Xq)
        post_v = np.diag(post_cov)
        np.testing.assert_allclose(post_m, m_nested, rtol=0,
                                   atol=1e-8 * np.abs(f).max())
        np.testing.assert_allclose(post_v, v_nested, rtol=0,
                                   atol=1e-8 * kern.variance)
        floor = 1e-8 * kern.variance

        def rel(a, b):
            return abs(a - b) / max(abs(a), abs(b), floor)

        for d in diagnostics_vs_full(full, bank, Xq[1:], tree):
            assert rel(d.eq_mean_lhs, d.eq_mean_rhs) <= 1e-6
            assert rel(d.eq_var_lhs, d.eq_var_rhs) <= 1e-6
            assert -1e-8 <= d.var_gap <= d.bound + 1e-8

    def test_design_weights_add_up_over_overlapping_paths(self):
        # expert 1 reaches the root through both middle nodes, and its
        # design weights carry the sum of the two path products
        rng = np.random.default_rng(21)
        kern, X, f, part = random_instance(rng, d=1, n=18, p=3)
        bank = SubModelBank(kern, X, f, part)
        tree = nk.AggregationTree(n_leaves=18, n_layer1=3,
                                  levels=(((0, 1), (1, 2)), ((0, 1),)))
        Xq = rng.uniform(0, 1, (6, 1))
        means, variances, lam, _ = nested_design_weights(bank, tree, Xq)
        np.testing.assert_allclose(lam.T @ f, means, rtol=1e-12,
                                   atol=1e-12 * np.abs(f).max())
        # the variance of lam' Y about Y(x) is the nested variance
        K = kernels.cross_matrix(kern, X, X)
        kX = kernels.cross_matrix(kern, X, Xq)
        mse = kern.variance - 2.0 * np.sum(lam * kX, axis=0) \
            + np.sum(lam * (K @ lam), axis=0)
        np.testing.assert_allclose(mse, variances, rtol=0,
                                   atol=1e-10 * kern.variance)
