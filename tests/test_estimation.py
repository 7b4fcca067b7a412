import time
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import random_instance

import nestedkrig as nk
from nestedkrig.estimation import (LOO_VARIANCE_FLOOR, LooRecord, SgdConfig,
                                   estimate_sigma2, grid_profile_loglik,
                                   loo_criterion, loo_predict, loo_weights,
                                   sgd_fit, sgd_fit_two_phase)
from nestedkrig.gpcore import SubModelBank
from nestedkrig.tree import AggregationTree, plan_tree, run_layers

EX1_KERNEL = nk.KernelSpec("squared-exponential", 1.0, (0.2,))
EX1_X = np.array([[0.1], [0.3], [0.5], [0.7], [0.9]])
EX1_F = np.sin(2 * np.pi * EX1_X[:, 0]) + EX1_X[:, 0]
EX1_PART = nk.Partition(labels=np.array([0, 0, 0, 1, 1]), p=2)
EX1_TREE = AggregationTree.flat(5, 2)


def ex1_dataset():
    return nk.Dataset(X=EX1_X, y=EX1_F)


class TestLooPredict:
    def test_two_points_one_group(self):
        X = np.array([[0.2], [0.5]])
        f = np.array([1.0, -2.0])
        ds = nk.Dataset(X=X, y=f)
        part = nk.Partition(labels=np.array([0, 0]), p=1)
        tree = AggregationTree.flat(2, 1)
        rec = loo_predict(ds, part, tree, EX1_KERNEL, [0])
        # deleting the first point leaves a one-point expert
        rho = nk.cross_matrix(EX1_KERNEL, [[0.2]], [[0.5]])[0, 0]
        assert rec[0].m_loo == pytest.approx(rho * f[1], rel=1e-12)
        assert rec[0].v_loo == pytest.approx(1.0 - rho ** 2, rel=1e-10)

    def test_matches_from_scratch_refit(self):
        ds = ex1_dataset()
        for i in range(5):
            rec = loo_predict(ds, EX1_PART, EX1_TREE, EX1_KERNEL, [i])[0]
            keep = np.arange(5) != i
            part_small = nk.Partition(labels=EX1_PART.labels[keep], p=2)
            bank = nk.SubModelBank(EX1_KERNEL, EX1_X[keep], EX1_F[keep],
                                   part_small)
            m, v = nk.nested_predict(bank, EX1_TREE, EX1_X[i])
            assert rec.m_loo == pytest.approx(m, abs=1e-10)
            assert rec.v_loo == pytest.approx(v / EX1_KERNEL.variance, abs=1e-10)

    def test_matches_refit_on_random_instances(self):
        rng = np.random.default_rng(0)
        for case in range(8):
            if case < 5:
                kern, X, f, part = random_instance(rng)
                tree = AggregationTree.flat(X.shape[0], part.p)
            else:
                # equilibrated height-3 trees over 6-9 experts of 2-3 points
                n = int(rng.integers(16, 27))
                plan = nk.plan_tree(n, "equilibrated", 3)
                kern, X, f, part = random_instance(rng, n=n, p=plan.p)
                tree = plan.tree
            sizes = np.array([len(g) for g in part.groups()])
            if sizes.min() < 2:
                continue
            ds = nk.Dataset(X=X, y=f)
            i = int(rng.integers(X.shape[0]))
            rec = loo_predict(ds, part, tree, kern, [i])[0]
            keep = np.arange(X.shape[0]) != i
            bank = nk.SubModelBank(kern, X[keep], f[keep],
                                   nk.Partition(labels=part.labels[keep], p=part.p))
            m, v = nk.nested_predict(bank, tree, X[i])
            assert rec.m_loo == pytest.approx(m, abs=1e-9)
            assert rec.v_loo == pytest.approx(v / kern.variance, abs=1e-9)

    def test_height_three_tree_matches_materialised_engine(self):
        # the streamed first layer gives the bits of run_layers on the
        # materialised leave-one-out statistics
        rng = np.random.default_rng(12)
        X = rng.uniform(0, 1, (400, 2))
        f = np.sin(5.0 * X[:, 0]) * np.cos(3.0 * X[:, 1])
        kern = nk.KernelSpec("matern52", 1.0, (0.2, 0.3))
        plan = plan_tree(400, "equilibrated", height=3)
        part = nk.partition_kmeans(X, plan.p, seed=2)
        keep = np.bincount(part.labels)[part.labels] > 1
        indices = np.flatnonzero(keep)[::3]
        records = loo_predict(nk.Dataset(X=X, y=f), part, plan.tree, kern,
                              indices)
        bank = SubModelBank(kern, X, f, part)
        C, A = loo_weights(bank, part.labels, indices)
        m, root_cov = run_layers(*bank.statistics(C, A), plan.tree)
        v = np.maximum((kern.variance - root_cov) / kern.variance,
                       LOO_VARIANCE_FLOOR)
        assert [r.index for r in records] == indices.tolist()
        assert np.array_equal([r.m_loo for r in records], m)
        assert np.array_equal([r.v_loo for r in records], v)

    def test_singleton_group_skipped_with_warning(self):
        X = np.array([[0.1], [0.5], [0.9]])
        ds = nk.Dataset(X=X, y=np.array([1.0, 2.0, 3.0]))
        part = nk.Partition(labels=np.array([0, 0, 1]), p=2)
        tree = AggregationTree.flat(3, 2)
        with pytest.warns(UserWarning, match="empty their group"):
            rec = loo_predict(ds, part, tree, EX1_KERNEL, [0, 2])
        assert [r.index for r in rec] == [0]

    def test_variance_positive(self):
        ds = ex1_dataset()
        for rec in loo_predict(ds, EX1_PART, EX1_TREE, EX1_KERNEL):
            assert rec.v_loo > 0.0

    def test_cost_scales_linearly_in_batch_size(self):
        rng = np.random.default_rng(1)
        n = 300
        X = rng.uniform(0, 1, (n, 1))
        kern = nk.KernelSpec("matern52", 1.0, (0.1,))
        f = nk.sample_paths(kern, X, 1, 1)[0]
        ds = nk.Dataset(X=X, y=f)
        part = nk.partition_consecutive(X, 30)
        tree = AggregationTree.flat(n, 30)

        def timed(q, repeats=5):
            idx = np.arange(q)
            loo_predict(ds, part, tree, kern, idx)  # warm-up
            t0 = time.perf_counter()
            for _ in range(repeats):
                loo_predict(ds, part, tree, kern, idx)
            return (time.perf_counter() - t0) / repeats

        t_small, t_large = timed(30), timed(240)
        # eight times the work within a factor-2 envelope of linear growth
        assert t_large / t_small < 16.0


class TestCriteria:
    def test_perfect_predictions(self):
        rec = [LooRecord(0, 1.0, 0.5), LooRecord(1, -1.0, 0.5)]
        assert loo_criterion(rec, np.array([1.0, -1.0])) == 0.0

    def test_unit_normalized_errors(self):
        rec = [LooRecord(0, 0.0, 1.0), LooRecord(1, 0.0, 1.0)]
        y = np.array([1.0, -1.0])
        assert loo_criterion(rec, y) == pytest.approx(1.0)
        assert estimate_sigma2(rec, y) == pytest.approx(1.0)

    def test_two_term_hand_case(self):
        rec = [LooRecord(0, 0.0, 1.0), LooRecord(1, 0.0, 1.0)]
        y = np.array([1.0, -1.0])
        assert loo_criterion(rec, y) == 1.0
        assert estimate_sigma2(rec, y) == 1.0

    def test_subset_criterion_unbiased(self):
        rng = np.random.default_rng(2)
        n = 120
        kern = nk.KernelSpec("matern52", 1.0, (0.08,))
        X = rng.uniform(0, 1, (n, 1))
        f = nk.sample_paths(kern, X, 1, 5)[0]
        ds = nk.Dataset(X=X, y=f)
        part = nk.partition_consecutive(X, 12)
        tree = AggregationTree.flat(n, 12)
        records = loo_predict(ds, part, tree, kern)
        per_index = {r.index: (f[r.index] - r.m_loo) ** 2 for r in records}
        full_crit = np.mean(list(per_index.values()))
        q = n // 10
        estimates = []
        for rep in range(200):
            subset = rng.choice(n, size=q, replace=False)
            estimates.append(np.mean([per_index[i] for i in subset]))
        se = np.std(estimates) / np.sqrt(len(estimates))
        assert abs(np.mean(estimates) - full_crit) <= 3.0 * se

    @staticmethod
    def scale_setup():
        rng = np.random.default_rng(3)
        n = 200
        sigma2_true = 2.3
        kern_gen = nk.KernelSpec("matern52", sigma2_true, (0.08,))
        X = rng.uniform(0, 1, (n, 1))
        f = nk.sample_paths(kern_gen, X, 1, 9)[0]
        ds = nk.Dataset(X=X, y=f)
        part = nk.partition_consecutive(X, 20)
        tree = AggregationTree.flat(n, 20)
        records = loo_predict(ds, part, tree,
                              nk.KernelSpec("matern52", 1.0, (0.08,)))
        return records, f, sigma2_true

    def test_sigma2_recovers_scale(self):
        records, f, sigma2_true = self.scale_setup()
        with pytest.warns(RuntimeWarning):
            est = estimate_sigma2(records, f)
        assert 0.5 * sigma2_true <= est <= 2.0 * sigma2_true

    def test_floored_variances_reported(self):
        # near-duplicate design points leave three leave-one-out variances
        # on the floor; the estimate still divides by it, but says so
        records, f, _ = self.scale_setup()
        with pytest.warns(RuntimeWarning) as caught:
            est = estimate_sigma2(records, f)
        assert len(caught) == 1
        assert str(caught[0].message).startswith(
            f"3 leave-one-out variances clamped at {LOO_VARIANCE_FLOOR:g}")
        assert str(caught[0].message).endswith("(indices [94, 171, 198])")
        ratios = [(f[r.index] - r.m_loo) ** 2 / r.v_loo for r in records]
        assert est == float(np.mean(ratios))

    def test_no_warning_without_floored_variances(self):
        records = [LooRecord(0, 0.5, 0.25), LooRecord(1, -1.0, 1.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert estimate_sigma2(records, [1.0, 0.0]) == 1.0


def test_loo_memory_is_chunked():
    # every index at once would hold two n x n arrays and an (n, p, p)
    # window: the peak would grow about four times from n = 1000 to 2000
    peaks = []
    for n in (1000, 2000):
        rng = np.random.default_rng(n)
        X = rng.uniform(0, 1, (n, 2))
        ds = nk.Dataset(X=X, y=np.sin(6.0 * X[:, 0]) + X[:, 1])
        p = int(round(np.sqrt(n)))
        part = nk.partition_random(n, p, seed=0)
        kern = nk.KernelSpec("matern52", 1.0, (0.2, 0.2))
        tracemalloc.start()
        try:
            records = loo_predict(ds, part, AggregationTree.flat(n, p), kern)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(records) == n
        peaks.append(peak)
    assert peaks[1] < 2.5 * peaks[0]


class TestSgd:
    def test_zero_iterations_returns_start(self):
        ds = ex1_dataset()
        cfg = SgdConfig(theta0=(0.17,), q=5, n_iter=0, seed=0)
        res = sgd_fit(ds, EX1_PART, EX1_TREE, cfg,
                      family="squared-exponential")
        np.testing.assert_allclose(res.theta, [0.17])

    def test_reproducible(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(0, 1, (40, 1))
        kern = nk.KernelSpec("matern32", 1.0, (0.1,))
        f = nk.sample_paths(kern, X, 1, 3)[0]
        ds = nk.Dataset(X=X, y=f)
        part = nk.partition_consecutive(X, 8)
        tree = AggregationTree.flat(40, 8)
        cfg = SgdConfig(theta0=(0.2,), a=5.0, alpha=0.2, q=20, n_iter=25, seed=77)
        a = sgd_fit(ds, part, tree, cfg, family="matern32")
        b = sgd_fit(ds, part, tree, cfg, family="matern32")
        np.testing.assert_array_equal(a.theta, b.theta)
        assert a.history == b.history

    def test_descent_improves_full_criterion(self):
        rng = np.random.default_rng(5)
        n = 60
        X = rng.uniform(0, 1, (n, 1))
        kern = nk.KernelSpec("matern52", 1.0, (0.06,))
        f = nk.sample_paths(kern, X, 1, 11)[0]
        ds = nk.Dataset(X=X, y=f)
        part = nk.partition_consecutive(X, 10)
        tree = AggregationTree.flat(n, 10)

        def full_crit(theta):
            spec = nk.KernelSpec("matern52", 1.0, (theta,))
            return loo_criterion(loo_predict(ds, part, tree, spec), f)

        cfg = SgdConfig(theta0=(0.3,), a=30.0, alpha=0.2, q=n, n_iter=60, seed=1)
        res = sgd_fit(ds, part, tree, cfg, family="matern52")
        assert full_crit(float(res.theta[0])) <= full_crit(0.3)

    def test_overflowing_step_rejected(self):
        X = np.linspace(0, 1, 40).reshape(-1, 1)
        ds = nk.Dataset(X=X, y=np.sin(7 * X[:, 0]))
        part = nk.partition_consecutive(X, 4)
        tree = AggregationTree.flat(40, 4)
        cfg = SgdConfig(a=1e8, c=0.3, alpha=0.2, q=20, n_iter=5, seed=0)
        res = sgd_fit(ds, part, tree, cfg, family="matern52")
        assert np.all(np.isfinite(res.theta)) and np.all(res.theta > 0.0)
        assert any(np.isnan(crit) for _, crit, _ in res.history)

    def test_two_phase_runs(self):
        ds = ex1_dataset()
        cfg = SgdConfig(theta0=(0.2,), q=5, n_iter=6, seed=0)
        res = sgd_fit_two_phase(ds, EX1_PART, EX1_TREE, cfg,
                                family="squared-exponential")
        assert len(res.history) == 6
        assert res.theta[0] > 0.0

    def test_two_phase_is_two_explicit_descents(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(0, 1, (40, 1))
        f = nk.sample_paths(nk.KernelSpec("matern32", 1.0, (0.1,)), X, 1, 3)[0]
        ds = nk.Dataset(X=X, y=f)
        part = nk.partition_consecutive(X, 8)
        tree = AggregationTree.flat(40, 8)
        cfg = SgdConfig(theta0=(0.2,), a=5.0, q=20, n_iter=9, seed=77)
        res = sgd_fit_two_phase(ds, part, tree, cfg, family="matern32")
        # both phases step with the A of the whole descent, n_iter / 10
        first = SgdConfig(theta0=(0.2,), a=5.0, A=0.9, alpha=0.2, q=20,
                          n_iter=4, seed=77)
        res1 = sgd_fit(ds, part, tree, first, family="matern32")
        second = SgdConfig(theta0=tuple(res1.theta), a=5.0, A=0.9,
                           alpha=0.602, q=20, n_iter=5, seed=78)
        res2 = sgd_fit(ds, part, tree, second, family="matern32")
        assert not any(np.isnan(crit) for _, crit, _ in res.history)
        np.testing.assert_array_equal(res.theta, res2.theta)
        assert res.history == res1.history + res2.history

    def test_progress_lines_logged(self):
        ds = ex1_dataset()
        lines = []
        cfg = SgdConfig(theta0=(0.2,), q=5, n_iter=3, seed=0)
        sgd_fit(ds, EX1_PART, EX1_TREE, cfg, family="squared-exponential",
                log_fn=lines.append)
        assert len(lines) == 3
        assert all("criterion=" in line and "theta=" in line for line in lines)


def test_grid_profile_loglik_start():
    rng = np.random.default_rng(6)
    n = 80
    kern = nk.KernelSpec("matern52", 1.5, (0.1,))
    X = rng.uniform(0, 1, (n, 1))
    f = nk.sample_paths(kern, X, 1, 13)[0]
    ds = nk.Dataset(X=X, y=f)
    part = nk.partition_consecutive(X, 8)
    spec = grid_profile_loglik(ds, part, "matern52",
                               [0.01, 0.03, 0.1, 0.3, 1.0])
    assert 0.03 <= spec.lengthscales[0] <= 0.3
    assert 0.3 <= spec.variance <= 7.0
