
import tracemalloc
from functools import partial

import numpy as np
import pytest
from conftest import random_instance, random_kernel, separated_points
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (materialised_layer1, materialised_layers,
                       nested_predict, reference_fill_expert_cross_cov,
                       reference_layers, submodel_predict)

import nestedkrig as nk
import nestedkrig.tree as tree_module
from nestedkrig import baselines, cli, estimation, gpcore, kernels
from nestedkrig.aggregation import aggregate
from nestedkrig.estimation import LOO_VARIANCE_FLOOR, loo_predict
from nestedkrig.exceptions import InvalidHeight, InvalidTree
from nestedkrig.gpcore import FullModel, SubModelBank
from nestedkrig.linalg import solve_weights
from nestedkrig.tree import (PREDICT_CHUNK, QUERY_BLOCK_ENTRIES, AggregationTree,
                             complexity_estimate, map_chunks,
                             nested_predict_batch, plan_tree, stream_layers)

EX1_KERNEL = nk.KernelSpec("squared-exponential", 1.0, (0.2,))
EX1_X = np.array([[0.1], [0.3], [0.5], [0.7], [0.9]])
EX1_F = np.sin(2 * np.pi * EX1_X[:, 0]) + EX1_X[:, 0]
EX1_PART = nk.Partition(labels=np.array([0, 0, 0, 1, 1]), p=2)


class TestTreeValidation:
    def test_flat(self):
        tree = AggregationTree.flat(10, 4)
        assert tree.height == 2
        assert tree.layer_sizes == [4, 1]

    def test_root_must_be_single(self):
        with pytest.raises(InvalidTree):
            AggregationTree(n_leaves=6, n_layer1=4, levels=(((0, 1), (2, 3)),))

    def test_coverage_required(self):
        with pytest.raises(InvalidTree):
            AggregationTree(n_leaves=6, n_layer1=3, levels=(((0, 1),),))

    def test_index_range(self):
        with pytest.raises(InvalidTree):
            AggregationTree(n_leaves=6, n_layer1=3, levels=(((0, 1, 5),),))

    def test_childless_node(self):
        with pytest.raises(InvalidTree):
            AggregationTree(n_leaves=6, n_layer1=2,
                            levels=(((0, 1), ()), ((0, 1),)))

    def test_overlapping_children_allowed(self):
        tree = AggregationTree(n_leaves=8, n_layer1=3,
                               levels=(((0, 1), (1, 2)), ((0, 1),)))
        assert tree.height == 3

    def test_leaf_sizes_balanced(self):
        tree = AggregationTree.flat(11, 4)
        np.testing.assert_array_equal(tree.leaf_sizes(), [3, 3, 3, 2])


class TestNestedPredict:
    def test_trivial_tree_equals_pointwise(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            kern, X, f, part = random_instance(rng)
            bank = SubModelBank(kern, X, f, part)
            tree = AggregationTree.flat(X.shape[0], part.p)
            x = rng.uniform(0, 1, X.shape[1])
            res = aggregate(kern.variance, *submodel_predict(bank, x))
            m, v = nested_predict(bank, tree, x)
            assert m == pytest.approx(res.mean, abs=1e-12)
            assert v == pytest.approx(res.variance, abs=1e-12)

    def test_two_groups_on_example(self):
        bank = SubModelBank(EX1_KERNEL, EX1_X, EX1_F, EX1_PART)
        tree = AggregationTree.flat(5, 2)
        res = aggregate(1.0, *submodel_predict(bank, [0.6]))
        m, v = nested_predict(bank, tree, [0.6])
        assert m == pytest.approx(res.mean, abs=1e-10)
        assert v == pytest.approx(res.variance, abs=1e-10)

    def test_three_layer_differs_but_interpolates(self):
        rng = np.random.default_rng(1)
        kern, X, f, _ = random_instance(rng, d=1, n=8)
        part = nk.Partition(labels=np.arange(8), p=8)
        bank = SubModelBank(kern, X, f, part)
        flat = AggregationTree.flat(8, 8)
        deep = AggregationTree(
            n_leaves=8, n_layer1=8,
            levels=(((0, 1), (2, 3), (4, 5), (6, 7)), ((0, 1, 2, 3),)))
        x = rng.uniform(0, 1, 1)
        m_flat, _ = nested_predict(bank, flat, x)
        m_deep, _ = nested_predict(bank, deep, x)
        assert abs(m_flat - m_deep) > 1e-12  # nesting is not exact
        for i in range(8):
            for tree in (flat, deep):
                m, v = nested_predict(bank, tree, X[i])
                assert m == pytest.approx(f[i], abs=1e-6)
                assert v <= 1e-6 * kern.variance

    def test_interpolation_random_trees(self):
        rng = np.random.default_rng(2)
        for _ in range(8):
            kern, X, f, part = random_instance(rng, p=int(rng.integers(4, 7)))
            bank = SubModelBank(kern, X, f, part)
            mid = [tuple(range(i, min(i + 2, part.p)))
                   for i in range(0, part.p, 2)]
            tree = AggregationTree(n_leaves=X.shape[0], n_layer1=part.p,
                                   levels=(tuple(mid),
                                           (tuple(range(len(mid))),)))
            m, v = nested_predict_batch(bank, tree, X)
            np.testing.assert_allclose(m, f, atol=1e-6 * np.sqrt(kern.variance))
            assert np.all(v <= 1e-6 * kern.variance)

    def test_variance_sandwich(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            kern, X, f, part = random_instance(rng)
            bank = SubModelBank(kern, X, f, part)
            full = FullModel(kern, X, f)
            tree = AggregationTree.flat(X.shape[0], part.p)
            Xq = rng.uniform(0, 1, (40, X.shape[1]))
            _, v_full = full.predict(Xq)
            _, v_nested = nested_predict_batch(bank, tree, Xq)
            assert np.all(v_nested >= v_full - 1e-8)
            assert np.all(v_nested <= kern.variance + 1e-12)

    def test_variance_sandwich_ill_conditioned_groups(self):
        # dense uniform design: some groups are nearly singular, where
        # weights built from the explicit inverse of K_g break the sandwich
        rng = np.random.default_rng(5)
        n = 200
        kern = nk.KernelSpec("matern52", 1.0, (0.05,))
        X = rng.uniform(0, 1, (n, 1))
        f = nk.sample_paths(kern, X, 1, 0)[0]
        bank = SubModelBank(kern, X, f, nk.partition_consecutive(X, 20))
        Xq = np.vstack([X + 1e-4, rng.uniform(0, 1, (300, 1))])
        _, v_full = FullModel(kern, X, f).predict(Xq)
        _, v_nested = nested_predict_batch(
            bank, AggregationTree.flat(n, 20), Xq)
        assert np.min(v_nested - v_full) >= -1e-6

    def test_distinct_layer1_covariances_honored(self):
        # experts whose covariance with the process differs from their own
        # variance (noisy regression experts): the first aggregation must
        # use the provided vector, not the diagonal of the expert covariance
        M1 = np.array([[0.8, -0.2]])
        k1 = np.array([[0.6, 0.5]])
        K1 = np.array([[[0.9, 0.1], [0.1, 0.7]]])
        flat = AggregationTree.flat(4, 2)
        m_flat, c_flat = materialised_layers(M1, k1, K1, flat)
        alpha = np.linalg.solve(K1[0], k1[0])
        assert m_flat[0] == pytest.approx(alpha @ M1[0], rel=1e-12)
        assert c_flat[0] == pytest.approx(alpha @ k1[0], rel=1e-12)
        wrong = np.linalg.solve(K1[0], np.diag(K1[0])) @ M1[0]
        assert abs(m_flat[0] - wrong) > 1e-3

        # above the first aggregation the propagated diagonal takes over;
        # a chain of singleton middle nodes rescales every expert by
        # k1/diag(K1) yet provably collapses back to the flat result
        chain = AggregationTree(n_leaves=4, n_layer1=2,
                                levels=(((0,), (1,)), ((0, 1),)))
        m_chain, c_chain = materialised_layers(M1, k1, K1, chain)
        assert m_chain[0] == pytest.approx(m_flat[0], rel=1e-12)
        assert c_chain[0] == pytest.approx(c_flat[0], rel=1e-12)
        b = k1[0] / np.diag(K1[0])
        M2 = b * M1[0]
        K2 = np.outer(b, b) * K1[0]
        np.fill_diagonal(K2, b * k1[0])
        alpha2 = np.linalg.solve(K2, np.diag(K2))
        assert m_chain[0] == pytest.approx(alpha2 @ M2, rel=1e-10)

    def test_wrong_expert_count_rejected(self):
        bank = SubModelBank(EX1_KERNEL, EX1_X, EX1_F, EX1_PART)
        tree = AggregationTree.flat(5, 3)
        with pytest.raises(InvalidTree):
            nested_predict(bank, tree, [0.5])

    def test_singular_query_leaves_chunk_mates_unchanged(self):
        # X[0] is repeated in groups 0 and 1, so K_M at that point is
        # singular; moving query 0 onto it must not change the other 511
        rng = np.random.default_rng(8)
        X = rng.uniform(0, 1, (400, 2))
        X[399] = X[0]
        labels = np.arange(400) // 20
        labels[20], labels[399] = 19, 1
        f = np.sin(5.0 * X[:, 0]) + np.cos(3.0 * X[:, 1])
        bank = SubModelBank(nk.KernelSpec("matern52", 1.0, (0.3, 0.3)), X, f,
                            nk.Partition(labels=labels, p=20))
        tree = AggregationTree.flat(400, 20)
        Xq = rng.uniform(0, 1, (512, 2))
        means, variances = nested_predict_batch(bank, tree, Xq)
        Xq[0] = X[0]
        means0, variances0 = nested_predict_batch(bank, tree, Xq)
        assert np.array_equal(means0[1:], means[1:])
        assert np.array_equal(variances0[1:], variances[1:])
        assert means0[0] == pytest.approx(f[0], abs=1e-10)


def assert_stream_matches_materialised(bank, tree, Xq):
    """Streamed prediction is bit-equal to the layers on materialised statistics."""
    means, variances = nested_predict_batch(bank, tree, Xq)
    root_mean, root_cov = materialised_layers(*materialised_layer1(bank, Xq), tree)
    assert np.array_equal(means, root_mean)
    assert np.array_equal(variances,
                          np.maximum(bank.kernel.variance - root_cov, 0.0))


class TestStreamedFirstLayer:
    def test_planned_trees_on_kmeans_partitions(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(0, 1, (700, 2))
        f = np.sin(6.0 * X[:, 0]) + np.cos(4.0 * X[:, 1])
        kern = nk.KernelSpec("matern52", 1.7, (0.3, 0.2))
        Xq = rng.uniform(0, 1, (90, 2))
        plans = [plan_tree(700, "two_layer_sqrt"),
                 plan_tree(700, "equilibrated", height=3),
                 plan_tree(700, "equilibrated", height=4),
                 plan_tree(700, "optimal", height=3)]
        for plan in plans:
            part = nk.partition_kmeans(X, plan.p, seed=3)
            sizes = np.bincount(part.labels)
            assert sizes.min() < sizes.max()
            bank = SubModelBank(kern, X, f, part)
            trees = [plan.tree]
            if plan.tree.height == 2:
                trees.append(AggregationTree.flat(700, plan.p))
            for tree in trees:
                assert_stream_matches_materialised(bank, tree, Xq)

    def test_random_two_child_trees(self):
        rng = np.random.default_rng(2)
        for _ in range(8):
            kern, X, f, part = random_instance(rng, p=int(rng.integers(4, 7)))
            bank = SubModelBank(kern, X, f, part)
            mid = [tuple(range(i, min(i + 2, part.p)))
                   for i in range(0, part.p, 2)]
            tree = AggregationTree(n_leaves=X.shape[0], n_layer1=part.p,
                                   levels=(tuple(mid),
                                           (tuple(range(len(mid))),)))
            Xq = np.vstack([X, rng.uniform(0, 1, (20, X.shape[1]))])
            assert_stream_matches_materialised(bank, tree, Xq)

    def test_overlapping_and_out_of_order_children(self):
        rng = np.random.default_rng(6)
        kern, X, f, _ = random_instance(rng, d=1, n=8)
        bank3 = SubModelBank(kern, X, f, nk.partition_consecutive(X, 3))
        overlapping = AggregationTree(n_leaves=8, n_layer1=3,
                                      levels=(((0, 1), (1, 2)), ((0, 1),)))
        bank4 = SubModelBank(kern, X, f, nk.partition_consecutive(X, 4))
        # node 1 finishes before node 0, so their cross term is formed
        # when node 0 completes
        interleaved = AggregationTree(n_leaves=8, n_layer1=4,
                                      levels=(((0, 3), (1, 2)), ((0, 1),)))
        Xq = np.vstack([X, rng.uniform(0, 1, (30, 1))])
        assert_stream_matches_materialised(bank3, overlapping, Xq)
        assert_stream_matches_materialised(bank4, interleaved, Xq)

    def test_window_of_planned_tree_is_one_band(self):
        # the first layer's rows reach the fill through a flat buffer: on a
        # planned height-3 tree a ring of w rows of p reals, w the widest
        # first-layer node, and on a flat tree the packed lower triangle
        rng = np.random.default_rng(7)
        X = np.sort(rng.uniform(0, 1, 300)).reshape(-1, 1)
        plan = plan_tree(300, "equilibrated", height=3)
        p = plan.p
        bank = SubModelBank(nk.KernelSpec("matern32", 1.0, (0.1,)), X,
                            np.sin(9.0 * X[:, 0]),
                            nk.partition_consecutive(X, p))
        windows = []
        fill = bank.cross_cov_rows

        def spy(AT, kM, out, offsets, row_done=None):
            windows.append((out.shape, offsets.tolist()))
            return fill(AT, kM, out, offsets, row_done)

        bank.cross_cov_rows = spy
        stream_layers(bank, plan.tree, X[:5])
        stream_layers(bank, AggregationTree.flat(300, p), X[:5])
        w = max(len(node) for node in plan.tree.levels[0])
        g = np.arange(p)
        assert windows == [((5, w * p), ((g % w) * p).tolist()),
                           ((5, p * (p + 1) // 2), (g * (g + 1) // 2).tolist())]

    def test_callbacks_only_on_rows_where_nodes_finish(self):
        rng = np.random.default_rng(9)
        X = np.sort(rng.uniform(0, 1, 300)).reshape(-1, 1)
        plan = plan_tree(300, "equilibrated", height=3)
        flat = AggregationTree.flat(300, plan.p)
        bank = SubModelBank(nk.KernelSpec("matern32", 1.0, (0.1,)), X,
                            np.sin(9.0 * X[:, 0]),
                            nk.partition_consecutive(X, plan.p))
        rows = []
        fill = bank.cross_cov_rows

        def spy(AT, kM, out, offsets, row_done=None):
            rows.append(sorted(row_done))
            return fill(AT, kM, out, offsets, row_done)

        bank.cross_cov_rows = spy
        for tree in (plan.tree, flat, plan.tree):
            nested_predict_batch(bank, tree, X[:5])
        last_children = sorted({max(node) for node in plan.tree.levels[0]})
        assert rows == [last_children, [plan.p - 1], last_children]
        assert plan.tree.first_layer_schedule is plan.tree.first_layer_schedule

    def test_flat_chunk_holds_packed_triangle(self):
        # a flat root reads every expert, so a chunk holds the packed lower
        # triangle of K, q p(p+1)/2 reals, beside at most two n x q arrays
        # (the query-major weights and the fill's product W) and the fill's
        # c x n kernel block; the margin is M and k (2 p q), the fill's
        # gathered weights (c q) and the kernel's tile scratch pair
        rng = np.random.default_rng(4)
        n, p, q = 2500, 50, 512
        X = np.sort(rng.uniform(0, 1, n)).reshape(-1, 1)
        bank = SubModelBank(nk.KernelSpec("matern52", 1.0, (0.05,)), X,
                            np.sin(9.0 * X[:, 0]), nk.partition_consecutive(X, p))
        flat = AggregationTree.flat(n, p)
        Xq = rng.uniform(0, 1, (q, 1))
        nested_predict_batch(bank, flat, Xq)
        tracemalloc.start()
        nested_predict_batch(bank, flat, Xq)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        c_max = max(len(g) for g in bank.groups)
        margin = (2 * p * q + c_max * q + 2 * kernels.TILE_ENTRIES) * 8
        bound = (2 * n * q + q * p * (p + 1) // 2 + c_max * n) * 8 + margin
        assert peak < bound, f"peak {peak} bytes, bound {bound}"


def assert_layers_equal_dense(bank, tree, Xq):
    """The layers on materialised statistics and stream_layers give the
    dense reference's bits."""
    M, k, K = materialised_layer1(bank, Xq)
    mean, root_cov = reference_layers(M, k, K, tree)
    got = materialised_layers(M, k, K, tree)
    assert np.array_equal(got[0], mean) and np.array_equal(got[1], root_cov)
    s = stream_layers(bank, tree, Xq)
    assert np.array_equal(s.mean, mean)
    assert np.array_equal(s.var, np.maximum(bank.kernel.variance - root_cov, 0.0))


class TestUpperLayers:
    @pytest.mark.parametrize("mode, height", [("equilibrated", 3),
                                              ("equilibrated", 4),
                                              ("optimal", 3), ("optimal", 4)])
    def test_planned_trees_equal_dense_layers(self, mode, height):
        rng = np.random.default_rng(12)
        X = rng.uniform(0, 1, (700, 2))
        f = np.sin(6.0 * X[:, 0]) + np.cos(4.0 * X[:, 1])
        plan = plan_tree(700, mode, height)
        bank = SubModelBank(nk.KernelSpec("matern52", 1.7, (0.3, 0.2)), X, f,
                            nk.partition_kmeans(X, plan.p, seed=3))
        assert_layers_equal_dense(bank, plan.tree, rng.uniform(0, 1, (40, 2)))

    def test_overlapping_out_of_order_children_equal_dense_layers(self):
        rng = np.random.default_rng(13)
        kern, X, f, _ = random_instance(rng, d=1, n=12)
        bank = SubModelBank(kern, X, f, nk.partition_consecutive(X, 5))
        # overlapping child sets on layers 2 and 3, given out of order
        tree = AggregationTree(n_leaves=12, n_layer1=5, levels=(
            ((3, 0), (1, 2, 4), (4, 3)), ((2, 0), (1, 2)), ((1, 0),)))
        assert_layers_equal_dense(bank, tree, np.vstack(
            [X, rng.uniform(0, 1, (20, 1))]))

    def test_upper_layer_holds_packed_triangle(self):
        # a layer of n nodes writes its cross-covariances packed, q n(n+1)/2
        # reals; the margin holds the root's gathered query block and the
        # work arrays of its weight solve, four blocks of QUERY_BLOCK_ENTRIES
        q, p, n = 64, 400, 200
        z = np.sort(np.random.default_rng(3).uniform(0, 1, p))
        C = np.exp(-np.abs(z[:, None] - z[None, :]) / 0.1)
        K1 = np.ascontiguousarray(np.broadcast_to(C, (q, p, p)))
        k1 = np.tile(0.9 * np.diag(C), (q, 1))
        M1 = np.random.default_rng(4).standard_normal((q, p))
        tree = AggregationTree(n_leaves=p, n_layer1=p, levels=(
            tuple((2 * i, 2 * i + 1) for i in range(n)), (tuple(range(n)),)))
        materialised_layers(M1, k1, K1, tree)
        tracemalloc.start()
        materialised_layers(M1, k1, K1, tree)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        bound = (q * n * (n + 1) // 2 + 4 * QUERY_BLOCK_ENTRIES) * 8
        assert peak < bound, f"peak {peak} bytes, bound {bound}"


@st.composite
def wide_flat_cases(draw):
    """A flat tree of 48 to 64 experts of 6 to 8 points on average, and queries.

    The root of a full chunk, and of a leave-one-out pass over every
    deletable point, spans at least three query blocks.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 2))
    p = draw(st.integers(48, 64))
    n = draw(st.integers(6 * p, 8 * p))
    labels = rng.permutation(np.concatenate(
        [np.arange(p), rng.integers(0, p, n - p)]))
    X = rng.uniform(0, 1, (n, d))
    y = np.sin(4.0 * X.sum(axis=1))
    Xq = rng.uniform(0, 1, (PREDICT_CHUNK + 88, d))
    Xq[:64] = X[rng.integers(0, n, 64)]
    return random_kernel(rng, d), X, y, nk.Partition(labels=labels, p=p), Xq


class TestRootQueryBlocks:
    @settings(max_examples=8, deadline=None)
    @given(case=wide_flat_cases())
    def test_blocked_root_equals_one_solve_on_full_k(self, case):
        # the root solve in query blocks gives the bits of one solve_weights
        # call and row sums on the whole symmetric K of the reference fill
        kern, X, y, part, Xq = case
        n, p = X.shape[0], part.p
        tree = AggregationTree.flat(n, p)
        bank = SubModelBank(kern, X, y, part)
        step = max(1, QUERY_BLOCK_ENTRIES // p ** 2)

        def direct(Xb, deleted=None):
            M, k, AT = bank.layer1(Xb, deleted)
            K = np.empty(k.shape + (p,))
            reference_fill_expert_cross_cov(kern, bank._Xc, bank._starts,
                                            np.ascontiguousarray(AT.T), K, k)
            a, _ = solve_weights(K, k)
            return np.sum(a * M, axis=1), np.sum(a * k, axis=1)

        assert PREDICT_CHUNK > 2 * step
        want = [direct(Xq[lo:lo + PREDICT_CHUNK])
                for lo in range(0, Xq.shape[0], PREDICT_CHUNK)]
        mean = np.concatenate([m for m, _ in want])
        var = np.maximum(
            kern.variance - np.concatenate([c for _, c in want]), 0.0)
        for threads in (1, 2):
            got = map_chunks(partial(nested_predict_batch, bank, tree), Xq,
                             threads)
            assert np.array_equal(got[0], mean)
            assert np.array_equal(got[1], var)

        sizes = np.bincount(part.labels, minlength=p)
        indices = np.flatnonzero(sizes[part.labels] > 1)[:PREDICT_CHUNK]
        assert indices.size > 2 * step
        records = loo_predict(nk.Dataset(X=X, y=y), part, tree, kern, indices)
        m, root_cov = direct(X[indices], indices)
        v = np.maximum((kern.variance - root_cov) / kern.variance,
                       LOO_VARIANCE_FLOOR)
        assert [r.index for r in records] == indices.tolist()
        assert np.array_equal([r.m_loo for r in records], m)
        assert np.array_equal([r.v_loo for r in records], v)


class TestVarianceClamp:
    def test_root_cov_at_or_above_prior_variance_clamps_once(self, monkeypatch):
        # root covariances at or above sigma^2 give a variance of exactly
        # 0.0 to prediction and LOO_VARIANCE_FLOOR to leave-one-out, and
        # every other query keeps its bits
        X = np.linspace(0.0, 1.0, 60).reshape(-1, 1)
        y = np.sin(7.0 * X[:, 0])
        kern = nk.KernelSpec("matern52", 1.7, (0.15,))
        part = nk.partition_consecutive(X, 6)
        tree = AggregationTree.flat(60, 6)
        bank = SubModelBank(kern, X, y, part)
        Xq = np.linspace(0.01, 0.99, 9).reshape(-1, 1)
        ds, indices = nk.Dataset(X=X, y=y), np.arange(0, 60, 7)
        means, variances = nested_predict_batch(bank, tree, Xq)
        records = loo_predict(ds, part, tree, kern, indices)
        above = [0, 3, 5]
        real_run_layers = tree_module.run_layers

        def run_layers(layer, levels):
            mean, root_cov, alphas = real_run_layers(layer, levels)
            root_cov[above] = kern.variance * np.array([1.0, 1.5, 1.0 + 1e-15])
            return mean, root_cov, alphas

        monkeypatch.setattr(tree_module, "run_layers", run_layers)
        means2, variances2 = nested_predict_batch(bank, tree, Xq)
        records2 = loo_predict(ds, part, tree, kern, indices)
        rest = np.setdiff1d(np.arange(Xq.shape[0]), above)
        assert np.array_equal(means2, means)
        assert variances2[above].tolist() == [0.0] * 3
        assert not np.signbit(variances2[above]).any()
        assert np.array_equal(variances2[rest], variances[rest])
        assert variances[above].min() > 0.0
        assert [r.m_loo for r in records2] == [r.m_loo for r in records]
        v, v2 = ([r.v_loo for r in recs] for recs in (records, records2))
        assert [v2[i] for i in above] == [LOO_VARIANCE_FLOOR] * 3
        assert [v2[i] for i in rest] == [v[i] for i in rest]
        assert min(v[i] for i in above) > LOO_VARIANCE_FLOOR


class TestQueryLoop:
    @pytest.mark.parametrize("q", [1, PREDICT_CHUNK, 2 * PREDICT_CHUNK + 77])
    def test_bounds_and_output_at_one_and_two_threads(self, q):
        rng = np.random.default_rng(q)
        X = rng.uniform(0, 1, (40, 1))
        bank = SubModelBank(nk.KernelSpec("matern52", 1.0, (0.2,)), X,
                            np.sin(6.0 * X[:, 0]), nk.partition_consecutive(X, 4))
        tree = AggregationTree.flat(40, 4)
        Xq = rng.uniform(0, 1, (q, 1))
        want = [(lo, min(lo + PREDICT_CHUNK, q))
                for lo in range(0, q, PREDICT_CHUNK)]
        direct = [np.concatenate(parts) for parts in zip(
            *(nested_predict_batch(bank, tree, Xq[lo:hi]) for lo, hi in want))]
        for threads in (1, 2):
            seen = []

            def evaluate(idx):
                seen.append((int(idx[0]), int(idx[-1]) + 1))
                return nested_predict_batch(bank, tree, Xq[idx])

            means, variances = map_chunks(evaluate, np.arange(q), threads)
            assert sorted(seen) == want
            assert np.array_equal(means, direct[0])
            assert np.array_equal(variances, direct[1])

    def test_predict_and_loo_share_the_chunk_size(self, tmp_path, monkeypatch):
        # one patch of tree.PREDICT_CHUNK reaches both multi-point passes
        monkeypatch.setattr(tree_module, "PREDICT_CHUNK", 7)
        X = np.linspace(0.0, 1.0, 24).reshape(-1, 1)
        y = np.sin(6.0 * X[:, 0])
        train, query = tmp_path / "train.csv", tmp_path / "q.csv"
        train.write_text("x,y\n" + "".join(f"{a!r},{b!r}\n"
                                           for a, b in zip(X[:, 0].tolist(),
                                                           y.tolist())))
        query.write_text("x\n" + "".join(f"{i / 19.0!r}\n" for i in range(20)))
        bundle = tmp_path / "model.json"
        assert cli.main(["fit", "--train", str(train), "--out", str(bundle)]) == 0

        batches = []
        real_batch = cli.nested_predict_batch

        def batch(bank, tree, Xq):
            batches.append(Xq.shape[0])
            return real_batch(bank, tree, Xq)

        monkeypatch.setattr(cli, "nested_predict_batch", batch)
        config = tmp_path / "run.cfg"
        config.write_text("[run]\nthreads = 1\n")
        assert cli.main(["predict", "--config", str(config), "--bundle",
                         str(bundle), "--query", str(query), "--out",
                         str(tmp_path / "p.csv")]) == 0
        assert batches == [7, 7, 6]

        deleted = []
        real_stream = estimation.stream_layers

        def stream(bank, tree, Xq, gone):
            deleted.append(gone.tolist())
            return real_stream(bank, tree, Xq, gone)

        monkeypatch.setattr(estimation, "stream_layers", stream)
        indices = np.arange(3, 23)
        records = estimation.loo_predict(
            nk.Dataset(X=X, y=y), nk.partition_consecutive(X, 3),
            AggregationTree.flat(24, 3), nk.KernelSpec("matern52", 1.0, (0.2,)),
            indices)
        assert [r.index for r in records] == indices.tolist()
        assert deleted == [indices[lo:lo + 7].tolist() for lo in (0, 7, 14)]


@st.composite
def chunking_cases(draw):
    """A random design on a k-means or consecutive partition, a flat or
    planned tree over it, and query and deletion counts that are not
    multiples of ``gpcore.QUERY_TILE``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 2))
    n = draw(st.integers(70, 110))
    X = rng.uniform(0, 1, (n, d))
    y = np.sin(4.0 * X.sum(axis=1))
    mode = draw(st.sampled_from(("flat",) + tree_module.PLAN_MODES))
    if mode == "flat":
        p = draw(st.integers(2, 12))
        tree = AggregationTree.flat(n, p)
    else:
        plan = plan_tree(n, mode, draw(st.integers(2, 3)))
        p, tree = plan.p, plan.tree
    if draw(st.booleans()):
        part = nk.partition_kmeans(X, p, seed=int(rng.integers(100)))
    else:
        part = nk.partition_consecutive(X, p)
    tile = gpcore.QUERY_TILE
    counts = st.integers(tile + 1, 3 * tile).filter(lambda k: k % tile)
    Xq = rng.uniform(0, 1, (draw(counts), d))
    Xq[:10] = X[:10]
    sizes = np.bincount(part.labels, minlength=p)
    indices = rng.choice(np.flatnonzero(sizes[part.labels] > 1), draw(counts))
    method = draw(st.sampled_from(baselines.METHODS))
    return random_kernel(rng, d), X, y, part, tree, Xq, indices, method


class TestChunkingContract:
    def test_chunk_is_a_multiple_of_the_query_tile(self):
        assert PREDICT_CHUNK % gpcore.QUERY_TILE == 0

    @settings(max_examples=12, deadline=None)
    @given(case=chunking_cases())
    def test_output_bits_do_not_depend_on_the_chunk_size(self, case):
        # chunks that are multiples of the query tile hold whole tiles, so
        # every query path gives the bits of one call on all the queries
        kern, X, y, part, tree, Xq, indices, method = case
        bank = SubModelBank(kern, X, y, part)
        full = FullModel(kern, X, y)

        def baseline(chunk):
            M, k, _ = bank.layer1(chunk, with_weights=False)
            return baselines.evaluate(method, M, baselines.expert_variances(
                kern.variance, k), kern.variance)

        def outputs():
            records = loo_predict(nk.Dataset(X=X, y=y), part, tree, kern,
                                  indices)
            return [*map_chunks(partial(nested_predict_batch, bank, tree), Xq),
                    *map_chunks(baseline, Xq), *map_chunks(full.predict, Xq),
                    np.array([r.m_loo for r in records]),
                    np.array([r.v_loo for r in records])]

        seen = []
        for chunk in (4 * gpcore.QUERY_TILE, 2 * gpcore.QUERY_TILE,
                      gpcore.QUERY_TILE):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(tree_module, "PREDICT_CHUNK", chunk)
                seen.append(outputs())
        for other in seen[1:]:
            for got, want in zip(other, seen[0]):
                assert np.array_equal(got, want)


class TestPlanTree:
    def test_optimal_two_layer_1024(self):
        plan = plan_tree(1024, "optimal", height=2)
        assert plan.child_counts == (17, 59)
        assert plan.p == int(np.ceil(1024 / 17))
        assert plan.tree.height == 2

    def test_sqrt_100(self):
        plan = plan_tree(100, "two_layer_sqrt")
        assert plan.child_counts == (10, 10)
        assert plan.p == 10
        assert plan.tree.layer_sizes == [10, 1]

    def test_equilibrated_1000_h3(self):
        plan = plan_tree(1000, "equilibrated", height=3)
        assert plan.child_counts == (10, 10, 10)
        assert plan.tree.layer_sizes == [100, 10, 1]

    def test_invalid_height(self):
        with pytest.raises(InvalidHeight):
            plan_tree(100, "equilibrated", height=1)

    def test_trees_always_valid(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(16, 5000))
            mode = ("two_layer_sqrt", "equilibrated", "optimal")[int(rng.integers(3))]
            h = int(rng.integers(2, 5))
            plan = plan_tree(n, mode, height=h)
            assert plan.tree.n_leaves == n  # construction validated eagerly


class TestComplexity:
    def test_two_layer_sqrt_1e4(self):
        plan = plan_tree(10 ** 4, "two_layer_sqrt")
        c_alpha, c_beta, storage = complexity_estimate(plan.tree, 1.0, 1.0)
        assert c_alpha == pytest.approx(1.01e8, rel=1e-3)
        assert c_beta == pytest.approx(0.5 * 100 * 99 * 100 ** 2, rel=1e-12)
        assert storage == pytest.approx(0.5 * (100 * 105 + 100 * 105 + 1 * 4),
                                        rel=1e-12)

    def test_single_root_no_cross_cost(self):
        tree = AggregationTree.flat(12, 1)
        _, c_beta, _ = complexity_estimate(tree, 1.0, 1.0)
        # a single expert and a single root node never pay the pair cost
        assert c_beta == 0.0

    def test_optimal_cost_constant(self):
        # for the minimal-cost two-layer tree the weight-solve cost over
        # alpha * n**(9/5) approaches (2/3)**(-2/5) + (2/3)**(3/5) ~ 1.96
        n = 10 ** 6
        plan = plan_tree(n, "optimal", height=2)
        c_alpha, _, _ = complexity_estimate(plan.tree, 1.0, 1.0)
        assert c_alpha / n ** 1.8 == pytest.approx(1.9601317042077893, rel=0.02)

    def test_optimal_beats_sqrt(self):
        for n in (256, 1024, 4096):
            opt = plan_tree(n, "optimal", height=2)
            sqr = plan_tree(n, "two_layer_sqrt")
            a_opt, _, _ = complexity_estimate(opt.tree, 1.0, 1.0)
            a_sqr, _, _ = complexity_estimate(sqr.tree, 1.0, 1.0)
            assert a_opt <= a_sqr


@st.composite
def planned_instances(draw):
    """A separated design with GP-path responses, a k-means or random
    partition sized by a planned tree, that tree, and query points."""
    d = draw(st.integers(1, 2))
    n = draw(st.integers(12, 30))
    mode = draw(st.sampled_from(("two_layer_sqrt", "equilibrated", "optimal")))
    plan = plan_tree(n, mode, height=draw(st.integers(2, 3)))
    kmeans = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kern = random_kernel(rng, d)
    X = separated_points(rng, n, d, 0.02 if d == 1 else 0.08)
    f = nk.sample_paths(kern, X, 1, int(rng.integers(2 ** 31)))[0]
    seed = int(rng.integers(2 ** 31))
    part = (nk.partition_kmeans(X, plan.p, seed) if kmeans
            else nk.partition_random(n, plan.p, seed))
    return kern, X, f, part, plan.tree, rng.uniform(0.0, 1.0, (20, d))


class TestPaperInvariants:
    @settings(max_examples=60, deadline=None)
    @given(planned_instances())
    def test_interpolation_at_design_points(self, instance):
        kern, X, f, part, tree, _ = instance
        m, v = nested_predict_batch(SubModelBank(kern, X, f, part), tree, X)
        tol = 1e-6 * kern.variance
        assert np.abs(m - f).max() <= tol
        assert v.max() <= tol

    @settings(max_examples=60, deadline=None)
    @given(planned_instances())
    def test_variance_sandwich(self, instance):
        # 0 <= v_nested - v_full <= v_best - v_full, where v_best is the
        # smallest prediction variance k(x, x) - k_g(x) of one expert
        kern, X, f, part, tree, Xq = instance
        bank = SubModelBank(kern, X, f, part)
        _, v_full = FullModel(kern, X, f).predict(Xq)
        _, v_nested = nested_predict_batch(bank, tree, Xq)
        _, k, _ = bank.layer1(Xq, with_weights=False)
        v_best = (kern.variance - k).min(axis=1)
        gap = v_nested - v_full
        assert np.all(gap >= -1e-8)
        assert np.all(gap <= v_best - v_full + 1e-8)

    @settings(max_examples=60, deadline=None)
    @given(planned_instances(), st.data())
    def test_invariant_under_group_relabelling(self, instance, data):
        kern, X, f, part, tree, Xq = instance
        perm = np.array(data.draw(st.permutations(range(part.p))))
        renamed = AggregationTree(
            n_leaves=tree.n_leaves, n_layer1=tree.n_layer1,
            levels=(tuple(tuple(int(perm[g]) for g in node)
                          for node in tree.levels[0]),) + tree.levels[1:])
        Xq = np.vstack([Xq, X])
        m, v = nested_predict_batch(SubModelBank(kern, X, f, part), tree, Xq)
        m2, v2 = nested_predict_batch(
            SubModelBank(kern, X, f, nk.Partition(perm[part.labels], part.p)),
            renamed, Xq)
        tol = 1e-10 * kern.variance
        np.testing.assert_allclose(m2, m, rtol=1e-10, atol=tol)
        np.testing.assert_allclose(v2, v, rtol=1e-10, atol=tol)
