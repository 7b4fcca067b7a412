import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nestedkrig import data
from nestedkrig.data import (CsvSchema, Dataset, Partition, load_csv,
                             load_points_csv, partition_consecutive,
                             partition_kmeans, partition_random)
from nestedkrig.exceptions import EmptyFile, InvalidGroupCount, ParseError


def reference_kmeans(X, p, seed=0):
    """The direct k-means: (labels, number of empty-cluster repairs).

    Every Lloyd step forms the (n, p, d) difference array and sums its
    squares over the last axis, and every centroid is the mean of a boolean
    mask over all n points.  ``partition_kmeans`` must return these labels
    bit for bit.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    rng = np.random.default_rng(seed)
    centroids = np.empty((p, X.shape[1]))
    centroids[0] = X[rng.integers(n)]
    d2 = np.sum((X - centroids[0]) ** 2, axis=1)
    for k in range(1, p):
        total = d2.sum()
        if total <= 0.0:
            centroids[k] = X[rng.integers(n)]
        else:
            centroids[k] = X[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((X - centroids[k]) ** 2, axis=1))

    repairs = 0
    for _ in range(data.KMEANS_MAX_ITER):
        dist = np.sum((X[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        labels = np.argmin(dist, axis=1)
        counts = np.bincount(labels, minlength=p)
        for empty in np.flatnonzero(counts == 0):
            donor = int(np.argmax(counts))
            members = np.flatnonzero(labels == donor)
            far = members[np.argmax(
                np.sum((X[members] - centroids[donor]) ** 2, axis=1))]
            labels[far] = empty
            counts[donor] -= 1
            counts[empty] += 1
            repairs += 1
        new_centroids = np.empty_like(centroids)
        for k in range(p):
            new_centroids[k] = X[labels == k].mean(axis=0)
        move = np.max(np.abs(new_centroids - centroids))
        centroids = new_centroids
        if move < data.KMEANS_TOL:
            break
    return labels, repairs


class TestDataset:
    def test_basic(self):
        ds = Dataset(X=[[0.1], [0.2]], y=[1.0, 2.0])
        assert ds.n == 2 and ds.d == 1

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Dataset(X=[[np.nan]], y=[1.0])
        with pytest.raises(ValueError):
            Dataset(X=[[0.0]], y=[np.inf])


class TestLoadCsv:
    def test_two_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n0.1,1.0\n0.2,2.0\n")
        ds = load_csv(path)
        assert ds.n == 2 and ds.d == 1
        np.testing.assert_allclose(ds.X[:, 0], [0.1, 0.2])
        np.testing.assert_allclose(ds.y, [1.0, 2.0])

    def test_nan_in_response(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n0.1,1.0\n0.2,nan\n")
        for load in (load_csv, load_points_csv):
            with pytest.raises(ParseError) as err:
                load(path)
            assert err.value.line == 3 and err.value.column == 2

    def test_garbage_cell_position(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n0.1,1.0\nabc,2.0\n")
        for load in (load_csv, load_points_csv):
            with pytest.raises(ParseError) as err:
                load(path)
            assert err.value.line == 3 and err.value.column == 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        for load in (load_csv, load_points_csv):
            for text in ("", "x,y\n", "x,y\n\n  ,  \n"):
                path.write_text(text)
                with pytest.raises(EmptyFile):
                    load(path)

    def test_unselected_column_not_parsed(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,x,y\nfirst,0.1,1.0\nsecond,0.2,2.0\n")
        ds = load_csv(path, CsvSchema(features=["x"]))
        np.testing.assert_array_equal(ds.X, [[0.1], [0.2]])
        np.testing.assert_array_equal(ds.y, [1.0, 2.0])
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert err.value.line == 2 and err.value.column == 1

    def test_large_shape_and_response_selection(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "big.csv"
        cols = [f"c{i}" for i in range(6)] + ["out"]
        rows = [",".join(cols)]
        data = rng.standard_normal((10000, 7))
        for row in data:
            rows.append(",".join(repr(float(v)) for v in row))
        path.write_text("\n".join(rows) + "\n")
        ds = load_csv(path)
        assert ds.n == 10000 and ds.d == 6
        np.testing.assert_allclose(ds.y, data[:, 6])

    def test_centering_recorded(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n0.0,1.0\n1.0,3.0\n")
        ds = load_csv(path, CsvSchema(center_response=True))
        assert ds.y_offset == pytest.approx(2.0)
        np.testing.assert_allclose(ds.y + ds.y_offset, [1.0, 3.0])

    def test_named_response(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("out,x\n1.0,0.1\n2.0,0.2\n")
        ds = load_csv(path, CsvSchema(response="out"))
        np.testing.assert_allclose(ds.y, [1.0, 2.0])
        np.testing.assert_allclose(ds.X[:, 0], [0.1, 0.2])

    def test_points_csv(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text("x1,x2\n0.1,0.2\n0.3,0.4\n")
        pts = load_points_csv(path)
        np.testing.assert_allclose(pts, [[0.1, 0.2], [0.3, 0.4]])


class TestPartitionType:
    def test_groups_cover_everything(self):
        part = Partition(labels=np.array([1, 0, 1, 2, 0]), p=3)
        groups = part.groups()
        assert sorted(np.concatenate(groups).tolist()) == [0, 1, 2, 3, 4]
        assert sum(len(g) for g in groups) == 5

    def test_empty_group_rejected(self):
        with pytest.raises(InvalidGroupCount):
            Partition(labels=np.array([0, 0, 2]), p=3)


class TestKmeans:
    def test_p_equals_n(self):
        X = np.arange(6, dtype=float).reshape(-1, 1)
        part = partition_kmeans(X, 6, seed=0)
        assert all(len(g) == 1 for g in part.groups())

    def test_p_one(self):
        part = partition_kmeans(np.random.default_rng(0).uniform(0, 1, (9, 2)),
                                1, seed=0)
        assert np.all(part.labels == 0)

    def test_two_blobs(self):
        # exhaustive check over all 2-partitions confirms the blobs are the
        # optimal split, so k-means must find them
        X = np.array([[0.0], [0.01], [0.02], [1.0], [1.01]])
        part = partition_kmeans(X, 2, seed=3)
        labels = part.labels
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4]
        assert labels[0] != labels[3]

    def test_deterministic(self):
        X = np.random.default_rng(1).uniform(0, 1, (40, 2))
        a = partition_kmeans(X, 5, seed=42)
        b = partition_kmeans(X, 5, seed=42)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_labels_are_a_lloyd_fixed_point(self):
        # on convergence every point is nearest to the mean of its own group,
        # so one more Lloyd step would leave the labels unchanged
        X = np.random.default_rng(2).uniform(0, 1, (60, 2))
        labels = partition_kmeans(X, 4, seed=5).labels
        means = np.array([X[labels == k].mean(axis=0) for k in range(4)])
        dist = np.linalg.norm(X[:, None, :] - means[None, :, :], axis=2)
        np.testing.assert_array_equal(np.argmin(dist, axis=1), labels)

    def test_invalid_group_count(self):
        with pytest.raises(InvalidGroupCount):
            partition_kmeans(np.zeros((3, 1)), 4, seed=0)

    def test_more_groups_than_distinct_points(self):
        # three distinct points, four copies each: seeding repeats centroids
        # and Lloyd's step leaves clusters empty until they are repaired
        X = np.repeat(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), 4, axis=0)
        for p in range(4, 7):
            for seed in range(3):
                part = partition_kmeans(X, p, seed=seed)
                assert part.p == p
                assert np.array_equal(np.bincount(part.labels, minlength=p) > 0,
                                      np.ones(p, dtype=bool))
                again = partition_kmeans(X, p, seed=seed)
                np.testing.assert_array_equal(part.labels, again.labels)
                labels, repairs = reference_kmeans(X, p, seed=seed)
                assert repairs > 0
                np.testing.assert_array_equal(part.labels, labels)

    @settings(max_examples=200, deadline=None)
    @given(d=st.integers(1, 16), n=st.integers(1, 200),
           p_share=st.floats(0.0, 1.0), distinct_share=st.floats(0.0, 1.0),
           design=st.sampled_from(("scaled", "rounded", "grid")),
           seed=st.integers(0, 2**32 - 1), data_seed=st.integers(0, 2**32 - 1))
    @example(d=2, n=12, p_share=1.0, distinct_share=0.25, design="scaled",
             seed=0, data_seed=0)
    def test_labels_equal_reference(self, d, n, p_share, distinct_share,
                                    design, seed, data_seed):
        # below 8 columns and from 8 on, numpy sums the squares in different
        # orders; on grid designs many points sit at equal distances from two
        # centroids, so a last-bit change in a distance or a centroid moves
        # labels; duplicated points with p up to n leave clusters empty, so
        # the repair runs
        rng = np.random.default_rng(data_seed)
        if design == "grid":
            X = rng.integers(0, 4, (n, d)) * 0.1
        else:
            X = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3.0, 3.0, d)
            if design == "rounded":
                X = np.round(X, 1)
        X = X[rng.integers(0, 1 + int(distinct_share * (n - 1)), n)]
        p = 1 + int(p_share ** 3 * (n - 1))
        labels, _ = reference_kmeans(X, p, seed)
        np.testing.assert_array_equal(partition_kmeans(X, p, seed).labels,
                                      labels)

    def test_grid_designs_equal_reference(self):
        # the property above reaches d = 1 grid designs too rarely to catch a
        # centroid sum in another order, such as np.bincount(weights=), which
        # adds a group's coordinates one by one where mean() adds pairwise
        rng = np.random.default_rng(11)
        for d in (1, 2, 9):
            for _ in range(40):
                n = int(rng.integers(50, 150))
                p = int(rng.integers(2, 12))
                seed = int(rng.integers(1000))
                X = rng.integers(0, 4, (n, d)) * 0.1
                labels, _ = reference_kmeans(X, p, seed)
                np.testing.assert_array_equal(
                    partition_kmeans(X, p, seed).labels, labels)

    @pytest.mark.parametrize("rng_seed, n, d, p",
                             [(1, 6000, 2, 78), (2, 2500, 3, 179)])
    def test_benchmark_designs_equal_reference(self, rng_seed, n, d, p):
        X = np.random.default_rng(rng_seed).uniform(0.0, 1.0, (n, d))
        labels, _ = reference_kmeans(X, p, seed=0)
        with warnings.catch_warnings():
            # both designs converge, so k-means must not warn
            warnings.simplefilter("error")
            part = partition_kmeans(X, p, seed=0)
        np.testing.assert_array_equal(part.labels, labels)

    def test_warns_when_stopped_before_converging(self, monkeypatch):
        monkeypatch.setattr(data, "KMEANS_MAX_ITER", 1)
        X = np.random.default_rng(3).uniform(0.0, 1.0, (300, 2))
        with pytest.warns(RuntimeWarning, match=r"after 1 Lloyd step"):
            part = partition_kmeans(X, 12, seed=0)
        assert part.p == 12

    def test_memory_is_blocked(self, monkeypatch):
        # the (n, p, d) difference array of the direct formula would take
        # 192 MB here; every Lloyd step allocates alike, so two show the peak
        monkeypatch.setattr(data, "KMEANS_MAX_ITER", 2)
        X = np.random.default_rng(0).uniform(0.0, 1.0, (20000, 6))
        tracemalloc.start()
        try:
            with pytest.warns(RuntimeWarning, match="without converging"):
                part = partition_kmeans(X, 200, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert part.p == 200
        assert peak < 8 * 2**20


class TestRandomConsecutive:
    def test_random_balanced(self):
        part = partition_random(4, 2, seed=9)
        sizes = sorted(len(g) for g in part.groups())
        assert sizes == [2, 2]

    def test_random_sizes_differ_by_at_most_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(5, 50))
            p = int(rng.integers(1, n + 1))
            part = partition_random(n, p, seed=int(rng.integers(1000)))
            sizes = [len(g) for g in part.groups()]
            assert max(sizes) - min(sizes) <= 1
            assert sum(sizes) == n

    def test_consecutive_pairs(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(0, 1, (30, 1))
        part = partition_consecutive(X, 15)
        order = np.argsort(X[:, 0])
        for k in range(15):
            np.testing.assert_array_equal(np.sort(part.labels[order][2 * k:2 * k + 2]),
                                          [k, k])

    def test_consecutive_singletons(self):
        X = np.array([[0.5], [0.1], [0.9], [0.3], [0.7]])
        part = partition_consecutive(X, 5)
        order = np.argsort(X[:, 0])
        np.testing.assert_array_equal(part.labels[order], np.arange(5))
