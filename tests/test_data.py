import numpy as np
import pytest

from nestedkrig.data import (CsvSchema, Dataset, Partition, load_csv,
                             load_points_csv, partition_consecutive,
                             partition_kmeans, partition_random)
from nestedkrig.exceptions import EmptyFile, InvalidGroupCount, ParseError


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

    def test_objective_never_increases(self):
        # Lloyd iterations may only improve the within-cluster sum of squares
        rng = np.random.default_rng(2)
        X = rng.uniform(0, 1, (60, 2))

        def objective(labels, p):
            total = 0.0
            for k in range(p):
                pts = X[labels == k]
                total += np.sum((pts - pts.mean(axis=0)) ** 2)
            return total

        part = partition_kmeans(X, 4, seed=5)
        final = objective(part.labels, 4)
        # restarting Lloyd from the solution must not change it
        again = partition_kmeans(X, 4, seed=5)
        assert objective(again.labels, 4) == pytest.approx(final)

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
