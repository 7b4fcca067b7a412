import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import reference_kmeans

from nestedkrig import data
from nestedkrig.data import (CsvSchema, Dataset, Partition, format_number,
                             load_csv, load_points_csv, partition_consecutive,
                             partition_kmeans, partition_random, write_json,
                             write_table)
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
        # a short or a long row is refused at its line, the column being
        # the count of cells it holds
        for text, line, column in (("x,y\n0.1,1.0\n0.2\n", 3, 1),
                                   ("x,y\n0.1,1.0,7.0\n0.2,2.0\n", 2, 3)):
            path.write_text(text)
            for load in (load_csv, load_points_csv):
                with pytest.raises(ParseError, match="expected 2 columns") as err:
                    load(path)
                assert (err.value.line, err.value.column) == (line, column)

    def test_comment_lines_skipped_with_physical_line_numbers(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("# kernel.lengthscales=0.2\n# seed=1\nx,y\n0.1,1.0\n"
                        "# between rows\n0.2,2.0\n")
        ds = load_csv(path)
        np.testing.assert_array_equal(ds.X[:, 0], [0.1, 0.2])
        np.testing.assert_array_equal(ds.y, [1.0, 2.0])
        path.write_text("# a\n\n# b\nx,y\n0.1,1.0\n# c\n\nabc,2.0\n")
        for load in (load_csv, load_points_csv):
            with pytest.raises(ParseError) as err:
                load(path)
            assert err.value.line == 8 and err.value.column == 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        for load in (load_csv, load_points_csv):
            for text in ("", "x,y\n", "x,y\n\n  ,  \n", "# only\n",
                         "# a\nx,y\n# b\n"):
                path.write_text(text)
                with pytest.raises(EmptyFile):
                    load(path)

    def test_unselected_column_not_parsed(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,x,y\nfirst,0.1,1.0\nsecond,0.2,2.0\n")
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

    def test_repeated_column_name_refused(self, tmp_path):
        # the second occurrence is named at the header's physical line;
        # picking columns by name would read it as a copy of the first
        path = tmp_path / "d.csv"
        for text, line, column in (("x,x,y\n0.1,0.2,1.0\n", 1, 2),
                                   ("# a\n# b\nx,y,y\n0.1,0.2,1.0\n", 3, 3)):
            path.write_text(text)
            with pytest.raises(ParseError, match="repeated column name") as err:
                load_csv(path)
            assert (err.value.line, err.value.column) == (line, column)
        np.testing.assert_array_equal(load_points_csv(path), [[0.1, 0.2, 1.0]])

    def test_missing_response_at_header_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("# kernel.lengthscales=0.2\n# seed=1\nx,y\n0.1,1.0\n")
        with pytest.raises(ParseError, match="'out' not in header") as err:
            load_csv(path, CsvSchema(response="out"))
        assert (err.value.line, err.value.column) == (3, 0)

    def test_header_without_coordinate_refused(self, tmp_path):
        # a response column alone made a design of no coordinate, which
        # failed much later with a bare IndexError
        path = tmp_path / "d.csv"
        for text, schema, line in (("y\n1.0\n2.0\n", None, 1),
                                   ("# a\n\nout\n1.0\n", CsvSchema(response="out"), 3)):
            path.write_text(text)
            with pytest.raises(ParseError, match="no coordinate column") as err:
                load_csv(path, schema)
            assert (err.value.line, err.value.column) == (line, 0)
        np.testing.assert_array_equal(load_points_csv(path), [[1.0]])

    def test_points_csv(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text("x1,x2\n0.1,0.2\n0.3,0.4\n")
        pts = load_points_csv(path)
        np.testing.assert_allclose(pts, [[0.1, 0.2], [0.3, 0.4]])


class TestWriters:
    def test_format_number_is_shortest_round_trip(self):
        for value in (0.1, 2.0 / 3.0, 1e16, -0.0, 5e-324,
                      1.7976931348623157e308, float("inf")):
            for cell in (value, np.float64(value)):
                text = format_number(cell)
                assert text == repr(value)
                assert float(text) == value
                assert np.signbit(float(text)) == np.signbit(value)
        assert format_number(np.float64(-0.0)) == "-0.0"
        assert format_number(np.float64(5e-324)) == "5e-324"
        assert format_number(float("nan")) == "nan"
        assert format_number(np.float32(0.1)) == "0.10000000149011612"
        assert format_number(3) == format_number(np.int64(3)) == "3.0"

    def test_table_layout(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ["a=1", "b=x y"], ["name", "n", "value"],
                    [("first", "7", np.float64(0.1)),
                     ("second", "-2", -0.0),
                     ("third", "0", np.float64(5e-324)),
                     ("fourth", "1", float("nan")),
                     ("fifth", "2", np.int64(4))])
        assert path.read_text() == ("# a=1\n# b=x y\nname,n,value\n"
                                    "first,7,0.1\nsecond,-2,-0.0\n"
                                    "third,0,5e-324\nfourth,1,nan\n"
                                    "fifth,2,4.0\n")

    def test_table_without_comments_or_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, [], ["mean"], iter([]))
        assert path.read_text() == "mean\n"

    def test_table_numbers_read_back_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(1)
        values = rng.standard_normal((40, 3)) * 10.0 ** rng.integers(-300, 300, (40, 3))
        values[0] = [-0.0, 5e-324, 1.7976931348623157e308]
        path = tmp_path / "t.csv"
        write_table(path, ["seed=1"], ["x", "y", "z"], values)
        rows = [line.split(",") for line in path.read_text().splitlines()[2:]]
        assert np.array_equal(np.array(rows, dtype=float), values)
        assert [np.signbit(float(c)) for c in rows[0]] == [True, False, False]

    def test_json_sorted_with_final_newline(self, tmp_path):
        payload = {"b": [1.5, -0.0, 5e-324], "a": {"z": 1, "y": "text"},
                   "c": float("nan")}
        path = tmp_path / "p.json"
        write_json(path, payload)
        assert path.read_text() == ('{"a": {"y": "text", "z": 1}, '
                                    '"b": [1.5, -0.0, 5e-324], "c": NaN}\n')
        write_json(path, payload, indent=2)
        text = path.read_text()
        assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert text.startswith('{\n  "a": {\n    "y": "text",')
        assert json.loads(text)["b"] == [1.5, -0.0, 5e-324]


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
        # adds a group's coordinates one by one where mean() adds pairwise.
        # Grid points sit at exactly equal distances from two centroids, and
        # d = 1 grids have more groups than distinct points; as a point moves
        # only for a centroid closer by more than the rounding, every run
        # stops at a Lloyd fixed point before KMEANS_MAX_ITER, unwarned
        rng = np.random.default_rng(11)
        moved = 0
        for d in (1, 2, 9):
            for _ in range(40):
                n = int(rng.integers(50, 150))
                p = int(rng.integers(2, 12))
                seed = int(rng.integers(1000))
                X = rng.integers(0, 4, (n, d)) * 0.1
                labels, _ = reference_kmeans(X, p, seed)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = partition_kmeans(X, p, seed).labels
                np.testing.assert_array_equal(got, labels)
                means = np.array([X[got == k].mean(axis=0) for k in range(p)])
                dist = np.sum((X[:, None, :] - means[None]) ** 2, axis=2)
                own = dist[np.arange(n), got]
                slack = np.sqrt(own) * (np.linalg.norm(X, axis=1)
                                        + np.linalg.norm(means, axis=1)[got])
                assert np.all(own - dist.min(axis=1) <= data.KMEANS_TIE_RTOL * slack)
                moved += not np.array_equal(
                    got, reference_kmeans(X, p, seed, keep_ties=False)[0])
        # the plain argmin step would have given other labels
        assert moved > 0

    @pytest.mark.parametrize("rng_seed, n, d, p",
                             [(1, 6000, 2, 78), (2, 2500, 3, 179)])
    def test_benchmark_designs_equal_reference(self, rng_seed, n, d, p):
        X = np.random.default_rng(rng_seed).uniform(0.0, 1.0, (n, d))
        labels, _ = reference_kmeans(X, p, seed=0)
        # no ties: the labels of the plain argmin step
        np.testing.assert_array_equal(
            labels, reference_kmeans(X, p, seed=0, keep_ties=False)[0])
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
