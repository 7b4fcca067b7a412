import json

import numpy as np
import pytest
from reference import reference_consistency_labels, run_benchmark_51

from nestedkrig.exceptions import NonPositiveVariance
from nestedkrig.metrics import (BENCH_METHODS, benchmark_instance,
                                consistency_design, criteria,
                                run_consistency_demo, summarize_medians,
                                write_plot_data, write_reports_csv,
                                write_summary_json)


class TestCriteria:
    def test_model_against_itself(self):
        m = np.array([1.0, 2.0])
        v = np.array([0.5, 0.25])
        f = np.array([1.1, 1.9])
        rep = criteria(m, v, m, v, f)
        assert rep.mse == 0.0
        assert rep.mve == 0.0

    def test_mnlp_zero_case(self):
        f = np.array([0.3, -0.7, 2.0])
        v = np.full(3, 1.0 / (2.0 * np.pi))
        rep = criteria(f, v, f, v, f)
        assert rep.mnlp == pytest.approx(0.0, abs=1e-14)

    def test_mnse_unit_case(self):
        f = np.zeros(4)
        m = np.ones(4)
        v = np.ones(4)
        rep = criteria(m, v, m, v, f)
        assert rep.mnse == pytest.approx(1.0)

    def test_signed_variance_error(self):
        m = np.zeros(2)
        rep = criteria(m, np.array([0.5, 0.5]), m, np.array([1.0, 1.0]),
                       np.zeros(2))
        assert rep.mve == pytest.approx(-0.5)

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(NonPositiveVariance):
            criteria(np.ones(2), np.array([1.0, 0.0]), np.ones(2),
                     np.ones(2), np.ones(2))


class TestBenchmark:
    def test_instance_reproducible(self):
        g1, f1, r1 = benchmark_instance(7)
        g2, f2, r2 = benchmark_instance(7)
        np.testing.assert_array_equal(f1, f2)
        for method in r1:
            np.testing.assert_array_equal(r1[method][0], r2[method][0])
            np.testing.assert_array_equal(r1[method][1], r2[method][1])

    def test_instance_shapes_and_poe_gpoe2_identity(self):
        grid, f_grid, results = benchmark_instance(3)
        assert grid.shape == (101, 1)
        assert f_grid.shape == (101,)
        assert set(results) == set(BENCH_METHODS) | {"full"}
        # same relative weights: identical means, p-times the variance
        np.testing.assert_array_equal(results["poe"][0], results["gpoe2"][0])
        assert not np.array_equal(results["poe"][1], results["gpoe2"][1])

    def test_report_count_and_reproducibility(self):
        reports = run_benchmark_51([1, 2, 3])
        assert len(reports) == 3 * len(BENCH_METHODS)
        again = run_benchmark_51([1, 2, 3])
        assert reports == again

    def test_grid_point_next_to_design_point_scored(self):
        # grid points within 3e-5 of a design point get variances clamped
        # at zero; the floored variances still give a finite score
        reports = run_benchmark_51([1348, 1498, 1632])
        assert len(reports) == 3 * len(BENCH_METHODS)
        assert all(np.isfinite(r.mnlp) for r in reports)

    def test_summaries(self):
        reports = run_benchmark_51([5, 6])
        med = summarize_medians(reports)
        assert set(med) == set(BENCH_METHODS)
        for row in med.values():
            assert set(row) == {"mse", "mve", "mnlp", "mnse"}


class TestConsistencyDesign:
    def test_sizes_and_structure(self):
        for n in (50, 100, 200, 400):
            X, part, x0 = consistency_design(n)
            assert X.shape == (n, 1)
            assert part.n == n
            assert x0[0] == 0.1
            p_n = int(np.ceil(n ** 0.8))
            assert part.p == p_n
            # prediction point is starved: nothing within the exclusion radius
            assert np.abs(X[:, 0] - 0.1).min() >= min(n ** -0.25, 0.1) - 1e-12

    def test_labels_equal_group_by_group_reference(self):
        for n in [*range(10, 600), 1000, 5000]:
            _, part, _ = consistency_design(n)
            want = reference_consistency_labels(n)
            np.testing.assert_array_equal(part.labels, want)
            assert part.p == want.max() + 1 == int(np.ceil(n ** 0.8))

    def test_large_design_has_points_left_of_the_ball(self):
        # above n = 10**4 the excluded ball of radius n**(-1/4) around x0
        # no longer reaches 0, and the informative points split between its
        # two sides in proportion to their lengths
        n = 20000
        X, part, x0 = consistency_design(n)
        delta = n ** -0.25
        p_n, k_n = int(np.ceil(n ** 0.8)), int(np.ceil(n ** 0.2))
        c_n = (n - 1) // (p_n - 1)
        np.testing.assert_array_equal(part.labels, reference_consistency_labels(n))
        sizes = np.bincount(part.labels)
        assert part.p == p_n and np.all(sizes[:-1] == c_n) and sizes[-1] >= 1
        assert np.abs(X[:, 0] - x0[0]).min() >= delta - 1e-12
        informative = X[:k_n * c_n, 0]
        left = informative < x0[0]
        lo = x0[0] - delta
        assert left.sum() == round(k_n * c_n * lo / (lo + 1.0 - (x0[0] + delta)))
        assert left.sum() > 0 and informative[left].max() < lo

    def test_cluster_accumulates(self):
        X, _, _ = consistency_design(200)
        in_cluster = np.abs(X[:, 0] - 0.9) <= 0.05
        assert in_cluster.mean() > 0.8

    def test_deterministic(self):
        a, pa, _ = consistency_design(128)
        b, pb, _ = consistency_design(128)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(pa.labels, pb.labels)


class TestConsistencyDemo:
    def test_full_model_error_decays(self):
        trend = run_consistency_demo([50, 200], "full", replicates=100, seed=1)
        assert trend[1][1] < trend[0][1]

    def test_nested_beats_variance_weighted_trend(self):
        sizes = [50, 200]
        nested = run_consistency_demo(sizes, "nested", replicates=100, seed=2)
        bcm = run_consistency_demo(sizes, "bcm", replicates=100, seed=2)
        assert nested[1][1] / nested[0][1] < bcm[1][1] / bcm[0][1]

    def test_reproducible(self):
        a = run_consistency_demo([64], "poe", replicates=50, seed=3)
        b = run_consistency_demo([64], "poe", replicates=50, seed=3)
        assert a == b


class TestWriters:
    def test_reports_csv_roundtrip(self, tmp_path):
        reports = run_benchmark_51([9])
        path = tmp_path / "reports.csv"
        write_reports_csv(reports, path, header_lines=["setting=x"])
        lines = path.read_text().splitlines()
        assert lines[0] == "# setting=x"
        assert lines[1].startswith("replication,method,")
        assert len(lines) == 2 + len(reports)
        write_reports_csv(reports, tmp_path / "again.csv",
                          header_lines=["setting=x"])
        assert (tmp_path / "again.csv").read_text() == path.read_text()

    def test_summary_json(self, tmp_path):
        reports = run_benchmark_51([9])
        path = tmp_path / "summary.json"
        write_summary_json(reports, path, extra={"seed": 9})
        payload = json.loads(path.read_text())
        assert payload["seed"] == 9
        assert set(payload["medians"]) == set(BENCH_METHODS)

    def test_plot_data(self, tmp_path):
        grid, _, results = benchmark_instance(9)
        path = tmp_path / "plot.csv"
        write_plot_data(path, grid, results)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 101
        header = lines[0].split(",")
        assert header[0] == "x"
        assert len(header) == 1 + 2 * len(results)
