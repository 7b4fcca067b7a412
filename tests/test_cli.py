import json
import os

import numpy as np
import pytest

import nestedkrig as nk
from nestedkrig import baselines, cli, metrics
from nestedkrig.bundle import load_bundle
from nestedkrig.cli import PREDICT_CHUNK, main

EX1_X = np.array([[0.1], [0.3], [0.5], [0.7], [0.9]])
EX1_F = np.sin(2 * np.pi * EX1_X[:, 0]) + EX1_X[:, 0]


def write_train(path):
    lines = ["x,y"] + [f"{repr(float(a))},{repr(float(b))}"
                       for a, b in zip(EX1_X[:, 0], EX1_F)]
    path.write_text("\n".join(lines) + "\n")


def write_query(path, xs):
    path.write_text("\n".join(["x"] + [repr(float(v)) for v in xs]) + "\n")


EX1_CONFIG = """
[kernel]
family = squared-exponential
variance = 1.0
lengthscales = 0.2

[partition]
mode = consecutive
p = 2

[tree]
mode = flat
"""


@pytest.fixture
def ex1_files(tmp_path):
    train = tmp_path / "train.csv"
    config = tmp_path / "run.cfg"
    write_train(train)
    config.write_text(EX1_CONFIG)
    return tmp_path, train, config


class TestFitPredict:
    def test_roundtrip_reproduces_library_values(self, ex1_files):
        tmp, train, config = ex1_files
        bundle = tmp / "model.json"
        assert main(["fit", "--config", str(config), "--train", str(train),
                     "--out", str(bundle)]) == 0
        query = tmp / "query.csv"
        write_query(query, [0.6, 0.25])
        out = tmp / "pred.csv"
        assert main(["predict", "--bundle", str(bundle), "--query", str(query),
                     "--out", str(out), "--method", "nested",
                     "--with-variance"]) == 0
        rows = [line for line in out.read_text().splitlines()
                if not line.startswith("#")]
        assert rows[0] == "mean,variance"
        got = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])

        kern = nk.KernelSpec("squared-exponential", 1.0, (0.2,))
        part = nk.partition_consecutive(EX1_X, 2)
        bank = nk.SubModelBank(kern, EX1_X, EX1_F, part)
        tree = nk.AggregationTree.flat(5, 2)
        m, v = nk.nested_predict_batch(bank, tree, [[0.6], [0.25]])
        np.testing.assert_allclose(got[:, 0], m, atol=1e-12)
        np.testing.assert_allclose(got[:, 1], v, atol=1e-12)

    def test_baselines_roundtrip_reproduces_library_values(self, ex1_files):
        tmp, train, config = ex1_files
        bundle = tmp / "model.json"
        assert main(["fit", "--config", str(config), "--train", str(train),
                     "--out", str(bundle)]) == 0
        xs = np.linspace(0, 1, 37)
        query = tmp / "query.csv"
        write_query(query, xs)

        kern = nk.KernelSpec("squared-exponential", 1.0, (0.2,))
        bank = nk.SubModelBank(kern, EX1_X, EX1_F,
                               nk.partition_consecutive(EX1_X, 2))
        M, k = bank.moments(*bank.group_weights(xs.reshape(-1, 1)))
        V = np.maximum(kern.variance - k, metrics.EXPERT_VARIANCE_FLOOR)
        for method in baselines.METHODS:
            out = tmp / f"{method}.csv"
            assert main(["predict", "--bundle", str(bundle), "--query",
                         str(query), "--out", str(out), "--method", method,
                         "--with-variance"]) == 0
            rows = [r for r in out.read_text().splitlines()
                    if not r.startswith("#")]
            got = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
            m, v = baselines.evaluate(method, M, V, kern.variance)
            np.testing.assert_array_equal(got[:, 0], m)
            np.testing.assert_array_equal(got[:, 1], v)

    def test_training_points_interpolated(self, ex1_files):
        tmp, train, config = ex1_files
        bundle = tmp / "model.json"
        main(["fit", "--config", str(config), "--train", str(train),
              "--out", str(bundle)])
        query = tmp / "q.csv"
        write_query(query, EX1_X[:, 0])
        out = tmp / "p.csv"
        main(["predict", "--bundle", str(bundle), "--query", str(query),
              "--out", str(out), "--with-variance"])
        rows = [r for r in out.read_text().splitlines() if not r.startswith("#")]
        got = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        np.testing.assert_allclose(got[:, 0], EX1_F, atol=1e-8)
        assert np.all(got[:, 1] <= 1e-8)

    def test_full_vs_nested_gap_matches_diagnostics(self, ex1_files):
        tmp, train, config = ex1_files
        bundle = tmp / "model.json"
        main(["fit", "--config", str(config), "--train", str(train),
              "--out", str(bundle)])
        query = tmp / "q.csv"
        write_query(query, [0.6])
        for method in ("nested", "full"):
            main(["predict", "--bundle", str(bundle), "--query", str(query),
                  "--out", str(tmp / f"{method}.csv"), "--method", method,
                  "--with-variance"])

        def read_one(path):
            rows = [r for r in path.read_text().splitlines()
                    if not r.startswith("#")][1:]
            return [float(v) for v in rows[0].split(",")]

        m_n, v_n = read_one(tmp / "nested.csv")
        m_f, v_f = read_one(tmp / "full.csv")
        kern = nk.KernelSpec("squared-exponential", 1.0, (0.2,))
        part = nk.partition_consecutive(EX1_X, 2)
        bank = nk.SubModelBank(kern, EX1_X, EX1_F, part)
        full = nk.FullModel(kern, EX1_X, EX1_F)
        d = nk.diagnostics_vs_full(full, bank, [0.6])
        assert m_n - m_f == pytest.approx(d.mean_gap, abs=1e-10)
        assert v_n - v_f == pytest.approx(d.var_gap, abs=1e-10)

    def test_refuses_overwrite_without_force(self, ex1_files):
        tmp, train, config = ex1_files
        bundle = tmp / "model.json"
        assert main(["fit", "--config", str(config), "--train", str(train),
                     "--out", str(bundle)]) == 0
        assert main(["fit", "--config", str(config), "--train", str(train),
                     "--out", str(bundle)]) == 2
        assert main(["fit", "--config", str(config), "--train", str(train),
                     "--out", str(bundle), "--force"]) == 0

    def test_fit_deterministic(self, ex1_files):
        tmp, train, config = ex1_files
        main(["fit", "--config", str(config), "--train", str(train),
              "--out", str(tmp / "a.json")])
        main(["fit", "--config", str(config), "--train", str(train),
              "--out", str(tmp / "b.json")])
        assert (tmp / "a.json").read_bytes() == (tmp / "b.json").read_bytes()

    def test_fit_with_estimation_deterministic(self, ex1_files):
        tmp, train, config = ex1_files
        config.write_text(config.read_text() + """
[estimation]
enabled = true
n_iter = 3
q = 4
seed = 9
""")
        for tag in ("a", "b"):
            assert main(["fit", "--config", str(config), "--train", str(train),
                         "--out", str(tmp / f"est_{tag}.json")]) == 0
        assert ((tmp / "est_a.json").read_bytes()
                == (tmp / "est_b.json").read_bytes())


    def test_fit_with_two_phase_estimation_deterministic(self, ex1_files):
        tmp, train, config = ex1_files
        config.write_text(config.read_text() + """
[estimation]
enabled = true
two_phase = true
n_iter = 5
q = 4
seed = 9
""")
        for tag in ("a", "b"):
            assert main(["fit", "--config", str(config), "--train", str(train),
                         "--out", str(tmp / f"two_{tag}.json")]) == 0
        assert ((tmp / "two_a.json").read_bytes()
                == (tmp / "two_b.json").read_bytes())
        assert "estimation.two_phase=True" in load_bundle(
            str(tmp / "two_a.json"))["config"]


class TestErrors:
    def test_missing_train_is_io_error(self, tmp_path):
        assert main(["fit", "--train", str(tmp_path / "none.csv"),
                     "--out", str(tmp_path / "m.json")]) == 2

    def test_unknown_method_is_usage_error(self, ex1_files):
        tmp, train, config = ex1_files
        bundle = tmp / "model.json"
        main(["fit", "--config", str(config), "--train", str(train),
              "--out", str(bundle)])
        query = tmp / "q.csv"
        write_query(query, [0.5])
        assert main(["predict", "--bundle", str(bundle), "--query", str(query),
                     "--out", str(tmp / "o.csv"), "--method", "votes"]) == 1

    def test_unknown_config_key_is_io_error(self, tmp_path):
        train = tmp_path / "t.csv"
        write_train(train)
        cfg = tmp_path / "bad.cfg"
        for text in ("[kernel]\nfamly = matern52\n", "[run]\nseed = 1\n"):
            cfg.write_text(text)
            assert main(["fit", "--config", str(cfg), "--train", str(train),
                         "--out", str(tmp_path / "m.json")]) == 2

    @pytest.mark.parametrize("text", [
        "a = 1\n[kernel]\n",
        "[kernel]\nvariance = 1\nvariance = 2\n",
        "[kernel]\nvariance = 5%\n",
        "[estimation]\na = -5\n",
        "[partition]\np = 4\n",
    ])
    def test_config_problems_exit_2_before_partitioning(self, tmp_path,
                                                        monkeypatch, capsys,
                                                        text):
        def no_partitioning(*args, **kwargs):
            raise AssertionError("partitioned before the config was checked")

        monkeypatch.setattr(cli, "partition_kmeans", no_partitioning)
        train = tmp_path / "t.csv"
        write_train(train)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        for command in (["fit", "--out", str(tmp_path / "m.json")],
                        ["loo-estimate"]):
            capsys.readouterr()
            assert main(command + ["--config", str(cfg), "--train",
                                   str(train)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("i/o error: ") and "Traceback" not in err

    def test_benchmark_without_replications_is_usage_error(self, tmp_path):
        assert main(["benchmark", "--replications", "0",
                     "--out-dir", str(tmp_path / "b")]) == 1
        assert not (tmp_path / "b").exists()

    def test_full_cap_refusal(self, ex1_files):
        tmp, train, config = ex1_files
        bundle = tmp / "model.json"
        main(["fit", "--config", str(config), "--train", str(train),
              "--out", str(bundle)])
        query = tmp / "q.csv"
        write_query(query, [0.5])
        rc = main(["predict", "--bundle", str(bundle), "--query", str(query),
                   "--out", str(tmp / "o.csv"), "--method", "full",
                   "--full-cap", "2"])
        assert rc == 1

    def test_query_dimension_mismatch(self, ex1_files):
        tmp, train, config = ex1_files
        bundle = tmp / "model.json"
        main(["fit", "--config", str(config), "--train", str(train),
              "--out", str(bundle)])
        query = tmp / "q.csv"
        query.write_text("a,b\n0.1,0.2\n")
        assert main(["predict", "--bundle", str(bundle), "--query", str(query),
                     "--out", str(tmp / "o.csv")]) == 1


class TestDeterminism:
    def test_predict_rerun_byte_identical(self, ex1_files):
        tmp, train, config = ex1_files
        bundle = tmp / "model.json"
        main(["fit", "--config", str(config), "--train", str(train),
              "--out", str(bundle)])
        query = tmp / "q.csv"
        write_query(query, np.linspace(0, 1, 700))
        for name in ("p1.csv", "p2.csv"):
            main(["predict", "--bundle", str(bundle), "--query", str(query),
                  "--out", str(tmp / name), "--with-variance"])
        assert (tmp / "p1.csv").read_bytes() == (tmp / "p2.csv").read_bytes()

    def test_threads_do_not_change_output(self, ex1_files):
        tmp, train, config = ex1_files
        bundle = tmp / "model.json"
        main(["fit", "--config", str(config), "--train", str(train),
              "--out", str(bundle)])
        query = tmp / "q.csv"
        write_query(query, np.linspace(0, 1, 1500))
        for method in ("nested",) + baselines.METHODS:
            for threads, name in ((1, "t1.csv"), (4, "t4.csv")):
                assert main(["predict", "--bundle", str(bundle), "--query",
                             str(query), "--out", str(tmp / name),
                             "--with-variance", "--threads", str(threads),
                             "--method", method]) == 0
            assert ((tmp / "t1.csv").read_bytes()
                    == (tmp / "t4.csv").read_bytes()), method

    def test_threads_do_not_change_streamed_height_three_output(self, tmp_path):
        # chunks run on a thread pool: scratch kept on the bank or the
        # module instead of per call would mix the chunks' streamed rows
        rng = np.random.default_rng(8)
        X = rng.uniform(0, 1, (300, 2))
        y = np.sin(5.0 * X[:, 0]) + X[:, 1]
        train = tmp_path / "train.csv"
        train.write_text("x1,x2,y\n" + "".join(
            f"{a!r},{b!r},{c!r}\n" for (a, b), c in zip(X.tolist(), y.tolist())))
        config = tmp_path / "run.cfg"
        config.write_text("[kernel]\nfamily = matern52\nlengthscales = 0.3, 0.3\n"
                          "[tree]\nmode = equilibrated\nheight = 3\n")
        bundle = tmp_path / "model.json"
        assert main(["fit", "--config", str(config), "--train", str(train),
                     "--out", str(bundle)]) == 0
        assert load_bundle(str(bundle))["tree"].height == 3
        Q = rng.uniform(0, 1, (2 * PREDICT_CHUNK + 77, 2))
        query = tmp_path / "q.csv"
        query.write_text("x1,x2\n" + "".join(
            f"{a!r},{b!r}\n" for a, b in Q.tolist()))
        for threads in (1, 4):
            assert main(["predict", "--bundle", str(bundle), "--query",
                         str(query), "--out", str(tmp_path / f"t{threads}.csv"),
                         "--with-variance", "--threads", str(threads)]) == 0
        assert ((tmp_path / "t1.csv").read_bytes()
                == (tmp_path / "t4.csv").read_bytes())

    def test_simulate_deterministic_and_shaped(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("[kernel]\nfamily = matern52\nlengthscales = 0.05\n")
        for name in ("s1.csv", "s2.csv"):
            assert main(["simulate", "--config", str(cfg), "--out",
                         str(tmp_path / name), "--points", "101",
                         "--count", "2", "--seed", "3"]) == 0
        a = (tmp_path / "s1.csv").read_text()
        assert a == (tmp_path / "s2.csv").read_text()
        rows = [r for r in a.splitlines() if not r.startswith("#")]
        assert rows[0] == "x,sample_0,sample_1"
        assert len(rows) == 102

    def test_benchmark_outputs_deterministic(self, tmp_path):
        for sub in ("b1", "b2"):
            assert main(["benchmark", "--replications", "2", "--seed", "7",
                         "--out-dir", str(tmp_path / sub)]) == 0
        for name in ("reports.csv", "summary.json", "plotdata.csv"):
            assert ((tmp_path / "b1" / name).read_bytes()
                    == (tmp_path / "b2" / name).read_bytes())
        payload = json.loads((tmp_path / "b1" / "summary.json").read_text())
        assert payload["replications"] == 2

    def test_consistency_command(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["consistency", "--method", "bcm", "--sizes", "50,100",
                     "--replicates", "20", "--seed", "1",
                     "--out", str(out)]) == 0
        rows = [r for r in out.read_text().splitlines() if not r.startswith("#")]
        assert rows[0] == "n,mse_at_x0"
        assert len(rows) == 3


class TestLooEstimate:
    def test_smoke(self, tmp_path):
        rng = np.random.default_rng(0)
        X = np.sort(rng.uniform(0, 1, 24))
        kern = nk.KernelSpec("matern32", 1.0, (0.2,))
        f = nk.sample_paths(kern, X.reshape(-1, 1), 1, 1)[0]
        train = tmp_path / "train.csv"
        train.write_text("\n".join(
            ["x,y"] + [f"{repr(float(a))},{repr(float(b))}"
                       for a, b in zip(X, f)]) + "\n")
        cfg = tmp_path / "est.cfg"
        cfg.write_text("""
[kernel]
family = matern32
lengthscales = 0.2

[partition]
mode = consecutive
p = 4

[tree]
mode = flat

[estimation]
n_iter = 3
q = 10
seed = 5
""")
        out = tmp_path / "est.json"
        assert main(["loo-estimate", "--config", str(cfg), "--train",
                     str(train), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["sigma2"] > 0
        assert len(payload["theta"]) == 1
