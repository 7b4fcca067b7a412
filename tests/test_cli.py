import argparse
import json
import os
from dataclasses import fields

import numpy as np
import pytest

import nestedkrig as nk
from nestedkrig import baselines, cli, gpcore, metrics
from nestedkrig.bundle import load_bundle
from nestedkrig.cli import main
from nestedkrig.config import RunSettings
from nestedkrig.exceptions import BundleError, DimensionMismatch, NotFactorizable
from nestedkrig.tree import PREDICT_CHUNK

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

    def test_named_centred_response_from_the_data_section(self, ex1_files):
        tmp, _, config = ex1_files
        train = tmp / "named.csv"
        train.write_text("\n".join(["y,x"] + [f"{b},{a}" for a, b in
                                              zip(EX1_X[:, 0], EX1_F)]) + "\n")
        config.write_text(EX1_CONFIG + "[data]\nresponse = y\n"
                          "center_response = true\n")
        bundle, query, out = tmp / "model.json", tmp / "q.csv", tmp / "o.csv"
        assert main(["fit", "--config", str(config), "--train", str(train),
                     "--out", str(bundle)]) == 0
        write_query(query, [0.6, 0.25])
        assert main(["predict", "--bundle", str(bundle), "--query", str(query),
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert "# data.response=y" in lines
        assert "# data.center_response=True" in lines
        got = [float(r) for r in lines[lines.index("mean") + 1:]]

        offset = float(np.mean(EX1_F))
        bank = nk.SubModelBank(nk.KernelSpec("squared-exponential", 1.0, (0.2,)),
                               EX1_X, EX1_F - offset,
                               nk.partition_consecutive(EX1_X, 2))
        m, _ = nk.nested_predict_batch(bank, nk.AggregationTree.flat(5, 2),
                                       [[0.6], [0.25]])
        np.testing.assert_array_equal(got, m + offset)

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
        M, k, _ = bank.layer1(xs.reshape(-1, 1), with_weights=False)
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
        d = nk.diagnostics_vs_full(full, bank, [[0.6]])[0]
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

    def test_fit_echoes_the_configured_step_offset(self, ex1_files):
        # the descent resolves A = -1 to n_iter / 10 for itself; the bundle
        # echoes the configuration as it was read
        tmp, train, config = ex1_files
        config.write_text(config.read_text() + """
[estimation]
enabled = true
A = -1
n_iter = 3
q = 4
""")
        assert main(["fit", "--config", str(config), "--train", str(train),
                     "--out", str(tmp / "model.json")]) == 0
        echo = load_bundle(str(tmp / "model.json"))["config"]
        assert "estimation.A=-1.0" in echo and "estimation.n_iter=3" in echo


class TestErrors:
    def test_missing_train_is_io_error(self, tmp_path):
        assert main(["fit", "--train", str(tmp_path / "none.csv"),
                     "--out", str(tmp_path / "m.json")]) == 2

    def test_repeated_column_name_is_io_error(self, tmp_path, capsys):
        train = tmp_path / "t.csv"
        train.write_text("x,x,y\n0.1,0.2,1.0\n0.3,0.4,2.0\n")
        bundle = tmp_path / "m.json"
        assert main(["fit", "--train", str(train), "--out", str(bundle)]) == 2
        assert "line 1, column 2: repeated column name 'x'" in capsys.readouterr().err
        assert not bundle.exists()

    def test_design_without_coordinate_is_io_error(self, tmp_path, capsys):
        # a response column alone made a design of no coordinate: fit died
        # with an IndexError traceback in the kernel evaluation
        train = tmp_path / "t.csv"
        train.write_text("y\n1.0\n2.0\n3.0\n")
        bundle = tmp_path / "m.json"
        for command in (["fit", "--out", str(bundle)], ["loo-estimate"]):
            assert main(command + ["--train", str(train)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("i/o error: line 1, column 0: no coordinate column")
            assert "Traceback" not in err
        assert not bundle.exists()

    def test_numerical_failure_exits_3(self, ex1_files, monkeypatch, capsys):
        def not_factorizable(stack):
            raise NotFactorizable("group covariance is not positive definite")

        monkeypatch.setattr(gpcore, "factor_spd_stack", not_factorizable)
        tmp, train, config = ex1_files
        config.write_text(EX1_CONFIG + "[estimation]\nenabled = true\n"
                          "grid_start = false\nn_iter = 1\nq = 2\n")
        bundle = tmp / "model.json"
        assert main(["fit", "--config", str(config), "--train", str(train),
                     "--out", str(bundle)]) == 3
        err = capsys.readouterr().err
        assert err == ("numerical error: group covariance is not positive "
                       "definite\n")
        assert not bundle.exists()

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
        "[kernel]\nvariance = nan\n",
        "[kernel]\nvariance = inf\n",
        "[kernel]\nlengthscales = inf\n",
        "[estimation]\na = -5\n",
        "[partition]\np = 4\n",
        "[tree]\nheight = 4\n",
        "[tree]\nmode = flat\nheight = 4\n",
        "[partition]\nseed = -1\n",
        "[estimation]\nseed = -1\n",
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

    def test_wrong_lengthscale_count_same_error_on_fit_and_loo_estimate(
            self, tmp_path, monkeypatch, capsys):
        def no_partitioning(*args, **kwargs):
            raise AssertionError("partitioned before the kernel was checked")

        monkeypatch.setattr(cli, "partition_kmeans", no_partitioning)
        train = tmp_path / "t.csv"
        train.write_text("x1,x2,y\n0.1,0.2,1.0\n0.3,0.9,0.5\n0.7,0.4,0.2\n"
                         "0.8,0.6,0.1\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[kernel]\nlengthscales = 0.1, 0.2, 0.3\n")
        errors = []
        for command in (["fit", "--out", str(tmp_path / "m.json")],
                        ["loo-estimate"]):
            capsys.readouterr()
            assert main(command + ["--config", str(cfg), "--train",
                                   str(train)]) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert "3 length-scales for 2 input dimensions" in errors[0]

    def test_benchmark_without_replications_is_usage_error(self, tmp_path):
        assert main(["benchmark", "--replications", "0",
                     "--out-dir", str(tmp_path / "b")]) == 1
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("flags, named", [
        (["--replicates", "0"], "--replicates"),
        (["--replicates", "-3"], "--replicates"),
        (["--sizes", "50,1"], "--sizes"),
        (["--sizes", "0"], "--sizes"),
        (["--sizes=-4,50"], "--sizes"),
        (["--sizes", "50,abc"], "--sizes"),
        (["--sizes", ","], "--sizes"),
    ])
    def test_consistency_count_flags_are_usage_errors(self, tmp_path, capsys,
                                                      flags, named):
        out = tmp_path / "trend.csv"
        assert main(["consistency", "--sizes", "50", "--replicates", "2",
                     "--out", str(out)] + flags) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, named", [
        (["--points", "0"], "--points"),
        (["--points", "-2"], "--points"),
        (["--count", "0"], "--count"),
        (["--count", "-1"], "--count"),
    ])
    def test_simulate_count_flags_are_usage_errors(self, tmp_path, capsys,
                                                   flags, named):
        out = tmp_path / "paths.csv"
        assert main(["simulate", "--out", str(out)] + flags) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_full_cap_refusal(self, ex1_files, capsys):
        tmp, train, config = ex1_files
        bundle = tmp / "model.json"
        main(["fit", "--config", str(config), "--train", str(train),
              "--out", str(bundle)])
        query = tmp / "q.csv"
        write_query(query, [0.5])
        config.write_text("[run]\nfull_cap = 2\n")
        capsys.readouterr()
        rc = main(["predict", "--config", str(config), "--bundle", str(bundle),
                   "--query", str(query), "--out", str(tmp / "o.csv"),
                   "--method", "full"])
        assert rc == 1
        assert "exceeds the cap 2" in capsys.readouterr().err
        assert not (tmp / "o.csv").exists()

    def test_query_dimension_mismatch(self, ex1_files):
        tmp, train, config = ex1_files
        bundle = tmp / "model.json"
        main(["fit", "--config", str(config), "--train", str(train),
              "--out", str(bundle)])
        query = tmp / "q.csv"
        query.write_text("a,b\n0.1,0.2\n")
        assert main(["predict", "--bundle", str(bundle), "--query", str(query),
                     "--out", str(tmp / "o.csv")]) == 1

    def test_wrong_query_width_has_one_message(self, ex1_files, monkeypatch,
                                               capsys):
        # the exact model, the bank and predict name both dimensions in the
        # same words, and predict refuses before it builds any model
        tmp, train, config = ex1_files
        bundle = tmp / "model.json"
        main(["fit", "--config", str(config), "--train", str(train),
              "--out", str(bundle)])
        kernel = load_bundle(str(bundle))["kernel"]
        part = nk.partition_consecutive(EX1_X, 2)
        Xq = np.array([[0.1, 0.2]])
        messages = set()
        for evaluate in (nk.FullModel(kernel, EX1_X, EX1_F).predict,
                         nk.SubModelBank(kernel, EX1_X, EX1_F, part).layer1):
            with pytest.raises(DimensionMismatch) as err:
                evaluate(Xq)
            messages.add(str(err.value))

        def no_model(*args, **kwargs):
            raise AssertionError("built a model before checking the queries")

        monkeypatch.setattr(cli, "FullModel", no_model)
        monkeypatch.setattr(cli, "SubModelBank", no_model)
        query = tmp / "q.csv"
        query.write_text("a,b\n0.1,0.2\n")
        for method in ("nested", "full", "rbcm"):
            capsys.readouterr()
            assert main(["predict", "--bundle", str(bundle), "--query",
                         str(query), "--out", str(tmp / "o.csv"),
                         "--method", method]) == 1
            messages.add(capsys.readouterr().err.removeprefix("error: ").strip())
        assert messages == {"query dimension 2 does not match the model dimension 1"}
        assert not (tmp / "o.csv").exists()


def test_run_settings_come_from_the_config_alone():
    # a [run] key with a flag of the same name would give one setting two
    # sources and a precedence rule between them
    run_keys = {f.name for f in fields(RunSettings)}
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    for name, command in commands.items():
        clash = run_keys & {a.dest for a in command._actions}
        assert not clash, f"{name} has flags for run keys {sorted(clash)}"


# a whole file, or an edit of a fitted bundle's payload
BAD_BUNDLES = {
    "foreign-format": '{"format": "other"}\n',
    "not-json": "mean\n0.5\n",
    "unsupported-version": lambda p: p.update(version=99),
    "missing-y-offset": lambda p: p.pop("y_offset"),
    "wrong-n-leaves": lambda p: p["tree"].update(n_leaves=4),
    "too-few-labels": lambda p: p.update(labels=p["labels"][:-1]),
    "kernel-dimension": lambda p: p["kernel"].update(lengthscales=[0.2, 0.2]),
}


@pytest.mark.parametrize("spoil", BAD_BUNDLES.values(), ids=BAD_BUNDLES.keys())
def test_bad_bundles_exit_2_naming_the_file(ex1_files, capsys, spoil):
    tmp, train, config = ex1_files
    bundle = tmp / "model.json"
    assert main(["fit", "--config", str(config), "--train", str(train),
                 "--out", str(bundle)]) == 0
    if isinstance(spoil, str):
        bundle.write_text(spoil)
    else:
        payload = json.loads(bundle.read_text())
        spoil(payload)
        bundle.write_text(json.dumps(payload))
    query = tmp / "q.csv"
    write_query(query, [0.5])
    out = tmp / "o.csv"
    capsys.readouterr()
    assert main(["predict", "--bundle", str(bundle), "--query", str(query),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"i/o error: {bundle}") and "Traceback" not in err
    assert not out.exists()
    with pytest.raises(BundleError):
        load_bundle(bundle)


def test_simulated_csv_fits_and_predicts(tmp_path):
    # simulate writes `#` comment lines above its header; fit reads them back
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(EX1_CONFIG)
    sim, bundle = tmp_path / "sim.csv", tmp_path / "model.json"
    assert main(["simulate", "--config", str(cfg), "--out", str(sim),
                 "--points", "30", "--seed", "2"]) == 0
    assert sim.read_text().startswith("# ")
    assert main(["fit", "--config", str(cfg), "--train", str(sim),
                 "--out", str(bundle)]) == 0
    bun = load_bundle(str(bundle))
    assert bun["X"].shape == (30, 1)
    query, out = tmp_path / "q.csv", tmp_path / "pred.csv"
    write_query(query, [0.25, 0.5])
    assert main(["predict", "--bundle", str(bundle), "--query", str(query),
                 "--out", str(out), "--with-variance"]) == 0
    rows = [r for r in out.read_text().splitlines() if not r.startswith("#")]
    assert rows[0] == "mean,variance" and len(rows) == 3


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
        for method in ("nested", "full") + baselines.METHODS:
            for threads, name in ((1, "t1.csv"), (4, "t4.csv")):
                config.write_text(f"[run]\nthreads = {threads}\n")
                assert main(["predict", "--config", str(config), "--bundle",
                             str(bundle), "--query", str(query), "--out",
                             str(tmp / name), "--with-variance",
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
            config.write_text(f"[run]\nthreads = {threads}\n")
            assert main(["predict", "--config", str(config), "--bundle",
                         str(bundle), "--query", str(query), "--out",
                         str(tmp_path / f"t{threads}.csv"),
                         "--with-variance"]) == 0
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

    def test_fit_and_loo_estimate_agree_at_any_variance(self, tmp_path):
        # estimation runs at unit variance, so the configured variance moves
        # neither the fitted length-scales nor sigma2
        X = np.linspace(0.0, 1.0, 60)
        train = tmp_path / "train.csv"
        train.write_text("\n".join(
            ["x,y"] + [f"{repr(float(a))},{repr(float(np.sin(6 * a) + a))}"
                       for a in X]) + "\n")
        fitted = []
        for variance in ("1.0", "3.7"):
            cfg = tmp_path / f"est{variance}.cfg"
            cfg.write_text(f"""
[kernel]
family = matern52
variance = {variance}
lengthscales = 0.2

[partition]
mode = consecutive
p = 4

[tree]
mode = flat

[estimation]
enabled = true
n_iter = 3
q = 8
""")
            bundle = tmp_path / f"model{variance}.json"
            assert main(["fit", "--config", str(cfg), "--train", str(train),
                         "--out", str(bundle)]) == 0
            fitted.append(load_bundle(str(bundle))["kernel"])
        out = tmp_path / "est.json"
        assert main(["loo-estimate", "--config", str(cfg), "--train",
                     str(train), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert fitted[0] == fitted[1]
        assert fitted[1] == nk.KernelSpec("matern52", payload["sigma2"],
                                          tuple(payload["theta"]))
