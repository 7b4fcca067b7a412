"""End-to-end acceptance suite.

One test per release criterion, each at its stated tolerance; the terminal
summary prints one PASS/FAIL line per criterion.  Tolerances are pinned
here, not configurable.
"""

import json
import time
import tracemalloc
import weakref
from unittest import mock

import numpy as np
from conftest import random_kernel, separated_points

try:
    from threadpoolctl import threadpool_limits
except ImportError:  # pragma: no cover - measurement still works, noisier
    from contextlib import nullcontext as threadpool_limits

import nestedkrig as nk
from nestedkrig import kernels, metrics
from nestedkrig import tree as tree_engine
from nestedkrig.aggregation import AggregatedProcess, aggregate, diagnostics_vs_full
from nestedkrig.cli import main
from nestedkrig.estimation import (SgdConfig, estimate_sigma2,
                                   grid_profile_loglik, loo_predict, sgd_fit)
from nestedkrig.gpcore import FullModel, SubModelBank, submodel_predict
from nestedkrig.kernels import KernelSpec
from nestedkrig.tree import (AggregationTree, nested_predict,
                             nested_predict_batch, plan_tree)

EX1_KERNEL = KernelSpec("squared-exponential", 1.0, (0.2,))
EX1_X = np.array([[0.1], [0.3], [0.5], [0.7], [0.9]])
EX1_F = np.sin(2 * np.pi * EX1_X[:, 0]) + EX1_X[:, 0]
EX1_PART = nk.Partition(labels=np.array([0, 0, 0, 1, 1]), p=2)


def singleton_instance(rng, trial):
    d = 1 if trial % 2 == 0 else 3
    n = int(rng.integers(8, 31))
    kern = random_kernel(rng, d)
    X = separated_points(rng, n, d, 0.02 if d == 1 else 0.08)
    f = nk.sample_paths(kern, X, 1, int(rng.integers(2 ** 31)))[0]
    return kern, X, f


def test_c01_singleton_experts_match_full_model():
    # one expert per observation point carries all information: flat and
    # nested aggregation must coincide with exact conditioning to 1e-8
    started = time.time()
    rng = np.random.default_rng(1234)
    worst = 0.0
    for trial in range(20):
        kern, X, f = singleton_instance(rng, trial)
        n = X.shape[0]
        full = FullModel(kern, X, f)
        bank = SubModelBank(kern, X, f, nk.Partition(labels=np.arange(n), p=n))
        tree = AggregationTree.flat(n, n)
        Xq = rng.uniform(0, 1, (40, X.shape[1]))
        m_full, v_full = full.predict(Xq)
        m_nested, v_nested = nested_predict_batch(bank, tree, Xq)
        worst = max(worst, np.abs(m_full - m_nested).max(),
                    np.abs(v_full - v_nested).max())
        for t in range(0, 40, 13):
            res = aggregate(kern.variance, *submodel_predict(bank, Xq[t]))
            worst = max(worst, abs(res.mean - m_full[t]),
                        abs(res.variance - v_full[t]))
    assert worst <= 1e-8
    assert time.time() - started < 5.0


def test_c02_two_layer_tree_collapses_to_pointwise():
    # a root aggregating every expert is algebraically the pointwise rule
    started = time.time()
    rng = np.random.default_rng(77)
    for _ in range(100):
        d = int(rng.integers(1, 3))
        n = int(rng.integers(8, 21))
        p = int(rng.integers(2, min(7, n // 2 + 1)))
        kern = random_kernel(rng, d)
        X = separated_points(rng, n, d, 0.02 if d == 1 else 0.08)
        f = nk.sample_paths(kern, X, 1, int(rng.integers(2 ** 31)))[0]
        part = nk.partition_random(n, p, int(rng.integers(2 ** 31)))
        bank = SubModelBank(kern, X, f, part)
        tree = AggregationTree.flat(n, p)
        x = rng.uniform(0, 1, d)
        res = aggregate(kern.variance, *submodel_predict(bank, x))
        m, v = nested_predict(bank, tree, x)
        assert abs(m - res.mean) <= 1e-12
        assert abs(v - res.variance) <= 1e-12
    assert time.time() - started < 5.0


def test_c03_interpolation_at_every_design_point():
    rng = np.random.default_rng(4321)
    for trial in range(50):
        d = int(rng.integers(1, 3))
        n = int(rng.integers(10, 26))
        p = int(rng.integers(3, 7))
        kern = random_kernel(rng, d)
        X = separated_points(rng, n, d, 0.02 if d == 1 else 0.08)
        f = nk.sample_paths(kern, X, 1, int(rng.integers(2 ** 31)))[0]
        part = nk.partition_random(n, p, int(rng.integers(2 ** 31)))
        bank = SubModelBank(kern, X, f, part)
        if trial % 2 == 0:
            tree = AggregationTree.flat(n, p)
        else:
            mid = [tuple(range(i, min(i + 2, p))) for i in range(0, p, 2)]
            tree = AggregationTree(n_leaves=n, n_layer1=p,
                                   levels=(tuple(mid),
                                           (tuple(range(len(mid))),)))
        m, v = nested_predict_batch(bank, tree, X)
        tol = 1e-6 * kern.variance
        assert np.abs(m - f).max() <= tol
        assert v.max() <= tol


def test_c04_variance_sandwich():
    # aggregated variance sits between the full model's and the best
    # single expert's mean squared error
    rng = np.random.default_rng(5150)
    checked = 0
    while checked < 1000:
        kern, X, f, part = _random_instance(rng)
        bank = SubModelBank(kern, X, f, part)
        full = FullModel(kern, X, f)
        tree = AggregationTree.flat(X.shape[0], part.p)
        Xq = rng.uniform(0, 1, (50, X.shape[1]))
        _, v_full = full.predict(Xq)
        _, v_agg = nested_predict_batch(bank, tree, Xq)
        L1 = bank.layer1(Xq)
        expert_mse = (kern.variance - 2.0 * L1.k
                      + np.einsum("qii->qi", L1.K)).min(axis=1)
        gap = v_agg - v_full
        assert np.all(gap >= -1e-8)
        assert np.all(gap <= expert_mse - v_full + 1e-8)
        checked += 50


def _random_instance(rng):
    d = int(rng.integers(1, 3))
    n = int(rng.integers(10, 26))
    p = int(rng.integers(2, 7))
    kern = random_kernel(rng, d)
    X = separated_points(rng, n, d, 0.02 if d == 1 else 0.08)
    f = nk.sample_paths(kern, X, 1, int(rng.integers(2 ** 31)))[0]
    part = nk.partition_random(n, p, int(rng.integers(2 ** 31)))
    return kern, X, f, part


def _identity_gaps(kern, X, f, part, x):
    bank = SubModelBank(kern, X, f, part)
    full = FullModel(kern, X, f)
    d = diagnostics_vs_full(full, bank, x)
    # identity values carry variance units; a tiny variance-scaled floor
    # keeps the relative check meaningful when the true gap is exactly zero
    floor = 1e-8 * kern.variance

    def rel(a, b):
        return abs(a - b) / max(abs(a), abs(b), floor)

    return rel(d.eq_mean_lhs, d.eq_mean_rhs), rel(d.eq_var_lhs, d.eq_var_rhs)


def test_c05_modified_prior_kernel_identities():
    bank = SubModelBank(EX1_KERNEL, EX1_X, EX1_F, EX1_PART)
    process = AggregatedProcess(bank)
    rng = np.random.default_rng(31)
    # variance preservation is exact, not approximate
    for x in rng.uniform(0, 1, 25):
        assert process.cov([x], [x]) == EX1_KERNEL.variance
    # on design-point pairs the modified prior coincides with the kernel
    for xa in EX1_X[:, 0]:
        for xb in EX1_X[:, 0]:
            got = process.cov([xa], [xb])
            want = nk.cross_matrix(EX1_KERNEL, [[xa]], [[xb]])[0, 0]
            assert abs(got - want) <= 1e-8
    # both error-vs-kernel-difference identities on the worked example
    for x in (0.6, 0.22, 0.85):
        r1, r2 = _identity_gaps(EX1_KERNEL, EX1_X, EX1_F, EX1_PART, [x])
        assert r1 <= 1e-6 and r2 <= 1e-6
    # and across random instances
    for _ in range(20):
        kern, X, f, part = _random_instance(rng)
        bank = SubModelBank(kern, X, f, part)
        process = AggregatedProcess(bank)
        x = rng.uniform(0.05, 0.95, X.shape[1])
        assert process.cov(x, x) == kern.variance
        i, j = rng.integers(X.shape[0]), rng.integers(X.shape[0])
        got = process.cov(X[i], X[j])
        want = nk.cross_matrix(kern, X[i:i + 1], X[j:j + 1])[0, 0]
        assert abs(got - want) <= 1e-8
        r1, r2 = _identity_gaps(kern, X, f, part, x)
        assert r1 <= 1e-6 and r2 <= 1e-6


def test_c06_simulated_comparison_rankings():
    started = time.time()
    reports = metrics.run_benchmark_51([7 + r for r in range(50)])
    assert len(reports) == 50 * len(metrics.BENCH_METHODS)
    med = metrics.summarize_medians(reports)
    rivals = [m for m in ("poe", "gpoe2", "bcm", "rbcm", "spv")]
    assert all(med["nested"]["mse"] < med[m]["mse"] for m in rivals)
    assert all(med["nested"]["mnlp"] < med[m]["mnlp"] for m in rivals)
    assert med["poe"]["mve"] < 0.0
    # the exact model is the best-scoring density on average
    full_mnlp = float(np.median([r.full_mnlp for r in reports
                                 if r.method == "nested"]))
    assert all(full_mnlp <= med[m]["mnlp"] for m in med)
    assert time.time() - started < 120.0


def test_c07_consistency_and_stalling_trends():
    started = time.time()
    sizes = [50, 100, 200, 400]
    nested = metrics.run_consistency_demo(sizes, "nested", replicates=200, seed=0)
    assert nested[-1][1] <= nested[0][1] / 4.0
    for method in ("bcm", "poe"):
        trend = metrics.run_consistency_demo(sizes, method, replicates=200,
                                             seed=0)
        assert trend[-1][1] > 0.25 * trend[0][1]
    full = metrics.run_consistency_demo(sizes, "full", replicates=200, seed=0)
    assert full[-1][1] < full[0][1]
    assert time.time() - started < 600.0


def test_c08_complexity_scaling_and_memory():
    # planner closed form at n=1024
    plan = plan_tree(1024, "optimal", height=2)
    assert plan.child_counts == (17, 59)

    kern = KernelSpec("matern52", 1.0, (0.05,))
    rng = np.random.default_rng(0)
    setups = {}
    for n in (1000, 2000, 4000):
        X = np.sort(rng.uniform(0, 1, n)).reshape(-1, 1)
        f = rng.standard_normal(n)
        tree_plan = plan_tree(n, "two_layer_sqrt")
        part = nk.partition_consecutive(X, tree_plan.p)
        bank = SubModelBank(kern, X, f, part)
        Xq = rng.uniform(0, 1, (100, 1))
        setups[n] = (bank, tree_plan.tree, Xq)

    # wall-clock of 100 point-by-point predictions; the per-point engine is
    # the unit the n^2 cost model describes, and pinning the BLAS pool keeps
    # the measurement stable
    times = {n: np.inf for n in setups}
    with threadpool_limits(1):
        for n, (bank, tree, Xq) in setups.items():
            nested_predict(bank, tree, Xq[0])
        for _ in range(2):
            for n, (bank, tree, Xq) in setups.items():
                t0 = time.perf_counter()
                for t in range(Xq.shape[0]):
                    nested_predict(bank, tree, Xq[t])
                times[n] = min(times[n], time.perf_counter() - t0)
    ns = np.array(sorted(times), dtype=float)
    ts = np.array([times[n] for n in sorted(times)])
    s = np.polyfit(np.log(ns), np.log(ts), 1)[0]
    assert 1.6 <= s <= 2.4, f"scaling exponent {s:.2f} (times {ts})"

    # allocation audit on batch prediction: nothing n x n appears and the
    # peak grows sub-quadratically
    peaks = {}
    for n, (bank, tree, Xq) in setups.items():
        nested_predict_batch(bank, tree, Xq)
        tracemalloc.start()
        nested_predict_batch(bank, tree, Xq)
        peaks[n] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        # anything materializing even one n x n float64 block would trip this
        assert peaks[n] < 8 * n * n, f"peak {peaks[n]} bytes at n={n}"
    s_mem = np.polyfit(np.log(ns),
                       np.log([float(peaks[n]) for n in sorted(peaks)]), 1)[0]
    assert s_mem < 1.6

    # on a height-3 tree the first aggregation layer streams the expert
    # cross-covariance rows: no (q, p, p) array is ever held
    bank, _, Xq = setups[2000]
    deep = plan_tree(2000, "equilibrated", height=3)
    assert deep.p == 154
    X = bank.X
    bank = SubModelBank(kern, X, bank.y, nk.partition_consecutive(X, deep.p))
    nested_predict_batch(bank, deep.tree, Xq)
    tracemalloc.start()
    nested_predict_batch(bank, deep.tree, Xq)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    q = Xq.shape[0]
    assert peak < q * deep.p ** 2 * 8, f"peak {peak} bytes, p={deep.p}, q={q}"

    # a two-layer tree's root aggregates every expert, so a 512-query chunk
    # holds all of (q, p, p); beside it at most two n x q arrays are alive
    # at a time (the query-major weights, then those and the fill's product
    # W), plus scratch of about c x n
    bank, flat, _ = setups[4000]
    n, p, q = bank.n, bank.p, 512
    Xq = rng.uniform(0, 1, (q, 1))
    nested_predict_batch(bank, flat, Xq)
    tracemalloc.start()
    nested_predict_batch(bank, flat, Xq)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    bound = 3 * n * q * 8 + q * p * p * 8
    assert peak < bound, f"peak {peak} bytes, bound {bound}, n={n}, p={p}"

    # no n x q covariance is evaluated, and until the fill the only n x q
    # float array alive is the query-major weights: at every kernel
    # evaluation tracemalloc holds at most one block of n q reals, at the
    # start of the fill exactly one, the weights, and the fill's weights are
    # freed before the root solve
    refs = {}
    cross_cov_rows = bank.cross_cov_rows
    cross_matrix_into = kernels.cross_matrix_into
    solves = []
    nq_bytes = n * q * 8

    def nq_blocks():
        return sum(1 for t in tracemalloc.take_snapshot().traces
                   if t.size == nq_bytes)

    def kernel_spy(spec, Am, Bm, out):
        assert out.shape != (n, q)
        assert nq_blocks() <= 1
        return cross_matrix_into(spec, Am, Bm, out)

    def fill_spy(weights, kM, out, row_done=None):
        assert weights[0].nbytes == nq_bytes and nq_blocks() == 1
        refs["AT"] = weakref.ref(weights[0])
        return cross_cov_rows(weights, kM, out, row_done)

    def root_solve_spy(kmat, kvec):
        assert refs["AT"]() is None
        solves.append(kmat.shape)
        return solve_weights(kmat, kvec)

    solve_weights = tree_engine.solve_weights
    bank.cross_cov_rows = fill_spy
    tracemalloc.start()
    try:
        with mock.patch.object(tree_engine, "solve_weights", root_solve_spy), \
                mock.patch.object(kernels, "cross_matrix_into", kernel_spy):
            nested_predict_batch(bank, flat, Xq)
    finally:
        tracemalloc.stop()
    assert solves == [(q, p, p)] and "AT" in refs


def _estimation_dataset(seed):
    rng = np.random.default_rng([9000, seed])
    X = rng.uniform(0, 1, (200, 1))
    f = nk.sample_paths(KernelSpec("matern52", 1.0, (0.05,)), X, 1,
                        [9001, seed])[0]
    ds = nk.Dataset(X=X, y=f)
    part = nk.partition_consecutive(X, 20)
    tree = AggregationTree.flat(200, 20)
    return ds, part, tree


def test_c09_lengthscale_recovery_and_variance_estimate():
    started = time.time()
    hits = 0
    coarse = [0.013, 0.03, 0.07, 0.17, 0.4]
    for seed in range(10):
        ds, part, tree = _estimation_dataset(seed)
        start = grid_profile_loglik(ds, part, "matern52", coarse)
        cfg = SgdConfig(theta0=start.lengthscales, a=300.0, c=0.3, alpha=0.2,
                        q=50, n_iter=300, seed=seed)
        res = sgd_fit(ds, part, tree, cfg, family="matern52")
        if 0.025 <= float(res.theta[0]) <= 0.1:
            hits += 1
        # variance estimator judged under the correct correlation model
        records = loo_predict(ds, part, tree, KernelSpec("matern52", 1.0, (0.05,)))
        s2 = estimate_sigma2(records, ds.y)
        assert 0.5 <= s2 <= 2.0
    assert hits >= 8, f"recovered {hits}/10"
    assert time.time() - started < 300.0


def test_c10_cli_byte_determinism(tmp_path):
    train = tmp_path / "train.csv"
    lines = ["x,y"] + [f"{repr(float(a))},{repr(float(b))}"
                       for a, b in zip(EX1_X[:, 0], EX1_F)]
    train.write_text("\n".join(lines) + "\n")
    config = tmp_path / "run.cfg"
    config.write_text("""
[kernel]
family = squared-exponential
variance = 1.0
lengthscales = 0.2

[partition]
mode = consecutive
p = 2

[tree]
mode = flat

[estimation]
n_iter = 2
q = 4
seed = 3
""")
    query = tmp_path / "q.csv"
    query.write_text("\n".join(
        ["x"] + [repr(float(v)) for v in np.linspace(0, 1, 1200)]) + "\n")

    for tag in ("a", "b"):
        assert main(["fit", "--config", str(config), "--train", str(train),
                     "--out", str(tmp_path / f"model_{tag}.json")]) == 0
        assert main(["predict", "--bundle", str(tmp_path / f"model_{tag}.json"),
                     "--query", str(query), "--out", str(tmp_path / f"pred_{tag}.csv"),
                     "--with-variance", "--threads", "1" if tag == "a" else "4",
                     "--method", "nested"]) == 0
        # the exact model's chunks: concurrent triangular solves at tag b
        assert main(["predict", "--bundle", str(tmp_path / f"model_{tag}.json"),
                     "--query", str(query),
                     "--out", str(tmp_path / f"full_{tag}.csv"),
                     "--with-variance", "--threads", "1" if tag == "a" else "4",
                     "--method", "full"]) == 0
        # a baseline rule's chunks, on a pool of four at tag b
        assert main(["predict", "--bundle", str(tmp_path / f"model_{tag}.json"),
                     "--query", str(query),
                     "--out", str(tmp_path / f"rbcm_{tag}.csv"),
                     "--with-variance", "--threads", "1" if tag == "a" else "4",
                     "--method", "rbcm"]) == 0
        assert main(["simulate", "--config", str(config),
                     "--out", str(tmp_path / f"sim_{tag}.csv"),
                     "--points", "101", "--count", "2", "--seed", "5"]) == 0
        assert main(["benchmark", "--replications", "2", "--seed", "11",
                     "--out-dir", str(tmp_path / f"bench_{tag}")]) == 0
        assert main(["consistency", "--method", "bcm", "--sizes", "50,100",
                     "--replicates", "20", "--seed", "2",
                     "--out", str(tmp_path / f"cons_{tag}.csv")]) == 0
        assert main(["loo-estimate", "--config", str(config),
                     "--train", str(train),
                     "--out", str(tmp_path / f"loo_{tag}.json")]) == 0

    pairs = [("model_a.json", "model_b.json"), ("pred_a.csv", "pred_b.csv"),
             ("full_a.csv", "full_b.csv"), ("rbcm_a.csv", "rbcm_b.csv"),
             ("sim_a.csv", "sim_b.csv"), ("cons_a.csv", "cons_b.csv"),
             ("loo_a.json", "loo_b.json")]
    for left, right in pairs:
        assert (tmp_path / left).read_bytes() == (tmp_path / right).read_bytes(), left
    for name in ("reports.csv", "summary.json", "plotdata.csv"):
        assert ((tmp_path / "bench_a" / name).read_bytes()
                == (tmp_path / "bench_b" / name).read_bytes()), name
    payload = json.loads((tmp_path / "loo_a.json").read_text())
    assert payload["sigma2"] > 0.0
