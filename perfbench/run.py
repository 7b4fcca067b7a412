"""nestedkrig benchmark: CLI throughput, set-up time and memory per workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload predict-sqrt --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

Each run generates the workload's input files from ``--seed`` under
``.bench_work/``, then starts one fresh worker process (``worker.py``)
with OpenBLAS/OpenMP pinned to one thread and ``run.threads = 1``. The
worker runs the set-up command, then repeats the main CLI command back to
back (a closed loop, one client) for ``--seconds`` and checks every
command's outputs outside the timed region. Everything is single-threaded.

With ``--trace 0`` the last line of stdout is the JSON result carrying the
end-to-end metrics; with ``--trace 1`` the time is split between an
untraced and a traced worker, the JSON carries the per-layer metrics, and
the lines above it give the tracing overhead and accounting. The lines
above the JSON also give the environment, error counts, output digests
and the paper's cost model for the workload. A full record of the run is
written to ``record.json`` in the run's directory.

``--self-test`` runs every workload at toy size, in both modes, asserts
that each declared metric prints with its unit and that all checks pass,
and asserts that a deliberately corrupted prediction file is counted as a
failed operation.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads, here and in every child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("NESTEDKRIG_THREADS", None)

import argparse  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
BASELINE_ENV = os.path.join(HERE, "baseline_env.json")

# (name, unit): the metrics of a --trace 0 run, on every workload
E2E_METRICS = (("setup_s", "s"), ("items_per_s", "1/s"), ("peak_rss_mb", "MiB"))
IMPORT_PROBES = 3
MIN_MAIN = 3          # main commands per untraced worker, whatever --seconds
MIN_MAIN_TRACED = 2   # per worker when a traced run splits its time in two
RUN_DEADLINE_S = 170  # a run must end within 180 s


def _worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def import_probe():
    """Seconds from process start to ``import nestedkrig.cli`` done."""
    code = ("import time, nestedkrig.cli as c; "
            "print(c.__file__); print(repr(time.perf_counter()))")
    began = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", code], env=_worker_env(),
                         capture_output=True, text=True, timeout=60, check=True)
    path, stamp = out.stdout.split()
    if not os.path.abspath(path).startswith(SRC + os.sep):
        raise RuntimeError(f"nestedkrig imported from {path}, not from {SRC}")
    return float(stamp) - began


def run_worker(spec, tag, seconds, trace, min_main, deadline):
    spec = dict(spec, tag=tag, seconds=seconds, trace=bool(trace),
                min_main=min_main, src=SRC,
                set_up_repeats=workloads.SET_UP_REPEATS)
    path = os.path.join(spec["dir"], f"spec-{tag}.json")
    with open(path, "w") as fh:
        json.dump(spec, fh)
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), path],
                   env=_worker_env(), check=True,
                   timeout=max(1.0, deadline - time.perf_counter()))
    with open(os.path.join(spec["dir"], f"result-{tag}.json")) as fh:
        return json.load(fh)


def _tail(values):
    """Highest percentile (90 or 75) with at least ten samples beyond it."""
    for pct in (90, 75):
        if len(values) * (100 - pct) / 100 >= 10:
            return f"p{pct} {statistics.quantiles(values, n=100)[pct - 1]:.4f} s"
    return "too few for a tail percentile"


def end_to_end(result, probes, items):
    set_up = [op["seconds"] for op in result["ops"] if op["kind"] == "set_up"]
    main = [op["seconds"] for op in result["ops"] if op["kind"] == "main"]
    fit = statistics.median(set_up) if set_up else 0.0
    import_s = statistics.median(probes)
    return {
        "setup_s": import_s + fit,
        "items_per_s": items / statistics.median(main),
        "peak_rss_mb": result["peak_rss_kib"] / 1024.0,
    }, {"import_s": import_s, "set_up_s": fit, "set_up": set_up, "main": main}


def _balanced(n, p):
    """Group sizes of a consecutive partition of n points into p groups."""
    import numpy as np

    sizes = np.full(p, n // p)
    sizes[: n % p] += 1
    return sizes


def cost_model(spec):
    """The paper's cost model next to the computed work of one main command."""
    import numpy as np
    from nestedkrig import cli, metrics
    from nestedkrig.bundle import load_bundle
    from nestedkrig.tree import AggregationTree, complexity_estimate

    model = spec["model"]
    if model["kind"] == "bundle":
        bundle = load_bundle(model["path"])
        tree, q = bundle["tree"], model["q"]
        sizes = np.bincount(bundle["partition"].labels)
        n = int(sizes.sum())
        chunks = math.ceil(q / cli.PREDICT_CHUNK)
        sq = int(np.sum(sizes ** 2))
        entries = sq + n * q + chunks * (n * n - sq) // 2
        batch = min(q, cli.PREDICT_CHUNK)
    elif model["kind"] == "loo":
        n, p, q, n_iter = model["n"], model["p"], model["q"], model["n_iter"]
        tree = AggregationTree.flat(n, p)
        sizes = _balanced(n, p)
        sq = int(np.sum(sizes ** 2))
        fill = (n * n - sq) // 2
        # per deleted index: the downdated (c-1, c-1) block and its column,
        # c (c - 1) entries, averaged over the indices of every group
        mean_index = float(np.sum(sizes * sizes * (sizes - 1))) / n
        grid = 7 * sq
        entries = int(grid + 2 * n_iter * (sq + n * q + q * mean_index + fill)
                      + sq + n * n + n * mean_index + fill)
        batch = q
    else:
        n, p, g = metrics.BENCH_N, metrics.BENCH_P, metrics.BENCH_GRID
        tree = AggregationTree.flat(n, p)
        sq = int(np.sum(_balanced(n, p) ** 2))
        per_instance = (n + g) ** 2 + n * n + 3 * n * g + sq + (n * n - sq)
        entries = (model["replications"] + 1) * per_instance
        batch = g
    c_alpha, c_beta, storage = complexity_estimate(tree, 1.0, 1.0)
    p = tree.n_layer1
    return {"c_alpha": c_alpha, "c_beta": c_beta, "storage": storage,
            "kernel_entries_per_command": entries,
            "expert_cov_bytes_per_chunk": batch * p * p * 8,
            "chunk": batch, "p": p}


def compare_env(env):
    """Keys where this run's environment differs from the recorded baseline."""
    if not os.path.exists(BASELINE_ENV):
        return ["<no baseline recorded>"]
    with open(BASELINE_ENV) as fh:
        base = json.load(fh)
    keys = sorted(set(base) | set(env))
    return [k for k in keys if k != "run.threads" and base.get(k) != env.get(k)]


def run_workload(name, seed, seconds, trace, toy=False, corrupt=False):
    """One benchmark run; returns (result line dict, human-readable lines)."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    work = os.path.join(WORK, f"{name}-s{seed}-t{trace}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    spec = workloads.prepare(name, seed, work, toy=toy)
    spec["corrupt"] = corrupt
    probes = [import_probe() for _ in range(IMPORT_PROBES)]
    if trace:
        half = seconds / 2.0
        base = run_worker(spec, "untraced", half, False, MIN_MAIN_TRACED, deadline)
        traced = run_worker(spec, "traced", half, True, MIN_MAIN_TRACED, deadline)
        workers = {"untraced": base, "traced": traced}
    else:
        base = run_worker(spec, "untraced", seconds, False, MIN_MAIN, deadline)
        workers = {"untraced": base}
    costs = cost_model(spec)

    ops = [op for w in workers.values() for op in w["ops"]]
    failed = [op for op in ops if op["error"] is not None]
    e2e, detail = end_to_end(base, probes, spec["items"])
    env = base["env"]
    env_diff = compare_env(env)
    digest = hashlib.sha256()
    for sha in sorted({s for op in base["ops"] for s in op["sha256"]}):
        digest.update(sha.encode())
    digest = digest.hexdigest()
    correct = not failed
    item_name, item_unit = workloads.ITEM_NAMES[name]

    lines = [
        f"workload {name} seed {seed} seconds {seconds} trace {trace}: "
        f"closed loop, one client, single-threaded",
        f"why: {workloads.WHY[name]}",
        f"env: nproc {env['nproc']} (affinity {env['affinity']}), cpu {env['cpu']}, "
        f"{env['blas']} [{env['blas_config']}], python {env['python']}, "
        f"numpy {env['numpy']}, scipy {env['scipy']}, threads {env['threads_env']}, "
        f"run.threads {env['run.threads']}",
        "env vs baseline: " + ("same" if not env_diff else
                               "DIFFERS in " + ", ".join(env_diff)
                               + " -- do not compare these figures with the baseline's"),
        f"setup_s = {e2e['setup_s']!r} s  (import {detail['import_s']:.4f} s, median "
        f"of {len(probes)} probes; set-up command {detail['set_up_s']:.4f} s, median "
        f"of {len(detail['set_up'])})",
        f"items_per_s = {e2e['items_per_s']!r} 1/s  (= {item_name}, {item_unit}; "
        f"{spec['items']} per command; median of {len(detail['main'])} commands "
        f"{statistics.median(detail['main']):.4f} s, min {min(detail['main']):.4f}, "
        f"max {max(detail['main']):.4f}; {_tail(detail['main'])})",
        f"peak_rss_mb = {e2e['peak_rss_mb']!r} MiB  (ru_maxrss of the worker)",
        f"error_rate = {len(failed)}/{len(ops)} (failed/attempted operations)",
    ]
    for op in failed[:5]:
        lines.append(f"  failed {op['kind']}: {op['error'].splitlines()[-1][:300]}")
    lines += [
        f"cost model (computed): complexity_estimate c_alpha={costs['c_alpha']:.6g} "
        f"c_beta={costs['c_beta']:.6g} storage={costs['storage']:.6g} reals; "
        f"kernel entries per main command {costs['kernel_entries_per_command']}; "
        f"(q, p, p) expert cross-covariance {costs['expert_cov_bytes_per_chunk']} "
        f"bytes per chunk of {costs['chunk']} (p={costs['p']})",
        f"outputs sha256 {digest}",
        "aggregation: not measured (no workload uses the modified-prior process)",
    ]

    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "env": env, "env_differs": env_diff,
              "probes_s": probes, "e2e": e2e, "cost_model": costs,
              "outputs_sha256": digest, "workers": workers}
    if trace:
        traced_e2e, _ = end_to_end(traced, probes, spec["items"])
        acc = traced["accounting"]
        lines.append("tracing overhead (traced - untraced): " + "; ".join(
            f"{k} {traced_e2e[k] - e2e[k]:+.6g} {u}" for k, u in E2E_METRICS))
        lines.append(
            f"tracing accounting: sum of span self times {acc['self_sum_s']:.6f} s "
            f"vs command wall {acc['command_wall_s']:.6f} s, slack "
            f"{acc['slack_s']:.6f} s over {acc['spans']} spans: "
            + ("ok" if acc["ok"] else "MISMATCH"))
        entries = traced["layers"]["kernels.entries"]["value"]
        lines.append(f"kernel entries per cycle: measured {entries}, computed "
                     f"{costs['kernel_entries_per_command']}")
        same = ({s for op in traced["ops"] for s in op["sha256"]}
                == {s for op in base["ops"] for s in op["sha256"]})
        lines.append("traced outputs byte-identical to untraced: "
                     + ("yes" if same else "NO"))
        correct = correct and same and acc["ok"]
        lines.append("per-layer metrics, per cycle (one set-up and one main command):")
        for metric, unit, _, _, moves in tracing.LAYER_METRICS:
            value = traced["layers"][metric]["value"]
            share = (f" ({100.0 * value / acc['cycle_s']:.3f} % of the cycle)"
                     if unit == "s" else "")
            lines.append(f"  {metric} = {value!r} {unit}{share}  -> {moves}")
        metrics = tracing.result_metrics(traced["layers"], acc["cycle_s"])
        record["traced_e2e"] = traced_e2e
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in E2E_METRICS}

    result = {"correct": correct, "attempted": len(ops), "failed": len(failed),
              "metrics": metrics}
    record["result"] = result
    with open(os.path.join(work, "record.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for pattern in ("*.csv", "*.npz", "model.json", "estimate.json"):
        for path in glob.glob(os.path.join(work, pattern)):
            if not os.path.basename(path).startswith("spans-"):
                os.remove(path)
    shutil.rmtree(os.path.join(work, "bench"), ignore_errors=True)
    return result, lines


def self_test():
    """Toy-size run of every workload in both modes, plus a fault injection."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    problems = []
    if [w["name"] for w in bench["workloads"]] != list(workloads.NAMES):
        problems.append("BENCHMARK.json workloads differ from workloads.NAMES")
    declared_e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    declared_layers = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    printed_layers = [m[:2] for m in tracing.LAYER_METRICS]
    if declared_e2e != list(E2E_METRICS):
        problems.append("BENCHMARK.json end_to_end differs from E2E_METRICS")
    if declared_layers != list(tracing.RESULT_METRICS):
        problems.append("BENCHMARK.json per_layer differs from RESULT_METRICS")
    for name in workloads.NAMES:
        for trace in (0, 1):
            started = time.perf_counter()
            result, lines = run_workload(name, 1, 1.0, trace, toy=True)
            want = declared_layers if trace else declared_e2e
            got = result["metrics"]
            for entry in want:
                metric, unit = entry[0], entry[1]
                value = got.get(metric, {}).get("value")
                if got.get(metric, {}).get("unit") != unit or not isinstance(
                        value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{name} trace {trace}: {metric} missing or bad")
            if set(got) != {e[0] for e in want}:
                problems.append(f"{name} trace {trace}: undeclared metrics")
            printed = {ln.split(" = ")[0].strip(): ln for ln in lines if " = " in ln}
            for metric, unit in (printed_layers if trace else declared_e2e):
                if metric not in printed or f" {unit}" not in printed[metric]:
                    problems.append(f"{name} trace {trace}: {metric} not printed "
                                    f"with its unit {unit}")
            text = "\n".join(lines)
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace {trace}: checks failed\n" + text)
            print(f"self-test {name} trace {trace}: {result['attempted']} operations, "
                  f"{result['failed']} failed, {time.perf_counter() - started:.1f} s")
    result, _ = run_workload("predict-sqrt", 1, 1.0, 0, toy=True, corrupt=True)
    if result["failed"] < 1 or result["correct"]:
        problems.append("a corrupted prediction file was not counted as failed")
    else:
        print(f"self-test corrupted prediction: {result['failed']} of "
              f"{result['attempted']} operations failed, as required")
    for problem in problems:
        print(f"self-test FAILED: {problem}", file=sys.stderr)
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nestedkrig", "__init__.py")):
        print(f"error: no nestedkrig sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    result, lines = run_workload(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
