"""Measured worker: one fresh process per workload run.

Usage: ``python3 perfbench/worker.py SPEC.json`` (started by ``run.py``
with the BLAS thread variables pinned to 1). It runs the workload's CLI
commands in-process through ``nestedkrig.cli.main``, one after the other
(a closed loop with one client), checks each command's outputs outside the
timed region, and writes ``result-<tag>.json`` next to the spec. With
tracing on it also writes the spans to ``spans-<tag>.npz``.
"""

from __future__ import annotations

import configparser
import contextlib
import json
import os
import platform
import resource
import sys
import time
import traceback

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NESTEDKRIG_THREADS")


def environment(spec):
    """What the figures depend on besides the code: machine, BLAS, versions."""
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    run_threads = None
    cfg_path = os.path.join(spec["dir"], "run.cfg")
    if os.path.exists(cfg_path):
        ini = configparser.ConfigParser()
        ini.read(cfg_path)
        run_threads = ini.getint("run", "threads", fallback=0)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "run.threads": run_threads,
    }


def corrupt(path):
    """Self-test fault: make the first prediction's variance negative."""
    with open(path) as fh:
        lines = fh.readlines()
    first = next(i for i, ln in enumerate(lines)
                 if not ln.startswith("#") and ln[0] != "m")
    mean = lines[first].split(",")[0]
    lines[first] = f"{mean},-1.0\n"
    with open(path, "w") as fh:
        fh.writelines(lines)


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import numpy as np
    import nestedkrig.cli as cli

    import tracing
    import workloads

    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracer.install()
    expect = dict(np.load(spec["expect"])) if spec["expect"] else None
    ops = []
    digests = {}

    def run(kind, argv, outputs):
        # a command that writes nothing must not be checked on stale files
        for path in outputs:
            if os.path.exists(path):
                os.remove(path)
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception:  # a crash is one failed operation
                code = traceback.format_exc()
            seconds = time.perf_counter() - t0
        if spec.get("corrupt") and kind == "main" and not any(
                op["kind"] == "main" for op in ops):
            corrupt(outputs[0])
        error = None if code == 0 else f"exit {code}"
        if error is None:
            error = workloads.check(spec, argv[0], outputs, expect)
        sha = [workloads.sha256(p) for p in outputs if os.path.exists(p)]
        if error is None and digests.setdefault(kind, sha) != sha:
            error = "output bytes differ from the first run of the command"
        ops.append({"kind": kind, "seconds": seconds, "error": error,
                    "sha256": sha})
        return seconds

    if spec["set_up"]:
        for _ in range(spec["set_up_repeats"]):
            run("set_up", spec["set_up"], spec["set_up_outputs"])
    began = time.perf_counter()
    count = 0
    while True:
        last = run("main", spec["main"], spec["main_outputs"])
        count += 1
        elapsed = time.perf_counter() - began
        if count >= spec["min_main"] and elapsed + last > spec["seconds"]:
            break
    result = {
        "ops": ops,
        "measured_s": elapsed,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": environment(spec),
    }
    if tracer is not None:
        layers, accounting = tracer.summarize([op["seconds"] for op in ops])
        result["layers"] = layers
        result["accounting"] = accounting
        tracer.save(os.path.join(spec["dir"], f"spans-{spec['tag']}.npz"))
    with open(os.path.join(spec["dir"], f"result-{spec['tag']}.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
