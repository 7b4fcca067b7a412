"""Span recording around calls into the nestedkrig modules.

The traced run wraps each module's public functions where their callers
look them up: every ``nestedkrig`` module namespace that binds the original
function object gets the wrapper (so ``solve_weights`` is wrapped as
``tree.solve_weights`` and ``aggregation.solve_weights``), and methods are
wrapped on their class. ``cli.main`` is the root span of every command.

A span is (name, start, end, parent); spans live in compact arrays in
memory and are written once, at the end of the run. Self time is a span's
duration minus the durations of its direct children. The recorder keeps a
single stack, so it assumes the program runs single-threaded
(``run.threads = 1``), which every workload configures.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
from array import array

import numpy as np

FUNCTIONS = (
    ("data", "partition_kmeans"), ("data", "load_csv"),
    ("data", "load_points_csv"),
    ("bundle", "save_bundle"), ("bundle", "load_bundle"),
    ("kernels", "cross_matrix"), ("kernels", "cross_matrix_into"),
    ("linalg", "factor_spd"), ("linalg", "solve"), ("linalg", "solve_weights"),
    ("gpcore", "fill_expert_cross_cov"),
    ("tree", "nested_predict_batch"), ("tree", "run_layers"),
    ("baselines", "evaluate"),
    ("estimation", "grid_profile_loglik"), ("estimation", "sgd_fit"),
    ("estimation", "loo_predict"),
    ("metrics", "benchmark_instance"),
)
# (module, class, method, span name)
METHODS = (
    ("gpcore", "SubModelBank", "__init__", "gpcore.SubModelBank"),
    ("gpcore", "SubModelBank", "layer1", "gpcore.layer1"),
    ("gpcore", "FullModel", "__init__", "gpcore.FullModel"),
    ("gpcore", "FullModel", "predict", "gpcore.FullModel"),
)
# spans under which an expert cross-covariance fill is read by a weight solve
FILL_CONSUMERS = ("tree.nested_predict_batch", "estimation.loo_predict")


def _fill_block_entries(args, result):
    starts = np.asarray(args[2])
    sizes = np.diff(np.append(starts, args[1].shape[0]))
    return [("gpcore.fill_expert_cross_cov.block_entries",
             int(np.dot(sizes[1:], starts[1:])))]


# Counters read from a call's arguments and result: name -> [(counter, value)]
COUNTERS = {
    "data.load_csv": lambda a, r: [("data.rows_parsed", r.n)],
    "data.load_points_csv": lambda a, r: [("data.rows_parsed", r.shape[0])],
    "bundle.save_bundle": lambda a, r: [("bundle.bytes", os.path.getsize(a[0]))],
    "bundle.load_bundle": lambda a, r: [("bundle.bytes", os.path.getsize(a[0]))],
    "kernels.cross_matrix_into": lambda a, r: [("kernels.entries", r.size)],
    "linalg.factor_spd": lambda a, r: [("linalg.jitter_applied",
                                        int(r.applied_jitter > 0.0))],
    "linalg.solve_weights": lambda a, r: [
        ("linalg.solve_weights.systems", r[1].size),
        ("linalg.solve_weights.degenerate", int(r[1].sum()))],
    "gpcore.fill_expert_cross_cov": _fill_block_entries,
    "tree.nested_predict_batch": lambda a, r: [("tree.var_clamped",
                                                int(np.sum(r[1] == 0.0)))],
    "estimation.sgd_fit": lambda a, r: [
        ("estimation.sgd_fit.rejected",
         sum(1 for _, crit, _ in r.history if math.isnan(crit)))],
    "estimation.loo_predict": lambda a, r: [("estimation.loo_predict.points",
                                             len(r))],
}

_ALL_E2E = "every E2E metric on every workload"
_DATA = "setup_s, items_per_s (nested_pts_per_s) on predict-sqrt, predict-deep"
_BUNDLE = "setup_s, items_per_s (nested_pts_per_s) on predict-sqrt"
_KERNELS = ("items_per_s: nested_pts_per_s on predict-sqrt, "
            "loo_pts_per_s on loo-sgd")
_LINALG = ("items_per_s: nested_pts_per_s on predict-deep, "
           "loo_pts_per_s on loo-sgd")
_GPCORE = ("items_per_s: nested_pts_per_s on predict-sqrt, "
           "baseline_pts_per_s on predict-deep-rbcm")
_TREE = "items_per_s: nested_pts_per_s on predict-deep"
_BASELINES = ("items_per_s: replications_per_s on replicate-51, "
              "baseline_pts_per_s on predict-deep-rbcm")
_ESTIMATION = "items_per_s: loo_pts_per_s on loo-sgd"
_METRICS = "items_per_s: replications_per_s on replicate-51"

def _self(span, moves):
    return (f"{span}.self_s", "s", "lower", ("self", span), moves)


def _calls(span, moves):
    return (f"{span}.calls", "count", "lower", ("calls", span), moves)


def _count(counter, moves, unit="count", better="lower"):
    return (counter, unit, better, ("count", counter), moves)


# (metric, unit, better, source, what it should move). Sources: ("self",
# span) self seconds, ("calls", span), ("count", counter), ("p50_ms", span)
# median span duration, ("used", span) share of fills read by a solve.
LAYER_METRICS = (
    _self("data.partition_kmeans", _DATA),
    _self("data.load_csv", _DATA),
    _self("data.load_points_csv", _DATA),
    _count("data.rows_parsed", _DATA, better="higher"),
    _self("bundle.save_bundle", _BUNDLE),
    _self("bundle.load_bundle", _BUNDLE),
    _count("bundle.bytes", _BUNDLE, unit="bytes"),
    _calls("kernels.cross_matrix", _KERNELS),
    _self("kernels.cross_matrix", _KERNELS),
    _calls("kernels.cross_matrix_into", _KERNELS),
    _self("kernels.cross_matrix_into", _KERNELS),
    _count("kernels.entries", _KERNELS),
    _calls("linalg.factor_spd", _LINALG),
    _self("linalg.factor_spd", _LINALG),
    _count("linalg.jitter_applied", _LINALG),
    _calls("linalg.solve", _LINALG),
    _self("linalg.solve", _LINALG),
    _calls("linalg.solve_weights", _LINALG),
    _self("linalg.solve_weights", _LINALG),
    _count("linalg.solve_weights.systems", _LINALG),
    _count("linalg.solve_weights.degenerate", _LINALG),
    _self("gpcore.SubModelBank", _GPCORE),
    _calls("gpcore.layer1", _GPCORE),
    _self("gpcore.layer1", _GPCORE),
    _calls("gpcore.fill_expert_cross_cov", _GPCORE),
    _self("gpcore.fill_expert_cross_cov", _GPCORE),
    _count("gpcore.fill_expert_cross_cov.block_entries", _GPCORE),
    ("gpcore.fill_expert_cross_cov.used_frac", "fraction", "higher",
     ("used", "gpcore.fill_expert_cross_cov"), _GPCORE),
    _calls("tree.nested_predict_batch", _TREE),
    ("tree.nested_predict_batch.ms_p50", "ms", "lower",
     ("p50_ms", "tree.nested_predict_batch"), _TREE),
    _self("tree.run_layers", _TREE),
    _count("tree.var_clamped", _TREE),
    _calls("baselines.evaluate", _BASELINES),
    _self("baselines.evaluate", _BASELINES),
    _self("estimation.grid_profile_loglik", _ESTIMATION),
    _self("estimation.sgd_fit", _ESTIMATION),
    _count("estimation.sgd_fit.rejected", _ESTIMATION),
    _calls("estimation.loo_predict", _ESTIMATION),
    _self("estimation.loo_predict", _ESTIMATION),
    _count("estimation.loo_predict.points", _ESTIMATION, better="higher"),
    _calls("metrics.benchmark_instance", _METRICS),
    _self("metrics.benchmark_instance", _METRICS),
    _self("gpcore.FullModel", _METRICS),
    _self("cli.main.fit", _ALL_E2E),
    _self("cli.main.predict", _ALL_E2E),
    _self("cli.main.loo-estimate", _ALL_E2E),
    _self("cli.main.benchmark", _ALL_E2E),
)


def _reported(metric, unit):
    """Name and unit under which a per-layer metric enters the result line.

    Several layers are never called on some workloads, where their self
    time reads exactly 0.0 on every run. The result line therefore carries
    each self time as a percentage of the cycle's wall time and leaves the
    batch latency to the printed lines; counts enter unchanged.
    """
    if unit == "s":
        return metric[: -len("self_s")] + "self_pct", "%"
    if unit == "ms":
        return None, None
    return metric, unit


# (name, unit, better) of the per-layer metrics in the result line
RESULT_METRICS = tuple((_reported(m, u)[0], _reported(m, u)[1], b)
                       for m, u, b, _, _ in LAYER_METRICS if u != "ms")


def result_metrics(layers, cycle_s):
    """The result-line form of :meth:`Tracer.summarize`'s metrics."""
    out = {}
    for metric, unit, _, _, _ in LAYER_METRICS:
        name, shown = _reported(metric, unit)
        if name is not None:
            value = layers[metric]["value"]
            if unit == "s":
                value = 100.0 * value / cycle_s
            out[name] = {"value": value, "unit": shown}
    return out


class Tracer:
    """In-memory span recorder with per-command counters."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.root = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []
        self.counts: dict = {}  # (root span index, counter) -> total

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn):
        nid = self._id(name)
        count = COUNTERS.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.root.append(stack[0] if stack else idx)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if count is not None:
                root = self.root[idx]
                for key, value in count(args, result):
                    self.counts[root, key] = self.counts.get((root, key), 0) + value
            return result

        return traced

    def install(self):
        """Wrap the package's public functions and the CLI entry point."""
        import nestedkrig.cli  # noqa: F401  (loads every module wrapped below)

        package = [m for key, m in sys.modules.items()
                   if key == "nestedkrig" or key.startswith("nestedkrig.")]
        for module, attr in FUNCTIONS:
            original = getattr(sys.modules[f"nestedkrig.{module}"], attr)
            wrapped = self.wrap(f"{module}.{attr}", original)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        for module, cls_name, method, name in METHODS:
            cls = getattr(sys.modules[f"nestedkrig.{module}"], cls_name)
            setattr(cls, method, self.wrap(name, cls.__dict__[method]))
        cli = sys.modules["nestedkrig.cli"]
        main = cli.main
        roots = {}

        def traced_main(argv):
            command = argv[0]
            if command not in roots:
                roots[command] = self.wrap(f"cli.main.{command}", main)
            return roots[command](argv)

        cli.main = traced_main

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.root, dtype=np.int32),
                np.frombuffer(self.start), np.frombuffer(self.end))

    def save(self, path):
        nid, parent, root, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=nid,
                            parent=parent, start=start, end=end)

    def summarize(self, command_seconds):
        """Per-layer metrics for one cycle, tracing accounting.

        A cycle is one command of each kind the run executed (set-up and
        main): each metric is the median over the commands of a kind,
        summed over the kinds. ``command_seconds`` are the wall times the
        harness measured around the same commands.
        """
        nid, parent, root, start, end = self.arrays()
        n_names = len(self.names)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_s = dur - child
        roots = np.flatnonzero(~has_parent)
        position = np.full(dur.size, -1)
        position[roots] = np.arange(roots.size)
        key = position[root] * n_names + nid
        cells = roots.size * n_names
        self_by = np.bincount(key, weights=self_s, minlength=cells).reshape(-1, n_names)
        calls_by = np.bincount(key, minlength=cells).reshape(-1, n_names)
        kinds: dict = {}
        for pos, r in enumerate(roots):
            kinds.setdefault(self.names[nid[r]], []).append(pos)

        def per_cycle(values_of_root):
            return float(sum(np.median([values_of_root(pos, r) for pos, r in
                                        zip(members, roots[members])])
                             for members in map(np.array, kinds.values())))

        metrics = {}
        for metric, unit, _, (source, target), _ in LAYER_METRICS:
            col = self._ids.get(target)
            if source == "self":
                value = 0.0 if col is None else per_cycle(
                    lambda pos, r: self_by[pos, col])
            elif source == "calls":
                value = 0 if col is None else int(round(per_cycle(
                    lambda pos, r: calls_by[pos, col])))
            elif source == "count":
                value = per_cycle(lambda pos, r: self.counts.get((r, target), 0))
                value = int(round(value))
            elif source == "p50_ms":
                hits = dur[nid == col] if col is not None else dur[:0]
                value = float(np.median(hits) * 1e3) if hits.size else 0.0
            else:
                value = self._used_fraction(nid, parent, col)
            metrics[metric] = {"value": value, "unit": unit}

        cycle_s = per_cycle(lambda pos, r: dur[r])
        traced = float(np.sum(self_s))
        wall = float(sum(command_seconds))
        slack = 0.01 * wall + 0.001 * len(command_seconds)
        accounting = {"cycle_s": cycle_s, "self_sum_s": traced,
                      "command_wall_s": wall,
                      "slack_s": slack, "spans": int(dur.size),
                      "ok": abs(traced - wall) <= slack}
        return metrics, accounting

    def _used_fraction(self, nid, parent, col):
        if col is None:
            return 0.0
        consumers = {self._ids[n] for n in FILL_CONSUMERS if n in self._ids}
        fills = np.flatnonzero(nid == col)
        used = 0
        for idx in fills:
            up = parent[idx]
            while up >= 0 and nid[up] not in consumers:
                up = parent[up]
            used += up >= 0
        return used / fills.size if fills.size else 0.0
