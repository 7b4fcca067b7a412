"""Workload definitions: generated inputs, CLI commands and output checks.

Every workload is a closed loop of ``nestedkrig`` CLI commands run
in-process through ``nestedkrig.cli.main``: an optional set-up command
(``fit`` on the prediction workloads), then one main command repeated
back to back. The program only ever sees the files written here, all
derived from the workload seed.

This module is imported by both the benchmark parent (``run.py``, which
generates inputs and the exact-model oracle) and the measured worker
(``worker.py``, which runs the commands and checks their outputs), so it
must not import ``nestedkrig`` at module level.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

NAMES = ("predict-sqrt", "predict-deep", "predict-deep-rbcm", "loo-sgd",
         "replicate-51")

# Design points placed among the query points, where the nested predictor
# must interpolate: |mean - y| <= INTERP_MEAN_TOL * sigma and
# variance <= INTERP_VAR_TOL * sigma^2.
DESIGN_IN_QUERY = 64
INTERP_MEAN_TOL = 1e-6
INTERP_VAR_TOL = 1e-6
# Variances must lie in [0, sigma^2]; the upper end allows rounding only.
VAR_UPPER_SLACK = 1e-12
# Lower half of the variance sandwich: v_nested >= v_full - SANDWICH_TOL * sigma^2.
SANDWICH_TOL = 1e-8
# Rivals the nested rule must beat on median MSE and MNLP (acceptance c06).
C06_RIVALS = ("poe", "gpoe2", "bcm", "rbcm", "spv")

# Sizes. "full" is what the benchmark measures; "toy" is the self-test.
# Length-scales keep a few design spacings per length-scale, where the
# nested predictor interpolates to about 1e-8 (see INTERP_*_TOL).
SIZES = {
    "predict-sqrt": {
        "full": dict(n=6000, d=2, q=2048, ls=0.05, tree="two_layer_sqrt", height=2),
        "toy": dict(n=300, d=2, q=160, ls=0.2, tree="two_layer_sqrt", height=2),
    },
    "predict-deep": {
        "full": dict(n=2500, d=3, q=2048, ls=0.3, tree="equilibrated", height=3),
        "toy": dict(n=250, d=3, q=160, ls=0.5, tree="equilibrated", height=3),
    },
    "loo-sgd": {
        "full": dict(n=200, p=20, q=50, n_iter=100),
        "toy": dict(n=200, p=20, q=50, n_iter=2),
    },
    "replicate-51": {
        "full": dict(replications=50),
        "toy": dict(replications=12),
    },
}
SIZES["predict-deep-rbcm"] = SIZES["predict-deep"]

WHY = {
    "predict-sqrt": "storage-optimal two-layer tree; nested predict is dominated "
                    "by the per-chunk expert cross-covariance fill, fit by k-means",
    "predict-deep": "height-3 tree of many small groups; Python overhead per "
                    "block, the (q, p, p) array and many weight solves; checked "
                    "against the exact model",
    "predict-deep-rbcm": "same bundle and queries as predict-deep scored by RBCM, "
                         "which pays for a cross-covariance fill it never reads",
    "loo-sgd": "leave-one-out descent; per-index refactorization dominates and "
               "the chunked prediction path is bypassed",
    "replicate-51": "the paper's simulated comparison; small matrices, bound by "
                    "Python overhead in baselines and metrics",
}

# What one main command delivers, for the items_per_s metric.
ITEM_NAMES = {
    "predict-sqrt": ("nested_pts_per_s", "points/s"),
    "predict-deep": ("nested_pts_per_s", "points/s"),
    "predict-deep-rbcm": ("baseline_pts_per_s", "points/s"),
    "loo-sgd": ("loo_pts_per_s", "LOO predictions/s"),
    "replicate-51": ("replications_per_s", "1/s"),
}

SET_UP_REPEATS = 3


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _write_config(path, sections):
    with open(path, "w") as fh:
        for section, items in sections.items():
            fh.write(f"[{section}]\n")
            for key, value in items.items():
                fh.write(f"{key} = {value}\n")
            fh.write("\n")


def _matern52(A, B, ls):
    h = np.sqrt(5.0) * np.abs(A[:, None, :] - B[None, :, :]) / ls
    return np.prod((1.0 + h + h * h / 3.0) * np.exp(-h), axis=-1)


def _smooth_field(rng, d, ls, features=64):
    """Random-Fourier-feature draw: a smooth seeded response surface."""
    W = rng.standard_normal((features, d)) / ls
    b = rng.uniform(0.0, 2.0 * np.pi, features)
    a = rng.standard_normal(features) * np.sqrt(2.0 / features)
    return lambda X: np.cos(X @ W.T + b) @ a


def prepare(name, seed, work, toy=False):
    """Write the inputs of one workload run into ``work``; return its spec.

    The spec lists the set-up and main argv, what a main command delivers
    and how outputs are checked. Arrays the checks need go to
    ``expect.npz`` in ``work``.
    """
    size = SIZES[name]["toy" if toy else "full"]
    cfg_path = os.path.join(work, "run.cfg")
    spec = {"workload": name, "seed": seed, "dir": work, "set_up": [],
            "set_up_outputs": [], "expect": None}
    if name.startswith("predict-"):
        # both predict-deep workloads draw the same inputs for a given seed
        tag = {"predict-sqrt": 1, "predict-deep": 2, "predict-deep-rbcm": 2}[name]
        n, d, q, ls = size["n"], size["d"], size["q"], size["ls"]
        # The design, and with it the k-means partition, is the same for
        # every seed, so the work of a command does not depend on the seed;
        # the responses and the query points do.
        X = np.random.default_rng(tag).uniform(0.0, 1.0, (n, d))
        rng = np.random.default_rng([seed, tag])
        y = _smooth_field(rng, d, ls)(X)
        Q = rng.uniform(0.0, 1.0, (q, d))
        n_design = min(DESIGN_IN_QUERY, q // 4)
        rows = rng.choice(q, n_design, replace=False)
        picks = rng.choice(n, n_design, replace=False)
        Q[rows] = X[picks]
        cols = [f"x{j}" for j in range(d)]
        train = os.path.join(work, "train.csv")
        query = os.path.join(work, "query.csv")
        _write_csv(train, cols + ["y"], np.column_stack([X, y]))
        _write_csv(query, cols, Q)
        _write_config(cfg_path, {
            "kernel": {"family": "matern52", "variance": 1.0, "lengthscales": ls},
            "partition": {"mode": "kmeans", "seed": 0},
            "tree": {"mode": size["tree"], "height": size["height"]},
            "run": {"threads": 1},
        })
        bundle = os.path.join(work, "model.json")
        pred = os.path.join(work, "pred.csv")
        method = "rbcm" if name.endswith("-rbcm") else "nested"
        spec["set_up"] = ["fit", "--config", cfg_path, "--train", train,
                          "--out", bundle, "--force"]
        spec["set_up_outputs"] = [bundle]
        spec["main"] = ["predict", "--config", cfg_path, "--bundle", bundle,
                        "--query", query, "--out", pred, "--method", method,
                        "--with-variance"]
        spec["main_outputs"] = [pred]
        spec["items"] = q
        spec["check"] = {"kind": "predict", "sigma2": 1.0, "q": q,
                         "sandwich": name == "predict-deep"}
        expect = {"design_rows": rows, "design_y": y[picks]}
        if name == "predict-deep":
            # exact-model oracle for the variance sandwich, computed here,
            # outside the measured worker
            import nestedkrig as nk

            kernel = nk.KernelSpec("matern52", 1.0, (ls,) * d)
            expect["full_var"] = nk.FullModel(kernel, X, y).predict(Q)[1]
        spec["expect"] = os.path.join(work, "expect.npz")
        np.savez(spec["expect"], **expect)
        spec["model"] = {"kind": "bundle", "path": bundle, "q": q}
    elif name == "loo-sgd":
        n = size["n"]
        X = np.random.default_rng(4).uniform(0.0, 1.0, (n, 1))
        rng = np.random.default_rng([seed, 4])
        # one Gaussian-process path with the acceptance-test covariance
        K = _matern52(X, X, 0.05) + 1e-10 * np.eye(n)
        y = np.linalg.cholesky(K) @ rng.standard_normal(n)
        train = os.path.join(work, "train.csv")
        _write_csv(train, ["x0", "y"], np.column_stack([X, y]))
        _write_config(cfg_path, {
            "kernel": {"family": "matern52", "lengthscales": 0.1},
            "partition": {"mode": "consecutive", "p": size["p"]},
            "tree": {"mode": "flat"},
            "estimation": {"a": 300, "c": 0.3, "alpha": 0.2, "q": size["q"],
                           "n_iter": size["n_iter"], "seed": seed},
            "run": {"threads": 1},
        })
        est = os.path.join(work, "estimate.json")
        spec["main"] = ["loo-estimate", "--config", cfg_path, "--train", train,
                        "--out", est]
        spec["main_outputs"] = [est]
        # one leave-one-out prediction per index: q per criterion
        # evaluation, two evaluations per iteration, then all n points
        spec["items"] = 2 * size["q"] * size["n_iter"] + n
        spec["check"] = {"kind": "loo"}
        spec["model"] = {"kind": "loo", "n": n, "p": size["p"], "q": size["q"],
                         "n_iter": size["n_iter"]}
    elif name == "replicate-51":
        reps = size["replications"]
        out_dir = os.path.join(work, "bench")
        spec["main"] = ["benchmark", "--replications", str(reps),
                        "--seed", str(seed * reps), "--out-dir", out_dir]
        spec["main_outputs"] = [os.path.join(out_dir, f) for f in
                                ("reports.csv", "summary.json", "plotdata.csv")]
        spec["items"] = reps
        spec["check"] = {"kind": "benchmark"}
        spec["model"] = {"kind": "replicate", "replications": reps}
    else:
        raise ValueError(f"unknown workload {name!r}")
    return spec


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _data_rows(path):
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return lines[0].strip().split(","), np.loadtxt(lines[1:], delimiter=",",
                                                  ndmin=2)


def _check_predict(spec, path, expect):
    chk = spec["check"]
    header, rows = _data_rows(path)
    if header != ["mean", "variance"] or rows.shape != (chk["q"], 2):
        return f"unexpected shape {rows.shape} / header {header}"
    mean, var = rows[:, 0], rows[:, 1]
    if not np.all(np.isfinite(rows)):
        return "non-finite prediction"
    s2 = chk["sigma2"]
    if var.min() < 0.0 or var.max() > s2 * (1.0 + VAR_UPPER_SLACK):
        return f"variance outside [0, sigma2]: [{var.min()!r}, {var.max()!r}]"
    r = expect["design_rows"]
    mean_err = float(np.max(np.abs(mean[r] - expect["design_y"])))
    if mean_err > INTERP_MEAN_TOL * math.sqrt(s2):
        return f"design point not interpolated: mean error {mean_err!r}"
    if float(var[r].max()) > INTERP_VAR_TOL * s2:
        return f"design point not interpolated: variance {float(var[r].max())!r}"
    if chk["sandwich"]:
        gap = float(np.min(var - expect["full_var"]))
        if gap < -SANDWICH_TOL * s2:
            return f"nested variance below the exact model by {-gap!r}"
    return None


def _check_loo(path):
    with open(path) as fh:
        est = json.load(fh)
    values = list(est["theta"]) + [est["sigma2"]]
    if not all(math.isfinite(v) and v > 0.0 for v in values):
        return f"theta/sigma2 not finite and positive: {values}"
    return None


def _check_benchmark(paths):
    reports, summary, plot = paths
    # reports.csv starts with the replication and method columns
    for csv_path, first_value in ((reports, 2), (plot, 0)):
        with open(csv_path) as fh:
            lines = [ln for ln in fh if not ln.startswith("#")]
        for ln in lines[1:]:
            values = [float(c) for c in ln.strip().split(",")[first_value:]]
            if not all(math.isfinite(v) for v in values):
                return f"non-finite value in {os.path.basename(csv_path)}"
    with open(summary) as fh:
        med = json.load(fh)["medians"]
    for crit in ("mse", "mnlp"):
        if not all(math.isfinite(med[m][crit]) for m in med):
            return f"non-finite median {crit}"
        losers = [m for m in C06_RIVALS if not med["nested"][crit] < med[m][crit]]
        if losers:
            return f"nested median {crit} not below {losers}"
    return None


def _check_bundle(path):
    with open(path) as fh:
        payload = json.load(fh)
    s2 = payload["kernel"]["variance"]
    if not (math.isfinite(s2) and s2 > 0.0):
        return f"fitted process variance {s2!r}"
    return None


def check(spec, command, outputs, expect):
    """Check one command's outputs; return None when they are correct."""
    missing = [p for p in outputs if not os.path.exists(p)]
    if missing:
        return f"missing output {missing}"
    if command == "fit":
        return _check_bundle(outputs[0])
    kind = spec["check"]["kind"]
    if kind == "predict":
        return _check_predict(spec, outputs[0], expect)
    if kind == "loo":
        return _check_loo(outputs[0])
    return _check_benchmark(outputs)
