"""Model-quality criteria and the replication harnesses.

The simulated comparison draws Gaussian-process paths, fits every
aggregation rule on 15 two-point experts and scores them against the exact
full model.  The consistency demo builds, for growing n, a clustered
design that starves the prediction point of nearby observations: rules
that weight experts by variance alone keep listening to the distant
cluster and their error stalls, while the covariance-aware aggregation
keeps improving.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import baselines, kernels
from .aggregation import aggregate
from .data import Partition, partition_consecutive
from .exceptions import NonPositiveVariance
from .gpcore import FullModel, SubModelBank, sample_gaussian
from .kernels import KernelSpec
from .linalg import factor_spd, solve
from .tree import AggregationTree, nested_predict_batch

BENCH_METHODS = ("nested",) + baselines.METHODS

# simulated-comparison scenario: Matern 5/2, unit variance, length-scale
# 0.05, 30 uniform points on [0,1], 15 experts of two consecutive points,
# scored on a regular 101-point grid
BENCH_KERNEL = KernelSpec("matern52", 1.0, (0.05,))
BENCH_N = 30
BENCH_P = 15
BENCH_GRID = 101

# clustered-design demo: prediction point, cluster centre and radius, and
# the shrinking exclusion radius n**(-1/4) around the prediction point;
# the length-scale must be wide enough for the excluded band to matter
DEMO_X0 = 0.1
DEMO_XBAR = 0.9
DEMO_RADIUS = 0.05
DEMO_KERNEL = KernelSpec("matern52", 1.0, (1.0,))

# floor keeping expert variances positive for the density-based rules
EXPERT_VARIANCE_FLOOR = 1e-15


@dataclass(frozen=True)
class CriteriaReport:
    """Quality criteria of one method in one replication."""

    method: str
    replication: int
    scenario: str
    mse: float
    mve: float
    mnlp: float
    mnse: float
    full_mnlp: float = float("nan")


def criteria(m, v, m_ref, v_ref, f, method: str = "", replication: int = -1,
             scenario: str = "", full_mnlp: float = float("nan")) -> CriteriaReport:
    """Score predictions against a reference model and the truth.

    MSE and MVE compare means and variances to the reference (MVE is
    signed: negative means overconfident); MNLP and MNSE score the
    predictive distribution against the true values f.
    """
    m = np.asarray(m, dtype=float)
    v = np.asarray(v, dtype=float)
    m_ref = np.asarray(m_ref, dtype=float)
    v_ref = np.asarray(v_ref, dtype=float)
    f = np.asarray(f, dtype=float)
    if not (m.shape == v.shape == m_ref.shape == v_ref.shape == f.shape):
        raise ValueError("all inputs to criteria must have equal length")
    if np.any(v <= 0.0):
        raise NonPositiveVariance("criteria requires positive variances")
    err_ref = m - m_ref
    err_f = m - f
    return CriteriaReport(
        method=method,
        replication=replication,
        scenario=scenario,
        mse=float(np.mean(err_ref ** 2)),
        mve=float(np.mean(v - v_ref)),
        mnlp=float(np.mean(0.5 * np.log(2.0 * np.pi * v)
                           + err_f ** 2 / (2.0 * v))),
        mnse=float(np.mean(err_f ** 2 / v)),
        full_mnlp=full_mnlp,
    )


def benchmark_instance(seed):
    """One simulated-comparison replication.

    Returns (grid, truth on grid, per-method (mean, variance) dict
    including "full").
    """
    rng = np.random.default_rng([int(seed), 0])
    X = rng.uniform(0.0, 1.0, size=(BENCH_N, 1))
    grid = np.linspace(0.0, 1.0, BENCH_GRID).reshape(-1, 1)
    Z = np.vstack([X, grid])
    cov = kernels.cross_matrix(BENCH_KERNEL, Z, Z)
    path = sample_gaussian(np.zeros(Z.shape[0]), cov, 1, [int(seed), 1])[0]
    fX, f_grid = path[:BENCH_N], path[BENCH_N:]

    full = FullModel(BENCH_KERNEL, X, fX)
    m_full, v_full = full.predict(grid)

    part = partition_consecutive(X, BENCH_P)
    bank = SubModelBank(BENCH_KERNEL, X, fX, part)
    tree = AggregationTree.flat(BENCH_N, BENCH_P)
    m_nested, v_nested = nested_predict_batch(bank, tree, grid)

    M, k = bank.moments(*bank.group_weights(grid))
    expert_vars = np.maximum(BENCH_KERNEL.variance - k, EXPERT_VARIANCE_FLOOR)
    # criteria needs positive variances, and at a grid point next to a
    # design point the full and nested predictors clamp the variance at zero
    results = {
        "full": (m_full, np.maximum(v_full, EXPERT_VARIANCE_FLOOR)),
        "nested": (m_nested, np.maximum(v_nested, EXPERT_VARIANCE_FLOOR)),
    }
    for method in baselines.METHODS:
        results[method] = baselines.evaluate(method, M, expert_vars,
                                             BENCH_KERNEL.variance)
    return grid, f_grid, results


def replication_reports(rep, seed, instance) -> list:
    """Per-method reports of replication ``rep`` from its benchmark_instance output."""
    _, f_grid, results = instance
    m_full, v_full = results["full"]
    full_mnlp = criteria(m_full, v_full, m_full, v_full, f_grid).mnlp
    return [criteria(*results[method], m_full, v_full, f_grid, method=method,
                     replication=rep, scenario=f"simulated-grid seed={seed}",
                     full_mnlp=full_mnlp)
            for method in BENCH_METHODS]


def run_benchmark_51(seed_set) -> list:
    """Replicate the simulated comparison; one report per method and replication."""
    return [report for rep, seed in enumerate(seed_set)
            for report in replication_reports(rep, seed, benchmark_instance(seed))]


def summarize_medians(reports) -> dict:
    """Median of each criterion per method, as a nested dict."""
    out = {}
    for method in sorted({r.method for r in reports}):
        rows = [r for r in reports if r.method == method]
        out[method] = {
            "mse": float(np.median([r.mse for r in rows])),
            "mve": float(np.median([r.mve for r in rows])),
            "mnlp": float(np.median([r.mnlp for r in rows])),
            "mnse": float(np.median([r.mnse for r in rows])),
        }
    return out


def consistency_design(n: int):
    """Clustered design of size n on [0, 1].

    A space-filling sequence that keeps out of a ball of radius n**(-1/4)
    around the prediction point feeds a handful of informative experts; the
    bulk of the points accumulates inside a radius-0.05 cluster below 0.9
    and is split into many near-duplicate experts.  Returns (X, partition,
    x0) with group sizes following the largest m with m * (p - 1) < n.
    """
    delta = n ** -0.25
    p_n = int(np.ceil(n ** 0.8))
    k_n = int(np.ceil(n ** 0.2))
    c_n = (n - 1) // (p_n - 1)
    n_u = k_n * c_n
    n_w = n - n_u

    lo = max(0.0, DEMO_X0 - delta)
    hi = min(1.0, DEMO_X0 + delta)
    left_len = max(lo - 0.0, 0.0)
    right_len = max(1.0 - hi, 0.0)
    m_left = int(round(n_u * left_len / (left_len + right_len)))
    m_right = n_u - m_left
    segments = []
    if m_left > 0:
        segments.append(np.linspace(0.0, lo, m_left, endpoint=False))
    if m_right > 0:
        segments.append(np.linspace(hi, 1.0, m_right))
    u = np.concatenate(segments) if segments else np.empty(0)

    w = DEMO_XBAR - DEMO_RADIUS / (1.0 + np.arange(1, n_w + 1))

    X = np.concatenate([u, w]).reshape(-1, 1)
    labels = np.empty(n, dtype=int)
    start = 0
    for g in range(k_n):
        labels[start:start + c_n] = g
        start += c_n
    g = k_n
    while start < n:
        size = c_n if g < p_n - 1 else n - start
        labels[start:start + size] = g
        start += size
        g += 1
    return X, Partition(labels=labels, p=int(labels.max()) + 1), np.array([DEMO_X0])


def run_consistency_demo(n_sequence, method: str, replicates: int = 200,
                         seed: int = 0) -> list:
    """Mean squared prediction error at the starved point, per design size.

    Each design is deterministic; the error is averaged over GP path
    replicates drawn jointly at the design and the prediction point, under
    ``DEMO_KERNEL``.
    """
    kernel = DEMO_KERNEL
    out = []
    for n in n_sequence:
        X, part, x0 = consistency_design(int(n))
        Z = np.vstack([X, x0.reshape(1, -1)])
        cov = kernels.cross_matrix(kernel, Z, Z)
        draws = sample_gaussian(np.zeros(Z.shape[0]), cov, replicates,
                                [seed, int(n)])
        fX, y0 = draws[:, :-1], draws[:, -1]

        if method == "full":
            fac = factor_spd(kernels.cross_matrix(kernel, X, X))
            lam = solve(fac, kernels.cross_matrix(kernel, X, x0.reshape(1, -1)))[:, 0]
            preds = fX @ lam
        else:
            bank = SubModelBank(kernel, X, np.zeros(X.shape[0]), part)
            C, A = bank.group_weights(x0.reshape(1, -1))
            # expert means of every replicate path, (replicates, p)
            M = np.empty((replicates, bank.p))
            for g, (lo, hi) in enumerate(bank.spans):
                M[:, g] = fX[:, bank.point_order[lo:hi]] @ A[lo:hi, 0]
            if method == "nested":
                L1 = bank.statistics(C, A)
                agg = aggregate(kernel.variance, np.zeros(bank.p), L1.k[0],
                                L1.K[0])
                preds = M @ agg.weights
            else:
                kM = bank.moments(C, A)[1][0]
                V = np.maximum(kernel.variance - kM, EXPERT_VARIANCE_FLOOR)
                preds = baselines.evaluate(method, M, V, kernel.variance)[0]
        out.append((int(n), float(np.mean((preds - y0) ** 2))))
    return out


def _fmt(value) -> str:
    return repr(float(value))


def write_reports_csv(reports, path, header_lines=()):
    """Emit one CSV row per method per replication; header comments first."""
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write("replication,method,mse,mve,mnlp,mnse,full_mnlp\n")
        for r in reports:
            fh.write(",".join([str(r.replication), r.method, _fmt(r.mse),
                               _fmt(r.mve), _fmt(r.mnlp), _fmt(r.mnse),
                               _fmt(r.full_mnlp)]) + "\n")


def write_summary_json(reports, path, extra=None):
    """Emit the per-method medians as sorted JSON."""
    payload = {"medians": summarize_medians(reports)}
    if extra:
        payload.update(extra)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_plot_data(path, grid, results, header_lines=()):
    """Emit grid, means and variances per method for external plotting."""
    methods = sorted(results)
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        cols = ["x"] + [f"mean_{m}" for m in methods] + [f"var_{m}" for m in methods]
        fh.write(",".join(cols) + "\n")
        grid = np.asarray(grid).reshape(-1)
        for t in range(grid.shape[0]):
            row = [_fmt(grid[t])]
            row += [_fmt(results[m][0][t]) for m in methods]
            row += [_fmt(results[m][1][t]) for m in methods]
            fh.write(",".join(row) + "\n")
