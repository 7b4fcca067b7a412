"""Model-quality criteria, the replication harnesses and their report files.

The simulated comparison draws Gaussian-process paths, fits every
aggregation rule on 15 two-point experts and scores them against the exact
full model.  The consistency demo builds, for growing n, a clustered
design that starves the prediction point of nearby observations: rules
that weight experts by variance alone keep listening to the distant
cluster and their error stalls, while the covariance-aware aggregation
keeps improving.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import baselines, kernels
from .baselines import EXPERT_VARIANCE_FLOOR
from .data import Partition, partition_consecutive, write_json, write_table
from .exceptions import NonPositiveVariance
from .gpcore import FullModel, SubModelBank, sample_gaussian
from .kernels import KernelSpec
from .linalg import solve
from .tree import AggregationTree, nested_design_weights, stream_layers

BENCH_METHODS = ("nested",) + baselines.METHODS
CRITERIA = ("mse", "mve", "mnlp", "mnse")

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


@dataclass(frozen=True)
class CriteriaReport:
    """Quality criteria of one method in one replication."""

    method: str
    replication: int
    mse: float
    mve: float
    mnlp: float
    mnse: float
    full_mnlp: float = float("nan")


def criteria(m, v, m_ref, v_ref, f, method: str = "", replication: int = -1,
             full_mnlp: float = float("nan")) -> CriteriaReport:
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
    # one layer-1 pass feeds the nested predictor and the baseline rules
    nested = stream_layers(bank, tree, grid)
    expert_vars = baselines.expert_variances(BENCH_KERNEL.variance, nested.k)
    # criteria needs positive variances, and at a grid point next to a
    # design point the full and nested predictors clamp the variance at zero
    results = {
        "full": (m_full, np.maximum(v_full, EXPERT_VARIANCE_FLOOR)),
        "nested": (nested.mean, np.maximum(nested.var, EXPERT_VARIANCE_FLOOR)),
    }
    for method in baselines.METHODS:
        results[method] = baselines.evaluate(method, nested.M, expert_vars,
                                             BENCH_KERNEL.variance)
    return grid, f_grid, results


def replication_reports(rep, instance) -> list:
    """Per-method reports of replication ``rep`` from its benchmark_instance output."""
    _, f_grid, results = instance
    m_full, v_full = results["full"]
    full_mnlp = criteria(m_full, v_full, m_full, v_full, f_grid).mnlp
    return [criteria(*results[method], m_full, v_full, f_grid, method=method,
                     replication=rep, full_mnlp=full_mnlp)
            for method in BENCH_METHODS]


def summarize_medians(reports) -> dict:
    """Median of each criterion per method, as a nested dict."""
    out = {}
    for method in sorted({r.method for r in reports}):
        rows = [r for r in reports if r.method == method]
        out[method] = {c: float(np.median([getattr(r, c) for r in rows]))
                       for c in CRITERIA}
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

        # every predictor is linear in the data: one weight per design point
        if method == "full":
            full = FullModel(kernel, X, np.zeros(X.shape[0]))
            lam = solve(full.factor, kernels.cross_matrix(kernel, X, x0[None]))
        else:
            bank = SubModelBank(kernel, X, np.zeros(X.shape[0]), part)
            if method == "nested":
                tree = AggregationTree.flat(bank.n, bank.p)
                lam = nested_design_weights(bank, tree, x0[None])[2]
            else:
                # the rules are linear in the expert means, so applied to
                # unit means (row g: expert g alone) they give the weights
                _, k, AT = bank.layer1(x0[None])
                V = baselines.expert_variances(kernel.variance, k[0])
                alpha = baselines.evaluate(method, np.eye(bank.p), V,
                                           kernel.variance)[0][None]
                lam = bank.design_weights(AT, alpha)
        preds = fX @ lam[:, 0]
        out.append((int(n), float(np.mean((preds - y0) ** 2))))
    return out


def write_reports_csv(reports, path, header_lines=()):
    """Emit one CSV row per method per replication; header comments first."""
    write_table(path, header_lines,
                ["replication", "method", *CRITERIA, "full_mnlp"],
                ([str(r.replication), r.method, r.mse, r.mve, r.mnlp, r.mnse,
                  r.full_mnlp] for r in reports))


def write_summary_json(reports, path, extra=None):
    """Emit the per-method medians as sorted JSON."""
    write_json(path, {"medians": summarize_medians(reports), **(extra or {})},
               indent=2)


def write_plot_data(path, grid, results, header_lines=()):
    """Emit grid, means and variances per method for external plotting."""
    methods = sorted(results)
    write_table(path, header_lines,
                ["x"] + [f"mean_{m}" for m in methods] + [f"var_{m}" for m in methods],
                zip(np.asarray(grid).reshape(-1),
                    *(results[m][0] for m in methods),
                    *(results[m][1] for m in methods)))
