"""Covariance-parameter estimation from leave-one-out cross-validation.

Two-step procedure: length-scales minimize the leave-one-out mean square
error of the nested predictor, then the process variance is set so the
normalized leave-one-out errors have unit variance.  The minimization uses
a simultaneous-perturbation stochastic gradient: each iteration estimates
the directional derivative of the criterion on a random subset of points by
a central finite difference along a Rademacher direction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from .exceptions import DimensionMismatch
from .gpcore import SubModelBank
from .kernels import KernelSpec
from .linalg import factor_spd, logdet, solve
from .tree import PREDICT_CHUNK, AggregationTree, stream_layers

# floor for unit-scale leave-one-out variances; the deleted point is absent
# from every group so the true value is positive
LOO_VARIANCE_FLOOR = 1e-12


@dataclass(frozen=True)
class LooRecord:
    """Leave-one-out prediction at one deleted design point.

    ``v_loo`` is expressed at unit process variance (the predictive
    variance divided by the kernel variance), which is the scale the
    variance estimator needs.
    """

    index: int
    m_loo: float
    v_loo: float


def loo_predict(dataset, partition, tree: AggregationTree, kernel: KernelSpec,
                indices=None) -> list:
    """Exact leave-one-out nested predictions at the requested indices.

    Deleting a point from its group has closed-form Kriging weights, the
    virtual cross-validation identity (Dubrule 1983): with Q = K_g^-1, the
    remaining points of the group weigh in with -Q[:, j] / Q[j, j].  Q is
    read through the bank's inverse Cholesky factor, Q[:, j] = R_g' R_g[:, j]
    and Q[j, j] = |R_g[:, j]|^2, so no group is refactored.  When the group
    factor needed jitter, the identity applies to the jittered group
    matrix.  Every other expert, the group layout and the tree are left
    untouched.  Indices whose group would become empty are skipped with a
    warning.  The indices are predicted in chunks of ``PREDICT_CHUNK``, so
    memory grows with n, not n^2.
    """
    X, y = dataset.X, dataset.y
    n = X.shape[0]
    if partition.n != n:
        raise DimensionMismatch("partition length does not match the dataset")
    if indices is None:
        indices = np.arange(n)
    indices = np.asarray(indices, dtype=int)

    labels = partition.labels
    keep = np.bincount(labels, minlength=partition.p)[labels[indices]] > 1
    if not np.all(keep):
        skipped = indices[~keep].tolist()
        warnings.warn(
            f"skipping leave-one-out at indices {skipped}: deleting them "
            "would empty their group")
    indices = indices[keep]
    if indices.size == 0:
        return []

    bank = SubModelBank(kernel, X, y, partition)
    records = []
    for start in range(0, indices.size, PREDICT_CHUNK):
        chunk = indices[start:start + PREDICT_CHUNK]
        m_loo, root_cov = stream_layers(bank, tree,
                                        *loo_weights(bank, labels, chunk))
        v_unit = np.maximum((kernel.variance - root_cov) / kernel.variance,
                            LOO_VARIANCE_FLOOR)
        records += [LooRecord(index=int(i), m_loo=float(m), v_loo=float(v))
                    for i, m, v in zip(chunk, m_loo, v_unit)]
    return records


def loo_weights(bank: SubModelBank, labels, indices):
    """``group_weights`` at the design points ``indices``, each deleted from its group.

    Returns (C, A) as ``bank.group_weights(X[indices])`` does, with the
    deleted point's group column replaced by its virtual cross-validation
    weights (see :func:`loo_predict`).
    """
    C, A = bank.group_weights(bank.X[indices])
    # group-major row of every design point
    row = np.empty(bank.n, dtype=int)
    row[bank.point_order] = np.arange(bank.n)
    for t, i in enumerate(indices):
        g = labels[i]
        lo, hi = bank.spans[g]
        R = bank.inv_factors[g]
        j = row[i] - lo
        # Q[:, j] from the nonzero part of column j of R; the deleted slot
        # gets a zero weight, so every later product skips that row
        r = R[j:, j]
        A[lo:hi, t] = -(R[j:].T @ r) / (r @ r)
        A[row[i], t] = 0.0
    return C, A


def loo_criterion(records, y) -> float:
    """Mean squared leave-one-out prediction error."""
    if not records:
        raise ValueError("no leave-one-out records")
    y = np.asarray(y, dtype=float)
    errs = np.array([y[r.index] - r.m_loo for r in records])
    return float(np.mean(errs ** 2))


def estimate_sigma2(records, y) -> float:
    """Process variance making the normalized leave-one-out errors unit-variance.

    Warns (RuntimeWarning) when some records carry a variance clamped at
    ``LOO_VARIANCE_FLOOR``: their squared errors are divided by the floor,
    so a small error there can dominate the estimate.
    """
    if not records:
        raise ValueError("no leave-one-out records")
    y = np.asarray(y, dtype=float)
    floored = [r.index for r in records if r.v_loo <= LOO_VARIANCE_FLOOR]
    if floored:
        warnings.warn(
            f"{len(floored)} leave-one-out variances clamped at "
            f"{LOO_VARIANCE_FLOOR:g} enter the variance estimate "
            f"(indices {floored})", RuntimeWarning)
    ratios = np.array([(y[r.index] - r.m_loo) ** 2 / r.v_loo for r in records])
    return float(np.mean(ratios))


@dataclass
class SgdSettings:
    """Settings of the stochastic gradient descent, as the config file holds them.

    Step sizes follow a_i = a / (A + i + 1)**alpha and the perturbation
    sizes delta_i = c / (i + 1)**gamma; gamma defaults to 0.101 and alpha
    to 0.602 (0.2 is the gentler alternative for a first phase).  A
    negative ``A`` stands for a tenth of the iteration count.  Good values
    of a and c depend on the problem; the defaults suit unit-scale inputs.
    """

    a: float = 0.1
    A: float = -1.0  # negative: n_iter / 10
    alpha: float = 0.602
    c: float = 0.1
    gamma: float = 0.101
    q: int = 100
    n_iter: int = 500
    seed: int = 0

    def check(self):
        """Raise ValueError naming the first setting out of range."""
        for name in ("a", "c", "gamma", "alpha"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.q < 1 or self.n_iter < 0:
            raise ValueError("q must be >= 1 and n_iter >= 0")


@dataclass
class SgdConfig(SgdSettings):
    """SgdSettings plus the start ``theta0``; a negative ``A`` becomes n_iter / 10."""

    theta0: tuple = (0.1,)

    def __post_init__(self):
        self.theta0 = tuple(float(t) for t in np.atleast_1d(self.theta0))
        if any(t <= 0 for t in self.theta0):
            raise ValueError("initial lengthscales must be positive")
        self.check()
        if self.A < 0:
            self.A = self.n_iter / 10.0


@dataclass
class SgdResult:
    theta: np.ndarray
    history: list = field(default_factory=list)


def sgd_fit(dataset, partition, tree: AggregationTree, cfg: SgdConfig,
            family: str = "matern52", log_fn=None) -> SgdResult:
    """Minimize the leave-one-out criterion over log length-scales.

    Per iteration: draw a uniform subset of ``cfg.q`` indices without
    replacement, a Rademacher direction h, and move the log length-scales
    against the central finite difference of the subset criterion along h.
    The subset, direction and hence the whole trajectory are reproducible
    from ``cfg.seed``.  A non-finite criterion evaluation, or a step that
    would leave a length-scale non-finite or zero, rejects the step and
    halves the step-size scale once.

    ``log_fn`` receives one line per iteration.
    """
    y = dataset.y
    q = min(cfg.q, dataset.n)
    log_theta = np.log(np.asarray(cfg.theta0, dtype=float))
    if log_theta.shape[0] != dataset.d:
        raise DimensionMismatch("theta0 length must match the input dimension")

    def criterion(log_t, subset):
        spec = KernelSpec(family, 1.0, tuple(np.exp(log_t)))
        records = loo_predict(dataset, partition, tree, spec, subset)
        return loo_criterion(records, y) if records else np.nan

    a_scale = cfg.a
    history = []
    for it in range(1, cfg.n_iter + 1):
        rng = np.random.default_rng([cfg.seed, it])
        subset = rng.choice(dataset.n, size=q, replace=False)
        h = rng.integers(0, 2, size=log_theta.shape[0]) * 2.0 - 1.0
        delta = cfg.c / (it + 1) ** cfg.gamma
        a_i = a_scale / (cfg.A + it + 1) ** cfg.alpha
        c_plus = criterion(log_theta + delta * h, subset)
        c_minus = criterion(log_theta - delta * h, subset)
        with np.errstate(over="ignore", invalid="ignore"):
            grad = (c_plus - c_minus) / (2.0 * delta)
            step = log_theta - a_i * grad * h
            theta = np.exp(step)
        valid = np.all(np.isfinite(theta) & (theta > 0.0))
        if not (np.isfinite(c_plus) and np.isfinite(c_minus) and valid):
            a_scale *= 0.5
            estimate = np.nan
        else:
            log_theta = step
            estimate = 0.5 * (c_plus + c_minus)
        history.append((it, estimate, tuple(np.exp(log_theta))))
        if log_fn is not None:
            theta_txt = " ".join(f"{t:.6g}" for t in np.exp(log_theta))
            log_fn(f"iter={it} criterion={estimate:.6g} theta={theta_txt}")
    return SgdResult(theta=np.exp(log_theta), history=history)


def sgd_fit_two_phase(dataset, partition, tree: AggregationTree, cfg: SgdConfig,
                      family: str = "matern52", log_fn=None) -> SgdResult:
    """Gentle first descent (alpha=0.2) whose end point seeds a second (alpha=0.602)."""
    first = replace(cfg, alpha=0.2, n_iter=cfg.n_iter // 2)
    res1 = sgd_fit(dataset, partition, tree, first, family, log_fn)
    second = replace(cfg, theta0=tuple(res1.theta), alpha=0.602,
                     n_iter=cfg.n_iter - first.n_iter, seed=cfg.seed + 1)
    res2 = sgd_fit(dataset, partition, tree, second, family, log_fn)
    return SgdResult(theta=res2.theta, history=res1.history + res2.history)


def grid_profile_loglik(dataset, partition, family: str, theta_grid) -> KernelSpec:
    """Starting-point convenience: maximize the summed per-group log likelihood.

    Plain grid search over candidate length-scale vectors with the process
    variance profiled out analytically.  Not an estimator of record, just a
    cheap initializer.
    """
    groups = partition.groups()
    n = dataset.n
    best = None
    for theta in theta_grid:
        theta = tuple(np.atleast_1d(np.asarray(theta, dtype=float)))
        if len(theta) == 1 and dataset.d > 1:
            theta = theta * dataset.d
        spec = KernelSpec(family, 1.0, theta)
        quad = 0.0
        log_det = 0.0
        try:
            for idx in groups:
                R = kernels.cross_matrix(spec, dataset.X[idx], dataset.X[idx])
                fac = factor_spd(R)
                z = solve(fac, dataset.y[idx])
                quad += float(dataset.y[idx] @ z)
                log_det += logdet(fac)
        except Exception:
            continue
        if quad <= 0.0:
            continue
        sigma2 = quad / n
        loglik = -0.5 * (n * np.log(sigma2) + log_det + n * (1.0 + np.log(2.0 * np.pi)))
        if best is None or loglik > best[0]:
            best = (loglik, KernelSpec(family, sigma2, theta))
    if best is None:
        raise ValueError("no candidate length-scale produced a valid likelihood")
    return best[1]
