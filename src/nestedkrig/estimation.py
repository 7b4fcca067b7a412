"""Covariance-parameter estimation from leave-one-out cross-validation.

Two-step procedure: length-scales minimize the leave-one-out mean square
error of the nested predictor, then the process variance is set so the
normalized leave-one-out errors have unit variance.  The minimization uses
a simultaneous-perturbation stochastic gradient: each iteration estimates
the directional derivative of the criterion on a random subset of points by
a central finite difference along a Rademacher direction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DimensionMismatch, NotFactorizable
from .gpcore import SubModelBank
from .kernels import KernelSpec
from .tree import AggregationTree, map_chunks, stream_layers

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

    Deleting a point from its group has closed-form Kriging weights
    (:meth:`SubModelBank.layer1` with ``deleted``); every other
    expert, the group layout and the tree are left untouched.  Indices
    whose group would become empty are skipped with a warning.  The
    indices go through :func:`tree.map_chunks`, the package's one query
    loop, on one thread, so memory grows with n, not n^2.
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

    def chunk(deleted):
        s = stream_layers(bank, tree, X[deleted], deleted)
        return s.mean, s.var

    mean, var = map_chunks(chunk, indices)
    v_unit = np.maximum(var / kernel.variance, LOO_VARIANCE_FLOOR)
    return [LooRecord(index=int(i), m_loo=float(m), v_loo=float(v))
            for i, m, v in zip(indices, mean, v_unit)]


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
class EstimationSettings:
    """The ``[estimation]`` settings of :func:`estimate` and :func:`sgd_fit`.

    Step sizes follow a_i = a / (A + i + 1)**alpha and the perturbation
    sizes delta_i = c / (i + 1)**gamma.  Good values of a and c depend on
    the problem; the defaults suit unit-scale inputs.
    """

    a: float = 0.1
    A: float = -1.0  # negative: n_iter / 10
    alpha: float = 0.602
    c: float = 0.1
    gamma: float = 0.101
    q: int = 100
    n_iter: int = 500
    seed: int = 0
    enabled: bool = False
    two_phase: bool = False
    grid_start: bool = True

    def check(self):
        """Raise ValueError naming the first setting out of range."""
        for name in ("a", "c", "gamma", "alpha"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        if not math.isfinite(self.A):
            raise ValueError("A must be finite")
        if self.q < 1 or self.n_iter < 0:
            raise ValueError("q must be >= 1 and n_iter >= 0")


@dataclass
class SgdResult:
    theta: np.ndarray
    history: list = field(default_factory=list)


def sgd_fit(dataset, partition, tree: AggregationTree,
            settings: EstimationSettings, theta0, family: str = "matern52",
            log_fn=None) -> SgdResult:
    """Minimize the leave-one-out criterion over log length-scales from ``theta0``.

    Per iteration: draw a uniform subset of ``settings.q`` indices without
    replacement, a Rademacher direction h, and move the log length-scales
    against the central finite difference of the subset criterion along h.
    The subset, direction and hence the whole trajectory are reproducible
    from ``settings.seed``.  A non-finite criterion evaluation, or a step
    that would leave a length-scale non-finite or zero, rejects the step and
    halves the step-size scale once.

    With ``settings.two_phase``, ``n_iter // 2`` iterations at alpha = 0.2
    seed the rest at ``settings.alpha`` with seed + 1, each phase from step
    scale ``a`` and iteration 1.  A negative ``A`` is n_iter / 10 of the
    whole descent, resolved here and never written back to ``settings``.

    ``log_fn`` receives one line per iteration.
    """
    theta = np.atleast_1d(np.asarray(theta0, dtype=float))
    if np.any(theta <= 0):
        raise ValueError("initial lengthscales must be positive")
    settings.check()
    if theta.shape[0] != dataset.d:
        raise DimensionMismatch("theta0 length must match the input dimension")
    q = min(settings.q, dataset.n)
    A = settings.A if settings.A >= 0 else settings.n_iter / 10.0
    if settings.two_phase:
        half = settings.n_iter // 2
        phases = [(0.2, half, settings.seed),
                  (settings.alpha, settings.n_iter - half, settings.seed + 1)]
    else:
        phases = [(settings.alpha, settings.n_iter, settings.seed)]

    def criterion(log_t, subset):
        spec = KernelSpec(family, 1.0, tuple(np.exp(log_t)))
        records = loo_predict(dataset, partition, tree, spec, subset)
        return loo_criterion(records, dataset.y) if records else np.nan

    history = []
    for alpha, n_iter, seed in phases:
        log_theta = np.log(theta)
        a_scale = settings.a
        for it in range(1, n_iter + 1):
            rng = np.random.default_rng([seed, it])
            subset = rng.choice(dataset.n, size=q, replace=False)
            h = rng.integers(0, 2, size=log_theta.shape[0]) * 2.0 - 1.0
            delta = settings.c / (it + 1) ** settings.gamma
            a_i = a_scale / (A + it + 1) ** alpha
            c_plus = criterion(log_theta + delta * h, subset)
            c_minus = criterion(log_theta - delta * h, subset)
            with np.errstate(over="ignore", invalid="ignore"):
                grad = (c_plus - c_minus) / (2.0 * delta)
                step = log_theta - a_i * grad * h
                trial = np.exp(step)
            valid = np.all(np.isfinite(trial) & (trial > 0.0))
            if not (np.isfinite(c_plus) and np.isfinite(c_minus) and valid):
                a_scale *= 0.5
                value = np.nan
            else:
                log_theta = step
                value = 0.5 * (c_plus + c_minus)
            history.append((it, value, tuple(np.exp(log_theta))))
            if log_fn is not None:
                theta_txt = " ".join(f"{t:.6g}" for t in np.exp(log_theta))
                log_fn(f"iter={it} criterion={value:.6g} theta={theta_txt}")
        theta = np.exp(log_theta)
    return SgdResult(theta=theta, history=history)


def estimate(dataset, partition, tree: AggregationTree, kernel: KernelSpec,
             settings: EstimationSettings, log_fn=None):
    """Length-scales by :func:`sgd_fit`, then sigma2 by :func:`estimate_sigma2`.

    The descent starts from the length-scales of ``kernel``, or with
    ``settings.grid_start`` from the best of them times 1/8 ... 8 by
    :func:`grid_profile_loglik`; sigma2 comes from a leave-one-out pass over
    all n points.  Returns (``kernel`` with the fitted length-scales, sigma2).
    """
    theta0 = kernel.lengthscales
    if settings.grid_start:
        base = np.asarray(theta0, dtype=float)
        candidates = [tuple(base * 2.0 ** e) for e in range(-3, 4)]
        theta0 = grid_profile_loglik(dataset, partition, kernel.family,
                                     candidates).lengthscales
    result = sgd_fit(dataset, partition, tree, settings, theta0, kernel.family,
                     log_fn)
    kernel = kernel.with_lengthscales(result.theta)
    records = loo_predict(dataset, partition, tree, kernel)
    return kernel, estimate_sigma2(records, dataset.y)


def grid_profile_loglik(dataset, partition, family: str, theta_grid) -> KernelSpec:
    """Starting-point convenience: maximize the summed per-group log likelihood.

    Plain grid search over candidate length-scale vectors with the process
    variance profiled out analytically; a candidate of one length-scale
    stands for every input dimension (``KernelSpec.for_dim``).  Each
    candidate's unit-variance :class:`SubModelBank` gives the summed group
    terms; a candidate whose groups cannot be factored is skipped.  Not an
    estimator of record, just a cheap initializer.
    """
    n = dataset.n
    best = None
    for theta in theta_grid:
        spec = KernelSpec(family, 1.0, theta).for_dim(dataset.d)
        try:
            bank = SubModelBank(spec, dataset.X, dataset.y, partition)
        except (NotFactorizable, np.linalg.LinAlgError):
            continue
        quad, log_det = bank.likelihood_terms()
        if quad <= 0.0:
            continue
        sigma2 = quad / n
        loglik = -0.5 * (n * np.log(sigma2) + log_det + n * (1.0 + np.log(2.0 * np.pi)))
        if best is None or loglik > best[0]:
            best = (loglik, spec.with_variance(sigma2))
    if best is None:
        raise ValueError("no candidate length-scale produced a valid likelihood")
    return best[1]
