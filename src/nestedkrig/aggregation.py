"""Optimal pointwise aggregation of sub-models and the aggregated-process view.

The pointwise combination is the best linear unbiased combination of the
expert values: weights solve K_M(x) a = k_M(x), the aggregated mean is
a' M(x) and its mean squared error is k(x,x) - a' k_M(x).  ``aggregate``
applies it to arbitrary expert statistics; the tree engine solves it for
the sub-model bank.  The process view and the diagnostics take the nested
predictor's design weights from the tree engine, on any tree, and wrap
them into a valid covariance so that posterior cross-covariances and
conditional sample paths are available.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .exceptions import DimensionMismatch
from .gpcore import FullModel, SubModelBank, check_design, check_queries
from .linalg import factor_spd, solve, solve_lower, solve_weights
from .tree import AggregationTree, nested_design_weights


@dataclass(frozen=True)
class AggregatedPrediction:
    """One aggregated prediction: mean, variance and the expert weights used.

    ``degenerate`` is True when the expert covariance was singular and the
    minimum-norm (pseudo-inverse) weights were used instead.
    """

    mean: float
    variance: float
    weights: np.ndarray
    degenerate: bool = False


def aggregate(kxx: float, M, kM, KM) -> AggregatedPrediction:
    """Combine expert values into the BLUE of the latent process value.

    Parameters
    ----------
    kxx : float
        Prior variance k(x, x) at the prediction point.
    M, kM : (p,) arrays
        Expert values and their covariances with the process value.
    KM : (p, p) array
        Expert cross-covariance matrix (symmetric PSD).

    No Gaussian or Kriging assumption is made: any covariates with known
    first two moments can be fed here (noisy regression experts, gradients,
    black-box responses, ...).
    """
    M = np.asarray(M, dtype=float).reshape(-1)
    kM = np.asarray(kM, dtype=float).reshape(-1)
    KM = np.asarray(KM, dtype=float)
    p = M.shape[0]
    if kM.shape[0] != p or KM.shape != (p, p):
        raise DimensionMismatch(
            f"expert inputs of sizes {M.shape}, {kM.shape}, {KM.shape}")
    if not kxx > 0.0:
        raise ValueError("prior variance kxx must be positive")
    alpha, degenerate = solve_weights(KM, kM)
    mean = float(alpha @ M)
    variance = max(float(kxx - alpha @ kM), 0.0)
    return AggregatedPrediction(mean=mean, variance=variance, weights=alpha,
                                degenerate=bool(degenerate))


class AggregatedProcess:
    """Process whose exact posterior reproduces the predictions of a nested tree.

    The nested predictor over ``tree`` (flat by default: the pointwise
    BLUE over every expert) is linear in the data, lambda(x)' Y, with its
    design weights from :func:`tree.nested_design_weights`.  Then
    k_A(x, x') = k(x, x') + 2 lambda(x)' k(X, X) lambda(x')
    - lambda(x)' k(X, x') - lambda(x')' k(X, x).  It agrees with k on the
    diagonal and, for interpolating experts, on all design-point pairs, on
    any tree; conditioning it on the observations returns the nested means
    and variances with full posterior cross-covariances.  A desk-scale
    tool: it factors n x n matrices and brings no computational gain.
    """

    def __init__(self, bank: SubModelBank, tree: AggregationTree = None):
        self.bank = bank
        self.kernel = bank.kernel
        self.tree = AggregationTree.flat(bank.n, bank.p) if tree is None else tree

    def _design_weights(self, Z):
        """lambda_A at the points Z, (n, m)."""
        return nested_design_weights(self.bank, self.tree, Z)[2]

    def _assemble(self, Za, Zb, kab, KXX, la, lb, kXa, kXb):
        """k_A(Za, Zb) from k(Za, Zb), k(X, X), the design weights and k(X, Z)."""
        quad = la.T @ KXX @ lb
        out = kab + 2.0 * quad - la.T @ kXb - (lb.T @ kXa).T
        # variance preservation holds identically; enforce it on coincident
        # arguments so the diagonal is exact
        same = np.all(Za[:, None, :] == Zb[None, :, :], axis=-1)
        out[same] = self.kernel.variance
        return out

    def prior_cov(self, Za, Zb) -> np.ndarray:
        """Prior covariance matrix of the aggregated process, (ma, mb)."""
        kernel, X = self.kernel, self.bank.X
        Za, Zb = check_queries(kernel, Za), check_queries(kernel, Zb)
        la, kXa = self._design_weights(Za), kernels.cross_matrix(kernel, X, Za)
        if Zb.shape == Za.shape and np.array_equal(Za, Zb):
            lb, kXb = la, kXa
        else:
            lb, kXb = self._design_weights(Zb), kernels.cross_matrix(kernel, X, Zb)
        return self._assemble(Za, Zb, kernels.cross_matrix(kernel, Za, Zb),
                              kernels.cross_matrix(kernel, X, X), la, lb, kXa, kXb)

    def posterior(self, Xq, X=None, f=None):
        """Condition the aggregated process on observed values.

        ``X`` and ``f`` default to the bank's own design and responses.
        Returns (means, cond_cov) at the query points.  The kernel blocks
        and design weights of X and Xq are formed once and shared by the
        three prior blocks; on the bank's design, k(X, X) is one kernel
        evaluation.
        """
        kernel, Xb = self.kernel, self.bank.X
        X, f = check_design(kernel, Xb if X is None else X,
                            self.bank.y if f is None else f)
        Xq = check_queries(kernel, Xq)
        KbX = kernels.cross_matrix(kernel, Xb, X)
        if X.shape == Xb.shape and np.array_equal(X, Xb):
            Kbb = KXX = KbX
        else:
            Kbb = kernels.cross_matrix(kernel, Xb, Xb)
            KXX = kernels.cross_matrix(kernel, X, X)
        Kbq = kernels.cross_matrix(kernel, Xb, Xq)
        lX, lq = self._design_weights(X), self._design_weights(Xq)
        fac = factor_spd(self._assemble(X, X, KXX, Kbb, lX, lX, KbX, KbX))
        KqX = self._assemble(Xq, X, kernels.cross_matrix(kernel, Xq, X), Kbb,
                             lq, lX, Kbq, KbX)
        means = KqX @ solve(fac, f)
        Kqq = self._assemble(Xq, Xq, kernels.cross_matrix(kernel, Xq, Xq), Kbb,
                             lq, lq, Kbq, Kbq)
        cov = Kqq - KqX @ solve(fac, KqX.T)
        return means, 0.5 * (cov + cov.T)


def aggregated_posterior(bank: SubModelBank, Xq, X=None, f=None):
    """Gaussian conditioning of the aggregated-process prior on the data.

    ``X`` and ``f`` default to the bank's own design and responses.
    Returns (means, variances, cond_cov); for interpolating experts the
    means and variances agree with the pointwise aggregation.
    """
    means, cov = AggregatedProcess(bank).posterior(Xq, X, f)
    variances = np.maximum(np.diag(cov), 0.0)
    return means, variances, cov


@dataclass(frozen=True)
class DiagnosticsVsFull:
    """Gaps between the aggregated and full models at one point.

    ``var_gap`` is nonnegative up to round-off and bounded above by
    ``bound`` (the best single expert's excess mean squared error); the two
    identity pairs express the same gaps through the modified prior
    covariance and must match to high relative accuracy.
    """

    mean_gap: float
    var_gap: float
    bound: float
    eq_mean_lhs: float
    eq_mean_rhs: float
    eq_var_lhs: float
    eq_var_rhs: float


def diagnostics_vs_full(full: FullModel, bank: SubModelBank, Xq,
                        tree: AggregationTree = None) -> list:
    """Compare the nested predictor against the exact full model at each point.

    ``Xq`` is an (m, d) array of points; returns one
    :class:`DiagnosticsVsFull` per row.  The predictor is the one over
    ``tree``, by default the flat tree (the pointwise aggregation of every
    expert).  Requires interpolating linear experts (simple Kriging on a
    partition).  The design weights lambda(X) of the n design points and
    k(X, X) are built once; each point then takes a one-query pass of its
    own, so every row has the bits of a one-point call.
    """
    process = AggregatedProcess(bank, tree)
    KXX = kernels.cross_matrix(bank.kernel, bank.X, bank.X)
    lam_X = process._design_weights(bank.X)
    return [_diagnostics_at(full, process, KXX, lam_X, x2)
            for x2 in check_queries(bank.kernel, Xq)[:, None]]


def _diagnostics_at(full: FullModel, process: AggregatedProcess, KXX, lam_X,
                    x2) -> DiagnosticsVsFull:
    """:func:`diagnostics_vs_full` at one (1, d) point, given k(X, X) and lambda(X)."""
    bank = process.bank
    m_A, v_A, lam, kM = nested_design_weights(bank, process.tree, x2)
    m_A, v_A, lam_agg, kM = float(m_A[0]), float(v_A[0]), lam[:, 0], kM[0]
    kxx = bank.kernel.variance

    m_full, v_full = full.predict(x2)
    m_full, v_full = float(m_full[0]), float(v_full[0])

    # each expert's mean squared error k(x,x) - 2 k_M + K_M,gg, where the
    # diagonal K_M,gg of Kriging experts is k_M itself
    expert_mse = kxx - 2.0 * kM + kM
    bound = float(expert_mse.min() - v_full)

    # full-design weight vectors of both predictors
    kXx = kernels.cross_matrix(full.kernel, full.X, x2)[:, 0]
    lam_full = solve(full.factor, kXx)

    L = full.factor.lower
    diff = L.T @ (lam_agg - lam_full)
    eq_mean_lhs = float(diff @ diff)

    # the modified prior k_A(X, x), assembled as prior_cov(X, x) does
    kBx = kernels.cross_matrix(bank.kernel, bank.X, x2)
    kAXx = process._assemble(bank.X, x2, kBx, KXX, lam_X, lam, KXX, kBx)[:, 0]
    u = solve_lower(L, kXx - kAXx)
    eq_mean_rhs = float(u @ u)

    w_full = solve_lower(L, kXx)
    w_agg = solve_lower(L, kAXx)
    eq_var_rhs = float(w_full @ w_full - w_agg @ w_agg)

    return DiagnosticsVsFull(
        mean_gap=m_A - m_full,
        var_gap=v_A - v_full,
        bound=bound,
        eq_mean_lhs=eq_mean_lhs,
        eq_mean_rhs=eq_mean_rhs,
        eq_var_lhs=v_A - v_full,
        eq_var_rhs=eq_var_rhs,
    )
