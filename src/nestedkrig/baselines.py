"""Literature expert-fusion rules in Gaussian closed form, over query batches.

Each rule merges, at every query point, p expert predictions (mean M_i,
variance V_i) into one mean and variance.  For Gaussian experts every
density product reduces to precision weighting, which is what is
implemented here, so every rule is a few array operations over a (q, p)
batch.  These rules ignore expert cross-covariances; they read only the
expert means and variances (``SubModelBank.layer1`` without weights, one
tiled pass that holds no n x q array) and serve as
comparison points for the covariance-aware aggregation.
"""

from __future__ import annotations

import numpy as np

METHODS = ("poe", "gpoe1", "gpoe2", "bcm", "rbcm", "spv")

# experts with variance below DEGENERATE_RTOL * prior variance are treated
# as exact interpolators and returned as-is
DEGENERATE_RTOL = 1e-12
# precision floor applied when a committee correction turns nonpositive
PRECISION_FLOOR_RTOL = 1e-12
# floor keeping expert variances positive for the density-based rules
EXPERT_VARIANCE_FLOOR = 1e-15


def expert_variances(prior_var: float, k):
    """Expert variances prior_var - k from ``SubModelBank.layer1``'s k, floored."""
    return np.maximum(prior_var - k, EXPERT_VARIANCE_FLOOR)


def evaluate(method: str, M, V, prior_var: float):
    """Fuse (q, p) expert means ``M`` and variances ``V`` row by row.

    Returns (q,) means and variances.  ``V`` may also be one (p,) row
    shared by every query, and a (p,) ``M`` is one query.  The rules:

    - ``poe``: precisions add up; p identical experts shrink the variance
      to V/p, the well-known overconfidence of this rule.
    - ``gpoe1``: generalised product of experts with exponents
      beta_i = max(0, (log prior_var - log V_i) / 2), the differential
      entropy weights; if every exponent is zero the prior (0, prior_var)
      is returned.
    - ``gpoe2``: exponents 1/p; the factor cancels from the mean, which is
      the ``poe`` mean bit for bit, and the variance is p times the ``poe`` one.
    - ``bcm``: the ``poe`` precision corrected by (p - 1) prior precisions.
    - ``rbcm``: ``bcm`` tempered by the ``gpoe1`` exponents.
    - ``spv``: the expert with the smallest variance, ties toward the
      lowest index.

    A ``bcm`` or ``rbcm`` precision that turns nonpositive is floored at
    PRECISION_FLOOR_RTOL / prior_var.  Under every rule a row whose
    smallest variance is at most DEGENERATE_RTOL * prior_var holds an
    exact interpolator and returns that expert as-is.
    """
    if method not in METHODS:
        raise ValueError(f"unknown baseline {method!r}; choose from {METHODS}")
    if not prior_var > 0.0:
        raise ValueError("prior variance must be positive")
    # row-major copies: numpy sums each row of a row-major array pairwise,
    # exactly as it sums a lone (p,) row, but sums the rows of a
    # column-major array in sequence, which changes the last bits
    M = np.ascontiguousarray(np.atleast_2d(np.asarray(M, dtype=float)))
    V = np.ascontiguousarray(np.broadcast_to(np.asarray(V, dtype=float), M.shape))
    if M.ndim != 2 or M.shape[1] == 0:
        raise ValueError("expert means must be a nonempty (q, p) array")
    q, p = M.shape
    if np.any(V <= 0.0):
        raise ValueError("expert variances must be positive")
    best = np.argmin(V, axis=1)
    m_best, v_best = M[np.arange(q), best], V[np.arange(q), best]
    if method == "spv":
        return m_best, v_best
    if method in ("gpoe1", "rbcm"):
        beta = np.maximum(0.5 * (np.log(prior_var) - np.log(V)), 0.0)
        num = (beta * M / V).sum(axis=1)
        tau = (beta / V).sum(axis=1)
        if method == "rbcm":
            tau += (1.0 - beta.sum(axis=1)) / prior_var
    else:
        num = (M / V).sum(axis=1)
        tau = (1.0 / V).sum(axis=1)
        if method == "bcm":
            tau -= (p - 1) / prior_var
    floored = tau <= 0.0
    tau[floored] = PRECISION_FLOOR_RTOL / prior_var
    means = num / tau
    variances = (p if method == "gpoe2" else 1.0) / tau
    if method == "gpoe1":
        means[floored] = 0.0
        variances[floored] = prior_var
    exact = v_best <= DEGENERATE_RTOL * prior_var
    means[exact] = m_best[exact]
    variances[exact] = v_best[exact]
    return means, variances
