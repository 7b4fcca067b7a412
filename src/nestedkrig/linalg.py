"""Dense symmetric-positive-definite linear algebra.

Factorization with diagonal-jitter escalation, triangular solves and
minimum-norm pseudo-inverse solves.  Everything here is a pure function of
its inputs; factors are immutable and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

from .exceptions import DimensionMismatch, NotFactorizable

# Jitter escalation: start at JITTER_SCALE * mean(diag), multiply by
# JITTER_GROWTH, give up after JITTER_ATTEMPTS failures.
JITTER_SCALE = 1e-12
JITTER_GROWTH = 10.0
JITTER_ATTEMPTS = 6

SYMMETRY_RTOL = 1e-10
DEFAULT_RANK_TOL = 1e-10


@dataclass(frozen=True)
class SpdFactor:
    """Lower-triangular Cholesky factor of a (possibly jittered) SPD matrix.

    ``lower @ lower.T`` reproduces the input matrix plus ``applied_jitter``
    on the diagonal.  ``applied_jitter`` is zero whenever the plain
    factorization succeeded.
    """

    lower: np.ndarray
    applied_jitter: float = 0.0

    @property
    def n(self) -> int:
        return self.lower.shape[0]


def factor_spd(matrix, *, jitter_scale=JITTER_SCALE, growth=JITTER_GROWTH,
               max_attempts=JITTER_ATTEMPTS) -> SpdFactor:
    """Cholesky-factor a symmetric matrix, escalating diagonal jitter on failure.

    Parameters
    ----------
    matrix : (n, n) array_like
        Symmetric matrix (checked to relative tolerance 1e-10).
    jitter_scale, growth, max_attempts :
        Escalation schedule: the first retry adds ``jitter_scale *
        mean(diag)`` to the diagonal and each further retry multiplies the
        jitter by ``growth``, for at most ``max_attempts`` retries.

    Returns
    -------
    SpdFactor
        With ``applied_jitter`` recording the diagonal inflation actually
        used (0.0 on clean inputs).

    Raises
    ------
    NotFactorizable
        After the escalation schedule is exhausted.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    scale = np.abs(a).max()
    if scale > 0 and np.abs(a - a.T).max() > SYMMETRY_RTOL * scale:
        raise ValueError("matrix is not symmetric within tolerance 1e-10")

    try:
        return SpdFactor(np.linalg.cholesky(a), 0.0)
    except np.linalg.LinAlgError:
        pass

    mean_diag = float(np.mean(np.diag(a)))
    if mean_diag <= 0.0:
        # all-nonpositive diagonal: fall back to the overall magnitude
        mean_diag = max(scale, 1.0)
    jitter = jitter_scale * mean_diag
    eye = np.eye(a.shape[0])
    for _ in range(max_attempts):
        try:
            return SpdFactor(np.linalg.cholesky(a + jitter * eye), jitter)
        except np.linalg.LinAlgError:
            jitter *= growth
    raise NotFactorizable(
        f"Cholesky failed after {max_attempts} jitter attempts "
        f"(last jitter {jitter / growth:.3e})")


def solve(factor: SpdFactor, rhs):
    """Solve ``A x = rhs`` given the Cholesky factor of A.

    ``rhs`` may be a vector or a matrix of stacked right-hand sides.
    """
    b = np.asarray(rhs, dtype=float)
    if b.shape[0] != factor.n:
        raise DimensionMismatch(
            f"rhs has leading dimension {b.shape[0]}, factor is {factor.n}")
    y = sla.solve_triangular(factor.lower, b, lower=True, check_finite=False)
    return sla.solve_triangular(factor.lower, y, lower=True, trans="T",
                                check_finite=False)


def logdet(factor: SpdFactor) -> float:
    """Log-determinant of the factored matrix."""
    return 2.0 * float(np.sum(np.log(np.diag(factor.lower))))


def pseudo_solve(matrix, rhs, rank_tol=DEFAULT_RANK_TOL):
    """Minimum-norm solution of a symmetric (possibly singular) system.

    Uses a symmetric eigendecomposition and zeroes eigenvalues whose
    magnitude falls below ``rank_tol`` times the largest magnitude.
    Always returns the Moore-Penrose solution; never raises on rank
    deficiency.
    """
    a = np.asarray(matrix, dtype=float)
    b = np.asarray(rhs, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise DimensionMismatch(
            f"rhs has leading dimension {b.shape[0]}, matrix is {a.shape[0]}")
    w, v = np.linalg.eigh(0.5 * (a + a.T))
    magmax = np.abs(w).max(initial=0.0)
    if magmax == 0.0:
        return np.zeros_like(b)
    inv = np.where(np.abs(w) > rank_tol * magmax, 1.0, 0.0)
    w_safe = np.where(np.abs(w) > rank_tol * magmax, w, 1.0)
    return v @ ((inv / w_safe)[:, None] * (v.T @ b)) if b.ndim > 1 else \
        v @ ((inv / w_safe) * (v.T @ b))


def _cholesky_solve(K, k):
    """Cholesky solve of ``K w = k`` over any batch.

    Raises ``LinAlgError`` unless the factorization succeeds and every
    weight is finite.
    """
    L = np.linalg.cholesky(K)
    z = np.linalg.solve(L, k[..., None])
    w = np.linalg.solve(np.swapaxes(L, -1, -2), z)[..., 0]
    if not np.all(np.isfinite(w)):
        raise np.linalg.LinAlgError("non-finite weights")
    return w


def solve_weights(kmat, kvec):
    """Solve ``K w = k`` for symmetric PSD ``K``, batched, with graceful fallback.

    The workhorse behind every aggregation-weight solve.  ``kmat`` has shape
    (..., p, p) and ``kvec`` shape (..., p).  The system is always
    Jacobi-scaled (divide rows/columns by sqrt(diag)) before the Cholesky
    solve; this keeps sub-model covariance matrices with widely different
    expert scales solvable.  When the batch solve fails, every element is
    solved alone through the same arithmetic, and the elements that still
    fail are recomputed with :func:`pseudo_solve`.  Each element's weights
    are therefore the same bits whatever other elements share its batch.

    Returns
    -------
    (weights, degenerate)
        ``weights`` with the shape of ``kvec``; ``degenerate`` is a boolean
        array over the batch, True where the pseudo-inverse was needed.
    """
    K = np.asarray(kmat, dtype=float)
    k = np.asarray(kvec, dtype=float)
    if K.shape[:-1] != k.shape or K.shape[-1] != K.shape[-2]:
        raise DimensionMismatch(
            f"incompatible shapes {K.shape} and {k.shape}")
    d = np.einsum("...ii->...i", K)
    s = np.where(d > 0.0, d, 1.0) ** -0.5
    Ks = K * s[..., :, None] * s[..., None, :]
    ks = k * s
    degenerate = np.zeros(k.shape[:-1], dtype=bool)
    try:
        return _cholesky_solve(Ks, ks) * s, degenerate
    except np.linalg.LinAlgError:
        pass
    # per-element retry, falling back to the minimum-norm solution; the
    # output is C-ordered like the batch result, since callers' sums over
    # the weights add in memory order
    p = k.shape[-1]
    flat = zip(K.reshape(-1, p, p), k.reshape(-1, p), Ks.reshape(-1, p, p),
               ks.reshape(-1, p), s.reshape(-1, p))
    out = np.empty(k.shape)
    w, deg = out.reshape(-1, p), degenerate.reshape(-1)
    for i, (Ki, ki, Ksi, ksi, si) in enumerate(flat):
        try:
            w[i] = _cholesky_solve(Ksi, ksi) * si
        except np.linalg.LinAlgError:
            w[i] = pseudo_solve(Ki, ki)
            deg[i] = True
    return out, degenerate
