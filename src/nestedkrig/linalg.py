"""Dense symmetric-positive-definite linear algebra.

Factorization with diagonal-jitter escalation (one matrix or a stack of
equal-sized ones), triangular solves and minimum-norm pseudo-inverse
solves.  Everything here is a pure function of its inputs; factors are
immutable and safe to share across threads.

Triangular solves call LAPACK ``dtrtrs`` in the OpenBLAS that numpy's
linalg extension links, so the process loads one BLAS and does not import
scipy.  Only a numpy whose LAPACK does not export that routine (an
Accelerate or MKL build, say) takes scipy's ``lapack.dtrtrs`` instead.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatch, NotFactorizable

# Jitter escalation: start at JITTER_SCALE * mean(diag), multiply by
# JITTER_GROWTH, give up after JITTER_ATTEMPTS failures.
JITTER_SCALE = 1e-12
JITTER_GROWTH = 10.0
JITTER_ATTEMPTS = 6

SYMMETRY_RTOL = 1e-10
RANK_TOL = 1e-10


def _load_dtrtrs():
    """LAPACK ``dtrtrs``, called as ``scipy.linalg.lapack.dtrtrs`` is.

    ``dtrtrs(a, b, lower, trans)`` returns ``(x, info)``: x is a new
    F-ordered float64 array of b's shape holding the solution.  Bound
    through ``ctypes`` to numpy's OpenBLAS (symbol ``scipy_dtrtrs_64_``:
    64-bit integers, three trailing hidden string lengths); scipy's wrapper,
    imported here, where numpy's LAPACK does not export that symbol.
    """
    try:
        fn = ctypes.CDLL(np.linalg._umath_linalg.__file__).scipy_dtrtrs_64_
    except (AttributeError, OSError):
        from scipy.linalg.lapack import dtrtrs
        return dtrtrs
    int_p = ctypes.POINTER(ctypes.c_int64)
    fn.argtypes = ([ctypes.c_char_p] * 3
                   + [int_p, int_p, ctypes.c_void_p, int_p, ctypes.c_void_p,
                      int_p, int_p]
                   + [ctypes.c_size_t] * 3)
    fn.restype = None

    def dtrtrs(a, b, lower=0, trans=0):
        # what f2py did: float64 operands, a read in place when F-contiguous
        # and b copied into the F-ordered result.  The integers are built per
        # call, so concurrent calls share no ctypes object.
        a = np.asarray(a, dtype=np.float64, order="F")
        x = np.array(b, dtype=np.float64, order="F")
        ld = ctypes.c_int64(max(a.shape[0], 1))
        info = ctypes.c_int64(0)
        fn(b"L" if lower else b"U", b"T" if trans else b"N", b"N",
           ctypes.c_int64(a.shape[0]),
           ctypes.c_int64(1 if x.ndim == 1 else x.shape[1]),
           a.ctypes.data, ld, x.ctypes.data, ld, info, 1, 1, 1)
        return x, info.value

    return dtrtrs


_dtrtrs = _load_dtrtrs()


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


def factor_spd(matrix) -> SpdFactor:
    """Cholesky-factor a symmetric matrix, escalating diagonal jitter on failure.

    Parameters
    ----------
    matrix : (n, n) array_like
        Symmetric matrix (checked to relative tolerance 1e-10).  The first
        retry adds ``JITTER_SCALE * mean(diag)`` to the diagonal and each
        further retry multiplies the jitter by ``JITTER_GROWTH``, for at
        most ``JITTER_ATTEMPTS`` retries.

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
    jitter = JITTER_SCALE * mean_diag
    eye = np.eye(a.shape[0])
    for _ in range(JITTER_ATTEMPTS):
        try:
            return SpdFactor(np.linalg.cholesky(a + jitter * eye), jitter)
        except np.linalg.LinAlgError:
            jitter *= JITTER_GROWTH
    raise NotFactorizable(
        f"Cholesky failed after {JITTER_ATTEMPTS} jitter attempts "
        f"(last jitter {jitter / JITTER_GROWTH:.3e})")


def factor_spd_stack(stack):
    """Cholesky factors of a stack of symmetric matrices, shape (G, c, c).

    Each matrix passes the symmetry check of :func:`factor_spd`; the whole
    stack is then factored by one batched Cholesky, which gives every
    matrix the bits of its own :func:`factor_spd` factor.  When any matrix
    of the stack needs jitter, every matrix goes through
    :func:`factor_spd`, jitter escalation included.

    Returns
    -------
    (lower, applied_jitter)
        The (G, c, c) C-ordered lower factors and the (G,) jitter each
        matrix got (zeros when the batched factorization succeeded).
    """
    a = np.asarray(stack, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise DimensionMismatch(
            f"expected a stack of square matrices, got shape {a.shape}")
    scale = np.abs(a).max(axis=(1, 2))
    asym = a - a.transpose(0, 2, 1)  # in place below: one scratch stack
    asym = np.abs(asym, out=asym).max(axis=(1, 2))
    if np.any((scale > 0) & (asym > SYMMETRY_RTOL * scale)):
        raise ValueError("matrix is not symmetric within tolerance 1e-10")
    try:
        return np.linalg.cholesky(a), np.zeros(a.shape[0])
    except np.linalg.LinAlgError:
        pass
    factors = [factor_spd(m) for m in a]
    return (np.stack([f.lower for f in factors]),
            np.array([f.applied_jitter for f in factors]))


def solve_lower(lower, rhs, trans=0, check_finite=True):
    """Solve ``L x = rhs`` (``L' x = rhs`` with ``trans=1``) for lower-triangular L.

    The same LAPACK ``trtrs`` call, checks and errors as
    ``scipy.linalg.solve_triangular(lower, rhs, lower=True, trans=trans,
    check_finite=check_finite)``, so the result has the same bits, without
    that function's per-call wrapper overhead.  The routine is the
    ``dtrtrs`` of numpy's own LAPACK where it exports one, else scipy's
    (see the module docstring).  A C-ordered L is handed to LAPACK as the upper-triangular
    F-ordered L' with the transpose flag flipped.  The result is a new
    F-ordered float64 array, 1-D for a 1-D ``rhs``.

    Raises ValueError on non-finite input (when ``check_finite``) or
    shapes that do not fit (``rhs`` must be 1-D or 2-D) and ``LinAlgError``
    when L has a zero on its diagonal.
    """
    check = np.asarray_chkfinite if check_finite else np.asarray
    a, b = check(lower), check(rhs)
    if (a.ndim != 2 or a.shape[0] != a.shape[1] or b.ndim not in (1, 2)
            or a.shape[0] != b.shape[0]):
        raise ValueError(
            f"shapes of a {a.shape} and b {b.shape} are incompatible")
    if a.flags.f_contiguous:
        x, info = _dtrtrs(a, b, lower=1, trans=trans)
    else:
        x, info = _dtrtrs(a.T, b, lower=0, trans=1 - trans)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return x


def solve(factor: SpdFactor, rhs):
    """Solve ``A x = rhs`` given the Cholesky factor of A.

    ``rhs`` may be a vector or a matrix of stacked right-hand sides.
    """
    b = np.asarray(rhs, dtype=float)
    if b.shape[0] != factor.n:
        raise DimensionMismatch(
            f"rhs has leading dimension {b.shape[0]}, factor is {factor.n}")
    y = solve_lower(factor.lower, b, check_finite=False)
    return solve_lower(factor.lower, y, trans=1, check_finite=False)


def pseudo_solve(matrix, rhs):
    """Minimum-norm solution of a symmetric (possibly singular) system.

    Uses a symmetric eigendecomposition and zeroes eigenvalues whose
    magnitude falls below ``RANK_TOL`` times the largest magnitude.
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
    inv = np.where(np.abs(w) > RANK_TOL * magmax, 1.0, 0.0)
    w_safe = np.where(np.abs(w) > RANK_TOL * magmax, w, 1.0)
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
    Ks = K * s[..., :, None]
    Ks *= s[..., None, :]
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
