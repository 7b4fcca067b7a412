"""Stationary covariance families with anisotropic length-scales.

Four families are provided: squared-exponential, tensorized exponential,
Matern 3/2 and Matern 5/2.  All are products over input dimensions of a
one-dimensional correlation in the scaled distance h_j = |x_j - y_j| / theta_j,
multiplied by the process variance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatch

FAMILIES = ("squared-exponential", "exponential", "matern32", "matern52")

_SQRT3 = np.sqrt(3.0)
_SQRT5 = np.sqrt(5.0)

# Tile size of cross_matrix_into, in entries: a tile and its scratch pair
# (3 x 256 KiB) stay in a 1-2 MiB L2 cache through every pass.
TILE_ENTRIES = 32768


@dataclass(frozen=True)
class KernelSpec:
    """A covariance function: family name, variance and per-dimension scales.

    ``variance`` is the process variance, so k(x, x) == variance for every x.
    ``lengthscales`` has one entry per input dimension, at least one.  Both
    are positive and finite.
    """

    family: str
    variance: float
    lengthscales: tuple

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown kernel family {self.family!r}; choose from {FAMILIES}")
        if not 0.0 < self.variance < np.inf:
            raise ValueError("variance must be positive and finite")
        ls = tuple(float(t) for t in np.atleast_1d(self.lengthscales))
        if not ls:
            raise ValueError("at least one lengthscale is required")
        if not all(0.0 < t < np.inf for t in ls):
            raise ValueError("all lengthscales must be positive and finite")
        object.__setattr__(self, "lengthscales", ls)

    @property
    def dim(self) -> int:
        return len(self.lengthscales)

    def with_lengthscales(self, lengthscales) -> "KernelSpec":
        return KernelSpec(self.family, self.variance, tuple(lengthscales))

    def with_variance(self, variance) -> "KernelSpec":
        return KernelSpec(self.family, float(variance), self.lengthscales)

    def for_dim(self, d: int) -> "KernelSpec":
        """This kernel on d input dimensions: a single length-scale stands for all.

        Raises DimensionMismatch unless the kernel has one length-scale or d.
        """
        if self.dim == d:
            return self
        if self.dim == 1:
            return self.with_lengthscales(self.lengthscales * d)
        raise DimensionMismatch(
            f"{self.dim} length-scales for {d} input dimensions; give one "
            f"for every dimension or a single one for all")


def _corr_2d(family: str, h: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """One-dimensional correlation factor, in place on h >= 0.

    Covers the exponential and Matern families; :func:`_tile_into` sums the
    squared-exponential family's squares and exponentiates once instead.
    ``poly`` is same-shape scratch for the polynomial part.
    """
    if family == "exponential":
        np.negative(h, out=h)
        return np.exp(h, out=h)
    # Matern nu scales by -sqrt(2 nu): h then holds -u, which np.exp
    # takes as it stands, and the polynomial in u subtracts h
    if family == "matern32":
        np.multiply(h, -_SQRT3, out=h)
        np.subtract(1.0, h, out=poly)
        np.exp(h, out=h)
        np.multiply(h, poly, out=h)
        return h
    # matern52, the one family left: KernelSpec checks the family
    np.multiply(h, -_SQRT5, out=h)
    np.multiply(h, h, out=poly)
    np.multiply(poly, 1.0 / 3.0, out=poly)
    poly -= h
    poly += 1.0
    np.exp(h, out=h)
    np.multiply(h, poly, out=h)
    return h


def cross_matrix(spec: KernelSpec, A, B) -> np.ndarray:
    """Covariance matrix between two point sets, shape (n, m).

    ``A`` is (n, d), ``B`` is (m, d); entry (i, j) is the covariance between
    A[i] and B[j].  ``cross_matrix(spec, A, A)`` is symmetric PSD.
    """
    Am = np.atleast_2d(np.asarray(A, dtype=float))
    Bm = np.atleast_2d(np.asarray(B, dtype=float))
    if Bm.size == 0:
        Bm = Bm.reshape(0, spec.dim)
    if Am.size == 0:
        Am = Am.reshape(0, spec.dim)
    if Am.shape[1] != spec.dim or Bm.shape[1] != spec.dim:
        raise DimensionMismatch(
            f"point sets of dimension {Am.shape[1]}/{Bm.shape[1]} against a "
            f"{spec.dim}-dimensional kernel")
    out = np.empty((Am.shape[0], Bm.shape[0]))
    cross_matrix_into(spec, Am, Bm, out)
    return out


def cross_matrix_into(spec: KernelSpec, Am, Bm, out) -> np.ndarray:
    """:func:`cross_matrix` into a preallocated C-contiguous buffer, or a stack of them.

    ``Am`` (n, d), ``Bm`` (m, d) and ``out`` (n, m) give one matrix;
    ``Am`` (G, n, d), ``Bm`` (G, m, d) and ``out`` (G, n, m) give the stack
    of the G matrices k(Am[i], Bm[i]).  The output is evaluated in balanced
    tiles of about ``TILE_ENTRIES`` entries, one input dimension at a time,
    so the scaled distances never materialize as an (n, m, d) block and
    every elementwise pass over a tile runs in cache.  A matrix tile is a
    run of rows; a stack tile is a run of whole matrices, and a stacked
    matrix larger than one tile is evaluated alone in row tiles.  Each call
    allocates one tile-sized scratch pair and reuses it for every tile, so
    the caller supplies only ``out``.  The passes and their order do not
    depend on the tiling or the stacking, so every entry has the same bits
    as in a one-row call.
    """
    if out.ndim == 3 and out.shape[1] * out.shape[2] > TILE_ENTRIES:
        for a, b, o in zip(Am, Bm, out):
            _tiled_into(spec, a, b, o)
    else:
        _tiled_into(spec, Am, Bm, out)
    return out


def _tiled_into(spec: KernelSpec, Am, Bm, out) -> None:
    """:func:`cross_matrix_into` on a matrix or on a stack of one-tile matrices."""
    if out.size == 0:
        return
    stacked = out.ndim == 3
    unit = out[0].size  # entries of one row, or of one stacked matrix
    tiles = -(-out.size // TILE_ENTRIES)
    count = -(-len(out) // tiles)  # balanced: every tile but the last has `count`
    size = count * unit
    pool = np.empty(2 * size)
    for lo in range(0, len(out), count):
        hi = min(lo + count, len(out))
        used = (hi - lo) * unit
        shape = (hi - lo,) + out.shape[1:]
        _tile_into(spec, Am[lo:hi], Bm[lo:hi] if stacked else Bm, out[lo:hi],
                   pool[:used].reshape(shape),
                   pool[size:size + used].reshape(shape))


def _tile_into(spec: KernelSpec, Am, Bm, out, h_buf, poly) -> None:
    """One tile of :func:`cross_matrix_into`, with a same-shape scratch pair."""
    se = spec.family == "squared-exponential"
    for j, theta in enumerate(spec.lengthscales):
        h = out if j == 0 else h_buf
        # the differences from two broadcast copies: numpy's ufunc loop
        # copies a broadcast operand of a multi-row tile through its own
        # buffers, where np.copyto allocates nothing
        np.copyto(h, Am[..., :, j, None])
        np.copyto(poly, Bm[..., None, :, j])
        np.subtract(h, poly, out=h)
        np.abs(h, out=h)
        np.multiply(h, 1.0 / theta, out=h)
        if se:
            np.multiply(h, h, out=h)
        else:
            _corr_2d(spec.family, h, poly)
        if j > 0:
            if se:
                out += h
            else:
                out *= h
    if se:
        np.multiply(out, -0.5, out=out)
        np.exp(out, out=out)
    np.multiply(out, spec.variance, out=out)
