"""Dataset ingestion and partitioning of design points into sub-model groups."""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np

from .exceptions import EmptyFile, InvalidGroupCount, ParseError
from .kernels import TILE_ENTRIES

KMEANS_MAX_ITER = 100
KMEANS_TOL = 1e-8


@dataclass
class Dataset:
    """Design points ``X`` (n, d) with responses ``y`` (n,).

    ``y_offset`` records the empirical mean subtracted at load time when
    response centering was requested, so predictions can be un-centered.
    """

    X: np.ndarray
    y: np.ndarray
    ids: list | None = None
    y_offset: float = 0.0

    def __post_init__(self):
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))
        self.y = np.asarray(self.y, dtype=float).reshape(-1)
        if self.X.shape[0] != self.y.shape[0]:
            raise ValueError("X and y must have the same number of rows")
        if self.X.shape[0] < 1:
            raise ValueError("dataset must contain at least one point")
        if not np.all(np.isfinite(self.X)) or not np.all(np.isfinite(self.y)):
            raise ValueError("dataset contains non-finite values")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class Partition:
    """Group labels over n points, values in {0, ..., p-1}; every group nonempty."""

    labels: np.ndarray
    p: int

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=int)
        object.__setattr__(self, "labels", labels)
        if labels.min(initial=0) < 0 or labels.max(initial=-1) >= self.p:
            raise InvalidGroupCount("labels out of range for p groups")
        counts = np.bincount(labels, minlength=self.p)
        if np.any(counts == 0):
            raise InvalidGroupCount("every group must be nonempty")

    @property
    def n(self) -> int:
        return self.labels.shape[0]

    def groups(self) -> list:
        """Index arrays of each group, in label order."""
        order = np.argsort(self.labels, kind="stable")
        bounds = np.searchsorted(self.labels[order], np.arange(self.p + 1))
        return [order[bounds[i]:bounds[i + 1]] for i in range(self.p)]


@dataclass
class CsvSchema:
    """Column roles for :func:`load_csv`.

    ``response`` names the response column (default: last column);
    ``features`` lists the design columns (default: all non-response
    columns, in file order).  ``center_response`` subtracts the empirical
    response mean, recording it in ``Dataset.y_offset``.
    """

    response: str | None = None
    features: list | None = field(default=None)
    center_response: bool = False


def _read_columns(path, select) -> np.ndarray:
    """Parse chosen columns of a headed CSV file into a (rows, k) array.

    ``select(header)`` returns the indices of the k columns to parse, in
    output order; no other cell is parsed.  Blank lines are skipped.
    Raises :class:`ParseError` with 1-based line/column positions on a
    short or long row and on any selected cell that does not parse to a
    finite number, and :class:`EmptyFile` when there are no data rows.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise EmptyFile(f"{path} is empty") from None
        cols = select(header)
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise ParseError(lineno, len(row),
                                 f"expected {len(header)} columns, got {len(row)}")
            parsed = []
            for col in cols:
                cell = row[col].strip()
                try:
                    value = float(cell)
                except ValueError:
                    raise ParseError(lineno, col + 1,
                                     f"cannot parse {cell!r} as a number") from None
                if not np.isfinite(value):
                    raise ParseError(lineno, col + 1,
                                     f"non-finite value {cell!r}")
                parsed.append(value)
            rows.append(parsed)
    if not rows:
        raise EmptyFile(f"{path} contains no data rows")
    return np.asarray(rows, dtype=float)


def load_csv(path, schema: CsvSchema | None = None) -> Dataset:
    """Load a headed CSV file into a Dataset.

    Only the feature and response columns are parsed.  Raises
    :class:`ParseError` with 1-based line/column positions on any of their
    cells that does not parse to a finite number, and :class:`EmptyFile`
    when there are no data rows.
    """
    schema = schema or CsvSchema()

    def columns(header):
        response = schema.response if schema.response is not None else header[-1]
        if response not in header:
            raise ParseError(1, 0, f"response column {response!r} not in header")
        features = schema.features
        if features is None:
            features = [h for h in header if h != response]
        for name in features:
            if name not in header:
                raise ParseError(1, 0, f"feature column {name!r} not in header")
        return [header.index(name) for name in features] + [header.index(response)]

    data = _read_columns(path, columns)
    X = np.ascontiguousarray(data[:, :-1])
    y = data[:, -1].copy()
    offset = 0.0
    if schema.center_response:
        offset = float(np.mean(y))
        y = y - offset
    return Dataset(X=X, y=y, y_offset=offset)


def load_points_csv(path) -> np.ndarray:
    """Load a headed CSV of bare points (every column is a coordinate)."""
    return _read_columns(path, lambda header: range(len(header)))


def _check_group_count(n: int, p: int):
    if not 1 <= p <= n:
        raise InvalidGroupCount(f"cannot split {n} points into {p} groups")


def _sq_diff(x, c, out):
    """``out[i, k] = (x[i] - c[k]) ** 2`` for one coordinate column."""
    np.subtract(x[:, None], c, out=out)
    return np.multiply(out, out, out=out)


def _sq_distances(X, C):
    """Squared distances from the rows of ``X`` to the rows of ``C``, by block.

    Yields ``(lo, D)`` with ``D[i, k] = sum_j (X[lo + i, j] - C[k, j]) ** 2``
    over blocks of ``max(1, TILE_ENTRIES // len(C))`` rows (fewer in the
    last); ``D`` is a view of one buffer that the next block overwrites.
    Coordinate columns are squared one at a time and added in the order
    numpy's ``sum(axis=-1)`` adds up to 128 of them: left to right below 8
    columns, otherwise into eight interleaved lanes combined as
    ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))``, then the
    leftover columns left to right.  Up to d = 128, ``D`` therefore equals
    ``np.sum((X[:, None, :] - C[None]) ** 2, axis=2)`` bit for bit.
    """
    n, d = X.shape
    p = C.shape[0]
    rows = min(n, max(1, TILE_ENTRIES // p))
    lanes = 8 if d >= 8 else 1
    stop = d - d % 8 if d >= 8 else 1
    buf = np.empty((lanes + 1, rows, p))
    for lo in range(0, n, rows):
        block = X[lo:lo + rows]
        r = list(buf[:, :block.shape[0]])
        tile = r.pop()
        for j in range(lanes):
            _sq_diff(block[:, j], C[:, j], r[j])
        for j in range(lanes, stop):
            r[j % 8] += _sq_diff(block[:, j], C[:, j], tile)
        if lanes == 8:
            for a, b in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6), (0, 4)):
                r[a] += r[b]
        for j in range(stop, d):
            r[0] += _sq_diff(block[:, j], C[:, j], tile)
        yield lo, r[0]


def _lower_to_point(d2, X, c):
    """``d2 = min(d2, squared distances from the rows of X to the point c)``."""
    for lo, D in _sq_distances(X, c[None]):
        seg = d2[lo:lo + D.shape[0]]
        np.minimum(seg, D[:, 0], out=seg)
    return d2


def partition_kmeans(X, p: int, seed: int = 0) -> Partition:
    """Lloyd's algorithm with k-means++ seeding.

    Deterministic given ``seed``; at most 100 iterations or until the
    largest centroid movement drops below 1e-8, with a RuntimeWarning when
    the iterations run out first.  Empty clusters are repaired by stealing
    the farthest point from the largest cluster.

    Seeding, Lloyd steps and the repair share one distance helper, which
    evaluates squared distances in row blocks of about ``TILE_ENTRIES``
    entries: besides copies of ``X``, memory stays O(TILE_ENTRIES + n),
    and no (n, p) or (n, p, d) array is formed.  The helper adds the
    coordinates in numpy's ``sum(axis=-1)`` order, and each centroid is
    the ``mean(axis=0)`` of its group's rows in index order, so for d up
    to 128 the labels equal, bit for bit, those of the direct formula
    ``np.sum((X[:, None, :] - centroids[None]) ** 2, axis=2)`` with
    centroids ``X[labels == k].mean(axis=0)``.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    _check_group_count(n, p)
    rng = np.random.default_rng(seed)

    # k-means++ seeding
    centroids = np.empty((p, X.shape[1]))
    centroids[0] = X[rng.integers(n)]
    d2 = np.full(n, np.inf)
    for k in range(1, p):
        _lower_to_point(d2, X, centroids[k - 1])
        total = d2.sum()
        if total <= 0.0:
            centroids[k] = X[rng.integers(n)]
        else:
            centroids[k] = X[rng.choice(n, p=d2 / total)]

    labels = np.empty(n, dtype=np.intp)
    bounds = np.zeros(p + 1, dtype=np.intp)
    for _ in range(KMEANS_MAX_ITER):
        for lo, D in _sq_distances(X, centroids):
            np.argmin(D, axis=1, out=labels[lo:lo + D.shape[0]])
        counts = np.bincount(labels, minlength=p)
        for empty in np.flatnonzero(counts == 0):
            donor = int(np.argmax(counts))
            members = np.flatnonzero(labels == donor)
            far = members[np.argmax(_lower_to_point(
                np.full(members.shape[0], np.inf), X[members], centroids[donor]))]
            labels[far] = empty
            counts[donor] -= 1
            counts[empty] += 1
        # each group's rows in index order as one contiguous slice, summed
        # and divided by the count, which is what X[labels == k].mean(0) does
        Xs = X[np.argsort(labels, kind="stable")]
        np.cumsum(counts, out=bounds[1:])
        sums = np.empty_like(centroids)
        for k in range(p):
            np.add.reduce(Xs[bounds[k]:bounds[k + 1]], axis=0, out=sums[k])
        new_centroids = sums / counts[:, None]
        move = np.max(np.abs(new_centroids - centroids))
        centroids = new_centroids
        if move < KMEANS_TOL:
            break
    else:
        warnings.warn(f"k-means stopped after {KMEANS_MAX_ITER} Lloyd steps "
                      f"without converging (last centroid movement {move:.3g})",
                      RuntimeWarning)
    return Partition(labels=labels, p=p)


def partition_random(n: int, p: int, seed: int = 0) -> Partition:
    """Uniformly random balanced partition; group sizes differ by at most 1."""
    _check_group_count(n, p)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    labels = np.empty(n, dtype=int)
    # the first n % p groups receive one extra point
    sizes = np.full(p, n // p)
    sizes[: n % p] += 1
    start = 0
    for k, size in enumerate(sizes):
        labels[perm[start:start + size]] = k
        start += size
    return Partition(labels=labels, p=p)


def partition_consecutive(X, p: int) -> Partition:
    """Contiguous blocks after sorting points by their first coordinate.

    With n = 30 and p = 15 this pairs consecutive points: the two smallest
    form group 0, the next two group 1, and so on.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    _check_group_count(n, p)
    order = np.argsort(X[:, 0], kind="stable")
    sizes = np.full(p, n // p)
    sizes[: n % p] += 1
    labels = np.empty(n, dtype=int)
    start = 0
    for k, size in enumerate(sizes):
        labels[order[start:start + size]] = k
        start += size
    return Partition(labels=labels, p=p)
