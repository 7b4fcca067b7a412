"""Exact full Gaussian-process conditioning, Kriging sub-models and sampling.

The full model is the O(n^3) oracle every aggregation method is judged
against.  The sub-model bank holds one inverse Cholesky factor per group
and is the only place that turns a design into expert statistics: Kriging
weight columns at any batch of points, and from them the expert means and
expert/process covariances and, row by row, the expert cross-covariances.
It solves no aggregation weights: the tree engine does, and the bank
turns them back into one weight per design point.  Every model reads its
design through :func:`check_design` and its query points through
:func:`check_queries`, the one copy of each rule.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .exceptions import DimensionMismatch
from .kernels import KernelSpec
from .linalg import (SpdFactor, factor_spd, factor_spd_stack, solve,
                     solve_lower)

# variance ratio below which a direction counts as deterministic when sampling
DEGENERATE_VAR_RTOL = 1e-12
# queries per tile of every product whose shape involves the query count
# (the layer-1 pass, the fill, the exact model's conditioning): a query's
# bits come from its own tile, so batches split at multiples of it give
# the bits of one batch
QUERY_TILE = 64


def fill_expert_cross_cov(kernel: KernelSpec, Xcat, starts, AT, out, offsets,
                          diag, row_done=None):
    """Fill the expert covariances a_g' k(X_g, X_h) a_h, one block row at a time.

    ``Xcat`` holds the design points in group-major order, ``starts`` the p
    block starts and ``diag`` the (q, p) diagonal K_gg.  ``AT`` holds the
    weight columns in query-major layout: a C-contiguous (q, n) array whose
    columns follow the rows of ``Xcat``; the streamed pass keeps it until
    the chunk's root is solved.  The fill frees its operand pools before
    the callback of row p - 1 (on a flat tree, the root solve), so that
    step stays under the fill's own peak.  ``out`` is a flat (q, size)
    buffer that takes row g of K's lower triangle, K[:, g, :g+1], at
    columns ``offsets[g]`` on: g·p is all of K in place, g(g+1)/2 the
    packed triangle and (g % w)·p a ring of w rows.  ``row_done``, if
    given, maps row indices to functions of no arguments; ``row_done[g]()``
    runs as soon as row g is in.

    Each block row is a single covariance block against all earlier
    groups; the matrix product and the segmented reduction run on tiles
    of ``QUERY_TILE`` queries, so the Python overhead is linear in p and
    q / ``QUERY_TILE`` while the arithmetic stays at sum c_g c_h q.  Every
    tile's product has the shape and layout of a lone tile's, so a query's
    bits come from its own tile, whatever the batch it comes in, and the
    (tile, stop) product W is one tile high.  Query-major layout with
    operand pools sized once for the largest row (B and W grow with g)
    keeps every pass streaming over the same pages.
    """
    p = len(starts)
    q = AT.shape[0]
    row_done = row_done or {}
    if p > 1:
        bounds = np.concatenate([starts, [Xcat.shape[0]]])
        c_max = int(np.diff(bounds).max())
        m_max = int(starts[-1])
        width = min(q, QUERY_TILE)
        apool = np.empty(c_max * width)
        bpool = np.empty(c_max * m_max)
        wpool = np.empty(width * m_max)
        Ag = W = None  # views of the pools, bound once a tile has run
    for g in range(p):
        row = out[:, offsets[g]:offsets[g] + g + 1]
        row[:, g] = diag[:, g]
        if g > 0:
            stop = int(starts[g])
            c = int(bounds[g + 1] - bounds[g])
            B = bpool[:c * stop].reshape(c, stop)
            kernels.cross_matrix_into(kernel, Xcat[stop:stop + c], Xcat[:stop], B)
            for lo in range(0, q, QUERY_TILE):
                hi = min(lo + QUERY_TILE, q)
                # the tile's (c, tile) operand gathered into contiguous
                # scratch: its .T is the operand layout of an (n, tile) weight
                # array, and the strided slice of AT would take another BLAS
                # path and change bits
                Ag = apool[:c * (hi - lo)].reshape(c, hi - lo)
                np.copyto(Ag, AT[lo:hi, stop:stop + c].T)
                W = wpool[:(hi - lo) * stop].reshape(hi - lo, stop)
                np.matmul(Ag.T, B, out=W)
                W *= AT[lo:hi, :stop]
                np.add.reduceat(W, starts[:g], axis=1, out=row[lo:hi, :g])
        if g == p - 1 and p > 1:
            # the consumer's last step is often its largest (a root solve)
            del apool, bpool, wpool, Ag, B, W
        if g in row_done:
            row_done[g]()


def check_design(kernel: KernelSpec, X, y):
    """X and y as (n, d) and (n,) arrays; DimensionMismatch unless their row
    counts agree and d is the kernel's dimension."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).reshape(-1)
    if X.shape[0] != y.shape[0]:
        raise DimensionMismatch(f"X and y row counts differ: {len(X)} and {len(y)}")
    if X.shape[1] != kernel.dim:
        raise DimensionMismatch(f"design dimension {X.shape[1]} does not match "
                                f"the model dimension {kernel.dim}")
    return X, y


def check_queries(kernel: KernelSpec, Xq):
    """Xq as a (q, d) array; DimensionMismatch unless d is the kernel's dimension."""
    Xq = np.atleast_2d(np.asarray(Xq, dtype=float))
    if Xq.shape[1] != kernel.dim:
        raise DimensionMismatch(f"query dimension {Xq.shape[1]} does not match "
                                f"the model dimension {kernel.dim}")
    return Xq


class FullModel:
    """Exact zero-mean Gaussian-process regression on all n points."""

    def __init__(self, kernel: KernelSpec, X, y):
        self.kernel = kernel
        self.X, self.y = check_design(kernel, X, y)
        self.factor: SpdFactor = factor_spd(kernels.cross_matrix(kernel, self.X, self.X))
        self.alpha = solve(self.factor, self.y)

    def _condition(self, Xq):
        """The step both query methods share, at checked queries: the prior
        covariance C = k(X, Xq) and V solving L V = C."""
        C = kernels.cross_matrix(self.kernel, self.X, Xq)
        return C, solve_lower(self.factor.lower, C)

    def predict(self, Xq):
        """Posterior means and variances at query points, (q,) and (q,).

        Variances are clamped at zero from below.  The queries are
        conditioned in tiles of ``QUERY_TILE``, each a contiguous block with
        its own triangular solve, so a query's bits come from its own tile,
        whatever the batch it comes in.
        """
        Xq = check_queries(self.kernel, Xq)
        means, variances = np.empty(Xq.shape[0]), np.empty(Xq.shape[0])
        for lo in range(0, Xq.shape[0], QUERY_TILE):
            t = slice(lo, lo + QUERY_TILE)
            C, V = self._condition(Xq[t])
            means[t] = C.T @ self.alpha
            variances[t] = np.maximum(
                self.kernel.variance - np.sum(V * V, axis=0), 0.0)
        return means, variances

    def posterior(self, Xq):
        """Posterior means and covariance matrix, (q,) and (q, q)."""
        Xq = check_queries(self.kernel, Xq)
        C, V = self._condition(Xq)
        cov = kernels.cross_matrix(self.kernel, Xq, Xq) - V.T @ V
        return C.T @ self.alpha, 0.5 * (cov + cov.T)


class SubModelBank:
    """Simple-Kriging sub-models over the groups of a partition.

    Stores one inverse Cholesky factor R_g = L_g^-1 per group, where
    L_g L_g' is the (possibly jittered) group covariance K_g, so that
    K_g^-1 = R_g' R_g; never forms any matrix across the full design.
    ``applied_jitter`` holds the (p,) diagonal jitter each group's factor
    needed (zero for a clean factorization).
    The design is kept in group-major order (``point_order``) so per-group
    data are contiguous slices: group g owns rows ``spans[g]``, and design
    point i sits on group-major row ``major_row[i]``.
    The bank is the only code that knows this layout or factors a group
    covariance: ``layer1`` (also at design points left out of their group)
    and ``cross_cov_rows`` build the expert statistics and weights,
    ``design_weights`` turns expert weights (solved by the tree engine)
    into one weight per design point in the original order, and
    ``likelihood_terms`` sums the per-group Gaussian log-likelihood terms.
    ``layer1`` streams the design in runs of groups of about one kernel
    tile: no n x q covariance and no group-major weight array is ever
    formed, and only the query-major weights, when asked for, take one
    n x q array.

    The factors are built one group-size class at a time: the groups of
    size c are gathered into a (G, c, d) stack, their covariances evaluated
    as one (G, c, c) kernel stack and factored by one batched Cholesky
    (every group of the class takes :func:`linalg.factor_spd`'s jitter
    escalation when any of them needs it), and each R_g comes from one
    LAPACK triangular solve.  Every factor has the bits of a per-group
    build, and at most two stacks of one class are alive at a time.
    """

    def __init__(self, kernel: KernelSpec, X, y, partition):
        self.kernel = kernel
        self.X, self.y = check_design(kernel, X, y)
        if partition.n != self.X.shape[0]:
            raise DimensionMismatch("partition length does not match X")
        self.groups = partition.groups()
        self.labels = partition.labels
        self.point_order = np.concatenate(self.groups)
        self.major_row = np.empty(self.n, dtype=int)
        self.major_row[self.point_order] = np.arange(self.n)
        self._Xc = np.ascontiguousarray(self.X[self.point_order])
        self._yc = self.y[self.point_order]
        sizes = np.array([len(g) for g in self.groups])
        self._starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        self.spans = [(int(s), int(s + c)) for s, c in zip(self._starts, sizes)]
        # the explicit inverse of the triangular factor, not of K_g: weights
        # from R_g' (R_g C) keep the variance sandwich on ill-conditioned
        # groups, where products with K_g^-1 break it
        self.inv_factors = [None] * self.p
        self.applied_jitter = np.zeros(self.p)
        for c in np.unique(sizes):
            members = np.flatnonzero(sizes == c)
            Xs = self._Xc[self._starts[members, None] + np.arange(c)]
            K = np.empty((members.size, c, c))
            kernels.cross_matrix_into(kernel, Xs, Xs, K)
            L, self.applied_jitter[members] = factor_spd_stack(K)
            del K
            np.asarray_chkfinite(L)  # the finiteness check of each solve below
            eye = np.eye(c)
            for g, Lg in zip(members, L):
                self.inv_factors[g] = solve_lower(Lg, eye, check_finite=False)

    @property
    def p(self) -> int:
        return len(self.groups)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    def layer1(self, Xq, deleted=None, with_weights=True):
        """The one layer-1 pass at a batch of query points: (M, k, AT).

        M = a_g' y_g are the (q, p) expert means and k = a_g' C_g their
        (q, p) covariances with the process; k(x) is also Var M_g(x), so
        k(x, x) - k is each expert's prediction variance.  ``AT``, None
        unless ``with_weights``, is a C-contiguous (q, n) array whose row t
        holds every group's weights a_g(x_t) = K_g^-1 C_g = R_g' (R_g C_g),
        its columns in group-major design order: the layout that
        ``cross_cov_rows`` and ``design_weights`` read.  Without
        the weights the pass holds one kernel tile and O(p q) reals, never
        an n x q array.

        ``deleted``, if given, holds one design index per query point, and
        the query is that design point left out of its group: the group's
        column holds its virtual cross-validation weights (Dubrule 1983).
        With Q = K_g^-1 = R_g' R_g (jittered where the factor needed
        jitter), the rest of the group weighs in with -Q[:, j] / Q[j, j],
        so no group is refactored.

        Walks runs of consecutive groups whose rows fit one kernel tile of
        ``kernels.TILE_ENTRIES`` entries (a larger group forms a run alone).
        The queries come in tiles of ``QUERY_TILE``: the batch's full tiles
        as one tile-major stack, then the tail of fewer queries.  For each
        of the two, k(X_run, Xq) goes into a (tiles, rows, width) buffer of
        its own, and each group's weights, edits, moments and transposed
        copy are done while its rows of that block are in cache, with the
        products, shapes and layouts of a whole-design evaluation of each
        query tile: no entry depends on the group runs, and a query's bits
        come from its own tile, whatever the batch it comes in.
        """
        Xq = check_queries(self.kernel, Xq)
        p, q = self.p, Xq.shape[0]
        M = np.empty((p, q))
        kM = np.empty((p, q))
        AT = np.empty((q, self.n)) if with_weights else None
        full = q - q % QUERY_TILE
        # tile-major views of the full tiles, then of the tail: the queries
        # and the means, moments and weights they fill
        blocks = [(lo, Xq[lo:hi].reshape(-1, w, Xq.shape[1]),
                   M[:, lo:hi].reshape(p, -1, w), kM[:, lo:hi].reshape(p, -1, w),
                   AT[lo:hi].reshape(-1, w, self.n) if with_weights else None)
                  for lo, hi, w in ((0, full, QUERY_TILE), (full, q, q - full))
                  if hi > lo]
        edits = {}
        if deleted is not None:
            for t, i in enumerate(deleted):
                edits.setdefault(int(self.labels[i]), []).append((t, int(i)))
        for first, last in self._runs(q):
            start, stop = self.spans[first][0], self.spans[last][1]
            Xrun = self._Xc[start:stop]
            for lo, Xs, Mb, kMb, ATb in blocks:
                tiles, w = Xs.shape[:2]
                C = np.empty((tiles, stop - start, w))
                kernels.cross_matrix_into(
                    self.kernel, np.broadcast_to(Xrun, (tiles,) + Xrun.shape), Xs, C)
                for g in range(first, last + 1):
                    glo, ghi = self.spans[g]
                    R, Cg = self.inv_factors[g], C[:, glo - start:ghi - start]
                    A = R.T @ (R @ Cg)
                    for t, i in edits.get(g, ()):
                        if not lo <= t < lo + tiles * w:
                            continue
                        # Q[:, j] from the nonzero part of column j of R; the
                        # deleted slot gets a zero weight, so every later
                        # product skips that row
                        s, u = divmod(t - lo, w)
                        j = self.major_row[i] - glo
                        r = R[j:, j]
                        A[s, :, u] = -(R[j:].T @ r) / (r @ r)
                        A[s, j, u] = 0.0
                    np.matmul(self._yc[glo:ghi], A, out=Mb[g])
                    np.einsum("scw,scw->sw", A, Cg, out=kMb[g])
                    if with_weights:
                        ATb[:, :, glo:ghi] = A.transpose(0, 2, 1)
        # transposed views of (p, q) buffers (column-major), as every
        # consumer's reductions expect
        return M.T, kM.T, AT

    def _runs(self, q):
        """Runs (first, last) of consecutive groups for a q-query pass.

        A run holds the groups whose rows fit one kernel tile of
        ``kernels.TILE_ENTRIES`` entries of q columns; a larger group
        forms a run alone.
        """
        budget = max(1, kernels.TILE_ENTRIES // max(q, 1))
        runs, first = [], 0
        for g in range(1, self.p):
            if self.spans[g][1] - self.spans[first][0] > budget:
                runs.append((first, g - 1))
                first = g
        runs.append((first, self.p - 1))
        return runs

    def design_weights(self, AT, alpha):
        """(n, q) design weights sum_g alpha[:, g] a_g, rows in the design's order.

        ``AT`` is the (q, n) query-major weight array of ``layer1``
        and ``alpha`` holds (q, p) expert weights; the combined predictor at
        query t is column t times y.
        """
        return AT.T[self.major_row] * np.asarray(alpha).T[self.labels]

    def likelihood_terms(self):
        """Sums over the groups of y_g' K_g^-1 y_g = |R_g y_g|^2 and log det K_g."""
        pairs = list(zip(self.spans, self.inv_factors))
        z = np.concatenate([R @ self._yc[lo:hi] for (lo, hi), R in pairs])
        diag = np.concatenate([np.diag(R) for _, R in pairs])
        return float(z @ z), -2.0 * float(np.log(diag).sum())

    def cross_cov_rows(self, AT, kM, out, offsets, row_done=None):
        """Expert cross-covariances from query-major weights, row by row.

        ``AT`` is the (q, n) transpose of the weight columns A (from
        ``layer1``) and ``kM`` the (q, p) diagonal from the same pass;
        ``out``, ``offsets`` and ``row_done`` are as in
        :func:`fill_expert_cross_cov`, which a ring of offsets turns into a
        streamed fill.
        """
        fill_expert_cross_cov(self.kernel, self._Xc, self._starts, AT,
                              out, offsets, kM, row_done)


def sample_gaussian(mean, cov, count: int, seed, var_scale: float = 0.0) -> np.ndarray:
    """Draws from N(mean, cov), shape (count, q); deterministic given seed.

    Directions whose variance is negligible relative to ``var_scale`` (or,
    failing that, to the largest diagonal entry) are treated as
    deterministic, so conditional draws reproduce interpolated values
    exactly instead of carrying round-off noise.
    """
    mean = np.asarray(mean, dtype=float).reshape(-1)
    cov = np.asarray(cov, dtype=float)
    qn = mean.shape[0]
    if cov.shape != (qn, qn):
        raise DimensionMismatch("covariance shape does not match the mean")
    out = np.tile(mean, (count, 1))
    if count == 0:
        return out
    diag = np.diag(cov)
    top = diag.max(initial=0.0)
    if top <= 0.0:
        return out
    active = diag > DEGENERATE_VAR_RTOL * max(top, var_scale)
    if not np.any(active):
        return out
    sub = cov[np.ix_(active, active)]
    fac = factor_spd(sub)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count, int(active.sum())))
    out[:, active] += z @ fac.lower.T
    return out


def sample_paths(kernel: KernelSpec, Xgrid, count: int, seed) -> np.ndarray:
    """Zero-mean prior draws on a grid, shape (count, q)."""
    Xgrid = check_queries(kernel, Xgrid)
    cov = kernels.cross_matrix(kernel, Xgrid, Xgrid)
    return sample_gaussian(np.zeros(Xgrid.shape[0]), cov, count, seed)


def sample_conditional(model, Xgrid, count: int, seed) -> np.ndarray:
    """Posterior draws from any model exposing ``posterior(Xq) -> (mean, cov)``."""
    mean, cov = model.posterior(Xgrid)
    scale = getattr(getattr(model, "kernel", None), "variance", 0.0)
    return sample_gaussian(mean, cov, count, seed, var_scale=scale)
