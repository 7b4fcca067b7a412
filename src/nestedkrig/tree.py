"""Multi-layer aggregation: tree structures, the layered engine and planning.

Aggregated values can themselves be aggregated.  A tree assigns each node
of layer v a set of children in layer v-1; the engine propagates expert
means and cross-covariances up the layers, so the prediction at the root
never touches any matrix larger than the widest layer.  Prediction streams
the first aggregation layer (``stream_layers``): its nodes are finished
while the expert cross-covariance is filled, so on a multi-layer tree only
a band of that (q, p, p) array is ever held.  The engine is the only code
that solves aggregation weights for the sub-model bank; it hands its node
weights back, and ``nested_design_weights`` multiplies them down the tree
into one weight per design point for the modified prior and diagnostics.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .exceptions import InvalidHeight, InvalidTree
from .gpcore import SubModelBank
from .linalg import solve_weights

PLAN_MODES = ("two_layer_sqrt", "equilibrated", "optimal")
_DELTA = 1.5  # growth ratio of child counts in the minimal-cost tree

# fixed prediction chunk; independent of the thread count so that the
# arithmetic (and hence the output bytes) never depends on scheduling, and
# a multiple of gpcore.QUERY_TILE so that every chunk holds whole query
# tiles and gives the bytes of any other multiple
PREDICT_CHUNK = 512
# most cross-covariances a node gathers per block of queries (2 MiB, eight
# kernel tiles); a query's solve and sums are its own, so blocks change no bit
QUERY_BLOCK_ENTRIES = 2 ** 18


def _packed_offsets(n):
    """Where row r of a packed lower triangle of width n starts: r(r+1)/2."""
    return np.arange(n) * np.arange(1, n + 1) // 2


def map_chunks(evaluate, items, threads=1):
    """The one query loop: ``evaluate(items[lo:hi])`` on the ``PREDICT_CHUNK``
    slices of ``items``, each array of the tuples it returns concatenated in
    order.  A pool of ``threads`` runs the slices, which never depend on it.
    Every package ``evaluate`` computes a query's bits on its own
    ``gpcore.QUERY_TILE`` tile, so any chunk size that is a multiple of the
    tile gives the bytes of one call on all the items."""
    chunks = [items[lo:lo + PREDICT_CHUNK]
              for lo in range(0, len(items), PREDICT_CHUNK)]
    if threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(evaluate, chunks))
    else:
        parts = list(map(evaluate, chunks))
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


@dataclass(frozen=True)
class AggregationTree:
    """Layered aggregation structure.

    ``n_leaves`` is the number of observation points (layer 0) and
    ``n_layer1`` the number of sub-models (layer 1).  ``levels[m]`` holds
    the child sets of layer m+2: a tuple of index tuples into the previous
    layer.  The final layer has exactly one node (the root) and every node
    must have at least one parent; child sets may overlap.
    """

    n_leaves: int
    n_layer1: int
    levels: tuple

    def __post_init__(self):
        levels = tuple(tuple(tuple(int(c) for c in node) for node in level)
                       for level in self.levels)
        object.__setattr__(self, "levels", levels)
        if not levels:
            raise InvalidTree("a tree needs at least one aggregation layer")
        if self.n_layer1 < 1 or self.n_leaves < self.n_layer1:
            raise InvalidTree("invalid leaf / sub-model counts")
        prev = self.n_layer1
        for depth, level in enumerate(levels, start=2):
            if not level:
                raise InvalidTree(f"layer {depth} is empty")
            seen = set()
            for node in level:
                if not node:
                    raise InvalidTree(f"layer {depth} has a childless node")
                if min(node) < 0 or max(node) >= prev:
                    raise InvalidTree(f"layer {depth} child index out of range")
                seen.update(node)
            if seen != set(range(prev)):
                raise InvalidTree(f"layer {depth} does not cover layer {depth - 1}")
            prev = len(level)
        if prev != 1:
            raise InvalidTree("the final layer must contain a single root")

    @classmethod
    def flat(cls, n_leaves: int, p: int) -> "AggregationTree":
        """Two-layer tree whose root aggregates all sub-models at once."""
        return cls(n_leaves=n_leaves, n_layer1=p, levels=((tuple(range(p)),),))

    @property
    def height(self) -> int:
        return 1 + len(self.levels)

    @property
    def layer_sizes(self) -> list:
        """Node counts of layers 1..height."""
        return [self.n_layer1] + [len(level) for level in self.levels]

    def leaf_sizes(self) -> np.ndarray:
        """Balanced layer-1 child counts (observation points per sub-model)."""
        sizes = np.full(self.n_layer1, self.n_leaves // self.n_layer1, dtype=int)
        sizes[: self.n_leaves % self.n_layer1] += 1
        return sizes

    @cached_property
    def first_layer_schedule(self):
        """When the streamed first aggregation layer finishes its nodes.

        Returns ``(finishing, offsets)``: ``finishing`` pairs each layer-1
        row g at which some first-layer node has all its children, in
        increasing g, with those nodes' indices.  When row g arrives, every
        row from the smallest first child of the nodes finishing at g or
        later is still needed; ``offsets`` place the fill's rows in a ring
        of the w rows so needed, at (g % w)·p, or in the packed triangle,
        at g(g+1)/2, when that is no larger.  Computed once per tree.
        """
        level = self.levels[0]
        finishing = {}
        for i, node in enumerate(level):
            finishing.setdefault(max(node), []).append(i)
        window, lowest = 1, self.n_layer1
        for g in sorted(finishing, reverse=True):
            lowest = min(lowest, *(min(level[i]) for i in finishing[g]))
            window = max(window, g - lowest + 1)
        p = self.n_layer1
        offsets = (np.arange(p) % window) * p if 2 * window <= p else _packed_offsets(p)
        return tuple((g, tuple(finishing[g])) for g in sorted(finishing)), offsets


class _Layer:
    """One aggregation layer, computed node by node.

    ``M`` and ``kvec`` are the (q, n_prev) means and process covariances of
    the previous layer; column ``offsets[r] + c`` of the (q, size) buffer
    ``K`` holds their cross-covariance K[:, r, c] for r >= c (the rule of
    ``gpcore.fill_expert_cross_cov``), of which only that lower triangle,
    diagonal included, is read.  ``kvec`` need not be the diagonal of K:
    on the first layer it is the experts' own Cov(M_i, Y), which differs
    from Var(M_i) for noisy or non-Kriging experts and is honoured as
    given.  The layer writes its own lower
    triangle by the same rule, packed: row r at ``_packed_offsets(n)[r]`` of
    a (q, n(n+1)/2) buffer.  ``finish(nodes)`` computes, for each node i of
    ``nodes`` in turn, its weights, mean and covariance, and its cross terms
    with every node finished before it, in which the node with the larger
    index gives the rows.  It runs in query blocks of at most
    ``QUERY_BLOCK_ENTRIES`` gathered covariances; neither the blocks nor the
    finishing order changes any bit.  Once every node is finished the layer
    lets go of its inputs and holds only its own statistics.
    """

    def __init__(self, level, M, kvec, K, offsets):
        self.children = [np.asarray(node, dtype=int) for node in level]
        self.M_prev, self.kvec, self.K_prev, self.offsets = M, kvec, K, offsets
        q, n = M.shape[0], len(level)
        self.M = np.empty((q, n))
        self.own_offsets = _packed_offsets(n)
        self.K = np.empty((q, n * (n + 1) // 2))
        self.alphas = [None] * n
        self.done = []

    def _index(self, ci, cj):
        """Columns of K_prev holding K[:, ci, cj], shape (|ci|, |cj|)."""
        return self.offsets[np.maximum.outer(ci, cj)] + np.minimum.outer(ci, cj)

    def finish(self, nodes):
        q, K, at = self.M.shape[0], self.K_prev, self.own_offsets
        for i in nodes:
            ci = self.children[i]
            a = self.alphas[i] = np.empty((q, ci.size))
            pairs = [(i, i)] + [(max(i, j), min(i, j)) for j in self.done]
            index = [self._index(self.children[r], self.children[c]) for r, c in pairs]
            step = max(1, QUERY_BLOCK_ENTRIES // max(idx.size for idx in index))
            for lo in range(0, q, step):
                b = slice(lo, lo + step)
                ksub = self.kvec[b, ci]
                a[b], _ = solve_weights(K[b, index[0]], ksub)
                self.M[b, i] = np.sum(a[b] * self.M_prev[b, ci], axis=1)
                self.K[b, at[i] + i] = np.sum(a[b] * ksub, axis=1)
                for (r, c), idx in zip(pairs[1:], index[1:]):
                    e = K[b, idx] @ self.alphas[c][b, :, None]
                    self.K[b, at[r] + c] = np.sum(self.alphas[r][b] * e[:, :, 0], axis=1)
            self.done.append(i)
        if len(self.done) == len(self.children):
            del self.M_prev, self.kvec, self.K_prev


def run_layers(layer, levels):
    """Aggregate the finished first ``layer`` over the upper ``levels``.

    Each upper layer reads the packed statistics of the one below, with
    the diagonal of its cross-covariance standing for the process
    covariances: above the first aggregation the two provably coincide.
    Returns (root_mean, root_cov, alphas): the (q,) root values, their
    covariances with the process, from which the prediction error is
    k(x, x) - root_cov, and every layer's node weights.
    """
    alphas = [layer.alphas]
    for level in levels:
        at = layer.own_offsets
        layer = _Layer(level, layer.M, layer.K[:, at + np.arange(at.size)],
                       layer.K, at)
        layer.finish(range(len(level)))
        alphas.append(layer.alphas)
    return layer.M[:, 0], layer.K[:, 0], alphas


class Streamed(NamedTuple):
    """One streamed nested prediction at a batch of q points.

    mean : (q,) root values
    var : (q,) prediction variances k(x, x) - root_cov, clamped at zero,
        where root_cov is the root's covariance with the process
    alphas : the node weights the engine solved, one list per aggregation
        layer with one (q, len(children)) array per node
    M, k : (q, p) expert means and covariances of the layer-1 pass
    weights : the (q, n) query-major expert weights of that pass
    """

    mean: np.ndarray
    var: np.ndarray
    alphas: list
    M: np.ndarray
    k: np.ndarray
    weights: np.ndarray


def stream_layers(bank: SubModelBank, tree: AggregationTree, Xq,
                  deleted=None) -> Streamed:
    """The nested predictor at one batch of points, from one layer-1 pass.

    ``bank.layer1(Xq, deleted)`` gives the expert means and
    covariances and the query-major (q, n) weights, without any n x q
    covariance or group-major weight array.  The weights feed
    ``bank.cross_cov_rows`` and live until the chunk's root is solved;
    the fill frees its own scratch before the last row's callback, so the
    root solve stays under the fill's peak, which is the chunk's.

    The first aggregation layer consumes the rows of the expert
    cross-covariance's lower triangle as they are filled, holding only the
    rows at or above the smallest child index of any unfinished first-layer
    node: a (q, c_2·p) ring on the trees of height >= 3 that ``plan_tree``
    builds, the (q, p(p+1)/2) packed triangle on a flat tree.  A node is
    finished, in query blocks, as soon as its last child's row is in
    (``tree.first_layer_schedule``); the last one frees the rows before the
    upper layers, each a packed triangle, run (:func:`run_layers`).
    """
    if tree.n_layer1 != bank.p:
        raise InvalidTree(
            f"tree expects {tree.n_layer1} sub-models, bank holds {bank.p}")
    finishing, offsets = tree.first_layer_schedule
    # the row buffer, its last slot a whole row, before the pass: allocated
    # after the n x q weights, it raises the peak RSS of a two-layer chunk
    rows = np.empty((np.atleast_2d(Xq).shape[0], offsets.max() + bank.p))
    M, k, AT = bank.layer1(Xq, deleted)
    layer = _Layer(tree.levels[0], M, k, rows, offsets)
    del rows
    row_done = {g: partial(layer.finish, nodes) for g, nodes in finishing}
    bank.cross_cov_rows(AT, k, layer.K_prev, offsets, row_done)
    del row_done
    mean, root_cov, alphas = run_layers(layer, tree.levels[1:])
    var = np.maximum(bank.kernel.variance - root_cov, 0.0)
    return Streamed(mean, var, alphas, M, k, AT)


def nested_predict_batch(bank: SubModelBank, tree: AggregationTree, Xq):
    """Nested prediction at a batch of points: (means, variances), each (q,)."""
    s = stream_layers(bank, tree, Xq)
    return s.mean, s.var


def nested_design_weights(bank: SubModelBank, tree: AggregationTree, Xq):
    """Nested prediction at a batch of points with its design weights.

    Returns (means, variances, lam, k): the means and variances of
    :func:`nested_predict_batch`, the (n, q) weights of the design points
    in the predictor, which is linear in the responses, and the (q, p)
    expert covariances k of the same layer-1 pass.  The engine's node
    weights are multiplied down the tree into the weights beta (q, p) of
    the experts in the root's value, summed over every path to an expert
    since child sets may overlap; then lam = sum_g beta_g a_g, an n x q
    array, so this is for desk-scale batches.
    """
    s = stream_layers(bank, tree, Xq)
    beta = np.ones((s.mean.shape[0], 1))
    for level, layer, width in zip(tree.levels[::-1], s.alphas[::-1],
                                   tree.layer_sizes[-2::-1]):
        below = np.zeros((beta.shape[0], width))
        for i, (node, a) in enumerate(zip(level, layer)):
            np.add.at(below, (slice(None), node), beta[:, i:i + 1] * a)
        beta = below
    return s.mean, s.var, bank.design_weights(s.weights, beta), s.k


@dataclass(frozen=True)
class TreePlan:
    """Planner output: group count, the tree, and the nominal child counts."""

    p: int
    tree: AggregationTree
    child_counts: tuple


def plan_tree(n: int, mode: str, height: int = 2) -> TreePlan:
    """Plan a regular tree over n observations.

    Modes
    -----
    two_layer_sqrt : sqrt(n) sub-models of sqrt(n) points each (height 2);
        the minimal-storage layout.
    equilibrated : equal child counts n**(1/height) on every layer.
    optimal : child counts growing by the ratio 3/2 between layers,
        c_v = 1.5 * (n / 1.5**height) ** (1.5**(v-1) / (2*(1.5**height - 1))),
        which minimizes the weight-solve cost among regular trees.

    Child counts are the formula values rounded to the nearest integer (at
    least 2); the root absorbs whatever the rounding leaves over, so the
    tree always covers all n points.
    """
    if height < 2:
        raise InvalidHeight("tree height must be at least 2")
    if n < 4:
        raise ValueError("planning requires at least 4 observations")
    if mode not in PLAN_MODES:
        raise ValueError(f"unknown mode {mode!r}; choose from {PLAN_MODES}")

    if mode == "two_layer_sqrt":
        height = 2
        c = max(2, round(np.sqrt(n)))
        counts = [c, c]
    elif mode == "equilibrated":
        c = max(2, round(n ** (1.0 / height)))
        counts = [c] * height
    else:
        scaled = n * _DELTA ** (-height)
        counts = [
            max(2, round(_DELTA * scaled ** (_DELTA ** (v - 1)
                                             / (2.0 * (_DELTA ** height - 1.0)))))
            for v in range(1, height + 1)
        ]

    p = int(np.ceil(n / counts[0]))
    sizes = [p]
    for c in counts[1:-1]:
        sizes.append(max(1, int(np.ceil(sizes[-1] / c))))
    levels = []
    for width, c in zip(sizes, counts[1:-1]):
        blocks = [tuple(range(start, min(start + c, width)))
                  for start in range(0, width, c)]
        levels.append(tuple(blocks))
    levels.append((tuple(range(sizes[-1])),))
    tree = AggregationTree(n_leaves=n, n_layer1=p, levels=tuple(levels))
    return TreePlan(p=p, tree=tree, child_counts=tuple(counts))


def complexity_estimate(tree: AggregationTree, alpha_cost: float, beta_cost: float):
    """Predicted cost of one tree prediction and its storage footprint.

    Returns ``(c_alpha, c_beta, storage)``: the weight-solve cost
    ``alpha_cost * sum_v c_v^3 n_v`` summed per node, the cross-covariance
    cost ``beta_cost/2 * sum_v n_v (n_v - 1) c_v^2`` summed per node pair,
    and the peak number of stored reals assuming triangular storage.
    Layer-1 child counts are the balanced group sizes.
    """
    child_counts = [tree.leaf_sizes().tolist()]
    for level in tree.levels:
        child_counts.append([len(node) for node in level])

    c_alpha = 0.0
    c_beta = 0.0
    for counts in child_counts:
        arr = np.asarray(counts, dtype=float)
        c_alpha += alpha_cost * float(np.sum(arr ** 3))
        s1 = float(arr.sum())
        c_beta += 0.5 * beta_cost * (s1 * s1 - float(np.sum(arr ** 2)))
    c_max = max(max(counts) for counts in child_counts)
    sizes = tree.layer_sizes
    n1 = sizes[0]
    n2 = sizes[1] if len(sizes) > 1 else 1
    storage = 0.5 * (c_max * (c_max + 5) + n1 * (n1 + 5) + n2 * (n2 + 3))
    return c_alpha, c_beta, storage
