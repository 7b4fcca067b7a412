"""Multi-layer aggregation: tree structures, the layered engine and planning.

Aggregated values can themselves be aggregated.  A tree assigns each node
of layer v a set of children in layer v-1; the engine propagates expert
means and cross-covariances up the layers, so the prediction at the root
never touches any matrix larger than the widest layer.  Prediction streams
the first aggregation layer (``stream_layers``): its nodes are finished
while the expert cross-covariance is filled, so on a multi-layer tree only
a band of that (q, p, p) array is ever held.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DimensionMismatch, InvalidHeight, InvalidTree
from .gpcore import SubModelBank
from .linalg import solve_weights

PLAN_MODES = ("two_layer_sqrt", "equilibrated", "optimal")
_DELTA = 1.5  # growth ratio of child counts in the minimal-cost tree

# fixed prediction chunk; independent of the thread count so that the
# arithmetic (and hence the output bytes) never depends on scheduling
PREDICT_CHUNK = 512


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
    levels: tuple = field(default=())

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


class _Layer:
    """One aggregation layer, computed node by node.

    ``M`` and ``kvec`` are the (q, n_prev) means and process covariances of
    the previous layer and ``K`` its cross-covariances: the whole
    (q, n_prev, n_prev) array, or with ``window`` = w a (q, w, n_prev)
    window whose slot r % w holds row r of K up to its diagonal.
    ``finish(i)`` computes node i's weights, mean and covariance, and its
    cross terms with every node finished before it, in which the node with
    the larger index gives the rows.  Every node's arithmetic is the same
    whichever order the nodes finish in.
    """

    def __init__(self, level, M, kvec, K, window=None):
        self.children = [np.asarray(node, dtype=int) for node in level]
        n_prev = M.shape[1]
        self.whole = [c.shape[0] == n_prev and np.array_equal(c, np.arange(n_prev))
                      for c in self.children]
        self.M_prev, self.kvec, self.K_prev = M, kvec, K
        self.slot = None if window is None else np.arange(n_prev) % window
        q, n = M.shape[0], len(level)
        self.M = np.empty((q, n))
        self.K = np.empty((q, n, n))
        self.alphas = [None] * n
        self.done = []

    def _block(self, ci, cj):
        """Previous-layer cross-covariances K[:, ci, cj], (q, |ci|, |cj|)."""
        if self.slot is None:
            return self.K_prev[:, ci[:, None], cj[None, :]]
        return self.K_prev[:, self.slot[np.maximum.outer(ci, cj)],
                           np.minimum.outer(ci, cj)]

    def finish(self, i):
        ci = self.children[i]
        if self.whole[i]:
            # node over every child: no sub-block extraction needed
            Ksub, ksub, Msub = self.K_prev, self.kvec, self.M_prev
        else:
            Ksub = self._block(ci, ci)
            ksub = self.kvec[:, ci]
            Msub = self.M_prev[:, ci]
        a, _ = solve_weights(Ksub, ksub)
        self.alphas[i] = a
        self.M[:, i] = np.sum(a * Msub, axis=1)
        self.K[:, i, i] = np.sum(a * ksub, axis=1)
        for j in self.done:
            r, c = max(i, j), min(i, j)
            block = self._block(self.children[r], self.children[c])
            e = np.sum(self.alphas[r] * (block @ self.alphas[c][:, :, None])[:, :, 0],
                       axis=1)
            self.K[:, r, c] = e
            self.K[:, c, r] = e
        self.done.append(i)


def _propagate(M, K, levels, kvec=None):
    """Aggregate materialised statistics over ``levels``: (root_mean, root_cov).

    ``kvec`` stands in for the diagonal of ``K`` on the first of them.
    """
    for level in levels:
        if kvec is None:
            kvec = np.einsum("qii->qi", K)
        layer = _Layer(level, M, kvec, K)
        for i in range(len(level)):
            layer.finish(i)
        M, K, kvec = layer.M, layer.K, None
    return M[:, 0], K[:, 0, 0]


def run_layers(M1, k1, K1, tree: AggregationTree):
    """Propagate materialised expert statistics up the tree.

    ``M1``/``k1`` have shape (q, p) and ``K1`` shape (q, p, p) for a batch
    of q prediction points.  Returns (root_mean, root_cov), both (q,):
    the root aggregated value and its covariance with the latent process,
    from which the prediction error is k(x,x) - root_cov.  The result is
    bit-identical to :func:`stream_layers`, which never holds ``K1``.

    Layer-1 experts may have Cov(M_i, Y) different from Var(M_i) (noisy or
    non-Kriging covariates): the distinct ``k1`` vector is honored at the
    first aggregation and the diagonal of the propagated covariance is used
    above, where the two provably coincide.
    """
    M = np.asarray(M1, dtype=float)
    k = np.asarray(k1, dtype=float)
    K = np.asarray(K1, dtype=float)
    if M.shape != k.shape or K.shape != M.shape + (M.shape[-1],):
        raise DimensionMismatch("layer-1 statistics have inconsistent shapes")
    if M.shape[-1] != tree.n_layer1:
        raise InvalidTree("tree width does not match the number of experts")
    return _propagate(M, K, tree.levels, kvec=k)


def stream_layers(bank: SubModelBank, tree: AggregationTree, C, A):
    """(root_mean, root_cov) of the nested predictor from ``group_weights`` output.

    The first aggregation layer consumes the rows of the expert
    cross-covariance as ``bank.cross_cov_rows`` fills them, holding only
    the rows at or above the smallest child index of any unfinished
    first-layer node: one (q, c_2, p) band on the trees of height >= 3
    that ``plan_tree`` builds, all of (q, p, p) on a flat tree.  A node is
    finished as soon as its last child's row is in.  ``C`` is released once
    the expert means and covariances are formed.
    """
    if tree.n_layer1 != bank.p:
        raise InvalidTree(
            f"tree expects {tree.n_layer1} sub-models, bank holds {bank.p}")
    M, k = bank.moments(C, A)
    del C
    q, p = M.shape
    level = tree.levels[0]
    finishing = [[] for _ in range(p)]
    for i, node in enumerate(level):
        finishing[max(node)].append(i)
    # when row g arrives, every row from the smallest first child of the
    # nodes finishing at g or later is still needed
    window, lowest = 1, p
    for g in reversed(range(p)):
        for i in finishing[g]:
            lowest = min(lowest, min(level[i]))
        window = max(window, g - lowest + 1)
    layer = _Layer(level, M, k, np.empty((q, window, p)), window)

    def row_done(g):
        for i in finishing[g]:
            layer.finish(i)

    bank.cross_cov_rows(A, k, layer.K_prev, row_done)
    M2, K2 = layer.M, layer.K
    del layer
    return _propagate(M2, K2, tree.levels[1:])


def nested_predict_batch(bank: SubModelBank, tree: AggregationTree, Xq):
    """Nested prediction at a batch of points: (means, variances), each (q,)."""
    mean, root_cov = stream_layers(bank, tree, *bank.group_weights(Xq))
    variances = np.maximum(bank.kernel.variance - root_cov, 0.0)
    return mean, variances


def nested_predict(bank: SubModelBank, tree: AggregationTree, x):
    """Nested prediction at a single point: (mean, variance)."""
    means, variances = nested_predict_batch(
        bank, tree, np.atleast_2d(np.asarray(x, dtype=float)))
    return float(means[0]), float(variances[0])


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
