"""Everything the suite compares the package against.

Each helper is either an independent oracle, written apart from the
package's code (dense matrix inverses, closed forms, direct loops), or a
direct form of a computation the package now does another way, which the
package must reproduce bit for bit.  The one-point wrappers at the top
(``kernel_eval``, ``submodel_predict``, ``nested_predict``, ``process_cov``
and ``run_benchmark_51``) are thin forms of the package's batch entries
that tests read more easily.  Instance generators stay in ``conftest.py``.
"""

import numpy as np
import scipy.linalg as sla

from nestedkrig import data, gpcore, kernels, linalg, metrics
from nestedkrig.gpcore import SubModelBank
from nestedkrig.linalg import factor_spd, solve, solve_weights
from nestedkrig.tree import _Layer, nested_predict_batch, run_layers


def kernel_eval(spec, x, y):
    """Covariance between two points: the one entry of ``cross_matrix``."""
    return float(kernels.cross_matrix(spec, np.reshape(x, (1, -1)),
                                      np.reshape(y, (1, -1)))[0, 0])


def submodel_predict(bank, x):
    """Expert statistics at a single point: (M, kM, KM) of shapes (p,), (p,), (p, p)."""
    M, k, K = materialised_layer1(bank, np.atleast_2d(np.asarray(x, dtype=float)))
    return M[0], k[0], K[0]


def nested_predict(bank, tree, x):
    """Nested prediction at a single point: (mean, variance)."""
    means, variances = nested_predict_batch(
        bank, tree, np.atleast_2d(np.asarray(x, dtype=float)))
    return float(means[0]), float(variances[0])


def process_cov(process, x, x2):
    """Prior covariance of an aggregated process between two points."""
    return float(process.prior_cov(np.atleast_2d(x), np.atleast_2d(x2))[0, 0])


def run_benchmark_51(seed_set):
    """Replicate the simulated comparison; one report per method and replication."""
    return [report for rep, seed in enumerate(seed_set)
            for report in metrics.replication_reports(
                rep, metrics.benchmark_instance(seed))]


def closed_form(spec, x, y):
    """The covariance of two points, written out family by family."""
    h = np.abs(np.asarray(x) - np.asarray(y)) / np.asarray(spec.lengthscales)
    if spec.family == "squared-exponential":
        return spec.variance * np.exp(-0.5 * np.sum(h * h))
    if spec.family == "exponential":
        return spec.variance * np.exp(-np.sum(h))
    if spec.family == "matern32":
        u = np.sqrt(3.0) * h
        return spec.variance * np.prod((1.0 + u) * np.exp(-u))
    u = np.sqrt(5.0) * h
    return spec.variance * np.prod((1.0 + u + u * u / 3.0) * np.exp(-u))


def dense_expert_stats(kern, X, f, groups, x):
    """Independent dense-matrix oracle for the expert statistics at x.

    Builds every quantity from explicit matrix inverses of the group Gram
    matrices, sharing no code with the production path.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    kxx = kernels.cross_matrix(kern, x, x)[0, 0]
    p = len(groups)
    M = np.empty(p)
    kM = np.empty(p)
    KM = np.empty((p, p))
    inv = [np.linalg.inv(kernels.cross_matrix(kern, X[idx], X[idx]))
           for idx in groups]
    for i, gi in enumerate(groups):
        kxi = kernels.cross_matrix(kern, x, X[gi])
        M[i] = (kxi @ inv[i] @ f[gi]).item()
        kM[i] = (kxi @ inv[i] @ kxi.T).item()
        for j, gj in enumerate(groups):
            kxj = kernels.cross_matrix(kern, x, X[gj])
            KM[i, j] = (kxi @ inv[i]
                        @ kernels.cross_matrix(kern, X[gi], X[gj])
                        @ inv[j] @ kxj.T).item()
    return kxx, M, kM, KM


def dense_aggregate(kern, X, f, groups, x):
    """Dense oracle for the aggregated mean/variance at x (pseudo-inverse weights)."""
    kxx, M, kM, KM = dense_expert_stats(kern, X, f, groups, x)
    alpha = np.linalg.pinv(KM) @ kM
    return float(alpha @ M), float(kxx - alpha @ kM)


def dense_lambda_weights(kern, X, groups, x):
    """Full-design weight vector of the aggregated predictor, densely built."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n = X.shape[0]
    p = len(groups)
    Lam = np.zeros((p, n))
    for i, gi in enumerate(groups):
        Ki = kernels.cross_matrix(kern, X[gi], X[gi])
        Lam[i, gi] = np.linalg.solve(Ki, kernels.cross_matrix(kern, X[gi], x))[:, 0]
    K = kernels.cross_matrix(kern, X, X)
    kM = Lam @ kernels.cross_matrix(kern, X, x)[:, 0]
    KM = Lam @ K @ Lam.T
    alpha = np.linalg.pinv(KM) @ kM
    return Lam.T @ alpha


def dense_process_cov(kern, X, groups, xa, xb):
    """Independent dense assembly of the modified prior covariance."""
    K = kernels.cross_matrix(kern, X, X)
    la = dense_lambda_weights(kern, X, groups, xa)
    lb = dense_lambda_weights(kern, X, groups, xb)
    xa = np.atleast_2d(xa)
    xb = np.atleast_2d(xb)
    kab = kernels.cross_matrix(kern, xa, xb)[0, 0]
    kXa = kernels.cross_matrix(kern, X, xa)[:, 0]
    kXb = kernels.cross_matrix(kern, X, xb)[:, 0]
    return kab + 2.0 * la @ K @ lb - la @ kXb - lb @ kXa


def reference_prior_cov(bank, Za, Zb):
    """The modified prior assembled group by group, over all p^2 group pairs.

    Per-group weighted loadings V_g = alpha_g a_g and covariance rows C_g,
    and one kernel block k(X_g, X_h) per group pair.
    """
    def stats(Z):
        A = bank.layer1(Z)[2].T
        _, k, K = materialised_layer1(bank, Z)
        alpha, _ = solve_weights(K, k)
        V = [A[lo:hi] * alpha[:, g] for g, (lo, hi) in enumerate(bank.spans)]
        return V, [kernels.cross_matrix(bank.kernel, bank._Xc[lo:hi], Z)
                   for lo, hi in bank.spans]

    Za = np.atleast_2d(np.asarray(Za, dtype=float))
    Zb = np.atleast_2d(np.asarray(Zb, dtype=float))
    Va, Ca = stats(Za)
    Vb, Cb = stats(Zb)
    quad = np.zeros((Za.shape[0], Zb.shape[0]))
    for g, (glo, ghi) in enumerate(bank.spans):
        for h, (hlo, hhi) in enumerate(bank.spans):
            B = kernels.cross_matrix(bank.kernel, bank._Xc[glo:ghi],
                                     bank._Xc[hlo:hhi])
            quad += Va[g].T @ B @ Vb[h]
    cross_ab = sum(Va[g].T @ Cb[g] for g in range(bank.p))
    cross_ba = sum(Vb[g].T @ Ca[g] for g in range(bank.p))
    out = kernels.cross_matrix(bank.kernel, Za, Zb) \
        + 2.0 * quad - cross_ab - cross_ba.T
    same = np.all(Za[:, None, :] == Zb[None, :, :], axis=-1)
    out[same] = bank.kernel.variance
    return out


def flat_design_weights(bank, Z):
    """Flat BLUE design weights built outside the tree engine.

    Materialised layer-1 statistics, one batched weight solve, and the
    bank's design weights: the path the modified prior took before the tree
    engine supplied its weights.
    """
    AT = bank.layer1(Z)[2]
    _, k, K = materialised_layer1(bank, Z)
    alpha, _ = solve_weights(K, k)
    return bank.design_weights(AT, alpha)


def flat_prior_cov(bank, Za, Zb):
    """The modified prior on flat design weights, one kernel block per product."""
    kernel, X = bank.kernel, bank.X
    la, kXa = flat_design_weights(bank, Za), kernels.cross_matrix(kernel, X, Za)
    if Zb.shape == Za.shape and np.array_equal(Za, Zb):
        lb, kXb = la, kXa
    else:
        lb, kXb = flat_design_weights(bank, Zb), kernels.cross_matrix(kernel, X, Zb)
    quad = la.T @ kernels.cross_matrix(kernel, X, X) @ lb
    out = kernels.cross_matrix(kernel, Za, Zb) \
        + 2.0 * quad - la.T @ kXb - (lb.T @ kXa).T
    same = np.all(Za[:, None, :] == Zb[None, :, :], axis=-1)
    out[same] = kernel.variance
    return out


def flat_posterior(bank, Xq, X, f):
    """Conditioning of ``flat_prior_cov`` on (X, f): (means, variances, cov)."""
    fac = factor_spd(flat_prior_cov(bank, X, X))
    KqX = flat_prior_cov(bank, Xq, X)
    means = KqX @ solve(fac, f)
    cov = flat_prior_cov(bank, Xq, Xq) - KqX @ solve(fac, KqX.T)
    cov = 0.5 * (cov + cov.T)
    return means, np.maximum(np.diag(cov), 0.0), cov


def query_tiles(q):
    """The ``gpcore.QUERY_TILE`` slices of q queries; the last may be short."""
    return [slice(lo, min(lo + gpcore.QUERY_TILE, q))
            for lo in range(0, q, gpcore.QUERY_TILE)]


def reference_group_weights(bank, Xq):
    """Covariances C = k(X, Xq) and group-major Kriging weight columns A, (n, q).

    The whole-design evaluation of each query tile, side by side: rows
    follow the group-major design order, and the rows of group g hold
    a_g = R_g' (R_g C_g), formed on the tile's own contiguous columns.
    """
    Xq = np.atleast_2d(np.asarray(Xq, dtype=float))
    C = kernels.cross_matrix(bank.kernel, bank._Xc, Xq)
    A = np.empty_like(C)
    for t in query_tiles(Xq.shape[0]):
        Ct = np.ascontiguousarray(C[:, t])
        for (lo, hi), R in zip(bank.spans, bank.inv_factors):
            A[lo:hi, t] = R.T @ (R @ Ct[lo:hi])
    return C, A


def reference_loo_weights(bank, indices):
    """``reference_group_weights`` at design points ``indices``, each deleted from its group."""
    C, A = reference_group_weights(bank, bank.X[indices])
    row = bank.major_row
    for t, i in enumerate(indices):
        g = bank.labels[i]
        lo, hi = bank.spans[g]
        R = bank.inv_factors[g]
        j = row[i] - lo
        r = R[j:, j]
        A[lo:hi, t] = -(R[j:].T @ r) / (r @ r)
        A[row[i], t] = 0.0
    return C, A


def reference_moments(bank, C, A):
    """Expert means and covariances from whole-design (C, A), as transposed
    (p, q) buffers, each query tile from its own contiguous columns."""
    p, q = bank.p, C.shape[1]
    M = np.empty((p, q))
    kM = np.empty((p, q))
    for t in query_tiles(q):
        Ct, At = np.ascontiguousarray(C[:, t]), np.ascontiguousarray(A[:, t])
        for g, (lo, hi) in enumerate(bank.spans):
            M[g, t] = bank._yc[lo:hi] @ At[lo:hi]
            kM[g, t] = np.einsum("cq,cq->q", At[lo:hi], Ct[lo:hi])
    return M.T, kM.T


def reference_fill_expert_cross_cov(kernel, Xcat, starts, weights, out, diag,
                                    row_done=None):
    """The fill on group-major (n, q) weight columns.

    Each query tile has its own contiguous weight columns and multiplies
    by ``weights[stop:stop + c].T`` of those columns; ``row_done(g)`` is
    called after every row.  ``fill_expert_cross_cov`` must fill the same
    bits.
    """
    p = len(starts)
    window = out.shape[1]
    tiles = [(t, np.ascontiguousarray(weights[:, t]))
             for t in query_tiles(weights.shape[1])]
    bounds = np.concatenate([starts, [Xcat.shape[0]]])
    for g in range(p):
        row = out[:, g % window]
        row[:, g] = diag[:, g]
        if g > 0:
            stop = int(starts[g])
            c = int(bounds[g + 1] - bounds[g])
            B = kernels.cross_matrix(kernel, Xcat[stop:stop + c], Xcat[:stop])
            for t, At in tiles:
                W = At[stop:stop + c].T @ B
                W *= At[:stop].T
                seg = np.add.reduceat(W, starts[:g], axis=1)
                row[t, :g] = seg
                if window == p:
                    out[t, :g, g] = seg
        if row_done is not None:
            row_done(g)


def reference_fill(kernel, Xcat, starts, AT, out, offsets, diag,
                   row_done=None):
    """``reference_fill_expert_cross_cov`` behind the fill's interface.

    It fills a whole (q, p, p) array and copies row g of its lower
    triangle to ``out[:, offsets[g]:offsets[g] + g + 1]`` before that
    row's callback.
    """
    A = np.ascontiguousarray(AT.T)
    K = np.empty(diag.shape + diag.shape[-1:])
    row_done = row_done or {}

    def each_row(g):
        out[:, offsets[g]:offsets[g] + g + 1] = K[:, g, :g + 1]
        if g in row_done:
            row_done[g]()

    reference_fill_expert_cross_cov(kernel, Xcat, starts, A, K, diag, each_row)


def materialised_layer1(bank, Xq, deleted=None):
    """Expert statistics at a batch of points, fully materialised: (M, k, K).

    M and k are the (q, p) means and covariances of ``bank.layer1`` and K
    the (q, p, p) expert cross-covariances: the fill writes row g of the
    lower triangle in place, at g·p of a (q, p·p) view, and the upper
    triangle is mirrored from it.  The package never holds K.
    """
    M, k, AT = bank.layer1(Xq, deleted)
    q, p = M.shape
    K = np.empty((q, p, p))
    bank.cross_cov_rows(AT, k, K.reshape(q, p * p), np.arange(p) * p)
    i, j = np.triu_indices(p, 1)
    K[:, i, j] = K[:, j, i]
    return M, k, K


def materialised_layers(M1, k1, K1, tree):
    """``tree.run_layers`` above a dense first layer: (root_mean, root_cov).

    The first layer reads the lower triangle of the (q, p, p) ``K1`` in
    place, row g at g·p, and honours a ``k1`` that differs from its
    diagonal; the streamed first layer must give its bits.
    """
    q, p = M1.shape
    layer = _Layer(tree.levels[0], M1, k1, K1.reshape(q, p * p), np.arange(p) * p)
    layer.finish(range(len(tree.levels[0])))
    return run_layers(layer, tree.levels[1:])[:2]


def reference_layers(M1, k1, K1, tree):
    """The tree's layers on dense statistics: (root_mean, root_cov).

    Every layer holds plain (q, n) means and covariances with the process
    and a (q, n, n) cross-covariance, and solves each node's weights with
    one ``solve_weights`` over all queries.  As in the package, ``k1``
    stands for the diagonal of ``K1`` on the first layer, and in a cross
    term the node with the larger index gives the rows.
    """
    M, k, K = M1, k1, K1
    for level in tree.levels:
        nodes = [list(node) for node in level]
        alphas = [solve_weights(K[:, c][:, :, c], k[:, c])[0] for c in nodes]
        n = len(nodes)
        M_next = np.empty((M.shape[0], n))
        K_next = np.empty((M.shape[0], n, n))
        for r, (a, c) in enumerate(zip(alphas, nodes)):
            M_next[:, r] = np.sum(a * M[:, c], axis=1)
            K_next[:, r, r] = np.sum(a * k[:, c], axis=1)
            for j in range(r):
                # a C-ordered stack, as the package gathers: matmul's bits
                # depend on the operand's layout
                Kcj = np.ascontiguousarray(K[:, c][:, :, nodes[j]])
                e = Kcj @ alphas[j][:, :, None]
                K_next[:, r, j] = K_next[:, j, r] = np.sum(a * e[:, :, 0], axis=1)
        M, K = M_next, K_next
        k = np.diagonal(K, axis1=1, axis2=2)
    return M[:, 0], K[:, 0, 0]


def reference_group_factors(kernel, Xc, spans):
    """The per-group bank build: one kernel matrix, factorization and solve each.

    Returns the inverse factors R_g and the jitter of every group;
    ``SubModelBank`` must give each group the same bits.
    """
    inv_factors, jitter = [], []
    for lo, hi in spans:
        fac = linalg.factor_spd(kernels.cross_matrix(kernel, Xc[lo:hi], Xc[lo:hi]))
        inv_factors.append(sla.solve_triangular(fac.lower, np.eye(hi - lo),
                                                lower=True))
        jitter.append(fac.applied_jitter)
    return inv_factors, np.array(jitter)


class ReferenceBank(SubModelBank):
    """A bank whose inverse factors come from the per-group build."""

    def __init__(self, kernel, X, y, partition):
        super().__init__(kernel, X, y, partition)
        self.inv_factors, self.applied_jitter = reference_group_factors(
            kernel, self._Xc, self.spans)


def reference_kmeans(X, p, seed=0, keep_ties=True):
    """The direct k-means: (labels, number of empty-cluster repairs).

    Every Lloyd step forms the (n, p, d) difference array and sums its
    squares over the last axis, and every centroid is the mean of a boolean
    mask over all n points.  A point keeps its label unless another
    centroid is closer by more than ``data.KMEANS_TIE_RTOL``·|x - c|(|x| +
    |c|); ``keep_ties=False`` gives the plain argmin step instead.
    ``partition_kmeans`` must return the labels of ``keep_ties=True`` bit
    for bit.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    rng = np.random.default_rng(seed)
    centroids = np.empty((p, X.shape[1]))
    centroids[0] = X[rng.integers(n)]
    d2 = np.sum((X - centroids[0]) ** 2, axis=1)
    for k in range(1, p):
        total = d2.sum()
        if total <= 0.0:
            centroids[k] = X[rng.integers(n)]
        else:
            centroids[k] = X[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((X - centroids[k]) ** 2, axis=1))

    repairs = 0
    norms = np.sqrt(np.sum(X * X, axis=1))
    for step in range(data.KMEANS_MAX_ITER):
        dist = np.sum((X[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        best = np.argmin(dist, axis=1)
        if step and keep_ties:
            own = dist[np.arange(n), labels]
            c_norms = np.sqrt(np.sum(centroids * centroids, axis=1))
            slack = np.sqrt(own) * (norms + c_norms[labels])
            best = np.where(own - dist[np.arange(n), best]
                            <= data.KMEANS_TIE_RTOL * slack, labels, best)
        labels = best
        counts = np.bincount(labels, minlength=p)
        for empty in np.flatnonzero(counts == 0):
            donor = int(np.argmax(counts))
            members = np.flatnonzero(labels == donor)
            far = members[np.argmax(
                np.sum((X[members] - centroids[donor]) ** 2, axis=1))]
            labels[far] = empty
            counts[donor] -= 1
            counts[empty] += 1
            repairs += 1
        new_centroids = np.empty_like(centroids)
        for k in range(p):
            new_centroids[k] = X[labels == k].mean(axis=0)
        move = np.max(np.abs(new_centroids - centroids))
        centroids = new_centroids
        if move < data.KMEANS_TOL:
            break
    return labels, repairs


def reference_consistency_labels(n):
    """Group labels of ``metrics.consistency_design(n)``, group by group.

    k_n groups of c_n informative points, then groups of c_n cluster points
    until the last of the p_n groups, which takes what is left.
    """
    p_n = int(np.ceil(n ** 0.8))
    k_n = int(np.ceil(n ** 0.2))
    c_n = (n - 1) // (p_n - 1)
    labels = np.empty(n, dtype=int)
    start = 0
    for g in range(k_n):
        labels[start:start + c_n] = g
        start += c_n
    g = k_n
    while start < n:
        size = c_n if g < p_n - 1 else n - start
        labels[start:start + size] = g
        start += size
        g += 1
    return labels
