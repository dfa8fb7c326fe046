"""Evaluation protocols over feature banks.

Everything here is deterministic: neighbor ties break by sample order, vote
ties by summed inverse distance then class id, and all stochastic steps
(few-shot subsets, k-means init, probe splits) take explicit seeds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np


# ---------------------------------------------------------------------------
# k-nearest-neighbor classification
# ---------------------------------------------------------------------------


@dataclass
class KnnIndex:
    features: np.ndarray
    labels: np.ndarray
    k: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels)
        if self.features.ndim != 2 or len(self.features) == 0:
            raise ValueError("index needs a non-empty (n, d) feature matrix")
        if len(self.labels) != len(self.features):
            raise ValueError("labels do not match feature rows")
        if not 1 <= self.k <= len(self.features):
            raise ValueError(f"k={self.k} outside 1..{len(self.features)} (index size)")


# the largest k that `top_k` answers by argmax passes instead of a partition.
# Measured on 2 vCPUs, one BLAS thread, numpy 2.4.6: at 1,025 x 4,096 float32
# scores the passes took 2.3-3.6 ms against 17-30 ms at k = 2, and 5-6 ms
# against 20-31 ms at k = 8; at 197 x 11,760 float32 and 64 x 3,000 float64
# they drew level with the partition at k = 16-20
ARGMAX_MAX_K = 8


def top_k(scores, k):
    """Column ids of the k largest scores in each row of a 2-D array, best first.

    Ties go to the lower column id and NaN ranks last; with k >= the number
    of columns every column is ranked. Every neighbor ranking in the package goes through
    this rule. Float scores at k <= ARGMAX_MAX_K take k argmax passes over a
    copy of each block of rows, each winner masked to -inf for the next:
    argmax returns the lowest id among equal maxima, which is the same rule.
    The caller's array is never written.
    """
    scores = np.asarray(scores)
    n = scores.shape[1]
    if k < 1:
        raise ValueError("k must be at least 1")
    if k >= n:
        return _full_ranking(scores)
    if k > ARGMAX_MAX_K or scores.dtype.kind != "f":
        return _partition_top_k(scores, k)
    ids = np.empty((len(scores), k), dtype=np.intp)
    valid = np.ones(len(scores), dtype=bool)
    # copying QUERY_BLOCK rows at a time keeps the copy small and in cache: at
    # 1,025 x 4,096 the passes took 5.1 against 6.6 ms over one whole copy
    # (float32, k = 8) and 4.8 against 7.3 ms (float64, k = 2)
    for start in range(0, len(scores), QUERY_BLOCK):
        block = slice(start, start + QUERY_BLOCK)
        work = scores[block].copy()
        rows = np.arange(len(work))
        for j in range(k):
            best = work.argmax(axis=1)
            valid[block] &= work[rows, best] > -np.inf
            work[rows, best] = -np.inf
            ids[block, j] = best
    # argmax takes NaN for the largest score, and once a row's best left is
    # -inf it may pick a masked column: such rows are ranked by the partition
    redo = np.flatnonzero(~valid)
    if redo.size:
        ids[redo] = _partition_top_k(scores[redo], k)
    return ids


def _partition_top_k(scores, k):
    """`top_k` for k below the column count, by argpartition and lexsort."""
    n = scores.shape[1]
    ids = np.argpartition(scores, n - k, axis=1)[:, n - k :]
    cut = np.take_along_axis(scores, ids, axis=1).min(axis=1, keepdims=True)
    # argpartition takes NaN for the largest score, so a row with a NaN has
    # a NaN cut; such rows are ranked in full, NaN last
    nan_rows = np.flatnonzero(cut[:, 0] != cut[:, 0])
    if nan_rows.size:
        ids[nan_rows] = _full_ranking(scores[nan_rows])[:, :k]
    # argpartition keeps an arbitrary subset of the scores equal to the cut;
    # in rows where more columns tie there, keep the lowest ids among them
    tied = np.flatnonzero(np.count_nonzero(scores >= cut, axis=1) > k)
    if tied.size:
        sub, sub_cut = scores[tied], cut[tied]
        above = sub > sub_cut
        at = sub == sub_cut
        fill = np.cumsum(at, axis=1) <= k - np.count_nonzero(above, axis=1)[:, None]
        ids[tied] = np.nonzero(above | (at & fill))[1].reshape(len(tied), k)
    order = np.lexsort((ids, -np.take_along_axis(scores, ids, axis=1)))
    return np.take_along_axis(ids, order, axis=1)


def _full_ranking(scores):
    """Every column id of each row, best first, lower id on ties: the order of
    a stable argsort of -scores, from an unstable sort.

    Rows where neighbouring ranked scores are equal are repaired: each run of
    equal scores gets a number, and the key `run * n + id` is sorted.
    """
    n = scores.shape[1]
    order = np.argsort(-scores, axis=1)
    ranked = np.take_along_axis(scores, order, axis=1)
    same = ranked[:, 1:] == ranked[:, :-1]
    if ranked.dtype.kind == "f":
        # NaNs sort last and compare unequal; they too go in id order
        nan_rows = np.flatnonzero(np.isnan(ranked[:, -1:]).any(axis=1))
        same[nan_rows] |= np.isnan(ranked[nan_rows, :-1])
    tied = np.flatnonzero(same.any(axis=1))
    if tied.size:
        run = np.zeros((len(tied), n), dtype=np.int64)
        np.cumsum(~same[tied], axis=1, out=run[:, 1:])
        key = run * n + order[tied]
        key.sort(axis=1)
        order[tied] = key % n
    return order


# query rows per block: 64 keeps a block's (rows, index rows) float64
# temporaries no larger than the (index rows, dim) ones of one unblocked kNN
# query at the feature widths in use (64 and 256)
QUERY_BLOCK = 64


def knn_classify(index, queries):
    """Predicted label per (n, d) query row by majority vote over its
    `index.k` nearest rows.

    Distances are Euclidean, from squared norms and one matrix product per
    block of queries, made in place into the negated squared distances
    2 q.x - |x|^2 - |q|^2 (bit for bit the negation of |x|^2 - 2 q.x + |q|^2,
    up to the sign of a zero) that `top_k` ranks; neighbor ties at equal
    distance resolve to the lower row id. A block votes at once: each
    query's (row, class) pairs are counted and their 1/(d + 1e-12) weights
    summed; classes below the top count drop out, the larger summed weight
    wins and an exact weight tie goes to the lower class id.
    """
    queries = np.asarray(queries, dtype=np.float64)
    classes, label_ids = np.unique(index.labels, return_inverse=True)
    row_sq = np.sum(index.features**2, axis=1)
    preds = np.empty(len(queries), dtype=index.labels.dtype)
    for start in range(0, len(queries), QUERY_BLOCK):
        block = queries[start : start + QUERY_BLOCK]
        neg_d2 = block @ index.features.T
        neg_d2 *= 2.0
        neg_d2 -= row_sq
        neg_d2 -= np.sum(block**2, axis=1)[:, None]
        ids = top_k(neg_d2, index.k)
        dists = np.sqrt(np.maximum(-np.take_along_axis(neg_d2, ids, axis=1), 0.0))
        pairs = (np.arange(len(block))[:, None], label_ids[ids])
        counts = np.zeros((len(block), len(classes)), dtype=np.int64)
        np.add.at(counts, pairs, 1)
        weights = np.zeros(counts.shape)
        np.add.at(weights, pairs, 1.0 / (dists + 1e-12))
        weights[counts < counts.max(axis=1, keepdims=True)] = -np.inf
        preds[start : start + len(block)] = classes[np.argmax(weights, axis=1)]
    return preds


def few_shot_subset(labels, shots, seed):
    """Indices of a seeded stratified subset with `shots` rows per class."""
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    picked = []
    for cls in np.unique(labels):
        rows = np.flatnonzero(labels == cls)
        if len(rows) < shots:
            raise ValueError(f"class {cls} has {len(rows)} samples, needs {shots}")
        picked.append(rng.choice(rows, size=shots, replace=False))
    return np.sort(np.concatenate(picked))


def per_class_accuracy(preds, labels):
    """Recall per class present in the labels."""
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    return {
        int(c): float(np.mean(preds[labels == c] == c)) for c in np.unique(labels)
    }


def accuracy(preds, labels):
    """Top-1 accuracy."""
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if len(preds) != len(labels):
        raise ValueError("prediction/label length mismatch")
    if len(preds) == 0:
        raise ValueError("empty input")
    return float(np.mean(preds == labels))


# ---------------------------------------------------------------------------
# representation similarity
# ---------------------------------------------------------------------------


def linear_cka(mats):
    """Symmetric (K, K) linear centered kernel alignment between K feature
    matrices over the same rows.

    Each matrix is centred and its self-Gram norm ‖XᵀX‖ taken once; entry
    (a, b) above the diagonal is ‖X_bᵀ X_a‖² / (‖X_aᵀ X_a‖ ‖X_bᵀ X_b‖), the
    lower triangle is its mirror and the diagonal is 1.
    """
    mats = [np.asarray(m, dtype=np.float64) for m in mats]
    if not mats or any(m.ndim != 2 or m.shape[0] != mats[0].shape[0] for m in mats):
        raise ValueError("CKA expects (n, p), (n, q), ... matrices")
    if mats[0].shape[0] < 2:
        raise ValueError("CKA needs at least 2 rows")
    centred = [m - m.mean(axis=0) for m in mats]
    norms = [np.linalg.norm(c.T @ c) for c in centred]
    if not all(norms):
        raise ValueError("zero-variance input to CKA")
    cka = np.eye(len(mats))
    for a, b in zip(*np.triu_indices(len(mats), 1)):
        cka[a, b] = cka[b, a] = np.linalg.norm(centred[b].T @ centred[a]) ** 2 / (norms[a] * norms[b])
    return cka


# ---------------------------------------------------------------------------
# clustering and assignment
# ---------------------------------------------------------------------------


@dataclass
class KmeansResult:
    assignments: np.ndarray
    centroids: np.ndarray
    n_iter: int


def _sq_dists(x, x_sq, centroids):
    """(n, k) squared distances x_sq - 2 x.c + |c|^2, built in place on the
    one (n, k) product; the same bits as that expression left to right."""
    d2 = x @ centroids.T
    d2 *= -2.0
    d2 += x_sq[:, None]
    d2 += np.sum(centroids**2, axis=1)
    return d2


def _plusplus_init(x, x_sq, n_clusters, rng):
    """k-means++ start: each centre after the first is a row drawn with
    probability proportional to its squared distance to the nearest centre
    so far, |x|^2 - 2 x.c + |c|^2 from one matrix-vector product."""
    n = len(x)
    centroids = np.empty((n_clusters, x.shape[1]))
    d2 = np.full(n, np.inf)
    row = rng.integers(n)
    for i in range(n_clusters):
        if i:
            total = d2.sum()
            row = rng.integers(n) if total == 0 else rng.choice(n, p=d2 / total)
        centre = centroids[i] = x[row]
        to_c = x @ centre
        to_c *= -2.0
        to_c += x_sq
        to_c += x_sq[row]
        # where the expansion cancels down to rounding noise, take the
        # difference instead: copies of a centre must read exactly 0, or with
        # fewer distinct rows than clusters the draw picks among noise
        near = np.flatnonzero(to_c <= 1e-9 * (x_sq + x_sq[row]))
        to_c[near] = np.sum((x[near] - centre) ** 2, axis=1)
        np.minimum(d2, to_c, out=d2)
    return centroids


def kmeans(x, n_clusters, seed, max_iter=300):
    """Lloyd iterations from a seeded k-means++ start.

    Empty clusters are reseeded from the point farthest from its centroid;
    when every point sits exactly on its centroid, they stay where they are.
    Stops when the largest centroid shift falls below 1e-6. Each centroid is
    the mean of its members in row order: one stable sort by cluster lays
    every cluster's rows out as one contiguous slice.
    """
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    if n_clusters > n:
        raise ValueError("more clusters than points")
    rng = np.random.default_rng(seed)
    x_sq = np.sum(x * x, axis=1)
    centroids = _plusplus_init(x, x_sq, n_clusters, rng)
    for iteration in range(1, max_iter + 1):
        d2 = _sq_dists(x, x_sq, centroids)
        assignments = np.argmin(d2, axis=1)
        counts = np.bincount(assignments, minlength=n_clusters)
        ends = np.cumsum(counts)
        grouped = x[np.argsort(assignments, kind="stable")]
        new_centroids = centroids.copy()
        for c in np.flatnonzero(counts):
            new_centroids[c] = grouped[ends[c] - counts[c] : ends[c]].mean(axis=0)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            point_d2 = d2[np.arange(n), assignments]
            # as in `_plusplus_init`: rows on their centroid up to rounding
            # take the exact difference, so copies of a centroid read 0
            near = np.flatnonzero(point_d2 <= 1e-9 * (x_sq + np.sum(centroids**2, axis=1)[assignments]))
            point_d2[near] = np.sum((x[near] - centroids[assignments[near]]) ** 2, axis=1)
            for c in empty:
                farthest = int(np.argmax(point_d2))
                if point_d2[farthest] <= 0.0:
                    break  # every row sits on its centroid: the rest stay put
                new_centroids[c] = x[farthest]
                point_d2[farthest] = 0.0
        del d2, grouped  # free both before the next iteration forms them again
        shift = np.sqrt(np.max(np.sum((new_centroids - centroids) ** 2, axis=1)))
        centroids = new_centroids
        if shift < 1e-6:
            break
    assignments = np.argmin(_sq_dists(x, x_sq, centroids), axis=1)
    return KmeansResult(assignments=assignments, centroids=centroids, n_iter=iteration)


def hungarian(cost):
    """Minimum-cost assignment via the potentials (Jonker-Volgenant) method.

    Accepts any rectangular matrix; it is padded to square with zeros.
    Returns row_to_col, where rows assigned to padding columns read -1.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError("cost must be a matrix")
    n_rows, n_cols = cost.shape
    size = max(n_rows, n_cols)
    padded = np.zeros((size, size))
    padded[:n_rows, :n_cols] = cost

    u = np.zeros(size + 1)
    v = np.zeros(size + 1)
    col_row = np.zeros(size + 1, dtype=np.int64)  # col j (1-based) -> row
    way = np.zeros(size + 1, dtype=np.int64)
    for row in range(1, size + 1):
        col_row[0] = row
        j0 = 0
        minv = np.full(size + 1, np.inf)
        used = np.zeros(size + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = col_row[j0]
            cur = padded[i0 - 1] - u[i0] - v[1:]
            free = ~used[1:]
            better = free & (cur < minv[1:])
            minv[1:] = np.where(better, cur, minv[1:])
            way[1:] = np.where(better, j0, way[1:])
            masked = np.where(free, minv[1:], np.inf)
            j1 = int(np.argmin(masked)) + 1
            delta = masked[j1 - 1]
            u[col_row[used]] += delta
            v[used] -= delta
            minv[1:][free] -= delta
            j0 = j1
            if col_row[j0] == 0:
                break
        while j0:
            j_prev = way[j0]
            col_row[j0] = col_row[j_prev]
            j0 = j_prev

    row_to_col = np.full(size, -1, dtype=np.int64)
    for j in range(1, size + 1):
        if col_row[j] > 0:
            row_to_col[col_row[j] - 1] = j - 1
    row_to_col = row_to_col[:n_rows]
    row_to_col[row_to_col >= n_cols] = -1
    return row_to_col


def cluster_overlap(assignments, labels):
    """Fraction of points whose cluster maps to their class under the
    optimal cluster/class matching (cost = -overlap)."""
    clusters, cluster_index = np.unique(assignments, return_inverse=True)
    classes, class_index = np.unique(labels, return_inverse=True)
    shape = (len(clusters), len(classes))
    pairs = cluster_index * len(classes) + class_index
    contingency = np.bincount(pairs, minlength=shape[0] * shape[1]).reshape(shape)
    mapping = hungarian(-contingency)
    matched = sum(
        contingency[ci, col] for ci, col in enumerate(mapping) if col >= 0
    )
    return float(matched / len(labels))


# ---------------------------------------------------------------------------
# logistic probe
# ---------------------------------------------------------------------------


@dataclass
class ProbeModel:
    weights: np.ndarray  # (C, D)
    bias: np.ndarray  # (C,)
    classes: np.ndarray

    def predict(self, x):
        scores = np.asarray(x, dtype=np.float64) @ self.weights.T + self.bias
        return self.classes[np.argmax(scores, axis=1)]


def _loss_terms(scores, y_index, w, lam):
    """Mean cross-entropy of (C, n) class scores + 0.5 * lam * ||w||^2.

    Also returns the exponentials shifted by each sample's top score and their
    per-sample sums, from which `_loss_gradient` forms the softmax.
    """
    top = scores.max(axis=0)
    e = np.exp(scores - top)
    z = e.sum(axis=0)
    true_shifted = scores[y_index, np.arange(scores.shape[1])] - top
    ce = float(np.mean(np.log(z) - true_shifted))
    return ce + 0.5 * lam * float(np.sum(w * w)), e, z


def _loss_gradient(e, z, y_index, x, w, lam):
    """Gradient of the `_loss_terms` loss over (W, b), from its exponentials.

    (softmax - onehot) @ x / n + lam * W for the weights, the per-class mean
    of (softmax - onehot) for the bias.
    """
    n = len(x)
    resid = e / z
    resid[y_index, np.arange(n)] -= 1.0
    return resid @ x / n + lam * w, resid.sum(axis=1) / n


@dataclass
class ProbeFit:
    """How one probe training ran."""

    lam: float
    epochs: int = 0  # iterations that started a line search
    trials: int = 0  # trial steps evaluated
    accepted: int = 0  # steps taken
    stop: str = "max_epochs"  # or "grad_tol", or "line_search": no step lowered the loss


def _lbfgs_direction(g, pairs):
    """-H g for the L-BFGS inverse-Hessian estimate H of the (s, y, 1 / s.y)
    pairs, oldest first, with H0 = (s.y / y.y) I from the newest pair: the
    two-loop recursion."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * (s @ q))
        q -= alphas[-1] * y
    if pairs:
        s, y, _ = pairs[-1]
        q *= (s @ y) / (y @ y)
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * (y @ q)) * s
    return -q


def _train_logreg(x, y_index, n_classes, lam, max_epochs, grad_tol=1e-8, start=None):
    """Minimize the `_loss_terms` loss over (W, b) by L-BFGS, from `start`
    = (W, b) or from zero weights.

    Directions come from the last 10 curvature pairs of flat [W.ravel(), b]
    vectors (Liu & Nocedal 1989); a pair whose s.y is not positive is
    dropped, and a direction that does not descend is replaced by -g.
    Backtracking halves the step from 1 until the Armijo test
    f(θ + s p) <= f + 1e-4 s g.p holds. The class scores move affinely along
    a direction, scores(W + s P, b + s p_b) = scores + s (P x^T + p_b), so an
    iteration makes two products over x (that direction, and the gradient at
    the accepted point) and each trial step costs O(C n + C D).
    Returns (W, b, loss, ProbeFit).
    """
    if start is None:
        w, b = np.zeros((n_classes, x.shape[1])), np.zeros(n_classes)
        scores = np.zeros((n_classes, len(x)))
    else:
        w, b = start
        scores = w @ x.T + b[:, None]
    loss, e, z = _loss_terms(scores, y_index, w, lam)
    g = np.concatenate(_loss_gradient(e, z, y_index, x, w, lam), axis=None)
    fit = ProbeFit(lam=float(lam))
    pairs = deque(maxlen=10)
    for _ in range(max_epochs):
        if np.max(np.abs(g)) < grad_tol:
            fit.stop = "grad_tol"
            break
        fit.epochs += 1
        p = _lbfgs_direction(g, pairs)
        slope = float(g @ p)
        if not slope < 0:
            p, slope = -g, -float(g @ g)
        pw, pb = p[:-n_classes].reshape(w.shape), p[-n_classes:]
        direction = pw @ x.T + pb[:, None]
        step = 1.0
        while step > 1e-12:
            fit.trials += 1
            new_w, new_scores = w + step * pw, scores + step * direction
            new_loss, e, z = _loss_terms(new_scores, y_index, new_w, lam)
            if new_loss <= loss + 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            fit.stop = "line_search"  # at the numerical limit of the line search
            break
        fit.accepted += 1
        new_g = np.concatenate(_loss_gradient(e, z, y_index, x, new_w, lam), axis=None)
        s, y = step * p, new_g - g
        sy = float(s @ y)
        if sy > 0:
            pairs.append((s, y, 1.0 / sy))
        w, b, scores, loss, g = new_w, b + step * pb, new_scores, new_loss, new_g
    return w, b, loss, fit


def _stratified_split(labels, val_fraction, seed):
    rng = np.random.default_rng(seed)
    train_rows, val_rows = [], []
    for cls in np.unique(labels):
        rows = np.flatnonzero(labels == cls)
        rows = rows[rng.permutation(len(rows))]
        n_val = max(1, int(round(len(rows) * val_fraction)))
        val_rows.append(rows[:n_val])
        train_rows.append(rows[n_val:])
    return np.sort(np.concatenate(train_rows)), np.sort(np.concatenate(val_rows))


@dataclass
class ProbeResult:
    model: ProbeModel
    best_lambda: float
    lambda_grid: np.ndarray
    fits: list  # ProbeFit per lambda of the grid, then the refit at best_lambda


def logistic_probe(train_x, train_y, lambda_grid, max_epochs, seed):
    """L2-regularized multinomial logistic regression with grid-searched
    regularization strength.

    The best lambda is chosen by accuracy on the held-out 20% of a seeded
    stratified split of the training set; the returned model is refit on the
    full training set. Every class holds out at least one row, so a training
    set with one row per class leaves none to fit on and raises ValueError.

    Rows of any float dtype train in float64. The fit and validation rows are
    gathered from `train_x` as float64, and a float64 copy of all of it is
    formed only for the refit, after those two are dropped, so float32 rows
    never hold two float64 copies at once.
    """
    train_x = np.asarray(train_x)
    train_y = np.asarray(train_y)
    classes, y_index = np.unique(train_y, return_inverse=True)
    if len(classes) < 2:
        raise ValueError("probe needs at least two classes")
    lambda_grid = np.asarray(lambda_grid, dtype=np.float64)

    fit_rows, val_rows = _stratified_split(train_y, 0.2, seed)
    if not len(fit_rows):
        raise ValueError("probe has no rows to fit: each class holds out a row to choose lambda, "
                         "and every class has one")
    fit_x, fit_y = np.asarray(train_x[fit_rows], dtype=np.float64), y_index[fit_rows]
    sel_x, sel_y = np.asarray(train_x[val_rows], dtype=np.float64), y_index[val_rows]

    # largest lambda first, each training warm-started from the last one;
    # on an accuracy tie the smaller lambda, trained later, wins
    best, fits, start = None, [None] * len(lambda_grid), None
    for i in np.argsort(-lambda_grid, kind="stable"):
        w, b, _, fits[i] = _train_logreg(
            fit_x, fit_y, len(classes), lambda_grid[i], max_epochs, start=start
        )
        start = (w, b)
        acc = float(np.mean(np.argmax(sel_x @ w.T + b, axis=1) == sel_y))
        if best is None or acc >= best[0]:
            best = (acc, float(lambda_grid[i]), start)

    _, best_lambda, best_start = best
    del fit_x, sel_x
    w, b, _, fit = _train_logreg(
        np.asarray(train_x, dtype=np.float64), y_index, len(classes), best_lambda, max_epochs, start=best_start
    )
    fits.append(fit)
    return ProbeResult(
        model=ProbeModel(weights=w, bias=b, classes=classes),
        best_lambda=best_lambda,
        lambda_grid=lambda_grid,
        fits=fits,
    )


# ---------------------------------------------------------------------------
# retrieval
# ---------------------------------------------------------------------------


def unit_rows(x, name):
    """`x` with each row divided by its L2 norm. A row whose norm is zero
    or not finite raises ValueError naming the first as `<name> row <i>`."""
    norms = np.linalg.norm(x, axis=1)
    bad = np.flatnonzero(~np.isfinite(norms) | (norms == 0))
    if bad.size:
        raise ValueError(f"{name} row {bad[0]} has a zero or non-finite norm and cannot be ranked")
    return x / norms[:, None]


def check_unit_rows(x, name, tol):
    """Raise ValueError naming the first row of `x`, as `<name> row <i>`,
    that is not finite or whose L2 norm is more than `tol` from 1."""
    norms = np.linalg.norm(x, axis=1)
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= tol))  # a NaN norm compares False
    if bad.size:
        raise ValueError(f"{name} row {bad[0]} is not unit-norm within {tol:g} (norm {norms[bad[0]]:.6g})")


def retrieval_map(query_features, gallery_features, query_labels, gallery_labels):
    """Mean average precision of cosine-ranked galleries.

    A gallery row is relevant to a query when their labels are equal.
    Queries with no relevant items are skipped. Returns (mAP, per-query APs).
    Each query's gallery is ranked in full by `top_k`; its AP sums i / r over
    its hits, the i-th hit at rank r, and divides by the hit count. A
    zero-norm or non-finite row cannot be ranked and raises ValueError.
    """
    gallery = np.asarray(gallery_features, dtype=np.float64)
    queries = np.asarray(query_features, dtype=np.float64)
    if gallery.size == 0:
        raise ValueError("empty gallery")
    gallery_labels = np.asarray(gallery_labels)
    query_labels = np.asarray(query_labels)
    gallery_n = unit_rows(gallery, "gallery")
    queries_n = unit_rows(queries, "query")
    aps = []
    for start in range(0, len(queries_n), QUERY_BLOCK):
        block = slice(start, start + QUERY_BLOCK)
        order = top_k(queries_n[block] @ gallery_n.T, len(gallery))
        rows, cols = np.nonzero(gallery_labels[order] == query_labels[block, None])
        n_rel = np.bincount(rows, minlength=len(order))
        # hits come row by row; the i-th of its row is at rank cols + 1
        hit = np.arange(1, len(rows) + 1) - np.repeat(np.cumsum(n_rel) - n_rel, n_rel)
        ap = np.bincount(rows, weights=hit / (cols + 1), minlength=len(order)) / np.maximum(n_rel, 1)
        aps.append(ap[n_rel > 0])
    aps = np.concatenate(aps)
    if not aps.size:
        raise ValueError("no query had relevant gallery items")
    return float(np.mean(aps)), aps


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class EvalReport:
    metric: str
    value: float
    per_class: dict = None

    def csv_rows(self):
        rows = [(self.metric, "", f"{self.value:.6f}")]
        if self.per_class:
            for cls in sorted(self.per_class):
                rows.append((self.metric, str(cls), f"{self.per_class[cls]:.6f}"))
        return rows


def write_csv(path, reports, config_lines):
    with open(path, "w", encoding="utf-8") as fh:
        for line in config_lines:
            fh.write(f"# {line}\n")
        fh.write("metric,class,value\n")
        for report in reports:
            for metric, cls, value in report.csv_rows():
                fh.write(f"{metric},{cls},{value}\n")


def render_table(rows, header):
    """Aligned-text table for terminal output."""
    rows = [[str(c) for c in row] for row in rows]
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i]) for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
