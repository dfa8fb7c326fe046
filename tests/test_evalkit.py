import itertools
import tracemalloc

import numpy as np
import pytest

from fungi import evalkit as ek
from fungi.config import RunConfig

from .oracles import assignment_cost, cka_reference, finite_diff_gradient, inertia, max_relative_error, validation_accuracy

GRID = RunConfig().probe_lambda_grid()  # the reference [eval] probe lambda grid
MAX_EPOCHS = RunConfig().eval.probe_max_epochs


def brute_force_knn(train_x, train_y, query, k):
    """Independent oracle: all-pairs distances, same declared tie rules."""
    dists = np.array([np.sqrt(np.sum((t - query) ** 2)) for t in train_x])
    order = sorted(range(len(train_x)), key=lambda i: (dists[i], i))[:k]
    labels = train_y[order]
    counts = {}
    for lbl in labels:
        counts[lbl] = counts.get(lbl, 0) + 1
    top = max(counts.values())
    winners = [c for c, n in counts.items() if n == top]
    if len(winners) == 1:
        return winners[0]
    weights = {
        c: sum(1.0 / (dists[i] + 1e-12) for i in order if train_y[i] == c)
        for c in winners
    }
    best = max(weights.values())
    return min(c for c in winners if weights[c] == best)


def probe_loss_and_grad(wb, x, y_index, n_classes, lam):
    """(loss, flat gradient) at wb = [W.ravel(), b], through the trainer's own helpers."""
    dim = x.shape[1]
    w = wb[: n_classes * dim].reshape(n_classes, dim)
    b = wb[n_classes * dim :]
    loss, e, z = ek._loss_terms(w @ x.T + b[:, None], y_index, w, lam)
    gw, gb = ek._loss_gradient(e, z, y_index, x, w, lam)
    return loss, np.concatenate([gw.ravel(), gb])


def newton_train_logreg(x, y_index, n_classes, lam, grad_tol=1e-13):
    """Independent oracle: damped Newton on the dense Hessian of the probe loss
    over the augmented weights A = [W | b], run until max |grad| < grad_tol.

    The bias is unregularised and a shift of every bias by the same constant
    leaves the loss unchanged, so the Hessian is singular along that shift;
    the minimum-norm (lstsq) step is orthogonal to it, and from zero the
    biases keep summing to zero, as the trainer's do. Backtracking ignores
    loss rises at rounding level, where near the optimum the loss can no
    longer resolve a step.
    """
    n, dim = x.shape
    xa = np.hstack([x, np.ones((n, 1))])
    onehot = np.eye(n_classes)[y_index]
    reg = lam * np.append(np.ones(dim), 0.0)  # per column of A

    def loss_at(a):
        s = xa @ a.T
        top = s.max(axis=1, keepdims=True)
        log_z = np.log(np.exp(s - top).sum(axis=1)) + top[:, 0]
        return np.mean(log_z - s[np.arange(n), y_index]) + 0.5 * lam * np.sum(a[:, :dim] ** 2)

    a = np.zeros((n_classes, dim + 1))
    for _ in range(100):
        s = xa @ a.T
        p = np.exp(s - s.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        grad = (p - onehot).T @ xa / n + a * reg
        if np.max(np.abs(grad)) < grad_tol:
            return a[:, :dim], a[:, dim]
        cov = np.einsum("ic,ck->ick", p, np.eye(n_classes)) - np.einsum("ic,ik->ick", p, p)
        hess = np.einsum("ick,ij,il->cjkl", cov, xa, xa).reshape(a.size, a.size) / n
        hess += np.diag(np.tile(reg, n_classes))
        step = -np.linalg.lstsq(hess, grad.ravel(), rcond=None)[0].reshape(a.shape)
        loss, slope, t = loss_at(a), float(np.sum(grad * step)), 1.0
        while loss_at(a + t * step) > loss + 1e-4 * t * slope + 1e-15 * abs(loss):
            t *= 0.5
        a = a + t * step
    raise AssertionError("Newton oracle did not converge")


def oracle_cluster_contingency(assignments, labels):
    """Clusters x classes member counts, one masked count per pair."""
    clusters, classes = np.unique(assignments), np.unique(labels)
    table = np.zeros((len(clusters), len(classes)))
    for ci, c in enumerate(clusters):
        member_labels = labels[assignments == c]
        for ki, k in enumerate(classes):
            table[ci, ki] = np.sum(member_labels == k)
    return table


def oracle_kmeans(x, n_clusters, seed, max_iter):
    """Reference k-means, bit for bit what `ek.kmeans` must return: a
    difference per k-means++ centre, the distance expression with its
    temporaries, one member mask per cluster, and an empty cluster reseeded
    from the row farthest from its centroid by difference, while one is off
    its centroid."""

    def plusplus_init(x, n_clusters, rng):
        n = len(x)
        centroids = np.empty((n_clusters, x.shape[1]))
        centroids[0] = x[rng.integers(n)]
        d2 = np.sum((x - centroids[0]) ** 2, axis=1)
        for i in range(1, n_clusters):
            total = d2.sum()
            if total == 0:
                centroids[i] = x[rng.integers(n)]
                continue
            centroids[i] = x[rng.choice(n, p=d2 / total)]
            d2 = np.minimum(d2, np.sum((x - centroids[i]) ** 2, axis=1))
        return centroids

    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    rng = np.random.default_rng(seed)
    centroids = plusplus_init(x, n_clusters, rng)
    x_sq = np.sum(x * x, axis=1)
    for iteration in range(1, max_iter + 1):
        d2 = x_sq[:, None] - 2.0 * (x @ centroids.T) + np.sum(centroids**2, axis=1)
        assignments = np.argmin(d2, axis=1)
        new_centroids = centroids.copy()
        point_d2 = np.sum((x - centroids[assignments]) ** 2, axis=1)
        for c in range(n_clusters):
            members = assignments == c
            if members.any():
                new_centroids[c] = x[members].mean(axis=0)
            elif point_d2.max() > 0:
                farthest = int(np.argmax(point_d2))
                new_centroids[c] = x[farthest]
                point_d2[farthest] = 0.0
        shift = np.sqrt(np.max(np.sum((new_centroids - centroids) ** 2, axis=1)))
        centroids = new_centroids
        if shift < 1e-6:
            break
    d2 = x_sq[:, None] - 2.0 * (x @ centroids.T) + np.sum(centroids**2, axis=1)
    assignments = np.argmin(d2, axis=1)
    return ek.KmeansResult(assignments=assignments, centroids=centroids, n_iter=iteration)


def lexsort_top_k(scores, k):
    """Reference ranking: per row, descending score, then ascending column id."""
    cols = np.arange(scores.shape[1])
    return np.stack([np.lexsort((cols, -row))[:k] for row in scores])


class TestTopK:
    def test_matches_lexsort_on_heavy_ties(self):
        rng = np.random.default_rng(30)
        for n in (1, 2, 7, 40):
            scores = rng.integers(-3, 4, size=(25, n))
            for k in range(1, n + 3):
                np.testing.assert_array_equal(ek.top_k(scores, k), lexsort_top_k(scores, k))

    def test_float_scores_without_ties(self):
        scores = np.random.default_rng(31).normal(size=(50, 300))
        np.testing.assert_array_equal(ek.top_k(scores, 20), lexsort_top_k(scores, 20))

    @pytest.mark.parametrize("case", ["no_ties", "duplicated_column", "all_equal_row", "integer_ties"])
    def test_full_ranking_at_benchmark_width(self, case):
        # a 64-query block against a 3000-row gallery, as `retrieval_map` ranks it
        rng = np.random.default_rng(34)
        scores = rng.normal(size=(64, 3000))
        if case == "duplicated_column":
            scores[:, 2100] = scores[:, 17]  # a tie in every row
        elif case == "all_equal_row":
            scores[40] = 0.25
        elif case == "integer_ties":
            scores = rng.integers(-3, 4, size=(64, 3000))
        np.testing.assert_array_equal(ek.top_k(scores, 3000), lexsort_top_k(scores, 3000))

    def test_rows_with_nans_rank_them_last_in_both_branches(self):
        # argpartition takes NaN for the largest score; the full ranking puts it last
        scores = np.random.default_rng(36).integers(-2, 3, size=(8, 12)).astype(np.float64)
        scores[1, [3, 9]] = np.nan
        scores[4] = np.nan
        scores[6, :11] = np.nan
        for k in range(1, 14):
            np.testing.assert_array_equal(ek.top_k(scores, k), lexsort_top_k(scores, k))
        np.testing.assert_array_equal(ek.top_k([[0.1, np.nan, 0.5, 0.3]], 2), [[2, 3]])

    def test_full_ranking_puts_nans_last_in_id_order(self):
        scores = np.random.default_rng(35).integers(-2, 3, size=(6, 50)).astype(np.float64)
        scores[1, [3, 9, 20]] = np.nan
        scores[4] = np.nan
        np.testing.assert_array_equal(ek.top_k(scores, 50), np.argsort(-scores, axis=1, kind="stable"))


SMALL_KS = range(1, ek.ARGMAX_MAX_K + 2)  # every argmax-pass k, and the first partition k


def small_k_scores(case, dtype):
    """150 x 60 scores, three row blocks of `top_k`'s argmax passes, with the
    ties and non-finite entries of one case."""
    rng = np.random.default_rng(37)
    scores = rng.normal(size=(150, 60))
    if case == "heavy_ties":
        scores = rng.integers(-3, 4, size=(150, 60)).astype(np.float64)
    elif case == "duplicated_columns":
        scores[:, 50:] = scores[:, 3:13]  # ten ties in every row
    elif case == "all_equal_rows":
        scores[[4, 70, 149]] = 0.25
    elif case == "non_finite":
        scores = rng.integers(-2, 3, size=(150, 60)).astype(np.float64)
        scores[1, [3, 9]] = np.nan
        scores[66] = np.nan
        scores[5, [0, 30, 59]] = np.inf
        scores[6] = -np.inf
        scores[130, 4:] = -np.inf  # -inf among the top k from k = 5
        scores[8, ::2] = np.inf
        scores[8, 1::2] = -np.inf
        scores[140, :55] = np.nan
        scores[10, [2, 40]] = -np.inf
    return scores.astype(dtype)


class TestTopKByArgmax:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", ["no_ties", "heavy_ties", "duplicated_columns", "all_equal_rows", "non_finite"])
    def test_matches_lexsort_at_small_k(self, case, dtype):
        scores = small_k_scores(case, dtype)
        for k in SMALL_KS:
            got = ek.top_k(scores, k)
            np.testing.assert_array_equal(got, lexsort_top_k(scores, k))
            np.testing.assert_array_equal(got, ek._full_ranking(scores)[:, :k])

    def test_integer_scores_at_small_k(self):
        scores = small_k_scores("heavy_ties", np.int64)
        for k in SMALL_KS:
            np.testing.assert_array_equal(ek.top_k(scores, k), lexsort_top_k(scores, k))

    @pytest.mark.parametrize("case", ["heavy_ties", "non_finite"])
    def test_read_only_scores_are_left_unchanged(self, case):
        scores = small_k_scores(case, np.float32)
        before = scores.copy()
        scores.flags.writeable = False
        for k in SMALL_KS:
            np.testing.assert_array_equal(ek.top_k(scores, k), lexsort_top_k(scores, k))
        np.testing.assert_array_equal(scores, before)


class TestQueryBlocks:
    """A query ranked alone gets the result it gets inside a multi-block batch."""

    def test_knn(self):
        rng = np.random.default_rng(32)
        train, train_y = rng.normal(size=(200, 6)), rng.integers(0, 4, size=200)
        queries = rng.normal(size=(2 * ek.QUERY_BLOCK + 5, 6))
        index = ek.KnnIndex(train, train_y, k=9)
        batch = ek.knn_classify(index, queries)
        alone = [ek.knn_classify(index, q[None])[0] for q in queries]
        np.testing.assert_array_equal(batch, alone)

    def test_retrieval_map(self):
        rng = np.random.default_rng(33)
        gallery, gallery_y = rng.normal(size=(150, 6)), rng.integers(0, 4, size=150)
        queries = rng.normal(size=(2 * ek.QUERY_BLOCK + 5, 6))
        query_y = rng.integers(0, 4, size=len(queries))
        _, batch = ek.retrieval_map(queries, gallery, query_y, gallery_y)
        alone = [ek.retrieval_map(q[None], gallery, [y], gallery_y)[1][0] for q, y in zip(queries, query_y)]
        np.testing.assert_array_equal(batch, alone)


class TestKnn:
    def test_query_on_train_point_k1(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(20, 4))
        y = rng.integers(0, 3, size=20)
        index = ek.KnnIndex(x, y, k=1)
        assert ek.knn_classify(index, x[7:8])[0] == y[7]

    @pytest.mark.parametrize("k", [1, 20])
    def test_matches_brute_force_oracle(self, k):
        rng = np.random.default_rng(1)
        train = rng.normal(size=(300, 8))
        train_y = rng.integers(0, 5, size=300)
        queries = rng.normal(size=(60, 8))
        index = ek.KnnIndex(train, train_y, k=k)
        got = ek.knn_classify(index, queries)
        want = [brute_force_knn(train, train_y, q, k) for q in queries]
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("k", [2, 6, 20])
    def test_block_vote_matches_oracle_on_tied_counts(self, k):
        # integer coordinates: equal distances, equal vote counts and equal
        # summed inverse distances all occur, so every tie rule decides
        rng = np.random.default_rng(3)
        train = rng.integers(0, 4, size=(150, 2)).astype(np.float64)
        train_y = rng.choice([7, 3, 11, 5], size=150)
        queries = rng.integers(0, 4, size=(2 * ek.QUERY_BLOCK + 9, 2)).astype(np.float64)
        got = ek.knn_classify(ek.KnnIndex(train, train_y, k=k), queries)
        want = [brute_force_knn(train, train_y, q, k) for q in queries]
        assert np.array_equal(got, want)

    def test_duplicated_coordinates_leave_predictions_unchanged(self):
        rng = np.random.default_rng(2)
        train = rng.normal(size=(100, 5))
        train_y = rng.integers(0, 4, size=100)
        queries = rng.normal(size=(25, 5))
        a = ek.knn_classify(ek.KnnIndex(train, train_y, k=7), queries)
        b = ek.knn_classify(
            ek.KnnIndex(np.hstack([train, train]), train_y, k=7),
            np.hstack([queries, queries]),
        )
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("k", [1, 3])
    def test_in_place_distances_match_previous_expression(self, k, monkeypatch):
        rng = np.random.default_rng(4)
        train = rng.integers(0, 3, size=(40, 3)).astype(np.float64)  # exact distance ties
        train[20:] += rng.normal(size=(20, 3))
        train_y = rng.integers(0, 4, size=40)
        train_y[:3] = [6, 6, 1]  # an all-NaN row ranks ids 0, 1, 2 first: a clear vote at k = 1 and 3
        # d2 = +0 at the copy of an integer row and near 0 at the copy of row 25;
        # one query with a NaN feature and one of NaNs only
        queries = np.vstack([train[[5, 25]], rng.integers(0, 3, size=(2 * ek.QUERY_BLOCK, 3)), np.full((1, 3), np.nan)])
        queries[7, 1] = np.nan
        seen, top_k = [], ek.top_k

        def recording_top_k(scores, n):
            seen.append(scores.copy())
            return top_k(scores, n)

        monkeypatch.setattr(ek, "top_k", recording_top_k)
        for a in (train, train_y, queries):
            a.setflags(write=False)
        got = ek.knn_classify(ek.KnnIndex(train, train_y, k=k), queries)
        row_sq = np.sum(train**2, axis=1)
        for start, scores in zip(range(0, len(queries), ek.QUERY_BLOCK), seen, strict=True):
            block = queries[start : start + ek.QUERY_BLOCK]
            previous = row_sq - 2.0 * (block @ train.T) + np.sum(block**2, axis=1)[:, None]
            np.testing.assert_array_equal(scores, -previous)
        assert np.array_equal(got, [brute_force_knn(train, train_y, q, k) for q in queries])

    def test_k_exceeds_index(self):
        with pytest.raises(ValueError):
            ek.KnnIndex(np.zeros((3, 2)), np.zeros(3), k=5)

    def test_vote_tie_breaks_by_inverse_distance(self):
        # two labels, one neighbor each: the closer one wins
        train = np.array([[0.0], [1.0]])
        labels = np.array([5, 9])
        pred = ek.knn_classify(ek.KnnIndex(train, labels, k=2), np.array([[0.2]]))
        assert pred[0] == 5


class TestFewShot:
    def test_counts(self):
        labels = np.repeat(np.arange(10), 30)
        rows = ek.few_shot_subset(labels, shots=5, seed=3)
        assert len(rows) == 50
        picked = labels[rows]
        assert all(np.sum(picked == c) == 5 for c in range(10))

    def test_seed_determinism(self):
        labels = np.repeat(np.arange(4), 9)
        a = ek.few_shot_subset(labels, 5, seed=8)
        b = ek.few_shot_subset(labels, 5, seed=8)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, ek.few_shot_subset(labels, 5, seed=9))

    def test_insufficient_class(self):
        with pytest.raises(ValueError):
            ek.few_shot_subset(np.array([0, 0, 1]), shots=2, seed=0)


class TestAccuracy:
    def test_all_correct(self):
        assert ek.accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_mean_per_class_ignores_sizes(self):
        labels = np.array([0] * 90 + [1] * 10)
        preds = np.array([0] * 90 + [0] * 10)  # class 1 fully wrong
        assert ek.per_class_accuracy(preds, labels) == {0: 1.0, 1: 0.0}
        assert ek.accuracy(preds, labels) == 0.9

    def test_matches_confusion_matrix_tally(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 6, size=500)
        preds = rng.integers(0, 6, size=500)
        confusion = np.zeros((6, 6))
        for p, t in zip(preds, labels):
            confusion[t, p] += 1
        want_top1 = confusion.trace() / confusion.sum()
        want_mpc = np.mean(np.diag(confusion) / confusion.sum(axis=1))
        assert abs(ek.accuracy(preds, labels) - want_top1) < 1e-12
        assert abs(np.mean(list(ek.per_class_accuracy(preds, labels).values())) - want_mpc) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ek.accuracy([], [])


class TestCka:
    def test_self_similarity_is_one(self):
        x = np.random.default_rng(6).normal(size=(50, 12))
        assert abs(ek.linear_cka([x, x.copy()])[0, 1] - 1.0) < 1e-10

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(60, 10))
        q = np.linalg.qr(rng.normal(size=(10, 10)))[0]
        cka = ek.linear_cka([x, x @ q, 3.7 * x])
        assert abs(cka[0, 1] - 1.0) < 1e-8
        assert abs(cka[0, 2] - 1.0) < 1e-8

    def test_independent_features_score_low(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(1000, 64))
        y = rng.normal(size=(1000, 64))
        assert ek.linear_cka([x, y])[0, 1] < 0.2

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        x, y = rng.normal(size=(40, 6)), rng.normal(size=(40, 9))
        assert abs(ek.linear_cka([x, y])[0, 1] - ek.linear_cka([y, x])[0, 1]) < 1e-10

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            ek.linear_cka([np.ones((10, 3)), np.random.default_rng(0).normal(size=(10, 3))])

    @pytest.mark.parametrize("widths", [(3, 7, 12), (5, 1, 9, 4), (16, 2, 8, 11, 6)])
    def test_matrix_matches_pairwise_reference(self, widths):
        rng = np.random.default_rng(len(widths))
        # families that share a 4-D signal under their own noise and offset
        latent = rng.normal(size=(80, 4))
        mats = [latent @ rng.normal(size=(4, w)) + rng.normal(size=(80, w)) + rng.normal() for w in widths]
        copies = [m.copy() for m in mats]
        cka = ek.linear_cka(mats)
        assert cka.shape == (len(widths), len(widths))
        assert np.array_equal(cka, cka.T)
        assert np.array_equal(np.diag(cka), np.ones(len(widths)))
        want = np.array([[cka_reference(a, b) for b in mats] for a in mats])
        assert np.max(np.abs(cka - want)) < 1e-12
        assert 0.0 < cka.min() and cka[~np.eye(len(widths), dtype=bool)].max() < 1.0
        assert all(np.array_equal(m, c) for m, c in zip(mats, copies))

    @pytest.mark.parametrize("mats", [
        [], [np.ones(5)], [np.zeros((6, 2)), np.zeros((5, 2))], [np.ones((1, 3)), np.ones((1, 2))],
    ], ids=["no matrix", "1-D", "unequal rows", "one row"])
    def test_bad_shapes_rejected(self, mats):
        with pytest.raises(ValueError):
            ek.linear_cka(mats)


class TestHungarian:
    def brute_force(self, cost):
        n = cost.shape[0]
        best, best_perm = np.inf, None
        for perm in itertools.permutations(range(n)):
            total = sum(cost[i, perm[i]] for i in range(n))
            if total < best:
                best, best_perm = total, perm
        return best, best_perm

    def test_against_exhaustive_search(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            cost = rng.integers(0, 50, size=(7, 7)).astype(np.float64)
            assignment = ek.hungarian(cost)
            want_total, _ = self.brute_force(cost)
            assert assignment_cost(cost, assignment) == want_total
            assert sorted(assignment) == list(range(7))

    def test_identity_cost(self):
        cost = 1.0 - np.eye(5)
        assignment = ek.hungarian(cost)
        np.testing.assert_array_equal(assignment, np.arange(5))
        assert assignment_cost(cost, assignment) == 0.0

    def test_rectangular_padded(self):
        cost = np.array([[1.0, 0.0, 2.0], [2.0, 3.0, 0.0]])
        assignment = ek.hungarian(cost)
        assert assignment_cost(cost, assignment) == 0.0
        np.testing.assert_array_equal(assignment, [1, 2])


class TestKmeansAndOverlap:
    def blobs(self, seed, n_per=40, classes=4, dim=6, spread=8.0):
        rng = np.random.default_rng(seed)
        centers = rng.normal(size=(classes, dim)) * spread
        x = np.concatenate([centers[c] + rng.normal(size=(n_per, dim)) * 0.3 for c in range(classes)])
        y = np.repeat(np.arange(classes), n_per)
        return x, y

    def test_separated_blobs_full_overlap(self):
        x, y = self.blobs(11)
        result = ek.kmeans(x, 4, seed=0)
        assert ek.cluster_overlap(result.assignments, y) == 1.0

    def test_objective_non_increasing(self):
        x, _ = self.blobs(12, spread=2.0)

        def inertia_after(iters):
            return inertia(x, ek.kmeans(x, 4, seed=1, max_iter=iters))

        values = [inertia_after(i) for i in range(1, 8)]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))

    def test_seed_determinism(self):
        x, _ = self.blobs(13)
        a = ek.kmeans(x, 4, seed=2)
        b = ek.kmeans(x, 4, seed=2)
        np.testing.assert_array_equal(a.assignments, b.assignments)

    def test_overlap_matches_double_loop_contingency(self):
        rng = np.random.default_rng(19)
        for trial in range(20):
            n = int(rng.integers(5, 80))
            # cluster ids with gaps (ids never used are clusters without members)
            # and class labels with gaps
            assignments = rng.choice([0, 2, 3, 7, 11], size=n)
            labels = rng.choice([-4, 1, 5, 6], size=n)
            table = oracle_cluster_contingency(assignments, labels)
            mapping = ek.hungarian(-table)
            want = sum(table[ci, col] for ci, col in enumerate(mapping) if col >= 0) / n
            assert ek.cluster_overlap(assignments, labels) == want

    def test_more_clusters_than_points(self):
        with pytest.raises(ValueError):
            ek.kmeans(np.zeros((3, 2)), 4, seed=0)

    def test_emptied_cluster_is_reseeded_from_the_farthest_row(self, monkeypatch):
        # from the centres 0, 5 and 6, the first Lloyd step leaves the centre
        # at 5 without members; it is reseeded from the row at 10, the one
        # farthest from its centroid. Left at 5 it would stay empty: [0, 0, 2, 2]
        monkeypatch.setattr(ek, "_plusplus_init", lambda x, x_sq, k, rng: np.array([[0.0], [5.0], [6.0]]))
        result = ek.kmeans(np.array([[0.0], [1.0], [9.0], [10.0]]), 3, seed=0)
        np.testing.assert_array_equal(result.assignments, [0, 0, 2, 1])
        np.testing.assert_array_equal(result.centroids, [[0.5], [10.0], [9.0]])

    @staticmethod
    def assert_matches_oracle(x, k, seed, max_iter=300):
        got = ek.kmeans(x, k, seed=seed, max_iter=max_iter)
        want = oracle_kmeans(x, k, seed=seed, max_iter=max_iter)
        np.testing.assert_array_equal(got.assignments, want.assignments)
        assert got.centroids.tobytes() == want.centroids.tobytes()
        assert got.n_iter == want.n_iter
        return got

    @pytest.mark.parametrize("blob_seed, spread, seed, max_iter", [
        (11, 8.0, 0, 300), (12, 2.0, 1, 3), (12, 2.0, 1, 300), (13, 8.0, 2, 300),
    ])
    def test_blobs_match_oracle(self, blob_seed, spread, seed, max_iter):
        x, _ = self.blobs(blob_seed, spread=spread)
        self.assert_matches_oracle(x, 4, seed, max_iter)

    def test_unit_rows_match_oracle(self):
        x = np.random.default_rng(20).normal(size=(2000, 32))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        self.assert_matches_oracle(x, 128, seed=3)

    def test_empty_clusters_stay_put_matches_oracle(self):
        # 6 distinct rows for 9 clusters: k-means++ repeats rows, so Lloyd's
        # first assignment leaves at least three clusters empty. Every row
        # sits on a centroid, so no row can reseed them and they stay where
        # they are (`test_emptied_cluster_is_reseeded_from_the_farthest_row`
        # covers the reseed).
        # The draws after the sixth centre see only copies of centres, whose
        # distances must be exact zeros for the draw to match
        rng = np.random.default_rng(39)
        x = rng.normal(size=(6, 32))[rng.permutation(np.repeat(np.arange(6), [1, 2, 3, 5, 8, 13]))]
        self.assert_matches_oracle(x, 9, seed=39)

    @pytest.mark.parametrize("seed, k", [(38, 9), (38, 12), (59, 9), (59, 12)])
    def test_fewer_distinct_rows_than_clusters_converge(self, seed, k):
        # 6 distinct rows for 9 or 12 clusters: after k-means++ every row sits
        # on a centroid, so no row can reseed an empty cluster and those stay
        # put. Reseeding from rounding noise instead ran 300 iterations
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(6, 32))[rng.permutation(np.repeat(np.arange(6), [1, 2, 3, 5, 8, 13]))]
        result = self.assert_matches_oracle(x, k, seed)
        assert result.n_iter <= 2
        assert inertia(x, result) < 1e-24  # 0 up to the rounding of a mean of copies

    def test_equidistant_lattice_matches_oracle(self):
        # on a grid of step 0.1 many rows are equidistant from two centres,
        # so the rounding of the distance expression decides their cluster
        g = np.arange(12) * 0.1
        x = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
        self.assert_matches_oracle(x, 20, seed=2)

    def test_duplicate_rows_each_distinct_point_is_a_centroid(self):
        rng = np.random.default_rng(22)
        distinct = rng.normal(size=(7, 16))
        x = distinct[rng.permutation(np.repeat(np.arange(7), [1, 4, 2, 9, 3, 6, 5]))]
        result = self.assert_matches_oracle(x, 7, seed=5)
        for c in range(7):
            rows = x[result.assignments == c]
            assert len(rows) and np.all(rows == rows[0])  # one distinct point per cluster
        # a centroid is the mean of copies of one point: that point up to rounding
        gap = np.abs(result.centroids[:, None, :] - distinct[None]).max(axis=2)
        np.testing.assert_array_equal(np.count_nonzero(gap < 1e-12, axis=0), np.ones(7))

    def test_sq_dists_bits_match_the_expression(self):
        rng = np.random.default_rng(23)
        x, centroids = rng.normal(size=(300, 24)), rng.normal(size=(40, 24))
        x_sq = np.sum(x * x, axis=1)
        want = x_sq[:, None] - 2.0 * (x @ centroids.T) + np.sum(centroids**2, axis=1)
        assert ek._sq_dists(x, x_sq, centroids).tobytes() == want.tobytes()


class TestProbe:
    def test_linearly_separable_hits_full_accuracy(self):
        rng = np.random.default_rng(14)
        x = np.concatenate([rng.normal(size=(40, 2)) + [4, 0], rng.normal(size=(40, 2)) - [4, 0]])
        y = np.repeat([0, 1], 40)
        result = ek.logistic_probe(x, y, lambda_grid=[1e-6], max_epochs=MAX_EPOCHS, seed=0)
        assert ek.accuracy(result.model.predict(x), y) == 1.0

    def test_huge_lambda_predicts_training_class_frequencies(self):
        # at the optimum W is ~0 and the unregularised bias fits the class
        # frequencies of the (refit) training rows: softmax(b) = counts / n
        rng = np.random.default_rng(15)
        x = rng.normal(size=(60, 4))
        y = rng.integers(0, 3, size=60)
        result = ek.logistic_probe(x, y, lambda_grid=[1e6], max_epochs=MAX_EPOCHS, seed=0)
        scores = x @ result.model.weights.T + result.model.bias
        probs = np.exp(scores - scores.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        assert np.abs(probs - np.bincount(y) / len(y)).max() < 1e-6

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(30, 5))
        y = rng.integers(0, 3, size=30)
        lam = 1e-3
        wb0 = rng.normal(size=3 * 5 + 3) * 0.1
        _, got = probe_loss_and_grad(wb0, x, y, 3, lam)
        want = finite_diff_gradient(
            lambda p: probe_loss_and_grad(p, x, y, 3, lam)[0], wb0, eps=1e-6
        )
        assert max_relative_error(got, want) < 1e-6

    @staticmethod
    def fixture(seed, n=120, dim=8, classes=4):
        rng = np.random.default_rng(seed)
        means = rng.normal(size=(classes, dim))
        y = rng.integers(0, classes, size=n)
        x = means[y] + 1.5 * rng.normal(size=(n, dim))
        return x / np.linalg.norm(x, axis=1, keepdims=True), y, classes

    def test_trainer_matches_newton_oracle(self):
        for seed in (20, 21, 22):
            x, y, classes = self.fixture(seed)
            start = None
            for lam in np.linspace(5e-4, 5e-6, 5):
                ow, ob = newton_train_logreg(x, y, classes, lam)
                scale = max(np.abs(ow).max(), np.abs(ob).max())
                # from zero, and warm-started from the previous lambda's solution
                for w, b, _, _ in (
                    ek._train_logreg(x, y, classes, lam, 300),
                    ek._train_logreg(x, y, classes, lam, 300, start=start),
                ):
                    assert np.abs(w - ow).max() / scale < 1e-6
                    assert np.abs(b - ob).max() / scale < 1e-6
                    np.testing.assert_array_equal(
                        np.argmax(x @ w.T + b, axis=1), np.argmax(x @ ow.T + ob, axis=1)
                    )
                start = (w, b)

    def test_trainings_stop_below_grad_tol(self):
        for seed in (20, 21, 22):
            x, y, classes = self.fixture(seed)
            for lam in np.linspace(5e-6, 5e-4, 5):
                w, b, _, fit = ek._train_logreg(x, y, classes, lam, 300)
                assert fit.stop == "grad_tol"
                _, grad = probe_loss_and_grad(np.concatenate([w.ravel(), b]), x, y, classes, lam)
                assert np.abs(grad).max() < 1e-8

    def test_returned_loss_is_the_loss_at_the_returned_weights(self):
        for seed in (23, 24):
            x, y, classes = self.fixture(seed)
            for lam in np.linspace(5e-6, 5e-4, 5):
                w, b, loss, _ = ek._train_logreg(x, y, classes, lam, 300)
                want, _ = probe_loss_and_grad(np.concatenate([w.ravel(), b]), x, y, classes, lam)
                assert abs(loss - want) <= 1e-12 * abs(want)

    def test_training_is_byte_identical_across_runs(self):
        x, y, classes = self.fixture(25)
        first = ek._train_logreg(x, y, classes, 5e-5, 300)
        second = ek._train_logreg(x, y, classes, 5e-5, 300)
        assert first[0].tobytes() == second[0].tobytes()
        assert first[1].tobytes() == second[1].tobytes()

    def test_fit_counters_and_stop_reasons(self):
        x, y, classes = self.fixture(26)
        *_, fit = ek._train_logreg(x, y, classes, 5e-4, 3)
        assert (fit.stop, fit.epochs, fit.accepted) == ("max_epochs", 3, 3)
        assert fit.trials >= fit.epochs
        *_, fit = ek._train_logreg(x, y, classes, 5e-4, 300, grad_tol=1e-3)
        assert fit.stop == "grad_tol" and fit.epochs == fit.accepted < 300
        x[0, 0] = np.nan  # every trial loss is NaN, so no step passes the Armijo test
        *_, fit = ek._train_logreg(x, y, classes, 5e-4, 300)
        # steps 1, 1/2, ..., 2**-39 are tried; 2**-40 is below the 1e-12 floor
        assert (fit.stop, fit.epochs, fit.trials, fit.accepted) == ("line_search", 1, 40, 0)
        x, y, classes = self.fixture(26)
        result = ek.logistic_probe(x, y, GRID, max_epochs=5, seed=0)
        assert len(result.fits) == len(result.lambda_grid) + 1
        assert result.fits[-1].lam == result.best_lambda

    def test_accuracy_tie_selects_the_smallest_lambda(self):
        # separable classes of 60 and 20 rows: lambdas 1e-4 and 1e-5 both
        # classify every validation row, while at 1e6 the weights vanish and
        # every row goes to the larger class. Trained from the largest lambda
        # down, 1e-4 comes first of the tied pair and must not win the tie
        rng = np.random.default_rng(27)
        x = np.concatenate([rng.normal(size=(60, 2)) + [4, 0], rng.normal(size=(20, 2)) - [4, 0]])
        y = np.repeat([0, 1], [60, 20])
        grid = [1e-5, 1e6, 1e-4]
        result = ek.logistic_probe(x, y, lambda_grid=grid, max_epochs=MAX_EPOCHS, seed=0)
        assert result.best_lambda == 1e-5
        assert validation_accuracy(x, y, 1e-5, seed=0, max_epochs=MAX_EPOCHS) == 1.0
        assert [fit.lam for fit in result.fits] == grid + [1e-5]
        assert all(fit.stop == "grad_tol" for fit in result.fits)
        assert validation_accuracy(x, y, 1e6, seed=0, max_epochs=MAX_EPOCHS) == 0.75

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            ek.logistic_probe(np.zeros((5, 2)), np.zeros(5), GRID, max_epochs=MAX_EPOCHS, seed=0)

    def test_one_row_per_class_rejected(self):
        # each class holds out a row to choose lambda, so no row is left to fit
        with pytest.raises(ValueError, match="^probe has no rows to fit"):
            ek.logistic_probe(np.eye(3), np.arange(3), GRID, max_epochs=MAX_EPOCHS, seed=0)

    def test_float32_rows_train_as_their_float64_copy(self):
        x, y, _ = self.fixture(28)
        x = x.astype(np.float32)
        got = ek.logistic_probe(x, y, GRID, max_epochs=MAX_EPOCHS, seed=0)
        want = ek.logistic_probe(x.astype(np.float64), y, GRID, max_epochs=MAX_EPOCHS, seed=0)
        assert got.model.weights.tobytes() == want.model.weights.tobytes()
        assert got.model.bias.tobytes() == want.model.bias.tobytes()
        assert got.best_lambda == want.best_lambda
        assert got.fits == want.fits

    def test_float32_rows_never_hold_two_float64_copies(self):
        # eval-banks-shaped train rows: 3,000 x 256 float32 over 10 classes
        rng = np.random.default_rng(29)
        y = np.arange(3000) % 10
        x = (rng.normal(size=(10, 256))[y] + 4.0 * rng.normal(size=(3000, 256))).astype(np.float32)
        fit_rows, _ = ek._stratified_split(y, 0.2, 0)
        bound = x.size * 8 + len(fit_rows) * x.shape[1] * 8  # float64 train rows plus fit rows
        tracemalloc.start()
        try:
            ek.logistic_probe(x, y, GRID[:1], max_epochs=3, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, (peak, bound)

    def test_validation_split_selects_lambda(self):
        rng = np.random.default_rng(17)
        x = np.concatenate([rng.normal(size=(50, 3)) + 2, rng.normal(size=(50, 3)) - 2])
        y = np.repeat([0, 1], 50)
        result = ek.logistic_probe(x, y, GRID, max_epochs=MAX_EPOCHS, seed=1)
        assert result.best_lambda in GRID
        assert validation_accuracy(x, y, result.best_lambda, seed=1, max_epochs=MAX_EPOCHS) > 0.9


class TestRetrievalMap:
    def test_single_relevant_ranked_first(self):
        gallery = np.array([[1.0, 0.0], [0.0, 1.0]])
        query = np.array([[1.0, 0.1]])
        m, _ = ek.retrieval_map(query, gallery, [0], [0, 1])
        assert m == 1.0

    def test_relevant_second_of_two(self):
        gallery = np.array([[1.0, 0.0], [0.0, 1.0]])
        query = np.array([[1.0, 0.1]])
        m, _ = ek.retrieval_map(query, gallery, [1], [0, 1])
        assert m == 0.5

    @staticmethod
    def ap_oracle(gallery, q, rel):
        sims = (gallery / np.linalg.norm(gallery, axis=1, keepdims=True)) @ (q / np.linalg.norm(q))
        order = np.argsort(-sims, kind="stable")
        hits, precision_sum = 0, 0.0
        for rank, g in enumerate(order, start=1):
            if g in rel:
                hits += 1
                precision_sum += hits / rank
        return precision_sum / len(rel)

    def assert_matches_oracle(self, queries, gallery, query_labels, gallery_labels):
        relevance = [set(np.flatnonzero(gallery_labels == lbl)) for lbl in query_labels]
        assert all(relevance)
        got, aps = ek.retrieval_map(queries, gallery, query_labels, gallery_labels)
        want = [self.ap_oracle(gallery, q, r) for q, r in zip(queries, relevance)]
        np.testing.assert_allclose(aps, want, atol=1e-12)
        assert abs(got - np.mean(want)) < 1e-12

    def test_matches_bruteforce_ap(self):
        rng = np.random.default_rng(18)
        gallery = rng.normal(size=(40, 6))
        queries = rng.normal(size=(10, 6))
        self.assert_matches_oracle(queries, gallery, rng.integers(0, 5, size=10), rng.integers(0, 5, size=40))

    def test_duplicate_gallery_rows_match_bruteforce_ap(self):
        # copies score equal against every query, so each query ranks ties,
        # and the copies carry different labels: the tie order sets the AP
        rng = np.random.default_rng(19)
        distinct = rng.normal(size=(30, 6))
        gallery = distinct[rng.integers(0, 30, size=120)]
        queries = np.concatenate([rng.normal(size=(2 * ek.QUERY_BLOCK - 10, 6)), distinct[:10]])
        self.assert_matches_oracle(queries, gallery, rng.integers(0, 4, size=len(queries)),
                                   rng.integers(0, 4, size=len(gallery)))

    @pytest.mark.parametrize("side, row", [("query", np.zeros(3)), ("gallery", np.zeros(3)),
                                           ("query", [1.0, np.nan, 0.0]), ("gallery", [np.inf, 0.0, 1.0])])
    def test_row_that_cannot_be_ranked_rejected(self, side, row):
        # an all-zero query used to score NaN against every row and AP 1.0
        rows = {"query": np.ones((4, 3)), "gallery": np.eye(3)}
        rows[side][1] = row
        with pytest.raises(ValueError, match=f"{side} row 1 has a zero or non-finite norm"):
            ek.retrieval_map(rows["query"], rows["gallery"], [0, 1, 2, 0], [0, 1, 2])

    def test_empty_gallery(self):
        with pytest.raises(ValueError):
            ek.retrieval_map(np.ones((1, 2)), np.zeros((0, 2)), [0], [])

    def test_query_without_relevant_items_is_skipped(self):
        gallery = np.array([[1.0, 0.0], [0.0, 1.0]])
        queries = np.array([[1.0, 0.0], [0.0, 1.0]])
        # the second query's label 2 matches no gallery row
        m_skip, aps = ek.retrieval_map(queries, gallery, [0, 2], [0, 1])
        assert m_skip == 1.0 and len(aps) == 1


class TestReports:
    def test_csv_rows(self):
        report = ek.EvalReport("knn_top1", 0.75, per_class={1: 0.5, 0: 1.0})
        rows = report.csv_rows()
        assert rows == [("knn_top1", "", "0.750000"), ("knn_top1", "0", "1.000000"), ("knn_top1", "1", "0.500000")]

    def test_write_csv(self, tmp_path):
        path = tmp_path / "report.csv"
        ek.write_csv(path, [ek.EvalReport("m", 0.5)], config_lines=["seed=1"])
        text = path.read_text()
        assert text.startswith("# seed=1\n")
        assert "m,,0.500000" in text

    def test_render_table(self):
        table = ek.render_table([["a", "1"], ["bb", "22"]], header=["name", "v"])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
