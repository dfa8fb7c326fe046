"""Retrieval-based in-context semantic segmentation.

A memory bank stores one feature per image patch together with the patch's
majority class label. Query patches retrieve their nearest neighbors (an
exact scan of the bank, or of every row in an IVF index's nearest leaves)
and predict a class distribution by softmax-similarity-weighted voting
over the neighbors' labels. Patch
features are either the backbone's patch embeddings or, with gradient
fusion enabled, the concatenation of normalized per-patch contrastive
gradients and the normalized embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import augment
from . import backbone as bb
from . import evalkit
from . import objectives as obj

IGNORE_LABEL = 255
KMEANS_ITERS = 25  # Lloyd iterations of the IVF partition
# bank rows per leaf below which ivf_build returns a flat index and runs no
# k-means: FAISS's min_points_per_centroid (Johnson et al. 2017), below which
# its k-means warns that leaves are undertrained. It is a floor, not the point
# where IVF pays: at 4k-64k rows, 512 leaves and the query counts of `fungi
# segment`, the exact scan beats the leaf search even before the k-means build
# is counted (ROADMAP item 8)
IVF_MIN_ROWS_PER_LEAF = 39


@dataclass(frozen=True)
class IvfParams:
    num_leaves: int
    leaves_to_search: int
    rerank: int
    # recorded for config fidelity; the score-aware quantizer itself is
    # replaced by exact scoring of every row in the searched leaves
    dims_per_block: int
    anisotropic_threshold: float


@dataclass(frozen=True)
class SegConfig:
    k: int
    temperature: float
    augmentation_epochs: int
    ivf: IvfParams
    bank_cap: int = None


def downsample_mask(mask, patch_size):
    """Per-cell majority label, ties to the lower label; ignore pixels don't
    vote. All-ignore cells keep the ignore label."""
    mask = np.asarray(mask)
    h, w = mask.shape
    if h % patch_size or w % patch_size:
        raise ValueError("mask size not divisible by patch size")
    gh, gw = h // patch_size, w // patch_size
    n_cells = gh * gw
    cells = mask.reshape(gh, patch_size, gw, patch_size).transpose(0, 2, 1, 3)
    cells = cells.reshape(n_cells, patch_size * patch_size).astype(np.int64)
    valid = cells != IGNORE_LABEL
    if np.any(valid & (cells < 0)):
        raise ValueError("mask labels must be non-negative")
    # one histogram over (cell, bin) pairs: bin 0 takes ignore pixels and
    # label l goes to bin l + 1; at least one label bin, so argmax has a column
    binned = (cells + 1) * valid
    n_bins = max(int(binned.max()) + 1, 2)
    binned += np.arange(n_cells)[:, None] * n_bins
    counts = np.bincount(binned.ravel(), minlength=n_cells * n_bins)
    counts = counts.reshape(n_cells, n_bins)[:, 1:]
    best = counts.argmax(axis=1)  # the first, so the lower label, on ties
    out = np.where(counts.max(axis=1) > 0, best, IGNORE_LABEL)
    return out.astype(np.int32).reshape(gh, gw)


@dataclass
class PatchFeatureExtractor:
    """Computes per-patch features for bank building and querying."""

    params: bb.EncoderParams
    use_fungi: bool
    head: bb.Head  # or None without gradient fusion
    tau: float
    retrieved_per_patch: int
    kept_per_patch: int
    support: obj.SupportIndex = None

    def __post_init__(self):
        if self.use_fungi and self.head is None:
            raise ValueError("gradient fusion needs a projection head")

    def build_support(self, tokens):
        """Support index over the head latents of all bank patches, from
        each bank image's encoder token rows, CLS first."""
        self.support = obj.SupportIndex(np.concatenate([self.head.apply(t[1:]).data for t in tokens]))

    def features(self, image, seed):
        """(patches, dim) unit-norm feature rows for one image."""
        return self.token_features(bb.encode(self.params, image), seed=seed)

    def token_features(self, tokens, seed):
        """features() of an image from its (patches + 1, dim) encoder token
        rows, CLS first: the dense loss reads the CLS token itself, whatever
        the pooling."""
        emb_n = evalkit.unit_rows(tokens[1:], "patch embedding")
        if not self.use_fungi:
            return emb_n.astype(np.float32)
        if self.support is None:
            raise ValueError("support index not built")
        grads = obj.simclr_patch_loss(
            tokens,
            self.head,
            self.support,
            tau=self.tau,
            seed=seed,
            retrieved_per_patch=self.retrieved_per_patch,
            kept_per_patch=self.kept_per_patch,
        )
        fused = np.concatenate([evalkit.unit_rows(grads, "patch gradient"), emb_n], axis=1)
        return evalkit.unit_rows(fused, "fused patch").astype(np.float32)


@dataclass
class PatchMemoryBank:
    features: np.ndarray  # (M, D) unit rows
    labels: np.ndarray  # (M,) int32
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float32)
        self.labels = np.asarray(self.labels, dtype=np.int32)
        if len(self.features) != len(self.labels):
            raise ValueError("bank features and labels disagree")
        evalkit.check_unit_rows(self.features, "bank", 1e-4)

    def __len__(self):
        return len(self.features)


def _augment_pair(image, mask, rng):
    """Seeded square crop (area fraction in [0.5, 1.0]) + color jitter.

    The mask is cropped identically with nearest-neighbor resizing so patch
    labels stay aligned.
    """
    _, h, w = image.shape
    s = min(h, w)
    area = rng.uniform(0.5, 1.0)
    side = max(1, int(round(s * np.sqrt(area))))
    y0 = int(rng.integers(0, h - side + 1))
    x0 = int(rng.integers(0, w - side + 1))
    img_c = image[:, y0 : y0 + side, x0 : x0 + side]
    mask_c = mask[y0 : y0 + side, x0 : x0 + side]
    img_out = augment.resize_bilinear(img_c, h, w)
    img_out = augment.color_jitter(img_out, seed=int(rng.integers(2**31)))
    mask_out = augment.resize_nearest(mask_c, h, w)
    return np.clip(img_out, 0.0, 1.0), mask_out


def build_bank(images, masks, extractor, config, seed):
    """Patch memory bank over all images and augmentation epochs.

    Epoch 0 uses the images untouched, each encoded once up front (the
    support index reads the same tokens); later epochs add augmented copies.
    Ignore-labeled patches are not stored. When config.bank_cap is set the
    bank is uniformly subsampled (after augmentation) with the given seed.
    """
    patch_size = extractor.params.config.patch_size
    images = [np.asarray(image) for image in images]
    masks = [np.asarray(mask) for mask in masks]
    if len(images) != len(masks) or any(m.shape != i.shape[1:] for i, m in zip(images, masks)):
        raise ValueError("masks and images disagree in count or size")
    tokens = [bb.encode(extractor.params, image) for image in images]
    if extractor.use_fungi and extractor.support is None:
        extractor.build_support(tokens)
    rng = np.random.default_rng(seed)
    feats, labels = [], []
    for epoch in range(config.augmentation_epochs):
        for idx, (image, mask) in enumerate(zip(images, masks)):
            if epoch == 0:
                rows = extractor.token_features(tokens[idx], seed=seed + idx)
            else:  # later epochs encode augmented copies
                image, mask = _augment_pair(image, mask, rng)
                rows = extractor.features(image, seed=int(rng.integers(2**31)))
            grid = downsample_mask(mask, patch_size)
            keep = grid.ravel() != IGNORE_LABEL
            feats.append(rows[keep])
            labels.append(grid.ravel()[keep])
    features = np.concatenate(feats, axis=0)
    labels = np.concatenate(labels, axis=0)
    if config.bank_cap is not None and len(labels) > config.bank_cap:
        pick = np.sort(rng.choice(len(labels), size=config.bank_cap, replace=False))
        features, labels = features[pick], labels[pick]
    num_classes = int(labels.max()) + 1 if len(labels) else 0
    return PatchMemoryBank(features=features, labels=labels, num_classes=num_classes)


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def _exact_block(features, queries, k):
    sims = queries @ features.T
    ids = evalkit.top_k(sims, k)
    return ids, np.take_along_axis(sims, ids, axis=1)


def exact_search(features, query, k):
    """Exact top-k by cosine similarity over unit-norm rows."""
    ids, sims = _exact_block(features, np.asarray(query, dtype=features.dtype)[None], k)
    return ids[0], sims[0]


@dataclass
class IvfIndex:
    """Bank rows in k-means leaves, or a flat index (no centroids, no leaves)
    whose every search is the exact scan."""

    centroids: np.ndarray  # (leaves, dim), None when flat
    row_leaf: np.ndarray  # bank row id -> leaf, None when flat
    features: np.ndarray
    params: IvfParams

    def scans_every_row(self):
        return self.centroids is None or self.params.leaves_to_search >= len(self.centroids)

    def describe(self):
        """One line: which search runs over the bank, and why."""
        n, leaves = len(self.features), self.params.num_leaves
        if self.params.leaves_to_search >= leaves:
            return f"exact search over {n} bank rows: all {leaves} leaves searched"
        if self.centroids is None:
            return (f"exact search over {n} bank rows: below {IVF_MIN_ROWS_PER_LEAF} rows per leaf"
                    f" at {leaves} leaves")
        return (f"IVF search over {n} bank rows: {leaves} leaves, {n / leaves:.1f} rows per leaf,"
                f" {self.params.leaves_to_search} searched per query")


def ivf_build(bank_features, params, seed):
    """Partition bank rows into k-means leaves: each row's leaf is its
    k-means assignment. A bank with fewer than IVF_MIN_ROWS_PER_LEAF rows per
    leaf, or one whose every leaf is searched, gets a flat index and no k-means."""
    features = np.asarray(bank_features, dtype=np.float32)
    if (len(features) < IVF_MIN_ROWS_PER_LEAF * params.num_leaves
            or params.leaves_to_search >= params.num_leaves):
        return IvfIndex(centroids=None, row_leaf=None, features=features, params=params)
    result = evalkit.kmeans(features.astype(np.float64), params.num_leaves, seed=seed, max_iter=KMEANS_ITERS)
    return IvfIndex(
        centroids=result.centroids.astype(np.float32),
        row_leaf=result.assignments,
        features=features,
        params=params,
    )


def _ivf_block(index, queries, k):
    """Top-k (ids, sims) per query row over the rows of its nearest leaves.

    The block scores the union of its queries' candidates; a row outside a
    query's own leaves scores -inf for that query.
    """
    params = index.params
    if k > params.rerank:
        raise ValueError(f"k={k} exceeds rerank budget {params.rerank}")
    if index.scans_every_row():
        return _exact_block(index.features, queries, k)
    # leaves are Voronoi cells of a Euclidean k-means: rank them by the same
    # geometry (||c||^2 - 2 q.c), not by raw dot product
    leaf_d2 = np.sum(index.centroids**2, axis=1) - 2.0 * (queries @ index.centroids.T)
    searched = np.zeros(leaf_d2.shape, dtype=bool)
    np.put_along_axis(searched, evalkit.top_k(-leaf_d2, params.leaves_to_search), True, axis=1)
    # candidates in id order, so a tie by position is also a tie by id
    candidates = np.flatnonzero(searched.any(axis=0)[index.row_leaf])
    sims = queries @ index.features[candidates].T
    sims[~searched[:, index.row_leaf[candidates]]] = -np.inf
    pos = evalkit.top_k(sims, k)
    return candidates[pos], np.take_along_axis(sims, pos, axis=1)


def ivf_search(index, query, k):
    """Top-k over an exact scan of every row in the nearest leaves.

    A flat index, or one searched with leaves_to_search >= its leaves, scans
    every bank row, and the result equals the exact scan.
    """
    ids, sims = _ivf_block(index, np.asarray(query, dtype=index.features.dtype)[None], k)
    found = np.isfinite(sims[0])
    return ids[0][found], sims[0][found]


# ---------------------------------------------------------------------------
# label propagation
# ---------------------------------------------------------------------------


def _propagate(bank, queries, config, index):
    """(queries, classes) distributions by attention over each row's
    neighbors, searched through `index`, the `ivf_build` of the bank's rows."""
    k, tau = config.k, config.temperature
    if len(bank) == 0:
        raise ValueError("empty bank")
    if k > len(bank):
        raise ValueError(f"k={k} exceeds bank size {len(bank)}")
    queries = np.asarray(queries, dtype=bank.features.dtype)
    dists = []
    for start in range(0, len(queries), evalkit.QUERY_BLOCK):
        block = queries[start : start + evalkit.QUERY_BLOCK]
        ids, sims = _ivf_block(index, block, k)
        scaled = sims.astype(np.float64) / tau
        scaled -= scaled.max(axis=1, keepdims=True)
        weights = np.exp(scaled)
        weights /= weights.sum(axis=1, keepdims=True)
        dist = np.zeros((len(block), bank.num_classes))
        np.add.at(dist, (np.arange(len(block))[:, None], bank.labels[ids]), weights)
        dists.append(dist)
    return np.concatenate(dists)


def predict_grid(bank, features, config, index):
    """Argmax class per patch row; returns (labels, distributions)."""
    dists = _propagate(bank, features, config, index)
    return np.argmax(dists, axis=1).astype(np.int32), dists


def segment_image(extractor, bank, image, config, index, seed):
    """Pixel-resolution class prediction via patch retrieval."""
    cfg = extractor.params.config
    rows = extractor.features(np.asarray(image), seed=seed)
    labels, _ = predict_grid(bank, rows, config, index=index)
    grid = labels.reshape(cfg.grid, cfg.grid)
    return augment.resize_nearest(grid, cfg.image_size, cfg.image_size)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def miou(pred_masks, gt_masks, num_classes):
    """Mean IoU over classes present in ground truth or predictions.

    Pixels whose ground truth is the ignore label are excluded everywhere.
    A scored prediction, or a ground-truth label other than the ignore
    label, outside 0..num_classes-1 raises ValueError. Returns (mean,
    per-class dict).
    """
    pred_masks = np.asarray(pred_masks)
    gt_masks = np.asarray(gt_masks)
    if pred_masks.shape != gt_masks.shape:
        raise ValueError("prediction and ground-truth shapes disagree")
    valid = gt_masks != IGNORE_LABEL
    pred = pred_masks[valid].astype(np.int64)
    gt = gt_masks[valid].astype(np.int64)
    for role, labels in (("prediction", pred), ("ground-truth label", gt)):
        if labels.size and not 0 <= labels.min() <= labels.max() < num_classes:
            raise ValueError(f"a {role} lies outside 0..{num_classes - 1}")
    confusion = np.bincount(gt * num_classes + pred, minlength=num_classes**2).reshape(num_classes, num_classes)
    tp = np.diag(confusion).astype(np.float64)
    fp = confusion.sum(axis=0) - tp
    fn = confusion.sum(axis=1) - tp
    present = (confusion.sum(axis=0) + confusion.sum(axis=1)) > 0
    per_class = {}
    for cls in np.flatnonzero(present):
        denom = tp[cls] + fp[cls] + fn[cls]
        per_class[int(cls)] = float(tp[cls] / denom) if denom else 0.0
    mean = float(np.mean(list(per_class.values()))) if per_class else 0.0
    return mean, per_class
