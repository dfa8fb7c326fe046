"""Independent oracles and test-only helpers.

The program never calls these: they rebuild a result by another route
(finite differences, an exhaustive sum, a perturbed or collapsed encoder,
an expression that allocates a fresh array per step where the program
computes in place), or compute a value that only the tests read.
"""

import math
from dataclasses import replace

import numpy as np

from fungi import autodiff as ad
from fungi import backbone as bb
from fungi import evalkit as ek
from fungi import features as feat
from fungi import pipeline
from fungi import segmem
from fungi.config import RunConfig


def reference_encoder(**changes):
    """The [encoder] section of `RunConfig()`, the reference
    hyperparameters, with `changes`."""
    return replace(RunConfig().encoder, **changes)


def reference_ivf(**changes):
    """segmem.IvfParams at the reference [segmentation] settings, with `changes`."""
    seg = RunConfig().segmentation
    return replace(
        segmem.IvfParams(
            num_leaves=seg.ivf_num_leaves,
            leaves_to_search=seg.ivf_leaves_to_search,
            rerank=seg.ivf_rerank,
            dims_per_block=seg.ivf_dims_per_block,
            anisotropic_threshold=seg.ivf_anisotropic_threshold,
        ),
        **changes,
    )


def reference_seg(**changes):
    """segmem.SegConfig at the reference [segmentation] settings (not
    few-shot), with `changes`."""
    seg = RunConfig().segmentation
    config = segmem.SegConfig(
        k=seg.k, temperature=seg.temperature, augmentation_epochs=seg.augmentation_epochs, ivf=reference_ivf()
    )
    return replace(config, **changes)


def reference_extractor(params, head):
    """segmem.PatchFeatureExtractor at the reference [segmentation]
    settings; it fuses per-patch gradients when given a head."""
    seg = RunConfig().segmentation
    return segmem.PatchFeatureExtractor(
        params=params,
        use_fungi=head is not None,
        head=head,
        tau=seg.simclr_temperature,
        retrieved_per_patch=seg.retrieved_negatives_per_patch,
        kept_per_patch=seg.loss_negatives_per_patch,
    )


def view_states(params, source, views):
    """`backbone.tap_state` of each view: the states `loss_gradient` resumes
    from."""
    return [bb.tap_state(params, source, v) for v in views]


def image_embedding(params, image):
    """Pooled embedding of one image, its forward split at the reference
    [gradients] source."""
    source = RunConfig().gradients
    return bb.embed(params, source, [bb.tap_state(params, source, image)])[0]


def per_view_embed(params, source, states):
    """`backbone.embed` of a view set resumed one view at a time, so that
    every layer sees one view's rows alone."""
    return np.concatenate([bb.embed(params, source, [state]) for state in states])


def per_view_loss_gradient(params, source, states, loss_fn):
    """`backbone.loss_gradient` with each view resumed on its own, under a
    leaf of its own, on one tape: the (views, dim) embeddings are the
    one-view resumes joined, and dW = G^T X over the views' rows in order."""
    taps = []
    with ad.GradTape() as tape:
        loss = loss_fn(ad.concat([bb._resume(params, source, [state], taps) for state in states], axis=0))
    grads = tape.backward(loss)
    g = np.concatenate([grads[leaf].reshape(-1, leaf.shape[-1]) for leaf, _ in taps])
    x = np.concatenate([rows.reshape(-1, rows.shape[-1]) for _, rows in taps])
    return g.T @ x, g.sum(axis=0)


def reference_tokens(params, image):
    """Final-norm token rows of one (3, S, S) image, CLS first, in float64,
    by a plain numpy forward written from the architecture rather than from
    `backbone`: patches in row-major grid order, each flattened channel
    first, embedded and prefixed by the CLS token, plus positions; then
    `depth` pre-norm blocks, each adding softmax attention (q, k and v are
    the thirds of the qkv output, a head a run of dim / heads columns of
    each) and a tanh-GELU MLP to the residual; then the final layer norm
    (eps 1e-6)."""
    cfg = params.config
    w = {name: t.data.astype(np.float64) for name, t in params.named_tensors()}
    image = np.asarray(image, dtype=np.float64)
    p, grid, head_dim = cfg.patch_size, cfg.image_size // cfg.patch_size, cfg.dim // cfg.heads

    def norm(x, gain, shift):
        centered = x - x.mean(axis=1, keepdims=True)
        return centered / np.sqrt((centered**2).mean(axis=1, keepdims=True) + 1e-6) * gain + shift

    patches = np.array([image[:, r * p : (r + 1) * p, c * p : (c + 1) * p].ravel()
                        for r in range(grid) for c in range(grid)])
    x = np.vstack([w["cls_token"], patches @ w["patch_w"].T + w["patch_b"]]) + w["pos"]
    for i in range(cfg.depth):
        blk = {name: w[f"block{i}.{name}"] for name in bb.BlockParams.__dataclass_fields__}
        q, k, v = np.split(norm(x, blk["ln1_g"], blk["ln1_b"]) @ blk["qkv_w"].T + blk["qkv_b"], 3, axis=1)
        heads = []
        for h in range(cfg.heads):
            cols = slice(h * head_dim, (h + 1) * head_dim)
            scores = q[:, cols] @ k[:, cols].T / math.sqrt(head_dim)
            weights = np.exp(scores - scores.max(axis=1, keepdims=True))
            heads.append(weights / weights.sum(axis=1, keepdims=True) @ v[:, cols])
        x = x + np.hstack(heads) @ blk["proj_w"].T + blk["proj_b"]
        u = norm(x, blk["ln2_g"], blk["ln2_b"]) @ blk["fc1_w"].T + blk["fc1_b"]
        gelu = 0.5 * u * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (u + 0.044715 * u**3)))
        x = x + gelu @ blk["fc2_w"].T + blk["fc2_b"]
    return norm(x, w["norm_g"], w["norm_b"])


def reference_embedding(params, image):
    """Pooled embedding of `reference_tokens`: the CLS row, or the mean of
    the patch rows."""
    tokens = reference_tokens(params, image)
    return tokens[0] if params.config.pooling == "cls" else tokens[1:].mean(axis=0)


def head_rows(head, x):
    """`Head.apply(x).data` by the plain numpy expression: the last axis
    divided by its L2 norm when the head normalizes its input, then
    x W^T + b."""
    x = np.asarray(x)
    if head.normalize_input:
        x = x / np.linalg.norm(x, axis=-1, keepdims=True)
    return x @ head.weight.data.T + head.bias.data


def max_relative_error(got, want):
    """Worst-case elementwise relative error between two gradients.

    Coordinates whose magnitude is below 1e-3 times the gradient's
    max-norm are measured against that floor instead: finite differences are
    roundoff-limited there and a raw ratio would only amplify oracle noise.
    """
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        raise ValueError("gradient shapes differ")
    scale = max(np.max(np.abs(want)), np.finfo(np.float64).tiny)
    denom = np.maximum(np.maximum(np.abs(want), np.abs(got)), 1e-3 * scale)
    return float(np.max(np.abs(got - want) / denom))


def largest_entry_error(got, want):
    """Largest absolute difference of two arrays, over the largest
    magnitude in `want`."""
    want = np.asarray(want, dtype=np.float64)
    return float(np.max(np.abs(np.asarray(got, dtype=np.float64) - want)) / np.max(np.abs(want)))


def finite_diff_gradient(f, p, eps):
    """Central-difference gradient of a scalar function of a flat vector:
    truncation error O(eps^2)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    p = np.array(p, dtype=np.float64)
    grad = np.zeros_like(p)
    flat = p.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = float(f(p))
        flat[i] = orig - eps
        lo = float(f(p))
        flat[i] = orig
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise ad.NumericError("non-finite objective during finite differencing")
        gflat[i] = (hi - lo) / (2.0 * eps)
    return grad


def richardson_gradient(f, p, eps):
    """One Richardson step over central differences, (4 D(eps/2) - D(eps)) / 3:
    the O(eps^2) truncation terms cancel, leaving O(eps^4)."""
    return (4.0 * finite_diff_gradient(f, p, eps / 2) - finite_diff_gradient(f, p, eps)) / 3.0


def source_layer(params, source):
    """(weight, bias) tensors of the source layer of a [gradients] section."""
    prefix = bb.LAYER_PREFIXES[source.layer_kind]
    block = params.blocks[source.block_index]
    return getattr(block, prefix + "_w"), getattr(block, prefix + "_b")


def replace_source_layer(params, source, weight, bias):
    """Copy of params with the designated layer's weight and bias (arrays)
    substituted: how finite-difference checks perturb that layer."""
    w, b = source_layer(params, source)
    weight, bias = ad.as_tensor(weight), ad.as_tensor(bias)
    if weight.shape != w.shape or bias.shape != b.shape:
        raise ValueError("replacement layer shapes do not match")
    blocks = list(params.blocks)
    prefix = bb.LAYER_PREFIXES[source.layer_kind]
    blocks[source.block_index] = replace(
        blocks[source.block_index], **{prefix + "_w": weight, prefix + "_b": bias}
    )
    return replace(params, blocks=blocks)


def collapse_output_paths(params):
    """Copy of params whose pooled embedding is input-independent.

    Zeroes the attention value projection (the V block of the fused qkv
    weight) and the MLP output weight in every block. The CLS stream then
    receives only constant bias contributions, so the pooled embedding is
    the same for every input. At the default gradient source, the last
    block's `attn_proj`, every gradient family is constant as well: that
    layer's input rows, the attention output over zeroed values, are zero,
    so dW = 0 and db does not depend on the input. Attention patterns and
    the qkv layer's gradient still depend on the input tokens.
    """
    d = params.config.dim
    blocks = []
    for blk in params.blocks:
        qkv_w = blk.qkv_w.data.copy()
        qkv_w[2 * d :, :] = 0.0
        qkv_b = blk.qkv_b.data.copy()
        qkv_b[2 * d :] = 0.0
        blocks.append(
            replace(
                blk,
                qkv_w=ad.Tensor(qkv_w),
                qkv_b=ad.Tensor(qkv_b),
                fc2_w=ad.Tensor(np.zeros_like(blk.fc2_w.data)),
            )
        )
    return replace(params, blocks=blocks)


def collapsed_banks(config, train_images, train_labels, test_images, test_labels):
    """(train, test) banks as `pipeline.extract_splits` builds them, from the
    config's encoder with collapsed output paths."""
    params = collapse_output_paths(pipeline.build_encoder(config))
    heads = pipeline.build_heads(config)
    projections = pipeline.build_projections(config)
    neg_bank, states = None, {}
    if "simclr" in config.gradients.objectives:
        neg_bank, states = pipeline.build_negative_bank(params, heads["simclr"], train_images, config, jobs=1)
    return tuple(
        pipeline.extract_bank(config, params, heads, projections, images, labels, split, neg_bank=neg_bank,
                              view_states=split_states, jobs=1)
        for images, labels, split, split_states in (
            (train_images, train_labels, "train", states), (test_images, test_labels, "test", {})
        )
    )


def entry_variance(kind, in_dim):
    """Variance of a single entry of a random projection matrix of that kind
    and input width: the scale of the distance-preservation checks."""
    if kind in ("binary", "gaussian"):
        return 1.0
    return 1.0 / np.sqrt(in_dim)


def inertia(x, result):
    """k-means objective of a result: the summed squared distance of each row
    to its assigned centroid."""
    x = np.asarray(x, dtype=np.float64)
    return float(np.sum((x - result.centroids[result.assignments]) ** 2))


def cka_reference(x, y):
    """Linear CKA of one pair of matrices, each centred and its self-Gram
    formed within the call: ‖YᵀX‖² / (‖XᵀX‖ ‖YᵀY‖)."""
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    hsic = np.linalg.norm(yc.T @ xc) ** 2
    return float(hsic / (np.linalg.norm(xc.T @ xc) * np.linalg.norm(yc.T @ yc)))


def pca_reference(data, out_dim):
    """Centered PCA by a thin SVD of the centered rows, as `fit_pca` once
    computed it: the top `out_dim` right singular vectors, with the signs
    LAPACK gives them, and s² / (n - 1) as the explained variances."""
    data = np.asarray(data, dtype=np.float64)
    centered = data - data.mean(axis=0)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    variance = (s * s) / max(len(data) - 1, 1)
    return feat.PcaModel(mean=data.mean(axis=0), components=vt[:out_dim], explained_variance=variance[:out_dim])


def assignment_cost(cost, row_to_col):
    """Total cost of an assignment; rows marked -1 (padding) cost nothing."""
    return float(sum(cost[r, c] for r, c in enumerate(row_to_col) if c >= 0))


def validation_accuracy(x, y, lam, seed, max_epochs):
    """Accuracy on the probe's held-out 20% of a model trained from zero at
    `lam` on the other 80%, the split `logistic_probe(..., seed=seed)` makes."""
    x = np.asarray(x, dtype=np.float64)
    classes, y_index = np.unique(y, return_inverse=True)
    fit_rows, val_rows = ek._stratified_split(np.asarray(y), 0.2, seed)
    w, b, _, _ = ek._train_logreg(x[fit_rows], y_index[fit_rows], len(classes), lam, max_epochs)
    return float(np.mean(np.argmax(x[val_rows] @ w.T + b, axis=1) == y_index[val_rows]))


def attention_reference(q, k, v, num_heads, g):
    """Value of multi-head attention of q over k and v, and the (q, k, v)
    gradients under the cotangent g, one fresh array per step: the
    arithmetic that `autodiff.scaled_dot_product_attention` runs in place."""
    dim = q.shape[1]
    head_dim = dim // num_heads

    def split(t):
        return t.reshape(len(t), num_heads, head_dim).transpose(1, 0, 2)

    def merge(t):
        return t.transpose(1, 0, 2).reshape(t.shape[1], dim)

    qh, kh, vh = split(q), split(k), split(v)
    inv_sqrt = 1.0 / math.sqrt(head_dim)
    scores = (qh @ kh.transpose(0, 2, 1)) * inv_sqrt
    scores = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(scores)
    attn = e / e.sum(axis=-1, keepdims=True)
    gh = split(g)
    g_attn = gh @ vh.transpose(0, 2, 1)
    g_vh = attn.transpose(0, 2, 1) @ gh
    g_scores = attn * (g_attn - (g_attn * attn).sum(axis=-1, keepdims=True))
    g_qh = (g_scores @ kh) * inv_sqrt
    g_kh = (g_scores.transpose(0, 2, 1) @ qh) * inv_sqrt
    return merge(attn @ vh), (merge(g_qh), merge(g_kh), merge(g_vh))


def cross_entropy_reference(x, tau, target, g):
    """-sum(target * log(softmax(x / tau))) over the last axis and every row,
    as the one-element array that the tape holds, and its gradient under the
    cotangent g, one fresh array per step: the arithmetic that
    `autodiff.cross_entropy` runs in place."""
    inv_tau = 1.0 / float(tau)
    z = x * inv_tau
    z = z - z.max(axis=-1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    soft = np.exp(log_probs)
    grad = (soft * target.sum(axis=-1, keepdims=True) - target) * inv_tau * g
    return np.array([-(log_probs * target).sum()]), grad


def weighted_total(y, c):
    """sum(y * c) for a tensor y and a constant array c of its shape, as one
    scalar tape node whose backward hands y exactly g * c: how a test
    reduces an output to a loss, or gives an output a chosen cotangent."""
    y = ad.as_tensor(y)
    c = np.asarray(c, dtype=y.dtype)
    if c.shape != y.shape:
        raise ValueError(f"weighted_total shape mismatch: {y.shape} vs {c.shape}")
    return ad._apply("weighted_total", (y,), (y.data * c).sum(), lambda g: (g * c,))


def resize_bilinear_reference(image, out_h, out_w):
    """`augment.resize_bilinear` with a fresh array per step."""
    c, h, w = image.shape
    if (h, w) == (out_h, out_w):
        return image.copy()

    def axis_coords(n_in, n_out):
        coords = np.clip((np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5, 0.0, n_in - 1.0)
        lo = np.floor(coords).astype(np.int64)
        return lo, np.minimum(lo + 1, n_in - 1), coords - lo

    y0, y1, fy = axis_coords(h, out_h)
    x0, x1, fx = axis_coords(w, out_w)
    rows = image[:, :, x0] * (1 - fx) + image[:, :, x1] * fx
    out = rows[:, y0] * (1 - fy[None, :, None]) + rows[:, y1] * fy[None, :, None]
    return out.astype(image.dtype)


def rgb_to_hsv_reference(img):
    """`augment._rgb_to_hsv` evaluating every hue expression at every pixel,
    later maximum-channel tests overriding earlier ones."""
    r, g, b = img[0], img[1], img[2]
    maxc = np.max(img, axis=0)
    minc = np.min(img, axis=0)
    delta = maxc - minc
    s = np.where(maxc > 0, delta / np.maximum(maxc, 1e-12), 0.0)
    dz = np.maximum(delta, 1e-12)
    h = np.zeros_like(maxc)
    h = np.where(maxc == r, ((g - b) / dz) % 6.0, h)
    h = np.where(maxc == g, (b - r) / dz + 2.0, h)
    h = np.where(maxc == b, (r - g) / dz + 4.0, h)
    h = np.where(delta == 0, 0.0, h) / 6.0
    return np.stack([h, s, maxc])
