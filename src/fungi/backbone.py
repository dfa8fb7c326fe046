"""Compact transformer encoder with attachable projection heads.

The encoder follows the usual pre-norm layout: patch embedding + learned
positional embeddings, `depth` blocks of multi-head attention and a GELU MLP,
a final layer norm, and CLS or mean pooling. One forward, written in the
`autodiff` primitives, runs a block's four linear layers in turn and can
stop before, or resume from, any of them. `encode` runs it whole and keeps
every token. A pooled forward is split at the [gradients] section's source
layer: `tap_state` runs the layers before it once per image or view, and
keeps only what the rest reads. A view set resumes from its states in one
call: `embed` untracked, and `loss_gradient` with the source layer's output
as the tape's one leaf, so an objective sees only embeddings and a sample's
gradient of that layer is `G^T X` over its views' rows. The resume stacks
the views on a leading axis: row-wise layers run once over every row, and
attention runs within each view. Both trim the last block to the rows that
pooling reads. Every parameter array is read-only, so shared weights cannot
be changed by a gradient pass or a worker thread.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad

if TYPE_CHECKING:
    from .config import EncoderSection


@dataclass
class BlockParams:
    ln1_g: ad.Tensor
    ln1_b: ad.Tensor
    qkv_w: ad.Tensor
    qkv_b: ad.Tensor
    proj_w: ad.Tensor
    proj_b: ad.Tensor
    ln2_g: ad.Tensor
    ln2_b: ad.Tensor
    fc1_w: ad.Tensor
    fc1_b: ad.Tensor
    fc2_w: ad.Tensor
    fc2_b: ad.Tensor


@dataclass
class EncoderParams:
    config: EncoderSection
    patch_w: ad.Tensor
    patch_b: ad.Tensor
    cls_token: ad.Tensor
    pos: ad.Tensor
    blocks: list[BlockParams]
    norm_g: ad.Tensor
    norm_b: ad.Tensor

    def named_tensors(self):
        yield "patch_w", self.patch_w
        yield "patch_b", self.patch_b
        yield "cls_token", self.cls_token
        yield "pos", self.pos
        for i, blk in enumerate(self.blocks):
            for name in BlockParams.__dataclass_fields__:
                yield f"block{i}.{name}", getattr(blk, name)
        yield "norm_g", self.norm_g
        yield "norm_b", self.norm_b

    def checksum(self):
        """CRC-32 of every parameter array, in `named_tensors()` order."""
        crc = 0
        for _, t in self.named_tensors():
            crc = zlib.crc32(np.ascontiguousarray(t.data).tobytes(), crc)
        return crc

    @property
    def dtype(self):
        return self.patch_w.dtype


# layer kind of the [gradients] section -> prefix of its weight and bias
# attributes in BlockParams
LAYER_PREFIXES = {"attn_proj": "proj", "mlp_fc1": "fc1", "mlp_fc2": "fc2", "qkv": "qkv"}
# a block's linear layers, in forward order
_BLOCK_LAYERS = ("qkv", "proj", "fc1", "fc2")


def _read_only(tensors):
    """Mark parameter arrays read-only: any later write raises ValueError."""
    for t in tensors:
        t.data.flags.writeable = False


def init_encoder(config, dtype):
    """Deterministic random initialization of all encoder weights from
    `config.seed`."""
    rng = np.random.default_rng(config.seed)
    d = config.dim
    patch_in = 3 * config.patch_size * config.patch_size
    tokens = config.num_patches + 1

    def lin(out_dim, in_dim):
        w = rng.normal(0.0, 1.0 / np.sqrt(in_dim), size=(out_dim, in_dim))
        return ad.Tensor(w.astype(dtype)), ad.Tensor(np.zeros(out_dim, dtype=dtype))

    def embed(*shape):
        return ad.Tensor((0.02 * rng.normal(size=shape)).astype(dtype))

    patch_w, patch_b = lin(d, patch_in)
    cls_token = embed(1, d)
    pos = embed(tokens, d)
    blocks = []
    for _ in range(config.depth):
        linears = {}
        for prefix, shape in config.layer_shapes.items():
            linears[prefix + "_w"], linears[prefix + "_b"] = lin(*shape)
        blocks.append(
            BlockParams(
                ln1_g=ad.Tensor(np.ones(d, dtype=dtype)),
                ln1_b=ad.Tensor(np.zeros(d, dtype=dtype)),
                ln2_g=ad.Tensor(np.ones(d, dtype=dtype)),
                ln2_b=ad.Tensor(np.zeros(d, dtype=dtype)),
                **linears,
            )
        )
    params = EncoderParams(
        config=config,
        patch_w=patch_w,
        patch_b=patch_b,
        cls_token=cls_token,
        pos=pos,
        blocks=blocks,
        norm_g=ad.Tensor(np.ones(d, dtype=dtype)),
        norm_b=ad.Tensor(np.zeros(d, dtype=dtype)),
    )
    _read_only(t for _, t in params.named_tensors())
    return params


def patchify(image, patch_size):
    """(3, H, W) image -> (num_patches, 3 * patch^2) rows, row-major grid order."""
    c, h, w = image.shape
    if h % patch_size or w % patch_size:
        raise ValueError("image size not divisible by patch size")
    gh, gw = h // patch_size, w // patch_size
    out = image.reshape(c, gh, patch_size, gw, patch_size)
    out = out.transpose(1, 3, 0, 2, 4).reshape(gh * gw, c * patch_size * patch_size)
    return np.ascontiguousarray(out)


def _stem(params, image):
    """Residual rows before block 0: the token rows of one image (3, S, S)
    after patch and positional embedding, CLS first."""
    cfg = params.config
    image = np.asarray(image)
    if image.shape != (3, cfg.image_size, cfg.image_size):
        raise ValueError(f"expected image of shape (3, {cfg.image_size}, {cfg.image_size}), got {image.shape}")
    patches = ad.Tensor(patchify(image, cfg.patch_size).astype(params.dtype))
    x = ad.linear(patches, params.patch_w, params.patch_b)
    return ad.add(ad.concat([params.cls_token, x], axis=0), params.pos)


def _forward(params, x, hidden, start, stop, trim, taps=None):
    """Run the forward's linear layers `start` to `stop - 1` from the state
    `(x, hidden)`.

    Layers are numbered over the blocks in `_BLOCK_LAYERS` order. The state
    before layer n is the residual rows x and, before proj and fc2, `hidden`,
    the attention or GELU rows that the layer reads; qkv and fc1 read the
    layer norm of x, taken here, so `hidden` is None before them. Rows are
    the last axis but one: (rows, dim) for one image, or (views, rows, dim)
    for a view set, whose attention runs within each view. With `trim`, the
    last block carries on only the row that CLS pooling reads: right after
    its ln1 the residual and the query narrow to the CLS row, which attends
    to every key and value, and proj and the MLP see that one row. With
    `taps`, the output of layer `start` becomes a fresh leaf of the active
    tape and `(leaf, input rows)` is appended to `taps`; nothing upstream is
    tracked.
    """
    cfg = params.config
    d = cfg.dim
    for n in range(start, stop):
        i, prefix = n // len(_BLOCK_LAYERS), _BLOCK_LAYERS[n % len(_BLOCK_LAYERS)]
        blk = params.blocks[i]
        trimmed = trim and i == cfg.depth - 1
        if prefix == "qkv":
            hidden = ad.layer_norm(x, blk.ln1_g, blk.ln1_b)
            if trimmed:
                x = ad.narrow(x, -2, 0, 1)
        elif prefix == "fc1":
            hidden = ad.layer_norm(x, blk.ln2_g, blk.ln2_b)
        y = ad.linear(hidden, getattr(blk, prefix + "_w"), getattr(blk, prefix + "_b"))
        if taps is not None and n == start:
            y = ad.parameter(y.data)
            taps.append((y, hidden.data))
        if prefix == "qkv":
            q, k, v = (ad.narrow(y, -1, j * d, d) for j in range(3))
            if trimmed:
                q = ad.narrow(q, -2, 0, 1)
            hidden = ad.scaled_dot_product_attention(q, k, v, cfg.heads)
        elif prefix == "fc1":
            hidden = ad.gelu(y)
        else:
            x, hidden = ad.add(x, y), None
    return x, hidden


def _source_layer(params, source):
    """Number of a [gradients] section's layer in `_forward`'s order; a
    negative `block_index` counts from the last block."""
    block = source.block_index % params.config.depth
    return block * len(_BLOCK_LAYERS) + _BLOCK_LAYERS.index(LAYER_PREFIXES[source.layer_kind])


def encode(params, image):
    """Forward pass: image (3, S, S) -> (patches + 1, dim) array of final-norm
    token rows, CLS first."""
    x, _ = _forward(params, _stem(params, image), None, 0, params.config.depth * len(_BLOCK_LAYERS), False)
    return ad.layer_norm(x, params.norm_g, params.norm_b).data


def tap_state(params, source, image):
    """The prefix of an image's pooled forward: every layer before the
    [gradients] section's source layer, untracked.

    Returns what the rest of the forward reads, `(residual rows, hidden)`, as
    arrays of their own: `hidden` is the attention rows before proj, the GELU
    rows before fc2, and None before qkv and fc1, whose layer norm the resume
    takes. In the last block under CLS pooling the residual is the CLS row
    alone past ln1, and so is `hidden`; before that block's qkv the state
    holds every token row of the residual.
    """
    trim = params.config.pooling == "cls"
    x, hidden = _forward(params, _stem(params, image), None, 0, _source_layer(params, source), trim)
    return x.data.copy(), None if hidden is None else hidden.data.copy()


def _resume(params, source, states, taps=None):
    """(views, dim) pooled embedding tensor of a view set from its
    `tap_state`s: the rest of the forward, from the source layer on, over the
    states stacked on a leading view axis, then the final norm and the CLS
    row or the patch mean of each view."""
    cfg = params.config
    x = ad.Tensor(np.stack([x for x, _ in states]))
    hidden = None if states[0][1] is None else ad.Tensor(np.stack([h for _, h in states]))
    x, _ = _forward(params, x, hidden, _source_layer(params, source), cfg.depth * len(_BLOCK_LAYERS),
                    cfg.pooling == "cls", taps)
    x = ad.layer_norm(x, params.norm_g, params.norm_b)
    start, rows = (0, 1) if cfg.pooling == "cls" else (1, x.shape[-2] - 1)
    return ad.mean(ad.narrow(x, -2, start, rows), axis=-2)


def embed(params, source, states):
    """(views, dim) pooled embeddings of a view set from its `tap_state`s:
    the CLS row or the patch mean of `encode`'s rows of each view, without
    the rows that pooling does not read."""
    return _resume(params, source, states).data


@dataclass
class Head:
    """Frozen random linear projection applied on top of the encoder."""

    weight: ad.Tensor
    bias: ad.Tensor
    normalize_input: bool

    def apply(self, x):
        """Projected rows of `x` over its last axis. Taped when `x` is
        tracked; an array or untracked tensor records nothing, so
        `apply(x).data` is the numpy forward."""
        if self.normalize_input:
            x = ad.l2_normalize(x)
        return ad.linear(x, self.weight, self.bias)


def attach_head(dim, proj_dim, seed, normalize_input, dtype):
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, 1.0 / np.sqrt(dim), size=(proj_dim, dim)).astype(dtype)
    head = Head(
        weight=ad.Tensor(w),
        bias=ad.Tensor(np.zeros(proj_dim, dtype=dtype)),
        normalize_input=normalize_input,
    )
    _read_only((head.weight, head.bias))
    return head


def loss_gradient(params, source, states, loss_fn):
    """Gradient of a scalar objective w.r.t. the [gradients] section's
    source layer only.

    Resumes a view set from its `tap_state`s in one pass on a single tape,
    whose one leaf is the source layer's output over every view's rows, and
    hands `loss_fn` the (views, dim) embeddings. With G the cotangents at
    that output and X the layer's input rows, the gradient is dW = G^T X and
    db = G.sum(0). Returns numpy arrays.
    """
    taps = []
    with ad.GradTape() as tape:
        loss = loss_fn(_resume(params, source, states, taps))
    [(leaf, inputs)] = taps
    g = tape.backward(loss)[leaf]
    g, x = g.reshape(-1, g.shape[-1]), inputs.reshape(-1, inputs.shape[-1])
    return g.T @ x, g.sum(axis=0)
