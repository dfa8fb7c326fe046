"""Reverse-mode automatic differentiation over dense numpy arrays.

The engine is tape-based: while a :class:`GradTape` is active, every primitive
whose inputs require gradients appends a node (inputs, output, backward
closure) to the tape. Nodes are appended in execution order, which is a valid
topological order, so the backward pass is a single reverse sweep.

Tapes are single-use, do not nest and must not be shared across threads;
parameters are plain read-only tensors and may be shared freely.
"""

from __future__ import annotations

import math
import threading

import numpy as np


class NumericError(ArithmeticError):
    """A primitive produced a non-finite value."""


def _check_finite(value, op):
    if not np.isfinite(value).all():
        raise NumericError(f"non-finite output of {op}")


class Tensor:
    """Dense n-dimensional array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "node")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.ascontiguousarray(data, dtype=dtype)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        _check_finite(arr, "tensor creation")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"


def as_tensor(value, dtype=None):
    """Wrap arrays/scalars as constant tensors; pass tensors through."""
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value), dtype=dtype)


def parameter(value):
    """A leaf tensor whose gradient is wanted."""
    return Tensor(np.asarray(value), requires_grad=True)


class _Node:
    __slots__ = ("inputs", "output", "backward_fn")

    def __init__(self, inputs, output, backward_fn):
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


# the one active tape of each thread, or None
_STATE = threading.local()


class GradTape:
    """Records primitive applications; consumed by a single backward pass."""

    def __init__(self):
        self._nodes = []
        self._consumed = False

    def __enter__(self):
        if getattr(_STATE, "tape", None) is not None:
            raise RuntimeError("a gradient tape is already active on this thread")
        _STATE.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _STATE.tape = None
        return False

    def _record(self, inputs, output, backward_fn):
        output.requires_grad = True
        node = _Node(inputs, output, backward_fn)
        output.node = node
        self._nodes.append(node)

    def __len__(self):
        return len(self._nodes)

    def backward(self, loss):
        """Gradients of a scalar loss w.r.t. every requires-grad leaf.

        Returns a dict from leaf Tensor (hashed by identity) to a numpy
        gradient of the same shape.
        The tape is consumed; a second call raises.
        """
        if self._consumed:
            raise RuntimeError("tape already consumed by a previous backward pass")
        if not isinstance(loss, Tensor) or loss.size != 1:
            raise ValueError("backward requires a scalar loss tensor")
        if loss.node is None or loss.node not in set(self._nodes):
            raise ValueError("loss is detached from this tape")
        self._consumed = True

        grads = {id(loss): np.ones_like(loss.data)}
        leaf_grads = {}
        for node in reversed(self._nodes):
            g_out = grads.pop(id(node.output), None)
            if g_out is None:
                continue
            for inp, g in zip(node.inputs, node.backward_fn(g_out)):
                if g is None or not inp.requires_grad:
                    continue
                g = np.asarray(g, dtype=inp.dtype)
                if inp.node is None:
                    bucket = leaf_grads
                    key = inp
                else:
                    bucket = grads
                    key = id(inp)
                if key in bucket:
                    bucket[key] = bucket[key] + g
                else:
                    bucket[key] = g
        for leaf, g in leaf_grads.items():
            assert g.shape == leaf.shape
        # unlink outputs from their nodes: with no tensor <-> node cycles left,
        # reference counting frees the graph with the tape, not a later
        # cyclic collection
        for node in self._nodes:
            node.output.node = None
        return leaf_grads


def _apply(op, inputs, value, backward_fn):
    _check_finite(value, op)
    out = Tensor.__new__(Tensor)
    out.data = np.ascontiguousarray(value)
    out.requires_grad = False
    out.node = None
    tape = getattr(_STATE, "tape", None)
    if tape is not None and any(t.requires_grad for t in inputs):
        tape._record(inputs, out, backward_fn)
    return out


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def add(a, b):
    """Elementwise sum of equal-shape tensors."""
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")
    return _apply("add", (a, b), a.data + b.data, lambda g: (g, g))


def linear(x, weight, bias=None):
    """Affine map y = x W^T + b over the last axis, weight of shape (out, in).

    Any leading shape of x is flattened to rows. The bias is a constant;
    gradients are formed only for x and the weight, and only when they
    require them: frozen weights cost no weight product.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    if weight.data.ndim != 2:
        raise ValueError("linear weight must be 2-D (out, in)")
    if x.data.ndim == 0 or x.shape[-1] != weight.shape[1]:
        raise ValueError(f"linear dim mismatch: x {x.shape} vs W {weight.shape}")
    rows = x.data.reshape(-1, weight.shape[1])
    value = rows @ weight.data.T
    if bias is not None:
        bias = as_tensor(bias)
        if bias.shape != (weight.shape[0],):
            raise ValueError("linear bias shape mismatch")
        value = value + bias.data

    def backward(g):
        g = g.reshape(-1, weight.shape[0])
        return ((g @ weight.data).reshape(x.shape) if x.requires_grad else None,
                g.T @ rows if weight.requires_grad else None)

    return _apply("linear", (x, weight), value.reshape(x.shape[:-1] + value.shape[-1:]), backward)


def layer_norm(x, gamma, beta):
    """Normalize the last axis to zero mean / unit variance (eps 1e-6), then
    scale by gamma and shift by beta, both constants."""
    x = as_tensor(x)
    gamma = as_tensor(gamma).data
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = np.mean(centered * centered, axis=-1, keepdims=True)
    inv_sigma = 1.0 / np.sqrt(var + 1e-6)
    xhat = centered * inv_sigma
    value = xhat * gamma + as_tensor(beta).data

    def backward(g):
        gx_hat = g * gamma
        m1 = gx_hat.mean(axis=-1, keepdims=True)
        m2 = (gx_hat * xhat).mean(axis=-1, keepdims=True)
        return ((gx_hat - m1 - xhat * m2) * inv_sigma,)

    return _apply("layer_norm", (x,), value, backward)


def cross_entropy(x, tau, target):
    """-sum(target * log(softmax(x / tau))), the softmax over the last axis,
    summed over every row; target is a constant array of x's shape.

    The softmax runs in place on the scaled logits, and the gradient is
    (softmax * rowsum(target) - target) / tau.
    """
    x = as_tensor(x)
    target = np.asarray(target, dtype=x.dtype)
    if target.shape != x.shape:
        raise ValueError(f"cross_entropy target shape {target.shape} vs logits {x.shape}")
    inv_tau = 1.0 / float(tau)
    log_probs = x.data * inv_tau
    log_probs -= log_probs.max(axis=-1, keepdims=True)
    soft = np.exp(log_probs)
    log_probs -= np.log(soft.sum(axis=-1, keepdims=True))
    np.exp(log_probs, out=soft)
    log_probs *= target

    def backward(g):
        gx = soft * target.sum(axis=-1, keepdims=True)
        gx -= target
        gx *= inv_tau
        gx *= g
        return (gx,)

    return _apply("cross_entropy", (x,), -log_probs.sum(), backward)


# a python float, not a numpy float64 scalar: under numpy's promotion rules
# (NEP 50) the latter would turn float32 data into float64
_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x):
    """Gaussian error linear unit (tanh form)."""
    x = as_tensor(x)
    cubic = x.data + 0.044715 * (x.data * x.data * x.data)
    t = np.tanh(_GELU_C * cubic)
    value = 0.5 * x.data * (1.0 + t)

    def backward(g):
        du = _GELU_C * (1.0 + 3 * 0.044715 * (x.data * x.data))
        local = 0.5 * (1.0 + t) + 0.5 * x.data * (1.0 - t * t) * du
        return (g * local,)

    return _apply("gelu", (x,), value, backward)


def l2_normalize(x):
    """x / ||x||_2 over the last axis; a zero row raises NumericError."""
    x = as_tensor(x)
    norm = np.sqrt((x.data * x.data).sum(axis=-1, keepdims=True))
    with np.errstate(divide="ignore", invalid="ignore"):
        value = x.data / norm

    def backward(g):
        inner = (g * x.data).sum(axis=-1, keepdims=True)
        return (g / norm - x.data * inner / norm**3,)

    return _apply("l2_normalize", (x,), value, backward)


def mean(x, axis):
    """Mean over one axis."""
    x = as_tensor(x)
    value = x.data.mean(axis=axis)
    count = x.shape[axis]

    def backward(g):
        return (np.broadcast_to(np.expand_dims(g, axis) / count, x.shape).copy(),)

    return _apply("mean", (x,), value, backward)


def concat(tensors, axis):
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ValueError("concat of zero tensors")
    value = np.concatenate([t.data for t in tensors], axis=axis)
    splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]
    return _apply("concat", tuple(tensors), value, lambda g: np.split(g, splits, axis=axis))


def narrow(x, axis, start, length):
    """Contiguous slice [start, start+length) along an axis."""
    x = as_tensor(x)
    if not (0 <= start and start + length <= x.shape[axis]):
        raise ValueError(f"narrow [{start}:{start + length}) out of range on axis {axis} of {x.shape}")
    index = [slice(None)] * x.data.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)
    value = x.data[index]

    def backward(g):
        full = np.zeros(x.shape, dtype=x.dtype)
        full[index] = g
        return (full,)

    return _apply("narrow", (x,), value, backward)


def scaled_dot_product_attention(q, k, v, num_heads):
    """Multi-head attention of (..., queries, dim) q over (..., tokens, dim)
    k and v; returns (..., queries, dim). Leading axes index independent
    attentions, such as one per view. There may be fewer queries than
    tokens."""
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    *lead, _, dim = q.shape
    tokens = k.shape[-2]
    if dim % num_heads != 0:
        raise ValueError(f"dim {dim} not divisible by heads {num_heads}")
    if k.shape != (*lead, tokens, dim) or v.shape != k.shape:
        raise ValueError("attention expects q, k, v of one width and leading shape, and k, v of identical shape")
    head_dim = dim // num_heads

    def split(t):
        return t.reshape(t.shape[:-1] + (num_heads, head_dim)).swapaxes(-3, -2)

    def merge(t):
        return t.swapaxes(-3, -2).reshape(t.shape[:-3] + (t.shape[-2], dim))

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    inv_sqrt = 1.0 / math.sqrt(head_dim)  # python float: keeps float32 data float32
    # the softmax runs in place on the score buffer: one (..., heads,
    # queries, tokens) array, not a fresh one per step
    attn = qh @ kh.swapaxes(-1, -2)
    attn *= inv_sqrt
    attn -= attn.max(axis=-1, keepdims=True)
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=-1, keepdims=True)
    value = merge(attn @ vh)

    def backward(g):
        gh = split(g)
        g_vh = attn.swapaxes(-1, -2) @ gh
        # g_scores = attn * (g_attn - rowsum(g_attn * attn)), in g_attn's buffer
        g_scores = gh @ vh.swapaxes(-1, -2)
        g_scores -= (g_scores * attn).sum(axis=-1, keepdims=True)
        g_scores *= attn
        g_qh = g_scores @ kh
        g_qh *= inv_sqrt
        g_kh = g_scores.swapaxes(-1, -2) @ qh
        g_kh *= inv_sqrt
        return merge(g_qh), merge(g_kh), merge(g_vh)

    return _apply("attention", (q, k, v), value, backward)
