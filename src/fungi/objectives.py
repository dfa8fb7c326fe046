"""Self-supervised scalar losses whose layer gradients become features.

Three objectives produce a scalar loss on top of the frozen encoder plus a
random head: a KL term pulling projected logits toward uniform, a
teacher/student cross-entropy over global and local crops, and an InfoNCE
term contrasting overlapping patches against a fixed negative bank. A dense
variant of the contrastive loss yields one gradient per patch token for
retrieval-based segmentation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import evalkit

# large negative logit that excludes self-similarity terms from softmax
# denominators; finite after the 1 / tau scaling (float32: for tau > 3e-9)
_NEG_INF = -1e30


def kl_loss(z, tau):
    """KL(uniform || softmax(z / tau)); zero exactly when the softmax is uniform."""
    z = ad.as_tensor(z)
    uniform = np.ones(z.shape, dtype=z.dtype) / z.size
    return ad.add(ad.cross_entropy(z, tau, uniform), ad.as_tensor(-float(np.log(z.size)), dtype=z.dtype))


def dino_loss(student_z, teacher_z, tau_s, tau_t):
    """Mean teacher/student cross-entropy over crop pairs.

    student_z is the (V, P) tensor of the latents of all V crops, globals
    first; teacher_z is the (G, P) array of the global crops' teacher
    latents, a constant (no gradient flows through it). Pairs with identical
    view index are skipped. The G * (V - 1) pair terms collapse into one
    cross-entropy: the student log-probabilities of view s meet W[s], the sum
    of the teacher distributions of the global views other than s over the
    pair count.
    """
    if len(teacher_z) < 2:
        raise ValueError("dino_loss requires at least 2 global (teacher) views")
    scaled = np.asarray(teacher_z) / tau_t
    probs = np.exp(scaled - scaled.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    # pairs[s, t] = 1 when student view s meets teacher view t (s != t)
    pairs = 1.0 - np.eye(student_z.shape[0], len(probs), dtype=probs.dtype)
    weights = (pairs @ probs) / float(pairs.sum())
    return ad.cross_entropy(student_z, tau_s, weights)


def _info_nce(z_norm, bank_rows, tau):
    """Mean of -log softmax terms over ordered positive pairs.

    z_norm: (P, D) tape tensor of unit rows. bank_rows: (M, D) constant
    unit rows. Every positive row is scored against the other positives and
    the whole bank; the self term is masked out of each denominator. The
    cross-entropy's target weighs each ordered pair of distinct positives by
    1 / (P (P - 1)) and every other logit by 0.
    """
    p = z_norm.shape[0]
    if p < 2:
        raise ValueError("contrastive loss needs at least 2 positive views")
    self_mask = np.zeros((p, p), dtype=z_norm.dtype)
    np.fill_diagonal(self_mask, _NEG_INF)
    positives = ad.add(ad.linear(z_norm, z_norm), ad.as_tensor(self_mask))
    logits = ad.concat([positives, ad.linear(z_norm, np.asarray(bank_rows, dtype=z_norm.dtype))], axis=1)
    pairs = np.zeros(logits.shape, dtype=logits.dtype)
    pairs[:, :p] = 1.0 / (p * (p - 1))
    np.fill_diagonal(pairs, 0.0)
    return ad.cross_entropy(logits, tau, pairs)


def simclr_loss(z_views, bank, tau):
    """InfoNCE over ordered pairs of positive views against a fixed bank.

    z_views is a (P, D) tensor of latents, normalized here; bank is a
    SupportIndex of negative latents. Each denominator ranges over the other
    P - 1 positives plus every bank row.
    """
    return _info_nce(ad.l2_normalize(z_views), bank.rows, tau)


@dataclass
class SupportIndex:
    """Read-only unit-norm latent rows, searched by exact cosine: the SimCLR
    negative bank and the dense loss's support set."""

    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows)
        if rows.ndim != 2 or rows.shape[0] == 0:
            raise ValueError("support index needs a non-empty 2-D latent matrix")
        self.rows = evalkit.unit_rows(rows, "support")
        self.rows.flags.writeable = False

    def __len__(self):
        return self.rows.shape[0]

    def search(self, queries, k):
        """Top-k row ids by cosine similarity, ties broken by lower id."""
        if k > len(self):
            raise ValueError(f"k={k} exceeds index size {len(self)}")
        return evalkit.top_k(np.asarray(queries) @ self.rows.T, k)


def _draw_without_replacement(rng, rows, population, size):
    """Sorted (rows, size) ids, each row a uniform draw of `size` distinct
    ids from 0..population - 1: Floyd's algorithm, one rng.integers call per
    kept column over every row. At size 1 the stream is that of
    rng.choice(population, size=1, replace=False) called once per row."""
    picks = np.empty((rows, size), dtype=np.int64)
    for col, top in enumerate(range(population - size, population)):
        draw = rng.integers(0, top + 1, size=rows)
        # a draw already kept in its row takes `top`, which no earlier column can hold
        picks[:, col] = np.where((picks[:, :col] == draw[:, None]).any(axis=1), top, draw)
    picks.sort(axis=1)
    return picks


def simclr_patch_loss(patch_tokens, head, support, tau, seed, retrieved_per_patch, kept_per_patch):
    """Per-patch gradients of a dense contrastive loss.

    patch_tokens: (T + 1, d) array of backbone tokens, CLS first. Every token
    is projected by the head; each projected token retrieves its
    retrieved_per_patch nearest neighbors from the support index and a
    seeded draw keeps kept_per_patch of them as negatives. The InfoNCE loss
    treats all T + 1 tokens as positives and the kept neighbors as the
    negative batch, and is differentiated w.r.t. the tokens themselves.

    Returns the (T, d) per-patch gradients: the CLS row is dropped.
    """
    tokens_data = np.asarray(patch_tokens)
    if len(support) < retrieved_per_patch:
        raise ValueError("support index smaller than retrieved_per_patch")

    leaf = ad.parameter(tokens_data)
    with ad.GradTape() as tape:
        z_norm = ad.l2_normalize(head.apply(leaf))
        neighbor_ids = support.search(z_norm.data, retrieved_per_patch)
        picks = _draw_without_replacement(np.random.default_rng(seed), len(neighbor_ids),
                                          retrieved_per_patch, kept_per_patch)
        kept = np.take_along_axis(neighbor_ids, picks, axis=1)
        loss = _info_nce(z_norm, support.rows[kept.reshape(-1)], tau)
    return tape.backward(loss)[leaf][1:]
