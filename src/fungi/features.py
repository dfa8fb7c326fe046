"""From raw layer gradients to retrieval-ready fused feature vectors.

The chain is: flatten the layer gradient (weights with the bias appended as
a final column), multiply by a seeded random projection down to the
embedding width, L2-normalize every segment and concatenate with the
normalized embedding, then optionally compress the fused vector with a PCA
fitted on the training split only. A projection is a read-only array that
its seed fixes. A `FeatureBank` holds a split's rows and hands out the ones
that evaluation reads.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import evalkit
from . import store
from .config import ConfigError, RunConfig


def derive_seed(base_seed, *labels):
    """Stable 32-bit seed derived from a base seed and string labels."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(base_seed)).encode())
    for label in labels:
        h.update(b"/")
        h.update(str(label).encode())
    return int.from_bytes(h.digest()[:4], "little")


def projection_matrix(kind, out_dim, in_dim, seed):
    """Seeded (out_dim, in_dim) random projection, read-only float64: +-1
    entries (binary), standard normal ones (gaussian), or +-1 with density
    1/sqrt(in_dim) and zeros elsewhere (sparse)."""
    rng = np.random.default_rng(seed)
    shape = (out_dim, in_dim)
    if kind == "binary":
        mat = (rng.integers(0, 2, size=shape) * 2 - 1).astype(np.float64)
    elif kind == "gaussian":
        mat = rng.standard_normal(shape)
    else:
        density = 1.0 / np.sqrt(in_dim)
        u = rng.random(shape)
        mat = np.zeros(shape)
        mat[u < density / 2] = -1.0
        mat[u > 1.0 - density / 2] = 1.0
    mat.flags.writeable = False
    return mat


def flatten_gradient(dw, db):
    """Row-major [dW | db] flattening; the bias is the last column."""
    dw = np.asarray(dw)
    db = np.asarray(db)
    if dw.ndim != 2 or db.shape != (dw.shape[0],):
        raise ValueError(f"inconsistent gradient shapes {dw.shape} / {db.shape}")
    return np.concatenate([dw, db[:, None]], axis=1).ravel()


def project(matrix, gradient):
    """Down-project a flattened gradient; no scale factor is applied."""
    gradient = np.asarray(gradient)
    if gradient.shape != matrix.shape[1:]:
        raise ValueError(
            f"gradient length {gradient.shape} does not match projection input {matrix.shape[1]}"
        )
    return matrix @ gradient.astype(np.float64)


def fuse(embeddings, gradient_rows):
    """Concatenate the unit-norm gradient segments with the unit-norm
    embedding, row by row, for a whole (n, width) bank at once.

    Gradient segments come first in registration order; the embedding is the
    final segment. Rescaling any input row leaves its output row unchanged.
    """
    segments = [evalkit.unit_rows(np.asarray(x, dtype=np.float64), "segment") for x in (*gradient_rows, embeddings)]
    return np.concatenate(segments, axis=1)


@dataclass
class PcaModel:
    mean: np.ndarray
    components: np.ndarray  # (out_dim, D) rows, orthonormal
    explained_variance: np.ndarray

    def __post_init__(self):
        gram = self.components @ self.components.T
        if np.max(np.abs(gram - np.eye(self.components.shape[0]))) > 1e-5:
            raise ValueError("PCA components are not orthonormal")
        if np.any(np.diff(self.explained_variance) > 1e-10):
            raise ValueError("explained variance must be non-increasing")

    def save(self, path):
        store.write_sections(
            path,
            {
                "pca_mean": self.mean,
                "pca_components": self.components,
                "pca_explained_variance": self.explained_variance,
            },
        )


def fit_pca(data, out_dim):
    """Centered PCA from the eigendecomposition of the (D, D) scatter matrix
    of the centered rows; no whitening. The components are the top `out_dim`
    eigenvectors in non-increasing eigenvalue order, each signed so that its
    largest-magnitude entry (the first, on a tie) is positive; the explained
    variances are the eigenvalues, clipped at 0, over n - 1. `out_dim` is in
    1..min(rows - 1, columns), as `RunConfig.validate` and `fungi fuse-pca`
    check: n centered rows span at most n - 1 dimensions."""
    data = np.asarray(data, dtype=np.float64)
    n = len(data)
    mean = data.mean(axis=0)
    centered = data - mean
    eigenvalues, eigenvectors = np.linalg.eigh(centered.T @ centered)
    components = eigenvectors[:, ::-1][:, :out_dim].T.copy()
    peaks = components[np.arange(out_dim), np.argmax(np.abs(components), axis=1)]
    components[peaks < 0] *= -1.0
    variance = np.maximum(eigenvalues[::-1][:out_dim], 0.0) / max(n - 1, 1)
    return PcaModel(mean=mean, components=components, explained_variance=variance)


def apply_pca(model, data):
    """Project vectors (or a matrix of rows) onto the fitted components."""
    data = np.asarray(data, dtype=np.float64)
    return (data - model.mean) @ model.components.T


@dataclass
class FeatureBank:
    """Per-sample fused features, their embedding and gradient segments, and
    the run configuration that fixes how every column was made."""

    labels: np.ndarray
    fused: np.ndarray
    embedding: np.ndarray
    gradients: dict  # objective name -> (n, d), in config.gradients.objectives order
    config: RunConfig

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if labels.size and labels.dtype.kind not in "iu":
            raise ValueError(f"bank labels must be integers, got {labels.dtype} {labels.ravel()[:3].tolist()}")
        info = np.iinfo(np.int32)
        outside = np.flatnonzero((labels < info.min) | (labels > info.max))
        if outside.size:
            raise ValueError(f"bank label {labels[outside[0]]} at row {outside[0]} is outside the int32 range")
        self.labels = labels.astype(np.int32, copy=False)
        sections = {"fused": self.fused, "embedding": self.embedding,
                    **{f"grad::{name}": x for name, x in self.gradients.items()}}
        for name, x in sections.items():
            if np.ndim(x) != 2:
                raise ValueError(f"bank section {name!r} is {np.ndim(x)}-D, not a 2-D (rows, columns) matrix")
        if any(len(x) != len(self.labels) for x in sections.values()):
            raise ValueError("feature bank arrays disagree on sample count")

    def __len__(self):
        return len(self.labels)

    @property
    def dim(self):
        return self.fused.shape[1]

    def rows(self, kind, role):
        """Rows used for evaluation: the fused matrix as stored (float32 in a
        loaded bank), as a read-only view, or the unit-norm float64 embedding
        or gradient segment of one objective. A fused row that is not finite,
        or a segment row that `evalkit.unit_rows` refuses, raises ValueError
        naming it among the `role` rows."""
        if kind == "fused":
            bad = np.flatnonzero(~np.isfinite(self.fused).all(axis=1))
            if bad.size:
                raise ValueError(f"{role} row {bad[0]} is not finite")
            rows = self.fused.view()
            rows.flags.writeable = False
            return rows
        rows = self.embedding if kind == "embedding" else self.gradients[kind]
        return evalkit.unit_rows(rows.astype(np.float64), role)

    def save(self, path):
        sections = {
            "labels": self.labels,
            "fused": self.fused.astype(np.float32),
            "embedding": self.embedding.astype(np.float32),
            "config_echo": store.encode_text(self.config.to_text()),
        }
        for name, grads in self.gradients.items():
            sections[f"grad::{name}"] = grads.astype(np.float32)
        store.write_sections(path, sections)

    @classmethod
    def load(cls, path):
        """Read a bank; sections other than its own are ignored. A bad echo
        raises ConfigError, and any other malformed bank StoreError."""
        s = store.read_sections(path, ("labels", "fused", "embedding", "config_echo"))
        try:
            config = RunConfig.from_text(store.decode_text(s["config_echo"]))
        except ValueError as exc:  # a ConfigError, or an echo that is not UTF-8
            raise ConfigError(f"{path}: config echo: {exc}") from exc
        names = config.gradients.objectives
        missing = [f"grad::{name}" for name in names if f"grad::{name}" not in s]
        if missing:
            raise store.StoreError(f"{path}: missing required section(s) {', '.join(map(repr, missing))}")
        try:
            return cls(
                labels=s["labels"],
                fused=s["fused"],
                embedding=s["embedding"],
                gradients={name: s[f"grad::{name}"] for name in names},
                config=config,
            )
        except ValueError as exc:  # labels that are not int32 integers, a section not 2-D, or disagreeing row counts
            raise store.StoreError(f"{path}: {exc}") from exc
