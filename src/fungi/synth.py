"""Seeded synthetic datasets for desk-scale runs.

Two classification families and one segmentation family, all pure functions
of (parameters, seed):

* blobs — each class owns a fixed set of Gaussian color bumps; samples add
  pixel noise and a small random shift of the bump centers.
* stripes — each class owns a grating frequency and orientation; samples
  randomize the phase and add pixel noise.
* segmentation — a dark textured background with 1..3 axis-aligned class
  rectangles; masks carry the class ids, with a one-pixel ignore ring
  around every rectangle.
"""

from __future__ import annotations

import os

import numpy as np

from . import store
from .features import derive_seed
from .segmem import IGNORE_LABEL


def _class_rng(seed, *key):
    return np.random.default_rng(derive_seed(seed, *key))


def _blob_image(size, centers, colors, widths, rng, noise=0.08):
    yy, xx = np.mgrid[0:size, 0:size] / size
    img = np.zeros((3, size, size))
    jitter = rng.normal(scale=0.02, size=centers.shape)
    for (cy, cx), (jy, jx), color, width in zip(centers, jitter, colors, widths):
        bump = np.exp(-(((yy - cy - jy) ** 2 + (xx - cx - jx) ** 2) / (2 * width**2)))
        img += color[:, None, None] * bump
    img += rng.normal(scale=noise, size=img.shape)
    return np.clip(img, 0.0, 1.0)


def _stripe_image(size, freq, theta, base_phase, rng, noise=0.08):
    yy, xx = np.mgrid[0:size, 0:size] / size
    phase = base_phase + rng.normal(scale=0.3)
    wave = np.sin(2 * np.pi * freq * (xx * np.cos(theta) + yy * np.sin(theta)) + phase)
    channel_mix = np.array([0.9, 0.6, 0.3])
    img = 0.5 + 0.4 * channel_mix[:, None, None] * wave
    img += rng.normal(scale=noise, size=img.shape)
    return np.clip(img, 0.0, 1.0)


def make_classification(kind, n, classes, image_size, seed):
    """Images (n, 3, S, S) float32 in [0, 1] plus integer labels."""
    if classes < 1:
        raise ValueError("need at least one class")
    if n < classes:
        raise ValueError("need at least one sample per class")
    if kind not in ("blobs", "stripes"):
        raise ValueError(f"unknown synthetic kind {kind!r}")
    class_params = []
    for c in range(classes):
        rng_c = _class_rng(seed, "class", c)
        if kind == "blobs":
            class_params.append(
                (
                    rng_c.uniform(0.15, 0.85, size=(3, 2)),  # centers
                    rng_c.uniform(0.2, 1.0, size=(3, 3)),  # colors
                    rng_c.uniform(0.08, 0.2, size=3),  # widths
                )
            )
        else:
            class_params.append((2.0 + 2.0 * c, np.pi * c / classes, rng_c.uniform(0, 2 * np.pi)))

    labels = np.arange(n) % classes
    images = np.empty((n, 3, image_size, image_size), dtype=np.float32)
    for i in range(n):
        rng_i = _class_rng(seed, "sample", i)
        c = int(labels[i])
        if kind == "blobs":
            centers, colors, widths = class_params[c]
            images[i] = _blob_image(image_size, centers, colors, widths, rng_i)
        else:
            freq, theta, base_phase = class_params[c]
            images[i] = _stripe_image(image_size, freq, theta, base_phase, rng_i)
    return images, labels.astype(np.int32)


def make_segmentation(n, classes, image_size, seed):
    """Images plus per-pixel masks; class 0 is background.

    One to three rectangles carry classes 1..classes-1; each is surrounded by
    a one-pixel ignore ring so the ignore path is always exercised.
    """
    if classes < 2:
        raise ValueError("segmentation needs background + at least one class")
    rng_colors = _class_rng(seed, "seg-colors")
    class_colors = rng_colors.uniform(0.3, 1.0, size=(classes, 3))
    images = np.empty((n, 3, image_size, image_size), dtype=np.float32)
    masks = np.empty((n, image_size, image_size), dtype=np.uint8)
    for i in range(n):
        rng = _class_rng(seed, "seg-sample", i)
        img = rng.random((3, image_size, image_size)) * 0.15
        mask = np.zeros((image_size, image_size), dtype=np.uint8)
        for _ in range(int(rng.integers(1, 4))):
            cls = int(rng.integers(1, classes))
            h = int(rng.integers(image_size // 4, image_size // 2))
            w = int(rng.integers(image_size // 4, image_size // 2))
            y0 = int(rng.integers(0, image_size - h))
            x0 = int(rng.integers(0, image_size - w))
            texture = 0.15 * rng.random((3, h, w))
            img[:, y0 : y0 + h, x0 : x0 + w] = class_colors[cls][:, None, None] * 0.8 + texture
            ring = np.zeros_like(mask, dtype=bool)
            ring[max(0, y0 - 1) : y0 + h + 1, max(0, x0 - 1) : x0 + w + 1] = True
            mask[ring] = IGNORE_LABEL
            mask[y0 : y0 + h, x0 : x0 + w] = cls
        images[i] = np.clip(img, 0.0, 1.0)
        masks[i] = mask
    return images, masks


def save_dataset(path, images, labels, masks):
    sections = {"images": np.asarray(images, dtype=np.float32)}
    if labels is not None:
        sections["labels"] = np.asarray(labels, dtype=np.int32)
    if masks is not None:
        sections["masks"] = np.asarray(masks, dtype=np.uint8)
    store.write_sections(path, sections)


def load_dataset(path, target):
    """A dataset split whose `images` and `target` ("labels" or "masks")
    sections must be present: images (n, 3, S, S), and n labels or n (S, S)
    masks. StoreError names the file otherwise."""
    s = store.read_sections(path, ("images", target))
    shape = s["images"].shape
    if len(shape) != 4 or shape[1] != 3 or shape[2] != shape[3]:
        raise store.StoreError(f"{path}: images have shape {shape}, expected (n, 3, S, S)")
    want = shape[:1] if target == "labels" else (shape[0], *shape[2:])
    if s[target].shape != want:
        raise store.StoreError(f"{path}: {target} have shape {s[target].shape}, expected {want} for these images")
    return {
        "images": s["images"],
        "labels": s.get("labels"),
        "masks": s.get("masks"),
    }


def write_dataset_dir(out_dir, kind, n, classes, image_size, seed):
    """Materialize train/test splits (the first 75% of the samples train)
    under a directory; returns the paths. Bad arguments, and an n too small
    to leave a test sample, raise ValueError before anything is written."""
    if n < 1 or image_size < 4:
        raise ValueError(f"need n >= 1 and image_size >= 4, got n={n}, image_size={image_size}")
    if kind == "segmentation":
        images, masks = make_segmentation(n, classes, image_size, seed)
        labels, n_train = None, max(1, round(n * 0.75))
    else:
        images, labels = make_classification(kind, n, classes, image_size, seed)
        masks, n_train = None, max(classes, round(n * 0.75))
    if n_train >= n:
        raise ValueError(f"n={n} leaves no test sample: the train split takes {n_train}")
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for split, sl in (("train", slice(0, n_train)), ("test", slice(n_train, n))):
        paths[split] = os.path.join(out_dir, f"{split}.fngi")
        save_dataset(paths[split], images[sl], labels=None if labels is None else labels[sl],
                     masks=None if masks is None else masks[sl])
    return paths
