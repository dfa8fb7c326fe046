"""Seeded, deterministic view generation for every objective.

All functions are pure in (input, seed): the same call always produces the
same views. Images are channel-first float arrays with values in [0, 1].
"""

from __future__ import annotations

import math
import numpy as np


def _axis_coords(n_in, n_out):
    """Bilinear source coordinates along one axis, half-pixel centers clamped
    at the border: the lower and upper source index and the upper's weight."""
    coords = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    coords = np.clip(coords, 0.0, n_in - 1.0)
    lo = np.floor(coords).astype(np.int64)
    hi = np.minimum(lo + 1, n_in - 1)
    frac = coords - lo
    return lo, hi, frac


def resize_bilinear(image, out_h, out_w):
    """Resize (C, H, W) with bilinear interpolation, half-pixel centers."""
    image = np.asarray(image)
    c, h, w = image.shape
    if (h, w) == (out_h, out_w):
        return image.copy()
    y0, y1, fy = _axis_coords(h, out_h)
    x0, x1, fx = _axis_coords(w, out_w)
    # separable: interpolate along x over every source row, then along y;
    # each sum accumulates in place in its first term's buffer
    rows = image[:, :, x0] * (1 - fx)
    rows += image[:, :, x1] * fx
    out = rows[:, y0]
    out *= (1 - fy)[:, None]
    lower = rows[:, y1]
    lower *= fy[:, None]
    out += lower
    return out.astype(image.dtype, copy=False)


def resize_nearest(grid, out_h, out_w):
    """Nearest-neighbor resize for a 2-D label grid."""
    grid = np.asarray(grid)
    h, w = grid.shape
    ys = np.minimum(((np.arange(out_h) + 0.5) * (h / out_h)).astype(np.int64), h - 1)
    xs = np.minimum(((np.arange(out_w) + 0.5) * (w / out_w)).astype(np.int64), w - 1)
    return grid[ys][:, xs]


def simclr_views(image, patch, grid, size):
    """The SimCLR views of one image: the patch-px windows at grid x grid
    evenly spaced, rounded offsets, each resized to size px, as one
    (grid², C, size, size) array, row offset outer and column offset inner.

    Each view is bit for bit `resize_bilinear` of its window, whose
    coordinates all views share, shifted by their offsets. So each column
    offset runs one x pass over every image row, and each distinct (top row,
    bottom row, weight) blend of the y pass is computed once and cast once,
    then gathered into every view that reads it.
    """
    image = np.asarray(image)
    c, h, w = image.shape
    if patch > h or patch > w:
        raise ValueError(f"patch {patch} larger than image {h}x{w}")
    offsets = np.array([round(i * (h - patch) / (grid - 1)) for i in range(grid)])
    if patch == size:  # as `resize_bilinear` does at its input size, copy each window
        return np.stack([image[:, oy : oy + patch, ox : ox + patch] for oy in offsets for ox in offsets])
    lo, hi, frac = _axis_coords(patch, size)
    # the y pass's (top, bottom, weight) triples at every row offset, keyed
    # exactly by the weight's bits; view row i at row offset gy reads blend
    # row blend_of[gy, i]
    triples = np.stack([np.add.outer(offsets, lo).ravel(), np.add.outer(offsets, hi).ravel(),
                        np.tile(frac, grid).view(np.int64)], axis=1)
    keys, blend_of = np.unique(triples, axis=0, return_inverse=True)
    top, bottom, fy = keys[:, 0], keys[:, 1], keys[:, 2].view(np.float64)[:, None]
    blend_of = blend_of.reshape(grid, size)
    out = np.empty((grid * grid, c, size, size), dtype=image.dtype)
    # one channel at a time, so the float64 temporaries stay a channel's size;
    # the gather indices are in range, and mode="clip" writes straight into out
    for gx, ox in enumerate(offsets):
        for ch, plane in enumerate(image):
            cols = np.take(plane, ox + lo, axis=1) * (1 - frac)
            cols += np.take(plane, ox + hi, axis=1) * frac
            blend = np.take(cols, top, axis=0)
            blend *= 1 - fy
            lower = np.take(cols, bottom, axis=0)
            lower *= fy
            blend += lower
            blend = blend.astype(image.dtype, copy=False)
            for gy in range(grid):
                np.take(blend, blend_of[gy], axis=0, out=out[gy * grid + gx, ch], mode="clip")
    return out


def _random_square_crop(image, rng, scale_range, out_size):
    _, h, w = image.shape
    s = min(h, w)
    lo, hi = scale_range
    area = rng.uniform(lo, hi)
    side_min = max(1, math.ceil(s * math.sqrt(lo)))
    side_max = min(s, math.floor(s * math.sqrt(hi)))
    side = int(np.clip(round(s * math.sqrt(area)), side_min, max(side_min, side_max)))
    y0 = int(rng.integers(0, h - side + 1))
    x0 = int(rng.integers(0, w - side + 1))
    crop = image[:, y0 : y0 + side, x0 : x0 + side]
    return resize_bilinear(crop, out_size, out_size)


def dino_crops(image, seed, n_global, n_local, global_scale, local_scale, out_size):
    """Global and local random square crops, all resized to out_size.

    Crops only; no color augmentation. The area fraction of each crop is
    kept inside its declared range by construction (offsets and side are
    integer-rounded within the admissible band).
    """
    rng = np.random.default_rng(seed)
    glob = [_random_square_crop(image, rng, global_scale, out_size) for _ in range(n_global)]
    local = [_random_square_crop(image, rng, local_scale, out_size) for _ in range(n_local)]
    return glob, local


def _rgb_to_hsv(img):
    # resized views are channel-last in memory, where every step below runs
    # several times slower; max and min are exact in any layout
    img = np.ascontiguousarray(img)
    r, g, b = img[0], img[1], img[2]
    maxc = np.max(img, axis=0)
    minc = np.min(img, axis=0)
    delta = maxc - minc
    s = np.where(maxc > 0, delta / np.maximum(maxc, 1e-12), 0.0)
    dz = np.maximum(delta, 1e-12)
    # each hue expression runs only on the pixels it decides: the maximum
    # channel, b over g over r where two are equal; grey pixels keep hue 0
    h = np.zeros_like(maxc)
    left = delta != 0
    for c, u, w, offset in ((b, r, g, 4.0), (g, b, r, 2.0), (r, g, b, None)):
        sel = left & (maxc == c)
        left &= ~sel
        at = np.flatnonzero(sel)
        hue = (np.take(u, at) - np.take(w, at)) / np.take(dz, at)
        np.put(h, at, hue % 6.0 if offset is None else hue + offset)
    h /= 6.0
    return np.stack([h, s, maxc])


def _hsv_to_rgb(img):
    h, s, v = img[0] * 6.0, img[1], img[2]
    i = np.floor(h).astype(np.int64) % 6
    f = h - np.floor(h)
    p = v * (1 - s)
    q = v * (1 - s * f)
    t = v * (1 - s * (1 - f))
    r = np.choose(i, [v, q, p, p, t, v])
    g = np.choose(i, [t, v, v, q, p, p])
    b = np.choose(i, [p, p, t, v, v, q])
    return np.stack([r, g, b])


JITTER_MAX_DELTA = 0.1  # bound on each factor's distance from 1 and on the hue shift
JITTER_P = 0.5  # probability of each of the four adjustments


def color_jitter(image, seed):
    """Brightness / contrast / saturation / hue, each applied with
    probability JITTER_P.

    Factors lie within JITTER_MAX_DELTA of 1; output is clamped to [0, 1].
    """
    image = np.asarray(image, dtype=np.float64)
    rng = np.random.default_rng(seed)
    out = image

    apply = rng.random(4) < JITTER_P
    factors = 1.0 + rng.uniform(-JITTER_MAX_DELTA, JITTER_MAX_DELTA, size=3)
    hue_shift = rng.uniform(-JITTER_MAX_DELTA, JITTER_MAX_DELTA)

    if apply[0] and factors[0] != 1.0:  # brightness
        out = out * factors[0]
    if apply[1] and factors[1] != 1.0:  # contrast
        mean = out.mean()
        out = mean + factors[1] * (out - mean)
    if apply[2] and factors[2] != 1.0:  # saturation
        gray = out.mean(axis=0, keepdims=True)
        out = gray + factors[2] * (out - gray)
    if apply[3] and hue_shift != 0.0:  # hue
        hsv = _rgb_to_hsv(np.clip(out, 0.0, 1.0))
        hsv[0] = (hsv[0] + hue_shift) % 1.0
        out = _hsv_to_rgb(hsv)
    if out is image:
        return image.copy()
    return np.clip(out, 0.0, 1.0)
