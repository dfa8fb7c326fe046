"""Seeded, deterministic view generation for every objective.

All functions are pure in (input, seed): the same call always produces the
same views. Images are channel-first float arrays with values in [0, 1].
"""

from __future__ import annotations

import math
import numpy as np


def resize_bilinear(image, out_h, out_w):
    """Resize (C, H, W) with bilinear interpolation, half-pixel centers."""
    image = np.asarray(image)
    c, h, w = image.shape
    if (h, w) == (out_h, out_w):
        return image.copy()

    def axis_coords(n_in, n_out):
        coords = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
        coords = np.clip(coords, 0.0, n_in - 1.0)
        lo = np.floor(coords).astype(np.int64)
        hi = np.minimum(lo + 1, n_in - 1)
        frac = coords - lo
        return lo, hi, frac

    y0, y1, fy = axis_coords(h, out_h)
    x0, x1, fx = axis_coords(w, out_w)
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


def patchify_overlap(image, patch, grid):
    """Overlapping square patches on a regular grid with rounded offsets."""
    image = np.asarray(image)
    _, h, w = image.shape
    if patch > h or patch > w:
        raise ValueError(f"patch {patch} larger than image {h}x{w}")
    offsets = [round(i * (h - patch) / (grid - 1)) for i in range(grid)]
    views = [
        image[:, oy : oy + patch, ox : ox + patch].copy()
        for oy in offsets
        for ox in offsets
    ]
    return views


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
