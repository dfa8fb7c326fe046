import numpy as np
import pytest

from fungi import augment as aug
from fungi.config import RunConfig

from .oracles import resize_bilinear_reference, rgb_to_hsv_reference


def rand_image(seed, size=224):
    return np.random.default_rng(seed).random((3, size, size))


def reference_crops(image, seed):
    """dino_crops at the reference [dino] and [encoder] settings of `RunConfig()`."""
    cfg = RunConfig()
    d = cfg.dino
    return aug.dino_crops(image, seed, d.global_crops, d.local_crops, d.global_scale, d.local_scale,
                          cfg.encoder.image_size)


def hand_cut_views(image, patch, grid, size):
    """Per-view `resize_bilinear_reference` of each window, cut by hand, row
    offset outer."""
    offsets = [round(i * (image.shape[1] - patch) / (grid - 1)) for i in range(grid)]
    return [resize_bilinear_reference(image[:, oy : oy + patch, ox : ox + patch], size, size)
            for oy in offsets for ox in offsets]


class TestSimclrViews:
    def test_49_views_at_224(self):
        vs = aug.simclr_views(rand_image(0).astype(np.float32), patch=112, grid=7, size=224)
        assert vs.shape == (49, 3, 224, 224) and vs.dtype == np.float32
        # C-ordered: each view's later reductions sum in its own row order
        assert vs.flags.c_contiguous and all(v.flags.c_contiguous for v in vs)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("side, patch, grid, size",
                             [(224, 112, 7, 224), (40, 16, 3, 32), (224, 100, 4, 224), (64, 32, 3, 32), (50, 24, 5, 10)])
    def test_matches_per_view_resize_bytes(self, side, patch, grid, size, dtype):
        img = np.random.default_rng(side + patch).random((3, side, side)).astype(dtype)
        got = aug.simclr_views(img, patch, grid, size)
        want = hand_cut_views(img, patch, grid, size)
        assert got.shape == (grid * grid, 3, size, size)
        for k, view in enumerate(want):
            assert got[k].dtype == view.dtype == dtype and got[k].tobytes() == view.tobytes(), k

    def test_offsets(self):
        # offsets must be round(i * (224 - 112) / 6)
        expected = [0, 19, 37, 56, 75, 93, 112]
        assert [round(i * 112 / 6) for i in range(7)] == expected
        img = np.zeros((3, 224, 224))
        img[0, 93, 112] = 1.0
        vs = aug.simclr_views(img, 112, 7, 112)
        # the view at grid position (5, 6), row offset outer, starts at (93, 112):
        # the marked pixel lands at its (0, 0); the transposed position (6, 5) misses it
        assert vs[5 * 7 + 6][0, 0, 0] == 1.0
        assert vs[6 * 7 + 5].max() == 0.0

    def test_views_tile_image(self):
        img = np.arange(224 * 224, dtype=np.float64).reshape(1, 224, 224)
        vs = aug.simclr_views(img, 112, 7, 112)
        np.testing.assert_array_equal(np.unique(vs), img.ravel())

    def test_patch_too_large(self):
        with pytest.raises(ValueError):
            aug.simclr_views(rand_image(2, 64), patch=112, grid=7, size=224)


class TestDinoCrops:
    def test_counts_and_sizes(self):
        g, l = reference_crops(rand_image(3), seed=0)
        assert len(g) == 2 and len(l) == 10
        assert all(v.shape == (3, 224, 224) for v in list(g) + list(l))

    def test_scale_bounds_over_many_draws(self):
        img = rand_image(4, 96)
        lo_g, hi_g = 1.0, 0.0
        lo_l, hi_l = 1.0, 0.0
        for seed in range(1000):
            side_g = _side_of_crop(img, seed, (0.25, 1.0))
            side_l = _side_of_crop(img, seed, (0.05, 0.25))
            frac_g = (side_g / 96) ** 2
            frac_l = (side_l / 96) ** 2
            lo_g, hi_g = min(lo_g, frac_g), max(hi_g, frac_g)
            lo_l, hi_l = min(lo_l, frac_l), max(hi_l, frac_l)
        assert 0.25 <= lo_g and hi_g <= 1.0
        assert 0.05 <= lo_l and hi_l <= 0.25

    def test_seed_determinism(self):
        img = rand_image(5)
        g1, l1 = reference_crops(img, seed=9)
        g2, l2 = reference_crops(img, seed=9)
        for a, b in zip(list(g1) + list(l1), list(g2) + list(l2)):
            np.testing.assert_array_equal(a, b)
        g3, _ = reference_crops(img, seed=10)
        assert not np.array_equal(g1[0], g3[0])


def _side_of_crop(img, seed, scale_range):
    import math

    s = img.shape[1]
    rng = np.random.default_rng(seed)
    area = rng.uniform(*scale_range)
    side_min = max(1, math.ceil(s * math.sqrt(scale_range[0])))
    side_max = min(s, math.floor(s * math.sqrt(scale_range[1])))
    return int(np.clip(round(s * math.sqrt(area)), side_min, max(side_min, side_max)))


class TestColorJitter:
    def test_output_in_unit_range(self):
        for seed in range(50):
            out = aug.color_jitter(rand_image(seed, 16), seed=seed)
            assert out.min() >= 0.0 and out.max() <= 1.0

    def test_deterministic(self):
        img = rand_image(8, 32)
        a = aug.color_jitter(img, seed=11)
        b = aug.color_jitter(img, seed=11)
        np.testing.assert_array_equal(a, b)

    def test_hsv_matches_every_branch_reference(self):
        img = rand_image(12, 64)
        img[:, :8] = img[0, :8]  # grey pixels
        img[1, 8:16] = img[0, 8:16]  # r and g tie for the maximum
        img[2, 16:24] = img[1, 16:24]  # g and b tie
        img[:, 24:32] = np.round(img[:, 24:32] * 3) / 3  # three-way ties, black and white
        # near-grey ties, where the hue's divisor is clamped and the branch
        # that decides gives another value
        img[:, 32:40] = img[0, 32:40]
        img[2, 32:36] = np.nextafter(img[0, 32:36], 0.0)  # r = g just above b
        img[0, 36:40] = np.nextafter(img[1, 36:40], 0.0)  # g = b just above r
        channel_last = np.ascontiguousarray(img.transpose(1, 2, 0)).transpose(2, 0, 1)  # as resized views are
        for layout in (img, channel_last):
            got, want = aug._rgb_to_hsv(layout), rgb_to_hsv_reference(layout)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_hsv_roundtrip(self):
        img = rand_image(9, 16)
        back = aug._hsv_to_rgb(aug._rgb_to_hsv(img))
        np.testing.assert_allclose(back, img, atol=1e-9)


class TestResize:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("in_hw, out_hw", [((7, 12), (19, 23)), ((23, 31), (6, 9)), ((11, 11), (11, 11))])
    def test_matches_fresh_array_reference_bytes(self, in_hw, out_hw, dtype):
        img = np.random.default_rng(in_hw[0]).random((3,) + in_hw).astype(dtype)
        got, want = aug.resize_bilinear(img, *out_hw), resize_bilinear_reference(img, *out_hw)
        assert got.dtype == want.dtype == dtype and got.tobytes() == want.tobytes()
        # the memory layout too: the order of later reductions over the view follows it
        assert got.strides == want.strides

    def test_identity_when_same_size(self):
        img = rand_image(10, 32)
        np.testing.assert_array_equal(aug.resize_bilinear(img, 32, 32), img)

    def test_constant_image_stays_constant(self):
        img = np.full((3, 17, 17), 0.37)
        out = aug.resize_bilinear(img, 40, 40)
        np.testing.assert_allclose(out, 0.37, rtol=1e-12)

    def test_downscale_average_of_2x2(self):
        img = np.arange(16, dtype=np.float64).reshape(1, 4, 4)
        out = aug.resize_bilinear(img, 2, 2)
        np.testing.assert_allclose(out[0], [[2.5, 4.5], [10.5, 12.5]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("in_hw, out_hw", [((7, 12), (19, 5)), ((23, 9), (6, 31)), ((5, 5), (11, 3))])
    def test_matches_per_pixel_oracle(self, in_hw, out_hw, dtype):
        (h, w), (out_h, out_w) = in_hw, out_hw
        img = np.random.default_rng(h * w).random((2, h, w)).astype(dtype)
        out = aug.resize_bilinear(img, out_h, out_w)
        assert out.dtype == dtype and out.shape == (2, out_h, out_w)

        def source(i, n_in, n_out):  # half-pixel centers, clamped at the border
            pos = min(max((i + 0.5) * n_in / n_out - 0.5, 0.0), n_in - 1.0)
            lo = int(pos)
            return lo, min(lo + 1, n_in - 1), pos - lo

        want = np.empty((2, out_h, out_w))
        for i in range(out_h):
            y0, y1, fy = source(i, h, out_h)
            for j in range(out_w):
                x0, x1, fx = source(j, w, out_w)
                top = img[:, y0, x0] * (1 - fx) + img[:, y0, x1] * fx
                bot = img[:, y1, x0] * (1 - fx) + img[:, y1, x1] * fx
                want[:, i, j] = top * (1 - fy) + bot * fy
        tol = 1e-6 if dtype == np.float32 else 1e-12
        np.testing.assert_allclose(out, want.astype(dtype), rtol=0, atol=tol)

    def test_nearest_for_labels(self):
        grid = np.array([[1, 2], [3, 4]])
        out = aug.resize_nearest(grid, 4, 4)
        assert out.shape == (4, 4)
        assert set(np.unique(out)) == {1, 2, 3, 4}
