import numpy as np
import pytest

from fungi import backbone as bb
from fungi import evalkit as ek
from fungi import objectives as obj
from fungi import segmem as sm

from .oracles import reference_encoder, reference_extractor, reference_ivf, reference_seg


def unit_rows(rng, n, dim):
    x = rng.normal(size=(n, dim))
    return (x / np.linalg.norm(x, axis=1, keepdims=True)).astype(np.float32)


def make_bank(rng, n=200, dim=16, classes=5):
    return sm.PatchMemoryBank(
        features=unit_rows(rng, n, dim),
        labels=rng.integers(0, classes, size=n).astype(np.int32),
        num_classes=classes,
    )


class TestMaskDownsampling:
    def test_majority_vote(self):
        mask = np.zeros((4, 4), dtype=np.int32)
        mask[:2, :2] = 1
        mask[0, 0] = 2  # minority pixel
        grid = sm.downsample_mask(mask, 2)
        assert grid[0, 0] == 1
        assert grid[1, 1] == 0

    def test_ignore_excluded_from_vote(self):
        mask = np.full((2, 2), sm.IGNORE_LABEL, dtype=np.int32)
        mask[0, 0] = 3
        grid = sm.downsample_mask(mask, 2)
        assert grid[0, 0] == 3

    def test_all_ignore_cell(self):
        mask = np.full((2, 2), sm.IGNORE_LABEL, dtype=np.int32)
        assert sm.downsample_mask(mask, 2)[0, 0] == sm.IGNORE_LABEL

    @staticmethod
    def loop_oracle(mask, patch_size, ignore_label):
        h, w = mask.shape
        gh, gw = h // patch_size, w // patch_size
        cells = mask.reshape(gh, patch_size, gw, patch_size).transpose(0, 2, 1, 3)
        cells = cells.reshape(gh, gw, patch_size * patch_size)
        out = np.full((gh, gw), ignore_label, dtype=np.int32)
        for i in range(gh):
            for j in range(gw):
                votes = cells[i, j]
                votes = votes[votes != ignore_label]
                if votes.size:
                    out[i, j] = np.argmax(np.bincount(votes))
        return out

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        patch = int(rng.choice([2, 3, 4]))
        gh, gw = rng.integers(1, 7, size=2)
        # few labels and small cells, so ties and all-ignore cells occur
        mask = rng.integers(0, int(rng.integers(1, 5)), size=(gh * patch, gw * patch))
        mask = mask.astype(rng.choice([np.uint8, np.int32]))
        mask[rng.random(mask.shape) < rng.choice([0.3, 0.9])] = sm.IGNORE_LABEL
        got = sm.downsample_mask(mask, patch)
        assert got.dtype == np.int32
        np.testing.assert_array_equal(got, self.loop_oracle(mask, patch, sm.IGNORE_LABEL))

    def test_tie_goes_to_lower_label(self):
        mask = np.array([[4, 1], [1, 4]], dtype=np.int32)
        assert sm.downsample_mask(mask, 2)[0, 0] == 1

    def test_negative_label_rejected(self):
        with pytest.raises(ValueError):
            sm.downsample_mask(np.array([[0, -1], [1, 1]]), 2)


def query_dist(bank, query, k, tau):
    """Class distribution of one patch row, through the block search of the
    bank's index (flat at these sizes, so the exact scan)."""
    index = sm.ivf_build(bank.features, reference_ivf(), seed=0)
    _, dists = sm.predict_grid(bank, np.asarray(query)[None], reference_seg(k=k, temperature=tau), index=index)
    return dists[0]


class TestPatchMemoryBank:
    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0])
    def test_row_that_is_not_unit_norm_is_named(self, value):
        rows = unit_rows(np.random.default_rng(0), 4, 6)
        rows[3] = value
        with pytest.raises(ValueError, match="^bank row 3 is not unit-norm"):
            sm.PatchMemoryBank(features=rows, labels=np.zeros(4), num_classes=1)


class TestQueryLabel:
    def test_k1_returns_one_hot(self):
        rng = np.random.default_rng(0)
        bank = make_bank(rng)
        dist = query_dist(bank, bank.features[17], k=1, tau=0.02)
        assert dist[bank.labels[17]] == 1.0
        assert dist.sum() == 1.0

    def test_equal_similarity_two_classes_split(self):
        v = np.array([1.0, 0.0], dtype=np.float32)
        w = np.array([0.0, 1.0], dtype=np.float32)
        bank = sm.PatchMemoryBank(
            features=np.stack([v, w]), labels=np.array([0, 1]), num_classes=2
        )
        q = np.array([np.sqrt(0.5), np.sqrt(0.5)], dtype=np.float32)
        dist = query_dist(bank, q, k=2, tau=0.1)
        assert abs(dist[0] - 0.5) < 1e-8 and abs(dist[1] - 0.5) < 1e-8

    def test_tiny_temperature_selects_argmax(self):
        rng = np.random.default_rng(1)
        bank = make_bank(rng)
        q = unit_rows(rng, 1, 16)[0]
        ids, _ = sm.exact_search(bank.features, q, 5)
        dist = query_dist(bank, q, k=5, tau=1e-6)
        assert np.argmax(dist) == bank.labels[ids[0]]
        assert dist[bank.labels[ids[0]]] > 1 - 1e-6

    def test_distribution_properties(self):
        rng = np.random.default_rng(2)
        bank = make_bank(rng)
        for _ in range(10):
            dist = query_dist(bank, unit_rows(rng, 1, 16)[0], k=13, tau=0.05)
            assert abs(dist.sum() - 1.0) < 1e-8
            assert np.all(dist >= 0)

    def test_empty_and_oversized(self):
        rng = np.random.default_rng(3)
        bank = make_bank(rng, n=4)
        with pytest.raises(ValueError):
            query_dist(bank, bank.features[0], k=9, tau=0.1)


class TestIvf:
    def setup_index(self, n=3000, dim=12, seed=4):
        rng = np.random.default_rng(seed)
        feats = unit_rows(rng, n, dim)
        params = reference_ivf(num_leaves=32, leaves_to_search=8, rerank=40)
        return feats, sm.ivf_build(feats, params, seed=seed), rng

    def test_full_scan_equals_exact_bitwise(self):
        feats, index, rng = self.setup_index()
        index.params = reference_ivf(num_leaves=32, leaves_to_search=32, rerank=40)
        for _ in range(20):
            q = unit_rows(rng, 1, 12)[0]
            ids_a, sims_a = sm.ivf_search(index, q, 10)
            ids_b, sims_b = sm.exact_search(feats, q, 10)
            np.testing.assert_array_equal(ids_a, ids_b)
            np.testing.assert_array_equal(sims_a, sims_b)

    def test_pruned_recall_is_high(self):
        feats, index, rng = self.setup_index()
        recalls = []
        for _ in range(50):
            q = unit_rows(rng, 1, 12)[0]
            ids_a, _ = sm.ivf_search(index, q, 10)
            ids_b, _ = sm.exact_search(feats, q, 10)
            recalls.append(len(set(ids_a) & set(ids_b)) / 10)
        assert np.mean(recalls) >= 0.9

    def test_self_query_returns_self_first(self):
        feats, index, _ = self.setup_index()
        ids, _ = sm.ivf_search(index, feats[100], 5)
        assert ids[0] == 100

    def test_ids_come_from_bank(self):
        feats, index, rng = self.setup_index()
        ids, _ = sm.ivf_search(index, unit_rows(rng, 1, 12)[0], 7)
        assert np.all((0 <= ids) & (ids < len(feats)))

    def test_k_exceeding_rerank(self):
        _, index, rng = self.setup_index()
        with pytest.raises(ValueError):
            sm.ivf_search(index, unit_rows(rng, 1, 12)[0], 41)

    @pytest.fixture
    def kmeans_calls(self, monkeypatch):
        calls = []
        kmeans = ek.kmeans
        monkeypatch.setattr(ek, "kmeans", lambda *a, **kw: calls.append(1) or kmeans(*a, **kw))
        return calls

    @pytest.mark.parametrize("n, leaves", [(10, 32), (4 * sm.IVF_MIN_ROWS_PER_LEAF - 1, 4)])
    def test_flat_index_below_the_floor_is_exact_search(self, kmeans_calls, n, leaves):
        rng = np.random.default_rng(5)
        feats = unit_rows(rng, n, 4)
        index = sm.ivf_build(feats, reference_ivf(num_leaves=leaves, leaves_to_search=1, rerank=40), seed=0)
        assert index.centroids is None and index.row_leaf is None and not kmeans_calls
        for q in unit_rows(rng, 10, 4):
            ids_a, sims_a = sm.ivf_search(index, q, 7)
            ids_b, sims_b = sm.exact_search(feats, q, 7)
            np.testing.assert_array_equal(ids_a, ids_b)
            np.testing.assert_array_equal(sims_a, sims_b)

    def test_every_leaf_searched_builds_no_partition(self, kmeans_calls):
        feats = unit_rows(np.random.default_rng(5), 4 * sm.IVF_MIN_ROWS_PER_LEAF, 4)
        index = sm.ivf_build(feats, reference_ivf(num_leaves=4, leaves_to_search=4, rerank=40), seed=0)
        assert index.centroids is None and not kmeans_calls
        assert index.describe() == f"exact search over {len(feats)} bank rows: all 4 leaves searched"

    def test_floor_partitions(self, kmeans_calls):
        feats = unit_rows(np.random.default_rng(5), 4 * sm.IVF_MIN_ROWS_PER_LEAF, 4)
        index = sm.ivf_build(feats, reference_ivf(num_leaves=4, leaves_to_search=1, rerank=40), seed=0)
        assert len(kmeans_calls) == 1 and index.centroids.shape == (4, 4)
        assert index.row_leaf.shape == (len(feats),) and not index.scans_every_row()


class TestMiou:
    def test_perfect_prediction(self):
        rng = np.random.default_rng(6)
        gt = rng.integers(0, 4, size=(2, 16, 16))
        mean, per_class = sm.miou(gt, gt, num_classes=4)
        assert mean == 1.0
        assert all(v == 1.0 for v in per_class.values())

    def test_disjoint_single_class(self):
        pred = np.zeros((8, 8), dtype=np.int64)
        gt = np.ones((8, 8), dtype=np.int64)
        mean, _ = sm.miou(pred, gt, num_classes=2)
        assert mean == 0.0

    def test_half_overlap_is_one_third(self):
        # two half-overlapping squares: intersection 8x4, union 8x12
        pred = np.zeros((8, 16), dtype=np.int64)
        gt = np.zeros((8, 16), dtype=np.int64)
        pred[:, 0:8] = 1
        gt[:, 4:12] = 1
        _, per_class = sm.miou(pred, gt, num_classes=2)
        assert abs(per_class[1] - 1.0 / 3.0) < 1e-12

    def test_ignore_pixels_excluded(self):
        gt = np.zeros((4, 4), dtype=np.int64)
        gt[0] = sm.IGNORE_LABEL
        pred = np.zeros((4, 4), dtype=np.int64)
        pred[0] = 1  # wrong only where ignored
        mean, per_class = sm.miou(pred, gt, num_classes=2)
        assert mean == 1.0
        assert 1 not in per_class

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sm.miou(np.zeros((2, 2)), np.zeros((3, 3)), 2)

    @pytest.mark.parametrize("pred, gt, message", [
        ([[0, 2, 1, 1]], [[0, 0, 1, 1]], "a prediction lies outside 0..1"),
        ([[0, -1, 1, 1]], [[0, 0, 1, 1]], "a prediction lies outside 0..1"),
        ([[0, 0, 1, 1]], [[0, 2, 1, 1]], "a ground-truth label lies outside 0..1"),
    ])
    def test_labels_outside_the_classes_rejected(self, pred, gt, message):
        with pytest.raises(ValueError, match=message):
            sm.miou(np.array(pred), np.array(gt), 2)

    def test_predictions_at_ignored_pixels_are_not_counted(self):
        pred = np.array([[0, -1, 1, 7]])
        gt = np.array([[0, sm.IGNORE_LABEL, 1, sm.IGNORE_LABEL]])
        assert sm.miou(pred, gt, 2) == (1.0, {0: 1.0, 1: 1.0})

    def test_matches_per_pixel_confusion(self):
        # class 4 is never predicted nor true: it stays out of the mean
        rng = np.random.default_rng(8)
        gt = rng.integers(0, 4, size=(2, 32, 32)).astype(np.int32)
        gt[rng.random(gt.shape) < 0.1] = sm.IGNORE_LABEL
        pred = np.where(rng.random(gt.shape) < 0.7, gt % sm.IGNORE_LABEL, rng.integers(0, 4, size=gt.shape))
        confusion = np.zeros((5, 5), dtype=np.int64)
        np.add.at(confusion, (gt[gt != sm.IGNORE_LABEL], pred[gt != sm.IGNORE_LABEL]), 1)
        tp = np.diag(confusion)
        want = {c: tp[c] / (confusion[c].sum() + confusion[:, c].sum() - tp[c]) for c in range(4)}
        mean, per_class = sm.miou(pred, gt, num_classes=5)
        assert per_class == want
        assert mean == np.mean(list(want.values()))


def tiny_extractor(use_fungi=False, image_size=64, dim=8):
    cfg = reference_encoder(image_size=image_size, patch_size=16, depth=1, dim=dim, heads=2, seed=30)
    params = bb.init_encoder(cfg, dtype=np.float32)
    head = bb.attach_head(dim, 12, seed=31, normalize_input=False, dtype=np.float32) if use_fungi else None
    return reference_extractor(params, head)


def synthetic_seg_images(rng, n, size=64, classes=3):
    images, masks = [], []
    for _ in range(n):
        img = rng.random((3, size, size)) * 0.2
        mask = np.zeros((size, size), dtype=np.int32)
        cls = int(rng.integers(1, classes))
        y0, x0 = rng.integers(0, size // 2, size=2)
        h, w = rng.integers(size // 4, size // 2, size=2)
        img[:, y0 : y0 + h, x0 : x0 + w] += np.array([0.8, 0.1, 0.4])[:, None, None] * cls / classes
        mask[y0 : y0 + h, x0 : x0 + w] = cls
        images.append(np.clip(img, 0, 1))
        masks.append(mask)
    return images, masks


class TestBankBuilding:
    def test_bank_size_counts(self):
        rng = np.random.default_rng(7)
        images, masks = synthetic_seg_images(rng, 4)
        extractor = tiny_extractor()
        bank = sm.build_bank(images, masks, extractor, reference_seg(k=1), seed=0)
        assert len(bank) == 4 * 16  # 64/16 grid -> 16 patches per image
        assert bank.features.shape[1] == 8

    def test_fungi_doubles_dim(self):
        rng = np.random.default_rng(8)
        images, masks = synthetic_seg_images(rng, 3)
        extractor = tiny_extractor(use_fungi=True)
        bank = sm.build_bank(images, masks, extractor, reference_seg(k=1), seed=0)
        assert bank.features.shape[1] == 16
        assert extractor.support is not None

    def test_fungi_features_read_the_cls_token_under_mean_pooling(self):
        cfg = reference_encoder(image_size=64, patch_size=16, depth=1, dim=8, heads=2, pooling="mean", seed=30)
        params = bb.init_encoder(cfg, dtype=np.float64)
        head = bb.attach_head(8, 12, seed=31, normalize_input=False, dtype=np.float64)
        extractor = reference_extractor(params, head)
        images = [np.random.default_rng(i).random((3, 64, 64)) for i in range(3)]
        extractor.build_support([bb.encode(params, image) for image in images])
        tokens = bb.encode(params, images[0])  # final-norm rows, CLS first
        grads = obj.simclr_patch_loss(tokens, head, extractor.support, tau=extractor.tau, seed=5,
                                         retrieved_per_patch=extractor.retrieved_per_patch,
                                         kept_per_patch=extractor.kept_per_patch)
        unit = [g / np.linalg.norm(g, axis=1, keepdims=True) for g in (grads, tokens[1:])]
        want = np.concatenate(unit, axis=1) / np.sqrt(2.0)
        np.testing.assert_allclose(extractor.features(images[0], seed=5), want, rtol=0, atol=1e-6)

    def test_fungi_bank_encodes_each_image_once(self, monkeypatch):
        rng = np.random.default_rng(8)
        images, masks = synthetic_seg_images(rng, 3)
        extractor = tiny_extractor(use_fungi=True)
        encode, calls = bb.encode, []
        monkeypatch.setattr(bb, "encode", lambda params, image: calls.append(1) or encode(params, image))
        bank = sm.build_bank(images, masks, extractor, reference_seg(k=1), seed=4)
        assert len(calls) == len(images)
        # the same rows as a features() pass of their own over the same support
        want = [
            extractor.features(image, seed=4 + i)[sm.downsample_mask(mask, 16).ravel() != sm.IGNORE_LABEL]
            for i, (image, mask) in enumerate(zip(images, masks))
        ]
        np.testing.assert_array_equal(bank.features, np.concatenate(want))

    @pytest.mark.parametrize("use_fungi", [False, True])
    def test_bank_encodes_each_image_once_per_epoch(self, monkeypatch, use_fungi):
        images, masks = synthetic_seg_images(np.random.default_rng(8), 3)
        encode, calls = bb.encode, []
        monkeypatch.setattr(bb, "encode", lambda params, image: calls.append(1) or encode(params, image))
        sm.build_bank(images, masks, tiny_extractor(use_fungi=use_fungi), reference_seg(k=1, augmentation_epochs=2), seed=4)
        assert len(calls) == 2 * len(images)

    def test_masks_that_disagree_with_the_images_are_refused(self):
        images, masks = synthetic_seg_images(np.random.default_rng(8), 3)
        for bad in (masks[:2], [m[:32, :32] for m in masks]):
            with pytest.raises(ValueError, match="masks and images disagree"):
                sm.build_bank(images, bad, tiny_extractor(), reference_seg(k=1), seed=0)

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        images, masks = synthetic_seg_images(rng, 3)
        cfg = reference_seg(k=1, augmentation_epochs=2, bank_cap=60)
        a = sm.build_bank(images, masks, tiny_extractor(), cfg, seed=5)
        b = sm.build_bank(images, masks, tiny_extractor(), cfg, seed=5)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_augmentation_epochs_multiply_rows(self):
        rng = np.random.default_rng(10)
        images, masks = synthetic_seg_images(rng, 2)
        cfg = reference_seg(k=1, augmentation_epochs=3)
        bank = sm.build_bank(images, masks, tiny_extractor(), cfg, seed=1)
        assert len(bank) == 3 * 2 * 16

    def test_ignore_patches_dropped(self):
        rng = np.random.default_rng(11)
        images, masks = synthetic_seg_images(rng, 2)
        masks[0][:16, :16] = sm.IGNORE_LABEL  # exactly one patch cell
        bank = sm.build_bank(images, masks, tiny_extractor(), reference_seg(k=1), seed=0)
        assert len(bank) == 2 * 16 - 1

    def test_self_retrieval_gives_perfect_miou(self):
        rng = np.random.default_rng(12)
        images, masks = synthetic_seg_images(rng, 3)
        extractor = tiny_extractor()
        cfg = reference_seg(k=1)
        bank = sm.build_bank(images, masks, extractor, cfg, seed=0)
        index = sm.ivf_build(bank.features, reference_ivf(), seed=0)
        preds = [sm.segment_image(extractor, bank, img, cfg, index=index, seed=0) for img in images]
        grid_gt = [
            augments_to_pixels(sm.downsample_mask(m, 16), 64) for m in masks
        ]
        mean, _ = sm.miou(np.stack(preds), np.stack(grid_gt), num_classes=3)
        assert mean == 1.0


def augments_to_pixels(grid, size):
    from fungi.augment import resize_nearest

    return resize_nearest(grid, size, size)


class TestQueryBlocks:
    @pytest.mark.parametrize("ivf", [False, True])
    def test_predict_grid_matches_single_queries(self, ivf):
        rng = np.random.default_rng(6)
        bank = make_bank(rng, n=600)
        queries = unit_rows(rng, 2 * ek.QUERY_BLOCK + 5, 16)
        config = reference_seg(k=7, temperature=0.05)
        # 75 rows per leaf at 8 leaves: above the floor, so the leaves are
        # searched; at the reference 512 leaves the index is flat
        params = reference_ivf(num_leaves=8, leaves_to_search=2, rerank=20) if ivf else reference_ivf()
        index = sm.ivf_build(bank.features, params, seed=6)
        assert index.scans_every_row() != ivf
        labels, dists = sm.predict_grid(bank, queries, config, index=index)
        alone = np.concatenate([sm.predict_grid(bank, q[None], config, index=index)[1] for q in queries])
        np.testing.assert_array_equal(labels, np.argmax(alone, axis=1))
        # float32 similarities from a one-row and a many-row matrix product
        # may differ in the last bit, scaled by 1 / temperature
        np.testing.assert_allclose(dists, alone, rtol=0, atol=1e-5)
