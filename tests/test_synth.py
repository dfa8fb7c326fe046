import numpy as np
import pytest

from fungi import store
from fungi import synth


class TestClassification:
    def test_shapes_and_ranges(self):
        images, labels = synth.make_classification("blobs", 12, 3, 32, seed=0)
        assert images.shape == (12, 3, 32, 32)
        assert images.dtype == np.float32
        assert images.min() >= 0.0 and images.max() <= 1.0
        assert set(np.unique(labels)) == {0, 1, 2}

    def test_seed_determinism(self):
        a, _ = synth.make_classification("stripes", 8, 2, 32, seed=5)
        b, _ = synth.make_classification("stripes", 8, 2, 32, seed=5)
        np.testing.assert_array_equal(a, b)
        c, _ = synth.make_classification("stripes", 8, 2, 32, seed=6)
        assert not np.array_equal(a, c)

    def test_classes_are_pixel_separable(self):
        # nearest-centroid in pixel space should separate the two families
        for kind in ("blobs", "stripes"):
            images, labels = synth.make_classification(kind, 40, 2, 32, seed=1)
            flat = images.reshape(40, -1)
            centroids = np.stack([flat[labels == c].mean(axis=0) for c in (0, 1)])
            preds = np.argmin(
                ((flat[:, None, :] - centroids[None]) ** 2).sum(axis=2), axis=1
            )
            assert np.mean(preds == labels) > 0.95

    def test_errors(self):
        with pytest.raises(ValueError):
            synth.make_classification("blobs", 2, 3, 32, seed=0)
        with pytest.raises(ValueError):
            synth.make_classification("spirals", 8, 2, 32, seed=0)


class TestSegmentation:
    def test_shapes_and_labels(self):
        images, masks = synth.make_segmentation(6, 4, 64, seed=2)
        assert images.shape == (6, 3, 64, 64)
        assert masks.shape == (6, 64, 64)
        present = set(np.unique(masks))
        assert present - {synth.IGNORE_LABEL} <= {0, 1, 2, 3}
        assert synth.IGNORE_LABEL in present  # the ignore ring exists

    def test_rectangles_brighter_than_background(self):
        images, masks = synth.make_segmentation(4, 3, 64, seed=3)
        for img, mask in zip(images, masks):
            inside = img[:, (mask != 0) & (mask != synth.IGNORE_LABEL)]
            outside = img[:, mask == 0]
            if inside.size and outside.size:
                assert inside.mean() > outside.mean()

    def test_determinism(self):
        a, am = synth.make_segmentation(3, 3, 32, seed=7)
        b, bm = synth.make_segmentation(3, 3, 32, seed=7)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(am, bm)


class TestDatasetFiles:
    def test_save_load_round_trip(self, tmp_path):
        images, labels = synth.make_classification("blobs", 6, 2, 16, seed=4)
        path = tmp_path / "d.fngi"
        synth.save_dataset(path, images, labels=labels, masks=None)
        assert sorted(store.read_sections(path, ())) == ["images", "labels"]
        back = synth.load_dataset(path, "labels")
        np.testing.assert_array_equal(back["images"], images)
        np.testing.assert_array_equal(back["labels"], labels)

    def test_file_with_meta_section_loads(self, tmp_path):
        # files written before the meta section was dropped still load
        images, labels = synth.make_classification("blobs", 6, 2, 16, seed=4)
        path = tmp_path / "d.fngi"
        store.write_sections(path, {"images": images.astype(np.float32), "labels": labels.astype(np.int32),
                                    "meta": store.encode_text("kind=blobs")})
        back = synth.load_dataset(path, "labels")
        np.testing.assert_array_equal(back["images"], images.astype(np.float32))
        np.testing.assert_array_equal(back["labels"], labels)

    def test_write_dataset_dir_splits(self, tmp_path):
        paths = synth.write_dataset_dir(tmp_path / "ds", "blobs", 20, 2, 16, seed=5)
        train = synth.load_dataset(paths["train"], "labels")
        test = synth.load_dataset(paths["test"], "labels")
        assert len(train["images"]) == 15
        assert len(test["images"]) == 5

    def test_segmentation_dir_has_masks(self, tmp_path):
        paths = synth.write_dataset_dir(tmp_path / "ds", "segmentation", 8, 3, 32, seed=6)
        train = synth.load_dataset(paths["train"], "masks")
        assert train["masks"] is not None
        assert train["labels"] is None
