import dataclasses
import hashlib

import numpy as np
import pytest

from fungi import features as feat
from fungi import store
from fungi.config import PROJECTION_KINDS, ConfigError, RunConfig

from .oracles import entry_variance, pca_reference


class TestFlatten:
    def test_layout_by_definition(self):
        flat = feat.flatten_gradient(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([5.0, 6.0]))
        np.testing.assert_array_equal(flat, [1, 2, 5, 3, 4, 6])

    def test_zero_gradients(self):
        flat = feat.flatten_gradient(np.zeros((3, 4)), np.zeros(3))
        assert flat.shape == (15,)
        assert not flat.any()

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        dw, db = rng.normal(size=(5, 7)), rng.normal(size=5)
        block = feat.flatten_gradient(dw, db).reshape(5, 8)
        np.testing.assert_array_equal(block[:, :7], dw)
        np.testing.assert_array_equal(block[:, 7], db)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            feat.flatten_gradient(np.zeros((3, 4)), np.zeros(4))


class TestProjection:
    def test_zero_maps_to_zero(self):
        proj = feat.projection_matrix("binary", 16, 100, seed=1)
        np.testing.assert_array_equal(feat.project(proj, np.zeros(100)), np.zeros(16))

    def test_seed_determinism(self):
        rng = np.random.default_rng(1)
        g = rng.normal(size=50)
        a = feat.project(feat.projection_matrix("sparse", 8, 50, seed=3), g)
        b = feat.project(feat.projection_matrix("sparse", 8, 50, seed=3), g)
        np.testing.assert_array_equal(a, b)

    def test_binary_entries_and_mean(self):
        m = feat.projection_matrix("binary", 64, 512, seed=4)
        assert set(np.unique(m)) == {-1.0, 1.0}
        assert abs(m.mean()) < 0.02

    def test_sparse_density(self):
        in_dim = 2500
        m = feat.projection_matrix("sparse", 40, in_dim, seed=5)
        assert set(np.unique(m)) <= {-1.0, 0.0, 1.0}
        density = np.count_nonzero(m) / m.size
        assert abs(density - 1.0 / np.sqrt(in_dim)) < 0.005

    @pytest.mark.parametrize("kind", PROJECTION_KINDS)
    def test_distance_preservation(self, kind):
        # moderate-size instance of the distance-preservation check; the
        # full-size version runs in the acceptance suite
        rng = np.random.default_rng(6)
        n, in_dim, out_dim = 60, 2000, 256
        data = rng.normal(size=(n, in_dim))
        proj = feat.projection_matrix(kind, out_dim, in_dim, seed=7)
        scale = np.sqrt(out_dim * entry_variance(kind, in_dim))
        projected = data @ proj.T / scale

        ok = total = 0
        for i in range(n):
            for j in range(i + 1, n):
                exact = np.linalg.norm(data[i] - data[j])
                approx = np.linalg.norm(projected[i] - projected[j])
                ok += abs(approx - exact) <= 0.35 * exact
                total += 1
        assert ok / total >= 0.99

    def test_dim_mismatch(self):
        proj = feat.projection_matrix("binary", 8, 10, seed=0)
        with pytest.raises(ValueError):
            feat.project(proj, np.zeros(11))

    # SHA-256 of the matrix bytes, which fix every projected bank column: at
    # the default source (attn_proj of a dim-64 block, 64 x 65 inputs) under
    # the kl objective's seed, and at a dim-16 block under seed 3
    RECORDED = {
        ("binary", 64, 4160, 1648752077): "49912bf480ca83b122cdd81b8dca86299d23d01d6a7d97df68c986cce7e89eb3",
        ("binary", 16, 272, 3): "a38d403145602f60a53cd3f38f08148a91e130e8c827f8f1366c5b0bc8e54d47",
        ("gaussian", 64, 4160, 1648752077): "38714ef4b5491b7fb9cefed0a4e08f132e4312d5422936f103a4e1fe1c3502be",
        ("gaussian", 16, 272, 3): "114794b89fbed434ea9fbbe9cd9f53323e660d3a9bdc9281cbf1dda2063ff051",
        ("sparse", 64, 4160, 1648752077): "6f7bb51112f19a26216afeccf3e7f16e35cdf679905e7aaff7d83f90a97020d0",
        ("sparse", 16, 272, 3): "8a6b5c6d37fa8fae03f08a0e9817df47510ac20a0bcef8691ce2cce2c8b05d65",
    }

    @pytest.mark.parametrize("kind, out_dim, in_dim, seed", sorted(RECORDED))
    def test_matrix_matches_recorded_bytes(self, kind, out_dim, in_dim, seed):
        m = feat.projection_matrix(kind, out_dim, in_dim, seed)
        assert m.dtype == np.float64 and m.shape == (out_dim, in_dim)
        assert hashlib.sha256(m.tobytes()).hexdigest() == self.RECORDED[kind, out_dim, in_dim, seed]

    @pytest.mark.parametrize("kind", PROJECTION_KINDS)
    def test_matrix_is_read_only(self, kind):
        m = feat.projection_matrix(kind, 4, 9, seed=2)
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            m += 1.0


class TestFuse:
    def test_unit_segment_norm(self):
        rng = np.random.default_rng(8)
        out = feat.fuse(rng.normal(size=(5, 8)), [rng.normal(size=(5, 8)) for _ in range(3)])
        assert out.shape == (5, 32)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 2.0, atol=1e-12)  # sqrt(4 segments)

    def test_embedding_only(self):
        v = np.array([[3.0, 4.0], [0.0, -2.0]])
        np.testing.assert_allclose(feat.fuse(v, []), [[0.6, 0.8], [0.0, -1.0]])

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        emb, g1, g2 = rng.normal(size=(4, 6)), rng.normal(size=(4, 6)), rng.normal(size=(4, 6))
        a = feat.fuse(emb, [g1, g2])
        b = feat.fuse(emb * [[10.0], [1e-3], [1.0], [7.0]], [g1 * 0.01, g2 * 1000.0])
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_embedding_last(self):
        emb = np.array([[1.0, 0.0], [0.0, 3.0]])
        g = np.array([[0.0, 2.0], [-1.0, 0.0]])
        np.testing.assert_allclose(feat.fuse(emb, [g]), [[0.0, 1.0, 1.0, 0.0], [-1.0, 0.0, 0.0, 1.0]])

    def test_zero_segment_rejected(self):
        emb = np.ones((3, 4))
        emb[1] = 0.0
        with pytest.raises(ValueError, match="segment row 1 has a zero"):
            feat.fuse(emb, [np.ones((3, 4))])


class TestPca:
    def test_rank_k_reconstruction(self):
        rng = np.random.default_rng(10)
        k, dim, n = 5, 40, 200
        basis = np.linalg.qr(rng.normal(size=(dim, k)))[0].T
        data = rng.normal(size=(n, k)) @ basis + rng.normal(size=dim)
        model = feat.fit_pca(data, k)
        recon = feat.apply_pca(model, data) @ model.components + model.mean
        assert np.abs(recon - data).max() < 1e-6

    def test_mean_maps_to_zero(self):
        rng = np.random.default_rng(11)
        data = rng.normal(size=(50, 8))
        model = feat.fit_pca(data, 4)
        np.testing.assert_allclose(feat.apply_pca(model, data.mean(axis=0)), np.zeros(4), atol=1e-10)

    def test_explained_variance_non_increasing(self):
        rng = np.random.default_rng(12)
        model = feat.fit_pca(rng.normal(size=(100, 20)) * np.arange(1, 21), 20)
        assert np.all(np.diff(model.explained_variance) <= 1e-12)

    def test_orthonormal_components(self):
        rng = np.random.default_rng(13)
        model = feat.fit_pca(rng.normal(size=(60, 15)), 10)
        gram = model.components @ model.components.T
        assert np.abs(gram - np.eye(10)).max() < 1e-10

    def test_full_dim_preserves_distances(self):
        rng = np.random.default_rng(15)
        data = rng.normal(size=(30, 12))
        model = feat.fit_pca(data, 12)
        out = feat.apply_pca(model, data)
        for i in range(0, 30, 7):
            for j in range(i + 1, 30, 5):
                assert abs(
                    np.linalg.norm(out[i] - out[j]) - np.linalg.norm(data[i] - data[j])
                ) < 1e-8

    def test_save_load(self, tmp_path):
        rng = np.random.default_rng(16)
        model = feat.fit_pca(rng.normal(size=(40, 10)), 6)
        path = tmp_path / "pca.fngi"
        model.save(path)
        back = store.read_sections(path, ())
        assert list(back) == ["pca_mean", "pca_components", "pca_explained_variance"]
        np.testing.assert_array_equal(back["pca_mean"], model.mean)
        np.testing.assert_array_equal(back["pca_components"], model.components)
        np.testing.assert_array_equal(back["pca_explained_variance"], model.explained_variance)


def separated_spectrum(n, dim, rank, seed):
    """(n, dim) rows whose centred scatter has `rank` nonzero eigenvalues,
    spaced evenly in singular value so that each per-row variance falls
    from 9 to 1: every gap is far above rounding, so each component is
    fixed up to its sign."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, rank))
    u = np.linalg.qr(z - z.mean(axis=0))[0]  # orthonormal columns orthogonal to the ones vector
    v = np.linalg.qr(rng.normal(size=(dim, rank)))[0]
    s = np.linspace(3.0, 1.0, rank) * np.sqrt(n - 1)
    return (u * s) @ v.T + rng.normal(size=dim)


def largest_entry_positive(components):
    """Each row flipped so that its largest-magnitude entry, the first
    among equals, is positive."""
    peaks = components[np.arange(len(components)), np.argmax(np.abs(components), axis=1)]
    return components * np.where(peaks < 0, -1.0, 1.0)[:, None]


class TestPcaAgainstSvd:
    # rows above the width, and the 18 x 48 train bank of the CLI tests,
    # whose 18 centred rows span 17 dimensions
    SHAPES = [(200, 40, 40), (18, 48, 17)]

    @pytest.mark.parametrize("n, dim, out_dim", SHAPES)
    def test_matches_the_svd_fit(self, n, dim, out_dim):
        data = separated_spectrum(n, dim, out_dim, seed=n + dim)
        model = feat.fit_pca(data, out_dim)
        want = pca_reference(data, out_dim)
        assert model.components.shape == (out_dim, dim)
        assert np.abs(model.components - largest_entry_positive(want.components)).max() < 1e-10
        np.testing.assert_allclose(model.explained_variance, want.explained_variance, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(model.mean, want.mean)

    @pytest.mark.parametrize("n, dim, out_dim", SHAPES)
    def test_largest_entry_of_each_component_is_positive(self, n, dim, out_dim):
        components = feat.fit_pca(separated_spectrum(n, dim, out_dim, seed=n + dim), out_dim).components
        assert np.all(components[np.arange(out_dim), np.argmax(np.abs(components), axis=1)] > 0)

    @pytest.mark.parametrize("n, dim, out_dim", SHAPES)
    def test_two_fits_are_byte_identical_and_leave_the_input_unwritten(self, n, dim, out_dim):
        data = separated_spectrum(n, dim, out_dim, seed=n + dim)
        before = data.copy()
        data.flags.writeable = False
        a, b = feat.fit_pca(data, out_dim), feat.fit_pca(data, out_dim)
        for name in ("mean", "components", "explained_variance"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
        np.testing.assert_array_equal(data, before)

def random_bank():
    """A 10-row bank of seeded normal rows: kl and simclr segments of width 6."""
    rng = np.random.default_rng(17)
    n, d = 10, 6
    config = RunConfig()
    config.gradients.objectives = ("kl", "simclr")
    return feat.FeatureBank(
        labels=rng.integers(0, 3, size=n),
        fused=rng.normal(size=(n, 3 * d)).astype(np.float32),
        embedding=rng.normal(size=(n, d)).astype(np.float32),
        gradients={"kl": rng.normal(size=(n, d)).astype(np.float32),
                   "simclr": rng.normal(size=(n, d)).astype(np.float32)},
        config=config.validate(),
    )


class TestFeatureBank:
    def test_round_trip(self, tmp_path):
        bank = random_bank()
        path = tmp_path / "bank.fngi"
        bank.save(path)
        back = feat.FeatureBank.load(path)
        np.testing.assert_array_equal(back.labels, bank.labels)
        np.testing.assert_array_equal(back.fused, bank.fused)
        np.testing.assert_array_equal(back.embedding, bank.embedding)
        assert list(back.gradients) == ["kl", "simclr"]
        for name in ("kl", "simclr"):
            np.testing.assert_array_equal(back.gradients[name], bank.gradients[name])
        assert back.config == bank.config

    def test_saved_bank_holds_rows_and_config_echo_alone(self, tmp_path):
        bank = random_bank()
        path = tmp_path / "bank.fngi"
        bank.save(path)
        sections = store.read_sections(path, ())
        assert list(sections) == ["labels", "fused", "embedding", "config_echo", "grad::kl", "grad::simclr"]
        assert store.decode_text(sections["config_echo"]) == bank.config.to_text()

    @pytest.mark.parametrize("missing", [("kl",), ("simclr",), ("kl", "simclr")])
    def test_missing_gradient_section_of_an_objective_is_a_store_error(self, tmp_path, missing):
        path = tmp_path / "bank.fngi"
        random_bank().save(path)
        sections = store.read_sections(path, ())
        for name in missing:
            del sections[f"grad::{name}"]
        store.write_sections(path, sections)
        names = ", ".join(f"'grad::{name}'" for name in missing)
        with pytest.raises(store.StoreError, match=f"bank.fngi: missing required section\\(s\\) {names}$"):
            feat.FeatureBank.load(path)

    def test_gradient_section_of_no_objective_is_ignored(self, tmp_path):
        path = tmp_path / "bank.fngi"
        random_bank().save(path)
        sections = store.read_sections(path, ())
        sections["grad::dino"] = sections["grad::kl"]
        store.write_sections(path, sections)
        assert list(feat.FeatureBank.load(path).gradients) == ["kl", "simclr"]

    @pytest.mark.parametrize("echo", [b"[eval]\nshots = 5\n", b"[gradients]\nobjectives = kl,kl\n", b"[eval]\xff\n"],
                             ids=["unknown key", "bad value", "not utf-8"])
    def test_bad_config_echo_is_a_config_error(self, tmp_path, echo):
        path = tmp_path / "bank.fngi"
        random_bank().save(path)
        sections = store.read_sections(path, ())
        sections["config_echo"] = np.frombuffer(echo, dtype=np.uint8)
        store.write_sections(path, sections)
        with pytest.raises(ConfigError, match="bank.fngi: config echo: "):
            feat.FeatureBank.load(path)

    def test_missing_embedding_is_a_store_error(self, tmp_path):
        path = tmp_path / "bank.fngi"
        random_bank().save(path)
        sections = store.read_sections(path, ())
        del sections["embedding"]
        store.write_sections(path, sections)
        with pytest.raises(store.StoreError, match="bank.fngi: missing required section\\(s\\) 'embedding'"):
            feat.FeatureBank.load(path)

    @pytest.mark.parametrize("section", ["labels", "fused", "embedding", "grad::simclr"])
    def test_section_with_another_row_count_is_a_store_error(self, tmp_path, section):
        path = tmp_path / "bank.fngi"
        random_bank().save(path)
        sections = store.read_sections(path, ())
        sections[section] = sections[section][:-1]
        store.write_sections(path, sections)
        with pytest.raises(store.StoreError, match="bank.fngi: feature bank arrays disagree on sample count"):
            feat.FeatureBank.load(path)

    @pytest.mark.parametrize("ndim", [0, 1, 3])
    def test_section_that_is_not_2d_is_refused(self, ndim):
        bank = random_bank()
        rows = np.zeros({0: (), 1: (len(bank),), 3: (len(bank), 2, 2)}[ndim])
        with pytest.raises(ValueError, match=f"^bank section 'embedding' is {ndim}-D, not a 2-D"):
            dataclasses.replace(bank, embedding=rows)

    def test_float_labels_are_refused(self):
        bank = random_bank()
        with pytest.raises(ValueError, match=r"^bank labels must be integers, got float64 \[1.7, 2.2, 0.0\]$"):
            dataclasses.replace(bank, labels=[1.7, 2.2] + [0] * (len(bank) - 2))

    def test_labels_outside_int32_are_refused(self):
        bank = random_bank()
        labels = np.zeros(len(bank), dtype=np.int64)
        labels[3] = 2**31 + 5
        with pytest.raises(ValueError, match="^bank label 2147483653 at row 3 is outside the int32 range$"):
            dataclasses.replace(bank, labels=labels)

    def test_float_labels_section_is_a_store_error(self, tmp_path):
        path = tmp_path / "bank.fngi"
        random_bank().save(path)
        sections = store.read_sections(path, ())
        sections["labels"] = sections["labels"].astype(np.float32)
        store.write_sections(path, sections)
        with pytest.raises(store.StoreError, match="bank.fngi: bank labels must be integers, got float32"):
            feat.FeatureBank.load(path)

    def test_integer_labels_of_any_width_become_int32(self):
        bank = random_bank()
        for dtype in (np.int64, np.uint8, np.int16):
            labels = np.arange(len(bank), dtype=dtype)
            got = dataclasses.replace(bank, labels=labels).labels
            assert got.dtype == np.int32
            np.testing.assert_array_equal(got, labels)


class TestBankRows:
    def test_kinds(self):
        bank = random_bank()
        fused = bank.rows("fused", "train")
        assert fused.dtype == np.float32 and fused.tobytes() == bank.fused.tobytes()
        with pytest.raises(ValueError, match="read-only"):  # the stored rows, lent out
            fused[0, 0] = 1.0
        for kind, rows in (("embedding", bank.embedding), ("kl", bank.gradients["kl"])):
            got = bank.rows(kind, "train")
            np.testing.assert_allclose(np.linalg.norm(got, axis=1), 1.0, atol=1e-12)
            np.testing.assert_allclose(got * np.linalg.norm(rows, axis=1, keepdims=True), rows, rtol=1e-6)
        with pytest.raises(KeyError):  # a kind that is not an objective of the bank
            bank.rows("nope", "train")

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_fused_row_rejected(self, value):
        bank = random_bank()
        bank.fused[4, 3] = value
        with pytest.raises(ValueError, match="^train row 4 is not finite$"):
            bank.rows("fused", "train")

    def test_fused_rows_are_not_rescaled(self):
        bank = random_bank()
        bank.fused[1] = 0.0
        bank.fused[2] *= 3.0
        fused = bank.rows("fused", "train")
        assert fused.dtype == np.float32 and fused.tobytes() == bank.fused.tobytes()

    @pytest.mark.parametrize("kind", ["embedding", "kl"])
    def test_zero_segment_row_rejected(self, kind):
        bank = random_bank()
        (bank.embedding if kind == "embedding" else bank.gradients[kind])[5] = 0.0
        with pytest.raises(ValueError, match="^index row 5 has a zero or non-finite norm"):
            bank.rows(kind, "index")


class TestSeedDerivation:
    def test_stable_and_distinct(self):
        a = feat.derive_seed(7, "kl")
        assert a == feat.derive_seed(7, "kl")
        assert a != feat.derive_seed(7, "dino")
        assert a != feat.derive_seed(8, "kl")
