import hashlib

import numpy as np
import pytest

from fungi import autodiff as ad
from fungi import backbone as bb
from fungi import cli
from fungi import features as feat
from fungi import objectives as obj
from fungi import pipeline
from fungi import store
from fungi import synth
from fungi.config import RunConfig

from .oracles import collapsed_banks, image_embedding, largest_entry_error, per_view_embed, view_states
from .test_unused_code import DESK_CONFIG


def tiny_config(objectives=("kl", "dino", "simclr")):
    cfg = RunConfig()
    cfg.encoder.image_size = 32
    cfg.encoder.dim = 16
    cfg.encoder.heads = 2
    cfg.encoder.mlp_ratio = 2.0
    cfg.encoder.seed = 7
    cfg.gradients.objectives = tuple(objectives)
    cfg.kl.proj_dim = 32
    cfg.dino.proj_dim = 48
    cfg.dino.local_crops = 4
    cfg.simclr.proj_dim = 24
    cfg.simclr.positive_views = 9
    cfg.simclr.view_patch = 16
    cfg.simclr.negative_images = 6
    cfg.pca.out_dim = 16
    return cfg.validate()


def views_of(name, cfg, image, seed):
    """A sample's views under an objective, as extraction builds them."""
    return [image] if name == "kl" else pipeline.sample_views(name, cfg, image, seed)


@pytest.fixture(scope="module")
def small_banks():
    cfg = tiny_config()
    images, labels = synth.make_classification("blobs", 24, 3, 32, seed=3)
    train_bank, test_bank = pipeline.extract_splits(
        cfg, images[:18], labels[:18], images[18:], labels[18:], jobs=1
    )
    return cfg, train_bank, test_bank


class TestExtraction:
    def test_bank_layout(self, small_banks):
        cfg, train_bank, test_bank = small_banks
        assert len(train_bank) == 18 and len(test_bank) == 6
        assert train_bank.embedding.shape == (18, 16)
        assert list(train_bank.gradients) == ["kl", "dino", "simclr"]  # the config's order
        # fused pre-PCA length = (1 + #objectives) * d
        assert train_bank.fused.shape[1] == 4 * 16
        assert train_bank.config.config_hash() == cfg.config_hash()

    def test_fused_segments_are_unit_norm(self, small_banks):
        _, train_bank, _ = small_banks
        row = train_bank.fused[0]
        for s in range(4):
            seg = row[s * 16 : (s + 1) * 16]
            assert abs(np.linalg.norm(seg) - 1.0) < 1e-5

    def test_single_objective_segment_count(self):
        cfg = tiny_config(objectives=("kl",))
        images, labels = synth.make_classification("blobs", 8, 2, 32, seed=4)
        train, _ = pipeline.extract_splits(cfg, images[:6], labels[:6], images[6:], labels[6:], jobs=1)
        assert train.fused.shape[1] == 2 * 16  # embedding + 1 gradient

    def test_determinism_across_runs_and_jobs(self):
        cfg = tiny_config(objectives=("kl", "simclr"))
        images, labels = synth.make_classification("stripes", 10, 2, 32, seed=5)
        a, _ = pipeline.extract_splits(cfg, images[:8], labels[:8], images[8:], labels[8:], jobs=1)
        b, _ = pipeline.extract_splits(cfg, images[:8], labels[:8], images[8:], labels[8:], jobs=3)
        np.testing.assert_array_equal(a.fused, b.fused)
        np.testing.assert_array_equal(a.gradients["simclr"], b.gradients["simclr"])

    def test_simclr_requires_negative_bank(self):
        cfg = tiny_config(objectives=("simclr",))
        params = pipeline.build_encoder(cfg)
        heads = pipeline.build_heads(cfg)
        projections = pipeline.build_projections(cfg)
        images, labels = synth.make_classification("blobs", 4, 2, 32, seed=6)
        with pytest.raises(ValueError):
            pipeline.extract_bank(cfg, params, heads, projections, images, labels, "train", neg_bank=None,
                                  view_states={}, jobs=1)


@pytest.fixture
def primitive_dtypes(monkeypatch):
    """Set of dtypes of every array a primitive sees: its inputs, its output
    and the cotangents its backward returns (before the tape casts them)."""
    seen = set()
    apply = ad._apply

    def recording_apply(op, inputs, value, backward_fn):
        seen.add(value.dtype)
        seen.update(t.dtype for t in inputs)

        def backward(g):
            grads = backward_fn(g)
            seen.update(np.asarray(x).dtype for x in grads if x is not None)
            return grads

        return apply(op, inputs, value, backward)

    monkeypatch.setattr(ad, "_apply", recording_apply)
    return seen


class TestPrecision:
    @pytest.mark.parametrize("precision, dtype", [("f32", np.float32), ("f64", np.float64)])
    def test_every_tape_value_has_the_parameter_dtype(self, precision, dtype, primitive_dtypes):
        cfg = tiny_config()
        cfg.gradients.precision = precision
        params = pipeline.build_encoder(cfg)
        heads = pipeline.build_heads(cfg)
        images, _ = synth.make_classification("blobs", 4, 2, 32, seed=6)
        neg_bank, _ = pipeline.build_negative_bank(params, heads["simclr"], images, cfg, jobs=1)
        assert neg_bank.rows.dtype == dtype
        for name in ("kl", "dino", "simclr"):
            states = view_states(params, cfg.gradients, views_of(name, cfg, images[0], 5))
            dw, db = bb.loss_gradient(params, cfg.gradients, states, pipeline.make_objective(name, cfg, heads, neg_bank))
            assert dw.dtype == dtype and db.dtype == dtype, name
        tokens = bb.encode(params, images[1])
        support = obj.SupportIndex(heads["simclr"].apply(tokens[1:]).data)
        seg = cfg.segmentation
        grads = obj.simclr_patch_loss(
            tokens, heads["simclr"], support, tau=seg.simclr_temperature, seed=0,
            retrieved_per_patch=seg.retrieved_negatives_per_patch, kept_per_patch=seg.loss_negatives_per_patch,
        )
        assert grads.dtype == dtype
        assert primitive_dtypes == {np.dtype(dtype)}

    def test_default_config_embeds_in_float32(self):
        cfg = RunConfig()
        image = np.random.default_rng(0).random((3, cfg.encoder.image_size, cfg.encoder.image_size))
        params = pipeline.build_encoder(cfg)
        assert bb.encode(params, image).dtype == np.float32
        assert image_embedding(params, image).dtype == np.float32


class TestHarvestTape:
    def test_tape_rows_at_most_views_at_default_source(self, monkeypatch):
        # at the last block's attn_proj under CLS pooling, every recorded
        # value is per view: no token rows reach the tape
        cfg = tiny_config()
        cfg.encoder.image_size = 64
        cfg.validate()
        assert (cfg.gradients.block_index, cfg.gradients.layer_kind) == (-1, "attn_proj")
        assert cfg.encoder.pooling == "cls"
        params = pipeline.build_encoder(cfg)
        heads = pipeline.build_heads(cfg)
        images, _ = synth.make_classification("blobs", 2, 2, 64, seed=6)
        neg_bank, _ = pipeline.build_negative_bank(params, heads["simclr"], images, cfg, jobs=1)
        rows = []
        record = ad.GradTape._record

        def recording(tape, inputs, output, backward_fn):
            rows.append(int(np.prod(output.shape[:-1])))
            return record(tape, inputs, output, backward_fn)

        monkeypatch.setattr(ad.GradTape, "_record", recording)
        for name in ("kl", "dino", "simclr"):
            states = view_states(params, cfg.gradients, views_of(name, cfg, images[0], 5))
            rows.clear()
            bb.loss_gradient(params, cfg.gradients, states, pipeline.make_objective(name, cfg, heads, neg_bank))
            assert rows and max(rows) <= len(states) < cfg.encoder.num_patches, name


class TestHeadsAndProjections:
    def test_head_dims_follow_config(self):
        cfg = tiny_config()
        heads = pipeline.build_heads(cfg)
        assert heads["kl"].weight.shape[0] == 32
        student, teacher = heads["dino"]
        assert student.weight.shape[0] == teacher.weight.shape[0] == 48
        assert not np.array_equal(student.weight.data, teacher.weight.data)
        assert heads["simclr"].normalize_input is False
        assert heads["kl"].normalize_input is True

    def test_projection_input_matches_source_layer(self):
        cfg = tiny_config()
        projections = pipeline.build_projections(cfg)
        # attn_proj of a dim-16 block: dW 16x16, db 16 -> 16*17
        assert all(p.shape == (16, 16 * 17) for p in projections.values())
        assert all(not p.flags.writeable for p in projections.values())
        assert len({p.tobytes() for p in projections.values()}) == 3  # independent per objective

    def test_negative_bank_size(self):
        cfg = tiny_config(objectives=("simclr",))
        params = pipeline.build_encoder(cfg)
        heads = pipeline.build_heads(cfg)
        images, _ = synth.make_classification("blobs", 8, 2, 32, seed=8)
        bank, _ = pipeline.build_negative_bank(params, heads["simclr"], images, cfg, jobs=1)
        assert len(bank) == cfg.simclr.negative_images * cfg.simclr.positive_views
        np.testing.assert_allclose(np.linalg.norm(bank.rows, axis=1), 1.0, atol=1e-6)


class TestSharedViewStates:
    """The negative bank runs each distinct drawn image's views up to the
    source layer once, and the drawn train samples' SimCLR objectives resume
    from those states."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_duplicate_draws(self, jobs):
        cfg = tiny_config(objectives=("simclr",))
        cfg.simclr.negative_images = 8
        params, heads = pipeline.build_encoder(cfg), pipeline.build_heads(cfg)
        images, _ = synth.make_classification("blobs", 3, 3, 32, seed=19)
        bank, states = pipeline.build_negative_bank(params, heads["simclr"], images, cfg, jobs=jobs)
        rng = np.random.default_rng(feat.derive_seed(cfg.encoder.seed, "negative-bank"))
        picked = rng.choice(len(images), size=8, replace=True).tolist()
        assert len(set(picked)) < len(picked)
        source = cfg.gradients
        drawn = [view_states(params, source, pipeline.sample_views("simclr", cfg, images[idx], 0)) for idx in picked]
        # every draw's views, embedded as one view set: the bank's bytes
        rows = np.concatenate([heads["simclr"].apply(bb.embed(params, source, views)).data for views in drawn])
        np.testing.assert_array_equal(bank.rows, obj.SupportIndex(rows).rows)
        # and one view at a time, which moves float32 rows by rounding alone:
        # within 1e-5 of the largest entry, where the largest move seen is 2e-7
        rows = np.concatenate([heads["simclr"].apply(per_view_embed(params, source, views)).data for views in drawn])
        assert largest_entry_error(bank.rows, obj.SupportIndex(rows).rows) <= 1e-5
        assert sorted(states) == sorted(set(picked))
        # a drawn sample's gradient from the kept states equals the one from
        # states built afresh
        loss_fn = pipeline.make_objective("simclr", cfg, heads, bank)
        for idx, kept in states.items():
            fresh = view_states(params, source, pipeline.sample_views("simclr", cfg, images[idx], 0))
            assert len(kept) == len(fresh) == cfg.simclr.positive_views
            got, want = bb.loss_gradient(params, source, kept, loss_fn), bb.loss_gradient(params, source, fresh, loss_fn)
            for g, w in zip(got, want, strict=True):
                np.testing.assert_array_equal(g, w)

    def test_prefix_count(self, monkeypatch):
        cfg = tiny_config()
        cfg.simclr.negative_images = 4  # 4 of the 6 train images, drawn without replacement
        images, labels = synth.make_classification("blobs", 9, 3, 32, seed=20)
        params, heads, projections = (pipeline.build_encoder(cfg), pipeline.build_heads(cfg),
                                      pipeline.build_projections(cfg))
        calls = []
        tap_state = bb.tap_state

        def counting(params, source, image):
            calls.append(image)
            return tap_state(params, source, image)

        monkeypatch.setattr(bb, "tap_state", counting)
        views, crops = cfg.simclr.positive_views, cfg.dino.global_crops + cfg.dino.local_crops
        neg_bank, states = pipeline.build_negative_bank(params, heads["simclr"], images[:6], cfg, jobs=1)
        assert len(states) == 4 and len(calls) == 4 * views
        calls.clear()
        pipeline.extract_bank(cfg, params, heads, projections, images[:6], labels[:6], "train",
                              neg_bank=neg_bank, view_states=states, jobs=1)
        # every sample runs its image and its dino crops; only the 2 undrawn
        # samples run their SimCLR views
        assert len(calls) == 6 * (1 + crops) + 2 * views
        calls.clear()
        pipeline.extract_bank(cfg, params, heads, projections, images[6:], labels[6:], "test",
                              neg_bank=neg_bank, view_states={}, jobs=1)
        assert len(calls) == 3 * (1 + crops + views)

    # SHA-256 of the arrays of the banks that `extract` wrote on the desk
    # config, over the bytes of labels, fused, embedding and each grad::
    # section in name order; keyed by (negative_images, [gradients]
    # layer_kind, block_index). Recorded once a view set resumed as rows of
    # one tensor, which moved the dino and simclr gradients and the fused
    # rows by rounding, up to 6.2e-7 of a section's largest entry; the
    # embedding and kl sections, resumed from one state, kept their bytes. A
    # numpy or BLAS build that rounds differently writes other bytes.
    RECORDED = {
        (2, "attn_proj", -1): ("c55a7c923dbf35adcfac263c161d830000fca22d2502c73db3f1162d4d969417",
                               "6e5e7ab5c6f3e1f91f2865920fb7f9e243c42b99087ca6a4840f5a527c26ab67"),
        (20, "attn_proj", -1): ("2222ca8fe57ef7433cf7b43a1b36c7ede7dec68da722d6985ced21ed79c94681",
                                "f378fb1ee0e09e386fbfafcd8c3ec3925ceb61b32c8f1e7118c15689f0799fa2"),
        (20, "qkv", 0): ("63bed88676dd3b93cb96d0a27a889fb3542bd875ffba5964edf7ecfeea3ab33d",
                         "1bdb2a148a0a42203174e4e2b0a66b85636cadfab0f90fc68ce684c6586e3641"),
        (20, "qkv", -1): ("f212e657bd60dd777ca235e816fa84f78c1330dbafabc4ca6a8c4a6a2fde1fe0",
                          "6274f44cc6c1a105991108119631784f6c0c8b542db1237b3dc52a04e4521391"),
        (20, "mlp_fc1", 0): ("0c35db64fb3d5c9f937344b9162133633d0f1259cbc50e5d999136bfa462ef01",
                             "efe0d8362711ceac407954dd6735ebd0b880af73b96b52ce0b430c023adfe277"),
        (20, "mlp_fc1", -1): ("60f4627ca1511e051e91c82eecd7c5b794ec60d3e6e580c6659e3ae24d293615",
                              "91dfb6b8ac32d9b136e7b84f651df3756eefd6bdd1d883cf4053da01825f1ebd"),
    }

    @staticmethod
    def array_digest(path):
        sections = store.read_sections(path, ())
        digest = hashlib.sha256()
        for name in ["labels", "fused", "embedding", *sorted(n for n in sections if n.startswith("grad::"))]:
            digest.update(sections[name].tobytes())
        return digest.hexdigest()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("negative_images, kind, block", sorted(RECORDED),
                             ids=[f"{n}" if k == "attn_proj" else f"{n}-{k}@{b}" for n, k, b in sorted(RECORDED)])
    def test_desk_banks_match_recorded_bytes(self, tmp_path, negative_images, kind, block, jobs):
        data, config, out = tmp_path / "blobs", tmp_path / "run.cfg", tmp_path / "banks"
        config.write_text(DESK_CONFIG.replace("negative_images = 2", f"negative_images = {negative_images}")
                          + f"\n[gradients]\nlayer_kind = {kind}\nblock_index = {block}\n")
        assert cli.main(["synth", "--kind", "blobs", "--n", "12", "--classes", "2", "--image-size", "32",
                         "--seed", "1", "--out", str(data)]) == 0
        assert cli.main(["extract", "--config", str(config), "--data", str(data), "--out", str(out),
                         "--jobs", jobs]) == 0
        digests = tuple(self.array_digest(out / f"bank_{s}.fngi") for s in ("train", "test"))
        assert digests == self.RECORDED[negative_images, kind, block]


class TestExtractedFeatures:
    def test_embedding_knn_separates_easy_classes(self, small_banks):
        _, train_bank, test_bank = small_banks
        tr = train_bank.rows("embedding", "index")
        te = test_bank.rows("embedding", "query")
        import fungi.evalkit as ek
        from .test_evalkit import brute_force_knn

        index = ek.KnnIndex(tr, train_bank.labels, k=5)
        preds = ek.knn_classify(index, te)
        oracle = [brute_force_knn(tr, train_bank.labels, q, 5) for q in te]
        assert np.array_equal(preds, oracle)
        assert ek.accuracy(preds, test_bank.labels) > 0.9

    def test_projection_kinds_agree_on_accuracy(self):
        # compare per-kind MEANS over projection seeds: a single draw at
        # desk-scale output widths is dominated by seed variance
        import fungi.evalkit as ek

        images, labels = synth.make_classification("blobs", 320, 3, 32, seed=13)
        means = {}
        for kind in ("binary", "gaussian", "sparse"):
            accs = []
            for proj_seed in (0, 1, 2):
                cfg = RunConfig()
                cfg.encoder.image_size = 32
                cfg.encoder.dim = 64
                cfg.encoder.heads = 4
                cfg.encoder.mlp_ratio = 2.0
                cfg.encoder.seed = 7
                cfg.gradients.objectives = ("kl",)
                cfg.kl.proj_dim = 32
                cfg.projection.kind = kind
                cfg.projection.seed = proj_seed
                cfg.validate()
                tr, te = pipeline.extract_splits(
                    cfg, images[:120], labels[:120], images[120:], labels[120:], jobs=1
                )
                index = ek.KnnIndex(tr.rows("fused", "index"), tr.labels, k=20)
                preds = ek.knn_classify(index, te.rows("fused", "query"))
                accs.append(ek.accuracy(preds, te.labels))
            means[kind] = np.mean(accs)
        spread = max(means.values()) - min(means.values())
        assert spread <= 0.015, f"projection kinds disagree: {means}"

    def test_layer_sweep_covers_every_source(self):
        # all blocks and layer kinds yield usable, input-sensitive gradients
        images, labels = synth.make_classification("blobs", 12, 2, 32, seed=14)
        for block in (0, 1):
            for kind in ("attn_proj", "mlp_fc1", "mlp_fc2", "qkv"):
                cfg = tiny_config(objectives=("kl",))
                cfg.gradients.block_index = block
                cfg.gradients.layer_kind = kind
                cfg.validate()
                tr, _ = pipeline.extract_splits(cfg, images[:8], labels[:8], images[8:], labels[8:], jobs=1)
                grads = tr.gradients["kl"]
                assert np.isfinite(grads).all()
                assert np.abs(grads - grads[0]).max() > 1e-8

    def test_collapsed_encoder_constant_embeddings(self):
        cfg = tiny_config(objectives=("kl",))
        cfg.gradients.layer_kind = "qkv"
        images, labels = synth.make_classification("blobs", 8, 2, 32, seed=10)
        train, _ = collapsed_banks(cfg, images[:6], labels[:6], images[6:], labels[6:])
        emb = train.embedding
        assert np.abs(emb - emb[0]).max() < 1e-5
        grads = train.gradients["kl"]
        assert np.abs(grads - grads[0]).max() > 1e-6  # gradients still vary
