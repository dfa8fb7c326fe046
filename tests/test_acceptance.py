"""Acceptance suite: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Each test prints `ACCEPTANCE <n> PASS <summary>` after its
assertions succeed; a failing criterion shows up as a failing test.
"""

import pathlib
import sys
import time

import numpy as np
import pytest

from fungi import autodiff as ad
from fungi import backbone as bb
from fungi import cli
from fungi import evalkit as ek
from fungi import features as feat
from fungi import objectives as obj
from fungi import pipeline
from fungi import segmem as sm
from fungi import synth
from fungi.config import PROJECTION_KINDS, RunConfig

from .oracles import (
    assignment_cost,
    collapsed_banks,
    entry_variance,
    finite_diff_gradient,
    head_rows,
    image_embedding,
    max_relative_error,
    reference_encoder,
    reference_extractor,
    reference_ivf,
    reference_seg,
    replace_source_layer,
    source_layer,
    view_states,
)

GOLDEN = pathlib.Path(__file__).parent / "golden" / "default_config.txt"
FEW_SHOT_PRESET = pathlib.Path(__file__).parents[1] / "configs" / "segment_few_shot.cfg"


def report(number, message):
    print(f"ACCEPTANCE {number:2d} PASS {message}", file=sys.stderr)


def desk_config(**overrides):
    """Desk-scale encoder: depth 2, dim 64, small input for speed."""
    cfg = RunConfig()
    cfg.encoder.image_size = 32
    cfg.encoder.dim = 64
    cfg.encoder.heads = 4
    cfg.encoder.mlp_ratio = 2.0
    cfg.encoder.seed = 5
    cfg.gradients.precision = "f64"
    cfg.kl.proj_dim = 16
    cfg.dino.proj_dim = 16
    cfg.dino.local_crops = 1
    cfg.simclr.proj_dim = 16
    cfg.simclr.positive_views = 4
    cfg.simclr.view_patch = 16
    cfg.simclr.negative_images = 2
    for key, value in overrides.items():
        section, name = key.split(".")
        setattr(getattr(cfg, section), name, value)
    return cfg.validate()


class TestCriterion01GradientCorrectness:
    def test_all_objectives_match_finite_differences(self):
        start = time.monotonic()
        cfg = desk_config()
        params = pipeline.build_encoder(cfg)
        heads = pipeline.build_heads(cfg)
        images, _ = synth.make_classification("blobs", 4, 2, 32, seed=1)
        image = images[0].astype(np.float64)
        neg_bank, _ = pipeline.build_negative_bank(params, heads["simclr"], images, cfg, jobs=1)
        source = cfg.gradients
        w0, b0 = source_layer(params, source)
        n_w = w0.size
        flat0 = np.concatenate([w0.data.ravel(), b0.data.ravel()])

        # the KL check uses an amplified head so the objective at its real
        # temperature sits away from its stationary point; near-uniform
        # logits give gradients at the oracle's noise floor
        rng = np.random.default_rng(9)
        kl_head = bb.Head(
            weight=ad.Tensor(rng.normal(0, 10 / np.sqrt(64), size=(16, 64))),
            bias=ad.Tensor(np.zeros(16)),
            normalize_input=True,
        )
        objectives = {
            "kl": ([image], lambda z: obj.kl_loss(kl_head.apply(z), tau=cfg.kl.temperature)),
            "dino": (pipeline.sample_views("dino", cfg, image, 3),
                     pipeline.make_objective("dino", cfg, heads, neg_bank)),
            "simclr": (pipeline.sample_views("simclr", cfg, image, 3),
                       pipeline.make_objective("simclr", cfg, heads, neg_bank)),
        }

        # the oracle evaluates the loss from the CLS row of encode() (the
        # pooled embedding under CLS pooling) of every view under a
        # perturbed W; the DINO teacher stays at its unperturbed latents,
        # which the production loss reads from the forward's values
        student, teacher = heads["dino"]
        globals_ = objectives["dino"][0][: cfg.dino.global_crops]
        teacher_z = head_rows(teacher, np.stack([image_embedding(params, v) for v in globals_]))

        def oracle_loss(name, loss_fn, z):
            if name == "dino":
                return obj.dino_loss(student.apply(z), teacher_z, tau_s=cfg.dino.student_temperature,
                                     tau_t=cfg.dino.teacher_temperature)
            return loss_fn(z)

        worst = {}
        for name, (views, loss_fn) in objectives.items():
            dw, db = bb.loss_gradient(params, source, view_states(params, source, views), loss_fn)
            got = np.concatenate([dw.ravel(), db.ravel()])

            def f(flat, name=name, views=views, loss_fn=loss_fn):
                p2 = replace_source_layer(
                    params, source, flat[:n_w].reshape(w0.shape), flat[n_w:]
                )
                z = ad.as_tensor(np.stack([bb.encode(p2, v)[0] for v in views]))
                return oracle_loss(name, loss_fn, z).data.item()

            want = finite_diff_gradient(f, flat0, eps=1e-4)
            worst[name] = max_relative_error(got, want)
            assert worst[name] < 1e-5, f"{name}: rel error {worst[name]:.2e}"

        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"gradient checks took {elapsed:.0f}s"
        report(1, "gradients match central differences: "
                  + ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
                  + f" ({elapsed:.0f}s)")


class TestCriterion02KlStationarity:
    def test_uniform_logits(self):
        cfg = desk_config(**{"gradients.objectives": ("kl",)})
        params = pipeline.build_encoder(cfg)
        image = synth.make_classification("blobs", 2, 2, 32, seed=2)[0][0].astype(np.float64)
        head = bb.Head(
            weight=ad.Tensor(np.zeros((768, 64))),
            bias=ad.Tensor(np.zeros(768)),
            normalize_input=True,
        )

        def fn(z):
            return obj.kl_loss(head.apply(z), tau=cfg.kl.temperature)

        loss = fn(ad.as_tensor(image_embedding(params, image)[None])).data.item()
        dw, db = bb.loss_gradient(params, cfg.gradients, view_states(params, cfg.gradients, [image]), fn)
        assert abs(loss) < 1e-12
        assert np.linalg.norm(dw) < 1e-8 and np.linalg.norm(db) < 1e-8
        report(2, f"uniform logits: loss={loss:.1e}, grad norm={np.linalg.norm(dw):.1e}")


class TestCriterion03SimclrUniformSimilarity:
    def test_identical_latents_at_reference_size(self):
        dim = 96
        v = np.zeros(dim)
        v[0] = 1.0
        z = ad.as_tensor(np.tile(v, (49, 1)))
        bank = obj.SupportIndex(np.tile(v, (49 * 256, 1)))
        loss = obj.simclr_loss(z, bank, tau=0.07).data.item()
        want = np.log(49 * 257 - 1)
        assert abs(loss - want) < 1e-6
        report(3, f"uniform-similarity loss {loss:.6f} = log(49*257-1) ± {abs(loss - want):.1e}")


class TestCriterion04JohnsonLindenstrauss:
    def test_distance_preservation_all_kinds(self):
        rng = np.random.default_rng(4)
        n, in_dim, out_dim = 200, 10_000, 512
        data = rng.normal(size=(n, in_dim))
        iu = np.triu_indices(n, k=1)
        exact = np.sqrt(((data[iu[0]] - data[iu[1]]) ** 2).sum(axis=1))
        fractions = {}
        for kind in PROJECTION_KINDS:
            proj = feat.projection_matrix(kind, out_dim, in_dim, seed=44)
            scale = np.sqrt(out_dim * entry_variance(kind, in_dim))
            projected = data @ proj.T / scale
            approx = np.sqrt(((projected[iu[0]] - projected[iu[1]]) ** 2).sum(axis=1))
            ok = np.abs(approx - exact) <= 0.35 * exact
            fractions[kind] = ok.mean()
            assert fractions[kind] >= 0.99, f"{kind}: {fractions[kind]:.4f}"
        report(4, "pairwise distances preserved (rel 0.35): "
                  + ", ".join(f"{k}={v:.4f}" for k, v in fractions.items()))


class TestCriterion05PcaFidelity:
    def test_rank_k_reconstruction(self):
        rng = np.random.default_rng(5)
        k, dim, n = 6, 48, 300
        basis = np.linalg.qr(rng.normal(size=(dim, k)))[0].T
        data = rng.normal(size=(n, k)) @ basis + rng.normal(size=dim)
        model = feat.fit_pca(data, k)
        recon = feat.apply_pca(model, data) @ model.components + model.mean
        err = np.abs(recon - data).max()
        assert err < 1e-6

        # full-dimensional PCA is a rotation: kNN predictions identical
        train = rng.normal(size=(300, 24))
        train_y = rng.integers(0, 5, size=300)
        test = rng.normal(size=(100, 24))
        full = feat.fit_pca(train, 24)
        preds_raw = ek.knn_classify(ek.KnnIndex(train, train_y, k=20), test)
        preds_pca = ek.knn_classify(
            ek.KnnIndex(feat.apply_pca(full, train), train_y, k=20),
            feat.apply_pca(full, test),
        )
        assert np.array_equal(preds_raw, preds_pca)
        report(5, f"rank-k reconstruction err {err:.1e}; full-dim PCA leaves kNN unchanged")


class TestCriterion06KnnOracle:
    @pytest.mark.parametrize("k", [1, 20])
    def test_exact_match_with_bruteforce(self, k):
        rng = np.random.default_rng(6)
        train = rng.normal(size=(1000, 32))
        train_y = rng.integers(0, 7, size=1000)
        test = rng.normal(size=(200, 32))
        index = ek.KnnIndex(train, train_y, k=k)
        got = ek.knn_classify(index, test)

        from .test_evalkit import brute_force_knn

        want = np.array([brute_force_knn(train, train_y, q, k) for q in test])
        assert np.array_equal(got, want)
        if k == 20:
            report(6, "kNN predictions equal brute-force oracle (1000 train / 200 test, k=1,20)")


class TestCriterion07HungarianOptimality:
    def test_hundred_random_matrices(self):
        import itertools

        rng = np.random.default_rng(7)
        for _ in range(100):
            cost = rng.integers(0, 100, size=(7, 7)).astype(np.float64)
            total = assignment_cost(cost, ek.hungarian(cost))
            best = min(
                sum(cost[i, p[i]] for i in range(7))
                for p in itertools.permutations(range(7))
            )
            assert total == best
        report(7, "hungarian equals exhaustive search on 100 random 7x7 matrices")


class TestCriterion08CkaInvariances:
    def test_invariances(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(120, 16))
        self_sim = ek.linear_cka([x, x.copy()])[0, 1]
        assert abs(self_sim - 1.0) < 1e-10
        q = np.linalg.qr(rng.normal(size=(16, 16)))[0]
        rot, scal = ek.linear_cka([x, x @ q, -2.5 * x])[0, 1:]
        assert abs(rot - 1.0) < 1e-8
        assert abs(scal - 1.0) < 1e-8
        report(8, f"CKA self={self_sim:.12f}, orthogonal={rot:.10f}, scaled={scal:.10f}")


class TestCriterion09IvfSearch:
    def test_recall_and_exactness_at_scale(self):
        rng = np.random.default_rng(9)
        n, dim, centers = 50_000, 64, 800
        # bank-like data: unit rows concentrated around shared directions
        base = rng.normal(size=(centers, dim))
        base /= np.linalg.norm(base, axis=1, keepdims=True)
        idx = rng.integers(0, centers, size=n)
        data = base[idx] + (0.5 / np.sqrt(dim)) * rng.normal(size=(n, dim))
        data = (data / np.linalg.norm(data, axis=1, keepdims=True)).astype(np.float32)

        params = reference_ivf()
        index = sm.ivf_build(data, params, seed=0)

        queries = data[rng.choice(n, 100, replace=False)] + 0.02 * rng.normal(size=(100, dim)).astype(np.float32)
        queries /= np.linalg.norm(queries, axis=1, keepdims=True)
        recalls = []
        for q in queries:
            ids_a, _ = sm.ivf_search(index, q, 30)
            ids_e, _ = sm.exact_search(data, q, 30)
            recalls.append(len(set(ids_a) & set(ids_e)) / 30)
        recall = float(np.mean(recalls))
        assert recall >= 0.95, f"recall@30 = {recall:.4f}"

        # full leaf scan must reproduce the exact oracle bit for bit
        full = sm.IvfIndex(
            centroids=index.centroids,
            row_leaf=index.row_leaf,
            features=index.features,
            params=reference_ivf(leaves_to_search=512),
        )
        for q in queries[:20]:
            ids_a, sims_a = sm.ivf_search(full, q, 30)
            ids_e, sims_e = sm.exact_search(data, q, 30)
            assert np.array_equal(ids_a, ids_e)
            assert np.array_equal(sims_a, sims_e)
        report(9, f"IVF recall@30 = {recall:.4f} (>= 0.95); full scan bit-identical to exact")


class TestCriterion10SegmentationSelfConsistency:
    def test_self_bank_and_tie_split(self):
        rng = np.random.default_rng(10)
        images, masks = [], []
        for _ in range(3):
            img = rng.random((3, 64, 64)).astype(np.float32)
            mask = rng.integers(0, 3, size=(4, 4)).astype(np.uint8)
            masks.append(np.kron(mask, np.ones((16, 16), dtype=np.uint8)))
            images.append(img)
        cfg_enc = reference_encoder(image_size=64, depth=1, dim=8, heads=2, seed=3)
        extractor = reference_extractor(bb.init_encoder(cfg_enc, dtype=np.float32), head=None)
        seg_cfg = reference_seg(k=1)
        bank = sm.build_bank(images, masks, extractor, seg_cfg, seed=0)
        index = sm.ivf_build(bank.features, reference_ivf(), seed=0)  # flat: the exact scan
        preds = [sm.segment_image(extractor, bank, img, seg_cfg, index=index, seed=0) for img in images]
        mean, _ = sm.miou(np.stack(preds), np.stack(masks).astype(np.int64), num_classes=3)
        assert mean == 1.0

        v = np.array([1.0, 0.0], dtype=np.float32)
        w = np.array([0.0, 1.0], dtype=np.float32)
        two = sm.PatchMemoryBank(features=np.stack([v, w]), labels=np.array([0, 1]), num_classes=2)
        query = np.array([[np.sqrt(0.5), np.sqrt(0.5)]], dtype=np.float32)
        two_index = sm.ivf_build(two.features, reference_ivf(), seed=0)
        _, (dist,) = sm.predict_grid(two, query, reference_seg(k=2, temperature=0.1), index=two_index)
        assert abs(dist[0] - 0.5) < 1e-8 and abs(dist[1] - 0.5) < 1e-8
        report(10, f"self-bank mIoU = {mean:.1f}; equal-similarity distribution = 0.5/0.5")


class TestCriterion11FungiEffect:
    def test_collapsed_embedding_scenario(self):
        cfg = RunConfig()
        cfg.encoder.image_size = 32
        cfg.encoder.dim = 32
        cfg.encoder.heads = 4
        cfg.encoder.mlp_ratio = 2.0
        cfg.encoder.seed = 11
        cfg.gradients.objectives = ("kl",)
        cfg.gradients.layer_kind = "qkv"
        cfg.kl.proj_dim = 64
        cfg.validate()

        images, labels = synth.make_classification("blobs", 180, 4, 32, seed=21)
        train_bank, test_bank = collapsed_banks(cfg, images[:120], labels[:120], images[120:], labels[120:])
        accs = {}
        for kind in ("embedding", "fused"):
            tr = train_bank.rows(kind, "train")
            te = test_bank.rows(kind, "test")
            preds = ek.knn_classify(ek.KnnIndex(tr, train_bank.labels, k=20), te)
            accs[kind] = ek.accuracy(preds, test_bank.labels)
        chance = 1.0 / 4
        assert abs(accs["embedding"] - chance) < 0.10, "embedding should be near chance"
        assert accs["fused"] >= accs["embedding"] + 0.20
        self._collapsed = accs
        report(11, f"collapsed: embedding={accs['embedding']:.3f} (chance {chance}), "
                   f"fused={accs['fused']:.3f} (gain {accs['fused'] - accs['embedding']:+.3f})")

    def test_standard_benchmark_no_degradation(self):
        cfg = desk_config(**{
            "gradients.precision": "f32",
            "encoder.dim": 32,
            "kl.proj_dim": 64,
            "dino.proj_dim": 64,
            "simclr.proj_dim": 32,
            "simclr.positive_views": 9,
            "simclr.negative_images": 8,
            "dino.local_crops": 4,
        })
        images, labels = synth.make_classification("blobs", 150, 3, 32, seed=12)
        train_bank, test_bank = pipeline.extract_splits(
            cfg, images[:100], labels[:100], images[100:], labels[100:], jobs=1
        )
        accs = {}
        for kind in ("embedding", "fused"):
            tr = train_bank.rows(kind, "train")
            te = test_bank.rows(kind, "test")
            preds = ek.knn_classify(ek.KnnIndex(tr, train_bank.labels, k=20), te)
            accs[kind] = ek.accuracy(preds, test_bank.labels)
        assert accs["fused"] >= accs["embedding"] - 0.02
        report(11, f"standard benchmark: embedding={accs['embedding']:.3f}, "
                   f"fused={accs['fused']:.3f} (no degradation beyond 2 points)")


class TestCriterion12Determinism:
    def test_two_full_pipeline_runs_byte_identical(self, tmp_path):
        start = time.monotonic()
        cfg_text = GOLDEN.read_text().replace(
            "image_size = 224", "image_size = 32"
        ).replace(
            "dim = 64", "dim = 16"
        ).replace(
            "view_patch = 112", "view_patch = 16"
        ).replace(
            "positive_views = 49", "positive_views = 9"
        ).replace(
            "negative_images = 256", "negative_images = 6"
        ).replace(
            "local_crops = 10", "local_crops = 4"
        ).replace(
            "proj_dim = 768", "proj_dim = 32"
        ).replace(
            "proj_dim = 2048", "proj_dim = 48"
        ).replace(
            "proj_dim = 96", "proj_dim = 24"
        ).replace(
            "out_dim = 64", "out_dim = 16"
        )
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(cfg_text)
        RunConfig.load(cfg_path)  # must parse cleanly

        outputs = []
        for run in ("a", "b"):
            base = tmp_path / run
            data, banks, pca = base / "data", base / "banks", base / "pca"
            assert cli.main(["synth", "--kind", "blobs", "--n", "32", "--classes", "2",
                             "--image-size", "32", "--seed", "3", "--out", str(data)]) == 0
            assert cli.main(["extract", "--config", str(cfg_path), "--data", str(data),
                             "--out", str(banks)]) == 0
            assert cli.main(["fuse-pca", "--train", str(banks / "bank_train.fngi"),
                             "--test", str(banks / "bank_test.fngi"), "--out", str(pca)]) == 0
            assert cli.main(["eval", "--train", str(pca / "bank_train_pca.fngi"),
                             "--test", str(pca / "bank_test_pca.fngi"),
                             "--out", str(base / "eval.csv")]) == 0
            outputs.append({
                "train": (banks / "bank_train.fngi").read_bytes(),
                "test": (banks / "bank_test.fngi").read_bytes(),
                "train_pca": (pca / "bank_train_pca.fngi").read_bytes(),
                "report": (base / "eval.csv").read_text(),
            })
        for key in outputs[0]:
            assert outputs[0][key] == outputs[1][key], f"{key} differs between runs"
        elapsed = time.monotonic() - start
        assert elapsed < 600.0
        report(12, f"two pipeline runs byte-identical (banks + reports) in {elapsed:.0f}s")


class TestCriterion13ConfigurationFidelity:
    def test_defaults_match_golden_file_and_reference_values(self):
        cfg = RunConfig().validate()
        assert cfg.to_text() == GOLDEN.read_text(), "default config drifted from golden file"
        # reference hyperparameters, asserted value by value
        assert cfg.simclr.positive_views == 49
        assert cfg.simclr.negative_images * cfg.simclr.positive_views == 49 * 256
        assert cfg.simclr.temperature == 0.07
        assert cfg.simclr.proj_dim == 96
        assert cfg.kl.temperature == 15.0
        assert cfg.kl.proj_dim == 768
        assert cfg.dino.global_crops == 2
        assert cfg.dino.global_scale == (0.25, 1.0)
        assert cfg.dino.local_crops == 10
        assert cfg.dino.local_scale == (0.05, 0.25)
        assert cfg.dino.teacher_temperature == 0.07
        assert cfg.dino.student_temperature == 0.1
        assert cfg.dino.proj_dim == 2048
        assert cfg.eval.knn_k == 20
        assert not hasattr(cfg.eval, "shots")  # few-shot runs are chosen by --shots only
        seg = cfg.segmentation
        assert (seg.k, seg.temperature) == (30, 0.02)
        assert seg.augmentation_epochs == 1
        assert seg.ivf_num_leaves == 512
        assert (seg.ivf_leaves_to_search, seg.ivf_rerank) == (32, 120)
        few = RunConfig.load(FEW_SHOT_PRESET).segmentation
        assert (few.k, few.temperature, few.augmentation_epochs) == (90, 0.1, 8)
        assert (few.ivf_leaves_to_search, few.ivf_rerank) == (512, 1800)
        report(13, "default configuration serializes the reference hyperparameters (golden file); "
                   "the few-shot preset holds the few-shot segmentation values")
