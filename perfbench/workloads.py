"""The benchmark's workloads.

Each workload has a `setup(seed, workdir)` that generates its inputs from the
workload seed and builds what the timed calls need, and a `run_round(state)`
that makes the timed calls once. A round is a list of `Op`s: one timed
operation each, with its correctness verdict and a digest of its outputs.

Only the inputs depend on the seed; encoder, head, projection and evaluation
seeds stay at the configuration defaults.
"""

from __future__ import annotations

import base64
import contextlib
import csv
import dataclasses
import hashlib
import io
import os
import time
import traceback

import numpy as np

from . import fngi

SEGMENTS = ("kl", "dino", "simclr", "embedding")  # fused column order, width 64 each
SEG_WIDTH = 64


@dataclasses.dataclass
class Op:
    name: str
    seconds: float
    ok: bool = True
    problems: list = dataclasses.field(default_factory=list)
    digest: str = ""
    values: dict = dataclasses.field(default_factory=dict)

    def fail(self, problem):
        self.ok = False
        self.problems.append(problem)


def _timed(name, fn, *args, **kwargs):
    """Run one operation; an exception makes it a failed op."""
    start = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    except Exception:  # every failure is counted, never fatal to the run
        op = Op(name, time.perf_counter() - start)
        op.fail(traceback.format_exc(limit=3))
        return op, None
    return Op(name, time.perf_counter() - start), result


def _cli(fungi, argv):
    """`fungi <argv>` in process, its table output swallowed."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = fungi.cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"fungi {argv[0]} exited with {rc}")
    return rc


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str) and os.path.exists(part):
            with open(part, "rb") as fh:
                h.update(fh.read())
        else:
            h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def _unit_segments(op, rows, where, tol=1e-4):
    if not np.all(np.isfinite(rows)):
        op.fail(f"{where}: non-finite rows")
        return
    for j, seg in enumerate(SEGMENTS):
        norms = np.linalg.norm(rows[:, j * SEG_WIDTH : (j + 1) * SEG_WIDTH].astype(np.float64), axis=1)
        if np.max(np.abs(norms - 1.0)) > tol:
            op.fail(f"{where}: fused segment {seg} not unit-norm")


def _row_cosines(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.sum(a * b, axis=1) / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))


# ---------------------------------------------------------------------------
# extract-views
# ---------------------------------------------------------------------------


class ExtractViews:
    """`fungi extract` on a seeded blobs dataset at the default config."""

    name = ref_key = "extract-views"
    n_samples, classes = 3, 2  # the synth split gives 2 train + 1 test samples
    config_text = "[simclr]\nnegative_images = 1\n"

    def setup(self, fungi, seed, workdir):
        data = os.path.join(workdir, "data")
        _cli(fungi, ["synth", "--kind", "blobs", "--n", str(self.n_samples),
                     "--classes", str(self.classes), "--image-size", "224",
                     "--seed", str(seed), "--out", data])
        cfg_path = os.path.join(workdir, "run.cfg")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(self.config_text)
        config = fungi.config.RunConfig.load(cfg_path)
        # what `extract` builds first, so lazy set-up and BLAS warm-up land here
        for builder in ("build_encoder", "build_heads", "build_projections"):
            fn = getattr(fungi.pipeline, builder, None)
            if fn is not None:
                fn(config)
        labels = {s: np.array(fngi.read(os.path.join(data, f"{s}.fngi"))["labels"]) for s in ("train", "test")}
        return {"data": data, "cfg": cfg_path, "out": os.path.join(workdir, "banks"), "labels": labels}

    def run_round(self, fungi, state):
        op, _ = _timed("extract", _cli, fungi, ["extract", "--config", state["cfg"], "--data", state["data"],
                                                 "--out", state["out"], "--jobs", "1"])
        if op.ok:
            self.check(op, state)
        return [op]

    def check(self, op, state):
        paths = [os.path.join(state["out"], f"bank_{s}.fngi") for s in ("train", "test")]
        for split, path in zip(("train", "test"), paths):
            try:
                sections = fngi.read(path)
            except (OSError, fngi.FngiError) as exc:
                op.fail(str(exc))
                continue
            fused = sections.get("fused")
            if fused is None or fused.shape != (len(state["labels"][split]), SEG_WIDTH * len(SEGMENTS)):
                op.fail(f"{split}: fused section missing or misshapen")
                continue
            if not np.array_equal(sections.get("labels"), state["labels"][split]):
                op.fail(f"{split}: labels differ from the dataset's")
            for name in ("embedding", "grad::kl", "grad::dino", "grad::simclr"):
                if name not in sections or not np.all(np.isfinite(sections[name])):
                    op.fail(f"{split}: section {name} missing or non-finite")
            _unit_segments(op, fused, split)
            op.values[split] = np.array(fused)
        op.digest = _digest(*paths)

    def compare(self, op, ref, tol):
        for split in ("train", "test"):
            got = op.values.get(split)
            want = np.frombuffer(base64.b64decode(ref[split]), dtype="<f4").reshape(-1, SEG_WIDTH * len(SEGMENTS))
            if got is None or got.shape != want.shape:
                op.fail(f"{split}: bank shape differs from the reference")
                continue
            for j, seg in enumerate(SEGMENTS):
                cols = slice(j * SEG_WIDTH, (j + 1) * SEG_WIDTH)
                worst = float(np.min(_row_cosines(got[:, cols], want[:, cols])))
                if worst < tol["segment_cosine"]:
                    op.fail(f"{split}: {seg} row cosine {worst:.6f} vs reference")

    def record(self, ops):
        return {split: base64.b64encode(np.asarray(ops[0].values[split], dtype="<f4").tobytes()).decode()
                for split in ("train", "test")}

    def headline(self, rounds, state):
        per = [r[0].seconds for r in rounds]
        return {"extract_samples_per_s": self.n_samples / float(np.median(per))}


# ---------------------------------------------------------------------------
# eval-banks
# ---------------------------------------------------------------------------


class EvalBanks:
    """Eval commands on seeded banks.

    The six commands (fuse-pca, eval, cluster, probe, retrieve, cka) are
    split into three workloads with one long command each, so each long
    command is its round's slowest operation (`op_max_ref_s`), and each short one
    is a third or a half of `op_geomean_ref_s`. `cluster` gets the third: its
    k-means iteration count, and so its time, varies about 2x with the seed.
    All three read the same banks and share one reference entry.
    """

    ref_key = "eval-banks"
    n_train, n_test, classes = 3000, 1000, 10
    noise = 4.0  # per-coordinate noise around unit-variance class means
    ARGS = {
        "fuse-pca": ["--out", "{out}/pca"],
        "eval": ["--shots", "5", "--out", "{out}/eval.csv"],
        "cluster": ["--out", "{out}/cluster.csv"],
        "probe": ["--out", "{out}/probe.csv"],
        "retrieve": ["--out", "{out}/retrieve.csv"],
        "cka": ["--out", "{out}/cka.csv"],
    }
    HEADLINE = {"eval": "knn_eval_s", "probe": "probe_s", "retrieve": "retrieve_s"}

    def __init__(self, name, commands):
        self.name = name
        self.commands = tuple((c, self.ARGS[c]) for c in commands)

    def make_banks(self, seed):
        """Class-structured rows in the column layout `extract` writes."""
        rng = np.random.default_rng(seed % 2**32)  # any integer seed, negative too
        means = {seg: rng.standard_normal((self.classes, SEG_WIDTH)) for seg in SEGMENTS}
        banks = {}
        for split, n in (("train", self.n_train), ("test", self.n_test)):
            labels = rng.permutation(np.arange(n) % self.classes).astype(np.int32)
            segs = {}
            for seg in SEGMENTS:
                x = means[seg][labels] + self.noise * rng.standard_normal((n, SEG_WIDTH))
                segs[seg] = (x / np.linalg.norm(x, axis=1, keepdims=True)).astype(np.float32)
            banks[split] = (labels, segs)
        return banks

    def setup(self, fungi, seed, workdir):
        config = fungi.config.RunConfig().validate()
        echo, config_hash = config.to_text(), config.config_hash()
        paths = {}
        for split, (labels, segs) in self.make_banks(seed).items():
            paths[split] = os.path.join(workdir, f"bank_{split}.fngi")
            fngi.write(paths[split], {
                "ids": np.arange(len(labels), dtype=np.int32),
                "labels": labels,
                "fused": np.concatenate([segs[s] for s in SEGMENTS], axis=1),
                "split": split,
                "objectives": "kl,dino,simclr",
                "config_echo": echo,
                "config_hash": config_hash,
                "embedding": segs["embedding"],
                **{f"grad::{s}": segs[s] for s in SEGMENTS[:3]},
            })
        out = os.path.join(workdir, "out")
        os.makedirs(out, exist_ok=True)
        return {"train": paths["train"], "test": paths["test"], "out": out}

    def run_round(self, fungi, state):
        ops = []
        for command, extra in self.commands:
            argv = [command, "--train", state["train"], "--test", state["test"]]
            argv += [a.format(out=state["out"]) for a in extra]
            op, _ = _timed(command, _cli, fungi, argv)
            if op.ok:
                self.check(op, state)
            ops.append(op)
        return ops

    def check(self, op, state):
        out = state["out"]
        chance = 1.0 / self.classes
        if op.name == "fuse-pca":
            paths = [os.path.join(out, "pca", f) for f in ("bank_train_pca.fngi", "bank_test_pca.fngi", "pca.fngi")]
            try:
                for path, n in zip(paths[:2], (self.n_train, self.n_test)):
                    fused = fngi.read(path)["fused"]
                    if fused.shape != (n, 64) or not np.all(np.isfinite(fused)):
                        op.fail(f"{path}: PCA rows misshapen or non-finite")
                fngi.read(paths[2])
            except (OSError, KeyError, fngi.FngiError) as exc:
                op.fail(f"PCA output unreadable: {exc}")
            op.digest = _digest(*paths)
            return
        path = os.path.join(out, f"{op.name}.csv")
        try:
            values = self.read_csv(path, op.name)
        except (OSError, ValueError) as exc:
            op.fail(f"{path}: {exc}")
            return
        for key, value in values.items():
            if not np.isfinite(value) or not 0.0 <= value <= 1.0 + 1e-9:
                op.fail(f"{key}={value} outside [0, 1]")
            is_accuracy = key.startswith(("knn_top1", "probe_top1"))
            if is_accuracy and not chance < value < 1.0:
                op.fail(f"{key}={value} not strictly between chance {chance:.3f} and 1")
        op.values = values
        op.digest = _digest(path)

    @staticmethod
    def read_csv(path, command):
        with open(path, encoding="utf-8") as fh:
            rows = [r for r in csv.reader(line for line in fh if not line.startswith("#"))]
        if command == "cka":
            kinds = rows[0][1:]
            return {f"cka_{a[0]}_{b}": float(v) for a in rows[1:] for b, v in zip(kinds, a[1:])}
        return {metric: float(value) for metric, cls, value in rows[1:] if cls == ""}

    def compare(self, op, ref, tol):
        if op.name == "fuse-pca":
            return
        for key, want in ref.get(op.name, {}).items():
            got = op.values.get(key)
            limit = tol[key.split("_")[0]]
            if got is None or abs(got - want) > limit:
                op.fail(f"{key}={got} vs reference {want} (tolerance {limit})")

    def record(self, ops):
        return {op.name: op.values for op in ops if op.name != "fuse-pca"}

    def headline(self, rounds, state):
        return {
            self.HEADLINE[command]: float(np.median([op.seconds for r in rounds for op in r if op.name == command]))
            for command, _ in self.commands if command in self.HEADLINE
        }


# ---------------------------------------------------------------------------
# segment-dense
# ---------------------------------------------------------------------------


class SegmentDense:
    """Fused-gradient patch bank + IVF at 512 px, then one query per test image.

    The calls and seeds follow `fungi segment --fungi` (cmd_segment), timed
    per side: bank build + `ivf_build` is one operation, each query image
    another; mIoU scoring closes the round.
    """

    name = ref_key = "segment-dense"
    n_images, classes, image_size = 6, 4, 512  # the synth split gives 4 train + 2 test images

    def setup(self, fungi, seed, workdir):
        data = os.path.join(workdir, "data")
        _cli(fungi, ["synth", "--kind", "segmentation", "--n", str(self.n_images),
                     "--classes", str(self.classes), "--image-size", str(self.image_size),
                     "--seed", str(seed), "--out", data])
        splits = {s: fngi.read(os.path.join(data, f"{s}.fngi")) for s in ("train", "test")}
        config = fungi.config.RunConfig()
        config.encoder.image_size = self.image_size
        config.validate()
        seg = config.segmentation
        seg_cfg = fungi.segmem.SegConfig(
            k=seg.k,
            temperature=seg.temperature,
            augmentation_epochs=seg.augmentation_epochs,
            ivf=fungi.segmem.IvfParams(
                num_leaves=seg.ivf_num_leaves,
                leaves_to_search=seg.ivf_leaves_to_search,
                rerank=seg.ivf_rerank,
                dims_per_block=seg.ivf_dims_per_block,
                anisotropic_threshold=seg.ivf_anisotropic_threshold,
            ),
        )
        params = fungi.pipeline.build_encoder(config)
        derive = fungi.features.derive_seed
        head = fungi.backbone.attach_head(
            config.encoder.dim, seg.simclr_proj_dim, derive(config.encoder.seed, "head", "seg-simclr"),
            normalize_input=False, dtype=params.dtype,
        )
        return {
            "train_images": list(np.array(splits["train"]["images"])),
            "train_masks": list(np.array(splits["train"]["masks"])),
            "test_images": list(np.array(splits["test"]["images"])),
            "test_masks": np.array(splits["test"]["masks"]),
            "seg": seg,
            "seg_cfg": seg_cfg,
            "params": params,
            "head": head,
            "seeds": {
                "bank": derive(config.encoder.seed, "seg-bank"),
                "ivf": derive(config.encoder.seed, "seg-ivf"),
                "query": [derive(config.encoder.seed, "seg-query", i) for i in range(len(splits["test"]["images"]))],
            },
        }

    def extractor(self, fungi, state):
        seg = state["seg"]
        return fungi.segmem.PatchFeatureExtractor(
            params=state["params"], use_fungi=True, head=state["head"], tau=seg.simclr_temperature,
            retrieved_per_patch=seg.retrieved_negatives_per_patch, kept_per_patch=seg.loss_negatives_per_patch,
        )

    def build(self, fungi, state, extractor):
        segmem = fungi.segmem
        seg_cfg = state["seg_cfg"]
        bank = segmem.build_bank(state["train_images"], state["train_masks"], extractor, seg_cfg,
                                 seed=state["seeds"]["bank"])
        if seg_cfg.k > len(bank):
            seg_cfg = dataclasses.replace(seg_cfg, k=len(bank))
        index = segmem.ivf_build(bank.features, seg_cfg.ivf, seed=state["seeds"]["ivf"])
        return bank, index, seg_cfg

    def run_round(self, fungi, state):
        segmem = fungi.segmem
        state.pop("last", None)  # free the previous round's bank before building another
        extractor = self.extractor(fungi, state)  # fresh: the support index is built inside the timed build
        build, built = _timed("build", self.build, fungi, state, extractor)
        ops = [build]
        if build.ok:
            bank, _, _ = built
            rows = np.asarray(bank.features)
            labels = np.asarray(bank.labels)
            if rows.ndim != 2 or len(rows) != len(labels) or not np.all(np.isfinite(rows)):
                build.fail("bank rows misshapen or non-finite")
            elif np.max(np.abs(np.linalg.norm(rows.astype(np.float64), axis=1) - 1.0)) > 1e-4:
                build.fail("bank rows not unit-norm")
            if len(labels) and not (labels.min() >= 0 and labels.max() < self.classes):
                build.fail("bank labels out of range")
            build.digest = _digest(rows, labels)
            build.values = {"rows": len(rows)}
        preds = []
        for i, image in enumerate(state["test_images"]):
            name = f"query{i}"
            if not build.ok:
                op = Op(name, 0.0)
                op.fail("no bank to query")
                ops.append(op)
                continue
            bank, index, seg_cfg = built
            op, pred = _timed(name, segmem.segment_image, extractor, bank, image, seg_cfg,
                              index=index, seed=state["seeds"]["query"][i])
            if op.ok:
                pred = np.asarray(pred)
                if pred.shape != (self.image_size, self.image_size):
                    op.fail(f"prediction shape {pred.shape}")
                elif pred.min() < 0 or pred.max() >= self.classes:
                    op.fail("predicted labels out of range")
                else:
                    grid = pred[:: state["params"].config.patch_size, :: state["params"].config.patch_size]
                    op.values = {"grid": grid.astype(np.int32)}
                    preds.append(pred)
                op.digest = _digest(pred)
            ops.append(op)
        state["last"] = (extractor, built)
        queries = ops[1:]
        if preds and len(preds) == len(queries):
            start = time.perf_counter()
            try:
                mean, _ = segmem.miou(np.stack(preds), state["test_masks"], self.classes)
            except Exception:  # scoring failure fails the predictions it scores
                mean = float("nan")
            miou_s = time.perf_counter() - start
            queries[-1].seconds += miou_s  # scoring belongs to the read side
            if not 1.0 / self.classes < mean <= 1.0:
                for op in queries:
                    op.fail(f"mIoU {mean} not above chance")
            for op in queries:
                op.values["miou"] = mean
        return ops

    def ivf_recall(self, fungi, state, seed, patches=256):
        """Mean |IVF top-k ∩ exact top-k| / k over a seeded sample of the
        first test image's patches; returns (recall, patches sampled)."""
        segmem = fungi.segmem
        extractor, built = state["last"]
        if built is None:
            return 0.0, 0
        bank, index, seg_cfg = built
        rows = extractor.features(state["test_images"][0], seed=state["seeds"]["query"][0])
        pick = np.random.default_rng(seed % 2**32).choice(len(rows), size=min(patches, len(rows)), replace=False)
        hits = 0
        for query in rows[pick]:
            ivf_ids, _ = segmem.ivf_search(index, query, seg_cfg.k)
            exact_ids, _ = segmem.exact_search(bank.features, query, seg_cfg.k)
            hits += len(np.intersect1d(ivf_ids, exact_ids))
        return hits / (len(pick) * seg_cfg.k), len(pick)

    def compare(self, op, ref, tol):
        if op.name == "build":
            if op.values.get("rows") != ref["rows"]:
                op.fail(f"bank rows {op.values.get('rows')} vs reference {ref['rows']}")
            return
        i = int(op.name[len("query"):])
        want = np.array([int(c) for c in ref["grids"][i]])
        got = op.values.get("grid")
        agreement = float(np.mean(got.ravel() == want)) if got is not None and got.size == want.size else 0.0
        if agreement < tol["pixel_agreement"]:
            op.fail(f"pixel agreement {agreement:.4f} with the reference prediction")
        if abs(op.values.get("miou", -1.0) - ref["miou"]) > tol["miou"]:
            op.fail(f"mIoU {op.values.get('miou')} vs reference {ref['miou']}")

    def record(self, ops):
        queries = [op for op in ops if op.name.startswith("query")]
        return {
            "rows": ops[0].values["rows"],
            "miou": queries[0].values["miou"],
            "grids": ["".join(str(v) for v in op.values["grid"].ravel()) for op in queries],
        }

    def headline(self, rounds, state):
        build = [r[0] for r in rounds]
        queries = [sum(op.seconds for op in r[1:]) for r in rounds]
        n_test = len(state["test_images"])
        first = rounds[0]
        return {
            "seg_build_rows_per_s": float(np.median([op.values.get("rows", 0) / op.seconds for op in build])),
            "seg_query_images_per_s": n_test / float(np.median(queries)),
            "seg_miou": float(first[-1].values.get("miou", float("nan"))),
        }


WORKLOADS = {w.name: w for w in (
    ExtractViews(),
    EvalBanks("eval-banks.knn", ("eval", "cluster", "cka")),
    EvalBanks("eval-banks.probe", ("probe",)),
    EvalBanks("eval-banks.retrieve", ("fuse-pca", "retrieve")),
    SegmentDense(),
)}
