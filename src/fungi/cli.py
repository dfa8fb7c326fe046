"""Command-line front end.

Commands: synth, extract, fuse-pca, eval, cluster, probe, retrieve, cka,
segment. All outputs are pure functions of flags, config file, and input
files; the only nondeterminism is the timestamp in log lines on stderr.

Exit codes: 0 ok, 2 configuration error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import autodiff as ad
from . import backbone as bb
from . import evalkit
from . import features as feat
from . import pipeline
from . import segmem
from . import store
from . import synth
from .config import ConfigError, RunConfig

log = logging.getLogger("fungi")


class DataError(ValueError):
    """Missing or inconsistent input data."""


def _load_config(args):
    return (RunConfig.load(args.config) if args.config else RunConfig()).validate()


def _load_split(data_dir, split, target):
    path = os.path.join(data_dir, f"{split}.fngi")
    if not os.path.exists(path):
        raise DataError(f"missing dataset split {path}")
    data = synth.load_dataset(path, target)
    if len(data["images"]) == 0:
        raise DataError(f"{path} holds no images")
    return data


def _load_banks(train_path, test_path):
    for p in (train_path, test_path):
        if not os.path.exists(p):
            raise DataError(f"missing feature bank {p}")
    train = feat.FeatureBank.load(train_path)
    test = feat.FeatureBank.load(test_path)
    if train.config.config_hash() != test.config.config_hash():
        raise ConfigError("train/test banks carry different config hashes")
    if train.dim != test.dim:  # e.g. fuse-pca beside raw
        raise DataError(f"train and test banks do not match: {train.dim} vs {test.dim} columns")
    return train, test


def _bank_rows(bank, kind, role):
    """`FeatureBank.rows` with the rows named by their role in the command;
    rows that it refuses are a data error."""
    try:
        return bank.rows(kind, role)
    except ValueError as exc:
        raise DataError(f"{kind} features: {exc}") from exc


def _echo_lines(config):
    return [f"config_hash={config.config_hash()}", *(line for line in config.to_text().splitlines() if line)]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_synth(args):
    try:
        paths = synth.write_dataset_dir(
            args.out, args.kind, args.n, args.classes, args.image_size, args.seed
        )
    except ValueError as exc:  # the generators reject their arguments with ValueError
        raise ConfigError(f"synth: {exc}") from exc
    log.info("wrote %s", ", ".join(paths.values()))
    return 0


def cmd_extract(args):
    if args.jobs < 1:
        raise ConfigError(f"--jobs {args.jobs} must be at least 1")
    config = _load_config(args)
    train = _load_split(args.data, "train", "labels")
    test = _load_split(args.data, "test", "labels")
    size = config.encoder.image_size
    for split, data in (("train", train), ("test", test)):
        if data["images"].shape[1:] != (3, size, size):
            raise DataError(f"{split} images have shape {data['images'].shape[1:]}, "
                            f"but encoder.image_size is {size}: expected (3, {size}, {size})")
    train_bank, test_bank = pipeline.extract_splits(
        config, train["images"], train["labels"], test["images"], test["labels"], jobs=args.jobs
    )
    os.makedirs(args.out, exist_ok=True)
    train_path = os.path.join(args.out, "bank_train.fngi")
    test_path = os.path.join(args.out, "bank_test.fngi")
    train_bank.save(train_path)
    test_bank.save(test_path)
    log.info("wrote %s and %s", train_path, test_path)
    return 0


def cmd_fuse_pca(args):
    train, test = _load_banks(args.train, args.test)
    train_rows = _bank_rows(train, "fused", "train")
    test_rows = _bank_rows(test, "fused", "test")
    if len(train) < 2:
        raise DataError(f"{args.train}: PCA needs at least 2 train rows, got {len(train)}")
    out_dim = train.config.pca.out_dim
    limit = min(train.dim, len(train) - 1)
    if out_dim > limit:
        log.warning("clamping PCA out_dim=%d to %d (bank width %d; %d centred train rows span at most %d dimensions)",
                    out_dim, limit, train.dim, len(train), len(train) - 1)
        out_dim = limit
    model = feat.fit_pca(train_rows, out_dim)  # fitted on the training rows alone
    os.makedirs(args.out, exist_ok=True)
    for bank, rows, name in ((train, train_rows, "bank_train_pca.fngi"), (test, test_rows, "bank_test_pca.fngi")):
        fused = feat.apply_pca(model, rows).astype(np.float32)
        dataclasses.replace(bank, fused=fused).save(os.path.join(args.out, name))
    model.save(os.path.join(args.out, "pca.fngi"))
    log.info("PCA %d -> %d fitted on %d rows", train.dim, out_dim, len(train))
    return 0


def _knn_report(index_rows, index_labels, queries, labels, k):
    preds = evalkit.knn_classify(evalkit.KnnIndex(index_rows, index_labels, k=k), queries)
    per_class = evalkit.per_class_accuracy(preds, labels)
    return evalkit.accuracy(preds, labels), float(np.mean(list(per_class.values()))), per_class


def cmd_eval(args):
    train, test = _load_banks(args.train, args.test)
    run_cfg = train.config
    k = run_cfg.eval.knn_k
    if k > len(train):
        log.warning("clamping k=%d to train size %d", k, len(train))
        k = len(train)
    kinds = ["embedding", *run_cfg.gradients.objectives, "fused"]
    reports = []
    table_rows = []
    baseline = None
    held = {}  # the rows the few-shot pass reads again
    for kind in kinds:
        index_rows, queries = _bank_rows(train, kind, "index"), _bank_rows(test, kind, "query")
        if args.shots and kind in ("embedding", "fused"):
            held[kind] = index_rows, queries
        top1, mpc, per_class = _knn_report(index_rows, train.labels, queries, test.labels, k)
        if kind == "embedding":
            baseline = top1
        reports.append(evalkit.EvalReport(f"knn_top1_{kind}", top1, per_class=per_class))
        reports.append(evalkit.EvalReport(f"knn_mean_per_class_{kind}", mpc))
        table_rows.append([kind, f"{top1:.4f}", f"{mpc:.4f}", f"{top1 - baseline:+.4f}"])
    if args.shots:
        smallest = int(np.unique(train.labels, return_counts=True)[1].min())
        if not 1 <= args.shots <= smallest:
            raise ConfigError(f"--shots {args.shots} outside 1..{smallest}, the smallest training class")
        rows = evalkit.few_shot_subset(train.labels, shots=args.shots,
                                       seed=feat.derive_seed(run_cfg.encoder.seed, "few-shot"))
        for kind, (index_rows, queries) in held.items():
            top1, mpc, _ = _knn_report(index_rows[rows], train.labels[rows], queries, test.labels, min(k, len(rows)))
            reports.append(evalkit.EvalReport(f"knn_top1_{kind}_{args.shots}shot", top1))
            table_rows.append([f"{kind} ({args.shots}-shot)", f"{top1:.4f}", f"{mpc:.4f}", ""])
    evalkit.write_csv(args.out, reports, _echo_lines(train.config))
    print(evalkit.render_table(table_rows, header=["features", "top1", "mean_per_class", "delta_vs_emb"]))
    log.info("wrote %s", args.out)
    return 0


def cmd_cluster(args):
    train, test = _load_banks(args.train, args.test)
    labels = test.labels
    n_classes = len(np.unique(labels))
    reports, table_rows = [], []
    for kind in ("embedding", "fused"):
        x = _bank_rows(test, kind, "test")
        result = evalkit.kmeans(x, n_classes, seed=feat.derive_seed(train.config.encoder.seed, "kmeans"))
        overlap = evalkit.cluster_overlap(result.assignments, labels)
        reports.append(evalkit.EvalReport(f"cluster_overlap_{kind}", overlap))
        table_rows.append([kind, f"{overlap:.4f}"])
    evalkit.write_csv(args.out, reports, _echo_lines(train.config))
    print(evalkit.render_table(table_rows, header=["features", "cluster_overlap"]))
    return 0


def cmd_probe(args):
    train, test = _load_banks(args.train, args.test)
    run_cfg = train.config
    classes, counts = np.unique(train.labels, return_counts=True)
    if len(classes) < 2:
        raise DataError(f"{args.train}: the probe needs at least two classes in the train bank")
    if counts.max() < 2:
        raise DataError(f"{args.train}: the probe holds out a row of each class to choose lambda, "
                        "so it needs a class with at least two train rows; every class has one")
    kinds = ("embedding", "fused")
    train_rows = {kind: _bank_rows(train, kind, "train") for kind in kinds}
    test_rows = {kind: _bank_rows(test, kind, "test") for kind in kinds}

    def train_probe(kind):
        return evalkit.logistic_probe(
            train_rows[kind],
            train.labels,
            lambda_grid=run_cfg.probe_lambda_grid(),
            max_epochs=run_cfg.eval.probe_max_epochs,
            seed=feat.derive_seed(run_cfg.encoder.seed, "probe"),
        )

    # the two kinds train independently, the embedding probe on a worker
    # thread and the fused probe here: their products run in BLAS, which
    # releases the interpreter lock
    with ThreadPoolExecutor(max_workers=1) as pool:
        embedding = pool.submit(train_probe, "embedding")
        results = {"fused": train_probe("fused"), "embedding": embedding.result()}
    reports, table_rows = [], []
    for kind in kinds:
        result = results[kind]
        for i, fit in enumerate(result.fits):
            log.info(
                "probe %s %s: lambda %g, %d epochs, %d trial steps, %d accepted, stop %s",
                kind, "refit" if i == len(result.lambda_grid) else "select", fit.lam,
                fit.epochs, fit.trials, fit.accepted, fit.stop,
            )
        acc = evalkit.accuracy(result.model.predict(test_rows[kind]), test.labels)
        reports.append(evalkit.EvalReport(f"probe_top1_{kind}", acc))
        table_rows.append([kind, f"{acc:.4f}", repr(result.best_lambda)])
    evalkit.write_csv(args.out, reports, _echo_lines(train.config))
    print(evalkit.render_table(table_rows, header=["features", "probe_top1", "lambda"]))
    return 0


def cmd_retrieve(args):
    train, test = _load_banks(args.train, args.test)
    reports, table_rows = [], []
    for kind in ("embedding", "fused"):
        gallery = _bank_rows(train, kind, "gallery")
        queries = _bank_rows(test, kind, "query")
        try:
            mean_ap, _ = evalkit.retrieval_map(queries, gallery, test.labels, train.labels)
        except ValueError as exc:  # e.g. no test label occurs in the train bank
            raise DataError(f"retrieve: {exc}") from exc
        reports.append(evalkit.EvalReport(f"retrieval_map_{kind}", mean_ap))
        table_rows.append([kind, f"{mean_ap:.4f}"])
    evalkit.write_csv(args.out, reports, _echo_lines(train.config))
    print(evalkit.render_table(table_rows, header=["features", "mAP"]))
    return 0


def cmd_cka(args):
    train, _ = _load_banks(args.train, args.test)
    kinds = ["embedding", *train.config.gradients.objectives, "fused"]
    mats = [_bank_rows(train, kind, "train") for kind in kinds]
    constant = [kind for kind, m in zip(kinds, mats) if np.all(m == m[0])]
    if constant:
        raise DataError("CKA is undefined for a feature family that is the same on every train row: "
                        + ", ".join(constant))
    cka = evalkit.linear_cka(mats)
    with open(args.out, "w", encoding="utf-8") as fh:
        for line in _echo_lines(train.config):
            fh.write(f"# {line}\n")
        fh.write("features," + ",".join(kinds) + "\n")
        for kind, row in zip(kinds, cka):
            fh.write(kind + "," + ",".join(f"{v:.6f}" for v in row) + "\n")
    log.info("wrote %s", args.out)
    return 0


def cmd_segment(args):
    if args.bank_cap is not None and args.bank_cap < 1:
        raise ConfigError(f"--bank-cap {args.bank_cap} must be at least 1")
    config = _load_config(args)
    train = _load_split(args.data, "train", "masks")
    test = _load_split(args.data, "test", "masks")
    seg = config.segmentation
    data_size = int(train["images"].shape[-1])
    if test["images"].shape[-1] != data_size:
        raise DataError(f"{args.data}: test images are {test['images'].shape[-1]} px, train images {data_size} px")
    if config.encoder.image_size != data_size:
        # dense prediction runs the encoder at the dataset's resolution; of the
        # config only the encoder depends on it (segmentation builds no
        # extraction views), so only its geometry rules run again
        log.info("building segmentation encoder for %dx%d inputs", data_size, data_size)
        config.encoder.image_size = data_size
        config.encoder.check_geometry()
    seg_cfg = segmem.SegConfig(
        k=seg.k,
        temperature=seg.temperature,
        augmentation_epochs=seg.augmentation_epochs,
        bank_cap=args.bank_cap,
        ivf=segmem.IvfParams(
            num_leaves=seg.ivf_num_leaves,
            leaves_to_search=seg.ivf_leaves_to_search,
            rerank=seg.ivf_rerank,
            dims_per_block=seg.ivf_dims_per_block,
            anisotropic_threshold=seg.ivf_anisotropic_threshold,
        ),
    )
    params = pipeline.build_encoder(config)
    head = None
    if args.fungi:
        head = bb.attach_head(
            config.encoder.dim,
            seg.simclr_proj_dim,
            feat.derive_seed(config.encoder.seed, "head", "seg-simclr"),
            normalize_input=False,
            dtype=params.dtype,
        )
    extractor = segmem.PatchFeatureExtractor(
        params=params,
        use_fungi=args.fungi,
        head=head,
        tau=seg.simclr_temperature,
        retrieved_per_patch=seg.retrieved_negatives_per_patch,
        kept_per_patch=seg.loss_negatives_per_patch,
    )
    bank = segmem.build_bank(
        list(train["images"]), list(train["masks"]), extractor, seg_cfg,
        seed=feat.derive_seed(config.encoder.seed, "seg-bank"),
    )
    if not len(bank):
        raise DataError(f"{args.data}: every train mask patch is ignore-labelled; the segmentation bank is empty")
    if seg_cfg.k > len(bank):
        log.warning("clamping k=%d to bank size %d", seg_cfg.k, len(bank))
        seg_cfg = dataclasses.replace(seg_cfg, k=len(bank))
    index = segmem.ivf_build(bank.features, seg_cfg.ivf, seed=feat.derive_seed(config.encoder.seed, "seg-ivf"))
    log.info("%s", index.describe())

    preds = [
        segmem.segment_image(extractor, bank, image, seg_cfg, index=index,
                             seed=feat.derive_seed(config.encoder.seed, "seg-query", i))
        for i, image in enumerate(test["images"])
    ]
    gts = np.asarray(test["masks"])
    # a test mask that is all ignore label scores no pixels
    num_classes = int(max(bank.labels.max(), gts[gts != segmem.IGNORE_LABEL].max(initial=0))) + 1
    mean, per_class = segmem.miou(np.stack(preds), gts, num_classes)
    report = evalkit.EvalReport(
        "miou_fungi" if args.fungi else "miou_embeddings", mean, per_class=per_class
    )
    evalkit.write_csv(args.out, [report], _echo_lines(config))
    print(evalkit.render_table(
        [[report.metric, f"{mean:.4f}", str(len(bank))]],
        header=["metric", "miou", "bank_rows"],
    ))
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fungi",
        description="Gradient-feature extraction, fusion, and retrieval-based evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset directory")
    p.add_argument("--kind", choices=("blobs", "stripes", "segmentation"), default="blobs")
    p.add_argument("--n", type=int, default=80)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--image-size", type=int, default=224)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract", help="extract embeddings and gradient features")
    p.add_argument("--config")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_extract)

    for name, func, help_text in (
        ("fuse-pca", cmd_fuse_pca, "fit PCA on the train bank, transform both banks"),
        ("eval", cmd_eval, "kNN classification of bank features"),
        ("cluster", cmd_cluster, "k-means cluster/class overlap"),
        ("probe", cmd_probe, "logistic-regression probe"),
        ("retrieve", cmd_retrieve, "same-label retrieval mAP"),
        ("cka", cmd_cka, "pairwise similarity matrix of feature families"),
    ):
        p = sub.add_parser(name, help=help_text)
        for option in ("--train", "--test", "--out"):
            p.add_argument(option, required=True)
        if name == "eval":
            p.add_argument("--shots", type=int, default=0, help="also run an N-shot protocol")
        p.set_defaults(func=func)

    p = sub.add_parser("segment", help="retrieval-based semantic segmentation")
    p.add_argument("--config")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--fungi", action="store_true", help="fuse per-patch gradients")
    p.add_argument("--bank-cap", type=int)
    p.set_defaults(func=cmd_segment)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        log.error("configuration error: %s", exc)
        return 2
    except (DataError, store.StoreError, OSError) as exc:  # OSError: a path that cannot be read or written
        log.error("data error: %s", exc)
        return 3
    except ad.NumericError as exc:
        log.error("numeric failure: %s", exc)
        return 4


if __name__ == "__main__":
    sys.exit(main())
