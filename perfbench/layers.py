"""Per-layer metrics of the traced run.

Metric names follow `<module>.<function>.<stat>`: `calls` is the call count,
`s` inclusive time, `self_s` inclusive time minus the time covered by child
spans. Work counts (`gflop`, `bytes`, `rows_scanned`) are computed by the
benchmark from argument and return shapes, not measured; their units say
`computed_`. Every value is per traced round.
"""

from __future__ import annotations

import json
import math
import os
import time

import numpy as np

from .tracer import Tracer

AUTODIFF_NAMED = ("linear", "matmul", "layer_norm", "gelu", "scaled_dot_product_attention",
                  "softmax", "log_softmax", "l2_normalize")

E2E_UNITS = {
    "failed_op_share": "ratio",
    "extract_samples_per_s": "samples/s",
    "knn_eval_s": "s",
    "probe_s": "s",
    "retrieve_s": "s",
    "seg_build_rows_per_s": "rows/s",
    "seg_query_images_per_s": "images/s",
    "seg_miou": "ratio",
}

PER_LAYER = (
    [(f"autodiff.{f}.s", "s") for f in AUTODIFF_NAMED]
    + [
        ("autodiff.other.s", "s"),
        ("autodiff.linear.gflop", "computed_gflop"),
        ("autodiff.matmul.gflop", "computed_gflop"),
        ("autodiff.scaled_dot_product_attention.gflop", "computed_gflop"),
        ("autodiff.GradTape.backward.calls", "count"),
        ("autodiff.GradTape.backward.s", "s"),
        ("autodiff.tape_nodes", "count"),
        ("backbone.encode.calls", "count"),
        ("backbone.encode.images", "count"),
        ("backbone.encode.s", "s"),
        ("backbone.encode.self_s", "s"),
        ("backbone.loss_gradient.calls", "count"),
        ("backbone.loss_gradient.s", "s"),
        ("backbone.loss_gradient.self_s", "s"),
        ("backbone.Head.apply.s", "s"),
        ("backbone.Head.apply_array.s", "s"),
        ("augment.resize_bilinear.calls", "count"),
        ("augment.resize_bilinear.s", "s"),
        ("augment.dino_crops.s", "s"),
        ("augment.patchify_overlap.s", "s"),
        ("objectives.kl_loss.s", "s"),
        ("objectives.dino_loss.s", "s"),
        ("objectives.simclr_loss.s", "s"),
        ("pipeline.build_negative_bank.s", "s"),
        ("pipeline.make_objective.s", "s"),
        ("pipeline.extract_bank.s", "s"),
        ("pipeline.extract_bank.self_s", "s"),
        ("features.project.calls", "count"),
        ("features.project.s", "s"),
        ("features.project.gflop", "computed_gflop"),
        ("features.fuse.s", "s"),
        ("objectives.simclr_patch_loss.calls", "count"),
        ("objectives.simclr_patch_loss.s", "s"),
        ("objectives.simclr_patch_loss.self_s", "s"),
        ("objectives.SupportIndex.search.calls", "count"),
        ("objectives.SupportIndex.search.s", "s"),
        ("objectives.SupportIndex.search.rows_scanned", "computed_rows"),
        ("segmem.PatchFeatureExtractor.features.s", "s"),
        ("segmem.PatchFeatureExtractor.build_support.s", "s"),
        ("segmem.downsample_mask.s", "s"),
        ("segmem.ivf_build.s", "s"),
        ("evalkit.kmeans.calls", "count"),
        ("evalkit.kmeans.s", "s"),
        ("evalkit.kmeans.iterations", "count"),
        ("segmem.build_bank.s", "s"),
        ("segmem.build_bank.rows", "count"),
        ("segmem.ivf_search.calls", "count"),
        ("segmem.ivf_search.s", "s"),
        ("segmem.exact_search.calls", "count"),
        ("segmem.exact_search.s", "s"),
        ("segmem.predict_grid.s", "s"),
        ("segmem.predict_grid.self_s", "s"),
        ("segmem.ivf_recall_at_k", "ratio"),
        ("segmem.ivf_recall_at_k.patches", "count"),
        ("evalkit.knn_classify.s", "s"),
        ("evalkit.knn_classify.queries", "count"),
        ("evalkit.knn_classify.rows_scanned", "computed_rows"),
        ("evalkit.retrieval_map.s", "s"),
        ("evalkit.retrieval_map.queries", "count"),
        ("evalkit.logistic_probe.s", "s"),
        ("evalkit.hungarian.s", "s"),
        ("evalkit.linear_cka.s", "s"),
        ("features.fit_pca.s", "s"),
        ("features.apply_pca.s", "s"),
        ("store.write_sections.calls", "count"),
        ("store.write_sections.s", "s"),
        ("store.write_sections.bytes", "computed_bytes"),
        ("store.read_sections.calls", "count"),
        ("store.read_sections.s", "s"),
        ("store.read_sections.bytes", "computed_bytes"),
        ("features.FeatureBank.save.s", "s"),
        ("features.FeatureBank.load.s", "s"),
        ("config.RunConfig.from_text.s", "s"),
    ]
    + [(f"cli.cmd_{c}.s", "s") for c in ("extract", "fuse_pca", "eval", "cluster", "probe", "retrieve", "cka")]
    + [("trace.overhead", "ratio"), ("trace.absent_names", "count"), ("trace.rounds", "count")]
    + [(f"e2e.{name}", unit) for name, unit in E2E_UNITS.items()]
)

SPAN_STATS = ("calls", "s", "self_s")
DERIVED = ("autodiff.other", "autodiff", "segmem.ivf_recall_at_k", "segmem", "trace", "e2e")
# spans whose absence the run reports: every span a per-layer metric reads
EXPECTED = sorted({m.rsplit(".", 1)[0] for m, _ in PER_LAYER} - set(DERIVED))


# ---------------------------------------------------------------------------
# work counters: (counts, args, kwargs, result) -> None
# ---------------------------------------------------------------------------


def _shape(x):
    return tuple(np.shape(getattr(x, "data", x)))


def _size(shape):
    return int(np.prod(shape, dtype=np.int64))


def _add(*terms):
    """Counter adding fn(args, result) to counts[key] for each (key, fn)."""

    def count(counts, args, kwargs, result):
        for key, fn in terms:
            counts[key] += fn(args, result)

    return count


def _gflop(args, result, reduced):
    """2 * (output elements) * (reduction length), in GFLOP."""
    return 2.0 * _size(_shape(result)) * reduced / 1e9


def _queries(x):
    return _size(_shape(x)[:-1])


COUNTERS = {
    "autodiff.linear": _add((("autodiff.linear", "gflop"), lambda a, r: _gflop(a, r, _shape(a[0])[-1]))),
    "autodiff.matmul": _add((("autodiff.matmul", "gflop"), lambda a, r: _gflop(a, r, _shape(a[0])[-1]))),
    # q is (..., tokens, dim): scores and the weighted sum cost 2 * T * T * D each
    "autodiff.scaled_dot_product_attention": _add((
        ("autodiff.scaled_dot_product_attention", "gflop"),
        lambda a, r: 4.0 * _size(_shape(a[0])) * _shape(a[0])[-2] / 1e9)),
    "autodiff.GradTape.backward": _add((("autodiff", "tape_nodes"), lambda a, r: len(a[0]))),
    "backbone.encode": _add((("backbone.encode", "images"),
                             lambda a, r: _shape(a[1])[0] if len(_shape(a[1])) == 4 else 1)),
    "features.project": _add((("features.project", "gflop"), lambda a, r: _gflop(a, r, _shape(a[1])[-1]))),
    "store.write_sections": _add((("store.write_sections", "bytes"),
                                  lambda a, r: sum(np.asarray(v).nbytes for v in a[1].values()))),
    "store.read_sections": _add((("store.read_sections", "bytes"), lambda a, r: sum(v.nbytes for v in r.values()))),
    "objectives.SupportIndex.search": _add((("objectives.SupportIndex.search", "rows_scanned"),
                                            lambda a, r: _queries(a[1]) * len(a[0]))),
    "evalkit.knn_classify": _add(
        (("evalkit.knn_classify", "queries"), lambda a, r: _queries(a[1])),
        (("evalkit.knn_classify", "rows_scanned"), lambda a, r: _queries(a[1]) * len(a[0].features)),
    ),
    "evalkit.retrieval_map": _add((("evalkit.retrieval_map", "queries"), lambda a, r: len(a[0]))),
    "evalkit.kmeans": _add((("evalkit.kmeans", "iterations"), lambda a, r: r.n_iter)),
    "segmem.build_bank": _add((("segmem.build_bank", "rows"), lambda a, r: len(r))),
}


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------


def layer_metrics(tracer, rounds):
    """Per-round per-layer values from a tracer's spans and counts."""
    summary = tracer.summary()
    autodiff_fns = {n for n in tracer.wrapped if n.startswith("autodiff.") and n.count(".") == 1}
    other = autodiff_fns - {f"autodiff.{f}" for f in AUTODIFF_NAMED}
    values = {"autodiff.other.s": tracer.top_level_time(other, within=autodiff_fns)}
    for name, _unit in PER_LAYER:
        span, stat = name.rsplit(".", 1)
        if name in values:
            continue
        if stat in SPAN_STATS and span not in DERIVED:
            values[name] = summary.get(span, {}).get(stat, 0)
        else:
            values[name] = tracer.counts.get((span, stat), 0.0)
    return {name: value / rounds for name, value in values.items()}


def traced_run(workload, fungi, state, seconds, measure, round_stats, seed, trace_dir, modules):
    """Untraced and traced rounds alternate, so warm-up and machine drift fall
    on both sides of the overhead ratio; pairs repeat while another fits in
    `seconds`."""
    tracer = Tracer(counters=COUNTERS)
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or (time.perf_counter() - start) * (len(traced) + 1) / len(traced) <= seconds:
        untraced += measure(workload, fungi, state, 0, min_rounds=1)[0]
        tracer.install([getattr(fungi, m) for m in modules])
        try:
            traced += measure(workload, fungi, state, 0, min_rounds=1)[0]
        finally:
            tracer.uninstall()
    absent = tracer.absent(EXPECTED)
    values = layer_metrics(tracer, len(traced))

    recall, patches = 0.0, 0
    if hasattr(workload, "ivf_recall"):
        try:
            recall, patches = workload.ivf_recall(fungi, state, seed)
        except Exception as exc:  # e.g. a search entry point renamed: report, do not fail the run
            absent.append(f"segmem.ivf_recall_at_k ({exc!r})")
    values["segmem.ivf_recall_at_k"] = recall
    values["segmem.ivf_recall_at_k.patches"] = patches

    base = round_stats(untraced)["round_s"]
    values["trace.overhead"] = round_stats(traced)["round_s"] / base - 1.0
    values["trace.absent_names"] = len(absent)
    values["trace.rounds"] = len(traced)

    os.makedirs(trace_dir, exist_ok=True)
    path = os.path.join(trace_dir, f"{workload.name}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "seed": seed, "traced_rounds": len(traced),
                   "absent": absent, "metrics": values, **tracer.dump()}, fh)
    units = dict(PER_LAYER)
    metrics = {name: (float(v) if math.isfinite(v) else 0.0, units[name]) for name, v in values.items()}
    return untraced, traced, metrics, absent
