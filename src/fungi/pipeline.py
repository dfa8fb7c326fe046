"""Extraction pipeline: encoder + heads + objectives -> feature banks.

Per sample: run the encoder up to the designated layer once; the embedding
and the kl objective resume from that state. For dino and simclr, build the
views and run each up to that layer: dino's crops one by one, and an image's
SimCLR views as one array from `augment.simclr_views`, bit for bit each
window's `resize_bilinear`. Then each objective resumes its view set in one
`loss_gradient` call, the views' rows as one tensor, harvests the layer's
gradient of a loss over the views' embeddings, flattens it, and projects it
down to the embedding width with the objective's
`features.projection_matrix`. A train image drawn into the SimCLR negative
bank has its views encoded once and embedded in one `embed` call: the bank
keeps their states, and the sample's SimCLR objective resumes from them.
Objectives never call the encoder. Fused rows are the unit-norm gradient segments followed by the
unit-norm embedding. This module only extracts: the rows that evaluation
reads come from `FeatureBank.rows`.
"""

from __future__ import annotations

import logging
import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import augment
from . import backbone as bb
from . import features as feat
from . import objectives as obj

log = logging.getLogger("fungi")


def _dtype_of(config):
    return np.float64 if config.gradients.precision == "f64" else np.float32


def build_encoder(config):
    return bb.init_encoder(config.encoder, dtype=_dtype_of(config))


def build_heads(config):
    """One frozen head per objective; the distillation objective gets an
    independent student/teacher pair."""
    heads = {}
    for name in config.gradients.objectives:
        section = getattr(config, name)  # each objective's config section bears its name

        def head(*role):
            return bb.attach_head(config.encoder.dim, section.proj_dim,
                                  feat.derive_seed(config.encoder.seed, "head", name, *role),
                                  normalize_input=section.normalize_input, dtype=_dtype_of(config))

        heads[name] = (head("student"), head("teacher")) if name == "dino" else head()
    return heads


def build_projections(config):
    """One read-only projection matrix per objective, sized to the source
    layer's flattened gradient [dW | db]."""
    prefix = bb.LAYER_PREFIXES[config.gradients.layer_kind]
    rows, cols = config.encoder.layer_shapes[prefix]
    in_dim = rows * (cols + 1)
    return {
        name: feat.projection_matrix(config.projection.kind, config.encoder.dim, in_dim,
                                     feat.derive_seed(config.projection.seed, "projection", name))
        for name in config.gradients.objectives
    }


def _simclr_views(image, config):
    return augment.simclr_views(image, config.simclr.view_patch, math.isqrt(config.simclr.positive_views),
                                config.encoder.image_size)


def _map(fn, items, jobs):
    """[fn(item) for item in items], over a pool of `jobs` threads when
    jobs > 1."""
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def build_negative_bank(params, head, train_images, config, jobs):
    """Encode and project the patch views of seeded draws of training images.

    Each distinct image's views run up to the [gradients] source layer once,
    then resume as one view set, and the head projects their embeddings in
    one call. Returns the bank, whose rows follow the draws, and the map from a drawn
    train index to its views' `tap_state`s, from which that sample's SimCLR
    objective resumes.
    """
    scfg, source = config.simclr, config.gradients
    rng = np.random.default_rng(feat.derive_seed(config.encoder.seed, "negative-bank"))
    n = len(train_images)
    picked = rng.choice(n, size=scfg.negative_images, replace=n < scfg.negative_images)
    distinct, inverse = np.unique(picked, return_inverse=True)

    def worker(idx):
        states = [bb.tap_state(params, source, v) for v in _simclr_views(np.asarray(train_images[idx]), config)]
        return states, head.apply(bb.embed(params, source, states)).data

    results = _map(worker, distinct, jobs)
    bank = obj.SupportIndex(np.concatenate([results[j][1] for j in inverse]))
    view_states = {int(idx): states for idx, (states, _) in zip(distinct, results)}
    nbytes = sum(a.nbytes for states in view_states.values() for state in states for a in state if a is not None)
    log.info(
        "negative bank: %d rows from %d draws of %d distinct images, %.3g MiB of view states",
        len(bank), len(picked), len(distinct), nbytes / 2**20,
    )
    return bank, view_states


def sample_views(name, config, image, sample_seed):
    """Views of one sample under the simclr objective, its resized patch
    windows in row-major grid order, or under dino, its global then its local
    crops. The kl objective's one view is the image itself."""
    if name == "simclr":
        return _simclr_views(image, config)
    dcfg = config.dino
    globals_, locals_ = augment.dino_crops(
        image,
        seed=sample_seed,
        n_global=dcfg.global_crops,
        n_local=dcfg.local_crops,
        global_scale=tuple(dcfg.global_scale),
        local_scale=tuple(dcfg.local_scale),
        out_size=config.encoder.image_size,
    )
    return globals_ + locals_


def make_objective(name, config, heads, neg_bank):
    """loss_fn of an objective: it maps the (V, dim) tensor of a sample's
    views' embeddings to a scalar loss.

    The distillation teacher reads the global views' embedding values as
    constants, so the loss's derivative is exactly the stop-gradient
    objective.
    """
    if name == "kl":
        head, tau = heads["kl"], config.kl.temperature
        return lambda z: obj.kl_loss(head.apply(z), tau=tau)

    if name == "dino":
        student_head, teacher_head = heads["dino"]
        dcfg = config.dino

        def dino_fn(z):
            teacher = teacher_head.apply(z.data[: dcfg.global_crops]).data
            return obj.dino_loss(
                student_head.apply(z), teacher, tau_s=dcfg.student_temperature, tau_t=dcfg.teacher_temperature
            )

        return dino_fn

    if name == "simclr":
        head, tau = heads["simclr"], config.simclr.temperature
        return lambda z: obj.simclr_loss(head.apply(z), neg_bank, tau=tau)

    raise ValueError(f"unknown objective {name!r}")


def extract_bank(config, params, heads, projections, images, labels, split, neg_bank, view_states, jobs):
    """FeatureBank for one split; deterministic in (config, images, seeds).

    A sample runs the layers before the [gradients] source once for its
    embedding and its kl objective. A sample in `view_states` resumes its
    SimCLR objective from there; the others build and run their views.
    """
    objectives = tuple(config.gradients.objectives)
    if "simclr" in objectives and neg_bank is None:
        raise ValueError("simclr objective requires a negative bank")
    source = config.gradients
    loss_fns = {name: make_objective(name, config, heads, neg_bank) for name in objectives}

    def worker(i):
        image = np.asarray(images[i])
        state = bb.tap_state(params, source, image)
        grads = {}
        for name in objectives:
            if name == "kl":
                states = [state]
            elif name == "simclr" and i in view_states:
                states = view_states[i]
            else:
                seed = feat.derive_seed(config.encoder.seed, "views", split, name, i)
                states = [bb.tap_state(params, source, v) for v in sample_views(name, config, image, seed)]
            dw, db = bb.loss_gradient(params, source, states, loss_fns[name])
            grads[name] = feat.project(projections[name], feat.flatten_gradient(dw, db))
        return bb.embed(params, source, [state])[0], grads

    start = time.monotonic()
    results = _map(worker, range(len(images)), jobs)
    elapsed = max(time.monotonic() - start, 1e-9)
    log.info(
        "extracted %s: %d samples, %d objectives, %.2f samples/s",
        split, len(images), len(objectives), len(images) / elapsed,
    )

    embeddings = np.stack([r[0] for r in results]).astype(np.float32)
    grad_mats = {
        name: np.stack([r[1][name] for r in results]).astype(np.float32) for name in objectives
    }
    fused = feat.fuse(embeddings, [grad_mats[name] for name in objectives]).astype(np.float32)
    return feat.FeatureBank(labels, fused, embeddings, grad_mats, config)


def extract_splits(config, train_images, train_labels, test_images, test_labels, jobs):
    """Extract train and test banks with a shared encoder and bank."""
    params = build_encoder(config)
    heads = build_heads(config)
    projections = build_projections(config)
    neg_bank, view_states = None, {}
    if "simclr" in config.gradients.objectives:
        neg_bank, view_states = build_negative_bank(params, heads["simclr"], train_images, config, jobs)
    train_bank = extract_bank(
        config, params, heads, projections, train_images, train_labels, "train",
        neg_bank=neg_bank, view_states=view_states, jobs=jobs,
    )
    test_bank = extract_bank(
        config, params, heads, projections, test_images, test_labels, "test",
        neg_bank=neg_bank, view_states={}, jobs=jobs,
    )
    return train_bank, test_bank

