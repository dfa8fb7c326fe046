"""Run configuration: one flat key=value file with section headers.

Defaults encode the reference hyperparameters of the method: per-objective
temperatures and projection widths, crop counts and scale ranges, retrieval
and segmentation parameters. Serialization is canonical (fixed section and
key order), so a configuration hash identifies compatible artifacts.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import backbone as bb

OBJECTIVES = ("kl", "dino", "simclr")
PROJECTION_KINDS = ("binary", "gaussian", "sparse")


class ConfigError(ValueError):
    """Malformed configuration text or inconsistent values."""


def _raise_first(rules):
    """Raise ConfigError with the message of the first (bad, message) rule
    that is bad."""
    for bad, message in rules:
        if bad:
            raise ConfigError(message)


@dataclass
class EncoderSection:
    image_size: int = 224
    patch_size: int = 16
    depth: int = 2
    dim: int = 64
    heads: int = 4
    mlp_ratio: float = 4.0
    pooling: str = "cls"
    seed: int = 0

    @property
    def grid(self):
        return self.image_size // self.patch_size

    @property
    def num_patches(self):
        return self.grid * self.grid

    @property
    def mlp_dim(self):
        return int(round(self.dim * self.mlp_ratio))

    @property
    def layer_shapes(self):
        """(out, in) of each block's linear layers by weight prefix, in
        initialization order."""
        d, mlp = self.dim, self.mlp_dim
        return {"qkv": (3 * d, d), "proj": (d, d), "fc1": (mlp, d), "fc2": (d, mlp)}

    def check_geometry(self):
        """Raise ConfigError on the first broken rule of the encoder's shape.
        Every rule is evaluated, so each one is safe at any value."""
        _raise_first((
            (min(self.image_size, self.patch_size, self.dim, self.heads) < 1,
             "image_size, patch_size, dim and heads must be at least 1"),
            (self.patch_size >= 1 and self.image_size % self.patch_size != 0,
             "image_size must be divisible by patch_size"),
            (self.heads >= 1 and self.dim % self.heads != 0, "dim must be divisible by heads"),
            (not math.isfinite(self.dim * self.mlp_ratio) or self.mlp_dim < 1,
             "mlp_ratio must be finite and give an mlp_dim (dim * mlp_ratio, rounded) of at least 1"),
            (self.pooling not in ("cls", "mean"), f"unknown pooling {self.pooling!r}"),
        ))


@dataclass
class GradientSection:
    objectives: tuple[str, ...] = OBJECTIVES
    block_index: int = -1  # -1 = last block
    layer_kind: str = "attn_proj"
    precision: str = "f32"


@dataclass
class KlSection:
    temperature: float = 15.0
    proj_dim: int = 768
    normalize_input: bool = True


@dataclass
class DinoSection:
    proj_dim: int = 2048
    normalize_input: bool = True
    global_crops: int = 2
    local_crops: int = 10
    global_scale: tuple[float, ...] = (0.25, 1.0)
    local_scale: tuple[float, ...] = (0.05, 0.25)
    teacher_temperature: float = 0.07
    student_temperature: float = 0.1


@dataclass
class SimclrSection:
    proj_dim: int = 96
    normalize_input: bool = False
    positive_views: int = 49
    view_patch: int = 112
    negative_images: int = 256
    temperature: float = 0.07


@dataclass
class ProjectionSection:
    kind: str = "binary"
    seed: int = 0


@dataclass
class PcaSection:
    out_dim: int = 64


@dataclass
class EvalSection:
    knn_k: int = 20
    probe_lambda_min: float = 5e-06
    probe_lambda_max: float = 0.0005
    probe_lambda_count: int = 5
    probe_max_epochs: int = 300


@dataclass
class SegmentationSection:
    k: int = 30
    temperature: float = 0.02
    augmentation_epochs: int = 1
    ivf_num_leaves: int = 512
    ivf_leaves_to_search: int = 32
    ivf_rerank: int = 120
    ivf_dims_per_block: int = 4
    ivf_anisotropic_threshold: float = 0.2
    simclr_proj_dim: int = 96
    simclr_temperature: float = 0.07
    retrieved_negatives_per_patch: int = 2
    loss_negatives_per_patch: int = 1


@dataclass
class RunConfig:
    encoder: EncoderSection = field(default_factory=EncoderSection)
    gradients: GradientSection = field(default_factory=GradientSection)
    kl: KlSection = field(default_factory=KlSection)
    dino: DinoSection = field(default_factory=DinoSection)
    simclr: SimclrSection = field(default_factory=SimclrSection)
    projection: ProjectionSection = field(default_factory=ProjectionSection)
    pca: PcaSection = field(default_factory=PcaSection)
    eval: EvalSection = field(default_factory=EvalSection)
    segmentation: SegmentationSection = field(default_factory=SegmentationSection)

    def validate(self):
        """Every key's admissible values; the first bad key raises ConfigError."""
        enc, grads, dino, simclr, seg = self.encoder, self.gradients, self.dino, self.simclr, self.segmentation
        used = set(grads.objectives)
        _raise_first((
            (not used or not used <= set(OBJECTIVES) or len(used) < len(grads.objectives),
             f"gradients objectives {','.join(grads.objectives)!r} must be one or more distinct names among "
             f"{', '.join(OBJECTIVES)}"),
            (grads.layer_kind not in bb.LAYER_PREFIXES, f"unknown layer kind {grads.layer_kind!r}"),
            (not -enc.depth <= grads.block_index < enc.depth,
             f"gradients block_index {grads.block_index} out of range for encoder depth {enc.depth}"),
            (grads.precision not in ("f32", "f64"), "precision must be f32 or f64"),
            (enc.seed < 0, "encoder seed must be at least 0"),
            (self.projection.kind not in PROJECTION_KINDS,
             f"projection kind must be one of {', '.join(PROJECTION_KINDS)}"),
            (min(self.kl.proj_dim, dino.proj_dim, simclr.proj_dim, seg.simclr_proj_dim) < 1,
             "kl, dino and simclr proj_dim and segmentation simclr_proj_dim must be at least 1"),
            ("simclr" in used and (simclr.positive_views < 4
                                   or math.isqrt(simclr.positive_views) ** 2 != simclr.positive_views),
             "simclr positive_views must be a perfect square of at least 4 (a patch grid of 2x2 or more)"),
            ("simclr" in used and not 1 <= simclr.view_patch <= enc.image_size,
             "simclr view_patch must be in 1..encoder image_size"),
            ("simclr" in used and simclr.negative_images < 1, "simclr negative_images must be at least 1"),
            ("dino" in used and dino.global_crops < 2, "dino global_crops must be at least 2"),
            ("dino" in used and dino.local_crops < 0, "dino local_crops must be at least 0"),
            ("dino" in used and not all(len(s) == 2 and 0 < s[0] <= s[1] <= 1
                                        for s in (dino.global_scale, dino.local_scale)),
             "dino global_scale and local_scale must read lo,hi with 0 < lo <= hi <= 1"),
            (self.pca.out_dim < 1, "pca out_dim must be at least 1"),
            (self.eval.knn_k < 1, "eval knn_k must be at least 1"),
            (self.eval.probe_lambda_count < 1, "eval probe_lambda_count must be at least 1"),
            (not 0 < self.eval.probe_lambda_min <= self.eval.probe_lambda_max < math.inf,
             "eval probe_lambda_min must be positive and at most probe_lambda_max, which must be finite"),
            (self.eval.probe_max_epochs < 1, "eval probe_max_epochs must be at least 1"),
            (seg.k < 1, "segmentation k must be at least 1"),
            (seg.augmentation_epochs < 1, "segmentation augmentation_epochs must be at least 1"),
            (min(seg.ivf_num_leaves, seg.ivf_leaves_to_search) < 1,
             "segmentation ivf_num_leaves and ivf_leaves_to_search must be at least 1"),
            (not 1 <= seg.loss_negatives_per_patch <= seg.retrieved_negatives_per_patch,
             "segmentation loss_negatives_per_patch must be in 1..retrieved_negatives_per_patch"),
            (seg.ivf_rerank < seg.k, "segmentation ivf_rerank must be at least k"),
            (not all(0 < t < math.inf for t in (self.kl.temperature, dino.teacher_temperature,
                                                dino.student_temperature, simclr.temperature)),
             "kl temperature, dino teacher_temperature and student_temperature, and simclr temperature "
             "must be positive and finite"),
            (not all(0 < t < math.inf for t in (seg.temperature, seg.simclr_temperature)),
             "segmentation temperature and simclr_temperature must be positive and finite"),
        ))
        enc.check_geometry()
        return self

    # -- derived objects ----------------------------------------------------

    def probe_lambda_grid(self):
        return np.linspace(
            self.eval.probe_lambda_min, self.eval.probe_lambda_max, self.eval.probe_lambda_count
        )

    # -- serialization ------------------------------------------------------

    def to_text(self):
        lines = []
        for section_field in fields(self):
            section = getattr(self, section_field.name)
            lines.append(f"[{section_field.name}]")
            for f in fields(section):
                lines.append(f"{f.name} = {_format_value(getattr(section, f.name))}")
            lines.append("")
        return "\n".join(lines)

    def config_hash(self):
        return hashlib.sha256(self.to_text().encode("utf-8")).hexdigest()[:16]

    @classmethod
    def from_text(cls, text):
        raw = {}
        current = None
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1]
                if current in raw:
                    raise ConfigError(f"line {lineno}: section [{current}] repeats; give each section once")
                raw[current] = {}
                continue
            if "=" not in line or current is None:
                raise ConfigError(f"line {lineno}: expected 'key = value' inside a section")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in raw[current]:
                raise ConfigError(f"line {lineno}: key {key!r} repeats in [{current}]; give each key once")
            raw[current][key] = value.strip()

        config = cls()
        section_names = {f.name for f in fields(config)}
        for section_name, entries in raw.items():
            if section_name not in section_names:
                raise ConfigError(f"unknown section [{section_name}]")
            section = getattr(config, section_name)
            hints = get_type_hints(type(section))
            known = {f.name for f in fields(section)}
            for key, value in entries.items():
                if key not in known:
                    raise ConfigError(f"unknown key {key!r} in [{section_name}]")
                setattr(section, key, _parse_value(value, hints[key], key))
        return config.validate()

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc
        return cls.from_text(text)


def _format_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_value(text, hint, key):
    try:
        if hint is bool:
            if text not in ("true", "false"):
                raise ValueError("expected true/false")
            return text == "true"
        if hint is int:
            return int(text)
        if hint is float:
            return float(text)
        if get_origin(hint) is tuple:
            element = get_args(hint)[0]
            return tuple(element(p) for p in text.split(",") if p)
        return text
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {text!r} ({exc})") from exc
