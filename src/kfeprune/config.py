"""Flat key = value run configuration.

One assignment per line, # starts a comment, blank lines are skipped.
Unknown keys and badly typed values are format errors.  Every command
runs validate_config first, after the command line's overrides, so a
bad value fails loudly before any work happens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import FormatError

STRATEGIES = (
    "obd",
    "obs",
    "c-obd",
    "c-obs",
    "kron-obd",
    "kron-obs",
    "eigendamage",
)


@dataclass
class RunConfig:
    seed: int = 0
    arch: str = "mlp:16"
    image: str = ""
    dataset: str = "blobs"
    classes: int = 4
    dim: int = 2
    n_train: int = 256
    n_test: int = 128
    sigma: float = 0.8
    train_images: str = ""
    train_labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    epochs: int = 10
    lr: float = 0.1
    weight_decay: float = 0.0
    batch_size: int = 32
    finetune_epochs: int = 4
    finetune_lr: float = 0.02
    strategy: str = "eigendamage"
    ratio: float = 0.5
    cap: float = -1.0
    iterations: int = 2
    damping: float = 1e-6
    fisher_batches: int = 0
    rank: int = 0
    out: str = "runs/default"
    checkpoint: str = ""


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError as err:
        raise FormatError(f"bad value for {key!r}: {raw!r}") from err


def parse_config(path) -> RunConfig:
    cfg = RunConfig()
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.readlines()
    except OSError as err:
        raise FormatError(f"cannot read config {path}: {err}") from err
    except UnicodeDecodeError as err:
        raise FormatError(f"{path}: config files are ASCII: {err}") from err
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise FormatError(f"{path}:{lineno}: expected key = value")
        key, raw = (part.strip() for part in text.split("=", 1))
        if key not in _FIELD_TYPES:
            raise FormatError(f"{path}:{lineno}: unknown key {key!r}")
        setattr(cfg, key, _coerce(key, raw))
    return cfg


def validate_config(cfg: RunConfig):
    if cfg.strategy not in STRATEGIES:
        raise FormatError(
            f"unknown strategy {cfg.strategy!r}; pick one of {', '.join(STRATEGIES)}"
        )
    if not 0.0 <= cfg.ratio <= 1.0:
        raise FormatError(f"ratio must lie in [0, 1], got {cfg.ratio}")
    if cfg.cap != -1.0 and not 0.0 < cfg.cap <= 1.0:
        raise FormatError(f"cap must lie in (0, 1], got {cfg.cap}")
    if cfg.dataset not in ("blobs", "moons", "random", "idx"):
        raise FormatError(f"unknown dataset kind {cfg.dataset!r}")
    for key in ("epochs", "iterations", "batch_size", "n_train", "n_test", "classes", "dim"):
        if getattr(cfg, key) < 1:
            raise FormatError(f"{key} must be at least 1, got {getattr(cfg, key)}")
    if cfg.dataset == "moons" and cfg.classes != 2:
        raise FormatError(f"moons is a 2-class dataset, got classes = {cfg.classes}")
    for key in ("seed", "finetune_epochs", "fisher_batches", "rank"):
        if getattr(cfg, key) < 0:
            raise FormatError(f"{key} must be non-negative, got {getattr(cfg, key)}")
    if not 0.0 <= cfg.sigma < math.inf:
        raise FormatError(f"sigma must be finite and non-negative, got {cfg.sigma}")
    if not 0.0 <= cfg.damping < math.inf:
        raise FormatError(f"damping must be non-negative and finite, got {cfg.damping}")
    for key in ("lr", "finetune_lr"):
        if not 0.0 < getattr(cfg, key) < math.inf:
            raise FormatError(f"{key} must be finite and positive, got {getattr(cfg, key)}")
    if not 0.0 <= cfg.weight_decay < math.inf:
        raise FormatError(f"weight_decay must be finite and non-negative, got {cfg.weight_decay}")
    parse_arch(cfg.arch)
    if cfg.image:
        parse_image(cfg.image)


def parse_arch(spec: str) -> tuple:
    """Split an architecture spec like mlp:16,8 or cnn:8,16; an empty width is refused."""
    if ":" not in spec:
        raise FormatError(f"architecture spec needs kind:widths, got {spec!r}")
    kind, _, widths = spec.partition(":")
    if kind not in ("mlp", "cnn"):
        raise FormatError(f"unknown architecture kind {kind!r}")
    try:
        sizes = [int(w) for w in widths.split(",")]
    except ValueError as err:
        raise FormatError(f"bad width list in {spec!r}") from err
    if any(s < 1 for s in sizes):
        raise FormatError(f"widths must be positive integers, got {spec!r}")
    return kind, sizes


def parse_image(spec: str) -> tuple:
    """Parse a CxHxW image shape like 1x12x12."""
    parts = spec.lower().split("x")
    try:
        dims = tuple(int(p) for p in parts)
    except ValueError as err:
        raise FormatError(f"bad image shape {spec!r}") from err
    if len(dims) != 3 or any(d < 1 for d in dims):
        raise FormatError(f"image shape must be CxHxW, got {spec!r}")
    return dims


def resolve_cap(cfg: RunConfig, iterative: bool) -> float:
    """Default removal cap: generous for one-shot, tight per round."""
    if cfg.cap != -1.0:
        return cfg.cap
    return 0.5 if iterative else 0.95
