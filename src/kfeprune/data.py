"""Datasets: IDX file loading and seeded synthetic generators."""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ValidationError

IDX_MAGIC_IMAGES = 0x00000803
IDX_MAGIC_LABELS = 0x00000801


@dataclass
class Dataset:
    """Inputs plus integer labels; inputs are float64, labels int64."""

    x: np.ndarray
    y: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.x.shape[0] != self.y.shape[0]:
            raise ValidationError("inputs and labels disagree on sample count")
        if not np.all(np.isfinite(self.x)):
            raise ValidationError("dataset inputs contain NaN or Inf")
        if self.y.size and (self.y.min() < 0 or self.y.max() >= self.num_classes):
            raise ValidationError("labels out of range for num_classes")

    @property
    def n(self) -> int:
        return self.x.shape[0]


def read_idx(path: str) -> np.ndarray:
    """Parse one IDX file (big-endian); images are scaled to [0, 1].  The
    payload must be exactly the size the header claims."""
    with open(path, "rb") as f:
        head = f.read(4)
        if len(head) != 4:
            raise FormatError(f"{path}: truncated IDX header")
        (magic,) = struct.unpack(">I", head)
        if magic == IDX_MAGIC_IMAGES:
            ndim = 3
        elif magic == IDX_MAGIC_LABELS:
            ndim = 1
        else:
            raise FormatError(f"{path}: unknown IDX magic 0x{magic:08x}")
        raw_dims = f.read(4 * ndim)
        if len(raw_dims) != 4 * ndim:
            raise FormatError(f"{path}: truncated IDX dimension header")
        dims = struct.unpack(f">{ndim}I", raw_dims)
        count = math.prod(dims)
        # checked against the bytes after the header before reading, so a
        # huge claim is not allocated
        held = os.fstat(f.fileno()).st_size - 4 * (ndim + 1)
        if count != held:
            side = "shorter" if count > held else "longer"
            raise FormatError(f"{path}: IDX payload {side} than header claims")
        payload = f.read(count)
        data = np.frombuffer(payload, dtype=np.uint8).reshape(dims)
    if magic == IDX_MAGIC_IMAGES:
        return data.astype(np.float64) / 255.0
    return data.astype(np.int64)


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Build a Dataset from an IDX image file and its label file, which
    must hold at least one sample."""
    images = read_idx(images_path)
    labels = read_idx(labels_path)
    if images.ndim != 3:
        raise FormatError(f"{images_path}: expected an image IDX file")
    if labels.ndim != 1:
        raise FormatError(f"{labels_path}: expected a label IDX file")
    if images.shape[0] != labels.shape[0]:
        raise FormatError("image and label IDX files disagree on sample count")
    if not labels.size:
        raise FormatError(f"{images_path}: IDX files hold no samples")
    x = images.reshape(images.shape[0], 1, images.shape[1], images.shape[2])
    classes = int(labels.max()) + 1
    return Dataset(x=x, y=labels, num_classes=classes)


def _smooth(field: np.ndarray) -> np.ndarray:
    """Cheap box blur along the two trailing axes, two passes."""
    out = field
    for _ in range(2):
        acc = out.copy()
        acc[..., 1:, :] += out[..., :-1, :]
        acc[..., :-1, :] += out[..., 1:, :]
        acc[..., :, 1:] += out[..., :, :-1]
        acc[..., :, :-1] += out[..., :, 1:]
        out = acc / 5.0
    return out


def synth_dataset(
    kind: str,
    seed: int,
    n: int,
    classes: int,
    dim: int = 2,
    image_shape=None,
    sigma: float = 0.8,
    task_seed: int | None = None,
) -> Dataset:
    """Seeded synthetic datasets.

    blobs: Gaussian clusters around per-class centers; with image_shape
    set, the centers are smoothed per-class template images, which keeps
    the task learnable by both dense and conv models.
    moons: two interleaved half-circles (2 classes, 2-D).
    random: unstructured inputs with uniform labels, for numeric tests.

    task_seed fixes the class structure (blob centers, templates) so a
    train and a test split drawn with different `seed` values still
    describe the same task; it defaults to `seed`.
    """
    rng = np.random.default_rng(seed)
    task_rng = np.random.default_rng(seed if task_seed is None else task_seed)
    if kind == "moons":
        if classes != 2:
            raise ValidationError("moons is a 2-class dataset")
        t = rng.uniform(0, np.pi, size=n)
        half = rng.integers(0, 2, size=n)
        x = np.empty((n, 2))
        x[:, 0] = np.where(half == 0, np.cos(t), 1.0 - np.cos(t))
        x[:, 1] = np.where(half == 0, np.sin(t), 0.5 - np.sin(t))
        x += sigma * 0.12 * rng.standard_normal((n, 2))
        return Dataset(x=x, y=half, num_classes=2)
    if kind == "random":
        if image_shape is not None:
            x = rng.standard_normal((n, *image_shape))
        else:
            x = rng.standard_normal((n, dim))
        y = rng.integers(0, classes, size=n)
        return Dataset(x=x, y=y, num_classes=classes)
    if kind != "blobs":
        raise ValidationError(f"unknown synthetic dataset kind {kind!r}")
    labels = rng.integers(0, classes, size=n)
    if image_shape is not None:
        c, h, w = image_shape
        templates = task_rng.standard_normal((classes, c, h, w))
        templates = _smooth(templates)
        templates *= 2.0 / np.sqrt((templates ** 2).mean(axis=(1, 2, 3), keepdims=True) + 1e-12)
        x = templates[labels] + sigma * rng.standard_normal((n, c, h, w))
        return Dataset(x=x, y=labels, num_classes=classes)
    # centers sit on a circle in the first two dims so classes stay separable
    angles = 2.0 * np.pi * (np.arange(classes) + task_rng.uniform()) / classes
    centers = np.zeros((classes, dim))
    centers[:, 0] = 3.5 * np.cos(angles)
    if dim > 1:
        centers[:, 1] = 3.5 * np.sin(angles)
    x = centers[labels] + sigma * rng.standard_normal((n, dim))
    return Dataset(x=x, y=labels, num_classes=classes)
