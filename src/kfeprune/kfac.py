"""Kronecker-factored curvature: factor estimation, damping, eigenbases.

A layer's curvature is approximated as kron(S, A) acting on the
column-major vec of the canonical (fan_in, fan_out) weight matrix, where
A is the input-side covariance and S the gradient-side covariance.

Variants:
  dense         A = E[a a.T]                    S = E[g g.T]
  conv_full     A = sum_loc E[patch patch.T]    S = mean_loc E[g g.T]
  conv_channel  A = mean over input pixels of   S = mean_loc E[g g.T]
                the per-pixel channel covariance

Expectations are over samples; running means keep exact counts so the
result is independent of batching.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, SingularityError, StateError, ValidationError
from .network import Network, cross_entropy

VARIANTS = ("dense", "conv_full", "conv_channel")

# Relative asymmetry tolerated by sym_eig before it refuses the input.
SYM_TOL = 1e-6


@dataclass
class KronFactors:
    """Running-mean Kronecker factors for one layer."""

    a: np.ndarray
    s: np.ndarray
    count: int
    a_locs: int
    s_locs: int
    variant: str

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValidationError(f"unknown factor variant {self.variant!r}")


@dataclass
class EigenFactors:
    """Eigenbases and eigenvalues of both factors, eigenvalues descending."""

    qa: np.ndarray
    lam_a: np.ndarray
    qs: np.ndarray
    lam_s: np.ndarray


def _fold_mean(mean: np.ndarray, eff: int, batch_sum: np.ndarray, batch_eff: int) -> None:
    """mean <- (mean * eff + batch_sum) / (eff + batch_eff), in place: the
    same three roundings as the allocating form, with no temporaries."""
    mean *= eff
    mean += batch_sum
    mean /= eff + batch_eff


def _accumulate(f, variant: str, a_rows, a_locs, s_rows, s_locs, samples) -> KronFactors:
    """Fold one batch of rows into f in place and return it.  For a
    layer's first batch f is None, and the factors start as zeros sized
    from the row widths."""
    if f is None:
        n, m = a_rows.shape[1], s_rows.shape[1]
        f = KronFactors(np.zeros((n, n)), np.zeros((m, m)), 0, a_locs, s_locs, variant)
    elif f.variant != variant:
        raise ValidationError(f"cannot fold {variant} captures into {f.variant} factors")
    elif f.a_locs != a_locs or f.s_locs != s_locs:
        raise DimensionError("location counts changed between accumulation batches")
    # A averages over samples only for conv_full (location sum is part of
    # the definition), over samples*pixels otherwise; S always averages
    # over samples*locations.
    a_per = a_locs if variant == "conv_channel" else 1
    _fold_mean(f.a, f.count * a_per, a_rows.T @ a_rows, samples * a_per)
    _fold_mean(f.s, f.count * s_locs, s_rows.T @ s_rows, samples * s_locs)
    f.count += samples
    return f


def accumulate_dense(f: KronFactors | None, a: np.ndarray, g: np.ndarray) -> KronFactors:
    """Fold a batch of dense captures, a (B, n) and g (B, m) per-sample,
    into f's arrays in place and return f (new factors when f is None)."""
    if a.ndim != 2 or g.ndim != 2 or a.shape[0] != g.shape[0]:
        raise DimensionError("dense capture shapes disagree")
    return _accumulate(f, "dense", a, 1, g, 1, a.shape[0])


def accumulate_conv(f: KronFactors | None, patches: np.ndarray, g: np.ndarray) -> KronFactors:
    """Fold conv captures, patches (B, L, n) and g (B, L, m), into f's
    arrays in place and return f (new factors when f is None)."""
    if patches.ndim != 3 or g.ndim != 3 or patches.shape[:2] != g.shape[:2]:
        raise DimensionError("conv capture shapes disagree")
    b, locs, n = patches.shape
    return _accumulate(
        f, "conv_full", patches.reshape(b * locs, n), locs, g.reshape(b * locs, -1), locs, b
    )


def accumulate_conv_channel(f: KronFactors | None, x_in: np.ndarray, g: np.ndarray) -> KronFactors:
    """Fold channel-covariance captures, x_in (B, C, H, W) and g (B, L, m),
    into f's arrays in place and return f (new factors when f is None).

    The input factor is the covariance of per-pixel channel vectors, so a
    downstream basis rotation is a 1x1 convolution.
    """
    if x_in.ndim != 4 or g.ndim != 3 or x_in.shape[0] != g.shape[0]:
        raise DimensionError("channel capture shapes disagree")
    b, c = x_in.shape[0], x_in.shape[1]
    pixels = x_in.shape[2] * x_in.shape[3]
    a_rows = x_in.transpose(0, 2, 3, 1).reshape(b * pixels, c)
    locs = g.shape[1]
    return _accumulate(f, "conv_channel", a_rows, pixels, g.reshape(b * locs, -1), locs, b)


def damp(f: KronFactors, lam: float) -> KronFactors:
    """Add sqrt(lam) * (tr/dim) * I to each factor; scale-aware Tikhonov."""
    if lam < 0:
        raise ValidationError("damping must be non-negative")
    root = np.sqrt(lam)
    a_shift = root * np.trace(f.a) / f.a.shape[0]
    s_shift = root * np.trace(f.s) / f.s.shape[0]
    return replace(
        f,
        a=f.a + a_shift * np.eye(f.a.shape[0]),
        s=f.s + s_shift * np.eye(f.s.shape[0]),
    )


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Validate and convert to a float64 2-D array."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{name} contains NaN or Inf")
    return a


def sym_eig(m) -> tuple:
    """(values, vectors) of a (numerically) symmetric matrix: the
    eigenvalues in descending order and the matching orthonormal
    eigenvectors in the columns of a C-contiguous matrix.

    The input is symmetrized as (m + m.T)/2 first.  Asymmetry beyond
    ``SYM_TOL`` relative Frobenius norm is treated as a bug in the caller
    and raises instead of being hidden.
    """
    a = as_matrix(m, "sym_eig input")
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"sym_eig needs a square matrix, got {a.shape}")
    scale = np.linalg.norm(a)
    asym = np.linalg.norm(a - a.T)
    if asym > SYM_TOL * max(scale, 1e-30):
        raise ValidationError(
            f"matrix is asymmetric beyond tolerance (rel {asym / max(scale, 1e-30):.3e})"
        )
    sym = (a + a.T) / 2.0
    values, vectors = np.linalg.eigh(sym)
    order = np.argsort(values)[::-1]
    # a C-ordered copy: the GEMMs that read the basis round by operand layout
    return values[order], vectors[:, order].copy()


def eigenbasis(f: KronFactors) -> EigenFactors:
    lam_a, qa = sym_eig(f.a)
    lam_s, qs = sym_eig(f.s)
    return EigenFactors(qa=qa, lam_a=lam_a, qs=qs, lam_s=lam_s)


def inv_psd(m: np.ndarray) -> np.ndarray:
    """Inverse of a PSD factor; singular input raises instead of returning junk."""
    try:
        out = np.linalg.solve(m, np.eye(m.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise SingularityError(f"factor inversion failed: {exc}") from exc
    if not np.all(np.isfinite(out)):
        raise SingularityError("factor inversion produced non-finite entries")
    return out


def _capture_arrays(layer, tape, conv_variant: str):
    """Map a layer's tape onto (accumulator, args) for its factor variant."""
    kind = layer.kind
    if kind == "dense" or kind == "bottleneck_dense":
        return accumulate_dense, (tape["a"], tape["g"])
    if kind == "conv":
        if conv_variant == "channel":
            return accumulate_conv_channel, (tape["x_in"], tape["g"])
        return accumulate_conv, (tape["patches"], tape["g"])
    if kind == "bottleneck_conv":
        return accumulate_conv_channel, (layer.projected(tape["x_in"]), tape["g"])
    raise ValidationError(f"layer kind {kind!r} has no factors")


def estimate_factors(
    net: Network,
    dataset,
    batch_size: int,
    conv_variant: str = "channel",
    max_batches: int | None = None,
    layer_ids=None,
) -> tuple:
    """One deterministic pass over the dataset; returns (factors per
    layer, mean loss).

    conv_variant picks the input factor for plain conv layers ("channel"
    or "full"); bottleneck layers are measured at their core boundary,
    conv bottlenecks always on the channel covariance of the projected
    input.  Every batch is forwarded in order, and the loss is the
    split's mean loss, summed exactly as training.evaluate sums it.  The
    first max_batches batches (all when None) are forwarded with
    capture=True, backpropagated without parameter gradients, which the
    factors never read, and folded into the factors.
    """
    if conv_variant not in ("channel", "full"):
        raise ValidationError(f"unknown conv variant {conv_variant!r}")
    if layer_ids is None:
        layer_ids = net.parameterized_ids()
    n = dataset.n
    stop = n if max_batches is None else min(n, max_batches * batch_size)
    if stop <= 0 or not layer_ids:
        raise StateError("factor estimation needs at least one batch and one layer")
    factors: dict = {}
    total_loss = 0.0
    for start in range(0, n, batch_size):
        xb = dataset.x[start : start + batch_size]
        yb = dataset.y[start : start + batch_size]
        capture = start < stop
        logits = net.forward(xb, capture=capture)
        if not capture:
            total_loss += cross_entropy(logits, yb) * xb.shape[0]
            continue
        loss, _ = net.backward(logits, yb, param_grads=False)
        total_loss += loss * xb.shape[0]
        caps = net.captures()
        for lid in layer_ids:
            fold, args = _capture_arrays(net.layers[lid], caps[lid], conv_variant)
            factors[lid] = fold(factors.get(lid), *args)
    return factors, total_loss / n
