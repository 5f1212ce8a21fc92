"""Importance scoring and global mask selection.

Score conventions follow the second-order saliency family: a unit's
delta_l is the predicted loss increase of removing it.  Weight-level
scores use the curvature diagonal (no compensation) or the inverse
diagonal (with optimal compensation); filter-level scores either sum
weight scores within a filter or use the whole-filter quadratic form;
eigenbasis scores are entries of the rotated weight squared times the
factor eigenvalue products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, ValidationError

SCORE_FLOOR = -1e-8

# Removals per triangular solve and GEMM in obs_sequential_update.
OBS_BLOCK = 64

# Entries of an OBS_BLOCK-square block that np.tril would zero.
_OBS_UPPER = np.triu(np.ones((OBS_BLOCK, OBS_BLOCK), dtype=bool), 1)
_OBS_UPPER.flags.writeable = False

UNIT_KINDS = ("weight", "filter", "kfe_row", "kfe_col")


class ImportanceEntry(NamedTuple):
    layer_id: int
    unit_kind: str
    unit_id: int
    delta_l: float


@dataclass(eq=False)
class ImportanceTable:
    """Scores of one (layer_id, unit_kind) group under one strategy: unit
    i scores delta_l[i]."""

    strategy: str
    layer_id: int
    unit_kind: str
    delta_l: np.ndarray

    def __post_init__(self):
        if self.unit_kind not in UNIT_KINDS:
            raise ValidationError(f"unknown unit kind {self.unit_kind!r}")
        self.delta_l = np.asarray(self.delta_l, dtype=np.float64)
        if not np.isfinite(self.delta_l).all():
            raise ValidationError("importance scores must be finite")
        low = self.delta_l[self.delta_l < SCORE_FLOOR]
        if low.size:
            raise ValidationError(f"negative importance {low[0]} below tolerance floor")

    @property
    def entries(self) -> list:
        """One ImportanceEntry per unit, in unit id order, built on demand."""
        return [
            ImportanceEntry(self.layer_id, self.unit_kind, i, s)
            for i, s in enumerate(self.delta_l.tolist())
        ]


@dataclass
class PruneMask:
    """Removal decisions grouped by (layer_id, unit_kind).

    Each group maps to {"removed": sorted unit ids, "total": unit count}.
    """

    groups: dict
    tau: float

    def removed(self, layer_id: int, kind: str) -> list:
        return self.groups.get((layer_id, kind), {}).get("removed", [])


def kfac_diag(a_diag: np.ndarray, s_diag: np.ndarray) -> np.ndarray:
    """Per-weight curvature diagonal in column-major order: d[j*n+i] = s_j * a_i."""
    return np.kron(s_diag, a_diag)


def obd_scores(layer_id: int, theta: np.ndarray, h_diag: np.ndarray) -> ImportanceTable:
    """Saliency without compensation: 0.5 * theta_q^2 * H_qq."""
    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
    h_diag = np.asarray(h_diag, dtype=np.float64).reshape(-1)
    if theta.shape != h_diag.shape:
        raise DimensionError("theta and curvature diagonal disagree")
    return ImportanceTable("obd", layer_id, "weight", 0.5 * theta ** 2 * h_diag)


def obs_scores(layer_id: int, theta: np.ndarray, h_inv_diag: np.ndarray) -> ImportanceTable:
    """Saliency with optimal compensation: 0.5 * theta_q^2 / [H^-1]_qq."""
    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
    h_inv_diag = np.asarray(h_inv_diag, dtype=np.float64).reshape(-1)
    if theta.shape != h_inv_diag.shape:
        raise DimensionError("theta and inverse diagonal disagree")
    return ImportanceTable("obs", layer_id, "weight", 0.5 * theta ** 2 / h_inv_diag)


def obs_sequential_update(
    w: np.ndarray, a_inv: np.ndarray, s_inv: np.ndarray, order
) -> np.ndarray:
    """Compensated removal of several weights under H^-1 = S^-1 (x) A^-1.

    `order` lists flat column-major weight indices q = c*n + r.  Weights
    are removed one at a time in that order: each removal subtracts
    (w_rc / (a_inv_rr * s_inv_cc)) * a_inv[:, r] outer s_inv[c, :] using
    the current weights.  Removals are then hard-zeroed.

    Removal k sees earlier steps only through [H^-1]_{q_k q_j}, so the step
    sizes solve a forward substitution with tril([H^-1]_QQ).  It runs in
    blocks of OBS_BLOCK removals: one triangular solve for a block's step
    sizes, then one GEMM to apply them.  Columns a_inv[:, r] are read as
    rows of one transposed copy, a contiguous gather per block.
    """
    out = np.array(w, dtype=np.float64)
    a_inv_t = np.ascontiguousarray(np.asarray(a_inv, dtype=np.float64).T)
    s_inv = np.asarray(s_inv, dtype=np.float64)
    order = np.asarray(order, dtype=np.intp)
    rows, cols = order % out.shape[0], order // out.shape[0]
    for start in range(0, rows.size, OBS_BLOCK):
        r = rows[start : start + OBS_BLOCK]
        c = cols[start : start + OBS_BLOCK]
        # tril of [H^-1]_QQ: entry (i, j) is a_inv[r_i, r_j] * s_inv[c_j, c_i]
        tri = a_inv_t[r, r[:, None]] * s_inv[c, c[:, None]]
        tri[_OBS_UPPER[: r.size, : r.size]] = 0.0
        alpha = np.linalg.solve(tri, out[r, c])
        steps = s_inv[c, :]
        steps *= alpha[:, None]
        out -= a_inv_t[r].T @ steps
    out[rows, cols] = 0.0
    return out


def c_obd_scores(
    layer_id: int, w: np.ndarray, a_diag: np.ndarray, s_diag: np.ndarray
) -> ImportanceTable:
    """Filter scores as within-filter sums of weight-level OBD saliencies."""
    w = np.asarray(w, dtype=np.float64)
    scores = 0.5 * s_diag * np.einsum("nm,n->m", w ** 2, a_diag)
    return ImportanceTable("c_obd", layer_id, "filter", scores)


def c_obs_scores(
    layer_id: int, w: np.ndarray, a_inv_diag: np.ndarray, s_inv_diag: np.ndarray
) -> ImportanceTable:
    """Filter scores as within-filter sums of weight-level OBS saliencies.

    The weight-level inverse diagonal is the Kronecker product of the two
    factor inverse diagonals.
    """
    w = np.asarray(w, dtype=np.float64)
    scores = 0.5 / s_inv_diag * np.einsum("nm,n->m", w ** 2, 1.0 / a_inv_diag)
    return ImportanceTable("c_obs", layer_id, "filter", scores)


def kron_obd_scores(
    layer_id: int, w: np.ndarray, a: np.ndarray, s: np.ndarray
) -> ImportanceTable:
    """Whole-filter saliency without compensation: 0.5 * S_ii * w_i.T A w_i."""
    w = np.asarray(w, dtype=np.float64)
    quad = np.einsum("nm,nk,km->m", w, a, w)
    return ImportanceTable("kron_obd", layer_id, "filter", 0.5 * np.diag(s) * quad)


def kron_obs_scores_and_update(
    layer_id: int, w: np.ndarray, a: np.ndarray, s_inv: np.ndarray
):
    """Whole-filter saliency with cross-filter compensation.

    Scores are 0.5 * w_i.T A w_i / [S^-1]_ii.  The returned update
    function applies the compensated removal for a set of filters: each
    removal adds -(w_i / [S^-1]_ii) outer [S^-1 row i] using the current
    weights, sequentially in ascending filter order, then hard-zeroes the
    removed columns (later updates re-touch earlier zeroed columns with
    second-order residue).  The sequence is applied as one forward
    substitution with tril([S^-1]_QQ) and one GEMM.
    """
    w = np.asarray(w, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    s_inv = np.asarray(s_inv, dtype=np.float64)
    quad = np.einsum("nm,nk,km->m", w, a, w)
    table = ImportanceTable("kron_obs", layer_id, "filter", 0.5 * quad / np.diag(s_inv))

    def update(removed_ids) -> np.ndarray:
        # step sizes of the sequential removals: forward substitution with
        # tril of [S^-1]_QQ, as filter k sees the earlier steps through
        # s_inv[i_j, i_k]
        q = np.sort(np.asarray(removed_ids, dtype=np.intp))
        tri = np.tril(s_inv[np.ix_(q, q)].T)
        alpha = np.linalg.solve(tri, w[:, q].T)
        out = w - alpha.T @ s_inv[q, :]
        out[:, q] = 0.0
        return out

    return table, update


def kfe_energy(w_prime: np.ndarray, lam_a: np.ndarray, lam_s: np.ndarray) -> np.ndarray:
    """Entries w'_ij^2 * lam_a_i * lam_s_j of a rotated weight, the 2-D
    dense core or the (ra, rc, k*k) conv core (per kernel offset).  Tiny
    negative eigenvalues from roundoff are clamped to zero."""
    w_prime = np.asarray(w_prime, dtype=np.float64)
    la = np.clip(np.asarray(lam_a, dtype=np.float64), 0.0, None)
    ls = np.clip(np.asarray(lam_s, dtype=np.float64), 0.0, None)
    if w_prime.ndim == 2:
        return w_prime ** 2 * la[:, None] * ls[None, :]
    if w_prime.ndim == 3:
        return w_prime ** 2 * la[:, None, None] * ls[None, :, None]
    raise DimensionError("rotated weight must be 2-D or 3-D")


def eigendamage_scores(
    layer_id: int, w_prime: np.ndarray, lam_a: np.ndarray, lam_s: np.ndarray
):
    """Row and column scores of the rotated weight under the diagonal curvature.

    Entry (i, j) carries its kfe_energy (no 0.5 factor); rows sum over
    columns (and kernel offsets for conv cores), columns over rows.
    """
    theta = kfe_energy(w_prime, lam_a, lam_s)
    offsets = tuple(range(2, theta.ndim))
    return (
        ImportanceTable("eigendamage", layer_id, "kfe_row", theta.sum(axis=(1,) + offsets)),
        ImportanceTable("eigendamage", layer_id, "kfe_col", theta.sum(axis=(0,) + offsets)),
    )


def select_mask(tables, ratio: float, cap: float) -> PruneMask:
    """Global threshold selection with a hard per-group removal cap.

    The threshold tau is the ceil(ratio * n)-th smallest pooled score.
    Units scoring <= tau are removal candidates; within each (layer,
    kind) group at most floor(cap * group_size) are removed, lowest score
    first, ties broken by lower unit id.  Candidates rescued by the cap
    are the group's highest-scoring ones.  Both products are exact, of
    the decimals ratio and cap print as: 0.55 of 100 units is 55.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValidationError(f"ratio must lie in [0, 1], got {ratio}")
    if not 0.0 < cap <= 1.0:
        raise ValidationError(f"cap must lie in (0, 1], got {cap}")
    ratio, cap = (Fraction(repr(float(v))) for v in (ratio, cap))
    by_group = {(t.layer_id, t.unit_kind): t.delta_l for t in tables}
    if len(by_group) < len(tables):
        raise ValidationError("two importance tables for one layer and unit kind")
    pooled = np.concatenate(list(by_group.values()) or [np.empty(0)])
    if not pooled.size:
        raise ValidationError("no importance entries to select from")
    rank = math.ceil(ratio * pooled.size)
    tau = float(np.partition(pooled, rank - 1)[rank - 1]) if rank >= 1 else -np.inf
    groups = {}
    for key in sorted(by_group):
        scores = by_group[key]
        budget = math.floor(cap * scores.size)
        candidates = np.flatnonzero(scores <= tau)
        # a stable sort keeps ascending ids among equal scores
        removed = candidates[np.argsort(scores[candidates], kind="stable")[:budget]]
        groups[key] = {"removed": np.sort(removed).tolist(), "total": scores.size}
    return PruneMask(groups=groups, tau=tau)
