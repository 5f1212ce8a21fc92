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

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ValidationError

SCORE_FLOOR = -1e-8

# Removals per triangular solve and GEMM in obs_sequential_update.
OBS_BLOCK = 64

UNIT_KINDS = ("weight", "filter", "kfe_row", "kfe_col")


@dataclass
class ImportanceEntry:
    layer_id: int
    unit_kind: str
    unit_id: int
    delta_l: float


@dataclass
class ImportanceTable:
    """Scores for one strategy; entries may span several layers."""

    strategy: str
    entries: list = field(default_factory=list)

    def __post_init__(self):
        for e in self.entries:
            if e.unit_kind not in UNIT_KINDS:
                raise ValidationError(f"unknown unit kind {e.unit_kind!r}")
            if not np.isfinite(e.delta_l):
                raise ValidationError("importance scores must be finite")
            if e.delta_l < SCORE_FLOOR:
                raise ValidationError(
                    f"negative importance {e.delta_l} below tolerance floor"
                )

    def scores(self) -> np.ndarray:
        return np.array([e.delta_l for e in self.entries])

    def extend(self, other: "ImportanceTable"):
        if other.strategy != self.strategy:
            raise ValidationError("cannot merge tables from different strategies")
        self.entries.extend(other.entries)


@dataclass
class PruneMask:
    """Removal decisions grouped by (layer_id, unit_kind)."""

    groups: dict
    tau: float
    ratio: float

    def removed(self, layer_id: int, kind: str) -> list:
        return self.groups.get((layer_id, kind), {}).get("removed", [])

    def kept(self, layer_id: int, kind: str) -> list:
        return self.groups.get((layer_id, kind), {}).get("kept", [])


def _table(strategy, layer_id, kind, scores) -> ImportanceTable:
    entries = [
        ImportanceEntry(layer_id, kind, i, float(s)) for i, s in enumerate(scores)
    ]
    return ImportanceTable(strategy=strategy, entries=entries)


def kfac_diag(a_diag: np.ndarray, s_diag: np.ndarray) -> np.ndarray:
    """Per-weight curvature diagonal in column-major order: d[j*n+i] = s_j * a_i."""
    return np.kron(s_diag, a_diag)


def obd_scores(layer_id: int, theta: np.ndarray, h_diag: np.ndarray) -> ImportanceTable:
    """Saliency without compensation: 0.5 * theta_q^2 * H_qq."""
    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
    h_diag = np.asarray(h_diag, dtype=np.float64).reshape(-1)
    if theta.shape != h_diag.shape:
        raise DimensionError("theta and curvature diagonal disagree")
    return _table("obd", layer_id, "weight", 0.5 * theta ** 2 * h_diag)


def obs_scores(layer_id: int, theta: np.ndarray, h_inv_diag: np.ndarray) -> ImportanceTable:
    """Saliency with optimal compensation: 0.5 * theta_q^2 / [H^-1]_qq."""
    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
    h_inv_diag = np.asarray(h_inv_diag, dtype=np.float64).reshape(-1)
    if theta.shape != h_inv_diag.shape:
        raise DimensionError("theta and inverse diagonal disagree")
    return _table("obs", layer_id, "weight", 0.5 * theta ** 2 / h_inv_diag)


def obs_scores_and_update(layer_id: int, theta: np.ndarray, h_inv: np.ndarray, q: int):
    """Scores for all weights plus the compensated update for removing q.

    The update is d = -(theta_q / [H^-1]_qq) * H^-1 e_q, which zeroes
    coordinate q exactly and adjusts the rest to minimize the quadratic
    loss increase.
    """
    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
    h_inv = np.asarray(h_inv, dtype=np.float64)
    if h_inv.shape != (theta.size, theta.size):
        raise DimensionError("inverse curvature shape mismatch")
    if not 0 <= q < theta.size:
        raise ValidationError(f"prune index {q} out of range")
    table = obs_scores(layer_id, theta, np.diag(h_inv))
    dtheta = -(theta[q] / h_inv[q, q]) * h_inv[:, q]
    return table, dtheta


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
    sizes, then one GEMM to apply them.
    """
    out = np.array(w, dtype=np.float64)
    a_inv = np.asarray(a_inv, dtype=np.float64)
    s_inv = np.asarray(s_inv, dtype=np.float64)
    order = np.asarray(order, dtype=np.intp)
    rows, cols = order % out.shape[0], order // out.shape[0]
    for start in range(0, rows.size, OBS_BLOCK):
        r = rows[start : start + OBS_BLOCK]
        c = cols[start : start + OBS_BLOCK]
        tri = np.tril(a_inv[np.ix_(r, r)] * s_inv[np.ix_(c, c)].T)
        alpha = np.linalg.solve(tri, out[r, c])
        out -= a_inv[:, r] @ (alpha[:, None] * s_inv[c, :])
    out[rows, cols] = 0.0
    return out


def c_obd_scores(
    layer_id: int, w: np.ndarray, a_diag: np.ndarray, s_diag: np.ndarray
) -> ImportanceTable:
    """Filter scores as within-filter sums of weight-level OBD saliencies."""
    w = np.asarray(w, dtype=np.float64)
    scores = 0.5 * s_diag * np.einsum("nm,n->m", w ** 2, a_diag)
    return _table("c_obd", layer_id, "filter", scores)


def c_obs_scores(
    layer_id: int, w: np.ndarray, a_inv_diag: np.ndarray, s_inv_diag: np.ndarray
) -> ImportanceTable:
    """Filter scores as within-filter sums of weight-level OBS saliencies.

    The weight-level inverse diagonal is the Kronecker product of the two
    factor inverse diagonals.
    """
    w = np.asarray(w, dtype=np.float64)
    scores = 0.5 / s_inv_diag * np.einsum("nm,n->m", w ** 2, 1.0 / a_inv_diag)
    return _table("c_obs", layer_id, "filter", scores)


def kron_obd_scores(
    layer_id: int, w: np.ndarray, a: np.ndarray, s: np.ndarray
) -> ImportanceTable:
    """Whole-filter saliency without compensation: 0.5 * S_ii * w_i.T A w_i."""
    w = np.asarray(w, dtype=np.float64)
    quad = np.einsum("nm,nk,km->m", w, a, w)
    return _table("kron_obd", layer_id, "filter", 0.5 * np.diag(s) * quad)


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
    table = _table("kron_obs", layer_id, "filter", 0.5 * quad / np.diag(s_inv))

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


def eigendamage_scores(
    layer_id: int, w_prime: np.ndarray, lam_a: np.ndarray, lam_s: np.ndarray
):
    """Row and column scores of the rotated weight under the diagonal curvature.

    Entry (i, j) carries w'_ij^2 * lam_a_i * lam_s_j (no 0.5 factor);
    rows sum over columns (and kernel offsets for conv cores), columns
    over rows.  Tiny negative eigenvalues from roundoff are clamped.
    """
    w_prime = np.asarray(w_prime, dtype=np.float64)
    la = np.clip(np.asarray(lam_a, dtype=np.float64), 0.0, None)
    ls = np.clip(np.asarray(lam_s, dtype=np.float64), 0.0, None)
    if w_prime.ndim == 2:
        theta = w_prime ** 2 * la[:, None] * ls[None, :]
        row = theta.sum(axis=1)
        col = theta.sum(axis=0)
    elif w_prime.ndim == 3:
        theta = w_prime ** 2 * la[:, None, None] * ls[None, :, None]
        row = theta.sum(axis=(1, 2))
        col = theta.sum(axis=(0, 2))
    else:
        raise DimensionError("rotated weight must be 2-D or 3-D")
    return (
        _table("eigendamage", layer_id, "kfe_row", row),
        _table("eigendamage", layer_id, "kfe_col", col),
    )


def select_mask(tables, ratio: float, cap: float) -> PruneMask:
    """Global threshold selection with a hard per-group removal cap.

    The threshold tau is the nearest-rank ratio-percentile of the pooled
    scores.  Units scoring <= tau are removal candidates; within each
    (layer, kind) group at most floor(cap * group_size) are removed,
    lowest score first, ties broken by lower unit id.  Candidates rescued
    by the cap are the group's highest-scoring ones.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValidationError(f"ratio must lie in [0, 1], got {ratio}")
    if not 0.0 < cap <= 1.0:
        raise ValidationError(f"cap must lie in (0, 1], got {cap}")
    entries = []
    for t in tables:
        entries.extend(t.entries)
    if not entries:
        raise ValidationError("no importance entries to select from")
    pooled = np.sort(np.array([e.delta_l for e in entries]))
    rank = int(np.ceil(ratio * pooled.size))
    if rank < 1:
        tau = -np.inf
    else:
        tau = float(pooled[rank - 1])
    by_group: dict = {}
    for e in entries:
        by_group.setdefault((e.layer_id, e.unit_kind), []).append(e)
    groups = {}
    for key in sorted(by_group):
        members = by_group[key]
        total = len(members)
        budget = int(np.floor(cap * total))
        candidates = sorted(
            (e for e in members if e.delta_l <= tau),
            key=lambda e: (e.delta_l, e.unit_id),
        )
        removed = sorted(e.unit_id for e in candidates[:budget])
        removed_set = set(removed)
        kept = sorted(e.unit_id for e in members if e.unit_id not in removed_set)
        groups[key] = {"removed": removed, "kept": kept, "total": total}
    return PruneMask(groups=groups, tau=tau, ratio=ratio)
