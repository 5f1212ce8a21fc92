"""Tests for saliency scoring and mask selection."""

import math
from fractions import Fraction

import numpy as np
import pytest

from kfeprune import criteria, oracle
from kfeprune.criteria import ImportanceEntry, ImportanceTable
from kfeprune.errors import ValidationError
from kfeprune.oracle import kron

THETA = np.array([1.0, 1.0, 1.0])
HESS = np.array([[1.0, 0.99, 0.0], [0.99, 1.0, 0.01], [0.0, 0.01, 0.5]])


def random_spd(rng, dim, floor=0.1):
    m = rng.standard_normal((dim, dim))
    return m @ m.T + floor * np.eye(dim)


def test_obd_worked_example():
    table = criteria.obd_scores(0, THETA, np.diag(HESS))
    np.testing.assert_allclose(table.delta_l, [0.5, 0.5, 0.25], atol=1e-12)
    assert int(np.argmin(table.delta_l)) == 2
    assert all(e.unit_kind == "weight" for e in table.entries)


def test_obd_zero_weight_scores_zero():
    table = criteria.obd_scores(0, np.array([0.0, 2.0]), np.array([5.0, 1.0]))
    np.testing.assert_allclose(table.delta_l, [0.0, 2.0])


def test_obs_equals_obd_for_diagonal_curvature():
    diag = np.array([2.0, 3.0, 4.0])
    theta = np.array([1.0, -2.0, 0.5])
    np.testing.assert_allclose(
        criteria.obs_scores(0, theta, 1.0 / diag).delta_l,
        criteria.obd_scores(0, theta, diag).delta_l,
        atol=1e-12,
    )


def test_obs_scores_match_exact_prune_cost():
    rng = np.random.default_rng(0)
    h = random_spd(rng, 5)
    theta = rng.standard_normal(5)
    h_inv = np.linalg.inv(h)
    scores = criteria.obs_scores(0, theta, np.diag(h_inv)).delta_l
    for q in range(5):
        _, dl = oracle.exact_single_prune(theta, h, q)
        np.testing.assert_allclose(scores[q], dl, atol=1e-10)


def test_obs_update_zeroes_target_and_prices_correctly():
    rng = np.random.default_rng(1)
    h = random_spd(rng, 4)
    theta = rng.standard_normal(4)
    h_inv = np.linalg.inv(h)
    table, dtheta = oracle.obs_scores_and_update(0, theta, h_inv, 2)
    assert abs(theta[2] + dtheta[2]) <= 1e-12
    np.testing.assert_allclose(0.5 * (dtheta @ h @ dtheta), table.delta_l[2], atol=1e-10)
    ref, _ = oracle.exact_single_prune(theta, h, 2)
    np.testing.assert_allclose(dtheta, ref, atol=1e-10)


def test_obs_update_validation():
    with pytest.raises(ValidationError):
        oracle.obs_scores_and_update(0, THETA, np.linalg.inv(HESS), 3)


def test_kfac_diag_ordering_matches_kron():
    rng = np.random.default_rng(2)
    a = random_spd(rng, 3)
    s = random_spd(rng, 2)
    diag = criteria.kfac_diag(np.diag(a), np.diag(s))
    np.testing.assert_allclose(diag, np.diag(kron(s, a)), atol=1e-12)


def test_structured_obd_single_filter_matches_weight_level():
    rng = np.random.default_rng(3)
    a_diag = rng.uniform(0.5, 2.0, 4)
    s_diag = np.array([1.7])
    w = rng.standard_normal((4, 1))
    col = criteria.c_obd_scores(0, w, a_diag, s_diag).delta_l
    flat = criteria.obd_scores(0, w[:, 0], criteria.kfac_diag(a_diag, s_diag)).delta_l
    np.testing.assert_allclose(col[0], flat.sum(), atol=1e-12)


def test_structured_scores_identity_factors():
    rng = np.random.default_rng(4)
    w = rng.standard_normal((3, 2))
    half_norms = 0.5 * (w**2).sum(axis=0)
    np.testing.assert_allclose(
        criteria.c_obd_scores(0, w, np.ones(3), np.ones(2)).delta_l,
        half_norms,
        atol=1e-12,
    )
    np.testing.assert_allclose(
        criteria.c_obs_scores(0, w, np.ones(3), np.ones(2)).delta_l,
        half_norms,
        atol=1e-12,
    )
    np.testing.assert_allclose(
        criteria.kron_obd_scores(0, w, np.eye(3), np.eye(2)).delta_l,
        half_norms,
        atol=1e-12,
    )
    table, _ = criteria.kron_obs_scores_and_update(0, w, np.eye(3), np.eye(2))
    np.testing.assert_allclose(table.delta_l, half_norms, atol=1e-12)


def test_c_obs_matches_kron_inverse_diagonal():
    # the filter score sums 0.5 w_q^2 / [(S (x) A)^{-1}]_qq over its column
    rng = np.random.default_rng(5)
    a = random_spd(rng, 3)
    s = random_spd(rng, 2)
    w = rng.standard_normal((3, 2))
    inv_diag = np.diag(kron(np.linalg.inv(s), np.linalg.inv(a)))
    per_weight = 0.5 * w.reshape(-1, order="F") ** 2 / inv_diag
    ref = per_weight.reshape((3, 2), order="F").sum(axis=0)
    got = criteria.c_obs_scores(
        0, w, np.diag(np.linalg.inv(a)), np.diag(np.linalg.inv(s))
    ).delta_l
    np.testing.assert_allclose(got, ref, atol=1e-12)


def test_kron_obd_diagonal_input_factor_matches_c_obd():
    rng = np.random.default_rng(6)
    a_diag = rng.uniform(0.5, 2.0, 4)
    s = random_spd(rng, 3)
    w = rng.standard_normal((4, 3))
    np.testing.assert_allclose(
        criteria.kron_obd_scores(0, w, np.diag(a_diag), s).delta_l,
        criteria.c_obd_scores(0, w, a_diag, np.diag(s)).delta_l,
        atol=1e-12,
    )


def test_kron_obd_is_half_quadratic_per_filter():
    rng = np.random.default_rng(7)
    a = random_spd(rng, 4)
    s = random_spd(rng, 3)
    w = rng.standard_normal((4, 3))
    scores = criteria.kron_obd_scores(0, w, a, s).delta_l
    for j in range(3):
        ref = 0.5 * s[j, j] * (w[:, j] @ a @ w[:, j])
        np.testing.assert_allclose(scores[j], ref, atol=1e-12)


def test_kron_obd_trace_identity():
    # summing the per-filter quadratics equals 0.5 tr(diag(S) W.T A W)
    rng = np.random.default_rng(8)
    a = random_spd(rng, 5)
    s = random_spd(rng, 4)
    w = rng.standard_normal((5, 4))
    total = criteria.kron_obd_scores(0, w, a, s).delta_l.sum()
    ref = 0.5 * np.trace(np.diag(np.diag(s)) @ w.T @ a @ w)
    np.testing.assert_allclose(total, ref, atol=1e-12)


def test_kron_obs_scalar_input_factor_matches_exact_prune():
    # fan_in 1 makes each filter a single weight, so the structured score
    # must reproduce the exact one-weight result on F = S (x) A
    rng = np.random.default_rng(10)
    s = random_spd(rng, 3)
    a = np.array([[1.3]])
    w = rng.standard_normal((1, 3))
    fisher = kron(s, a)
    theta = w.reshape(-1, order="F")
    table, _ = criteria.kron_obs_scores_and_update(0, w, a, np.linalg.inv(s))
    for j in range(3):
        _, dl = oracle.exact_single_prune(theta, fisher, j)
        np.testing.assert_allclose(table.delta_l[j], dl, atol=1e-10)


def test_kron_obs_single_update_cost_matches_score():
    # dual route: the applied update's quadratic cost under S (x) A equals
    # the advertised saliency, and the removed column lands exactly at zero
    rng = np.random.default_rng(11)
    a = random_spd(rng, 4)
    s = random_spd(rng, 3)
    w = rng.standard_normal((4, 3))
    table, update = criteria.kron_obs_scores_and_update(0, w, a, np.linalg.inv(s))
    new_w = update([1])
    np.testing.assert_allclose(new_w[:, 1], 0.0, atol=1e-12)
    assert not np.allclose(new_w[:, 0], w[:, 0])
    dw = new_w - w
    cost = 0.5 * np.trace(dw.T @ a @ dw @ s)
    np.testing.assert_allclose(cost, table.delta_l[1], atol=1e-10)


def test_kron_obs_multi_update_zeroes_all_removed():
    rng = np.random.default_rng(12)
    a = random_spd(rng, 4)
    s = random_spd(rng, 4)
    w = rng.standard_normal((4, 4))
    _, update = criteria.kron_obs_scores_and_update(0, w, a, np.linalg.inv(s))
    new_w = update([2, 0])
    np.testing.assert_allclose(new_w[:, [0, 2]], 0.0, atol=1e-12)


BLOCK = criteria.OBS_BLOCK
REMOVAL_COUNTS = [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5]


def spd_with_condition(rng, dim, cond):
    """Random SPD matrix with eigenvalues spread log-evenly over [1/cond, 1]."""
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return (basis * np.logspace(-np.log10(cond), 0.0, dim)) @ basis.T


def kron_obs_rank1_loop(w, s_inv, removed_ids):
    """Reference for the kron-obs update: one rank-1 step per removed
    filter in ascending order, then the hard zero."""
    out = w.copy()
    for i in sorted(removed_ids):
        out += -np.outer(out[:, i] / s_inv[i, i], s_inv[i, :])
    out[:, removed_ids] = 0.0
    return out


def assert_matches_loop(got, ref, removed):
    np.testing.assert_array_equal(got[removed], 0.0)
    assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("cond", [1e2, 1e4])
@pytest.mark.parametrize("count", REMOVAL_COUNTS)
def test_obs_sequential_update_matches_rank1_loop(obs_loop, count, cond):
    rng = np.random.default_rng(count + int(cond))
    n, m = 16, 20
    a_inv = np.linalg.inv(spd_with_condition(rng, n, cond))
    s_inv = np.linalg.inv(spd_with_condition(rng, m, cond))
    w = rng.standard_normal((n, m))
    # a random subset in shuffled order: removals share rows and columns
    order = rng.permutation(n * m)[:count]
    got = criteria.obs_sequential_update(w, a_inv, s_inv, order)
    ref = obs_loop(w, a_inv, s_inv, order)
    removed = np.zeros((n, m), dtype=bool)
    removed.reshape(-1, order="F")[order] = True
    assert_matches_loop(got, ref, removed)


def obs_block_allocating(w, a_inv, s_inv, order):
    """obs_sequential_update as first blocked: each block gathers
    tril([H^-1]_QQ) through np.ix_ and np.tril, its a_inv columns by a
    strided gather, and scales a fresh copy of its s_inv rows."""
    out = np.array(w, dtype=np.float64)
    order = np.asarray(order, dtype=np.intp)
    rows, cols = order % out.shape[0], order // out.shape[0]
    for start in range(0, rows.size, BLOCK):
        r = rows[start : start + BLOCK]
        c = cols[start : start + BLOCK]
        tri = np.tril(a_inv[np.ix_(r, r)] * s_inv[np.ix_(c, c)].T)
        alpha = np.linalg.solve(tri, out[r, c])
        out -= a_inv[:, r] @ (alpha[:, None] * s_inv[c, :])
    out[rows, cols] = 0.0
    return out


@pytest.mark.parametrize("count", [BLOCK - 1, 2 * BLOCK + 22])
def test_obs_sequential_update_is_bitwise_the_allocating_block(count):
    """The broadcast gathers, the strict-upper mask, the transposed copy
    of a_inv and the in-place row scaling change no bit.  The inverses
    come from a solve, so they are not exactly symmetric, and a gather
    that read a_inv transposed would show."""
    rng = np.random.default_rng(count)
    n, m = 24, 30
    a_inv = np.linalg.solve(spd_with_condition(rng, n, 1e3), np.eye(n))
    s_inv = np.linalg.solve(spd_with_condition(rng, m, 1e3), np.eye(m))
    assert not np.array_equal(a_inv, a_inv.T) and not np.array_equal(s_inv, s_inv.T)
    w = rng.standard_normal((n, m))
    order = rng.permutation(n * m)[:count]
    got = criteria.obs_sequential_update(w, a_inv, s_inv, order)
    want = obs_block_allocating(w, a_inv, s_inv, order)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_obs_sequential_update_single_removal_matches_obs_update():
    # one removal is the textbook OBS step on H^-1 = S^-1 (x) A^-1
    rng = np.random.default_rng(22)
    a_inv = np.linalg.inv(random_spd(rng, 4))
    s_inv = np.linalg.inv(random_spd(rng, 3))
    w = rng.standard_normal((4, 3))
    theta = w.reshape(-1, order="F")
    _, dtheta = oracle.obs_scores_and_update(0, theta, kron(s_inv, a_inv), 7)
    got = criteria.obs_sequential_update(w, a_inv, s_inv, [7])
    np.testing.assert_allclose(got.reshape(-1, order="F"), theta + dtheta, atol=1e-12)


@pytest.mark.parametrize("cond", [1e2, 1e4])
@pytest.mark.parametrize("count", REMOVAL_COUNTS)
def test_kron_obs_update_matches_rank1_loop(count, cond):
    rng = np.random.default_rng(100 + count + int(cond))
    n, m = 6, 3 * BLOCK + 9
    a = spd_with_condition(rng, n, cond)
    s_inv = np.linalg.inv(spd_with_condition(rng, m, cond))
    w = rng.standard_normal((n, m))
    removed = [int(i) for i in rng.permutation(m)[:count]]
    _, update = criteria.kron_obs_scores_and_update(0, w, a, s_inv)
    ref = kron_obs_rank1_loop(w, s_inv, removed)
    assert_matches_loop(update(removed), ref, (slice(None), removed))


def test_eigendamage_scores_no_half_factor():
    lam_a = np.ones(2)
    lam_s = np.ones(3)
    w2 = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    rows, cols = criteria.eigendamage_scores(0, w2, lam_a, lam_s)
    np.testing.assert_allclose(rows.delta_l, (w2**2).sum(axis=1), atol=1e-12)
    np.testing.assert_allclose(cols.delta_l, (w2**2).sum(axis=0), atol=1e-12)
    assert all(e.unit_kind == "kfe_row" for e in rows.entries)
    assert all(e.unit_kind == "kfe_col" for e in cols.entries)


def test_eigendamage_zero_basis_weights_score_zero():
    rows, cols = criteria.eigendamage_scores(0, np.zeros((3, 2)), np.ones(3), np.ones(2))
    np.testing.assert_allclose(rows.delta_l, 0.0)
    np.testing.assert_allclose(cols.delta_l, 0.0)


def test_eigendamage_matches_per_entry_loop():
    rng = np.random.default_rng(13)
    lam_a = rng.uniform(0.1, 2.0, 4)
    lam_s = rng.uniform(0.1, 2.0, 3)
    w2 = rng.standard_normal((4, 3))
    rows, cols = criteria.eigendamage_scores(0, w2, lam_a, lam_s)
    row_ref = np.zeros(4)
    col_ref = np.zeros(3)
    for i in range(4):
        for j in range(3):
            contrib = w2[i, j] ** 2 * lam_a[i] * lam_s[j]
            row_ref[i] += contrib
            col_ref[j] += contrib
    np.testing.assert_allclose(rows.delta_l, row_ref, atol=1e-12)
    np.testing.assert_allclose(cols.delta_l, col_ref, atol=1e-12)


def test_eigendamage_conv_core_sums_kernel_offsets():
    rng = np.random.default_rng(14)
    lam_a = rng.uniform(0.1, 2.0, 3)
    lam_s = rng.uniform(0.1, 2.0, 2)
    core = rng.standard_normal((3, 2, 4))
    rows, cols = criteria.eigendamage_scores(0, core, lam_a, lam_s)
    np.testing.assert_allclose(
        rows.delta_l, np.einsum("ijk,i,j->i", core**2, lam_a, lam_s), atol=1e-12
    )
    np.testing.assert_allclose(
        cols.delta_l, np.einsum("ijk,i,j->j", core**2, lam_a, lam_s), atol=1e-12
    )


def test_eigendamage_clamps_negative_eigenvalues():
    rows, cols = criteria.eigendamage_scores(
        0, np.ones((2, 2)), np.array([1.0, -1e-9]), np.ones(2)
    )
    assert np.all(rows.delta_l >= 0.0)
    assert np.all(cols.delta_l >= 0.0)


def test_importance_table_validation():
    with pytest.raises(ValidationError, match="unknown unit kind 'bogus'"):
        ImportanceTable("obd", 0, "bogus", np.array([0.5]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError, match="must be finite"):
            ImportanceTable("obd", 0, "weight", np.array([0.5, bad, -1.0]))
    with pytest.raises(ValidationError, match="negative importance -1.0 below tolerance floor"):
        ImportanceTable("obd", 0, "weight", np.array([0.5, -1.0, -2.0]))
    # tiny negatives from roundoff stay above the floor
    ImportanceTable("obd", 0, "weight", np.array([-1e-9]))


def test_importance_table_entries_view():
    table = ImportanceTable("c_obd", 3, "filter", np.array([0.5, 0.0]))
    assert table.entries == [
        ImportanceEntry(3, "filter", 0, 0.5),
        ImportanceEntry(3, "filter", 1, 0.0),
    ]
    e = table.entries[0]
    assert (type(e.layer_id), type(e.unit_id), type(e.delta_l)) == (int, int, float)


def test_select_mask_ratio_zero_removes_nothing(kept):
    table = criteria.obd_scores(0, np.arange(1.0, 5.0), np.ones(4))
    mask = criteria.select_mask([table], ratio=0.0, cap=1.0)
    assert mask.removed(0, "weight") == []
    assert kept(mask, 0, "weight") == [0, 1, 2, 3]


def test_select_mask_threshold_is_nearest_rank():
    table = ImportanceTable("c_obd", 0, "filter", np.array([1.0, 2.0, 3.0, 4.0]))
    mask = criteria.select_mask([table], ratio=0.5, cap=1.0)
    assert mask.tau == 2.0
    assert mask.removed(0, "filter") == [0, 1]


def test_select_mask_uniform_scores_cap_and_tie_break(kept):
    # all scores equal: the threshold admits everything and the cap keeps
    # only the lowest unit ids
    table = ImportanceTable("c_obd", 0, "filter", np.ones(10))
    mask = criteria.select_mask([table], ratio=0.9, cap=0.5)
    assert mask.removed(0, "filter") == [0, 1, 2, 3, 4]
    assert kept(mask, 0, "filter") == [5, 6, 7, 8, 9]


def test_select_mask_global_threshold_pools_layers(kept):
    low = ImportanceTable("c_obd", 0, "filter", np.array([1.0, 2.0, 3.0, 4.0]))
    high = ImportanceTable("c_obd", 2, "filter", np.array([10.0, 20.0, 30.0, 40.0]))
    mask = criteria.select_mask([low, high], ratio=0.5, cap=1.0)
    assert mask.removed(0, "filter") == [0, 1, 2, 3]
    assert mask.removed(2, "filter") == []
    assert kept(mask, 2, "filter") == [0, 1, 2, 3]


def select_mask_reference(tables, ratio, cap):
    """The selection rule one unit at a time: pool every entry, take the
    nearest-rank tau, then remove each group's candidates lowest
    (score, unit id) first up to floor(cap * group size), both products
    taken exactly from the decimals ratio and cap print as."""
    ratio, cap = Fraction(repr(ratio)), Fraction(repr(cap))
    entries = [e for t in tables for e in t.entries]
    pooled = sorted(e.delta_l for e in entries)
    rank = math.ceil(ratio * len(pooled))
    tau = pooled[rank - 1] if rank >= 1 else -math.inf
    by_group = {}
    for e in entries:
        by_group.setdefault((e.layer_id, e.unit_kind), []).append(e)
    groups = {}
    for key, members in sorted(by_group.items()):
        candidates = sorted(
            (e for e in members if e.delta_l <= tau), key=lambda e: (e.delta_l, e.unit_id)
        )
        budget = math.floor(cap * len(members))
        removed = sorted(e.unit_id for e in candidates[:budget])
        groups[key] = {"removed": removed, "total": len(members)}
    return tau, groups


@pytest.mark.parametrize("seed", range(6))
def test_select_mask_matches_per_unit_reference(seed):
    rng = np.random.default_rng(seed)
    keys = [(i, kind) for i in range(4) for kind in criteria.UNIT_KINDS]
    # few distinct values, many of them exactly 0.0: heavy exact ties
    levels = np.array([0.0, 0.0, 0.0, 1e-9, 0.25, 0.5, 2.0])
    tables = []
    for k in rng.choice(len(keys), size=5, replace=False):
        layer_id, kind = keys[k]
        n = int(rng.integers(1, 60))
        scores = rng.choice(levels, size=n) * rng.choice([1.0, 3.0])
        if rng.random() < 0.5:
            spread = rng.random(n) < 0.3
            scores[spread] = rng.random(int(spread.sum()))
        tables.append(ImportanceTable("obd", int(layer_id), str(kind), scores))
    for ratio in (0.0, 0.1, 0.37, 0.5, 0.8, 1.0):
        for cap in (0.3, 0.5, 1.0):
            mask = criteria.select_mask(tables, ratio, cap)
            tau, groups = select_mask_reference(tables, ratio, cap)
            assert mask.tau == tau
            assert mask.groups == groups
            for group in mask.groups.values():
                assert all(type(u) is int for u in group["removed"])


def test_select_mask_rank_is_exact_in_the_printed_ratio():
    """0.55 * 100 is 55.00000000000001 in binary floating point: its
    ceiling would remove 56 of 100 units."""
    table = ImportanceTable("c_obd", 0, "filter", np.arange(100.0))
    mask = criteria.select_mask([table], ratio=0.55, cap=1.0)
    assert mask.tau == 54.0
    assert mask.removed(0, "filter") == list(range(55))


@pytest.mark.parametrize("cap, size", [(0.7, 90), (0.35, 180)])
def test_select_mask_budget_is_exact_in_the_printed_cap(cap, size):
    """cap * size is 62.99999999999999 in binary floating point for both
    pairs: its floor would allow 62 removals, not 63."""
    table = ImportanceTable("c_obd", 0, "filter", np.arange(float(size)))
    mask = criteria.select_mask([table], ratio=1.0, cap=cap)
    assert mask.removed(0, "filter") == list(range(63))


def test_select_mask_rejects_two_tables_for_one_group():
    first = ImportanceTable("c_obd", 1, "filter", np.array([1.0, 2.0]))
    second = ImportanceTable("c_obd", 1, "filter", np.array([3.0]))
    other = ImportanceTable("c_obd", 1, "kfe_row", np.array([3.0]))
    criteria.select_mask([first, other], ratio=0.5, cap=1.0)
    with pytest.raises(ValidationError, match="two importance tables for one layer and unit kind"):
        criteria.select_mask([first, other, second], ratio=0.5, cap=1.0)


def test_select_mask_validation():
    table = criteria.obd_scores(0, np.ones(3), np.ones(3))
    with pytest.raises(ValidationError):
        criteria.select_mask([table], ratio=1.5, cap=1.0)
    with pytest.raises(ValidationError):
        criteria.select_mask([table], ratio=0.5, cap=0.0)
    with pytest.raises(ValidationError):
        criteria.select_mask([], ratio=0.5, cap=1.0)
    for ratio, cap in ((float("nan"), 1.0), (0.5, float("nan"))):
        with pytest.raises(ValidationError, match="must lie in"):
            criteria.select_mask([table], ratio=ratio, cap=cap)


def test_prune_mask_accessors(kept):
    rows, cols = criteria.eigendamage_scores(
        0, np.diag([3.0, 1.0]), np.ones(2), np.ones(2)
    )
    mask = criteria.select_mask([rows, cols], ratio=0.5, cap=1.0)
    # pooled scores [9, 1, 9, 1]: tau = 1, the two unit-1 entries go
    assert mask.removed(0, "kfe_row") == [1]
    assert mask.removed(0, "kfe_col") == [1]
    assert kept(mask, 0, "kfe_row") == [0]
    assert mask.removed(5, "filter") == []
    assert mask.groups[(0, "kfe_row")]["total"] == 2
