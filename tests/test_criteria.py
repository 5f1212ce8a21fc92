"""Tests for saliency scoring and mask selection."""

import numpy as np
import pytest

from kfeprune import criteria, oracle
from kfeprune.criteria import ImportanceEntry, ImportanceTable
from kfeprune.errors import ValidationError
from kfeprune.tensormath import kron

THETA = np.array([1.0, 1.0, 1.0])
HESS = np.array([[1.0, 0.99, 0.0], [0.99, 1.0, 0.01], [0.0, 0.01, 0.5]])


def random_spd(rng, dim, floor=0.1):
    m = rng.standard_normal((dim, dim))
    return m @ m.T + floor * np.eye(dim)


def test_obd_worked_example():
    table = criteria.obd_scores(0, THETA, np.diag(HESS))
    np.testing.assert_allclose(table.scores(), [0.5, 0.5, 0.25], atol=1e-12)
    assert int(np.argmin(table.scores())) == 2
    assert all(e.unit_kind == "weight" for e in table.entries)


def test_obd_zero_weight_scores_zero():
    table = criteria.obd_scores(0, np.array([0.0, 2.0]), np.array([5.0, 1.0]))
    np.testing.assert_allclose(table.scores(), [0.0, 2.0])


def test_obs_equals_obd_for_diagonal_curvature():
    diag = np.array([2.0, 3.0, 4.0])
    theta = np.array([1.0, -2.0, 0.5])
    np.testing.assert_allclose(
        criteria.obs_scores(0, theta, 1.0 / diag).scores(),
        criteria.obd_scores(0, theta, diag).scores(),
        atol=1e-12,
    )


def test_obs_scores_match_exact_prune_cost():
    rng = np.random.default_rng(0)
    h = random_spd(rng, 5)
    theta = rng.standard_normal(5)
    h_inv = np.linalg.inv(h)
    scores = criteria.obs_scores(0, theta, np.diag(h_inv)).scores()
    for q in range(5):
        _, dl = oracle.exact_single_prune(theta, h, q)
        np.testing.assert_allclose(scores[q], dl, atol=1e-10)


def test_obs_update_zeroes_target_and_prices_correctly():
    rng = np.random.default_rng(1)
    h = random_spd(rng, 4)
    theta = rng.standard_normal(4)
    h_inv = np.linalg.inv(h)
    table, dtheta = criteria.obs_scores_and_update(0, theta, h_inv, 2)
    assert abs(theta[2] + dtheta[2]) <= 1e-12
    np.testing.assert_allclose(0.5 * (dtheta @ h @ dtheta), table.scores()[2], atol=1e-10)
    ref, _ = oracle.exact_single_prune(theta, h, 2)
    np.testing.assert_allclose(dtheta, ref, atol=1e-10)


def test_obs_update_validation():
    with pytest.raises(ValidationError):
        criteria.obs_scores_and_update(0, THETA, np.linalg.inv(HESS), 3)


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
    col = criteria.c_obd_scores(0, w, a_diag, s_diag).scores()
    flat = criteria.obd_scores(0, w[:, 0], criteria.kfac_diag(a_diag, s_diag)).scores()
    np.testing.assert_allclose(col[0], flat.sum(), atol=1e-12)


def test_structured_scores_identity_factors():
    rng = np.random.default_rng(4)
    w = rng.standard_normal((3, 2))
    half_norms = 0.5 * (w**2).sum(axis=0)
    np.testing.assert_allclose(
        criteria.c_obd_scores(0, w, np.ones(3), np.ones(2)).scores(),
        half_norms,
        atol=1e-12,
    )
    np.testing.assert_allclose(
        criteria.c_obs_scores(0, w, np.ones(3), np.ones(2)).scores(),
        half_norms,
        atol=1e-12,
    )
    np.testing.assert_allclose(
        criteria.kron_obd_scores(0, w, np.eye(3), np.eye(2)).scores(),
        half_norms,
        atol=1e-12,
    )
    table, _ = criteria.kron_obs_scores_and_update(0, w, np.eye(3), np.eye(2))
    np.testing.assert_allclose(table.scores(), half_norms, atol=1e-12)


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
    ).scores()
    np.testing.assert_allclose(got, ref, atol=1e-12)


def test_kron_obd_diagonal_input_factor_matches_c_obd():
    rng = np.random.default_rng(6)
    a_diag = rng.uniform(0.5, 2.0, 4)
    s = random_spd(rng, 3)
    w = rng.standard_normal((4, 3))
    np.testing.assert_allclose(
        criteria.kron_obd_scores(0, w, np.diag(a_diag), s).scores(),
        criteria.c_obd_scores(0, w, a_diag, np.diag(s)).scores(),
        atol=1e-12,
    )


def test_kron_obd_is_half_quadratic_per_filter():
    rng = np.random.default_rng(7)
    a = random_spd(rng, 4)
    s = random_spd(rng, 3)
    w = rng.standard_normal((4, 3))
    scores = criteria.kron_obd_scores(0, w, a, s).scores()
    for j in range(3):
        ref = 0.5 * s[j, j] * (w[:, j] @ a @ w[:, j])
        np.testing.assert_allclose(scores[j], ref, atol=1e-12)


def test_kron_obd_trace_identity():
    # summing the per-filter quadratics equals 0.5 tr(diag(S) W.T A W)
    rng = np.random.default_rng(8)
    a = random_spd(rng, 5)
    s = random_spd(rng, 4)
    w = rng.standard_normal((5, 4))
    total = criteria.kron_obd_scores(0, w, a, s).scores().sum()
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
        np.testing.assert_allclose(table.scores()[j], dl, atol=1e-10)


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
    np.testing.assert_allclose(cost, table.scores()[1], atol=1e-10)


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


def test_obs_sequential_update_single_removal_matches_obs_update():
    # one removal is the textbook OBS step on H^-1 = S^-1 (x) A^-1
    rng = np.random.default_rng(22)
    a_inv = np.linalg.inv(random_spd(rng, 4))
    s_inv = np.linalg.inv(random_spd(rng, 3))
    w = rng.standard_normal((4, 3))
    theta = w.reshape(-1, order="F")
    _, dtheta = criteria.obs_scores_and_update(0, theta, kron(s_inv, a_inv), 7)
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
    np.testing.assert_allclose(rows.scores(), (w2**2).sum(axis=1), atol=1e-12)
    np.testing.assert_allclose(cols.scores(), (w2**2).sum(axis=0), atol=1e-12)
    assert all(e.unit_kind == "kfe_row" for e in rows.entries)
    assert all(e.unit_kind == "kfe_col" for e in cols.entries)


def test_eigendamage_zero_basis_weights_score_zero():
    rows, cols = criteria.eigendamage_scores(0, np.zeros((3, 2)), np.ones(3), np.ones(2))
    np.testing.assert_allclose(rows.scores(), 0.0)
    np.testing.assert_allclose(cols.scores(), 0.0)


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
    np.testing.assert_allclose(rows.scores(), row_ref, atol=1e-12)
    np.testing.assert_allclose(cols.scores(), col_ref, atol=1e-12)


def test_eigendamage_conv_core_sums_kernel_offsets():
    rng = np.random.default_rng(14)
    lam_a = rng.uniform(0.1, 2.0, 3)
    lam_s = rng.uniform(0.1, 2.0, 2)
    core = rng.standard_normal((3, 2, 4))
    rows, cols = criteria.eigendamage_scores(0, core, lam_a, lam_s)
    np.testing.assert_allclose(
        rows.scores(), np.einsum("ijk,i,j->i", core**2, lam_a, lam_s), atol=1e-12
    )
    np.testing.assert_allclose(
        cols.scores(), np.einsum("ijk,i,j->j", core**2, lam_a, lam_s), atol=1e-12
    )


def test_eigendamage_clamps_negative_eigenvalues():
    rows, cols = criteria.eigendamage_scores(
        0, np.ones((2, 2)), np.array([1.0, -1e-9]), np.ones(2)
    )
    assert np.all(rows.scores() >= 0.0)
    assert np.all(cols.scores() >= 0.0)


def test_importance_table_validation():
    with pytest.raises(ValidationError):
        ImportanceTable("obd", [ImportanceEntry(0, "bogus", 0, 0.5)])
    with pytest.raises(ValidationError):
        ImportanceTable("obd", [ImportanceEntry(0, "weight", 0, float("nan"))])
    with pytest.raises(ValidationError):
        ImportanceTable("obd", [ImportanceEntry(0, "weight", 0, -1.0)])
    # tiny negatives from roundoff stay above the floor
    ImportanceTable("obd", [ImportanceEntry(0, "weight", 0, -1e-9)])
    table = ImportanceTable("obd", [ImportanceEntry(0, "weight", 0, 0.5)])
    other = ImportanceTable("obs", [ImportanceEntry(1, "weight", 0, 0.1)])
    with pytest.raises(ValidationError):
        table.extend(other)
    same = ImportanceTable("obd", [ImportanceEntry(1, "weight", 0, 0.1)])
    table.extend(same)
    assert len(table.entries) == 2


def test_select_mask_ratio_zero_removes_nothing():
    table = criteria.obd_scores(0, np.arange(1.0, 5.0), np.ones(4))
    mask = criteria.select_mask([table], ratio=0.0, cap=1.0)
    assert mask.removed(0, "weight") == []
    assert mask.kept(0, "weight") == [0, 1, 2, 3]


def test_select_mask_threshold_is_nearest_rank():
    entries = [ImportanceEntry(0, "filter", i, s) for i, s in enumerate([1.0, 2.0, 3.0, 4.0])]
    table = ImportanceTable("c_obd", entries)
    mask = criteria.select_mask([table], ratio=0.5, cap=1.0)
    assert mask.tau == 2.0
    assert mask.removed(0, "filter") == [0, 1]


def test_select_mask_uniform_scores_cap_and_tie_break():
    # all scores equal: the threshold admits everything and the cap keeps
    # only the lowest unit ids
    entries = [ImportanceEntry(0, "filter", i, 1.0) for i in range(10)]
    table = ImportanceTable("c_obd", entries)
    mask = criteria.select_mask([table], ratio=0.9, cap=0.5)
    assert mask.removed(0, "filter") == [0, 1, 2, 3, 4]
    assert mask.kept(0, "filter") == [5, 6, 7, 8, 9]


def test_select_mask_global_threshold_pools_layers():
    low = ImportanceTable(
        "c_obd", [ImportanceEntry(0, "filter", i, s) for i, s in enumerate([1.0, 2.0, 3.0, 4.0])]
    )
    high = ImportanceTable(
        "c_obd", [ImportanceEntry(2, "filter", i, s) for i, s in enumerate([10.0, 20.0, 30.0, 40.0])]
    )
    mask = criteria.select_mask([low, high], ratio=0.5, cap=1.0)
    assert mask.removed(0, "filter") == [0, 1, 2, 3]
    assert mask.removed(2, "filter") == []
    assert mask.kept(2, "filter") == [0, 1, 2, 3]


def test_select_mask_validation():
    table = criteria.obd_scores(0, np.ones(3), np.ones(3))
    with pytest.raises(ValidationError):
        criteria.select_mask([table], ratio=1.5, cap=1.0)
    with pytest.raises(ValidationError):
        criteria.select_mask([table], ratio=0.5, cap=0.0)
    with pytest.raises(ValidationError):
        criteria.select_mask([], ratio=0.5, cap=1.0)


def test_prune_mask_accessors():
    rows, cols = criteria.eigendamage_scores(
        0, np.diag([3.0, 1.0]), np.ones(2), np.ones(2)
    )
    mask = criteria.select_mask([rows, cols], ratio=0.5, cap=1.0)
    # pooled scores [9, 1, 9, 1]: tau = 1, the two unit-1 entries go
    assert mask.removed(0, "kfe_row") == [1]
    assert mask.removed(0, "kfe_col") == [1]
    assert mask.kept(0, "kfe_row") == [0]
    assert mask.removed(5, "filter") == []
    assert mask.groups[(0, "kfe_row")]["total"] == 2
