"""Tests for Kronecker factor estimation, damping, and eigenbases."""

import copy
from dataclasses import replace

import numpy as np
import pytest

from kfeprune import checkpoint, kfac, pipeline, reparam
from kfeprune.accounting import count_params
from kfeprune.data import Dataset, synth_dataset
from kfeprune.errors import (
    DimensionError,
    SingularityError,
    StateError,
    ValidationError,
)
from kfeprune.config import STRATEGIES, RunConfig
from kfeprune.layers import BottleneckConvLayer, ConvLayer, DenseLayer, FlattenLayer, ReluLayer
from kfeprune.network import Network, build_cnn, build_mlp
from kfeprune.oracle import exact_fisher, fisher_vec, kron, vec
from kfeprune.pipeline import prune_once
from kfeprune.training import evaluate, train


def random_spd(rng, dim, floor=0.0):
    m = rng.standard_normal((dim, dim))
    return m @ m.T + floor * np.eye(dim)


def single_sample_factors(seed):
    rng = np.random.default_rng(seed)
    net = Network([DenseLayer(rng.standard_normal((3, 4)))])
    ds = Dataset(
        x=rng.standard_normal((1, 3)),
        y=np.array([2]),
        num_classes=4,
    )
    factors, _ = kfac.estimate_factors(net, ds, batch_size=1)
    return net, ds, factors[0]


def test_single_sample_dense_outer_products():
    net, ds, kf = single_sample_factors(0)
    logits = net.forward(ds.x, capture=True)
    net.backward(logits, ds.y)
    tape = net.captures()[0]
    a, g = tape["a"][0], tape["g"][0]
    np.testing.assert_allclose(kf.a, np.outer(a, a), atol=1e-14)
    np.testing.assert_allclose(kf.s, np.outer(g, g), atol=1e-14)
    assert kf.count == 1 and kf.variant == "dense"


def test_single_sample_kron_equals_exact_fisher():
    net, ds, kf = single_sample_factors(1)
    fisher = exact_fisher(net, ds)
    assert np.max(np.abs(kron(kf.s, kf.a) - fisher)) <= 1e-12


def test_constant_activation_rank_one_factor():
    a = np.tile(np.array([[1.0, 0.0, 0.0]]), (5, 1))
    g = np.random.default_rng(2).standard_normal((5, 2))
    f = kfac.accumulate_dense(None, a, g)
    expected = np.zeros((3, 3))
    expected[0, 0] = 1.0
    np.testing.assert_allclose(f.a, expected, atol=1e-14)


def test_dense_factor_matches_direct_mean():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 4))
    g = rng.standard_normal((3, 2))
    f = kfac.accumulate_dense(None, a, g)
    ref_a = sum(np.outer(a[i], a[i]) for i in range(3)) / 3
    ref_s = sum(np.outer(g[i], g[i]) for i in range(3)) / 3
    np.testing.assert_allclose(f.a, ref_a, atol=1e-14)
    np.testing.assert_allclose(f.s, ref_s, atol=1e-14)


def test_estimate_factors_batch_invariant():
    # an MLP, a CNN under both conv variants, and an eigendamage-pruned
    # CNN holding a conv bottleneck and a dense bottleneck
    ds = synth_dataset("blobs", seed=4, n=30, classes=3, dim=5)
    images = synth_dataset("blobs", seed=4, n=30, classes=3, image_shape=(2, 6, 6))
    pruned = eigendamage_pruned_cnn(images)
    cases = [
        (build_mlp(5, [4], 3, seed=0), ds, "channel"),
        (build_cnn((2, 6, 6), [3, 4], 3, seed=0), images, "channel"),
        (build_cnn((2, 6, 6), [3, 4], 3, seed=0), images, "full"),
        (pruned, images, "channel"),
    ]
    for net, data, conv_variant in cases:
        f_big, _ = kfac.estimate_factors(net, data, conv_variant=conv_variant, batch_size=30)
        f_small, _ = kfac.estimate_factors(net, data, conv_variant=conv_variant, batch_size=7)
        assert list(f_small) == list(f_big) == net.parameterized_ids()
        for lid, big in f_big.items():
            small = f_small[lid]
            np.testing.assert_allclose(small.a, big.a, rtol=1e-12, atol=1e-13)
            np.testing.assert_allclose(small.s, big.s, rtol=1e-12, atol=1e-13)
            assert small.count == 30
            assert (small.a_locs, small.s_locs, small.variant) == (
                big.a_locs, big.s_locs, big.variant
            )


def test_factors_symmetric_psd():
    ds = synth_dataset("blobs", seed=5, n=24, classes=2, dim=3)
    net = build_mlp(3, [5], 2, seed=1)
    for kf in kfac.estimate_factors(net, ds, batch_size=8)[0].values():
        for m in (kf.a, kf.s):
            np.testing.assert_allclose(m, m.T, atol=1e-10)
            eigs = np.linalg.eigvalsh(m)
            assert eigs.min() >= -1e-8 * max(eigs.max(), 1e-30)


def conv_net_and_data(seed, h=4, w=4, c_in=2, c_out=3, k=3, n=2):
    rng = np.random.default_rng(seed)
    conv = ConvLayer(
        rng.standard_normal((c_in * k * k, c_out)), None, c_in=c_in, k=k, stride=1, padding=1
    )
    flat_dim = c_out * h * w
    dense = DenseLayer(rng.standard_normal((flat_dim, 2)) * 0.3)
    net = Network([conv, FlattenLayer(), dense])
    ds = Dataset(
        x=rng.standard_normal((n, c_in, h, w)),
        y=rng.integers(0, 2, size=n),
        num_classes=2,
    )
    return net, ds


def test_conv_full_factors_match_location_loops():
    net, ds = conv_net_and_data(6)
    factors, _ = kfac.estimate_factors(net, ds, conv_variant="full", batch_size=2)
    logits = net.forward(ds.x, capture=True)
    net.backward(logits, ds.y)
    tape = net.captures()[0]
    patches, g = tape["patches"], tape["g"]
    b, locs, n_dim = patches.shape
    ref_a = np.zeros((n_dim, n_dim))
    ref_s = np.zeros((g.shape[2], g.shape[2]))
    for s in range(b):
        for l in range(locs):
            ref_a += np.outer(patches[s, l], patches[s, l])
            ref_s += np.outer(g[s, l], g[s, l])
    # A sums over locations per sample, S averages over both
    np.testing.assert_allclose(factors[0].a, ref_a / b, atol=1e-12)
    np.testing.assert_allclose(factors[0].s, ref_s / (b * locs), atol=1e-12)


def test_conv_channel_factor_matches_pixel_loop():
    net, ds = conv_net_and_data(7)
    factors, _ = kfac.estimate_factors(net, ds, conv_variant="channel", batch_size=2)
    x = ds.x
    b, c, h, w = x.shape
    ref = np.zeros((c, c))
    for s in range(b):
        for i in range(h):
            for j in range(w):
                ref += np.outer(x[s, :, i, j], x[s, :, i, j])
    np.testing.assert_allclose(factors[0].a, ref / (b * h * w), atol=1e-12)


def conv_and_dense_twins(conv_variant, seed=0):
    """A conv net and the dense net it equals, with (conv id, dense id)
    pairs of matching layers.  "full": the kernel covers the whole 2x3x3
    image (stride 1, no padding), so the conv is a dense layer over the
    CHW-flattened input, whose order the canonical weight rows share.
    "channel": a 1x1 conv on 4x1x1 images."""
    rng = np.random.default_rng(seed)
    c, side = (2, 3) if conv_variant == "full" else (4, 1)
    w1 = rng.standard_normal((c * side * side, 5))
    b1 = rng.standard_normal(5)
    w2 = rng.standard_normal((5, 3))
    conv = Network([
        ConvLayer(w1.copy(), b1.copy(), c_in=c, k=side), ReluLayer(), FlattenLayer(),
        DenseLayer(w2.copy()),
    ])
    dense = Network([FlattenLayer(), DenseLayer(w1, b1), ReluLayer(), DenseLayer(w2)])
    ds = synth_dataset("blobs", seed=seed, n=40, classes=3, image_shape=(c, side, side))
    return conv, dense, ds, [(0, 1), (3, 3)]


@pytest.mark.parametrize("conv_variant", ["full", "channel"])
def test_conv_identity_factors_equal_dense_factors(conv_variant):
    conv, dense, ds, pairs = conv_and_dense_twins(conv_variant)
    f_conv, _ = kfac.estimate_factors(conv, ds, conv_variant=conv_variant, batch_size=16)
    f_dense, _ = kfac.estimate_factors(dense, ds, batch_size=16)
    assert f_conv[0].variant == f"conv_{conv_variant}"
    for i, j in pairs:
        np.testing.assert_allclose(f_conv[i].a, f_dense[j].a, rtol=1e-13, atol=1e-14)
        np.testing.assert_allclose(f_conv[i].s, f_dense[j].s, rtol=1e-13, atol=1e-14)
        assert f_conv[i].count == f_dense[j].count == ds.n


@pytest.mark.parametrize(
    "conv_variant, strategy",
    [("full", s) for s in STRATEGIES if s != "eigendamage"] + [("channel", "eigendamage")],
)
def test_conv_identity_prunes_like_dense(conv_variant, strategy):
    """The in-place strategies score plain convs on conv_full factors, and
    eigendamage on conv_channel ones, so each identity must give the
    dense net's scores, mask and pruned function."""
    conv, dense, ds, pairs = conv_and_dense_twins(conv_variant)
    cfg = RunConfig(strategy=strategy, ratio=0.4, batch_size=16)
    t_conv, m_conv, info_conv = prune_once(conv, ds, cfg, cap=0.9)
    t_dense, m_dense, info_dense = prune_once(dense, ds, cfg, cap=0.9)
    to_dense = dict(pairs)
    assert len(t_conv) == len(t_dense)
    by_key = {(t.layer_id, t.unit_kind): t for t in t_dense}
    removed = 0
    for t in t_conv:
        j = to_dense[t.layer_id]
        np.testing.assert_allclose(t.delta_l, by_key[j, t.unit_kind].delta_l, rtol=1e-11)
        got = m_conv.removed(t.layer_id, t.unit_kind)
        assert list(got) == list(m_dense.removed(j, t.unit_kind))
        removed += len(got)
    assert removed
    if strategy == "eigendamage":
        np.testing.assert_allclose(
            info_conv["predicted_cost"], info_dense["predicted_cost"], rtol=1e-12
        )
    np.testing.assert_allclose(conv.forward(ds.x), dense.forward(ds.x), rtol=1e-12, atol=1e-13)


def test_conv_identity_iterates_like_dense(tmp_path, monkeypatch):
    """Two eigendamage rounds of iterate on the 1x1 conv and its dense
    twin.  At ratio 0.5 round 1 leaves factored forms that pay (33 params
    against 43), reduced by SVD on both sides, so round 2 prunes a
    bottleneck_conv and a bottleneck_dense: its factor pass runs both
    bottleneck backwards without parameter gradients, and finetuning runs
    them with."""
    conv, dense, _, pairs = conv_and_dense_twins("channel")
    cfg = RunConfig(
        dataset="blobs", image="4x1x1", classes=3, n_train=40, n_test=20, batch_size=16,
        strategy="eigendamage", ratio=0.5, cap=0.9, iterations=2, finetune_epochs=2,
    )
    prunes, real = [], pipeline.prune_once

    def recording(*args, **kwargs):
        prunes.append(real(*args, **kwargs))
        return prunes[-1]

    monkeypatch.setattr(pipeline, "prune_once", recording)
    records, outs = [], []
    for name, net in (("conv", conv), ("dense", dense)):
        checkpoint.save_network(str(tmp_path / f"{name}.kfep"), net)
        outs.append(tmp_path / name)
        run = replace(cfg, checkpoint=str(tmp_path / f"{name}.kfep"), out=str(outs[-1]))
        records.append(pipeline.cmd_iterate(run))
    assert len(prunes) == 4
    to_dense = dict(pairs)
    for (t_conv, m_conv, _), (t_dense, m_dense, _) in zip(prunes[:2], prunes[2:]):
        by_key = {(t.layer_id, t.unit_kind): t for t in t_dense}
        assert len(t_conv) == len(t_dense)
        for t in t_conv:
            j = to_dense[t.layer_id]
            np.testing.assert_allclose(t.delta_l, by_key[j, t.unit_kind].delta_l, rtol=1e-11)
            assert list(m_conv.removed(t.layer_id, t.unit_kind)) == list(
                m_dense.removed(j, t.unit_kind)
            )
    conv_rec, dense_rec = records
    assert "aborted" not in conv_rec and "aborted" not in dense_rec
    assert [r["params"] for r in conv_rec["rounds"]] == [r["params"] for r in dense_rec["rounds"]]
    assert conv_rec["params"] < conv_rec["params_before"]
    kinds = [checkpoint.load_network(str(out / "checkpoint.kfep")) for out in outs]
    assert [kinds[0].layers[i].kind for i, _ in pairs] == ["bottleneck_conv", "dense"]
    assert [kinds[1].layers[j].kind for _, j in pairs] == ["bottleneck_dense", "dense"]
    x = pipeline.build_dataset(cfg, "train").x
    np.testing.assert_allclose(kinds[0].forward(x), kinds[1].forward(x), rtol=1e-12, atol=1e-13)


def permuted_hidden(net, layer_id, perm):
    """net with hidden layer layer_id's units reordered by perm: the
    columns of its weight and bias, the rows of the next weight."""
    permuted = Network([copy.copy(layer) for layer in net.layers])
    first, second = permuted.layers[layer_id], permuted.layers[layer_id + 2]
    first.w, first.b, second.w = first.w[:, perm], first.b[perm], second.w[perm]
    return permuted


def unit_grids(net, table, mask):
    """table's scores and mask's removals, each in the shape of the units:
    the (fan_in, fan_out) weight matrix for weight units (ids in
    column-major order), one entry per output unit for filter units."""
    hit = np.zeros(table.delta_l.size, dtype=bool)
    hit[mask.removed(table.layer_id, table.unit_kind)] = True
    if table.unit_kind == "weight":
        shape = net.layers[table.layer_id].w.shape
        return table.delta_l.reshape(shape, order="F"), hit.reshape(shape, order="F")
    return table.delta_l, hit


@pytest.mark.parametrize("layer_id", [0, 2])
@pytest.mark.parametrize("strategy", [s for s in STRATEGIES if s != "eigendamage"])
def test_in_place_scores_permute_with_hidden_units(strategy, layer_id):
    """Reordering a hidden layer's units (the columns of its weight and
    bias, the rows of the next layer's weight) gives the same network, so
    every in-place strategy's scores and removals move with the units.
    Eigendamage scores eigen-directions, not units; its invariance is the
    next test."""
    ds = synth_dataset("blobs", seed=8, n=48, classes=3, dim=6)
    net = build_mlp(6, [16, 8], 3, seed=2)
    net.layers[0].b = np.random.default_rng(9).standard_normal(16) * 0.1
    perm = np.random.default_rng(layer_id).permutation(net.layers[layer_id].fan_out)
    assert np.any(perm != np.arange(perm.size))
    permuted = permuted_hidden(net, layer_id, perm)
    np.testing.assert_allclose(permuted.forward(ds.x), net.forward(ds.x), rtol=1e-12)

    def move(t, grid):
        if t.layer_id == layer_id:
            return grid[..., perm]
        if t.layer_id == layer_id + 2 and grid.ndim == 2:
            return grid[perm]
        return grid

    cfg = RunConfig(strategy=strategy, ratio=0.4, batch_size=16)
    tables, mask, _ = prune_once(net, ds, cfg, cap=0.9)
    p_tables, p_mask, _ = prune_once(permuted, ds, cfg, cap=0.9)
    assert [(t.layer_id, t.unit_kind) for t in p_tables] == [
        (t.layer_id, t.unit_kind) for t in tables
    ]
    removed = 0
    for t, p in zip(tables, p_tables):
        scores, hit = (move(t, grid) for grid in unit_grids(net, t, mask))
        p_scores, p_hit = unit_grids(permuted, p, p_mask)
        np.testing.assert_allclose(p_scores, scores, rtol=1e-10)
        assert np.array_equal(p_hit, hit)
        removed += int(hit.sum())
    assert removed


@pytest.mark.parametrize("layer_id", [0, 2])
def test_eigendamage_scores_invariant_under_hidden_permutation(layer_id):
    """Reordering a hidden layer's units conjugates A or S by a
    permutation, which moves eigenvectors but keeps eigenvalues and the
    core's energies, so each layer's sorted KFE scores stay the same."""
    ds = synth_dataset("blobs", seed=8, n=48, classes=3, dim=6)
    net = build_mlp(6, [16, 8], 3, seed=2)
    net.layers[0].b = np.random.default_rng(9).standard_normal(16) * 0.1
    perm = np.random.default_rng(layer_id).permutation(net.layers[layer_id].fan_out)
    permuted = permuted_hidden(net, layer_id, perm)
    np.testing.assert_allclose(permuted.forward(ds.x), net.forward(ds.x), rtol=1e-12)
    cfg = RunConfig(strategy="eigendamage", ratio=0.4, batch_size=16)
    tables, mask, _ = prune_once(net, ds, cfg, cap=0.9)
    p_tables, p_mask, _ = prune_once(permuted, ds, cfg, cap=0.9)
    keys = [(t.layer_id, t.unit_kind) for t in tables]
    assert [(t.layer_id, t.unit_kind) for t in p_tables] == keys
    assert {kind for _, kind in keys} == {"kfe_row", "kfe_col"}
    for t, p, key in zip(tables, p_tables, keys):
        np.testing.assert_allclose(np.sort(p.delta_l), np.sort(t.delta_l), rtol=1e-10)
        assert len(p_mask.removed(*key)) == len(mask.removed(*key))
    assert sum(len(mask.removed(*key)) for key in keys)


def dead_unit_case(name):
    """(net, data) whose first hidden layer has units (dense) or channels
    (conv) with zero weights and bias, trained: ReLU keeps them dead, so
    that layer's S and the next layer's A have a zero eigenvalue of
    multiplicity len(DEAD)."""
    if name == "dense":
        ds = synth_dataset("blobs", seed=8, n=96, classes=3, dim=6)
        net = build_mlp(6, [16, 8], 3, seed=2)
    else:
        ds = synth_dataset("blobs", seed=8, n=96, classes=3, image_shape=(2, 6, 6))
        net = build_cnn((2, 6, 6), [8, 6], 3, seed=2)
    net.layers[0].w[:, DEAD] = 0.0
    net.layers[0].b[DEAD] = 0.0
    train(net, ds, epochs=3, lr=0.1, batch_size=16, seed=0)
    return net, ds


DEAD = [1, 3, 6]


@pytest.mark.parametrize("name", ["dense", "conv"])
def test_eigendamage_ignores_the_basis_of_a_dead_eigenspace(name, monkeypatch):
    """Inside a repeated eigenvalue any orthonormal basis is an eigenbasis.
    Turning the zero eigenspaces that dead units leave by random rotations
    must not change the removed units, the parameter count or the
    predicted cost."""
    net, ds = dead_unit_case(name)
    cfg = RunConfig(strategy="eigendamage", ratio=0.5, batch_size=16)
    real = kfac.eigenbasis

    def prune(rng=None):
        sizes = []

        def rotated(f):
            ef = real(f)
            for q, lam in ((ef.qa, ef.lam_a), (ef.qs, ef.lam_s)):
                dead = np.flatnonzero(lam <= 1e-12 * lam[0])
                sizes.append(dead.size)
                turn, _ = np.linalg.qr(rng.standard_normal((dead.size, dead.size)))
                q[:, dead] = q[:, dead] @ turn
            return ef

        pruned = copy.deepcopy(net)
        monkeypatch.setattr(kfac, "eigenbasis", real if rng is None else rotated)
        _, mask, info = prune_once(pruned, ds, cfg, cap=0.9)
        return mask.groups, count_params(pruned), info["predicted_cost"], sizes

    groups, params, cost, _ = prune()
    assert any(group["removed"] for group in groups.values())
    for seed in range(3):
        got_groups, got_params, got_cost, sizes = prune(np.random.default_rng(seed))
        # layer 0's S and layer 2's A carry the dead units
        assert sizes == [0, len(DEAD), len(DEAD), 0]
        assert got_groups == groups and got_params == params
        assert got_cost == pytest.approx(cost, rel=1e-12)


def test_conv_channel_identical_channels_rank_one():
    rng = np.random.default_rng(8)
    base = rng.standard_normal((2, 1, 3, 3))
    x = np.concatenate([base, base], axis=1)
    g = rng.standard_normal((2, 9, 2))
    f = kfac.accumulate_conv_channel(None, x, g)
    eigs = np.sort(np.linalg.eigvalsh(f.a))
    assert eigs[0] <= 1e-10 * eigs[-1]


def test_one_by_one_conv_reduces_to_dense_accumulation():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((4, 3, 1, 1))
    g = rng.standard_normal((4, 1, 2))
    f_conv = kfac.accumulate_conv(None, x.reshape(4, 1, 3), g)
    f_dense = kfac.accumulate_dense(None, x.reshape(4, 3), g.reshape(4, 2))
    np.testing.assert_allclose(f_conv.a, f_dense.a, atol=1e-14)
    np.testing.assert_allclose(f_conv.s, f_dense.s, atol=1e-14)


def test_zero_gradients_give_zero_s():
    rng = np.random.default_rng(10)
    patches = rng.standard_normal((2, 4, 6))
    f = kfac.accumulate_conv(None, patches, np.zeros((2, 4, 3)))
    np.testing.assert_array_equal(f.s, np.zeros((3, 3)))


def test_accumulate_validation():
    f = kfac.accumulate_dense(None, np.zeros((1, 3)), np.zeros((1, 2)))
    with pytest.raises(ValidationError):
        kfac.accumulate_conv(f, np.zeros((1, 2, 3)), np.zeros((1, 2, 2)))
    with pytest.raises(DimensionError):
        kfac.accumulate_dense(f, np.zeros((2, 3)), np.zeros((3, 2)))
    fc = kfac.accumulate_conv(None, np.zeros((1, 4, 6)), np.zeros((1, 4, 3)))
    with pytest.raises(DimensionError):
        kfac.accumulate_conv(fc, np.zeros((1, 9, 6)), np.zeros((1, 9, 3)))
    with pytest.raises(ValidationError):
        kfac.KronFactors(np.eye(2), np.eye(2), 0, 1, 1, "bogus")


def test_damp_zero_is_identity():
    rng = np.random.default_rng(11)
    f = kfac.KronFactors(random_spd(rng, 3), random_spd(rng, 2), 4, 1, 1, "dense")
    d = kfac.damp(f, 0.0)
    np.testing.assert_array_equal(d.a, f.a)
    np.testing.assert_array_equal(d.s, f.s)
    with pytest.raises(ValidationError):
        kfac.damp(f, -1.0)


def test_damp_zero_factor_stays_singular():
    f = kfac.KronFactors(np.zeros((3, 3)), np.zeros((2, 2)), 1, 1, 1, "dense")
    d = kfac.damp(f, 1.0)
    np.testing.assert_array_equal(d.a, np.zeros((3, 3)))
    with pytest.raises(SingularityError):
        kfac.inv_psd(d.a)


def test_damp_lifts_smallest_eigenvalue():
    rng = np.random.default_rng(12)
    u = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    a = u @ np.diag([3.0, 1.0, 0.5, 0.0]) @ u.T
    f = kfac.KronFactors(a, np.eye(2), 1, 1, 1, "dense")
    lam = 1e-4
    d = kfac.damp(f, lam)
    shift = np.sqrt(lam) * np.trace(a) / 4
    assert np.linalg.eigvalsh(d.a).min() >= shift - 1e-10


def test_eigenbasis_identity_and_diag():
    f = kfac.KronFactors(np.eye(3), np.eye(2), 1, 1, 1, "dense")
    ef = kfac.eigenbasis(f)
    np.testing.assert_allclose(ef.lam_a, np.ones(3), atol=1e-14)
    np.testing.assert_allclose(ef.lam_s, np.ones(2), atol=1e-14)
    fd = kfac.KronFactors(np.diag([1.0, 5.0, 3.0]), np.diag([2.0, 4.0]), 1, 1, 1, "dense")
    efd = kfac.eigenbasis(fd)
    np.testing.assert_allclose(efd.lam_a, [5.0, 3.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(efd.lam_s, [4.0, 2.0], atol=1e-14)
    # eigenvectors of a diagonal matrix are signed permutation columns
    np.testing.assert_allclose(np.abs(efd.qa), np.eye(3)[:, [1, 2, 0]], atol=1e-14)


def test_eigenbasis_diagonalizes_kron():
    rng = np.random.default_rng(13)
    f = kfac.KronFactors(random_spd(rng, 5), random_spd(rng, 4), 1, 1, 1, "dense")
    ef = kfac.eigenbasis(f)
    big_q = kron(ef.qs, ef.qa)
    rotated = big_q.T @ kron(f.s, f.a) @ big_q
    off = rotated - np.diag(np.diag(rotated))
    assert np.max(np.abs(off)) <= 1e-10
    np.testing.assert_allclose(np.diag(rotated), np.kron(ef.lam_s, ef.lam_a), atol=1e-10)


def test_fisher_vec_identity_and_rank_one():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((3, 2))
    f_id = kfac.KronFactors(np.eye(3), np.eye(2), 1, 1, 1, "dense")
    np.testing.assert_allclose(fisher_vec(f_id, x), x, atol=1e-14)
    a = rng.standard_normal(3)
    g = rng.standard_normal(2)
    f_r1 = kfac.KronFactors(np.outer(a, a), np.outer(g, g), 1, 1, 1, "dense")
    expected = np.outer(a, g) * (a @ x @ g)
    np.testing.assert_allclose(fisher_vec(f_r1, x), expected, atol=1e-12)


def test_fisher_vec_matches_kron_matvec():
    rng = np.random.default_rng(15)
    f = kfac.KronFactors(random_spd(rng, 4), random_spd(rng, 3), 1, 1, 1, "dense")
    x = rng.standard_normal((4, 3))
    out = fisher_vec(f, x)
    np.testing.assert_allclose(vec(out), kron(f.s, f.a) @ vec(x), atol=1e-11)
    with pytest.raises(DimensionError):
        fisher_vec(f, np.zeros((3, 4)))


def test_inv_psd():
    rng = np.random.default_rng(16)
    m = random_spd(rng, 4, floor=0.5)
    np.testing.assert_allclose(kfac.inv_psd(m) @ m, np.eye(4), atol=1e-10)
    with pytest.raises(SingularityError):
        kfac.inv_psd(np.zeros((3, 3)))


def test_offdiag_ratio():
    assert kfac.offdiag_ratio(np.diag([1.0, 2.0, 3.0])) == 0.0
    np.testing.assert_allclose(
        kfac.offdiag_ratio(np.ones((2, 2))), np.sqrt(2.0) / 2.0, atol=1e-14
    )


def test_estimate_factors_options(monkeypatch):
    ds = synth_dataset("blobs", seed=17, n=20, classes=2, dim=3)
    net = build_mlp(3, [4], 2, seed=0)
    subset, _ = kfac.estimate_factors(net, ds, layer_ids=[2], batch_size=5)
    assert list(subset) == [2]
    # two of four batches are folded in, and the loss still covers all 20
    limited, loss = kfac.estimate_factors(net, ds, batch_size=5, max_batches=2)
    assert limited[0].count == 10
    assert loss == evaluate(net, ds.x, ds.y, 5)[0]
    with pytest.raises(ValidationError):
        kfac.estimate_factors(net, ds, conv_variant="bogus")
    forwards = []
    original = Network.forward

    def counting_forward(self, *args, **kwargs):
        forwards.append(kwargs.get("capture", False))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Network, "forward", counting_forward)
    with pytest.raises(StateError):
        kfac.estimate_factors(net, ds, max_batches=0)
    assert forwards == []
    kfac.estimate_factors(net, ds, batch_size=5, max_batches=2)
    assert forwards == [True, True, False, False]


def full_gradient_factors(net, dataset, conv_variant, batch_size, max_batches=None):
    """Reference factor pass: captures from a backward that also builds
    every parameter gradient, folded with the public accumulators."""
    layer_ids = net.parameterized_ids()
    factors = {}
    stop = dataset.n if max_batches is None else max_batches * batch_size
    for start in range(0, min(stop, dataset.n), batch_size):
        xb = dataset.x[start : start + batch_size]
        yb = dataset.y[start : start + batch_size]
        _, grads = net.backward(net.forward(xb, capture=True), yb)
        assert all(grads[i] for i in layer_ids)
        caps = net.captures()
        for lid in layer_ids:
            tape, kind = caps[lid], net.layers[lid].kind
            if kind in ("dense", "bottleneck_dense"):
                f = kfac.accumulate_dense(factors.get(lid), tape["a"], tape["g"])
            elif kind == "bottleneck_conv":
                x1 = net.layers[lid].projected(tape["x_in"])
                f = kfac.accumulate_conv_channel(factors.get(lid), x1, tape["g"])
            elif conv_variant == "channel":
                f = kfac.accumulate_conv_channel(factors.get(lid), tape["x_in"], tape["g"])
            else:
                f = kfac.accumulate_conv(factors.get(lid), tape["patches"], tape["g"])
            factors[lid] = f
    return factors


def eigendamage_pruned_cnn(images, seed=4):
    """A CNN whose conv and hidden dense layers are rotated into their
    eigenbases and pruned there, as eigendamage's rewrite does before it
    takes the smallest form: a bottleneck_conv with a (1, 2, 9) core and
    a bottleneck_dense with a (9, 4) core, unequal ranks that prune_once
    would reduce by SVD or fold back to plain layers."""
    rng = np.random.default_rng(seed)
    net = Network([
        ConvLayer(rng.standard_normal((18, 3)), rng.standard_normal(3), c_in=2, k=3, stride=2),
        ReluLayer(),
        FlattenLayer(),
        DenseLayer(rng.standard_normal((12, 5)), rng.standard_normal(5)),
        ReluLayer(),
        DenseLayer(rng.standard_normal((5, 3))),
    ])
    factors, _ = kfac.estimate_factors(net, images, layer_ids=[0, 3])
    for i, rows, cols in ((0, [1], [2]), (3, [0, 4, 7], [1])):
        rotated = reparam.to_kfe(net.layers[i], kfac.eigenbasis(factors[i]))
        net.layers[i] = reparam.eigenprune(rotated, rows, cols)
    assert [net.layers[i].kind for i in (0, 3)] == ["bottleneck_conv", "bottleneck_dense"]
    return net


FACTOR_PASS_CASES = ["dense", "conv_full", "conv_channel", "bottleneck"]


def factor_pass_case(name):
    """(net, data, conv_variant) for one factor variant, 23 samples so the
    last batch of 5 is ragged."""
    if name == "dense":
        ds = synth_dataset("blobs", seed=4, n=23, classes=3, dim=5)
        return build_mlp(5, [4, 6], 3, seed=0), ds, "channel"
    images = synth_dataset("blobs", seed=4, n=23, classes=3, image_shape=(2, 6, 6))
    if name == "bottleneck":
        return eigendamage_pruned_cnn(images), images, "channel"
    return build_cnn((2, 6, 6), [3, 4], 3, seed=0), images, name[len("conv_"):]


@pytest.mark.parametrize("max_batches", [None, 2])
@pytest.mark.parametrize("name", FACTOR_PASS_CASES)
def test_factor_pass_matches_full_gradient_reference(name, max_batches):
    """The pass backpropagates without parameter gradients; its factors
    must be bitwise those of a full-gradient backward."""
    net, data, conv_variant = factor_pass_case(name)
    got, _ = kfac.estimate_factors(
        net, data, conv_variant=conv_variant, batch_size=5, max_batches=max_batches
    )
    want = full_gradient_factors(net, data, conv_variant, 5, max_batches)
    assert list(got) == list(want) == net.parameterized_ids()
    for lid, f in want.items():
        np.testing.assert_array_equal(got[lid].a, f.a)
        np.testing.assert_array_equal(got[lid].s, f.s)
        assert (got[lid].count, got[lid].a_locs, got[lid].s_locs, got[lid].variant) == (
            f.count, f.a_locs, f.s_locs, f.variant
        )
    assert want[net.parameterized_ids()[0]].count == (23 if max_batches is None else 10)


def _fold_mean_allocating(mean, eff, batch_sum, batch_eff):
    """The stream mean as first written, (mean * eff + sum) / total in
    fresh temporaries, stored back into the factor."""
    mean[...] = (mean * eff + batch_sum) / (eff + batch_eff)


@pytest.mark.parametrize("name", FACTOR_PASS_CASES)
def test_factor_pass_is_bitwise_the_allocating_stream_mean(name, monkeypatch):
    """Folding each batch into the factors in place changes no bit: five
    batches of 5, the last one ragged, against the allocating mean."""
    net, data, conv_variant = factor_pass_case(name)
    got, _ = kfac.estimate_factors(net, data, conv_variant=conv_variant, batch_size=5)
    monkeypatch.setattr(kfac, "_fold_mean", _fold_mean_allocating)
    want, _ = kfac.estimate_factors(net, data, conv_variant=conv_variant, batch_size=5)
    for lid, f in want.items():
        for mine, ref in ((got[lid].a, f.a), (got[lid].s, f.s)):
            assert np.array_equal(mine.view(np.uint64), ref.view(np.uint64)), lid
        assert got[lid].count == f.count == 23


def test_bottleneck_input_factor_is_nchw_projection():
    """A conv bottleneck's input factor is bitwise the channel covariance
    of qa.T times each sample's (c_in, H*W) pixel columns, so training
    through the effective kernel moves decisions only through the weights.
    Layer 0 reads the NCHW data, layer 2 a channels-last activation.  With
    32 and 24 input channels a pixel-row GEMM rounds differently; at a few
    channels the two products can agree bit for bit."""
    rng = np.random.default_rng(6)

    def bottleneck(c_in, ra, rc, c_out, stride):
        return BottleneckConvLayer(
            rng.standard_normal((c_in, ra)) / np.sqrt(c_in), rng.standard_normal((ra, rc, 9)) / 9,
            rng.standard_normal((c_out, rc)), rng.standard_normal(c_out), c_in, 3, stride, 1,
        )

    net = Network([
        bottleneck(32, 20, 6, 24, 1), ReluLayer(), bottleneck(24, 20, 5, 8, 2), ReluLayer(),
        FlattenLayer(), DenseLayer(rng.standard_normal((72, 3)) / 8),
    ])
    images = synth_dataset("blobs", seed=4, n=13, classes=3, image_shape=(32, 6, 6))
    got, _ = kfac.estimate_factors(net, images, batch_size=5)
    want = {}
    for start in range(0, images.n, 5):
        net.backward(net.forward(images.x[start : start + 5], capture=True),
                     images.y[start : start + 5], param_grads=False)
        for lid in (0, 2):
            tape, qa = net.captures()[lid], net.layers[lid].qa
            b, c, h, w = tape["x_in"].shape
            rows = np.ascontiguousarray(tape["x_in"].transpose(0, 2, 3, 1)).reshape(b, h * w, c)
            x1 = (qa.T @ rows.transpose(0, 2, 1)).reshape(b, qa.shape[1], h, w)
            want[lid] = kfac.accumulate_conv_channel(want.get(lid), x1, tape["g"])
    for lid, f in want.items():
        np.testing.assert_array_equal(got[lid].a, f.a)
        np.testing.assert_array_equal(got[lid].s, f.s)


@pytest.mark.parametrize("max_batches", [None, 1, 2, 5, 9])
@pytest.mark.parametrize("name", FACTOR_PASS_CASES)
def test_factor_pass_loss_equals_evaluate(name, max_batches):
    """The loss covers the whole split, however few batches are folded
    in, and is bitwise training.evaluate's at the same batch size."""
    net, data, conv_variant = factor_pass_case(name)
    for batch_size in (5, 23, 64):
        _, loss = kfac.estimate_factors(
            net, data, conv_variant=conv_variant, batch_size=batch_size, max_batches=max_batches
        )
        assert loss == evaluate(net, data.x, data.y, batch_size)[0]
