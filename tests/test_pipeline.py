"""End-to-end tests: config parsing, datasets, checkpoints, accounting,
pipeline commands, and the command line."""

import json
import os
import struct
from dataclasses import replace

import numpy as np
import pytest

from kfeprune import accounting, checkpoint, cli, criteria
from kfeprune.config import (
    RunConfig,
    parse_arch,
    parse_config,
    parse_image,
    resolve_cap,
    validate_config,
)
from kfeprune.data import Dataset, load_idx, read_idx, synth_dataset
from kfeprune.errors import FormatError, ValidationError
from kfeprune.kfac import KronFactors
from kfeprune.layers import BottleneckConvLayer, ConvLayer, DenseLayer
from kfeprune.network import Network, build_cnn, build_mlp
from kfeprune.pipeline import (
    CHECKPOINT_NAME,
    build_dataset,
    build_network,
    cmd_decompose,
    cmd_eval,
    cmd_finetune,
    cmd_iterate,
    cmd_prune,
    cmd_train,
    conv_variant_for,
    eligible_layer_ids,
    prune_once,
    write_importance,
)

MLP_SETTINGS = dict(
    arch="mlp:16",
    dataset="blobs",
    classes=4,
    dim=2,
    n_train=256,
    n_test=128,
    sigma=0.8,
    epochs=20,
    lr=0.1,
    batch_size=32,
)


def write_config(path, **kv):
    lines = [f"{key} = {value}" for key, value in kv.items()]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return str(path)


def read_metrics(out_dir):
    with open(os.path.join(out_dir, "metrics.json"), "r", encoding="ascii") as fh:
        return json.load(fh)


def checkpoint_bytes(out_dir):
    with open(os.path.join(out_dir, CHECKPOINT_NAME), "rb") as fh:
        return fh.read()


def sans_time(record):
    rec = dict(record)
    rec.pop("wall_time_s", None)
    return rec


@pytest.fixture(scope="module")
def mlp_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("mlp_base")
    cfg = RunConfig(seed=0, out=str(out), **MLP_SETTINGS)
    record = cmd_train(cfg)
    return cfg, record


def derived(cfg, out, **kv):
    return replace(
        cfg, checkpoint=os.path.join(cfg.out, CHECKPOINT_NAME), out=str(out), **kv
    )


def test_parse_config_defaults_comments_and_spacing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# training setup\n"
        "seed = 3\n"
        "\n"
        "lr=0.25   # inline comment\n"
        "arch =  mlp:8,4\n",
        encoding="ascii",
    )
    cfg = parse_config(str(path))
    assert cfg.seed == 3
    assert cfg.lr == 0.25
    assert cfg.arch == "mlp:8,4"
    # untouched keys keep their defaults
    assert cfg.batch_size == 32
    assert cfg.strategy == "eigendamage"


def test_parse_config_unknown_key_names_location(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 1\nbogus = 2\n", encoding="ascii")
    with pytest.raises(FormatError) as err:
        parse_config(str(path))
    assert "run.cfg:2" in str(err.value)
    assert "bogus" in str(err.value)


def test_parse_config_bad_value_and_shape(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = abc\n", encoding="ascii")
    with pytest.raises(FormatError):
        parse_config(str(path))
    path.write_text("just words\n", encoding="ascii")
    with pytest.raises(FormatError):
        parse_config(str(path))


def test_parse_config_missing_file():
    with pytest.raises(FormatError):
        parse_config("/nonexistent/nowhere.cfg")


def test_validate_config_errors():
    for bad in (
        {"strategy": "magnitude"},
        {"ratio": 1.5},
        {"cap": 0.0},
        {"cap": 1.5},
        {"dataset": "cifar"},
        {"epochs": 0},
        {"finetune_epochs": -1},
        {"iterations": 0},
        {"arch": "mlp"},
        {"image": "8x8"},
    ):
        with pytest.raises(FormatError):
            validate_config(RunConfig(**bad))
    validate_config(RunConfig())


def test_parse_arch():
    assert parse_arch("mlp:16,8") == ("mlp", [16, 8])
    assert parse_arch("cnn:4") == ("cnn", [4])
    for bad in ("mlp", "tree:4", "mlp:", "mlp:0", "mlp:a,b"):
        with pytest.raises(FormatError):
            parse_arch(bad)


def test_parse_image():
    assert parse_image("3x8x8") == (3, 8, 8)
    assert parse_image("1X12X12") == (1, 12, 12)
    for bad in ("8x8", "3x8x8x2", "0x4x4", "axbxc"):
        with pytest.raises(FormatError):
            parse_image(bad)


def test_resolve_cap_defaults():
    cfg = RunConfig()
    assert resolve_cap(cfg, iterative=False) == 0.95
    assert resolve_cap(cfg, iterative=True) == 0.5
    explicit = RunConfig(cap=0.7)
    assert resolve_cap(explicit, iterative=False) == 0.7
    assert resolve_cap(explicit, iterative=True) == 0.7


def test_synth_blobs_deterministic():
    a = synth_dataset("blobs", seed=4, n=50, classes=3, dim=2)
    b = synth_dataset("blobs", seed=4, n=50, classes=3, dim=2)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.y, b.y)
    c = synth_dataset("blobs", seed=5, n=50, classes=3, dim=2)
    assert not np.array_equal(a.x, c.x)


def test_synth_blobs_task_seed_shares_class_structure():
    a = synth_dataset("blobs", seed=10, n=400, classes=4, dim=2, sigma=0.2, task_seed=7)
    b = synth_dataset("blobs", seed=11, n=400, classes=4, dim=2, sigma=0.2, task_seed=7)
    c = synth_dataset("blobs", seed=10, n=400, classes=4, dim=2, sigma=0.2, task_seed=8)
    for cls in range(4):
        mean_a = a.x[a.y == cls].mean(axis=0)
        mean_b = b.x[b.y == cls].mean(axis=0)
        mean_c = c.x[c.y == cls].mean(axis=0)
        assert np.linalg.norm(mean_a - mean_b) <= 0.2
        assert np.linalg.norm(mean_a - mean_c) >= 0.5


def test_synth_blobs_image_templates():
    a = synth_dataset(
        "blobs", seed=1, n=30, classes=4, image_shape=(3, 8, 8), sigma=1.1, task_seed=0
    )
    b = synth_dataset(
        "blobs", seed=2, n=30, classes=4, image_shape=(3, 8, 8), sigma=1.1, task_seed=0
    )
    assert a.x.shape == (30, 3, 8, 8)
    assert np.all(np.isfinite(a.x))
    # same task, different sample seed: per-class template means agree
    for cls in range(4):
        if np.any(a.y == cls) and np.any(b.y == cls):
            diff = a.x[a.y == cls].mean(axis=0) - b.x[b.y == cls].mean(axis=0)
            assert np.abs(diff).mean() < 1.0


def test_synth_moons():
    ds = synth_dataset("moons", seed=0, n=80, classes=2)
    assert ds.x.shape == (80, 2)
    assert set(np.unique(ds.y)) <= {0, 1}
    with pytest.raises(ValidationError):
        synth_dataset("moons", seed=0, n=10, classes=3)


def test_synth_random_and_unknown_kind():
    ds = synth_dataset("random", seed=0, n=12, classes=5, image_shape=(2, 4, 4))
    assert ds.x.shape == (12, 2, 4, 4)
    assert ds.num_classes == 5
    with pytest.raises(ValidationError):
        synth_dataset("spiral", seed=0, n=10, classes=2)


def test_dataset_validation():
    with pytest.raises(ValidationError):
        Dataset(x=np.zeros((3, 2)), y=np.zeros(2, dtype=int), num_classes=2)
    with pytest.raises(ValidationError):
        Dataset(x=np.array([[np.inf, 0.0]]), y=np.array([0]), num_classes=2)
    with pytest.raises(ValidationError):
        Dataset(x=np.zeros((2, 2)), y=np.array([0, 5]), num_classes=2)


def write_idx_images(path, arr):
    with open(path, "wb") as fh:
        fh.write(struct.pack(">I", 0x00000803))
        fh.write(struct.pack(">III", *arr.shape))
        fh.write(arr.astype(np.uint8).tobytes())
    return str(path)


def write_idx_labels(path, arr):
    with open(path, "wb") as fh:
        fh.write(struct.pack(">I", 0x00000801))
        fh.write(struct.pack(">I", arr.shape[0]))
        fh.write(arr.astype(np.uint8).tobytes())
    return str(path)


def test_idx_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, (4, 5, 5)).astype(np.uint8)
    labels = np.array([0, 2, 1, 2], dtype=np.uint8)
    ip = write_idx_images(tmp_path / "img.idx", images)
    lp = write_idx_labels(tmp_path / "lab.idx", labels)
    np.testing.assert_allclose(read_idx(ip), images / 255.0, atol=1e-15)
    np.testing.assert_array_equal(read_idx(lp), labels)
    ds = load_idx(ip, lp)
    assert ds.x.shape == (4, 1, 5, 5)
    assert ds.num_classes == 3
    assert float(ds.x.max()) <= 1.0


def test_idx_error_paths(tmp_path):
    short = tmp_path / "short.idx"
    short.write_bytes(b"\x00\x00")
    with pytest.raises(FormatError, match="truncated IDX header"):
        read_idx(str(short))
    bad_magic = tmp_path / "magic.idx"
    bad_magic.write_bytes(struct.pack(">I", 0x00000805) + b"\x00" * 8)
    with pytest.raises(FormatError, match="unknown IDX magic"):
        read_idx(str(bad_magic))
    bad_dims = tmp_path / "dims.idx"
    bad_dims.write_bytes(struct.pack(">I", 0x00000803) + struct.pack(">II", 2, 2))
    with pytest.raises(FormatError, match="truncated IDX dimension"):
        read_idx(str(bad_dims))
    short_payload = tmp_path / "payload.idx"
    short_payload.write_bytes(
        struct.pack(">IIII", 0x00000803, 4, 5, 5) + b"\x00" * 50
    )
    with pytest.raises(FormatError, match="payload shorter"):
        read_idx(str(short_payload))
    images = write_idx_images(
        tmp_path / "ok_img.idx", np.zeros((4, 5, 5), dtype=np.uint8)
    )
    labels = write_idx_labels(tmp_path / "ok_lab.idx", np.zeros(3, dtype=np.uint8))
    with pytest.raises(FormatError, match="expected an image IDX file"):
        load_idx(labels, labels)
    with pytest.raises(FormatError, match="sample count"):
        load_idx(images, labels)


def test_checkpoint_roundtrip_plain_network():
    net = build_cnn((2, 6, 6), [4, 5], 3, seed=0)
    blob = checkpoint.network_bytes(net)
    assert blob == checkpoint.network_bytes(net)
    loaded = checkpoint.network_from_bytes(blob)
    assert [l.kind for l in loaded.layers] == [l.kind for l in net.layers]
    x = np.random.default_rng(0).standard_normal((3, 2, 6, 6))
    np.testing.assert_array_equal(loaded.forward(x), net.forward(x))
    conv = loaded.layers[0]
    assert (conv.stride, conv.padding, conv.k, conv.c_in) == (2, 1, 3, 2)


def test_checkpoint_roundtrip_bottlenecks(tmp_path):
    from kfeprune.reparam import absorb_depthwise, depthwise_decompose, eigenprune, to_kfe
    from kfeprune.kfac import EigenFactors

    rng = np.random.default_rng(1)

    def ortho(d):
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        return q

    dense = to_kfe(
        DenseLayer(rng.standard_normal((6, 5)), rng.standard_normal(5)),
        EigenFactors(ortho(6), np.ones(6), ortho(5), np.ones(5), "dense"),
    )
    dense = eigenprune(dense, [4], [0, 2])
    conv = to_kfe(
        ConvLayer(rng.standard_normal((3 * 9, 4)), None, c_in=3, k=3, stride=1,
                  padding=1),
        EigenFactors(ortho(3), np.ones(3), ortho(4), np.ones(4), "conv_channel"),
        basis="channel",
    )
    diag = absorb_depthwise(conv, depthwise_decompose(conv, rank=2, seed=0))
    for layer in (dense, conv, diag):
        net = Network([layer])
        path = tmp_path / "one.kfep"
        checkpoint.save_network(str(path), net)
        loaded = checkpoint.load_network(str(path))
        got = loaded.layers[0]
        np.testing.assert_array_equal(got.qa, layer.qa)
        np.testing.assert_array_equal(got.core, layer.core)
        np.testing.assert_array_equal(got.qs, layer.qs)
        np.testing.assert_array_equal(got.b, layer.b)
        np.testing.assert_array_equal(got.kept_rows, layer.kept_rows)
        np.testing.assert_array_equal(got.kept_cols, layer.kept_cols)
        assert got.core_mode == layer.core_mode
    assert checkpoint.network_bytes(Network([diag])) == checkpoint.network_bytes(
        Network([diag])
    )


def test_checkpoint_format_errors(tmp_path):
    net = build_mlp(3, [4], 2, seed=0)
    blob = checkpoint.network_bytes(net)
    with pytest.raises(FormatError, match="magic"):
        checkpoint.network_from_bytes(b"XXXX" + blob[4:])
    with pytest.raises(FormatError, match="version"):
        checkpoint.network_from_bytes(blob[:4] + struct.pack("<I", 99) + blob[8:])
    with pytest.raises(FormatError):
        checkpoint.network_from_bytes(blob[:-3])
    with pytest.raises(FormatError, match="trailing"):
        checkpoint.network_from_bytes(blob + b"\x00")
    with pytest.raises(FormatError, match="tag"):
        checkpoint.network_from_bytes(blob[:13] + b"\xfa" + blob[14:])
    factors_path = tmp_path / "factors.kfep"
    f = KronFactors(
        a=np.eye(2), s=np.eye(2), count=1, a_locs=1, s_locs=1, variant="dense"
    )
    checkpoint.save_factors(str(factors_path), {0: f})
    with pytest.raises(FormatError, match="network"):
        checkpoint.load_network(str(factors_path))
    net_path = tmp_path / "net.kfep"
    checkpoint.save_network(str(net_path), net)
    with pytest.raises(FormatError, match="factors"):
        checkpoint.load_factors(str(net_path))


def test_factors_roundtrip(tmp_path):
    from kfeprune.kfac import eigenbasis

    rng = np.random.default_rng(2)
    m1 = rng.standard_normal((3, 3))
    m2 = rng.standard_normal((2, 2))
    f = KronFactors(
        a=m1 @ m1.T, s=m2 @ m2.T, count=7, a_locs=4, s_locs=4, variant="conv_channel"
    )
    ef = eigenbasis(f)
    path = tmp_path / "factors.kfep"
    checkpoint.save_factors(str(path), {2: f}, {2: ef})
    factors, eigen = checkpoint.load_factors(str(path))
    got = factors[2]
    np.testing.assert_array_equal(got.a, f.a)
    np.testing.assert_array_equal(got.s, f.s)
    assert (got.count, got.a_locs, got.s_locs, got.variant) == (7, 4, 4, "conv_channel")
    np.testing.assert_array_equal(eigen[2].qa, ef.qa)
    np.testing.assert_array_equal(eigen[2].lam_s, ef.lam_s)


def test_count_params_examples():
    dense = Network([DenseLayer(np.zeros((10, 5)), np.zeros(5))])
    assert accounting.count_params(dense) == 55
    mlp = build_mlp(2, [16], 4, seed=0)
    assert accounting.count_params(mlp) == 2 * 16 + 16 + 16 * 4 + 4


def test_count_flops_examples():
    dense = Network([DenseLayer(np.zeros((10, 5)), np.zeros(5))])
    assert accounting.count_flops(dense, (10,)) == 100
    conv = Network(
        [ConvLayer(np.zeros((2 * 9, 4)), None, c_in=2, k=3, stride=1, padding=1)]
    )
    assert accounting.count_flops(conv, (2, 8, 8)) == 9216


def test_reduction_percent():
    assert accounting.reduction_percent(200, 100) == 50.0
    assert accounting.reduction_percent(100, 100) == 0.0
    with pytest.raises(ValidationError):
        accounting.reduction_percent(0, 1)


def test_bottleneck_param_count_matches_stored_tensors():
    layer = BottleneckConvLayer(
        qa=np.zeros((6, 4)),
        core=np.zeros((4, 3, 9)),
        qs=np.zeros((5, 3)),
        bias=np.zeros(5),
        c_in=6,
        k=3,
        stride=1,
        padding=1,
        basis="channel",
    )
    expected = 6 * 4 + 4 * 3 * 9 + 5 * 3 + 5
    assert layer.param_count() == expected


def test_layer_summary_totals():
    net = build_cnn((2, 6, 6), [4], 3, seed=0)
    rows = accounting.layer_summary(net, (2, 6, 6))
    assert [r["kind"] for r in rows] == ["conv", "relu", "flatten", "dense"]
    assert sum(r["params"] for r in rows) == accounting.count_params(net)
    assert sum(r["flops"] for r in rows) == accounting.count_flops(net, (2, 6, 6))


def test_eligible_layers_and_variants():
    mlp = build_mlp(2, [16], 4, seed=0)
    assert eligible_layer_ids(mlp, "obd") == [0, 2]
    assert eligible_layer_ids(mlp, "obs") == [0, 2]
    assert eligible_layer_ids(mlp, "c-obd") == [0]
    assert eligible_layer_ids(mlp, "eigendamage") == [0]
    single = build_mlp(2, [], 4, seed=0)
    assert eligible_layer_ids(single, "kron-obd") == []
    assert conv_variant_for("eigendamage") == "channel"
    assert conv_variant_for("kron-obs") == "full"


def test_cmd_train_outputs(mlp_run):
    cfg, record = mlp_run
    assert record["train_accuracy"] >= 0.99
    assert record["test_accuracy"] >= 0.99
    assert record["params"] == 116
    for key in ("train_loss", "train_accuracy", "test_loss", "test_accuracy"):
        assert key in record
    assert os.path.exists(os.path.join(cfg.out, CHECKPOINT_NAME))
    assert read_metrics(cfg.out)["command"] == "train"
    with open(os.path.join(cfg.out, "curve.csv"), "r", encoding="ascii") as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == "epoch,lr,train_loss,train_accuracy"
    assert len(lines) == 21
    lrs = [float(line.split(",")[1]) for line in lines[1:]]
    # the schedule drops by 10x entering epochs 10 and 15 (1-based)
    assert lrs[:9] == [0.1] * 9
    assert lrs[9:14] == pytest.approx([0.01] * 5)
    assert lrs[14:] == pytest.approx([0.001] * 6)


def test_cmd_train_deterministic(mlp_run, tmp_path):
    cfg, record = mlp_run
    again = cmd_train(replace(cfg, out=str(tmp_path / "again")))
    assert checkpoint_bytes(cfg.out) == checkpoint_bytes(str(tmp_path / "again"))
    a, b = sans_time(record), sans_time(again)
    assert a == b


def test_cmd_eval_matches_train_and_repeats(mlp_run, tmp_path):
    cfg, train_record = mlp_run
    ev1 = cmd_eval(derived(cfg, tmp_path / "e1"))
    ev2 = cmd_eval(derived(cfg, tmp_path / "e2"))
    for key in ("train_loss", "train_accuracy", "test_loss", "test_accuracy"):
        assert ev1[key] == train_record[key]
    assert sans_time(ev1) == sans_time(ev2)


def test_cmd_prune_ratio_zero_is_identity(mlp_run, tmp_path):
    cfg, _ = mlp_run
    record = cmd_prune(derived(cfg, tmp_path / "p0", strategy="obd", ratio=0.0))
    assert record["params"] == record["params_before"]
    assert record["weight_reduction_percent"] == 0.0
    assert record["per_layer_remaining"] == [1.0, 1.0]
    assert checkpoint_bytes(str(tmp_path / "p0")) == checkpoint_bytes(cfg.out)


def test_cmd_prune_eigendamage_rotation_is_lossless(mlp_run, tmp_path):
    cfg, _ = mlp_run
    record = cmd_prune(
        derived(cfg, tmp_path / "rot", strategy="eigendamage", ratio=0.0)
    )
    assert record["predicted_cost"] == 0.0
    assert abs(record["train_loss_post"] - record["train_loss_pre"]) <= 1e-9


@pytest.mark.parametrize(
    "strategy", ["obd", "obs", "c-obd", "c-obs", "kron-obd", "kron-obs", "eigendamage"]
)
def test_cmd_prune_strategies_smoke(mlp_run, tmp_path, strategy):
    cfg, _ = mlp_run
    out = tmp_path / "run"
    record = cmd_prune(derived(cfg, out, strategy=strategy, ratio=0.3, cap=0.9))
    assert record["strategy"] == strategy
    assert np.isfinite(record["test_loss"])
    loaded = checkpoint.load_network(os.path.join(str(out), CHECKPOINT_NAME))
    assert loaded.forward(np.zeros((1, 2))).shape == (1, 4)
    kinds = set()
    with open(os.path.join(str(out), "importance.csv"), "r", encoding="ascii") as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == "layer_id,unit_kind,unit_id,delta_L,strategy"
    for line in lines[1:]:
        layer_id, kind, unit_id, delta_l, strat = line.split(",")
        kinds.add(kind)
        assert strat == strategy.replace("-", "_")
        assert float(delta_l) >= -1e-8
    if strategy in ("obd", "obs"):
        assert kinds == {"weight"}
    elif strategy == "eigendamage":
        assert kinds == {"kfe_row", "kfe_col"}
    else:
        assert kinds == {"filter"}
    # every strategy leaves at least one layer with removed coefficients:
    # masked ones zero weights, eigendamage shrinks the core
    assert any(frac < 1.0 for frac in record["per_layer_remaining"])


def test_prune_once_kron_obs_zeroes_filter_columns(mlp_run):
    cfg, _ = mlp_run
    net = checkpoint.load_network(os.path.join(cfg.out, CHECKPOINT_NAME))
    ds = build_dataset(cfg, "train")
    pcfg = replace(cfg, strategy="kron-obs", ratio=0.5)
    tables, mask, _ = prune_once(net, ds, pcfg, cap=0.95)
    removed = mask.removed(0, "filter")
    assert removed
    np.testing.assert_array_equal(net.layers[0].w[:, removed], 0.0)
    np.testing.assert_array_equal(net.layers[0].b[removed], 0.0)
    kept = mask.kept(0, "filter")
    assert np.any(net.layers[0].w[:, kept] != 0.0)


def importance_bytes(out_dir, tables):
    os.makedirs(out_dir)
    with open(write_importance(str(out_dir), tables), "rb") as fh:
        return fh.read()


def _prune_obs_recording(blob, ds, cfg, update, monkeypatch):
    """prune_once with `update` as the obs compensation; also returns the
    removal order handed to it for each layer."""
    orders = []

    def recorded(w, a_inv, s_inv, order):
        orders.append([int(q) for q in order])
        return update(w, a_inv, s_inv, order)

    monkeypatch.setattr(criteria, "obs_sequential_update", recorded)
    net = checkpoint.network_from_bytes(blob)
    tables, mask, _ = prune_once(net, ds, cfg, cap=0.9)
    return net, tables, mask, orders


@pytest.mark.parametrize("seed", [0, 5])
def test_prune_once_obs_blocked_update_matches_rank1_loop(
    obs_loop, monkeypatch, tmp_path, seed
):
    cfg = RunConfig(
        seed=seed, arch="mlp:32,16", dataset="blobs", classes=4, dim=8,
        n_train=256, n_test=64, strategy="obs", ratio=0.6,
    )
    ds = build_dataset(cfg, "train")
    net = build_network(cfg, ds.num_classes)
    # exact zeros all score 0.0: ties the removal order breaks by unit id
    net.layers[2].w[::3, ::2] = 0.0
    blob = checkpoint.network_bytes(net)
    blocked = _prune_obs_recording(
        blob, ds, cfg, criteria.obs_sequential_update, monkeypatch
    )
    looped = _prune_obs_recording(blob, ds, cfg, obs_loop, monkeypatch)

    net_b, tables, mask, orders = blocked
    net_l, tables_l, mask_l, _ = looped
    assert mask.groups == mask_l.groups
    assert importance_bytes(tmp_path / "b", tables) == importance_bytes(
        tmp_path / "l", tables_l
    )
    # the removal order is ascending (score, unit id), ties included
    for table, order in zip(tables, orders):
        removed = set(mask.removed(table.entries[0].layer_id, "weight"))
        ranked = sorted(
            (e for e in table.entries if e.unit_id in removed),
            key=lambda e: (e.delta_l, e.unit_id),
        )
        assert order == [e.unit_id for e in ranked]
    assert max(len(order) for order in orders) > 2 * criteria.OBS_BLOCK
    for i in net_b.parameterized_ids():
        w_b, w_l = net_b.layers[i].w, net_l.layers[i].w
        assert np.max(np.abs(w_b - w_l)) <= 1e-10 * np.max(np.abs(w_l))
        removed = mask.removed(i, "weight")
        np.testing.assert_array_equal(w_b.reshape(-1, order="F")[removed], 0.0)


def test_cmd_prune_then_eval_agree(mlp_run, tmp_path):
    cfg, _ = mlp_run
    out = tmp_path / "pruned"
    prune_rec = cmd_prune(derived(cfg, out, strategy="c-obd", ratio=0.4))
    eval_rec = cmd_eval(
        replace(
            cfg,
            checkpoint=os.path.join(str(out), CHECKPOINT_NAME),
            out=str(tmp_path / "check"),
        )
    )
    for key in ("train_loss", "train_accuracy", "test_loss", "test_accuracy"):
        assert eval_rec[key] == prune_rec[key]


def test_cmd_finetune_zero_epochs_is_passthrough(mlp_run, tmp_path):
    cfg, record = mlp_run
    out = tmp_path / "ft0"
    ft = cmd_finetune(derived(cfg, out, finetune_epochs=0))
    assert checkpoint_bytes(str(out)) == checkpoint_bytes(cfg.out)
    assert ft["train_loss_post"] == ft["train_loss_pre"]
    assert ft["train_loss_post"] == record["train_loss"]
    with open(os.path.join(str(out), "curve.csv"), "r", encoding="ascii") as fh:
        assert fh.read().strip() == "epoch,lr,train_loss,train_accuracy"


def test_cmd_finetune_recovers_and_decays_lr(mlp_run, tmp_path):
    cfg, _ = mlp_run
    pruned = tmp_path / "pruned"
    cmd_prune(derived(cfg, pruned, strategy="obd", ratio=0.5))
    before = checkpoint.load_network(os.path.join(str(pruned), CHECKPOINT_NAME))
    zero_mask = before.layers[0].w == 0.0
    assert zero_mask.any()
    out = tmp_path / "ft"
    ft = cmd_finetune(
        replace(
            cfg,
            checkpoint=os.path.join(str(pruned), CHECKPOINT_NAME),
            out=str(out),
            finetune_epochs=4,
            finetune_lr=0.02,
        )
    )
    assert ft["test_accuracy"] >= 0.9
    after = checkpoint.load_network(os.path.join(str(out), CHECKPOINT_NAME))
    np.testing.assert_array_equal(after.layers[0].w[zero_mask], 0.0)
    with open(os.path.join(str(out), "curve.csv"), "r", encoding="ascii") as fh:
        lines = fh.read().strip().split("\n")
    lrs = [float(line.split(",")[1]) for line in lines[1:]]
    assert lrs == pytest.approx([0.02, 0.002, 0.0002, 0.0002])


def test_cmd_iterate_single_round_composes(mlp_run, tmp_path):
    cfg, _ = mlp_run
    settings = dict(
        strategy="eigendamage",
        ratio=0.4,
        cap=0.6,
        finetune_epochs=2,
        finetune_lr=0.02,
    )
    it = cmd_iterate(derived(cfg, tmp_path / "it", iterations=1, **settings))
    pruned = tmp_path / "pr"
    cmd_prune(derived(cfg, pruned, **settings))
    ft = cmd_finetune(
        replace(
            cfg,
            checkpoint=os.path.join(str(pruned), CHECKPOINT_NAME),
            out=str(tmp_path / "ft"),
            **settings,
        )
    )
    assert checkpoint_bytes(str(tmp_path / "it")) == checkpoint_bytes(
        str(tmp_path / "ft")
    )
    assert len(it["rounds"]) == 1
    assert it["rounds"][0]["params"] == ft["params"]
    assert it["test_loss"] == ft["test_loss"]


def test_cmd_iterate_monotone_params(mlp_run, tmp_path):
    cfg, _ = mlp_run
    record = cmd_iterate(
        derived(
            cfg,
            tmp_path / "it3",
            strategy="eigendamage",
            ratio=0.4,
            cap=0.5,
            iterations=3,
            finetune_epochs=2,
        )
    )
    assert "aborted" not in record
    params = [r["params"] for r in record["rounds"]]
    assert len(params) == 3
    # round 1 rewrites dense layers as bottlenecks, so the count only
    # shrinks monotonically from round to round
    assert all(b < a for a, b in zip(params, params[1:]))
    assert record["params"] == params[-1]
    cores = [r["per_layer_remaining"][0] for r in record["rounds"]]
    assert all(b < a for a, b in zip(cores, cores[1:]))
    assert cores[0] < 1.0


def test_cmd_iterate_abort_restores_network(mlp_run, tmp_path):
    cfg, _ = mlp_run
    record = cmd_iterate(
        derived(
            cfg,
            tmp_path / "abort",
            strategy="eigendamage",
            ratio=1.0,
            cap=1.0,
            iterations=2,
            finetune_epochs=1,
        )
    )
    assert record["aborted"]["round"] == 1
    assert "remove every" in record["aborted"]["reason"]
    assert record["rounds"] == []
    assert record["params"] == record["params_before"]
    assert checkpoint_bytes(str(tmp_path / "abort")) == checkpoint_bytes(cfg.out)


def test_cmd_decompose_on_pruned_cnn(cnn_baseline, tmp_path):
    cfg, net, _, _ = cnn_baseline(0)
    base = tmp_path / "base.kfep"
    checkpoint.save_network(str(base), net)
    pruned = tmp_path / "pruned"
    cmd_prune(
        replace(cfg, checkpoint=str(base), out=str(pruned), ratio=0.5, cap=0.95)
    )
    pruned_params = read_metrics(str(pruned))["params"]
    record = cmd_decompose(
        replace(
            cfg,
            checkpoint=os.path.join(str(pruned), CHECKPOINT_NAME),
            out=str(tmp_path / "dec"),
            rank=2,
        )
    )
    assert record["params"] < pruned_params
    assert len(record["layers"]) == 2
    for row in record["layers"]:
        assert row["rank"] == 2
        assert row["objective"] >= 0.0
    loaded = checkpoint.load_network(
        os.path.join(str(tmp_path / "dec"), CHECKPOINT_NAME)
    )
    for i in loaded.parameterized_ids():
        if loaded.layers[i].kind == "bottleneck_conv":
            assert loaded.layers[i].core_mode == "diag"


def test_cmd_decompose_needs_channel_cores(mlp_run, tmp_path):
    cfg, _ = mlp_run
    with pytest.raises(ValidationError):
        cmd_decompose(derived(cfg, tmp_path / "dec"))


def test_cli_train_and_eval(tmp_path, capsys):
    out = tmp_path / "run"
    config = write_config(
        tmp_path / "run.cfg",
        arch="mlp:8",
        dataset="blobs",
        classes=3,
        dim=2,
        n_train=64,
        n_test=32,
        epochs=2,
        out=str(out),
    )
    assert cli.main(["train", "--config", config]) == 0
    captured = capsys.readouterr()
    assert "train finished" in captured.out
    assert "test_accuracy" in captured.out
    assert os.path.exists(os.path.join(str(out), "metrics.json"))
    # eval resolves the checkpoint inside the same output directory
    assert cli.main(["eval", "--config", config]) == 0
    captured = capsys.readouterr()
    assert "eval finished" in captured.out
    assert read_metrics(str(out))["command"] == "eval"


def test_cli_idx_end_to_end(tmp_path, capsys):
    rng = np.random.default_rng(3)
    images = rng.integers(0, 256, (8, 5, 5)).astype(np.uint8)
    labels = (np.arange(8) % 2).astype(np.uint8)
    ip = write_idx_images(tmp_path / "img.idx", images)
    lp = write_idx_labels(tmp_path / "lab.idx", labels)
    config = write_config(
        tmp_path / "idx.cfg",
        dataset="idx",
        train_images=ip,
        train_labels=lp,
        test_images=ip,
        test_labels=lp,
        arch="mlp:8",
        image="1x5x5",
        epochs=1,
        out=str(tmp_path / "idxrun"),
    )
    assert cli.main(["train", "--config", config]) == 0
    capsys.readouterr()


def test_cli_usage_errors(tmp_path, capsys):
    # no --config at all
    assert cli.main(["train"]) == 2
    capsys.readouterr()
    # config file that does not exist, name reported
    missing = str(tmp_path / "nope.cfg")
    assert cli.main(["train", "--config", missing]) == 2
    assert "nope.cfg" in capsys.readouterr().err
    # unknown key in the file
    bad = write_config(tmp_path / "bad.cfg", bogus=1)
    assert cli.main(["train", "--config", bad]) == 2
    assert "bogus" in capsys.readouterr().err
    # override pushing a value out of range
    ok = write_config(tmp_path / "ok.cfg", epochs=1, out=str(tmp_path / "o"))
    assert cli.main(["train", "--config", ok, "--ratio", "1.5"]) == 2
    capsys.readouterr()
    # idx dataset without paths
    idx = write_config(tmp_path / "idx.cfg", dataset="idx", out=str(tmp_path / "i"))
    assert cli.main(["train", "--config", idx]) == 2
    assert "idx" in capsys.readouterr().err
    # checkpoint file missing for eval
    ev = write_config(tmp_path / "ev.cfg", checkpoint=str(tmp_path / "ghost.kfep"))
    assert cli.main(["eval", "--config", ev, "--out", str(tmp_path / "e")]) == 2
    assert "ghost.kfep" in capsys.readouterr().err


def test_cli_numeric_failure_exit_code(mlp_run, tmp_path, capsys):
    cfg, _ = mlp_run
    config = write_config(
        tmp_path / "prune.cfg",
        checkpoint=os.path.join(cfg.out, CHECKPOINT_NAME),
        out=str(tmp_path / "out"),
        **MLP_SETTINGS,
    )
    code = cli.main(
        ["prune", "--config", config, "--strategy", "obd", "--damping", "-1"]
    )
    assert code == 1
    assert "damping" in capsys.readouterr().err


def test_cli_overrides(mlp_run, tmp_path, capsys):
    cfg, _ = mlp_run
    config = write_config(
        tmp_path / "ev.cfg",
        checkpoint=os.path.join(cfg.out, CHECKPOINT_NAME),
        **MLP_SETTINGS,
    )
    out = tmp_path / "chosen"
    assert cli.main(["eval", "--config", config, "--seed", "5", "--out", str(out)]) == 0
    capsys.readouterr()
    record = read_metrics(str(out))
    assert record["seed"] == 5
    assert record["command"] == "eval"
