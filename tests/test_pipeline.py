"""End-to-end tests: config parsing, datasets, checkpoints, accounting,
pipeline commands, and the command line."""

import hashlib
import json
import os
import struct
import subprocess
import sys
import zlib
from dataclasses import replace

import numpy as np
import pytest

from kfeprune import accounting, checkpoint, cli, criteria, kfac, pipeline, reparam
from kfeprune.config import (
    STRATEGIES,
    RunConfig,
    parse_arch,
    parse_config,
    parse_image,
    resolve_cap,
    validate_config,
)
from kfeprune.data import Dataset, load_idx, read_idx, synth_dataset
from kfeprune.errors import (
    DimensionError,
    FormatError,
    NumericError,
    SingularityError,
    TrainingDivergenceError,
    ValidationError,
)
from kfeprune.layers import (
    BottleneckConvLayer,
    BottleneckDenseLayer,
    ConvLayer,
    DenseLayer,
    FlattenLayer,
    ReluLayer,
)
from kfeprune.network import Network, build_cnn, build_mlp
from kfeprune.training import evaluate
from kfeprune.pipeline import (
    CHECKPOINT_NAME,
    EVAL_FIELDS,
    _finetune,
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
    network_snapshot,
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


# an mlp on 64-pixel images: eigendamage's factored first layer pays
# (it keeps a small rank of the 64 input directions), where on mlp_run's
# two-dimensional input every prune short of ratio 0.8 folds it back
IMAGE_MLP_SETTINGS = dict(
    arch="mlp:32",
    image="1x8x8",
    dataset="blobs",
    classes=4,
    n_train=256,
    n_test=128,
    sigma=1.0,
    epochs=10,
    lr=0.1,
    batch_size=32,
)


@pytest.fixture(scope="module")
def image_mlp_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("image_mlp_base")
    cfg = RunConfig(seed=0, out=str(out), **IMAGE_MLP_SETTINGS)
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


def test_non_ascii_config_is_a_usage_error(tmp_path, capsys):
    # one UTF-8 letter, even in a comment: exit 2 with an error line
    path = tmp_path / "run.cfg"
    path.write_bytes("# caf\u00e9\nseed = 1\n".encode("utf-8"))
    with pytest.raises(FormatError, match="config files are ASCII"):
        parse_config(str(path))
    assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: config files are ASCII")
    assert not os.path.exists(tmp_path / "run")


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
        {"batch_size": 0},
        {"batch_size": -4},
        {"n_train": 0},
        {"n_test": 0},
        {"classes": 0},
        {"dim": 0},
        {"damping": -1.0},
        {"damping": float("nan")},
        {"damping": float("inf")},
        {"seed": -1},
        {"sigma": -0.5},
        {"sigma": float("nan")},
        {"sigma": float("inf")},
        {"fisher_batches": -4},
        {"rank": -3},
        {"lr": -0.5},
        {"lr": 0.0},
        {"lr": float("inf")},
        {"lr": float("nan")},
        {"finetune_lr": -0.02},
        {"finetune_lr": 0.0},
        {"finetune_lr": float("inf")},
        {"finetune_lr": float("nan")},
        {"weight_decay": -1e-4},
        {"weight_decay": float("inf")},
        {"weight_decay": float("nan")},
        {"dataset": "moons", "classes": 3},
        {"dataset": "moons", "classes": 1},
    ):
        with pytest.raises(FormatError):
            validate_config(RunConfig(**bad))
    validate_config(RunConfig())
    validate_config(RunConfig(dataset="moons", classes=2, finetune_epochs=0))


def test_parse_arch():
    assert parse_arch("mlp:16,8") == ("mlp", [16, 8])
    assert parse_arch("cnn:4") == ("cnn", [4])
    for bad in ("mlp", "tree:4", "mlp:", "mlp:0", "mlp:a,b", "mlp:16,,8", "mlp:16,", "cnn:,8"):
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


@pytest.mark.parametrize(
    "dims",
    # 2**48 bytes; a product that overflows int64 to 0; one that wraps negative
    [(2**16, 2**16, 2**16), (2**22, 2**22, 2**20), (2**31, 2**31, 2**31 - 1)],
)
def test_idx_header_claiming_more_than_the_file_is_a_usage_error(tmp_path, capsys, dims):
    """A header whose payload the file cannot hold is refused before any
    read: a FormatError, and through the CLI exit 2 with no output
    directory."""
    huge = tmp_path / "huge.idx"
    huge.write_bytes(struct.pack(">IIII", 0x00000803, *dims))
    with pytest.raises(FormatError, match="payload shorter than header claims"):
        read_idx(str(huge))
    lp = write_idx_labels(tmp_path / "lab.idx", np.arange(8) % 2)
    config = write_config(
        tmp_path / "huge.cfg", dataset="idx", train_images=huge, train_labels=lp,
        test_images=huge, test_labels=lp, arch="mlp:8", image="1x5x5", epochs=1,
        out=str(tmp_path / "run"),
    )
    assert cli.main(["train", "--config", config]) == 2
    assert capsys.readouterr().err == f"error: {huge}: IDX payload shorter than header claims\n"
    assert not os.path.exists(tmp_path / "run")


def test_idx_payload_longer_than_header_claims_is_a_usage_error(tmp_path, capsys):
    """An IDX file must hold exactly what its header claims: bytes past
    the claim are refused, not dropped, and through the CLI exit 2 with
    no output directory."""
    images = tmp_path / "img.idx"
    images.write_bytes(struct.pack(">IIII", 0x00000803, 1, 2, 2) + bytes(12))
    labels = tmp_path / "lab.idx"
    labels.write_bytes(struct.pack(">II", 0x00000801, 2) + bytes(5))
    for path in (images, labels):
        with pytest.raises(FormatError, match="IDX payload longer than header claims"):
            read_idx(str(path))
    lp = write_idx_labels(tmp_path / "ok_lab.idx", np.zeros(1))
    config = write_config(
        tmp_path / "long.cfg", dataset="idx", train_images=images, train_labels=lp,
        test_images=images, test_labels=lp, arch="mlp:8", epochs=1, out=str(tmp_path / "run"),
    )
    assert cli.main(["train", "--config", config]) == 2
    assert capsys.readouterr().err == f"error: {images}: IDX payload longer than header claims\n"
    assert not os.path.exists(tmp_path / "run")


def test_empty_idx_split_is_a_usage_error(tmp_path, capsys):
    """An IDX pair with no samples is refused when it is loaded: the CLI
    exits 2 before any output directory exists, for either split."""
    rng = np.random.default_rng(3)
    ip = write_idx_images(tmp_path / "img.idx", rng.integers(0, 256, (8, 5, 5)))
    lp = write_idx_labels(tmp_path / "lab.idx", np.arange(8) % 2)
    empty_ip = write_idx_images(tmp_path / "empty_img.idx", np.zeros((0, 5, 5)))
    empty_lp = write_idx_labels(tmp_path / "empty_lab.idx", np.zeros(0))
    with pytest.raises(FormatError, match="no samples"):
        load_idx(empty_ip, empty_lp)
    for split in ("train", "test"):
        settings = dict(
            dataset="idx", train_images=ip, train_labels=lp, test_images=ip, test_labels=lp,
            arch="mlp:8", image="1x5x5", epochs=1, out=str(tmp_path / "run"),
        )
        settings.update({f"{split}_images": empty_ip, f"{split}_labels": empty_lp})
        config = write_config(tmp_path / "empty.cfg", **settings)
        assert cli.main(["train", "--config", config]) == 2
        assert capsys.readouterr().err == f"error: {empty_ip}: IDX files hold no samples\n"
        assert not os.path.exists(tmp_path / "run")


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
        EigenFactors(ortho(6), np.ones(6), ortho(5), np.ones(5)),
    )
    dense = eigenprune(dense, [4], [0, 2])
    conv = to_kfe(
        ConvLayer(rng.standard_normal((3 * 9, 4)), None, c_in=3, k=3, stride=1,
                  padding=1),
        EigenFactors(ortho(3), np.ones(3), ortho(4), np.ones(4)),
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
        checkpoint.network_from_bytes(resealed(blob[:-4] + b"\x00" + blob[-4:]))
    with pytest.raises(FormatError, match="tag"):
        checkpoint.network_from_bytes(resealed(blob[:13] + b"\xfa" + blob[14:]))
    # kind 2 named a curvature-factor file, a kind no longer written
    path = tmp_path / "factors.kfep"
    path.write_bytes(resealed(blob[:8] + b"\x02" + blob[9:]))
    with pytest.raises(FormatError, match="does not hold a network"):
        checkpoint.load_network(str(path))


def bottleneck_net(rng):
    """conv -> conv bottleneck -> flatten -> dense bottleneck -> dense, all
    cores full: every record kind a pruned checkpoint holds."""
    return Network([
        ConvLayer(rng.standard_normal((9, 2)), rng.standard_normal(2), c_in=1, k=3, padding=1),
        ReluLayer(),
        BottleneckConvLayer(
            rng.standard_normal((2, 2)), rng.standard_normal((2, 3, 9)),
            rng.standard_normal((3, 3)), rng.standard_normal(3),
            c_in=2, k=3, stride=2, padding=1,
        ),
        FlattenLayer(),
        BottleneckDenseLayer(
            rng.standard_normal((12, 2)), rng.standard_normal((2, 2)),
            rng.standard_normal((4, 2)),
        ),
        DenseLayer(rng.standard_normal((4, 3))),
    ])


def resealed(blob):
    """An edited version 2 file with its CRC32 trailer recomputed, so the
    reader gets past the checksum to the edit."""
    return blob[:-4] + struct.pack("<I", zlib.crc32(blob[:-4]))


def set_meta(blob, key, old, new):
    """Rewrite the first meta entry `key = old` of a serialized file to
    `new`, resealed."""
    field = struct.pack("<B", len(key)) + key.encode("ascii")
    assert field + struct.pack("<I", old) in blob
    return resealed(
        blob.replace(field + struct.pack("<I", old), field + struct.pack("<I", new), 1)
    )


def test_checkpoint_rejects_retired_patch_basis(tmp_path, capsys):
    blob = checkpoint.network_bytes(bottleneck_net(np.random.default_rng(4)))
    # the writer still emits basis code 0, the channel basis
    patch = set_meta(blob, "basis", 0, 1)
    with pytest.raises(FormatError, match="patch basis"):
        checkpoint.network_from_bytes(patch)
    path = tmp_path / "patch.kfep"
    path.write_bytes(patch)
    config = write_config(tmp_path / "ev.cfg", checkpoint=str(path))
    assert cli.main(["eval", "--config", config, "--out", str(tmp_path / "e")]) == 2
    assert "patch basis" in capsys.readouterr().err


def test_checkpoint_bad_codes_and_records_are_format_errors(tmp_path, capsys):
    blob = checkpoint.network_bytes(bottleneck_net(np.random.default_rng(5)))
    with pytest.raises(FormatError, match="unknown core_mode code 7"):
        checkpoint.network_from_bytes(set_meta(blob, "core_mode", 0, 7))
    # the depthwise core code on a dense bottleneck record: only conv
    # bottlenecks hold one
    dense = checkpoint.network_bytes(Network([BottleneckDenseLayer(np.eye(3), np.eye(3), np.eye(3))]))
    dense_diag = set_meta(dense, "core_mode", 0, 1)
    with pytest.raises(FormatError, match="dense bottleneck core_mode code 1"):
        checkpoint.network_from_bytes(dense_diag)
    path = tmp_path / "dense_diag.kfep"
    path.write_bytes(dense_diag)
    config = write_config(tmp_path / "ev.cfg", checkpoint=str(path))
    assert cli.main(["eval", "--config", config, "--out", str(tmp_path / "e")]) == 2
    assert "dense bottleneck core_mode code 1" in capsys.readouterr().err
    # a conv bottleneck reads its core mode off the core's rank, so the
    # code must match it: with rank 1 either core reshaped to the other
    # rank would otherwise load as the other mode
    rng = np.random.default_rng(6)
    for code, tag, core, other in ((0, b"\x02Wp", (1, 1, 9), (9, 1)), (1, b"\x01D", (9, 1), (1, 1, 9))):
        rank_1 = BottleneckConvLayer(
            rng.standard_normal((2, 1)), rng.standard_normal(core), rng.standard_normal((3, 1)),
            rng.standard_normal(3), c_in=2, k=3, stride=1, padding=1,
        )
        assert rank_1.core_mode == ("full", "diag")[code]
        blob_1 = checkpoint.network_bytes(Network([rank_1]))
        dims = tag + struct.pack(f"<BB{len(core)}I", 0, len(core), *core)
        assert dims in blob_1
        bad = blob_1.replace(dims, tag + struct.pack(f"<BB{len(other)}I", 0, len(other), *other))
        with pytest.raises(FormatError, match=f"core_mode code {code} does not match a {len(other)}-D core"):
            checkpoint.network_from_bytes(resealed(bad))
    # a kernel size that disagrees with the weight rows
    with pytest.raises(FormatError, match="malformed layer record"):
        checkpoint.network_from_bytes(set_meta(blob, "k", 3, 4))
    # stride 0 would load, then divide by zero in the first forward
    with pytest.raises(FormatError, match="stride >= 1"):
        checkpoint.network_from_bytes(set_meta(blob, "stride", 1, 0))
    with pytest.raises(FormatError, match="not ASCII"):
        checkpoint.network_from_bytes(resealed(blob.replace(b"core_mode", b"core_m\xffde", 1)))
    # a weight tensor with the u32 dtype code
    with pytest.raises(FormatError, match="dtype code 1"):
        at = blob.index(b"\x02QA") + 3
        checkpoint.network_from_bytes(resealed(blob[:at] + b"\x01" + blob[at + 1 :]))


def test_checkpoint_crc_trailer_and_version_1(tmp_path):
    net = bottleneck_net(np.random.default_rng(6))
    blob = checkpoint.network_bytes(net)
    assert struct.unpack("<I", blob[4:8]) == (2,)
    assert struct.unpack("<I", blob[-4:]) == (zlib.crc32(blob[:-4]),)
    # one flipped bit inside the first float64 of the conv core
    at = blob.index(b"\x02Wp") + 3 + 2 + 3 * 4 + 3
    flipped = blob[:at] + bytes([blob[at] ^ 1]) + blob[at + 1 :]
    with pytest.raises(FormatError, match="checksum mismatch"):
        checkpoint.network_from_bytes(flipped)
    with pytest.raises(FormatError, match="checksum mismatch"):
        checkpoint.network_from_bytes(blob[:14])
    # version 1: the same records, no trailer, and no way to see the flip
    v1 = blob[:4] + struct.pack("<I", 1) + blob[8:-4]
    x = np.random.default_rng(0).standard_normal((2, 1, 4, 4))
    np.testing.assert_array_equal(checkpoint.network_from_bytes(v1).forward(x), net.forward(x))
    v1_flipped = checkpoint.network_from_bytes(v1[:at] + bytes([v1[at] ^ 1]) + v1[at + 1 :])
    assert not np.array_equal(v1_flipped.layers[2].core, net.layers[2].core)
    # a version field flipped to 1 leaves the trailer as trailing bytes
    with pytest.raises(FormatError, match="trailing"):
        checkpoint.network_from_bytes(blob[:4] + struct.pack("<I", 1) + blob[8:])
    # a flipped sign bit in the last float64 before the trailer
    path = tmp_path / "net.kfep"
    path.write_bytes(blob[:-5] + bytes([blob[-5] ^ 0x80]) + blob[-4:])
    with pytest.raises(FormatError, match="checksum mismatch"):
        checkpoint.load_network(str(path))
    # a version 1 file is read as a network only when its kind byte says so
    path.write_bytes(v1)
    assert checkpoint.network_bytes(checkpoint.load_network(str(path))) == blob
    path.write_bytes(v1[:8] + b"\x02" + v1[9:])
    with pytest.raises(FormatError, match="does not hold a network"):
        checkpoint.load_network(str(path))


def field_key(key):
    return struct.pack("<B", len(key)) + key.encode("ascii")


def record_fields(layer):
    """A layer's record as (tag, meta pairs, tensor pairs), laid out by
    hand in the writer's order."""
    if layer.kind in ("relu", "flatten"):
        return (3 if layer.kind == "relu" else 4), [], []
    geometry = list(layer.geometry().items())
    if layer.kind in ("dense", "conv"):
        return (1 if layer.kind == "dense" else 2), geometry, [("W", layer.w), ("b", layer.b)]
    core_tag = "D" if layer.core_mode == "diag" else "Wp"
    tensors = [("QA", layer.qa), (core_tag, layer.core), ("QS", layer.qs), ("b", layer.b)]
    if layer.kind == "bottleneck_dense":
        return 5, [("core_mode", 0)], tensors
    return 6, [*geometry, ("basis", 0), ("core_mode", int(core_tag == "D"))], tensors


def file_bytes(records, version=2):
    """A network file laid out by hand, version 2 with its CRC32 trailer or
    version 1 without.  A uint32 tensor gets dtype code 1, any other the
    float64 code 0."""
    out = [b"KFEP", struct.pack("<IBI", version, 1, len(records))]
    for tag, meta, tensors in records:
        out.append(struct.pack("<BB", tag, len(meta)))
        out += [field_key(key) + struct.pack("<I", value) for key, value in meta]
        out.append(struct.pack("<B", len(tensors)))
        for key, arr in tensors:
            code, dtype = (1, "<u4") if arr.dtype == np.uint32 else (0, "<f8")
            dims = struct.pack(f"<BB{arr.ndim}I", code, arr.ndim, *arr.shape)
            out.append(field_key(key) + dims + arr.astype(dtype).tobytes())
    body = b"".join(out)
    return body + struct.pack("<I", zlib.crc32(body)) if version == 2 else body


def one_of_each_record(rng):
    """A layer of every record kind, keyed by kind; conv bottlenecks with
    a full and a depthwise core."""
    return {
        "dense": DenseLayer(rng.standard_normal((3, 2)), rng.standard_normal(2)),
        "conv": ConvLayer(
            rng.standard_normal((18, 3)), rng.standard_normal(3), c_in=2, k=3, stride=2, padding=1
        ),
        "relu": ReluLayer(),
        "flatten": FlattenLayer(),
        "bottleneck_dense": BottleneckDenseLayer(
            rng.standard_normal((3, 2)), rng.standard_normal((2, 2)),
            rng.standard_normal((4, 2)), rng.standard_normal(4),
        ),
        "bottleneck_conv": BottleneckConvLayer(
            rng.standard_normal((2, 2)), rng.standard_normal((2, 1, 9)),
            rng.standard_normal((3, 1)), rng.standard_normal(3), c_in=2, k=3, stride=1, padding=1,
        ),
        "bottleneck_conv_diag": BottleneckConvLayer(
            rng.standard_normal((2, 2)), rng.standard_normal((9, 2)),
            rng.standard_normal((3, 2)), rng.standard_normal(3), c_in=2, k=3, stride=1, padding=1,
        ),
    }


@pytest.mark.parametrize("kind", list(one_of_each_record(np.random.default_rng(0))))
def test_checkpoint_reads_exactly_its_record_fields(kind):
    """Each record kind holds exactly its own meta keys and tensor tags,
    each once: an unknown, missing or repeated field is a FormatError."""
    layer = one_of_each_record(np.random.default_rng(7))[kind]
    tag, meta, tensors = record_fields(layer)
    assert file_bytes([(tag, meta, tensors)]) == checkpoint.network_bytes(Network([layer]))
    other = "W" if kind.startswith("bottleneck") else "QA"
    bad = [
        ([*meta, ("foo", 7)], tensors, "unknown meta key 'foo'"),
        (meta, [*tensors, (other, np.ones(2))], f"unknown tensor '{other}'"),
        ([*meta, ("foo", 7), ("foo", 7)], tensors, "repeats meta key 'foo'"),
    ]
    for i, (key, value) in enumerate(meta):
        bad.append((meta[:i] + meta[i + 1 :], tensors, f"missing meta key '{key}'"))
        bad.append(([*meta, (key, value)], tensors, f"repeats meta key '{key}'"))
    for i, (key, arr) in enumerate(tensors):
        bad.append((meta, tensors[:i] + tensors[i + 1 :], f"missing tensor '{key}'"))
        bad.append((meta, [*tensors, (key, arr)], f"repeats tensor '{key}'"))
    for bad_meta, bad_tensors, message in bad:
        with pytest.raises(FormatError, match=message):
            checkpoint.network_from_bytes(file_bytes([(tag, bad_meta, bad_tensors)]))


def with_legacy_kept(record, rows, cols):
    """A record with the u32 kept-index lists older writers put after a
    bottleneck's bias."""
    tag, meta, tensors = record
    kept = [("kept_rows", np.array(rows, np.uint32)), ("kept_cols", np.array(cols, np.uint32))]
    return tag, meta, tensors + kept


@pytest.mark.parametrize("version", [1, 2])
def test_checkpoint_loads_older_bottleneck_records(version):
    """Bottleneck records as older writers laid them out, with kept-index
    lists: a pruned dense bottleneck, a pruned full-core conv bottleneck
    and a depthwise one, alone and in one network.  Each loads to the same
    layers and saves again to the current writer's bytes."""
    from kfeprune.kfac import EigenFactors
    from kfeprune.reparam import absorb_depthwise, depthwise_decompose, eigenprune, to_kfe

    rng = np.random.default_rng(8)

    def ortho_eigen(n, m):
        qa, qs = (np.linalg.qr(rng.standard_normal((d, d)))[0] for d in (n, m))
        return EigenFactors(qa, np.ones(n), qs, np.ones(m))

    dense = DenseLayer(rng.standard_normal((6, 5)), rng.standard_normal(5))
    dense = eigenprune(to_kfe(dense, ortho_eigen(6, 5)), [4], [0, 2])
    conv = ConvLayer(rng.standard_normal((27, 4)), rng.standard_normal(4), c_in=3, k=3, padding=1)
    conv = eigenprune(to_kfe(conv, ortho_eigen(3, 4)), [1], [2])
    diag = absorb_depthwise(conv, depthwise_decompose(conv, rank=2, seed=0))
    cases = [(dense, [0, 1, 2, 3], [1, 3, 4]), (conv, [0, 2], [0, 1, 3]), (diag, [0, 1], [0, 1])]
    for layer, rows, cols in cases:
        record = with_legacy_kept(record_fields(layer), rows, cols)
        loaded = checkpoint.network_from_bytes(file_bytes([record], version))
        got = loaded.layers[0]
        assert type(got) is type(layer) and got.geometry() == layer.geometry()
        assert got.core_mode == layer.core_mode
        assert checkpoint.network_bytes(loaded) == checkpoint.network_bytes(Network([layer]))
    net = bottleneck_net(np.random.default_rng(9))
    records = [record_fields(layer) for layer in net.layers]
    records[2] = with_legacy_kept(records[2], [0, 1], [0, 1, 2])
    records[4] = with_legacy_kept(records[4], [0, 1], [0, 1])
    loaded = checkpoint.network_from_bytes(file_bytes(records, version))
    assert checkpoint.network_bytes(loaded) == checkpoint.network_bytes(net)
    x = np.random.default_rng(0).standard_normal((2, 1, 4, 4))
    np.testing.assert_array_equal(loaded.forward(x), net.forward(x))
    # the allowance covers both lists on a bottleneck record, as u32, only
    tag, meta, tensors = with_legacy_kept(record_fields(dense), [0, 1, 2, 3], [1, 3, 4])
    f64_rows = ("kept_rows", np.arange(4.0))
    plain = with_legacy_kept(record_fields(net.layers[5]), [0, 1, 2], [0, 1])
    bad = [
        (tag, meta, tensors[:-1], "missing tensor 'kept_cols'"),
        (tag, meta, tensors[:-2] + [f64_rows, tensors[-1]], "'kept_rows' has dtype code 0"),
        (*plain, "unknown tensor 'kept_rows'"),
    ]
    for tag, meta, tensors, message in bad:
        with pytest.raises(FormatError, match=message):
            checkpoint.network_from_bytes(file_bytes([(tag, meta, tensors)], version))


def test_checkpoint_fuzz_raises_only_format_error():
    """Seeded byte flips and truncations raise FormatError, the exit-2
    error; any other exception fails the test.  A case loads only when an
    overwrite wrote back the byte it replaced."""
    rng = np.random.default_rng(0)
    blob = checkpoint.network_bytes(bottleneck_net(rng))
    outcomes = {"loaded": 0, "rejected": 0}
    for _ in range(3000):
        raw = bytearray(blob)
        if rng.random() < 0.2:
            del raw[rng.integers(0, len(raw)) :]
        else:
            for _ in range(rng.integers(1, 4)):
                raw[rng.integers(0, len(raw))] = rng.integers(0, 256)
        try:
            checkpoint.network_from_bytes(bytes(raw))
            outcomes["loaded"] += 1
            assert bytes(raw) == blob
        except FormatError:
            assert bytes(raw) != blob
            outcomes["rejected"] += 1
    assert outcomes["rejected"] > 2900, outcomes


def arange(*shape):
    """Distinct float64 values of a shape, from no random generator."""
    return np.arange(np.prod(shape), dtype=np.float64).reshape(shape) / 8 - 1


GOLDEN_NETWORKS = {
    "plain": lambda: Network([
        ConvLayer(arange(18, 3), arange(3), c_in=2, k=3, stride=2, padding=1),
        ReluLayer(),
        FlattenLayer(),
        DenseLayer(arange(12, 2), arange(2)),
    ]),
    "bottlenecks": lambda: Network([
        BottleneckConvLayer(
            arange(2, 2), arange(2, 3, 9), arange(3, 3), arange(3),
            c_in=2, k=3, stride=2, padding=1,
        ),
        FlattenLayer(),
        BottleneckDenseLayer(arange(12, 2), arange(2, 2), arange(4, 2), arange(4)),
    ]),
    "depthwise": lambda: Network([
        BottleneckConvLayer(
            arange(2, 3), arange(9, 3), arange(5, 3), arange(5), c_in=2, k=3, stride=1, padding=1,
        ),
    ]),
}


@pytest.mark.parametrize(
    "name, digest",
    [
        ("plain", "cbcb09a8edaa84585d686316c9b8aa4a675a3ea4ca546502e362140ee3e073e2"),
        ("bottlenecks", "528dcd454bc4e8a701bbed72f11d12d542e8f8d25c3dff282ab1873b6ac0e136"),
        ("depthwise", "96b0c9ef3e3f09682fa17b767eb7b58fe8f1a5e0dd26cf2cfe10a358be957f30"),
    ],
)
def test_checkpoint_bytes_of_every_record_kind_are_pinned(name, digest):
    """The SHA-256 of each record kind's bytes, as the writer of this
    format first laid them out: a roundtrip cannot see a writer and a
    reader that change together, and no workload writes a dense
    bottleneck.  The pinned files also load back to their bytes."""
    blob = checkpoint.network_bytes(GOLDEN_NETWORKS[name]())
    assert hashlib.sha256(blob).hexdigest() == digest
    assert checkpoint.network_bytes(checkpoint.network_from_bytes(blob)) == blob


def test_failed_write_keeps_previous_artifacts(mlp_run, tmp_path, monkeypatch):
    """Every artifact goes through a temp file and a rename: a write that
    fails before the rename leaves the previous files byte-identical and
    no temp file behind."""
    cfg, _ = mlp_run
    out = tmp_path / "ft"
    fcfg = derived(cfg, out, finetune_epochs=1)
    cmd_finetune(fcfg)
    before = {name: (out / name).read_bytes() for name in os.listdir(out)}
    assert set(before) == {CHECKPOINT_NAME, "curve.csv", "metrics.json"}
    path = str(out / CHECKPOINT_NAME)
    other = build_mlp(2, [3], 4, seed=1)
    # the payload write fails
    with pytest.raises(TypeError):
        checkpoint.write_atomic(path, "not bytes")

    def no_rename(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(checkpoint.os, "replace", no_rename)
    with pytest.raises(OSError, match="rename refused"):
        checkpoint.save_network(path, other)
    with pytest.raises(OSError, match="rename refused"):
        cmd_finetune(fcfg)
    assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before
    monkeypatch.undo()
    checkpoint.save_network(path, other)
    assert sorted(os.listdir(out)) == sorted(before)
    assert checkpoint_bytes(str(out)) == checkpoint.network_bytes(other)


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
    bottleneck_dense = Network(
        [BottleneckDenseLayer(np.zeros((10, 3)), np.zeros((3, 2)), np.zeros((5, 2)))]
    )
    # qa at every input pixel, the core and qs at every output location
    assert accounting.count_flops(bottleneck_dense, (10,)) == 2 * (30 + 6 + 10) == 92
    assert accounting.count_params(bottleneck_dense) == 30 + 6 + 10 + 5 == 51
    bottleneck_conv = Network(
        [
            BottleneckConvLayer(
                np.zeros((2, 4)), np.zeros((4, 3, 9)), np.zeros((5, 3)), None,
                c_in=2, k=3, stride=1, padding=0,
            )
        ]
    )
    assert accounting.count_flops(bottleneck_conv, (2, 8, 8)) == 2 * (8 * 64 + 123 * 36) == 9880
    assert accounting.count_params(bottleneck_conv) == 8 + 108 + 15 + 5 == 136
    depthwise = Network(
        [
            BottleneckConvLayer(
                np.zeros((2, 3)), np.zeros((9, 3)), np.zeros((5, 3)), None,
                c_in=2, k=3, stride=1, padding=0,
            )
        ]
    )
    assert accounting.count_flops(depthwise, (2, 8, 8)) == 2 * (6 * 64 + 42 * 36) == 3792
    assert accounting.count_params(depthwise) == 6 + 27 + 15 + 5 == 53
    assert ReluLayer().param_count() == FlattenLayer().param_count() == 0
    # a sample shape a layer cannot take: wrong width or rank for the dense
    # kinds; wrong channel count, rank, or an empty output for the conv kinds
    for net, bad in (
        (dense, (11,)), (dense, (2, 5)),
        (bottleneck_dense, (9,)), (bottleneck_dense, (1, 10)),
        (conv, (3, 8, 8)), (conv, (128,)),
        (bottleneck_conv, (1, 8, 8)), (bottleneck_conv, (2, 2, 2)),
    ):
        with pytest.raises(DimensionError):
            accounting.count_flops(net, bad)
        # forward runs the same check
        with pytest.raises(DimensionError):
            net.forward(np.zeros((1,) + bad))


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
    )
    expected = 6 * 4 + 4 * 3 * 9 + 5 * 3 + 5
    assert layer.param_count() == expected


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
    # eigendamage's two-input first layer stays factored only once one of
    # its two input directions goes, which takes ratio 0.8 here
    ratio = 0.9 if strategy == "eigendamage" else 0.3
    record = cmd_prune(derived(cfg, out, strategy=strategy, ratio=ratio, cap=0.9))
    assert record["strategy"] == strategy
    assert np.isfinite(record["test_loss"])
    loaded = checkpoint.load_network(os.path.join(str(out), CHECKPOINT_NAME))
    assert loaded.forward(np.zeros((1, 2))).shape == (1, 4)
    kinds = set()
    with open(os.path.join(str(out), "importance.csv"), "r", encoding="ascii") as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == "layer_id,unit_kind,unit_id,delta_L,strategy"
    keys = []
    for line in lines[1:]:
        layer_id, kind, unit_id, delta_l, strat = line.split(",")
        kinds.add(kind)
        keys.append((int(layer_id), kind, int(unit_id)))
        assert strat == strategy.replace("-", "_")
        assert float(delta_l) >= -1e-8
    # rows sort by layer, then unit kind as a string (kfe_col before
    # kfe_row), then unit id
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    if strategy == "eigendamage":
        assert keys[0][1] == "kfe_col" and keys[-1][1] == "kfe_row"
    if strategy in ("obd", "obs"):
        assert kinds == {"weight"}
    elif strategy == "eigendamage":
        assert kinds == {"kfe_row", "kfe_col"}
    else:
        assert kinds == {"filter"}
    # every strategy leaves at least one layer with removed coefficients:
    # masked ones zero weights, eigendamage shrinks the core
    assert any(frac < 1.0 for frac in record["per_layer_remaining"])


def test_prune_once_kron_obs_zeroes_filter_columns(mlp_run, kept):
    cfg, _ = mlp_run
    net = checkpoint.load_network(os.path.join(cfg.out, CHECKPOINT_NAME))
    ds = build_dataset(cfg, "train")
    pcfg = replace(cfg, strategy="kron-obs", ratio=0.5)
    tables, mask, _ = prune_once(net, ds, pcfg, cap=0.95)
    removed = mask.removed(0, "filter")
    assert removed
    np.testing.assert_array_equal(net.layers[0].w[:, removed], 0.0)
    np.testing.assert_array_equal(net.layers[0].b[removed], 0.0)
    assert np.any(net.layers[0].w[:, kept(mask, 0, "filter")] != 0.0)


@pytest.mark.parametrize(
    "strategy,ratio,cap",
    [(s, 0.5, 0.0) for s in STRATEGIES] + [("eigendamage", 1.0, 1.0)],
)
def test_failed_prune_once_leaves_network_unchanged(mlp_run, strategy, ratio, cap):
    # cap 0 fails in select_mask, after every layer is scored; removing
    # every eigenbasis direction fails in the rewrite itself
    cfg, _ = mlp_run
    net = checkpoint.load_network(os.path.join(cfg.out, CHECKPOINT_NAME))
    before = checkpoint.network_bytes(net)
    ds = build_dataset(cfg, "train")
    with pytest.raises(ValidationError):
        prune_once(net, ds, replace(cfg, strategy=strategy, ratio=ratio), cap=cap)
    assert checkpoint.network_bytes(net) == before


def test_cli_in_place_strategies_reject_rotated_checkpoint(mlp_run, tmp_path, capsys, monkeypatch):
    cfg, _ = mlp_run
    out = tmp_path / "rotated"
    # at ratio 0.9 the first layer stays a dense bottleneck, which pays
    config = write_config(
        tmp_path / "ed.cfg", **MLP_SETTINGS, strategy="eigendamage", ratio=0.9, out=str(out),
        checkpoint=os.path.join(cfg.out, CHECKPOINT_NAME),
    )
    assert cli.main(["prune", "--config", config]) == 0
    capsys.readouterr()
    files = {name: (out / name).read_bytes() for name in os.listdir(out)}

    # the layer kinds are known before the factor pass, so it never runs
    def no_factor_pass(*args, **kwargs):
        raise AssertionError("estimate_factors ran")

    monkeypatch.setattr(kfac, "estimate_factors", no_factor_pass)
    # the pruned checkpoint in place: layer 0 is now a dense bottleneck
    again = write_config(tmp_path / "again.cfg", **MLP_SETTINGS, out=str(out))
    for strategy in STRATEGIES:
        if strategy == "eigendamage":
            continue
        assert cli.main(["prune", "--config", again, "--strategy", strategy]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: layer 0 is a bottleneck_dense layer")
        assert "Traceback" not in err
        assert {name: (out / name).read_bytes() for name in os.listdir(out)} == files
    # iterate records the rejection as an aborted first round
    record = cmd_iterate(replace(cfg, checkpoint=str(out / CHECKPOINT_NAME),
                                 out=str(tmp_path / "iter"), strategy="obs"))
    assert record["rounds"] == []
    assert record["aborted"]["round"] == 1 and record["aborted"]["error"] == "ValidationError"
    assert record["aborted"]["reason"].startswith("layer 0 is a bottleneck_dense layer")


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
        removed = set(mask.removed(table.layer_id, "weight"))
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


# the README's Quick start config
README_DEMO = dict(
    arch="cnn:8,16", image="1x8x8", dataset="blobs", classes=4, n_train=256, n_test=128,
    sigma=1.0, epochs=10, lr=0.1, strategy="eigendamage", ratio=0.5,
)


def test_readme_demo_figures(tmp_path):
    """The README's figures at seed 0: one-shot 1508 -> 804 params at 99.2%
    after the finetune, and iterate 1508 -> 961 -> 515 -> 386."""
    cfg = RunConfig(seed=0, out=str(tmp_path / "demo"), **README_DEMO)
    trained = cmd_train(cfg)
    assert (trained["params"], trained["test_accuracy"]) == (1508, 1.0)
    assert cmd_prune(derived(cfg, cfg.out))["params"] == 804
    finetuned = cmd_finetune(derived(cfg, cfg.out))
    assert (finetuned["params"], finetuned["test_accuracy"]) == (804, 0.9921875)
    cfg = replace(cfg, out=str(tmp_path / "iter"))
    cmd_train(cfg)
    it = cmd_iterate(derived(cfg, cfg.out, iterations=3, cap=0.5))
    assert [r["params"] for r in it["rounds"]] == [961, 515, 386]
    assert it["test_accuracy"] == 0.9921875


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


def trained_network(arch, image_mlp_run, cnn_baseline):
    """(cfg, network, train split) of the trained image_mlp_run checkpoint,
    whose first layer eigendamage keeps factored, or of the trained
    conftest cnn at seed 0."""
    if arch == "mlp":
        cfg, _ = image_mlp_run
        net = checkpoint.load_network(os.path.join(cfg.out, CHECKPOINT_NAME))
        return cfg, net, build_dataset(cfg, "train")
    cfg, net, ds, _ = cnn_baseline(0)
    return cfg, net, ds


@pytest.mark.parametrize("arch", ["mlp", "cnn"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_pruned_network_finetunes_as_its_snapshot(image_mlp_run, cnn_baseline, arch, strategy):
    """Every rewrite builds its layer through the kind's constructor, which
    holds each parameter C-contiguous, as a checkpoint loads it: after
    prune_once, the network finetunes in memory bit for bit as its
    serialized snapshot does."""
    cfg, net, ds = trained_network(arch, image_mlp_run, cnn_baseline)
    cfg = replace(cfg, strategy=strategy, ratio=0.5, finetune_epochs=1)
    prune_once(net, ds, cfg, cap=0.5)
    for layer in net.layers:
        assert all(p.flags.c_contiguous for _, p in layer.param_items()), layer.kind
    snapshot = network_snapshot(net)
    net, curve = _finetune(net, ds, cfg)
    snapshot, snapshot_curve = _finetune(snapshot, ds, cfg)
    assert curve == snapshot_curve
    assert checkpoint.network_bytes(net) == checkpoint.network_bytes(snapshot)


@pytest.mark.parametrize("arch", ["mlp", "cnn"])
def test_cmd_iterate_rounds_compose(image_mlp_run, cnn_baseline, tmp_path, arch):
    """iterate keeps its network in memory between rounds; each round
    gives what prune then finetune give through a checkpoint, and two
    rounds write the same bytes as two of those."""
    cfg, net, _ = trained_network(arch, image_mlp_run, cnn_baseline)
    start = str(tmp_path / "start.kfep")
    checkpoint.save_network(start, net)
    cfg = replace(
        cfg, strategy="eigendamage", ratio=0.4, cap=0.6, finetune_epochs=2, finetune_lr=0.02,
        checkpoint=start,
    )
    it = cmd_iterate(replace(cfg, iterations=2, out=str(tmp_path / "it")))
    assert len(it["rounds"]) == 2
    for round_record in it["rounds"]:
        pruned = str(tmp_path / f"pr{round_record['round']}")
        cmd_prune(replace(cfg, out=pruned))
        tuned = str(tmp_path / f"ft{round_record['round']}")
        ft = cmd_finetune(replace(cfg, checkpoint=os.path.join(pruned, CHECKPOINT_NAME), out=tuned))
        assert round_record["params"] == ft["params"]
        assert round_record["test_loss"] == ft["test_loss"]
        cfg = replace(cfg, checkpoint=os.path.join(tuned, CHECKPOINT_NAME))
    assert checkpoint_bytes(str(tmp_path / "it")) == checkpoint_bytes(tuned)


@pytest.mark.parametrize("fisher_batches", [0, 1])
def test_cmd_prune_train_loss_pre_is_checkpoint_loss(mlp_run, tmp_path, fisher_batches):
    """The factor pass gives the pre-prune loss over the whole train split,
    however few batches it folds in.  Batches of 48 leave a ragged last
    batch of 16 samples."""
    cfg, _ = mlp_run
    run = derived(cfg, tmp_path / "p", fisher_batches=fisher_batches, batch_size=48)
    record = cmd_prune(run)
    net = checkpoint.load_network(run.checkpoint)
    ds = build_dataset(run, "train")
    assert record["train_loss_pre"] == evaluate(net, ds.x, ds.y, 48)[0]
    assert read_metrics(run.out)["train_loss_pre"] == record["train_loss_pre"]


def test_cmd_iterate_round_losses_chain(mlp_run, tmp_path):
    """Each round's pre-prune loss is the loss the network ended the
    previous round with; round 1's is the input checkpoint's."""
    cfg, train_record = mlp_run
    record = cmd_iterate(
        derived(cfg, tmp_path / "it", strategy="eigendamage", ratio=0.3, cap=0.5,
                iterations=2, finetune_epochs=1)
    )
    first, second = record["rounds"]
    assert first["train_loss_pre"] == train_record["train_loss"]
    assert second["train_loss_pre"] == first["train_loss"]


def test_cmd_iterate_monotone_params(image_mlp_run, tmp_path):
    cfg, _ = image_mlp_run
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


GROWTH_GRID = {
    "mlp16": dict(arch="mlp:16", dim=2),
    "mlp16-8": dict(arch="mlp:16,8", dim=2),
    "mlp32-image": dict(arch="mlp:32", image="1x8x8"),
    "cnn4-8": dict(arch="cnn:4,8", image="1x6x6"),
    "cnn4-8-rgb": dict(arch="cnn:4,8", image="3x6x6"),
}


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("settings", GROWTH_GRID.values(), ids=GROWTH_GRID.keys())
def test_eigendamage_prune_never_grows_the_network(tmp_path, settings, seed):
    """Each eigendamage rewrite takes its smallest exact form, which is
    never larger than the plain layer, so no prune and no iterate round
    leaves more params than the network started with."""
    cfg = RunConfig(
        seed=seed, dataset="blobs", classes=4, n_train=96, n_test=32, epochs=3, lr=0.1,
        strategy="eigendamage", finetune_epochs=1, out=str(tmp_path / "base"), **settings,
    )
    cmd_train(cfg)
    for ratio in (0.1, 0.3, 0.5, 0.7, 0.9):
        run = derived(cfg, tmp_path / f"prune{ratio}", ratio=ratio)
        pruned = cmd_prune(run)
        it = cmd_iterate(replace(run, out=str(tmp_path / f"iterate{ratio}"), iterations=2))
        assert "aborted" not in it and len(it["rounds"]) == 2
        for record in [pruned, it] + it["rounds"]:
            assert record["params"] <= it["params_before"], (ratio, record["params"])
            assert record["weight_reduction_percent"] >= 0.0


def test_folded_layer_is_rotated_again(mlp_run, monkeypatch):
    """A layer folded back to a plain one in round 1 is rotated into a
    fresh eigenbasis in round 2, as any plain layer is, and a heavier
    round 2 prune can leave it factored."""
    cfg, _ = mlp_run
    net = checkpoint.load_network(os.path.join(cfg.out, CHECKPOINT_NAME))
    ds = build_dataset(cfg, "train")
    run = replace(cfg, strategy="eigendamage", ratio=0.3)
    _, mask, _ = prune_once(net, ds, run, cap=0.9)
    assert len(mask.removed(0, "kfe_row")) + len(mask.removed(0, "kfe_col")) > 0
    folded = net.layers[0]
    assert folded.kind == "dense"
    rotated, to_kfe = [], reparam.to_kfe

    def recording(layer, ef):
        rotated.append(layer)
        return to_kfe(layer, ef)

    monkeypatch.setattr(reparam, "to_kfe", recording)
    prune_once(net, ds, replace(run, ratio=0.9), cap=0.95)
    assert rotated == [folded]
    assert net.layers[0].kind == "bottleneck_dense"


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
    assert record["aborted"]["error"] == "ValidationError"
    assert "remove every" in record["aborted"]["reason"]
    assert record["rounds"] == []
    assert record["params"] == record["params_before"]
    assert checkpoint_bytes(str(tmp_path / "abort")) == checkpoint_bytes(cfg.out)


@pytest.mark.parametrize(
    "where, error",
    [
        ("prune_once", SingularityError),
        ("prune_once", NumericError),
        ("_finetune", TrainingDivergenceError),
    ],
)
def test_cmd_iterate_rolls_back_on_any_library_error(mlp_run, tmp_path, monkeypatch, where, error):
    """A library error in round 2, while scoring or while finetuning,
    leaves exactly what a one-round run writes, plus the aborted record."""
    cfg, _ = mlp_run
    settings = dict(strategy="eigendamage", ratio=0.3, cap=0.5, finetune_epochs=1)
    one = cmd_iterate(derived(cfg, tmp_path / "one", iterations=1, **settings))
    real, calls = getattr(pipeline, where), []

    def fails_second_time(*args, **kwargs):
        calls.append(where)
        if len(calls) == 2:
            raise error("injected failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, where, fails_second_time)
    record = cmd_iterate(derived(cfg, tmp_path / "two", iterations=3, **settings))
    assert len(calls) == 2
    assert record.pop("aborted") == {
        "round": 2, "error": error.__name__, "reason": "injected failure",
    }
    for rec in (one, record):
        del rec["wall_time_s"], rec["rounds"][0]["wall_time_s"]
    assert record == one
    assert checkpoint_bytes(str(tmp_path / "two")) == checkpoint_bytes(str(tmp_path / "one"))
    assert (tmp_path / "two" / "importance.csv").read_bytes() == (
        tmp_path / "one" / "importance.csv"
    ).read_bytes()


@pytest.mark.parametrize("fail_round, evaluations", [(None, 6), (2, 3), (1, 2)])
def test_cmd_iterate_top_record_is_the_last_round_evaluation(
    mlp_run, tmp_path, monkeypatch, fail_round, evaluations
):
    """The top record takes its losses and accuracies from the last
    completed round, whose network it saves; after a failed round that is
    the restored snapshot.  Each round evaluates three times (the train
    split after pruning, both splits after the finetune); only a run
    whose first round fails evaluates again, both splits for the top
    record.  Either way the figures are those of the saved checkpoint."""
    cfg, _ = mlp_run
    real_prune, real_evaluate = pipeline.prune_once, pipeline.evaluate
    prunes, evaluated = [], []

    def prune(*args, **kwargs):
        prunes.append(len(prunes) + 1)
        if prunes[-1] == fail_round:
            raise NumericError("injected failure")
        return real_prune(*args, **kwargs)

    def counted_evaluate(*args):
        evaluated.append(args)
        return real_evaluate(*args)

    monkeypatch.setattr(pipeline, "prune_once", prune)
    monkeypatch.setattr(pipeline, "evaluate", counted_evaluate)
    run = derived(cfg, tmp_path / "it", strategy="eigendamage", ratio=0.3, cap=0.5,
                  iterations=2, finetune_epochs=1)
    record = cmd_iterate(run)
    assert len(evaluated) == evaluations
    assert len(record["rounds"]) == (2 if fail_round is None else fail_round - 1)
    assert ("aborted" in record) == (fail_round is not None)
    net = checkpoint.load_network(os.path.join(run.out, CHECKPOINT_NAME))
    splits = [build_dataset(run, split) for split in ("train", "test")]
    figures = sum((real_evaluate(net, ds.x, ds.y, run.batch_size) for ds in splits), ())
    want = dict(zip(EVAL_FIELDS, figures))
    assert {key: record[key] for key in EVAL_FIELDS} == want
    assert {key: read_metrics(run.out)[key] for key in EVAL_FIELDS} == want
    if record["rounds"]:
        assert {key: record["rounds"][-1][key] for key in EVAL_FIELDS} == want


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


def test_cli_decompose_clamps_a_global_rank_per_layer(tmp_path, capsys):
    """A global rank above a layer's full rank fits that layer at its full
    rank, and the record gives the rank used.  On the README demo layer
    0 has one input channel, so rank = 3 fits it at rank 1."""
    cfg = RunConfig(seed=0, out=str(tmp_path / "demo"), **README_DEMO)
    cmd_train(cfg)
    cmd_prune(derived(cfg, cfg.out))
    config = write_config(tmp_path / "dec.cfg", **README_DEMO, rank=3, out=cfg.out)
    assert cli.main(["decompose", "--config", config]) == 0
    assert "Traceback" not in capsys.readouterr().err
    layers = read_metrics(cfg.out)["layers"]
    assert [(row["layer_id"], row["rank"]) for row in layers] == [(0, 1), (2, 3)]


RECORD_KEYS = {
    "schema_version", "command", "strategy", "seed", "train_loss", "train_accuracy",
    "test_loss", "test_accuracy", "params", "flops", "per_layer_remaining", "wall_time_s",
}
REDUCTION_KEYS = {
    "params_before", "flops_before", "weight_reduction_percent", "flop_reduction_percent",
}
COMMAND_KEYS = {
    "train": RECORD_KEYS | {"train_loss_pre", "train_loss_post"},
    "prune": RECORD_KEYS | REDUCTION_KEYS
    | {"train_loss_pre", "train_loss_post", "tau", "ratio", "cap", "predicted_cost"},
    "finetune": RECORD_KEYS | {"train_loss_pre", "train_loss_post"},
    "eval": RECORD_KEYS,
    "decompose": RECORD_KEYS | REDUCTION_KEYS | {"layers"},
    "iterate": RECORD_KEYS | REDUCTION_KEYS | {"cap", "ratio", "rounds"},
}
ROUND_KEYS = {
    "round", "train_loss", "train_accuracy", "test_loss", "test_accuracy",
    "train_loss_pre", "train_loss_post_prune", "train_loss_post", "tau", "params",
    "flops", "weight_reduction_percent", "flop_reduction_percent",
    "per_layer_remaining", "predicted_cost", "wall_time_s",
}


def test_every_command_metrics_key_set(tmp_path):
    cfg = RunConfig(
        seed=0, out=str(tmp_path / "line"), arch="cnn:4,8", image="1x8x8",
        dataset="blobs", classes=4, n_train=64, n_test=32, epochs=2,
        finetune_epochs=1, strategy="eigendamage", ratio=0.5,
    )
    commands = {
        "train": cmd_train, "prune": cmd_prune, "finetune": cmd_finetune,
        "eval": cmd_eval, "decompose": cmd_decompose, "iterate": cmd_iterate,
    }

    def check(command, run_cfg):
        record = commands[command](run_cfg)
        assert set(record) == COMMAND_KEYS[command], command
        assert set(read_metrics(run_cfg.out)) == COMMAND_KEYS[command], command
        return record

    check("train", cfg)
    record = check("iterate", derived(cfg, tmp_path / "iter", iterations=1))
    assert len(record["rounds"]) == 1
    assert set(record["rounds"][0]) == ROUND_KEYS
    for command in ("prune", "finetune", "eval", "decompose"):
        check(command, cfg)


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
    # IDX splits carry their own image size and class count: a test split
    # the trained network cannot take is a usage error before any output
    wide = write_idx_images(tmp_path / "wide.idx", rng.integers(0, 256, (8, 5, 6)))
    three = write_idx_labels(tmp_path / "three.idx", np.arange(8) % 3)
    for key, path, message in (
        ("test_images", wide, "train samples are (1, 5, 5), test samples (1, 5, 6)"),
        ("test_labels", three, "the test split has 3 classes, the train split 2"),
    ):
        settings = dict(
            dataset="idx", train_images=ip, train_labels=lp, test_images=ip, test_labels=lp,
            arch="mlp:8", image="1x5x5", epochs=1, out=str(tmp_path / "bad"),
        )
        bad = write_config(tmp_path / "bad.cfg", **{**settings, key: path})
        assert cli.main(["train", "--config", bad]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert not os.path.exists(tmp_path / "bad")


def test_cli_iterate_warns_of_an_aborted_round(mlp_run, tmp_path, capsys):
    """An aborted round is one warning line on stderr; the command still
    writes its record and exits 0."""
    cfg, _ = mlp_run
    out = tmp_path / "abort"
    config = write_config(
        tmp_path / "abort.cfg", **MLP_SETTINGS, strategy="eigendamage", ratio=1.0, cap=1.0,
        iterations=2, out=str(out), checkpoint=os.path.join(cfg.out, CHECKPOINT_NAME),
    )
    assert cli.main(["iterate", "--config", config]) == 0
    captured = capsys.readouterr()
    reason = read_metrics(out)["aborted"]["reason"]
    assert "remove every" in reason
    assert captured.err == f"warning: iterate round 1 aborted: ValidationError: {reason}\n"
    assert captured.out.startswith("iterate finished\n")


def test_cli_import_leaves_out_the_oracle_and_the_old_re_exports():
    """Importing the command line loads no test check, and the package
    root holds RunConfig and no other re-export."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = (
        "import sys, kfeprune.cli, kfeprune; "
        "print('kfeprune.oracle' in sys.modules, hasattr(kfeprune, 'RunConfig'), "
        "hasattr(kfeprune, 'eigenbasis'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.split() == ["False", "True", "False"]


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
    # sizes below 1 and negative damping are usage errors, reported
    # without a traceback, whether from the file or from a flag
    zero = write_config(tmp_path / "zero.cfg", batch_size=0, out=str(tmp_path / "z"))
    assert cli.main(["train", "--config", zero]) == 2
    err = capsys.readouterr().err
    assert "batch_size must be at least 1" in err and "Traceback" not in err
    assert cli.main(["prune", "--config", ok, "--damping", "-1"]) == 2
    err = capsys.readouterr().err
    assert "damping must be non-negative" in err and "Traceback" not in err
    # an infinite damping would fail factor inversion under obs and be
    # ignored under eigendamage
    assert cli.main(["prune", "--config", ok, "--damping", "inf"]) == 2
    err = capsys.readouterr().err
    assert "damping must be non-negative and finite" in err and "Traceback" not in err
    # negative counts used to run as if they were 0
    for key, value in (("fisher_batches", -4), ("rank", -3)):
        neg = write_config(tmp_path / f"{key}.cfg", **{key: value}, out=str(tmp_path / key))
        assert cli.main(["prune", "--config", neg]) == 2
        err = capsys.readouterr().err
        assert f"{key} must be non-negative" in err and "Traceback" not in err
        assert not os.path.exists(tmp_path / key)
    # a negative seed used to stop numpy's generator with a traceback
    # (exit 1), and a non-finite sigma to build non-finite data (exit 1)
    seeded = write_config(tmp_path / "seeded.cfg", seed=-1, out=str(tmp_path / "s"))
    assert cli.main(["train", "--config", seeded]) == 2
    err = capsys.readouterr().err
    assert "seed must be non-negative" in err and "Traceback" not in err
    assert cli.main(["train", "--config", ok, "--seed", "-3", "--out", str(tmp_path / "s")]) == 2
    err = capsys.readouterr().err
    assert "error: seed must be non-negative, got -3" in err and "Traceback" not in err
    assert not os.path.exists(tmp_path / "s")
    for value in ("nan", "inf"):
        noisy = write_config(tmp_path / "noisy.cfg", sigma=value, out=str(tmp_path / "n"))
        assert cli.main(["train", "--config", noisy]) == 2
        err = capsys.readouterr().err
        assert "sigma must be finite and non-negative" in err and "Traceback" not in err
        assert not os.path.exists(tmp_path / "n")
    # a negative learning rate would train by gradient ascent and exit 0
    ascent = write_config(tmp_path / "ascent.cfg", **{**MLP_SETTINGS, "lr": "-0.5"})
    assert cli.main(["train", "--config", ascent, "--out", str(tmp_path / "a")]) == 2
    err = capsys.readouterr().err
    assert "lr must be finite and positive" in err and "Traceback" not in err
    assert not os.path.exists(tmp_path / "a")
    # moons with other than 2 classes used to fail in the data builder
    # (exit 1, the numeric-failure code)
    moons = write_config(tmp_path / "moons.cfg", dataset="moons", classes=3, out=str(tmp_path / "m"))
    assert cli.main(["train", "--config", moons]) == 2
    err = capsys.readouterr().err
    assert "error: moons is a 2-class dataset, got classes = 3" in err and "Traceback" not in err
    assert not os.path.exists(tmp_path / "m")
    # each epoch count names its key and value: finetune_epochs = 0 is allowed
    for key, value, text in (
        ("epochs", 0, "epochs must be at least 1, got 0"),
        ("finetune_epochs", -1, "finetune_epochs must be non-negative, got -1"),
    ):
        epochs = write_config(tmp_path / f"{key}.cfg", **{key: value}, out=str(tmp_path / key))
        assert cli.main(["train", "--config", epochs]) == 2
        err = capsys.readouterr().err
        assert f"error: {text}" in err and "Traceback" not in err
        assert not os.path.exists(tmp_path / key)


DEMO_SETTINGS = dict(
    arch="cnn:4,8", image="1x8x8", dataset="blobs", classes=4, n_train=64, n_test=32,
)


@pytest.mark.parametrize("command", ["prune", "iterate", "finetune", "eval", "decompose"])
@pytest.mark.parametrize(
    "setting, message",
    [
        ({"checkpoint": "ghost.kfep"}, "ghost.kfep"),
        ({"classes": 3}, "the network gives 4 outputs per sample, but the data has 3 classes"),
        ({"classes": 6}, "the network gives 4 outputs per sample, but the data has 6 classes"),
        (
            {"image": "1x12x12"},
            "samples of shape (1, 12, 12) do not fit the network: "
            "dense expects (32,), got (72,)",
        ),
        ({"image": "3x8x8"}, "conv expects (1, H, W), got (3, 8, 8)"),
    ],
)
def test_cli_checkpoint_and_data_mismatch_is_usage_error(
    tmp_path, capsys, command, setting, message
):
    """A checkpoint the data does not fit exits 2 before the output
    directory is created."""
    base = tmp_path / "demo.kfep"
    checkpoint.save_network(str(base), build_network(RunConfig(**DEMO_SETTINGS), 4))
    settings = {**DEMO_SETTINGS, "checkpoint": str(base), **setting}
    if setting.get("checkpoint"):
        settings["checkpoint"] = str(tmp_path / setting["checkpoint"])
    config = write_config(tmp_path / "c.cfg", **settings)
    out = tmp_path / "new"
    assert cli.main([command, "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cli_decompose_of_a_non_finite_core_is_an_error(tmp_path, capsys, bad):
    """A conv core holding NaN or Inf exits 1 with a typed error and no
    traceback, and creates no output directory: the fit's SVD would raise
    numpy's LinAlgError on such a core, or not return at all."""
    net = build_network(RunConfig(**DEMO_SETTINGS), 4)
    conv = net.layers[2]
    core = conv.w.reshape(conv.c_in, conv.k * conv.k, conv.c_out).transpose(0, 2, 1).copy()
    core[0, 0, 0] = bad
    net.layers[2] = BottleneckConvLayer(
        np.eye(conv.c_in), core, np.eye(conv.c_out), conv.b, **conv.geometry()
    )
    base = tmp_path / "bad.kfep"
    checkpoint.save_network(str(base), net)
    config = write_config(tmp_path / "c.cfg", **DEMO_SETTINGS, checkpoint=str(base))
    out = tmp_path / "new"
    assert cli.main(["decompose", "--config", config, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: core of shape (4, 8, 9) contains NaN or Inf")
    assert "Traceback" not in err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "command, setting, message",
    [
        ("decompose", {}, "no full convolution bottleneck cores to decompose"),
        ("prune", {"ratio": 1.0, "cap": 1.0}, "cannot remove every"),
    ],
)
def test_cli_failure_after_open_leaves_no_out(mlp_run, tmp_path, capsys, command, setting, message):
    """A command that fails after its inputs are read, here in the work
    itself, exits 1 and creates no output directory."""
    cfg, _ = mlp_run
    config = write_config(
        tmp_path / "c.cfg", **{**MLP_SETTINGS, **setting},
        checkpoint=os.path.join(cfg.out, CHECKPOINT_NAME),
    )
    out = tmp_path / "new"
    assert cli.main([command, "--config", config, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert not os.path.exists(out)


def test_cli_numeric_failure_exit_code(tmp_path, capsys):
    # a finite but huge learning rate makes the first epoch's loss non-finite
    config = write_config(
        tmp_path / "train.cfg", **{**MLP_SETTINGS, "lr": "1e300"}, out=str(tmp_path / "out")
    )
    with np.errstate(invalid="ignore", over="ignore"):
        code = cli.main(["train", "--config", config])
    assert code == 1
    err = capsys.readouterr().err
    assert "non-finite" in err and "Traceback" not in err


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


def bad_ratio_config(mlp_run, tmp_path):
    cfg, _ = mlp_run
    return write_config(
        tmp_path / "bad.cfg",
        checkpoint=os.path.join(cfg.out, CHECKPOINT_NAME),
        ratio=2,
        **MLP_SETTINGS,
    )


def test_cli_flag_overrides_a_bad_value_in_the_file(mlp_run, tmp_path, capsys):
    """The config is checked once, after the flags: a flag replaces a bad
    value in the file."""
    config = bad_ratio_config(mlp_run, tmp_path)
    out = tmp_path / "flagged"
    assert cli.main(["prune", "--config", config, "--ratio", "0.5", "--out", str(out)]) == 0
    capsys.readouterr()
    assert read_metrics(str(out))["ratio"] == 0.5


def test_cli_bad_value_in_the_file_is_a_usage_error(mlp_run, tmp_path, capsys):
    config = bad_ratio_config(mlp_run, tmp_path)
    out = tmp_path / "alone"
    assert cli.main(["prune", "--config", config, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: ratio must lie in [0, 1], got 2.0\n"
    assert not os.path.exists(out)


def test_cmd_prune_checks_its_config_from_python(mlp_run, tmp_path):
    """A command called from Python checks its config as the CLI's does."""
    cfg, _ = mlp_run
    with pytest.raises(FormatError, match="unknown strategy 'magnitude'"):
        cmd_prune(derived(cfg, tmp_path / "p", strategy="magnitude"))
    assert not os.path.exists(tmp_path / "p")


def test_prune_once_refuses_an_unknown_strategy(mlp_run, tmp_path):
    """prune_once takes no config check: it refuses an unknown strategy
    by name rather than scoring it as kron-obs, and leaves the network as
    it was."""
    cfg, _ = mlp_run
    bad = derived(cfg, tmp_path / "p", strategy="magnitude")
    net = checkpoint.load_network(bad.checkpoint)
    before = checkpoint.network_bytes(net)
    with pytest.raises(ValidationError, match="unknown strategy 'magnitude'"):
        prune_once(net, build_dataset(cfg, "train"), bad, cap=0.95)
    assert checkpoint.network_bytes(net) == before
