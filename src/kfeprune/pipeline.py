"""End-to-end commands: train, prune, iterate, finetune, eval, decompose.

Every command reads a RunConfig, works inside one output directory, and
writes a schema-versioned metrics.json next to whatever else it
produces (checkpoint.kfep, curve.csv, importance.csv).  All numbers in
the metrics are reproducible for a fixed seed except wall_time_s.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from . import criteria, kfac, reparam
from .accounting import count_flops, count_params, reduction_percent
from .checkpoint import load_network, network_bytes, network_from_bytes, save_network
from .config import RunConfig, parse_arch, parse_image, resolve_cap
from .data import Dataset, load_idx, synth_dataset
from .errors import FormatError, ValidationError
from .layers import ConvLayer, DenseLayer, FlattenLayer
from .network import Network, build_cnn, build_mlp
from .training import evaluate, train

SCHEMA_VERSION = 1

WEIGHT_STRATEGIES = ("obd", "obs")
FILTER_STRATEGIES = ("c-obd", "c-obs", "kron-obd", "kron-obs")

CHECKPOINT_NAME = "checkpoint.kfep"


def build_dataset(cfg: RunConfig, split: str) -> Dataset:
    if cfg.dataset == "idx":
        if split == "train":
            images, labels = cfg.train_images, cfg.train_labels
        else:
            images, labels = cfg.test_images, cfg.test_labels
        if not images or not labels:
            raise FormatError(f"idx dataset needs image and label paths for {split}")
        return load_idx(images, labels)
    n = cfg.n_train if split == "train" else cfg.n_test
    seed = 2 * cfg.seed + (0 if split == "train" else 1)
    image_shape = parse_image(cfg.image) if cfg.image else None
    return synth_dataset(
        cfg.dataset,
        seed=seed,
        n=n,
        classes=cfg.classes,
        dim=cfg.dim,
        image_shape=image_shape,
        sigma=cfg.sigma,
        name=split,
        task_seed=cfg.seed,
    )


def build_network(cfg: RunConfig, num_classes: int) -> Network:
    kind, sizes = parse_arch(cfg.arch)
    if kind == "cnn":
        if not cfg.image:
            raise FormatError("cnn architecture needs an image = CxHxW entry")
        return build_cnn(parse_image(cfg.image), sizes, num_classes, seed=cfg.seed)
    if cfg.image:
        c, h, w = parse_image(cfg.image)
        net = build_mlp(c * h * w, sizes, num_classes, seed=cfg.seed)
        net.layers.insert(0, FlattenLayer())
        return net
    return build_mlp(cfg.dim, sizes, num_classes, seed=cfg.seed)


def eligible_layer_ids(net: Network, strategy: str) -> list:
    """Layers a strategy may touch; unit-removing strategies spare the
    final parameterized layer so no output class can be deleted."""
    ids = net.parameterized_ids()
    if strategy in WEIGHT_STRATEGIES:
        return ids
    return ids[:-1] if len(ids) > 1 else []


def conv_variant_for(strategy: str) -> str:
    return "channel" if strategy == "eigendamage" else "full"


def _theta_vec(w: np.ndarray) -> np.ndarray:
    return w.flatten(order="F")


def _score_weight_layers(net, factors, strategy, damping, ids):
    tables, context = [], {}
    for i in ids:
        kf = kfac.damp(factors[i], damping)
        layer = net.layers[i]
        theta = _theta_vec(layer.w)
        if strategy == "obd":
            h_diag = criteria.kfac_diag(np.diag(kf.a), np.diag(kf.s))
            tables.append(criteria.obd_scores(i, theta, h_diag))
        else:
            a_inv = kfac.inv_psd(kf.a)
            s_inv = kfac.inv_psd(kf.s)
            h_inv_diag = criteria.kfac_diag(np.diag(a_inv), np.diag(s_inv))
            table = criteria.obs_scores(i, theta, h_inv_diag)
            tables.append(table)
            context[i] = (a_inv, s_inv, table.scores())
    return tables, context


def _apply_weight_mask(net, mask, strategy, context):
    """Zero the removed weights.  Under obs the survivors are compensated
    first, removing weights in ascending (score, unit id) order."""
    for i, kind in sorted({(lid, k) for lid, k in mask.groups if k == "weight"}):
        layer = net.layers[i]
        removed = np.asarray(mask.removed(i, kind), dtype=np.intp)
        if strategy == "obs":
            a_inv, s_inv, scores = context[i]
            order = removed[np.lexsort((removed, scores[removed]))]
            layer.w = criteria.obs_sequential_update(layer.w, a_inv, s_inv, order)
        else:
            flat = _theta_vec(layer.w)
            flat[removed] = 0.0
            layer.w = flat.reshape(layer.w.shape, order="F")


def _score_filter_layers(net, factors, strategy, damping, ids):
    tables, context = [], {}
    for i in ids:
        kf = kfac.damp(factors[i], damping)
        layer = net.layers[i]
        if strategy == "c-obd":
            tables.append(
                criteria.c_obd_scores(i, layer.w, np.diag(kf.a), np.diag(kf.s))
            )
        elif strategy == "c-obs":
            a_inv = kfac.inv_psd(kf.a)
            s_inv = kfac.inv_psd(kf.s)
            tables.append(
                criteria.c_obs_scores(i, layer.w, np.diag(a_inv), np.diag(s_inv))
            )
        elif strategy == "kron-obd":
            tables.append(criteria.kron_obd_scores(i, layer.w, kf.a, kf.s))
        else:
            s_inv = kfac.inv_psd(kf.s)
            table, update = criteria.kron_obs_scores_and_update(
                i, layer.w, kf.a, s_inv
            )
            tables.append(table)
            context[i] = update
    return tables, context


def _apply_filter_mask(net, mask, strategy, context):
    for i, kind in sorted({(lid, k) for lid, k in mask.groups if k == "filter"}):
        layer = net.layers[i]
        removed = mask.removed(i, kind)
        if not removed:
            continue
        if strategy == "kron-obs":
            layer.w = context[i](removed)
        else:
            layer.w[:, removed] = 0.0
        layer.b[removed] = 0.0


def _rotate_for_eigendamage(net, factors, ids):
    """Move eligible layers into the eigenbasis of their current factors.

    Plain layers are rewritten as bottlenecks; existing bottlenecks get
    the fresh basis folded in.  Returns per-layer eigen factors.
    """
    eigen = {}
    for i in ids:
        ef = kfac.eigenbasis(factors[i])
        layer = net.layers[i]
        if isinstance(layer, (DenseLayer, ConvLayer)):
            net.layers[i] = reparam.to_kfe(layer, ef, basis="channel")
        else:
            net.layers[i] = reparam.merge_bases(layer, ef)
        eigen[i] = ef
    return eigen


def _score_eigendamage(net, eigen, ids):
    tables = []
    for i in ids:
        ef = eigen[i]
        rows, cols = criteria.eigendamage_scores(
            i, net.layers[i].core, ef.lam_a, ef.lam_s
        )
        tables.append(rows)
        tables.append(cols)
    return tables


def _predicted_cost(net, eigen, mask, ids) -> float:
    total = 0.0
    for i in ids:
        core = net.layers[i].core
        ef = eigen[i]
        la = np.clip(ef.lam_a, 0.0, None)
        ls = np.clip(ef.lam_s, 0.0, None)
        if core.ndim == 2:
            theta = core ** 2 * la[:, None] * ls[None, :]
        else:
            theta = core ** 2 * la[:, None, None] * ls[None, :, None]
        removed = np.zeros(core.shape, dtype=bool)
        removed[mask.removed(i, "kfe_row")] = True
        removed[:, mask.removed(i, "kfe_col")] = True
        total += 0.5 * float(theta[removed].sum())
    return total


def _apply_eigendamage_mask(net, mask, ids):
    for i in ids:
        net.layers[i] = reparam.eigenprune(
            net.layers[i], mask.removed(i, "kfe_row"), mask.removed(i, "kfe_col")
        )


def prune_once(net, dataset, cfg: RunConfig, cap: float):
    """Estimate factors, score, select, and apply one round of pruning.

    Returns (tables, mask, info); the network is modified in place.
    """
    strategy = cfg.strategy
    ids = eligible_layer_ids(net, strategy)
    if not ids:
        raise ValidationError("no layers eligible for pruning under this strategy")
    factors = kfac.estimate_factors(
        net,
        dataset,
        conv_variant=conv_variant_for(strategy),
        batch_size=cfg.batch_size,
        max_batches=cfg.fisher_batches if cfg.fisher_batches > 0 else None,
        layer_ids=ids,
    )
    info = {}
    if strategy in WEIGHT_STRATEGIES:
        tables, context = _score_weight_layers(net, factors, strategy, cfg.damping, ids)
        mask = criteria.select_mask(tables, cfg.ratio, cap)
        _apply_weight_mask(net, mask, strategy, context)
    elif strategy in FILTER_STRATEGIES:
        tables, context = _score_filter_layers(net, factors, strategy, cfg.damping, ids)
        mask = criteria.select_mask(tables, cfg.ratio, cap)
        _apply_filter_mask(net, mask, strategy, context)
    else:
        eigen = _rotate_for_eigendamage(net, factors, ids)
        tables = _score_eigendamage(net, eigen, ids)
        mask = criteria.select_mask(tables, cfg.ratio, cap)
        info["predicted_cost"] = _predicted_cost(net, eigen, mask, ids)
        _apply_eigendamage_mask(net, mask, ids)
    return tables, mask, info


def per_layer_remaining(net: Network) -> list:
    """Live coefficient fraction per parameterized layer.

    Plain layers report their nonzero-weight fraction; bottleneck layers
    the core size relative to an unpruned full core.
    """
    fracs = []
    for i in net.parameterized_ids():
        layer = net.layers[i]
        if hasattr(layer, "w"):
            fracs.append(float(np.count_nonzero(layer.w)) / layer.w.size)
        else:
            denom = layer.qa.shape[0] * layer.qs.shape[0]
            if layer.kind == "bottleneck_conv" and layer.basis == "channel":
                denom *= layer.k * layer.k
            fracs.append(float(layer.core.size) / denom)
    return fracs


def _data_shape(cfg: RunConfig, dataset: Dataset):
    return dataset.x.shape[1:] if dataset.x.ndim == 4 else (dataset.x.shape[1],)


def _eval_metrics(net, ds_train, ds_test, batch_size):
    train_loss, train_acc = evaluate(net, ds_train.x, ds_train.y, batch_size)
    test_loss, test_acc = evaluate(net, ds_test.x, ds_test.y, batch_size)
    return {
        "train_loss": train_loss,
        "train_accuracy": train_acc,
        "test_loss": test_loss,
        "test_accuracy": test_acc,
    }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def write_metrics(out_dir: str, record: dict):
    path = os.path.join(out_dir, "metrics.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(_jsonable(record), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def write_curve(out_dir: str, curve: list):
    path = os.path.join(out_dir, "curve.csv")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("epoch,lr,train_loss,train_accuracy\n")
        for epoch, lr, loss, acc in curve:
            fh.write(f"{epoch},{lr:.17g},{loss:.17g},{acc:.17g}\n")
    return path


def write_importance(out_dir: str, tables):
    path = os.path.join(out_dir, "importance.csv")
    entries = []
    for t in tables:
        entries.extend((e, t.strategy) for e in t.entries)
    entries.sort(key=lambda pair: (pair[0].layer_id, pair[0].unit_kind, pair[0].unit_id))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("layer_id,unit_kind,unit_id,delta_L,strategy\n")
        for e, strategy in entries:
            fh.write(f"{e.layer_id},{e.unit_kind},{e.unit_id},{e.delta_l:.17g},{strategy}\n")
    return path


def _base_record(cfg: RunConfig, command: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "strategy": cfg.strategy,
        "seed": cfg.seed,
    }


def _checkpoint_in(cfg: RunConfig) -> str:
    return cfg.checkpoint or os.path.join(cfg.out, CHECKPOINT_NAME)


def _prepare_out(cfg: RunConfig) -> str:
    os.makedirs(cfg.out, exist_ok=True)
    return cfg.out


def cmd_train(cfg: RunConfig) -> dict:
    t0 = time.perf_counter()
    out_dir = _prepare_out(cfg)
    ds_train = build_dataset(cfg, "train")
    ds_test = build_dataset(cfg, "test")
    net = build_network(cfg, ds_train.num_classes)
    pre_loss, _ = evaluate(net, ds_train.x, ds_train.y, cfg.batch_size)
    net, curve = train(
        net,
        ds_train,
        epochs=cfg.epochs,
        lr=cfg.lr,
        weight_decay=cfg.weight_decay,
        batch_size=cfg.batch_size,
        seed=cfg.seed,
    )
    record = _base_record(cfg, "train")
    record.update(_eval_metrics(net, ds_train, ds_test, cfg.batch_size))
    record["train_loss_pre"] = pre_loss
    record["train_loss_post"] = record["train_loss"]
    in_shape = _data_shape(cfg, ds_train)
    record["params"] = count_params(net)
    record["flops"] = count_flops(net, in_shape)
    record["per_layer_remaining"] = per_layer_remaining(net)
    save_network(os.path.join(out_dir, CHECKPOINT_NAME), net)
    write_curve(out_dir, curve)
    record["wall_time_s"] = time.perf_counter() - t0
    write_metrics(out_dir, record)
    return record


def cmd_prune(cfg: RunConfig) -> dict:
    t0 = time.perf_counter()
    out_dir = _prepare_out(cfg)
    net = load_network(_checkpoint_in(cfg))
    ds_train = build_dataset(cfg, "train")
    ds_test = build_dataset(cfg, "test")
    in_shape = _data_shape(cfg, ds_train)
    pre_loss, _ = evaluate(net, ds_train.x, ds_train.y, cfg.batch_size)
    params_before = count_params(net)
    flops_before = count_flops(net, in_shape)
    cap = resolve_cap(cfg, iterative=False)
    tables, mask, info = prune_once(net, ds_train, cfg, cap)
    record = _base_record(cfg, "prune")
    record.update(_eval_metrics(net, ds_train, ds_test, cfg.batch_size))
    record["train_loss_pre"] = pre_loss
    record["train_loss_post"] = record["train_loss"]
    record["tau"] = mask.tau
    record["ratio"] = cfg.ratio
    record["cap"] = cap
    record["params_before"] = params_before
    record["flops_before"] = flops_before
    record["params"] = count_params(net)
    record["flops"] = count_flops(net, in_shape)
    record["weight_reduction_percent"] = reduction_percent(
        params_before, record["params"]
    )
    record["flop_reduction_percent"] = reduction_percent(flops_before, record["flops"])
    record["per_layer_remaining"] = per_layer_remaining(net)
    record.update(info)
    save_network(os.path.join(out_dir, CHECKPOINT_NAME), net)
    write_importance(out_dir, tables)
    record["wall_time_s"] = time.perf_counter() - t0
    write_metrics(out_dir, record)
    return record


def _finetune(net, ds_train, cfg: RunConfig):
    if cfg.finetune_epochs == 0:
        return net, []
    return train(
        net,
        ds_train,
        epochs=cfg.finetune_epochs,
        lr=cfg.finetune_lr,
        weight_decay=cfg.weight_decay,
        batch_size=cfg.batch_size,
        seed=cfg.seed,
        freeze_zeros=True,
    )


def cmd_finetune(cfg: RunConfig) -> dict:
    t0 = time.perf_counter()
    out_dir = _prepare_out(cfg)
    net = load_network(_checkpoint_in(cfg))
    ds_train = build_dataset(cfg, "train")
    ds_test = build_dataset(cfg, "test")
    pre_loss, _ = evaluate(net, ds_train.x, ds_train.y, cfg.batch_size)
    net, curve = _finetune(net, ds_train, cfg)
    record = _base_record(cfg, "finetune")
    record.update(_eval_metrics(net, ds_train, ds_test, cfg.batch_size))
    record["train_loss_pre"] = pre_loss
    record["train_loss_post"] = record["train_loss"]
    in_shape = _data_shape(cfg, ds_train)
    record["params"] = count_params(net)
    record["flops"] = count_flops(net, in_shape)
    record["per_layer_remaining"] = per_layer_remaining(net)
    save_network(os.path.join(out_dir, CHECKPOINT_NAME), net)
    write_curve(out_dir, curve)
    record["wall_time_s"] = time.perf_counter() - t0
    write_metrics(out_dir, record)
    return record


def cmd_iterate(cfg: RunConfig) -> dict:
    t0 = time.perf_counter()
    out_dir = _prepare_out(cfg)
    net = load_network(_checkpoint_in(cfg))
    ds_train = build_dataset(cfg, "train")
    ds_test = build_dataset(cfg, "test")
    in_shape = _data_shape(cfg, ds_train)
    params_before = count_params(net)
    flops_before = count_flops(net, in_shape)
    cap = resolve_cap(cfg, iterative=True)
    rounds = []
    aborted = None
    last_tables = None
    for round_id in range(1, cfg.iterations + 1):
        t_round = time.perf_counter()
        saved = network_snapshot(net)
        try:
            pre_loss, _ = evaluate(net, ds_train.x, ds_train.y, cfg.batch_size)
            tables, mask, info = prune_once(net, ds_train, cfg, cap)
            last_tables = tables
        except ValidationError as err:
            net = saved
            aborted = {"round": round_id, "reason": str(err)}
            break
        post_prune_loss, _ = evaluate(net, ds_train.x, ds_train.y, cfg.batch_size)
        net, _ = _finetune(net, ds_train, cfg)
        rec = _eval_metrics(net, ds_train, ds_test, cfg.batch_size)
        rec["round"] = round_id
        rec["train_loss_pre"] = pre_loss
        rec["train_loss_post_prune"] = post_prune_loss
        rec["train_loss_post"] = rec["train_loss"]
        rec["tau"] = mask.tau
        rec["params"] = count_params(net)
        rec["flops"] = count_flops(net, in_shape)
        rec["weight_reduction_percent"] = reduction_percent(
            params_before, rec["params"]
        )
        rec["flop_reduction_percent"] = reduction_percent(flops_before, rec["flops"])
        rec["per_layer_remaining"] = per_layer_remaining(net)
        rec.update(info)
        rec["wall_time_s"] = time.perf_counter() - t_round
        rounds.append(rec)
    record = _base_record(cfg, "iterate")
    record["cap"] = cap
    record["ratio"] = cfg.ratio
    record["params_before"] = params_before
    record["flops_before"] = flops_before
    record["rounds"] = rounds
    if aborted is not None:
        record["aborted"] = aborted
    record.update(_eval_metrics(net, ds_train, ds_test, cfg.batch_size))
    record["params"] = count_params(net)
    record["flops"] = count_flops(net, in_shape)
    record["weight_reduction_percent"] = reduction_percent(
        params_before, record["params"]
    )
    record["flop_reduction_percent"] = reduction_percent(flops_before, record["flops"])
    record["per_layer_remaining"] = per_layer_remaining(net)
    save_network(os.path.join(out_dir, CHECKPOINT_NAME), net)
    if last_tables is not None:
        write_importance(out_dir, last_tables)
    record["wall_time_s"] = time.perf_counter() - t0
    write_metrics(out_dir, record)
    return record


def cmd_eval(cfg: RunConfig) -> dict:
    t0 = time.perf_counter()
    out_dir = _prepare_out(cfg)
    net = load_network(_checkpoint_in(cfg))
    ds_train = build_dataset(cfg, "train")
    ds_test = build_dataset(cfg, "test")
    record = _base_record(cfg, "eval")
    record.update(_eval_metrics(net, ds_train, ds_test, cfg.batch_size))
    in_shape = _data_shape(cfg, ds_train)
    record["params"] = count_params(net)
    record["flops"] = count_flops(net, in_shape)
    record["per_layer_remaining"] = per_layer_remaining(net)
    record["wall_time_s"] = time.perf_counter() - t0
    write_metrics(out_dir, record)
    return record


def cmd_decompose(cfg: RunConfig) -> dict:
    t0 = time.perf_counter()
    out_dir = _prepare_out(cfg)
    net = load_network(_checkpoint_in(cfg))
    ds_train = build_dataset(cfg, "train")
    in_shape = _data_shape(cfg, ds_train)
    params_before = count_params(net)
    flops_before = count_flops(net, in_shape)
    decomposed = []
    for i in net.parameterized_ids():
        layer = net.layers[i]
        if (
            layer.kind == "bottleneck_conv"
            and layer.basis == "channel"
            and layer.core_mode == "full"
        ):
            full_rank = min(layer.core.shape[0], layer.core.shape[1])
            rank = cfg.rank if cfg.rank > 0 else full_rank
            factors = reparam.depthwise_decompose(layer, rank, seed=cfg.seed)
            net.layers[i] = reparam.absorb_depthwise(layer, factors)
            decomposed.append(
                {
                    "layer_id": i,
                    "rank": rank,
                    "objective": factors.trace[-1],
                    "sweeps": len(factors.trace) - 1,
                }
            )
    if not decomposed:
        raise ValidationError("no channel-basis convolution cores to decompose")
    record = _base_record(cfg, "decompose")
    ds_test = build_dataset(cfg, "test")
    record.update(_eval_metrics(net, ds_train, ds_test, cfg.batch_size))
    record["layers"] = decomposed
    record["params_before"] = params_before
    record["flops_before"] = flops_before
    record["params"] = count_params(net)
    record["flops"] = count_flops(net, in_shape)
    record["weight_reduction_percent"] = reduction_percent(
        params_before, record["params"]
    )
    record["flop_reduction_percent"] = reduction_percent(flops_before, record["flops"])
    record["per_layer_remaining"] = per_layer_remaining(net)
    save_network(os.path.join(out_dir, CHECKPOINT_NAME), net)
    record["wall_time_s"] = time.perf_counter() - t0
    write_metrics(out_dir, record)
    return record


def network_snapshot(net: Network) -> Network:
    """Deep structural copy via the serialization path."""
    return network_from_bytes(network_bytes(net))
