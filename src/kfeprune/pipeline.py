"""End-to-end commands: train, prune, iterate, finetune, eval, decompose.

Every command reads a RunConfig and checks all of its inputs, then does
its work, and only then creates its output directory and writes there a
schema-versioned metrics.json next to whatever else it produces
(checkpoint.kfep, curve.csv, importance.csv).  A command that fails
leaves no directory.  All numbers in the metrics are reproducible for a
fixed seed except wall_time_s.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from . import criteria, kfac, reparam
from .accounting import count_flops, count_params, flops_and_out_shape, reduction_percent
from .checkpoint import (
    load_network,
    network_bytes,
    network_from_bytes,
    save_network,
    write_atomic,
)
from .config import RunConfig, parse_arch, parse_image, resolve_cap, validate_config
from .data import Dataset, load_idx, synth_dataset
from .errors import DimensionError, FormatError, KfepruneError, ValidationError
from .layers import ConvLayer, DenseLayer, FlattenLayer
from .network import Network, build_cnn, build_mlp
from .training import evaluate, train

SCHEMA_VERSION = 1

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
    return ids if strategy in ("obd", "obs") else ids[:-1]


def conv_variant_for(strategy: str) -> str:
    return "channel" if strategy == "eigendamage" else "full"


def _plan(strategy: str, layer_id: int, layer, factors, damping: float):
    """Score one layer's units from its Kronecker factors.

    Returns (tables, rewrite).  rewrite(mask) builds the pruned layer and
    returns it with the removal's predicted cost, which only eigendamage
    reports (None otherwise).  Neither step changes `layer`: eigendamage
    scores a rotated copy and returns the pruned layer in its smallest
    exact form, and the in-place strategies write into copies of the
    weights.  Every pruned layer is built through its kind's
    constructor, so it holds its parameters as a loaded checkpoint would.
    """
    if strategy == "eigendamage":
        ef = kfac.eigenbasis(factors)
        if isinstance(layer, (DenseLayer, ConvLayer)):
            rotated = reparam.to_kfe(layer, ef)
        else:
            rotated = reparam.merge_bases(layer, ef)
        tables = criteria.eigendamage_scores(layer_id, rotated.core, ef.lam_a, ef.lam_s)

        def rewrite(mask):
            rows = mask.removed(layer_id, "kfe_row")
            cols = mask.removed(layer_id, "kfe_col")
            removed = np.zeros(rotated.core.shape, dtype=bool)
            removed[rows] = True
            removed[:, cols] = True
            energy = criteria.kfe_energy(rotated.core, ef.lam_a, ef.lam_s)
            cost = 0.5 * float(energy[removed].sum())
            return reparam.smallest_form(reparam.eigenprune(rotated, rows, cols)), cost

        return tables, rewrite

    kf = kfac.damp(factors, damping)
    w, update = layer.w, None
    if strategy in ("obs", "c-obs"):
        a_inv = kfac.inv_psd(kf.a)
    if strategy in ("obs", "c-obs", "kron-obs"):
        s_inv = kfac.inv_psd(kf.s)
    if strategy == "obd":
        h_diag = criteria.kfac_diag(np.diag(kf.a), np.diag(kf.s))
        table = criteria.obd_scores(layer_id, w.flatten(order="F"), h_diag)
    elif strategy == "obs":
        h_inv_diag = criteria.kfac_diag(np.diag(a_inv), np.diag(s_inv))
        table = criteria.obs_scores(layer_id, w.flatten(order="F"), h_inv_diag)
    elif strategy == "c-obd":
        table = criteria.c_obd_scores(layer_id, w, np.diag(kf.a), np.diag(kf.s))
    elif strategy == "c-obs":
        table = criteria.c_obs_scores(layer_id, w, np.diag(a_inv), np.diag(s_inv))
    elif strategy == "kron-obd":
        table = criteria.kron_obd_scores(layer_id, w, kf.a, kf.s)
    elif strategy == "kron-obs":
        table, update = criteria.kron_obs_scores_and_update(layer_id, w, kf.a, s_inv)
    else:
        raise ValidationError(f"unknown strategy {strategy!r}")

    def rewrite(mask):
        removed = np.asarray(mask.removed(layer_id, table.unit_kind), dtype=np.intp)
        b = layer.b
        if strategy == "obs":
            # the survivors are compensated removing weights in ascending
            # (score, unit id) order
            order = removed[np.lexsort((removed, table.delta_l[removed]))]
            new_w = criteria.obs_sequential_update(w, a_inv, s_inv, order)
        elif strategy == "obd":
            flat = w.flatten(order="F")
            flat[removed] = 0.0
            new_w = flat.reshape(w.shape, order="F")
        elif not removed.size:
            return layer, None
        else:
            # kron-obs compensates the surviving filters; its update
            # zeroes the removed ones as well
            new_w = w.copy() if update is None else update(removed)
            new_w[:, removed] = 0.0
            b = layer.b.copy()
            b[removed] = 0.0
        return type(layer)(new_w, b, **layer.geometry()), None

    return [table], rewrite


def prune_once(net, dataset, cfg: RunConfig, cap: float):
    """Estimate factors, plan every eligible layer, select one global
    mask, then apply every layer's rewrite.

    Returns (tables, mask, info).  info["train_loss_pre"] is the mean
    loss over dataset before the prune, which the factor pass gives in
    cfg.batch_size batches, as training.evaluate would.  The network
    changes only once every rewrite is built, so when this raises the
    network is as it was.
    """
    strategy = cfg.strategy
    ids = eligible_layer_ids(net, strategy)
    if not ids:
        raise ValidationError("no layers eligible for pruning under this strategy")
    for i in ids:
        if strategy != "eigendamage" and not isinstance(net.layers[i], (DenseLayer, ConvLayer)):
            raise ValidationError(
                f"layer {i} is a {net.layers[i].kind} layer; {strategy} prunes plain "
                "dense and conv layers only (prune a rotated checkpoint with eigendamage)"
            )
    factors, pre_loss = kfac.estimate_factors(
        net,
        dataset,
        conv_variant=conv_variant_for(strategy),
        batch_size=cfg.batch_size,
        max_batches=cfg.fisher_batches if cfg.fisher_batches > 0 else None,
        layer_ids=ids,
    )
    tables, rewrites = [], []
    for i in ids:
        layer_tables, rewrite = _plan(strategy, i, net.layers[i], factors[i], cfg.damping)
        tables.extend(layer_tables)
        rewrites.append(rewrite)
    mask = criteria.select_mask(tables, cfg.ratio, cap)
    pruned = [rewrite(mask) for rewrite in rewrites]
    info = {"train_loss_pre": pre_loss}
    if strategy == "eigendamage":
        info["predicted_cost"] = sum(cost for _, cost in pruned)
    for i, (layer, _) in zip(ids, pruned):
        net.layers[i] = layer
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
            if layer.kind == "bottleneck_conv":
                denom *= layer.k * layer.k
            fracs.append(float(layer.core.size) / denom)
    return fracs


EVAL_FIELDS = ("train_loss", "train_accuracy", "test_loss", "test_accuracy")


def _eval_metrics(net, ds_train, ds_test, batch_size):
    """The EVAL_FIELDS of net: loss and accuracy on both splits."""
    on_train = evaluate(net, ds_train.x, ds_train.y, batch_size)
    on_test = evaluate(net, ds_test.x, ds_test.y, batch_size)
    return dict(zip(EVAL_FIELDS, on_train + on_test))


def write_metrics(out_dir: str, record: dict):
    path = os.path.join(out_dir, "metrics.json")
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    write_atomic(path, text.encode("ascii"))
    return path


def write_curve(out_dir: str, curve: list):
    path = os.path.join(out_dir, "curve.csv")
    rows = ["epoch,lr,train_loss,train_accuracy\n"]
    rows += [f"{epoch},{lr:.17g},{loss:.17g},{acc:.17g}\n" for epoch, lr, loss, acc in curve]
    write_atomic(path, "".join(rows).encode("ascii"))
    return path


def write_importance(out_dir: str, tables):
    """One row per unit, by layer id, unit kind as a string, then unit id."""
    path = os.path.join(out_dir, "importance.csv")
    rows = ["layer_id,unit_kind,unit_id,delta_L,strategy\n"]
    for t in sorted(tables, key=lambda t: (t.layer_id, t.unit_kind)):
        head, tail = f"{t.layer_id},{t.unit_kind},", f",{t.strategy}\n"
        rows += [f"{head}{i},{s:.17g}{tail}" for i, s in enumerate(t.delta_l.tolist())]
    write_atomic(path, "".join(rows).encode("ascii"))
    return path


def _open(cfg: RunConfig, fresh: bool = False) -> tuple:
    """Read and check every input of a command; writes nothing.

    Checks cfg, loads the checkpoint (or, when fresh, builds a network
    for the train split), builds both splits and walks their sample
    shape through the network.  A network and data that do not fit raise
    FormatError.
    Returns (net, ds_train, ds_test, in_shape, before), with before the
    network's (params, flops).
    """
    validate_config(cfg)
    if not fresh:
        net = load_network(cfg.checkpoint or os.path.join(cfg.out, CHECKPOINT_NAME))
    ds_train = build_dataset(cfg, "train")
    ds_test = build_dataset(cfg, "test")
    if fresh:
        net = build_network(cfg, ds_train.num_classes)
    in_shape = ds_train.x.shape[1:]
    if ds_test.x.shape[1:] != in_shape:
        raise FormatError(f"train samples are {in_shape}, test samples {ds_test.x.shape[1:]}")
    try:
        flops, out_shape = flops_and_out_shape(net, in_shape)
    except DimensionError as err:
        raise FormatError(f"samples of shape {in_shape} do not fit the network: {err}") from None
    # the test split counts its classes from its own labels on idx data
    classes = ds_train.num_classes
    if ds_test.num_classes > classes:
        raise FormatError(
            f"the test split has {ds_test.num_classes} classes, the train split {classes}"
        )
    if out_shape != (classes,):
        raise FormatError(
            f"the network gives {'x'.join(map(str, out_shape))} outputs per sample, "
            f"but the data has {classes} classes"
        )
    return net, ds_train, ds_test, in_shape, (count_params(net), flops)


def _size_record(net: Network, in_shape, before=None) -> dict:
    """params, flops and per_layer_remaining of the network.  Given the
    (params, flops) it started from, also those as params_before and
    flops_before, and the two reduction percentages."""
    params, flops = count_params(net), count_flops(net, in_shape)
    record = {"params": params, "flops": flops, "per_layer_remaining": per_layer_remaining(net)}
    if before is not None:
        record["params_before"], record["flops_before"] = before
        record["weight_reduction_percent"] = reduction_percent(before[0], params)
        record["flop_reduction_percent"] = reduction_percent(before[1], flops)
    return record


def _record(
    cfg: RunConfig, command: str, net, ds_train, ds_test, in_shape, before=None, evals=None
) -> dict:
    """Every command's record: what ran, the network's loss and accuracy
    on both splits, and its _size_record.  evals, when given, are
    _eval_metrics already computed on this very network, and are used
    instead of evaluating it again."""
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "strategy": cfg.strategy,
        "seed": cfg.seed,
    }
    if evals is None:
        evals = _eval_metrics(net, ds_train, ds_test, cfg.batch_size)
    record.update(evals)
    record.update(_size_record(net, in_shape, before))
    return record


def _finish(out_dir: str, record: dict, t0: float, net=None, curve=None, tables=None) -> dict:
    """Create the output directory and write the command's artifacts: the
    curve, importance table and network when given, then the metrics
    stamped with wall_time_s.  Every command ends here, and nothing else
    writes, so a command that fails leaves no directory."""
    os.makedirs(out_dir, exist_ok=True)
    if curve is not None:
        write_curve(out_dir, curve)
    if tables is not None:
        write_importance(out_dir, tables)
    if net is not None:
        save_network(os.path.join(out_dir, CHECKPOINT_NAME), net)
    record["wall_time_s"] = time.perf_counter() - t0
    write_metrics(out_dir, record)
    return record


def _fit_net(net, ds_train, cfg: RunConfig, fresh: bool = False) -> tuple:
    """Train net in place on the train split: a fresh network for
    cfg.epochs from cfg.lr, a loaded or pruned one for cfg.finetune_epochs
    from cfg.finetune_lr with its zero weights frozen.  Returns (loss,
    curve), loss being the split's mean loss before training."""
    loss, _ = evaluate(net, ds_train.x, ds_train.y, cfg.batch_size)
    _, curve = train(
        net,
        ds_train,
        epochs=cfg.epochs if fresh else cfg.finetune_epochs,
        lr=cfg.lr if fresh else cfg.finetune_lr,
        weight_decay=cfg.weight_decay,
        batch_size=cfg.batch_size,
        seed=cfg.seed,
        freeze_zeros=not fresh,
    )
    return loss, curve


def _fit(cfg: RunConfig, command: str) -> dict:
    """train fits a fresh network, finetune a loaded one."""
    t0 = time.perf_counter()
    fresh = command == "train"
    net, ds_train, ds_test, in_shape, _ = _open(cfg, fresh)
    pre_loss, curve = _fit_net(net, ds_train, cfg, fresh)
    record = _record(cfg, command, net, ds_train, ds_test, in_shape)
    record["train_loss_pre"] = pre_loss
    record["train_loss_post"] = record["train_loss"]
    return _finish(cfg.out, record, t0, net, curve=curve)


def cmd_train(cfg: RunConfig) -> dict:
    return _fit(cfg, "train")


def cmd_finetune(cfg: RunConfig) -> dict:
    return _fit(cfg, "finetune")


def cmd_prune(cfg: RunConfig) -> dict:
    t0 = time.perf_counter()
    net, ds_train, ds_test, in_shape, before = _open(cfg)
    cap = resolve_cap(cfg, iterative=False)
    tables, mask, info = prune_once(net, ds_train, cfg, cap)
    record = _record(cfg, "prune", net, ds_train, ds_test, in_shape, before)
    record["train_loss_post"] = record["train_loss"]
    record["tau"] = mask.tau
    record["ratio"] = cfg.ratio
    record["cap"] = cap
    record.update(info)
    return _finish(cfg.out, record, t0, net, tables=tables)


def cmd_iterate(cfg: RunConfig) -> dict:
    t0 = time.perf_counter()
    net, ds_train, ds_test, in_shape, before = _open(cfg)
    cap = resolve_cap(cfg, iterative=True)
    rounds = []
    aborted = None
    last_tables = None
    for round_id in range(1, cfg.iterations + 1):
        t_round = time.perf_counter()
        saved = network_snapshot(net)
        try:
            tables, mask, info = prune_once(net, ds_train, cfg, cap)
            post_prune_loss, _ = _fit_net(net, ds_train, cfg)
        except KfepruneError as err:
            # back to the start of the failed round; completed rounds stand
            net = saved
            aborted = {"round": round_id, "error": type(err).__name__, "reason": str(err)}
            break
        last_tables = tables
        rec = _eval_metrics(net, ds_train, ds_test, cfg.batch_size)
        rec["round"] = round_id
        rec["train_loss_post_prune"] = post_prune_loss
        rec["train_loss_post"] = rec["train_loss"]
        rec["tau"] = mask.tau
        rec.update(_size_record(net, in_shape, before))
        # the starting counts are reported once, in the top record
        del rec["params_before"], rec["flops_before"]
        rec.update(info)
        rec["wall_time_s"] = time.perf_counter() - t_round
        rounds.append(rec)
    # the last completed round evaluated this network; after a failed
    # round, net is a serialized snapshot of it, bitwise the same
    evals = {key: rounds[-1][key] for key in EVAL_FIELDS} if rounds else None
    record = _record(cfg, "iterate", net, ds_train, ds_test, in_shape, before, evals)
    record["cap"] = cap
    record["ratio"] = cfg.ratio
    record["rounds"] = rounds
    if aborted is not None:
        record["aborted"] = aborted
    return _finish(cfg.out, record, t0, net, tables=last_tables)


def cmd_eval(cfg: RunConfig) -> dict:
    t0 = time.perf_counter()
    net, ds_train, ds_test, in_shape, _ = _open(cfg)
    return _finish(cfg.out, _record(cfg, "eval", net, ds_train, ds_test, in_shape), t0)


def cmd_decompose(cfg: RunConfig) -> dict:
    t0 = time.perf_counter()
    net, ds_train, ds_test, in_shape, before = _open(cfg)
    decomposed = []
    for i in net.parameterized_ids():
        layer = net.layers[i]
        if layer.kind == "bottleneck_conv" and layer.core_mode == "full":
            full_rank = min(layer.core.shape[0], layer.core.shape[1])
            rank = min(cfg.rank, full_rank) if cfg.rank > 0 else full_rank
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
        raise ValidationError("no full convolution bottleneck cores to decompose")
    record = _record(cfg, "decompose", net, ds_train, ds_test, in_shape, before)
    record["layers"] = decomposed
    return _finish(cfg.out, record, t0, net)


def network_snapshot(net: Network) -> Network:
    """Deep structural copy via the serialization path."""
    return network_from_bytes(network_bytes(net))
