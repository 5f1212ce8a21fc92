"""SGD training loop with a staged learning-rate schedule.

The schedule divides the initial rate by 10 at epochs ceil(E/2) and
ceil(3E/4), 1-based.  Given the same seed, two runs produce bitwise
identical parameters: the shuffle stream is the only source of
randomness and it is drawn from a dedicated Generator.
"""

from __future__ import annotations

import numpy as np

from .errors import TrainingDivergenceError
from .network import Network, cross_entropy

# Weights exactly equal to zero are treated as pruned-and-frozen when
# freeze_zeros is on; a continuous init never produces them by accident.


def lr_at_epoch(epoch: int, total_epochs: int, lr0: float) -> float:
    """Learning rate for a 1-based epoch index."""
    drop1 = int(np.ceil(total_epochs / 2))
    drop2 = int(np.ceil(3 * total_epochs / 4))
    if epoch >= drop2:
        return lr0 / 100.0
    if epoch >= drop1:
        return lr0 / 10.0
    return lr0


def sgd_step(params, grads, lr: float, weight_decay: float = 0.0):
    """In-place update p <- p - lr * (g + wd * p) for matching name lists."""
    for (name, p), (gname, g) in zip(params, grads):
        assert name == gname
        p -= lr * (g + weight_decay * p)


def zero_masks(net: Network) -> dict:
    """Masks of exactly-zero weight entries in plain dense/conv layers.

    In-place pruning stores removed weights as exact zeros, so freezing
    these entries keeps pruning decisions intact through finetuning.
    Bias entries are frozen only when the whole matching output column is
    zero.  Bottleneck layers prune structurally and need no masks.
    """
    masks = {}
    for i in net.parameterized_ids():
        layer = net.layers[i]
        if layer.kind not in ("dense", "conv"):
            continue
        dead_units = np.all(layer.w == 0.0, axis=0)
        masks[i] = {"w": layer.w == 0.0, "b": dead_units & (layer.b == 0.0)}
    return masks


def evaluate(net: Network, x: np.ndarray, y: np.ndarray, batch_size: int = 256):
    """(mean loss, accuracy) over a dataset in fixed-order batches."""
    n = x.shape[0]
    total_loss = 0.0
    correct = 0
    for start in range(0, n, batch_size):
        xb = x[start : start + batch_size]
        yb = y[start : start + batch_size]
        logits = net.forward(xb)
        total_loss += cross_entropy(logits, yb) * xb.shape[0]
        correct += int((logits.argmax(axis=1) == yb).sum())
    return total_loss / n, correct / n


def train(
    net: Network,
    dataset,
    epochs: int,
    lr: float,
    weight_decay: float = 0.0,
    batch_size: int = 32,
    seed: int = 0,
    freeze_zeros: bool = False,
):
    """Train in place; returns (net, curve) with one curve row per epoch.

    Curve rows are (epoch, lr, train_loss, train_accuracy) where loss and
    accuracy are measured on the shuffled stream as it is consumed.
    """
    rng = np.random.default_rng(seed)
    masks = zero_masks(net) if freeze_zeros else None
    curve = []
    n = dataset.n
    for epoch in range(1, epochs + 1):
        lr_e = lr_at_epoch(epoch, epochs, lr)
        perm = rng.permutation(n)
        epoch_loss = 0.0
        correct = 0
        for start in range(0, n, batch_size):
            idx = perm[start : start + batch_size]
            xb = dataset.x[idx]
            yb = dataset.y[idx]
            logits = net.forward(xb, capture=True)
            loss = cross_entropy(logits, yb)
            if not np.isfinite(loss):
                raise TrainingDivergenceError(
                    f"training loss became non-finite at epoch {epoch}"
                )
            epoch_loss += loss * xb.shape[0]
            correct += int((logits.argmax(axis=1) == yb).sum())
            grads = net.backward(logits, yb)
            for i in net.parameterized_ids():
                layer = net.layers[i]
                gdict = grads[i]
                layer_masks = masks.get(i, {}) if masks is not None else {}
                items = []
                for name, arr in layer.param_items():
                    g = gdict[name]
                    if name in layer_masks:
                        g = np.where(layer_masks[name], 0.0, g)
                    items.append((name, g))
                sgd_step(layer.param_items(), items, lr_e, weight_decay)
        curve.append((epoch, lr_e, epoch_loss / n, correct / n))
    return net, curve
