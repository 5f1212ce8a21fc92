"""SGD training loop with a staged learning-rate schedule.

The schedule divides the initial rate by 10 at epochs ceil(E/2) and
ceil(3E/4), 1-based.  Given the same seed, two runs produce bitwise
identical parameters: the shuffle stream is the only source of
randomness and it is drawn from a dedicated Generator.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import TrainingDivergenceError
from .network import Network, cross_entropy


def lr_at_epoch(epoch: int, total_epochs: int, lr0: float) -> float:
    """Learning rate for a 1-based epoch index."""
    drop1 = int(np.ceil(total_epochs / 2))
    drop2 = int(np.ceil(3 * total_epochs / 4))
    if epoch >= drop2:
        return lr0 / 100.0
    if epoch >= drop1:
        return lr0 / 10.0
    return lr0


def sgd_step(params, grads: dict, lr: float, weight_decay: float = 0.0):
    """In-place update p <- p - lr * (g + wd * p) for each (name, p) of
    params, with g = grads[name]: a layer's param_items and grad dict.

    The step consumes its gradients: each g is overwritten with the step
    lr * (g + wd * p) and then subtracted, bitwise the allocating form.
    At wd == 0 the decay term is skipped and the step is lr * g.  For
    finite p that is bitwise equal to lr * (g + 0.0 * p), signed zeros
    included; a weight already at +-inf stays +-inf instead of becoming
    NaN through 0.0 * inf.
    """
    for name, p in params:
        g = grads[name]
        if weight_decay != 0.0:
            g += weight_decay * p
        g *= lr
        p -= g


def keep_patterns(net: Network) -> dict:
    """Per plain dense/conv layer and parameter name, a uint64 pattern
    that is all ones where the entry trains and zero where it is frozen.

    Weights exactly equal to zero count as pruned: in-place pruning
    stores removed weights as exact zeros, and a continuous init never
    produces them by accident.  A bias entry is frozen only when its
    whole output column of weights is zero as well.  Bottleneck layers
    prune structurally and get no patterns, and a parameter that freezes
    nothing gets no pattern and is not masked.
    """
    ones = np.uint64(np.iinfo(np.uint64).max)
    keeps = {}
    for i in net.parameterized_ids():
        layer = net.layers[i]
        if layer.kind not in ("dense", "conv"):
            continue
        dead_w = layer.w == 0.0
        frozen = {"w": dead_w, "b": np.all(dead_w, axis=0) & (layer.b == 0.0)}
        keeps[i] = {name: np.where(m, np.uint64(0), ones) for name, m in frozen.items() if m.any()}
    return keeps


def mask_grad(g: np.ndarray, keep: np.ndarray) -> None:
    """Zero g's frozen entries in place: one AND on the float64 bits,
    bitwise equal to np.where(mask, 0.0, g) for every value, NaN, +-inf,
    -0.0 and subnormals included."""
    bits = g.view(np.uint64)
    np.bitwise_and(bits, keep, out=bits)


def evaluate(net: Network, x: np.ndarray, y: np.ndarray, batch_size: int):
    """(mean loss, accuracy) over a dataset in fixed-order batches."""
    n = x.shape[0]
    total_loss = 0.0
    correct = 0
    for start in range(0, n, batch_size):
        xb = x[start : start + batch_size]
        yb = y[start : start + batch_size]
        logits = net.forward(xb)
        total_loss += cross_entropy(logits, yb) * xb.shape[0]
        correct += np.count_nonzero(logits.argmax(axis=1) == yb)
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
    accuracy are measured on the shuffled stream as it is consumed.  Each
    step takes the batch's loss and gradients from one Network.backward
    and raises TrainingDivergenceError before stepping on a non-finite
    loss.  freeze_zeros keeps every exactly-zero weight of a plain layer
    at zero: each step ANDs the gradient's bits with the keep patterns
    (see keep_patterns) built once here, in place, since the step owns
    its gradients.
    """
    rng = np.random.default_rng(seed)
    keeps = keep_patterns(net) if freeze_zeros else {}
    # per layer, the parameters sgd_step updates in place and their keep patterns
    steps = [(i, net.layers[i].param_items(), keeps.get(i, {})) for i in net.parameterized_ids()]
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
            loss, grads = net.backward(logits, yb)
            if not math.isfinite(loss):
                raise TrainingDivergenceError(
                    f"training loss became non-finite at epoch {epoch}"
                )
            epoch_loss += loss * xb.shape[0]
            correct += np.count_nonzero(logits.argmax(axis=1) == yb)
            for i, params, layer_keeps in steps:
                for name, keep in layer_keeps.items():
                    mask_grad(grads[i][name], keep)
                sgd_step(params, grads[i], lr_e, weight_decay)
        curve.append((epoch, lr_e, epoch_loss / n, correct / n))
    return net, curve
