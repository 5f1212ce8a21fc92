"""Feed-forward network container with capture-aware forward/backward."""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, StateError, ValidationError
from .layers import ConvLayer, DenseLayer, FlattenLayer, ReluLayer

PARAM_KINDS = ("dense", "conv", "bottleneck_dense", "bottleneck_conv")


def _shifted_exp(logits: np.ndarray) -> tuple:
    """(z, exp(z), exp(z)'s row sums as a (B, 1) column) for the
    max-shifted logits z.  The reductions call the ufuncs that
    ndarray.max and ndarray.sum call, bitwise the same, without their
    Python-level wrappers."""
    z = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    e = np.exp(z)
    return z, e, np.add.reduce(e, axis=1, keepdims=True)


def _check_batch(logits: np.ndarray, labels: np.ndarray) -> None:
    if logits.ndim != 2:
        raise DimensionError("logits must be (B, classes)")
    if labels.shape != (logits.shape[0],):
        raise DimensionError("labels must be (B,)")


def _mean_loss(z: np.ndarray, sums: np.ndarray, rows: np.ndarray, labels: np.ndarray) -> float:
    lse = np.log(sums.ravel())
    # sum, then divide: bitwise numpy's mean, without its Python wrapper
    return float(np.add.reduce(lse - z[rows, labels]) / z.shape[0])


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean softmax cross-entropy over the batch."""
    _check_batch(logits, labels)
    z, _, sums = _shifted_exp(logits)
    return _mean_loss(z, sums, np.arange(z.shape[0]), labels)


def cross_entropy_and_grad(logits: np.ndarray, labels: np.ndarray) -> tuple:
    """(cross_entropy, per-sample unscaled gradient of each sample's loss
    wrt its logits) of one batch from one softmax: the loss is bitwise
    cross_entropy's, the gradient bitwise softmax(logits) minus the
    one-hot labels.  Network.backward starts from it."""
    _check_batch(logits, labels)
    z, e, sums = _shifted_exp(logits)
    rows = np.arange(z.shape[0])
    loss = _mean_loss(z, sums, rows, labels)
    e /= sums
    e[rows, labels] -= 1.0
    return loss, e


class Network:
    """An ordered stack of layers trained with softmax cross-entropy.

    forward(x, capture=True) records per-layer tapes and keeps them with
    the logits; backward() consumes them and must be handed the exact
    logits array the tapes belong to, otherwise they are stale and a
    StateError is raised.  A plain forward(x) records nothing and drops
    any earlier tapes, so inference keeps no batch alive.
    """

    def __init__(self, layers: list):
        if not layers:
            raise ValidationError("network needs at least one layer")
        self.layers = list(layers)
        self._tapes = None
        self._logits = None

    def parameterized_ids(self) -> list:
        return [i for i, l in enumerate(self.layers) if l.kind in PARAM_KINDS]

    def forward(self, x: np.ndarray, capture: bool = False) -> np.ndarray:
        out = np.asarray(x, dtype=np.float64)
        tapes = [{} if capture else None for _ in self.layers]
        for layer, tape in zip(self.layers, tapes):
            out = layer.forward(out, tape)
        self._tapes, self._logits = (tapes, out) if capture else (None, None)
        return out

    def backward(self, logits: np.ndarray, labels: np.ndarray, param_grads: bool = True) -> tuple:
        """Backprop from the cached forward pass; returns (loss, grads):
        the batch's mean cross-entropy and per-layer grad dicts.

        The loss and the output gradient come from one
        cross_entropy_and_grad, so one softmax serves both.  Parameter
        gradients are gradients of the batch-mean loss.  The tapes
        additionally keep per-sample unscaled capture tensors.  The first
        parameterized layer and every layer below it skip their input
        gradients, which nothing reads.  With param_grads=False no layer
        computes its parameter gradients and every dict is empty; the
        capture tensors are bitwise the same.  The factor pass
        backpropagates this way, since the Kronecker factors read only
        the captures.
        """
        if self._tapes is None:
            raise StateError("backward needs a preceding forward with capture=True")
        if logits is not self._logits:
            raise StateError("backward called with logits from a different forward pass")
        loss, delta = cross_entropy_and_grad(logits, labels)
        layers = self.layers
        first = next((i for i, l in enumerate(layers) if l.kind in PARAM_KINDS), len(layers))
        for i in reversed(range(len(layers))):
            delta = layers[i].backward(
                delta, self._tapes[i], input_grad=i > first, param_grads=param_grads
            )
        return loss, [t.get("grads", {}) for t in self._tapes]

    def captures(self) -> dict:
        """Per-layer capture tensors from the last forward/backward pair."""
        if self._tapes is None:
            raise StateError("no captured forward pass")
        out = {}
        for i, (layer, tape) in enumerate(zip(self.layers, self._tapes)):
            if layer.kind not in PARAM_KINDS:
                continue
            if "g" not in tape:
                raise StateError("captures requested before backward")
            out[i] = tape
        return out


def kaiming_uniform(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def build_mlp(in_dim: int, hidden, classes: int, seed: int) -> Network:
    """Dense stack with ReLU between layers; final layer emits logits."""
    rng = np.random.default_rng(seed)
    dims = [in_dim] + list(hidden) + [classes]
    layers = []
    for i in range(len(dims) - 1):
        w = kaiming_uniform(rng, dims[i], (dims[i], dims[i + 1]))
        layers.append(DenseLayer(w))
        if i < len(dims) - 2:
            layers.append(ReluLayer())
    return Network(layers)


def build_cnn(in_shape, channels, classes: int, seed: int) -> Network:
    """Conv/ReLU stack, flatten, then a dense classifier head.  Every conv
    is 3x3 with stride 2 and padding 1."""
    k = 3
    rng = np.random.default_rng(seed)
    c, h, w = in_shape
    layers = []
    cur = (c, h, w)
    for c_out in channels:
        fan_in = cur[0] * k * k
        weight = kaiming_uniform(rng, fan_in, (fan_in, c_out))
        conv = ConvLayer(weight, None, c_in=cur[0], k=k, stride=2, padding=1)
        layers.append(conv)
        layers.append(ReluLayer())
        cur = conv.out_shape(cur)
    layers.append(FlattenLayer())
    flat = cur[0] * cur[1] * cur[2]
    layers.append(DenseLayer(kaiming_uniform(rng, flat, (flat, classes))))
    return Network(layers)
