"""Feed-forward network container with capture-aware forward/backward."""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, StateError, ValidationError
from .layers import ConvLayer, DenseLayer, FlattenLayer, ReluLayer

PARAM_KINDS = ("dense", "conv", "bottleneck_dense", "bottleneck_conv")


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean softmax cross-entropy over the batch."""
    if logits.ndim != 2:
        raise DimensionError("logits must be (B, classes)")
    if labels.shape != (logits.shape[0],):
        raise DimensionError("labels must be (B,)")
    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    picked = z[np.arange(z.shape[0]), labels]
    return float((lse - picked).mean())


def cross_entropy_grad(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-sample, unscaled gradient of the sample loss wrt logits."""
    p = softmax(logits)
    p[np.arange(p.shape[0]), labels] -= 1.0
    return p


class Network:
    """An ordered stack of layers trained with softmax cross-entropy.

    forward() caches per-layer tapes; backward() consumes them and must be
    handed the exact logits array the cache belongs to, otherwise the
    cache is stale and a StateError is raised.
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
        x = np.asarray(x, dtype=np.float64)
        tapes = [{} for _ in self.layers]
        out = x
        for layer, tape in zip(self.layers, tapes):
            out = layer.forward(out, tape)
        self._tapes = tapes
        self._logits = out
        self._capture = capture
        return out

    def backward(self, logits: np.ndarray, labels: np.ndarray) -> list:
        """Backprop from the cached forward pass; returns per-layer grad dicts.

        Parameter gradients are gradients of the batch-mean loss.  The
        tapes additionally keep per-sample unscaled capture tensors.  The
        first layer skips its input gradient, which nothing reads.
        """
        if self._tapes is None or self._logits is None:
            raise StateError("backward called before forward")
        if logits is not self._logits:
            raise StateError("backward called with logits from a different forward pass")
        delta = cross_entropy_grad(logits, labels)
        for i in reversed(range(len(self.layers))):
            delta = self.layers[i].backward(delta, self._tapes[i], input_grad=i > 0)
        return [t.get("grads", {}) for t in self._tapes]

    def captures(self) -> dict:
        """Per-layer capture tensors from the last forward/backward pair."""
        if self._tapes is None:
            raise StateError("no forward pass cached")
        out = {}
        for i, (layer, tape) in enumerate(zip(self.layers, self._tapes)):
            if layer.kind not in PARAM_KINDS:
                continue
            if "g" not in tape:
                raise StateError("captures requested before backward")
            out[i] = tape
        return out

    def loss(self, x: np.ndarray, labels: np.ndarray) -> float:
        return cross_entropy(self.forward(x), labels)

    def out_shapes(self, in_shape) -> list:
        shapes = []
        cur = tuple(in_shape)
        for layer in self.layers:
            cur = tuple(layer.out_shape(cur))
            shapes.append(cur)
        return shapes


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


def build_cnn(
    in_shape,
    channels,
    classes: int,
    seed: int,
    k: int = 3,
    stride: int = 2,
    padding: int = 1,
) -> Network:
    """Conv/ReLU stack, flatten, then a dense classifier head."""
    rng = np.random.default_rng(seed)
    c, h, w = in_shape
    layers = []
    cur = (c, h, w)
    for c_out in channels:
        fan_in = cur[0] * k * k
        weight = kaiming_uniform(rng, fan_in, (fan_in, c_out))
        conv = ConvLayer(weight, None, c_in=cur[0], k=k, stride=stride, padding=padding)
        layers.append(conv)
        layers.append(ReluLayer())
        cur = conv.out_shape(cur)
    layers.append(FlattenLayer())
    flat = cur[0] * cur[1] * cur[2]
    layers.append(DenseLayer(kaiming_uniform(rng, flat, (flat, classes))))
    return Network(layers)
