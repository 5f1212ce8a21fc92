"""Parameter and compute accounting for whole networks."""

from __future__ import annotations

from .errors import ValidationError
from .network import Network


def count_params(net: Network) -> int:
    return sum(layer.param_count() for layer in net.layers)


def count_flops(net: Network, in_shape) -> int:
    """Forward multiply-add count for one sample, two ops per multiply-add."""
    return flops_and_out_shape(net, in_shape)[0]


def flops_and_out_shape(net: Network, in_shape) -> tuple:
    """(count_flops, output sample shape) from one walk of in_shape through
    every layer's out_shape; raises DimensionError where a layer cannot
    take the shape it is handed."""
    total = 0
    cur = tuple(in_shape)
    for layer in net.layers:
        total += layer.flops(cur)
        cur = tuple(layer.out_shape(cur))
    return total, cur


def reduction_percent(before: float, after: float) -> float:
    if before <= 0:
        raise ValidationError("baseline count must be positive")
    return 100.0 * (1.0 - after / before)

