"""Outside-in span tracing of kfeprune.

The tracer never edits the package's source: it replaces public
functions and methods with timing wrappers for the duration of a traced
pass and puts the originals back afterwards.  Spans nest through a stack of child-time
accumulators, so a span's self time is its duration minus the time spent
in the named spans it called.  Results are aggregated in memory per span
name and read out once the pass ends.
"""

from __future__ import annotations

import functools
import os
from collections import defaultdict
from time import perf_counter

LAYER_CLASSES = (
    ("ConvLayer", "conv"),
    ("BottleneckConvLayer", "bottleneck_conv"),
    ("DenseLayer", "dense"),
    ("BottleneckDenseLayer", "bottleneck_dense"),
    ("ReluLayer", "relu"),
)

PARAM_LAYER_KINDS = ("conv", "bottleneck_conv", "dense", "bottleneck_dense")

SPANS = (
    [f"layers.{kind}.{method}" for _, kind in LAYER_CLASSES for method in ("forward", "backward")]
    + ["layers.im2col", "layers.col2im"]
    + ["network.forward", "network.backward"]
    + ["training.train", "training.sgd_step", "training.evaluate"]
    + ["kfac.estimate_factors", "kfac.accumulate", "kfac.eigenbasis", "kfac.inv_psd", "kfac.damp"]
    + ["criteria.score", "criteria.select_mask"]
    + [f"reparam.{name}" for name in
       ("to_kfe", "merge_bases", "eigenprune", "depthwise_decompose", "absorb_depthwise")]
    + ["checkpoint.save", "checkpoint.load", "checkpoint.snapshot"]
    + ["data.build"]
    + ["pipeline.prune_once", "pipeline.write"]
)

# (name, unit) of the counters recorded at span boundaries.
COUNTERS = (
    [("criteria.units_scored", "count"), ("criteria.units_removed", "count"),
     ("reparam.als_sweeps", "count"), ("checkpoint.bytes_written", "bytes")]
    + [(f"layers.{kind}.mflop", "MFLOP") for kind in PARAM_LAYER_KINDS]
)


class Tracer:
    """Per-name call counts, self times and counters for wrapped callables."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack = []
        self._patches = []

    def wrap(self, name, fn, after=None):
        """Return fn timed under span `name`; `after(tracer, args, result)`
        records counters once the call has returned."""
        stack = self._stack
        calls, self_s = self.calls, self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self_s[name] += dt - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def patch(self, owner, attr, name, after=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _count_mflop(kind):
    key = f"layers.{kind}.mflop"

    def after(tracer, args, _result):
        layer, x = args[0], args[1]
        tracer.counts[key] += layer.flops(x.shape[1:]) * x.shape[0] / 1e6

    return after


def _count_selection(tracer, args, mask):
    tracer.counts["criteria.units_scored"] += sum(len(t.entries) for t in args[0])
    tracer.counts["criteria.units_removed"] += sum(
        len(group["removed"]) for group in mask.groups.values()
    )


def _count_sweeps(tracer, _args, factors):
    tracer.counts["reparam.als_sweeps"] += len(factors.trace) - 1


def _count_bytes(tracer, args, _result):
    tracer.counts["checkpoint.bytes_written"] += os.path.getsize(args[0])


def instrument(tracer: Tracer, kfeprune_modules: dict):
    """Wrap every span source.  `pipeline` imports train, evaluate and the
    checkpoint functions by name, so those are wrapped where pipeline
    resolves them as well as where they are defined."""
    layers = kfeprune_modules["layers"]
    network = kfeprune_modules["network"]
    training = kfeprune_modules["training"]
    kfac = kfeprune_modules["kfac"]
    criteria = kfeprune_modules["criteria"]
    reparam = kfeprune_modules["reparam"]
    pipeline = kfeprune_modules["pipeline"]

    for cls_name, kind in LAYER_CLASSES:
        cls = getattr(layers, cls_name)
        after = _count_mflop(kind) if kind in PARAM_LAYER_KINDS else None
        tracer.patch(cls, "forward", f"layers.{kind}.forward", after)
        tracer.patch(cls, "backward", f"layers.{kind}.backward")
    tracer.patch(layers, "im2col", "layers.im2col")
    tracer.patch(layers, "col2im", "layers.col2im")

    tracer.patch(network.Network, "forward", "network.forward")
    tracer.patch(network.Network, "backward", "network.backward")

    for owner in (training, pipeline):
        tracer.patch(owner, "train", "training.train")
        tracer.patch(owner, "evaluate", "training.evaluate")
    tracer.patch(training, "sgd_step", "training.sgd_step")

    tracer.patch(kfac, "estimate_factors", "kfac.estimate_factors")
    for name in ("accumulate_dense", "accumulate_conv", "accumulate_conv_channel"):
        tracer.patch(kfac, name, "kfac.accumulate")
    for name in ("eigenbasis", "inv_psd", "damp"):
        tracer.patch(kfac, name, f"kfac.{name}")

    for name in sorted(vars(criteria)):
        if name.endswith("_scores") or name.endswith("_scores_and_update"):
            tracer.patch(criteria, name, "criteria.score")
    tracer.patch(criteria, "select_mask", "criteria.select_mask", _count_selection)

    for name in ("to_kfe", "merge_bases", "eigenprune", "absorb_depthwise"):
        tracer.patch(reparam, name, f"reparam.{name}")
    tracer.patch(reparam, "depthwise_decompose", "reparam.depthwise_decompose", _count_sweeps)

    tracer.patch(pipeline, "save_network", "checkpoint.save", _count_bytes)
    tracer.patch(pipeline, "load_network", "checkpoint.load")
    tracer.patch(pipeline, "network_snapshot", "checkpoint.snapshot")
    tracer.patch(pipeline, "build_dataset", "data.build")
    tracer.patch(pipeline, "prune_once", "pipeline.prune_once")
    for name in ("write_metrics", "write_curve", "write_importance"):
        tracer.patch(pipeline, name, "pipeline.write")
