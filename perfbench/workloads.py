"""Workload definitions and the output checks that count into error_rate.

A workload is one closed loop: a single process runs its command lines
back to back, each line in its own output directory, and starts the next
command only when the previous one has returned.  The workload seed is
the run seed of every command, so it fixes the generated data, the
initial weights and the batch order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

README_DEMO = dict(
    arch="cnn:8,16", image="1x8x8", dataset="blobs", classes=4,
    n_train=256, n_test=128, sigma=1.0, epochs=10, lr=0.1,
    strategy="eigendamage", ratio=0.5,
)


@dataclass(frozen=True)
class Line:
    """A command sequence sharing one output directory."""

    name: str
    commands: tuple
    overrides: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    lines: tuple
    # (line, command index, record key, expected value) checked at seed 0
    # on full-size inputs only.
    expected: tuple = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="readme-demo",
            why="the README demo config: tiny tensors, so per-call dispatch dominates; "
            "the only workload that runs iterate, and its figures are the output check",
            config=README_DEMO,
            lines=(
                Line("oneshot", ("train", "prune", "finetune", "eval", "decompose", "finetune")),
                Line("iterate", ("train", "iterate"), {"iterations": 3, "cap": 0.5}),
            ),
            expected=(
                ("oneshot", 0, "params", 1508),
                ("oneshot", 1, "params", 804),
                ("oneshot", 2, "params", 804),
                ("oneshot", 2, "test_accuracy", 0.9921875),
                ("oneshot", 5, "params", 500),
                ("oneshot", 5, "test_accuracy", 0.984375),
                ("iterate", 0, "params", 1508),
                ("iterate", 1, "round_params", [961, 515, 386]),
                ("iterate", 1, "test_accuracy", 0.9921875),
            ),
        ),
        Workload(
            name="conv-eigendamage",
            why="MNIST-shaped conv net pruned by eigendamage: conv kernels "
            "(im2col, col2im, conv and bottleneck passes) take most of the time",
            config=dict(
                arch="cnn:16,32", image="1x28x28", dataset="blobs", classes=10,
                n_train=2048, n_test=512, sigma=6.0, epochs=3, lr=0.1,
                strategy="eigendamage", ratio=0.5,
            ),
            lines=(Line("oneshot", ("train", "prune", "finetune", "eval", "decompose")),),
        ),
        Workload(
            name="dense-obs",
            why="MLP with weight-level OBS: no conv, and prune's per-weight "
            "compensation, scoring and selection dominate",
            config=dict(
                arch="mlp:128,64", image="1x16x16", dataset="blobs", classes=10,
                n_train=4096, n_test=512, sigma=5.0, epochs=4, lr=0.1,
                strategy="obs", ratio=0.5,
            ),
            lines=(Line("oneshot", ("train", "prune", "finetune", "eval")),),
        ),
    )
}

RECORD_FIELDS = ("train_loss", "train_accuracy", "test_loss", "test_accuracy")


def _value(record, key):
    if key == "round_params":
        return [r["params"] for r in record["rounds"]]
    return record[key]


def check_line(commands, records, expected=()):
    """Output checks for one line.  Returns {command index: [problems]}.

    Every seed: losses are finite, eval reproduces the previous record
    from the saved checkpoint, and params never increase along the line
    (nor across iterate rounds).  `expected` holds (index, key, value)
    figures that must match exactly.
    """
    problems = {}

    def fail(i, text):
        problems.setdefault(i, []).append(text)

    prev_params = None
    for i, (command, record) in enumerate(zip(commands, records)):
        for key in ("train_loss", "test_loss"):
            if not math.isfinite(record[key]):
                fail(i, f"{command}: {key} is not finite")
        params = [r["params"] for r in record.get("rounds", [])] + [record["params"]]
        for p in params:
            if prev_params is not None and p > prev_params:
                fail(i, f"{command}: params rose from {prev_params} to {p}")
            prev_params = p
        if command == "eval" and i > 0:
            before = records[i - 1]
            for key in RECORD_FIELDS:
                if record[key] != before[key]:
                    fail(i, f"eval {key} {record[key]!r} != previous {before[key]!r}")
    for i, key, want in expected:
        got = _value(records[i], key)
        if got != want:
            fail(i, f"{commands[i]}: {key} is {got!r}, README says {want!r}")
    return problems
