"""Benchmark passes, metrics, fingerprints and the traced run.

A pass runs every line of a workload once by calling the `pipeline.cmd_*`
functions in-process, times each command from outside, and checks the
records the commands return.  Untraced runs repeat passes for the run
length and report medians of times scaled to reference speed (see
speed.Speedometer); traced runs alternate an untraced and a traced pass so the
per-layer figures and the tracing overhead come from the same process.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from time import perf_counter

from kfeprune import criteria, kfac, layers, network, pipeline, reparam, training
from kfeprune.config import RunConfig

import spans
from speed import REFERENCE_S, Speedometer
from workloads import check_line

HERE = os.path.dirname(os.path.abspath(__file__))
PROBE = os.path.join(HERE, "probe.py")
SETUP_PROBES = 7
SCORE_RTOL = 1e-10

COMMAND_METRICS = ("train", "prune", "finetune", "eval", "decompose", "iterate")

# Metrics BENCHMARK.json bounds, present on every workload: (name, unit).
END_TO_END = (
    ("pipeline_s", "s"), ("setup_s", "s"),
    ("train_s", "s"), ("prune_s", "s"), ("finetune_s", "s"), ("eval_s", "s"),
    ("peak_rss_mb", "MB"), ("final_params", "count"), ("eval_test_accuracy", "fraction"),
)
# Reported next to them but not gated: absent on some workloads, or
# steady only per seed, not across seeds.
REPORTED = (
    ("decompose_s", "s"), ("iterate_s", "s"), ("final_test_accuracy", "fraction"),
    ("prune_loss_increase", "nats"), ("error_rate", "fraction"), ("raw_pipeline_s", "s"),
)
# Reported after a traced run, not gated.
TRACE_REPORTED = (("traced_wall_s", "s"), ("trace.coverage", "fraction"))


def per_layer_names():
    names = []
    for span in spans.SPANS:
        names += [(f"{span}.calls", "count"), (f"{span}.self_s", "s")]
    return names + list(spans.COUNTERS) + [("trace.unattributed_s", "s"), ("trace.overhead_s", "s")]


def fingerprint(tables, mask):
    scores = sorted(
        [e.layer_id, e.unit_kind, e.unit_id, e.delta_l] for t in tables for e in t.entries
    )
    removed = {
        f"{lid}:{kind}": list(group["removed"]) for (lid, kind), group in sorted(mask.groups.items())
    }
    return {"removed": removed, "scores": scores}


class Pass:
    """Outcome of one pass over a workload."""

    def __init__(self):
        self.times = defaultdict(float)  # at reference speed
        self.raw_times = defaultdict(float)  # wall clock
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.records = []  # (line, index in line, command, record, fingerprints)
        self.complete = False

    @property
    def pipeline_s(self):
        return sum(self.times.values())

    @property
    def raw_pipeline_s(self):
        return sum(self.raw_times.values())

    def signatures(self):
        """Per-command record and fingerprints, without wall time: what must
        repeat exactly when the same seed runs again."""
        out = []
        for line, index, command, record, prunes in self.records:
            kept = {k: v for k, v in record.items() if k != "wall_time_s"}
            kept["rounds"] = [
                {k: v for k, v in r.items() if k != "wall_time_s"} for r in record.get("rounds", [])
            ]
            out.append((line, index, command, kept, prunes))
        return out


def run_pass(workload, seed, workdir, sizes, expected, prunes, speed=None):
    """One pass; command times are scaled by `speed` when given, else wall.
    `prunes` receives what each `pipeline.prune_once` call returns."""
    result = Pass()
    for line in workload.lines:
        cfg = RunConfig(
            **{**workload.config, **sizes, **line.overrides},
            seed=seed,
            out=os.path.join(workdir, line.name),
        )
        records = []
        for command in line.commands:
            result.attempted += 1
            prunes.clear()
            run_command = getattr(pipeline, f"cmd_{command}")
            try:
                if speed is None:
                    t0 = perf_counter()
                    record = run_command(cfg)
                    wall = scaled = perf_counter() - t0
                else:
                    record, wall, scaled = speed.time(run_command, cfg)
            except Exception as err:  # a raising command is a failed operation
                result.failed += 1
                result.problems.append(f"{line.name}/{command}: {type(err).__name__}: {err}")
                return result
            result.raw_times[command] += wall
            result.times[command] += scaled
            fingerprints = [fingerprint(tables, mask) for tables, mask, _ in prunes]
            result.records.append((line.name, len(records), command, record, fingerprints))
            records.append(record)
        line_expected = [(i, key, want) for name, i, key, want in expected if name == line.name]
        problems = check_line(line.commands, records, line_expected)
        result.failed += len(problems)
        for texts in problems.values():
            result.problems += [f"{line.name}/{text}" for text in texts]
    result.complete = True
    return result


def check_repeats(first, later):
    """Count commands whose record or prune decisions differ from the first
    pass; the same seed must give the same outputs every pass."""
    failed, problems = 0, []
    for a, b in zip(first.signatures(), later.signatures()):
        if a != b:
            failed += 1
            problems.append(f"{b[0]}/{b[2]}: output differs from the first pass")
    return failed, problems


def measure_setup(workload, seed, workdir, sizes, root, count=SETUP_PROBES):
    """Median, over fresh interpreters, of what one CLI command pays before
    its first forward pass: import kfeprune, build both splits, load the
    checkpoint.  Each probe scales its time to reference speed itself."""
    cfg = RunConfig(**{**workload.config, **sizes}, seed=seed, out=workdir)
    ckpt = os.path.join(workdir, "probe.kfep")
    os.makedirs(workdir, exist_ok=True)
    pipeline.save_network(ckpt, pipeline.build_network(cfg, cfg.classes))
    cfg_json = json.dumps({k: v for k, v in vars(cfg).items() if k != "out"})
    values = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, PROBE, os.path.join(root, "src"), cfg_json, ckpt],
            capture_output=True, text=True, timeout=120, check=True, cwd=root,
        )
        values.append(float(proc.stdout.split()[-1]))
    return statistics.median(values)


def _command_medians(passes):
    out = {}
    for command in COMMAND_METRICS:
        if command in passes[0].times:
            out[f"{command}_s"] = statistics.median(p.times[command] for p in passes)
    return out


def _quality(workload, first):
    """Figures read from the records of the first complete pass.  final_*
    come from the last record of the workload's first line: on readme-demo
    that is the one-shot line, not iterate."""
    records = [(c, r) for _, _, c, r, _ in first.records]
    increase = 0.0
    for command, record in records:
        if command == "prune":
            increase += record["train_loss_post"] - record["train_loss_pre"]
        for rnd in record.get("rounds", []):
            increase += rnd["train_loss_post_prune"] - rnd["train_loss_pre"]
    first_line = workload.lines[0].name
    last = [r for line, _, _, r, _ in first.records if line == first_line][-1]
    evals = [r for c, r in records if c == "eval"]
    return {
        "final_params": last["params"],
        "final_test_accuracy": last["test_accuracy"],
        "eval_test_accuracy": evals[-1]["test_accuracy"],
        "prune_loss_increase": increase,
    }


class Run:
    """Accumulates passes, failures and problems for one benchmark run.
    Use as a context manager: while it is open, `pipeline.prune_once` is
    wrapped so each prune's removed sets and scores can be fingerprinted
    after the command is timed."""

    def __init__(self, workload, seed, workdir, sizes, expected, speed=None):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.sizes, self.expected, self.speed = sizes, expected, speed
        self.prunes = []
        self._capture = spans.Tracer()
        self._capture.patch(pipeline, "prune_once", "capture",
                            lambda _tracer, _args, result: self.prunes.append(result))
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first = None

    def one_pass(self):
        p = run_pass(self.workload, self.seed, self.workdir, self.sizes, self.expected,
                     self.prunes, self.speed)
        self.attempted += p.attempted
        self.failed += p.failed
        self.problems += p.problems
        if p.complete:
            if self.first is None:
                self.first = p
            else:
                failed, problems = check_repeats(self.first, p)
                self.failed += failed
                self.problems += problems
                p.records = None
        return p

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._capture.restore()

    def summary(self):
        return {"attempted": self.attempted, "failed": self.failed, "problems": self.problems[:20]}


def _keep_going(started, seconds, durations):
    """Start another pass only if a typical pass still fits in the run."""
    elapsed = perf_counter() - started
    return elapsed + statistics.median(durations) <= seconds


def measure(workload, seed, seconds, workdir, root, sizes=None, expected=()):
    """Untraced run: end-to-end metrics from repeated passes."""
    sizes = sizes or {}
    setup_s = measure_setup(workload, seed, workdir, sizes, root)
    passes, durations = [], []
    with Run(workload, seed, workdir, sizes, expected, Speedometer()) as run:
        started = perf_counter()
        while True:
            t0 = perf_counter()
            p = run.one_pass()
            durations.append(perf_counter() - t0)
            if not p.complete:
                break
            if not passes:
                # A fresh process that has run one pass; later passes only
                # add allocator fragmentation.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            passes.append(p)
            if not _keep_going(started, seconds, durations):
                break
    if not passes:
        return None, run
    metrics = {
        "pipeline_s": statistics.median(p.pipeline_s for p in passes),
        "setup_s": setup_s,
        **_command_medians(passes),
        "peak_rss_mb": peak_rss_mb,
        **_quality(workload, run.first),
        "error_rate": run.failed / run.attempted,
    }
    metrics["passes"] = len(passes)
    metrics["pass_times"] = [dict(p.times) for p in passes]
    metrics["pass_raw_times"] = [dict(p.raw_times) for p in passes]
    metrics["raw_pipeline_s"] = statistics.median(p.raw_pipeline_s for p in passes)
    return metrics, run


def traced(workload, seed, seconds, workdir, sizes=None, expected=()):
    """Traced run: per-layer metrics, averaged per traced pass, in wall
    seconds.  Untraced and traced passes alternate in one process.
    trace.overhead_s is the median over pairs of traced minus untraced pass
    time, each pass scaled to reference speed by kernel samples taken right
    before and right after it: never during, so no sampling time falls
    inside a span."""
    sizes = sizes or {}
    speed = Speedometer()
    tracer = spans.Tracer()
    modules = dict(
        layers=layers, network=network, training=training, kfac=kfac,
        criteria=criteria, reparam=reparam, pipeline=pipeline,
    )

    def at_reference(p, sample_before, sample_after):
        return p.raw_pipeline_s * REFERENCE_S / statistics.mean((sample_before, sample_after))

    overheads, with_trace, attributed = [], [], []
    with Run(workload, seed, workdir, sizes, expected) as run:
        started = perf_counter()
        while True:
            t0 = perf_counter()
            sample_before = speed.sample()
            p = run.one_pass()
            if not p.complete:
                break
            sample_between = speed.sample()
            plain = at_reference(p, sample_before, sample_between)
            spans.instrument(tracer, modules)
            try:
                before = sum(tracer.self_s.values())
                p = run.one_pass()
            finally:
                tracer.restore()
            if not p.complete:
                break
            sample_after = speed.sample()
            with_trace.append(p.raw_pipeline_s)
            attributed.append(sum(tracer.self_s.values()) - before)
            overheads.append(at_reference(p, sample_between, sample_after) - plain)
            if not _keep_going(started, seconds, [perf_counter() - t0]):
                break
    if not with_trace:
        return None, run
    n = len(with_trace)
    metrics = {}
    for span in spans.SPANS:
        metrics[f"{span}.calls"] = tracer.calls.get(span, 0) / n
        metrics[f"{span}.self_s"] = tracer.self_s.get(span, 0.0) / n
    for name, _ in spans.COUNTERS:
        metrics[name] = tracer.counts.get(name, 0.0) / n
    metrics["trace.unattributed_s"] = statistics.mean(w - a for w, a in zip(with_trace, attributed))
    metrics["trace.overhead_s"] = statistics.median(overheads)
    metrics["traced_wall_s"] = statistics.mean(with_trace)
    metrics["trace.coverage"] = 1.0 - metrics["trace.unattributed_s"] / metrics["traced_wall_s"]
    metrics["passes"] = n
    metrics["overhead_pairs_s"] = overheads
    return metrics, run


def write_fingerprint(path, workload, seed, first):
    """Removed units and scores of every prune in the first pass."""
    prunes = [
        {"line": line, "index": index, "command": command, "call": call, **fp}
        for line, index, command, _, fps in first.records
        for call, fp in enumerate(fps)
    ]
    with open(path, "w", encoding="ascii") as fh:
        json.dump({"workload": workload.name, "seed": seed, "prunes": prunes}, fh)


def compare_fingerprints(path_a, path_b):
    """Problems found between two fingerprint files: removed sets must be
    identical and scores equal within SCORE_RTOL relative."""
    with open(path_a, encoding="ascii") as fh:
        a = json.load(fh)
    with open(path_b, encoding="ascii") as fh:
        b = json.load(fh)
    problems = []
    for key in ("workload", "seed"):
        if a[key] != b[key]:
            problems.append(f"{key} differs: {a[key]!r} vs {b[key]!r}")
    if len(a["prunes"]) != len(b["prunes"]):
        problems.append(f"{len(a['prunes'])} prunes vs {len(b['prunes'])}")
    for pa, pb in zip(a["prunes"], b["prunes"]):
        where = f"{pa['line']}/{pa['index']}:{pa['command']} prune {pa['call']}"
        if pa["removed"] != pb["removed"]:
            problems.append(f"{where}: removed sets differ")
        units_a = [s[:3] for s in pa["scores"]]
        units_b = [s[:3] for s in pb["scores"]]
        if units_a != units_b:
            problems.append(f"{where}: scored units differ")
            continue
        worst = 0.0
        for sa, sb in zip(pa["scores"], pb["scores"]):
            x, y = sa[3], sb[3]
            scale = max(abs(x), abs(y))
            if scale > 0.0:
                worst = max(worst, abs(x - y) / scale)
        if worst > SCORE_RTOL:
            problems.append(f"{where}: scores differ by {worst:.3g} relative")
    return problems
