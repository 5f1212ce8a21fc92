"""Self-test of the benchmark at reduced sizes.

    python3 perfbench/selftest.py

Checks that every end-to-end and per-layer metric is emitted, with its
unit, on each workload it applies to; that a wrong expected README
figure makes the error rate nonzero; that a command that raises still
ends the output with the JSON result, marked incorrect; that tracing leaves the package as
it found it; and that the fingerprint comparison accepts identical
decisions and rejects changed ones.  Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import sys

import run

run.prepare()

import bench  # noqa: E402
from kfeprune import layers, pipeline  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMALL = {
    "readme-demo": {"n_train": 64, "n_test": 32, "epochs": 2, "finetune_epochs": 1},
    "conv-eigendamage": {"n_train": 64, "n_test": 32, "epochs": 1, "finetune_epochs": 1,
                         "image": "1x12x12"},
    "dense-obs": {"n_train": 128, "n_test": 64, "epochs": 1, "finetune_epochs": 1,
                  "arch": "mlp:16,8"},
}


def benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        return json.load(fh)


def check_declared(failures):
    spec = benchmark_json()
    declared = {(m["name"], m["unit"]) for m in spec["end_to_end"]}
    if declared != set(bench.END_TO_END):
        failures.append(f"BENCHMARK.json end_to_end {sorted(declared)} != {bench.END_TO_END}")
    declared = {(m["name"], m["unit"]) for m in spec["per_layer"]}
    if declared != set(bench.per_layer_names()):
        failures.append("BENCHMARK.json per_layer differs from the traced metric names")
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")


def check_metrics(name, metrics, units, failures):
    if metrics is None:
        failures.append(f"{name}: no complete pass")
        return
    for metric, _unit in units:
        value = metrics.get(metric)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            failures.append(f"{name}: {metric} missing or not finite ({value!r})")


def check_workload(workload, workdir, failures):
    sizes = SMALL[workload.name]
    metrics, result = bench.measure(workload, 1, 0, workdir, run.ROOT, sizes=sizes)
    commands = {c for line in workload.lines for c in line.commands}
    skipped = {f"{c}_s" for c in ("decompose", "iterate") if c not in commands}
    applicable = [(n, u) for n, u in bench.REPORTED if n not in skipped]
    check_metrics(workload.name, metrics, bench.END_TO_END + tuple(applicable), failures)
    for name in skipped:
        if metrics and name in metrics:
            failures.append(f"{workload.name}: {name} reported but the workload never runs it")
    if metrics and any(metrics[n] <= 0 for n, _ in bench.END_TO_END):
        failures.append(f"{workload.name}: an end-to-end metric is not positive")
    if result.failed:
        failures.append(f"{workload.name}: {result.failed} failed: {result.problems}")

    original = (layers.ConvLayer.forward, layers.im2col, pipeline.train, pipeline.prune_once)
    metrics, result = bench.traced(workload, 1, 0, workdir, sizes=sizes)
    check_metrics(f"{workload.name} traced", metrics, bench.per_layer_names(), failures)
    if (layers.ConvLayer.forward, layers.im2col, pipeline.train, pipeline.prune_once) != original:
        failures.append(f"{workload.name}: tracing left wrappers installed")
    if result.failed:
        failures.append(f"{workload.name} traced: {result.failed} failed: {result.problems}")


def check_expected_figures(workdir, failures):
    workload = WORKLOADS["readme-demo"]
    metrics, result = bench.measure(workload, 0, 0, workdir, run.ROOT, expected=workload.expected)
    if result.failed or metrics["error_rate"] != 0:
        failures.append(f"README figures not reproduced: {result.problems}")
    wrong = [list(e) for e in workload.expected]
    wrong[1][3] += 1
    metrics, result = bench.measure(workload, 0, 0, workdir, run.ROOT, expected=wrong)
    if result.failed == 0 or metrics["error_rate"] <= 0:
        failures.append("a wrong expected figure left error_rate at 0")
    return result


def check_raising_command(failures):
    def broken(_cfg):
        raise RuntimeError("injected failure")

    original = pipeline.cmd_prune
    pipeline.cmd_prune = broken
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "dense-obs", "--seed", "1", "--seconds", "0"])
    finally:
        pipeline.cmd_prune = original
    lines = out.getvalue().strip().splitlines()
    if not lines:
        failures.append("a raising command printed no JSON result")
        return
    result = json.loads(lines[-1])
    if code == 0 or result["correct"] or result["failed"] < 1 or result["attempted"] < 2:
        failures.append(f"a raising command gave exit {code} and {result}")


def check_compare(result, workdir, failures):
    path_a = os.path.join(workdir, "a.json")
    path_b = os.path.join(workdir, "b.json")
    workload = WORKLOADS["readme-demo"]
    bench.write_fingerprint(path_a, workload, 0, result.first)
    bench.write_fingerprint(path_b, workload, 0, result.first)
    if bench.compare_fingerprints(path_a, path_b):
        failures.append("identical fingerprints compared unequal")
    for change in ("score", "removed"):
        with open(path_a, encoding="ascii") as fh:
            changed = json.load(fh)
        prune = changed["prunes"][0]
        if change == "score":
            prune["scores"][0][3] *= 1 + 1e-8
        else:
            key = next(iter(prune["removed"]))
            prune["removed"][key] = prune["removed"][key][1:]
        with open(path_b, "w", encoding="ascii") as fh:
            json.dump(changed, fh)
        if not bench.compare_fingerprints(path_a, path_b):
            failures.append(f"a changed {change} compared equal")


def main() -> int:
    failures = []
    workdir = os.path.join(run.OUT, f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        check_declared(failures)
        for workload in WORKLOADS.values():
            check_workload(workload, workdir, failures)
        result = check_expected_figures(workdir, failures)
        check_compare(result, workdir, failures)
        check_raising_command(failures)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for text in failures:
        print(f"FAIL {text}")
    print("selftest passed" if not failures else f"selftest: {len(failures)} failures")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
