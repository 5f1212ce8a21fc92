"""Run the benchmark in alternated parent/change pairs and apply the claim rule.

    python3 scripts/pairs.py --parent DIR --change DIR --workload W [--seed 0] [--pairs 10] [--seconds 40]

Each DIR is a checkout holding `perfbench/run.py`.  Pair i runs
`perfbench/run.py --workload W --seed S --seconds T --trace 0` once in
each tree, with that tree as the working directory and this process's
environment; the parent runs first in odd pairs, the change in even ones.
A run's result is the JSON object on the last line of its standard
output.  Every run is printed as it ends: side, pair, each end-to-end
metric and failed/attempted.  Then, for each end-to-end metric of
`BENCHMARK.json` (names and `better` directions; the file is only read),
the summary gives each side's median [q1, q3], the change's wins out of
the pairs (ties count for neither side), and whether the claim rule
holds: the change wins at least nine tenths of the pairs, and its median
is better than the parent's by more than the parent's q3 - q1.  Exits 1
as soon as a run gives no result, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def end_to_end_metrics() -> list:
    """(name, unit, better) of every end-to-end metric of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]


def quartiles(values) -> tuple:
    """(q1, median, q3), linear interpolation between order statistics."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(parent, change, better: str) -> dict:
    """The claim rule on per-pair values of one metric: parent[i] and
    change[i] come from pair i; better is "lower" or "higher"."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    p_q, c_q = quartiles(parent), quartiles(change)
    gap = sign * (p_q[1] - c_q[1]) + 0.0  # no -0
    iqr = p_q[2] - p_q[0]
    return {
        "parent": p_q,
        "change": c_q,
        "wins": wins,
        "pairs": len(parent),
        "gap": gap,
        "parent_iqr": iqr,
        "holds": 10 * wins >= 9 * len(parent) and gap > iqr,
    }


def run_once(tree: str, args) -> dict | None:
    """One untraced benchmark run in tree; its last-line JSON object, or
    None when it gives no figures."""
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        cwd=tree,
        capture_output=True,
        text=True,
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict) or not result.get("metrics"):
        sys.stderr.write(done.stderr)
        return None
    return result


def _quartet(q) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", required=True, help="the tree the change is compared against")
    parser.add_argument("--change", required=True, help="the tree under test")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0)
    args = parser.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for side, tree in trees.items():
        if not os.path.isfile(os.path.join(tree, "perfbench", "run.py")):
            parser.error(f"no perfbench/run.py under the {side} tree {tree}")
    metrics = end_to_end_metrics()
    values = {side: {name: [] for name, _, _ in metrics} for side in trees}
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            result = run_once(trees[side], args)
            if result is None:
                print(f"error: the {side} run of pair {pair} gave no result")
                return 1
            row = []
            for name, _, _ in metrics:
                value = result["metrics"][name]["value"]
                values[side][name].append(value)
                row.append(f"{name}={value:.6g}")
            row.append(f"failed/attempted={result['failed']}/{result['attempted']}")
            print(f"{side} pair {pair}: " + " ".join(row), flush=True)
    print(f"median [q1, q3], parent -> change; {args.workload} seed {args.seed}, "
          f"{args.pairs} pairs of {args.seconds:g} s runs")
    for name, unit, better in metrics:
        s = summarize(values["parent"][name], values["change"][name], better)
        print(f"{name} ({unit}, {better} is better): {_quartet(s['parent'])} -> "
              f"{_quartet(s['change'])}; change wins {s['wins']}/{s['pairs']}; "
              f"gap {s['gap']:.6g} vs parent IQR {s['parent_iqr']:.6g}; "
              f"claim {'holds' if s['holds'] else 'does not hold'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
