"""Check that two source trees write byte-identical artifacts.

    python3 scripts/parity.py --parent DIR --change DIR [--workload W ...] [--seeds 0 7]

Each DIR is a checkout holding `src/kfeprune`.  For every workload in
`perfbench/workloads.py` (all three unless --workload names some) and
every seed, each tree runs the workload's command lines through
`pipeline.cmd_*` in its own subprocess, with one BLAS thread, and keeps a
copy of the line's output directory after every command.  The two trees'
copies are then compared file by file: `metrics.json` with every
`wall_time_s` removed, every other file byte for byte.  Each file that
differs, or exists on one side only, is printed.  Exits 0 when nothing
differs and 1 otherwise.  --work DIR keeps the copies there; by default
they go to a temporary directory that is removed afterwards.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_workloads() -> dict:
    """The benchmark's workloads, imported without writing bytecode there."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from workloads import WORKLOADS

    return WORKLOADS


def run_tree(src: str, workload, seed: int, work: str) -> None:
    """Run every line of the workload at seed with the package under src,
    in a subprocess; the copy after command i of a line goes to
    work/<line>/<i>-<command>/."""
    spec = {
        "src": src,
        "seed": seed,
        "work": work,
        "config": workload.config,
        "lines": [[line.name, list(line.commands), line.overrides] for line in workload.lines],
    }
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker", json.dumps(spec)],
        env=env,
        check=True,
    )


def worker(spec: dict) -> None:
    """Subprocess side of run_tree.  A command that raises leaves error.txt
    with its exception in place of its copy and ends the line."""
    from kfeprune import pipeline
    from kfeprune.config import RunConfig

    where = os.path.dirname(os.path.dirname(os.path.abspath(pipeline.__file__)))
    if os.path.realpath(where) != os.path.realpath(spec["src"]):
        raise SystemExit(f"error: kfeprune imported from {where}, not {spec['src']}")
    runs = os.path.join(spec["work"], "runs")
    for name, commands, overrides in spec["lines"]:
        out = os.path.join(runs, name)
        cfg = RunConfig(**{**spec["config"], **overrides}, seed=spec["seed"], out=out)
        for i, command in enumerate(commands):
            keep = os.path.join(spec["work"], name, f"{i}-{command}")
            try:
                getattr(pipeline, f"cmd_{command}")(cfg)
            except Exception as err:
                os.makedirs(keep)
                with open(os.path.join(keep, "error.txt"), "w", encoding="utf-8") as fh:
                    fh.write(f"{type(err).__name__}: {err}\n")
                break
            shutil.copytree(out, keep)
    shutil.rmtree(runs, ignore_errors=True)


def _sans_wall_time(obj):
    if isinstance(obj, dict):
        return {k: _sans_wall_time(v) for k, v in obj.items() if k != "wall_time_s"}
    if isinstance(obj, list):
        return [_sans_wall_time(v) for v in obj]
    return obj


def _same(path_a: str, path_b: str) -> bool:
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        a, b = fa.read(), fb.read()
    if os.path.basename(path_a) == "metrics.json" and a != b:
        a, b = (json.dumps(_sans_wall_time(json.loads(x)), sort_keys=True) for x in (a, b))
    return a == b


def _files(top: str) -> set:
    return {
        os.path.relpath(os.path.join(d, f), top) for d, _, names in os.walk(top) for f in names
    }


def compare_trees(a: str, b: str) -> tuple:
    """(files compared, sorted relative paths that differ or exist on one
    side only) for two directories."""
    files_a, files_b = _files(a), _files(b)
    differ = files_a ^ files_b
    differ |= {f for f in files_a & files_b if not _same(os.path.join(a, f), os.path.join(b, f))}
    return len(files_a | files_b), sorted(differ)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", help="the tree the change is compared against")
    parser.add_argument("--change", help="the tree under test")
    parser.add_argument("--workload", action="append", help="a workload name; repeatable")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 7])
    parser.add_argument("--work", help="keep the per-command copies under this directory")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(json.loads(args.worker))
        return 0
    if not args.parent or not args.change:
        parser.error("--parent and --change are required")
    workloads = load_workloads()
    names = args.workload or list(workloads)
    unknown = [n for n in names if n not in workloads]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; known: {', '.join(workloads)}")
    srcs = {}
    for side, tree in (("parent", args.parent), ("change", args.change)):
        srcs[side] = os.path.join(os.path.abspath(tree), "src")
        if not os.path.isfile(os.path.join(srcs[side], "kfeprune", "__init__.py")):
            parser.error(f"no kfeprune package under {srcs[side]}")
    work = args.work or tempfile.mkdtemp(prefix="parity-")
    total, differ = 0, []
    try:
        for name in names:
            for seed in args.seeds:
                case = os.path.join(work, name, f"seed{seed}")
                for side, src in srcs.items():
                    run_tree(src, workloads[name], seed, os.path.join(case, side))
                count, bad = compare_trees(*(os.path.join(case, side) for side in srcs))
                total += count
                differ += [f"{name}/seed{seed}/{path}" for path in bad]
                print(f"{name} seed {seed}: {count} files, {len(bad)} differ", flush=True)
    finally:
        if not args.work:
            shutil.rmtree(work, ignore_errors=True)
    for path in differ:
        print(f"differs: {path}")
    print(f"{total} files compared, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
