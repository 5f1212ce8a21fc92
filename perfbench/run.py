"""kfeprune benchmark: the CLI command loop, run in-process on a named workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare A.json B.json

Run from the repository root.  The package is imported from `src/` of the
same checkout, with one BLAS thread whatever the environment asks for:
every bound was set at one thread.  With `--trace 0` the run repeats the
workload's command sequence for S seconds and reports end-to-end medians;
command times are scaled to a reference speed measured while they run
(see `speed.Speedometer`), and the plain wall time is shown as
raw_pipeline_s.  With `--trace 1` it alternates untraced and traced
passes and reports per-layer spans and counters in wall seconds, and the
tracing overhead at reference speed.  To run every workload:

    for w in readme-demo conv-eigendamage dense-obs; do
        python3 perfbench/run.py --workload $w --seed 0 --seconds 40 --trace 0
    done

The human-readable report comes first; the last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.  `failed / attempted` is the error rate: commands that
raised or failed an output check, over commands attempted.

Each run writes, under `perfbench/out/`, a result file with the
environment and every figure, and a fingerprint file with the removed
units and importance scores of every prune.  `--compare` checks two
fingerprint files agree: identical removed sets and scores within 1e-10
relative.  It exits 0 when they agree and 1 otherwise.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads():
    """One BLAS thread, the setting every bound was measured at.  Must run
    before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def prepare():
    """Point imports at this checkout's `src/`; fail when it is missing."""
    if not os.path.isfile(os.path.join(SRC, "kfeprune", "__init__.py")):
        raise SystemExit(f"error: no kfeprune package under {SRC}")
    pin_blas_threads()
    sys.path.insert(0, SRC)
    import kfeprune

    if os.path.dirname(os.path.dirname(os.path.abspath(kfeprune.__file__))) != SRC:
        raise SystemExit(f"error: kfeprune imported from {kfeprune.__file__}, not {SRC}")


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                return int(getattr(lib, name)())
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed):
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = blas_threads()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads if threads is not None else os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": nproc(),
        "cpu": cpu_model(),
        "seed": seed,
    }


def report(header, env, metrics, units, run):
    print(header)
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, unit in units:
        if name in metrics:
            print(f"  {name:40s} {metrics[name]:.6g} {unit}")
    print(f"  commands: {run.attempted} attempted, {run.failed} failed")
    for text in run.problems[:20]:
        print(f"  problem: {text}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar="FINGERPRINT")
    args = parser.parse_args(argv)

    prepare()
    import bench
    from workloads import WORKLOADS

    if args.compare:
        problems = bench.compare_fingerprints(*args.compare)
        for text in problems:
            print(f"differs: {text}")
        print("fingerprints agree" if not problems else f"{len(problems)} differences")
        return 0 if not problems else 1
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(sorted(WORKLOADS))}")
    workload = WORKLOADS[args.workload]
    expected = workload.expected if args.seed == 0 else ()

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{workload.name}-{os.getpid()}")
    try:
        if args.trace:
            metrics, run = bench.traced(workload, args.seed, args.seconds, workdir, expected=expected)
            gated = bench.per_layer_names()
            units = gated + list(bench.TRACE_REPORTED)
        else:
            metrics, run = bench.measure(
                workload, args.seed, args.seconds, workdir, ROOT, expected=expected
            )
            gated = bench.END_TO_END
            units = gated + bench.REPORTED
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment(args.seed)
    tag = f"{workload.name}-seed{args.seed}"
    if metrics is None:
        # A command raised in the first pass: report the failure, no figures.
        for text in run.problems:
            print(f"problem: {text}", file=sys.stderr)
        print(f"error: no complete pass of {workload.name}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": run.attempted,
                          "failed": run.failed, "metrics": {}}))
        return 1
    report(f"kfeprune benchmark: workload={workload.name} trace={args.trace} "
           f"passes={metrics['passes']}", env, metrics, units, run)
    bench.write_fingerprint(os.path.join(OUT, f"fingerprint-{tag}.json"),
                            workload, args.seed, run.first)
    with open(os.path.join(OUT, f"result-{tag}-trace{args.trace}.json"), "w", encoding="ascii") as fh:
        json.dump({"env": env, "workload": workload.name, "trace": args.trace,
                   "metrics": metrics, **run.summary()}, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in gated},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
