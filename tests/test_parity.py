"""Tests for scripts/parity.py, the byte-parity check between two trees."""

import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "parity.py")


def load_parity():
    spec = importlib.util.spec_from_file_location("parity", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write(path, text):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def test_compare_trees_ignores_only_wall_times(tmp_path):
    parity = load_parity()
    record = {"params": 804, "wall_time_s": 1.5, "rounds": [{"params": 961, "wall_time_s": 0.2}]}
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for top, wall in ((a, 1.5), (b, 9.0)):
        timed = {**record, "wall_time_s": wall, "rounds": [{"params": 961, "wall_time_s": wall}]}
        write(os.path.join(top, "oneshot", "1-prune", "metrics.json"), json.dumps(timed))
        write(os.path.join(top, "oneshot", "1-prune", "curve.csv"), "epoch\n1\n")
    assert parity.compare_trees(a, b) == (2, [])
    write(os.path.join(b, "oneshot", "1-prune", "curve.csv"), "epoch\n2\n")
    moved = {**record, "rounds": [{"params": 962, "wall_time_s": 0.2}]}
    write(os.path.join(b, "oneshot", "1-prune", "metrics.json"), json.dumps(moved))
    write(os.path.join(b, "oneshot", "2-eval", "metrics.json"), "{}")
    differ = ["1-prune/curve.csv", "1-prune/metrics.json", "2-eval/metrics.json"]
    assert parity.compare_trees(a, b) == (3, [f"oneshot/{path}" for path in differ])


def test_parity_of_the_tree_with_itself_on_the_readme_demo():
    """Two processes running the README demo from this tree write the
    same bytes, wall times aside."""
    done = subprocess.run(
        [sys.executable, SCRIPT, "--parent", ROOT, "--change", ROOT,
         "--workload", "readme-demo", "--seeds", "0"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "30 files compared, 0 differ"
