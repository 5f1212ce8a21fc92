"""Tests for scripts/pairs.py, the alternated parent/change benchmark runner."""

import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "pairs.py")

# median 12, quartiles 11 and 13: an interquartile range of 2
PARENT = [10.0, 11.0, 12.0, 13.0, 14.0, 10.0, 11.0, 12.0, 13.0, 14.0]


def load_pairs():
    spec = importlib.util.spec_from_file_location("pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_nine_wins_and_a_gap_above_the_parent_iqr_hold():
    pairs = load_pairs()
    change = [p - 3.0 for p in PARENT[:9]] + [PARENT[9] + 1.0]
    s = pairs.summarize(PARENT, change, "lower")
    assert (s["wins"], s["pairs"]) == (9, 10)
    assert s["parent"] == (11.0, 12.0, 13.0) and s["parent_iqr"] == 2.0
    assert s["gap"] == 3.0 and s["holds"]


def test_eight_wins_do_not_hold():
    pairs = load_pairs()
    change = [p - 3.0 for p in PARENT[:8]] + [p + 1.0 for p in PARENT[8:]]
    s = pairs.summarize(PARENT, change, "lower")
    assert s["wins"] == 8 and s["gap"] > s["parent_iqr"]
    assert not s["holds"]


def test_a_gap_inside_the_parent_iqr_does_not_hold():
    pairs = load_pairs()
    change = [p - 1.5 for p in PARENT]
    s = pairs.summarize(PARENT, change, "lower")
    assert s["wins"] == 10 and s["gap"] == 1.5
    assert not s["holds"]


def test_ties_count_for_neither_side():
    pairs = load_pairs()
    change = [p + 3.0 for p in PARENT[:9]] + [PARENT[9]]
    s = pairs.summarize(PARENT, change, "higher")
    assert s["wins"] == 9 and s["holds"]
    s = pairs.summarize(PARENT, change, "lower")
    assert s["wins"] == 0 and s["gap"] == -2.5 and not s["holds"]
    tied = [p - 3.0 for p in PARENT[:8]] + PARENT[8:]
    assert pairs.summarize(PARENT, tied, "lower")["wins"] == 8


def fake_tree(top, setup_s):
    """A checkout whose benchmark prints a report, then one JSON line with
    every end-to-end metric at 1.0 but setup_s; setup_s None prints no
    JSON line, as a run that crashed."""
    pairs = load_pairs()
    metrics = {name: {"value": 1.0, "unit": unit} for name, unit, _ in pairs.end_to_end_metrics()}
    os.makedirs(top / "perfbench")
    if setup_s is None:
        body = "raise SystemExit('boom')\n"
    else:
        metrics["setup_s"]["value"] = setup_s
        line = json.dumps({"correct": True, "attempted": 4, "failed": 0, "metrics": metrics})
        body = f"print('report')\nprint({line!r})\n"
    (top / "perfbench" / "run.py").write_text(body, encoding="ascii")
    return str(top)


def test_main_alternates_the_sides_and_prints_every_run(tmp_path, capsys):
    pairs = load_pairs()
    parent, change = fake_tree(tmp_path / "p", 0.104), fake_tree(tmp_path / "c", 0.093)
    argv = ["--parent", parent, "--change", change, "--workload", "readme-demo", "--pairs", "2"]
    assert pairs.main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    runs = [line.split(":")[0] for line in out[:4]]
    assert runs == ["parent pair 1", "change pair 1", "change pair 2", "parent pair 2"]
    assert "setup_s=0.104 " in out[0] and out[0].endswith("failed/attempted=0/4")
    summary = {line.split(" ", 1)[0]: line for line in out[5:]}
    assert len(summary) == 9
    assert summary["setup_s"].endswith(
        "0.104 [0.104, 0.104] -> 0.093 [0.093, 0.093]; change wins 2/2; "
        "gap 0.011 vs parent IQR 0; claim holds"
    )
    assert "change wins 0/2" in summary["pipeline_s"]
    assert summary["pipeline_s"].endswith("claim does not hold")


def test_main_exits_1_when_a_run_gives_no_result(tmp_path, capsys):
    pairs = load_pairs()
    parent, broken = fake_tree(tmp_path / "p", 0.104), fake_tree(tmp_path / "c", None)
    argv = ["--parent", parent, "--change", broken, "--workload", "readme-demo", "--pairs", "3"]
    assert pairs.main(argv) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "error: the change run of pair 1 gave no result"
