"""The pair runner counts a run that failed as a whole and survives a timeout."""

import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "wall_s", "better": "lower", "bound": 0.25}]


def run(pair, side, wall_s=None, exit=0, correct=True):
    entry = {"pair": pair, "side": side, "exit": exit, "correct": correct,
             "attempted": 3 if wall_s else 0, "failed": 0}
    return entry if wall_s is None else {**entry, "wall_s": wall_s}


def test_a_crashed_or_incorrect_run_is_a_failed_run():
    runs = [run(1, "parent", 1.0), run(1, "change", exit=1),
            run(2, "parent", 1.1), run(2, "change", 1.0, correct=False),
            run(3, "parent", 1.2), run(3, "change", exit=None),
            run(4, "parent", 1.3), run(4, "change", 1.2)]
    summary = bench_pairs.summarize(runs, METRICS)
    assert summary["failed"] == {"parent": 0, "change": 0}
    assert summary["failed_runs"] == {"parent": 0, "change": 3}
    assert summary["wall_s"]["change_better_pairs"] == "2/4"


def test_a_run_that_times_out_is_recorded_not_raised(monkeypatch, tmp_path):
    monkeypatch.setattr(bench_pairs, "RUN_TIMEOUT_S", 0.5)
    result = bench_pairs.run_once(str(tmp_path), [sys.executable, "-c", "import time; time.sleep(5)"])
    assert result == {"exit": None, "correct": False, "attempted": 0, "failed": 0}


def test_a_run_without_a_result_line_is_recorded_with_its_exit_code(tmp_path):
    result = bench_pairs.run_once(str(tmp_path), [sys.executable, "-c", "raise SystemExit(4)"])
    assert result == {"exit": 4, "correct": False, "attempted": 0, "failed": 0}
