"""Alternating parent/change runs of the perfbench benchmark, written as a BENCH_*.json.

Usage (from the repository root):

    python3 tools/bench_pairs.py --parent REV --change REV --out BENCH_N.json [--work DIR]

Each side runs from a ``git archive`` copy of its revision, so each runs its own
committed code and its own benchmark; the copies live under --work (a new
temporary directory by default, deleted at the end). The change's
``BENCHMARK.json`` fixes the command, the run length (``run_seconds``) and the
workloads. Pair i runs every workload once on each side, the parent first in odd
pairs and the change first in even ones, each as ``<command> --workload W --seed
SEED --seconds <run_seconds> --trace 0`` from the copy's root.

The output keeps ``BENCH_44.json``'s layout: ``runs`` holds, per workload, each
run's pair, side, exit code, operation counts and end-to-end metrics, and
``summary`` holds, per workload, the operation counts of each side, the runs of
each side that failed as a whole (nonzero exit, correct false, no result line or
timed out; their metrics are missing from the medians) and, per end-to-end metric,
both sides' medians and inclusive quartiles, the change's percent difference, the
pairs it won (ties count for neither), the parent's interquartile range and
whether the change's median is within the metric's bound. ``environment`` gets
the python, numpy and scipy versions; its other keys and the fields this script
does not compute (what, claim, verification, ...) are kept from an existing --out
file, so they can be written by hand and survive a rerun.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10
SEED = 4444
RUN_TIMEOUT_S = 600


def export(rev: str, directory: str) -> str:
    """A ``git archive`` copy of ``rev`` in ``directory``; returns the full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    os.makedirs(directory)
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", directory], input=archive, check=True)
    return commit


def run_once(directory: str, argv: list[str]) -> dict:
    """One benchmark run: its exit code and the result object of its last stdout line.

    A run that times out or prints no result line is a failed run with no metrics."""
    failed_run = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        proc = subprocess.run(argv, cwd=directory, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{' '.join(argv)}: timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        code, result = None, failed_run
    else:
        code = proc.returncode
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{' '.join(argv)}: no result line (exit {code}): {proc.stderr[-500:]}",
                  file=sys.stderr)
            result = failed_run
    run = {"exit": code, "correct": result["correct"],
           "attempted": result["attempted"], "failed": result["failed"]}
    run.update({name: entry["value"] for name, entry in result["metrics"].items()})
    return run


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per-side operation and failed-run counts and, per end-to-end metric, the pair statistics."""
    sides = {side: [run for run in runs if run["side"] == side] for side in ("parent", "change")}
    summary = {key: {side: sum(run[key] for run in sides[side]) for side in sides}
               for key in ("failed", "attempted")}
    summary["failed_runs"] = {side: sum(1 for run in sides[side]
                                        if run["exit"] != 0 or not run["correct"])
                              for side in sides}
    by_pair = {(run["pair"], run["side"]): run for run in runs}
    pairs = sorted({run["pair"] for run in runs})
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [run[name] for run in sides[side] if name in run] for side in sides}
        if len(values["parent"]) < 2 or len(values["change"]) < 2:
            continue
        parent, change = (statistics.median(values[side]) for side in ("parent", "change"))
        quartiles = {side: statistics.quantiles(values[side], n=4, method="inclusive")
                     for side in sides}
        paired = [(by_pair[pair, "parent"].get(name), by_pair[pair, "change"].get(name))
                  for pair in pairs]
        won = sum(1 for old, new in paired
                  if None not in (old, new) and new != old and (new < old) == lower)
        limit = parent * (1 + metric["bound"] if lower else 1 - metric["bound"])
        summary[name] = {
            "parent_median": round(parent, 4),
            "change_median": round(change, 4),
            "parent_quartiles": [round(quartiles["parent"][0], 4), round(quartiles["parent"][2], 4)],
            "change_quartiles": [round(quartiles["change"][0], 4), round(quartiles["change"][2], 4)],
            "change_pct": round(100.0 * (change - parent) / parent, 2) if parent else None,
            "change_better_pairs": f"{won}/{len(pairs)}",
            "parent_iqr": round(quartiles["parent"][2] - quartiles["parent"][0], 4),
            "within_bound": change <= limit if lower else change >= limit,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--out", required=True, help="BENCH_*.json to write")
    parser.add_argument("--work", help="directory for the two copies; default: a temporary one")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(dir=args.work) as work:
        dirs = {side: os.path.join(work, side) for side in ("parent", "change")}
        commits = {side: export(getattr(args, side), dirs[side]) for side in dirs}
        with open(os.path.join(dirs["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
            benchmark = json.load(fh)
        workloads = [entry["name"] for entry in benchmark["workloads"]]
        options = ["--seed", str(SEED), "--seconds", str(benchmark["run_seconds"]), "--trace", "0"]
        runs = {workload: [] for workload in workloads}
        for pair in range(1, PAIRS + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    argv = [*benchmark["command"], "--workload", workload, *options]
                    run = {"pair": pair, "side": side, **run_once(dirs[side], argv)}
                    runs[workload].append(run)
                    print(json.dumps({"workload": workload, **run}), file=sys.stderr, flush=True)

    doc = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc.update({
        "command": " ".join([*benchmark["command"], "--workload", "<w>", *options]),
        "sources": f"git archive copies of the parent ({commits['parent'][:7]}) and of the "
                   f"change ({commits['change'][:7]}), each run from its own directory",
        "seed": SEED,
        "pair_order": f"each of {PAIRS} pairs ran {', '.join(workloads)}; odd pairs ran "
                      "parent first, even pairs change first",
        "environment": {**doc.get("environment", {}), "python": platform.python_version(),
                        **{name: importlib.metadata.version(name) for name in ("numpy", "scipy")}},
        "summary": {workload: summarize(runs[workload], benchmark["end_to_end"])
                    for workload in workloads},
        "runs": runs,
    })
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
