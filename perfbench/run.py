"""fbsplab benchmark: drive the real CLI, one command at a time, and report.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs a closed loop: each pass runs the workload's fixed command
list as subprocesses, one after the other, and checks every command's
outputs. Passes repeat until S seconds have gone (at least one pass).

--trace 0 prints the end-to-end metrics. --trace 1 makes one pass that runs
every command three times in a row, traced through ``traced_cli.py``,
untraced, traced again, and prints the per-layer metrics; exact counts that
differ between the two traced runs stop the run with exit code 3.

The last stdout line is the result object; the lines before it are a JSON
report with the environment, sample counts and figures that are not metrics.
Exit code 2 means the program could not be found or imported.
Set-up, commands and their outputs live under .perfbench_work/ in the
repository root, which the run deletes when it ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 3
COMMAND_TIMEOUT_S = 90.0
# no new pass starts once this much of the 180 s run limit is gone
RUN_BUDGET_S = 120.0
MIN_TAIL_BEYOND = 10


def fail(message, code):
    print(message, file=sys.stderr)
    raise SystemExit(code)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(argv, cwd, log_path):
    """Run to exit or timeout; (seconds, peak RSS in MiB, exit code, timed out)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    timed_out = seconds >= COMMAND_TIMEOUT_S
    return seconds, usage.ru_maxrss / 1024.0, proc.returncode, timed_out


def cli_argv(args):
    return [sys.executable, "-c", "import sys; from fbsplab.cli import main; sys.exit(main())",
            *args]


def traced_argv(spans_path, command_id, args):
    return [sys.executable, os.path.join(HERE, "traced_cli.py"), spans_path, command_id, *args]


def import_probe(directory):
    """Import fbsplab.cli in a fresh interpreter; the first one byte-compiles it."""
    log = os.path.join(directory, "import_probe.log")
    _, _, code, _ = run_process([sys.executable, "-c", "import fbsplab.cli"], directory, log)
    if code != 0:
        with open(log, encoding="utf-8", errors="replace") as fh:
            fail(f"fbsplab.cli does not import (exit {code}):\n{fh.read()}", 2)


def timed_setups(setup, seed, work):
    """Run the set-up SETUP_REPEATS times into fresh directories.

    Returns (inputs of the first set-up, seconds of each)."""
    seconds = []
    first = None
    for i in range(SETUP_REPEATS):
        directory = os.path.join(work, f"inputs{i}")
        os.makedirs(directory)
        start = time.perf_counter()
        import_probe(directory)
        inputs = setup(seed, directory)
        seconds.append(time.perf_counter() - start)
        first = first or inputs
    return first, seconds


def run_command(command, directory, traced, command_id=""):
    """Run one command, then its output check; one record."""
    log = os.path.join(directory, "command.log")
    spans_path = os.path.join(directory, "spans.json")
    argv = (traced_argv(spans_path, command_id, command.argv) if traced
            else cli_argv(command.argv))
    seconds, rss_mb, code, timed_out = run_process(argv, directory, log)
    error = None
    if timed_out:
        error = f"timed out after {COMMAND_TIMEOUT_S} s"
    elif code != 0:
        with open(log, encoding="utf-8", errors="replace") as fh:
            error = f"exit {code}: {fh.read().strip()[-500:]}"
    else:
        try:
            command.check()
        except Exception as err:  # noqa: BLE001 - any check error fails this command
            error = f"check failed: {type(err).__name__}: {err}"
    record = {"label": command.label, "seconds": seconds, "rss_mb": rss_mb,
              "audio_s": command.audio_s, "epochs": command.epochs, "error": error}
    if traced and error is None:
        with open(spans_path, encoding="utf-8") as fh:
            record["trace"] = json.load(fh)
    return record


def pass_wall(records):
    return sum(r["seconds"] for r in records)


def tail(values):
    """Highest percentile with at least MIN_TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= MIN_TAIL_BEYOND:
        return None
    rank = n - MIN_TAIL_BEYOND  # 1-based rank of the sample ten from the top
    return {"percentile": 100.0 * rank / n, "value_s": ordered[rank - 1], "samples": n}


def end_to_end(passes, setup_seconds):
    commands = [r for records in passes for r in records]
    walls = [pass_wall(records) for records in passes]
    audio = [sum(r["audio_s"] for r in records) / pass_wall(records) for records in passes]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cmd_p50_s": (statistics.median(r["seconds"] for r in commands), "s"),
        "audio_s_per_s": (statistics.median(audio), "s/s"),
        "setup_s": (statistics.median(setup_seconds), "s"),
        "peak_rss_mb": (max(r["rss_mb"] for r in commands), "MiB"),
    }
    extra = {
        "samples": {"wall_s": len(walls), "cmd_p50_s": len(commands),
                    "audio_s_per_s": len(audio), "setup_s": len(setup_seconds),
                    "peak_rss_mb": len(commands)},
        "cmd_tail_s": tail([r["seconds"] for r in commands]),
    }
    epochs = sum(r["epochs"] for r in passes[0])
    if epochs:
        seconds = [sum(r["seconds"] for r in records if r["epochs"]) for records in passes]
        extra["epochs_per_s"] = {"value": statistics.median(epochs / s for s in seconds),
                                 "epochs_per_pass": epochs, "samples": len(seconds)}
    return metrics, extra


def per_layer(traced_passes, untraced_passes):
    import layers

    per_pass = [layers.pass_metrics([r["trace"] for r in records]) for records in traced_passes]
    first, second = per_pass[0], per_pass[1]
    differing = {name: (first[name], second[name]) for name in layers.EXACT_METRICS
                 if first[name] != second[name]}
    if differing:
        fail(f"exact per-layer counts differ between two traced passes: {differing}", 3)
    units = layers.metric_units()
    metrics = {}
    for name, unit in units.items():
        if name in layers.EXACT_METRICS:
            metrics[name] = (first[name], unit)
        elif name != "trace.overhead_s":
            metrics[name] = (statistics.median(p[name] for p in per_pass), unit)
    overhead = (statistics.median(pass_wall(p) for p in traced_passes)
                - statistics.median(pass_wall(p) for p in untraced_passes))
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics, {"traced_passes": len(traced_passes),
                     "untraced_passes": len(untraced_passes),
                     "computed_not_measured": ["transform.matmul_flops",
                                               "transform.matmul_bytes"]}


def openblas_threads():
    """Thread count OpenBLAS reports inside a child started like the commands."""
    code = (
        "import ctypes, numpy\n"
        "path = next((l.split()[-1] for l in open('/proc/self/maps') if 'openblas' in l), None)\n"
        "lib = ctypes.CDLL(path) if path else None\n"
        "names = ('scipy_openblas_get_num_threads64_', 'openblas_get_num_threads64_',"
        " 'openblas_get_num_threads')\n"
        "fn = next((getattr(lib, n) for n in names if lib and hasattr(lib, n)), None)\n"
        "print(fn() if fn else 'unknown')\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                          text=True, timeout=60, check=False)
    return done.stdout.strip() or f"unknown ({done.stderr.strip()[-200:]})"


def git_state():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return {"sha": None, "dirty": None, "note": "not a git checkout"}

    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=False).stdout.strip()
    return {"sha": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}


def environment(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git": git_state(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads_in_children": openblas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def measure(args, work):
    import workloads

    setup, make_commands = workloads.WORKLOADS[args.workload]
    inputs, setup_seconds = timed_setups(setup, args.seed, work)
    out = os.path.join(work, "out")
    os.makedirs(out)
    commands = make_commands(inputs, out, {})

    if args.trace:
        # traced, untraced, traced back to back per command, so that the
        # machine's drift between passes does not enter trace.overhead_s
        traced, untraced = [[], []], [[]]
        for command in commands:
            for repeat, (records, is_traced) in enumerate(
                    ((traced[0], True), (untraced[0], False), (traced[1], True))):
                records.append(run_command(command, work, is_traced,
                                           f"{command.label}#{repeat}"))
    else:
        traced, untraced = [], []
        start = time.perf_counter()
        while True:
            untraced.append([run_command(command, work, False) for command in commands])
            elapsed = time.perf_counter() - start
            if elapsed >= args.seconds or elapsed + elapsed / len(untraced) > RUN_BUDGET_S:
                break

    everything = [r for records in traced + untraced for r in records]
    errors = [f"{r['label']}: {r['error']}" for r in everything if r["error"]]
    if args.trace:
        if errors:
            metrics, extra = {}, {}
        else:
            metrics, extra = per_layer(traced, untraced)
    else:
        metrics, extra = end_to_end(untraced, setup_seconds)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "setup_runs_s": setup_seconds,
        "pass_wall_s": {"untraced": [pass_wall(p) for p in untraced],
                        "traced": [pass_wall(p) for p in traced]},
        "commands_per_pass": len(commands),
        "error_rate": len(errors) / len(everything),
        "errors": errors,
        **extra,
    }
    return everything, errors, metrics, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a name from BENCHMARK.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fbsplab", "cli.py")):
        fail(f"fbsplab sources not found under {SRC}", 2)
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")

    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        everything, errors, metrics, report = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))  # only when no other run uses it
        except OSError:
            pass
    print(json.dumps(report, indent=1))
    print(json.dumps({
        "correct": not errors,
        "attempted": len(everything),
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
