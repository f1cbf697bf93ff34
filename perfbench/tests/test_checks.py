"""Each output check passes on the real command's output and rejects a
corrupted copy of it.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys

import numpy as np
import pytest
from scipy.io import wavfile

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _rewrite_wav(path, change):
    rate, data = wavfile.read(path)
    wavfile.write(path, rate, change(data).astype(data.dtype))


def _rewrite_csv_value(path, change):
    """Apply ``change`` to the largest value of a numeric CSV body."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        values = np.loadtxt(fh, delimiter=",", ndmin=2)
    index = np.unravel_index(np.argmax(values), values.shape)
    values[index] = change(values[index])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        for row in values:
            fh.write(",".join("%.17g" % v for v in row) + "\n")


def _drop_last_line(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:-1])


def _edit_json(path, change):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    change(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _set_accuracy(stem):
    path = f"{stem}_fbsp.csv"
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    fields = lines[1].split(",")
    fields[1] = "1.5"
    lines[1] = ",".join(fields)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _output(command):
    return command.argv[command.argv.index("--out") + 1]


def _corrupt(command, inputs):
    """Damage the command's output the way its check must notice."""
    kind = command.label.split(".")[0]
    if kind == "gen":
        _rewrite_wav(_output(command), lambda d: d[:-1])
    elif command.label == "perturb.awgn":
        _, clean = wavfile.read(inputs["tone"])
        # twice the noise amplitude: 6 dB below the requested SNR
        _rewrite_wav(_output(command), lambda d: 2.0 * d - clean / 32768.0)
    elif command.label == "perturb.lowpass":
        _, raw = wavfile.read(inputs["noise"])
        _rewrite_wav(_output(command), lambda d: np.round(raw * 32767.0))
    elif kind in ("spectrogram", "freq-response"):
        _rewrite_csv_value(_output(command), lambda v: v * 1.01)
    elif kind == "gradcheck":
        _edit_json(_output(command), lambda doc: doc.update(status="fail"))
    elif kind == "train":
        _drop_last_line(command.argv[command.argv.index("--out-log") + 1])
    elif kind == "sweep":
        _set_accuracy(_output(command))
    else:
        raise AssertionError(f"no corruption for {command.label}")


def _commands(workload, tmp_path, labels=None):
    setup, make_commands = workloads.WORKLOADS[workload]
    (tmp_path / "inputs").mkdir()
    (tmp_path / "out").mkdir()
    inputs = setup(3, str(tmp_path / "inputs"))
    commands = [c for c in make_commands(inputs, str(tmp_path / "out"), {})
                if labels is None or c.label in labels]
    return inputs, commands


def _run(command, tmp_path):
    log = tmp_path / "cmd.log"
    _, _, code, _ = run.run_process(run.cli_argv(command.argv), str(tmp_path / "out"), str(log))
    assert code == 0, log.read_text()
    command.check()


def _assert_checks_reject_corruption(workload, tmp_path, labels=None):
    inputs, commands = _commands(workload, tmp_path, labels)
    for command in commands:
        _run(command, tmp_path)
        _corrupt(command, inputs)
        with pytest.raises(checks.CheckFailed):
            command.check()
    return commands


def test_short_calls_checks_reject_corrupted_outputs(tmp_path):
    commands = _assert_checks_reject_corruption("short_calls", tmp_path)
    assert len(commands) == 15


def test_train_and_sweep_checks_reject_corrupted_outputs(tmp_path):
    _assert_checks_reject_corruption("train_sweep", tmp_path, labels={"train", "sweep.awgn"})


def test_spectrogram_meta_must_match_csv_shape(tmp_path):
    _, (command,) = _commands("short_calls", tmp_path, labels={"spectrogram.stft"})
    _run(command, tmp_path)
    _edit_json(_output(command) + ".meta.json",
               lambda doc: doc["grid"].update(num_frames=doc["grid"]["num_frames"] + 1))
    with pytest.raises(checks.CheckFailed):
        command.check()


def test_same_bytes_rejects_a_changed_file(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("x\n1\n")
    digests = {}
    checks.check_same_bytes([str(path)], digests)
    checks.check_same_bytes([str(path)], digests)
    path.write_text("x\n2\n")
    with pytest.raises(checks.CheckFailed):
        checks.check_same_bytes([str(path)], digests)
