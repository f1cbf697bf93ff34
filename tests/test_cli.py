import argparse
import json
import subprocess
import sys
import time

import numpy as np
import pytest

import fbsplab.cli
from fbsplab.bank import init_params, save_params
from fbsplab.cli import build_parser, main

CLI = [sys.executable, "-m", "fbsplab.cli"]

SMALL_RUN_CONFIG = {
    "task": {
        "classes": [
            {"name": "low", "kind": "tone", "low_hz": 300.0, "high_hz": 600.0},
            {"name": "high", "kind": "tone", "low_hz": 1500.0, "high_hz": 3000.0},
        ],
        "samples_per_class": 4,
        "duration": 0.2,
    },
    "features": {"n_fft": 64, "hop": 32},
    "train": {"epochs": 2, "lr": 0.1, "freeze_epochs": 1},
}


def run(*argv, cwd=None):
    return subprocess.run(CLI + list(argv), capture_output=True, text=True, cwd=cwd)


def read_csv_matrix(path):
    lines = path.read_text().strip().split("\n")
    return lines[0], np.array([[float(v) for v in line.split(",")]
                               for line in lines[1:]])


def test_import_leaves_scipy_signal_unloaded():
    # scipy.signal is most of the start-up cost of every command, and only
    # the low-pass filter needs it
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, fbsplab.cli; print('scipy.signal' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class TestExitCodes:
    def test_no_command_is_usage_error(self):
        assert run().returncode == 1

    def test_bad_choice_is_usage_error(self, tmp_path):
        proc = run("gen", "--kind", "square", "--out", str(tmp_path / "x.wav"))
        assert proc.returncode == 1

    def test_missing_input_is_runtime_error(self, tmp_path):
        proc = run("spectrogram", "--input", str(tmp_path / "missing.wav"),
                   "--out", str(tmp_path / "s.csv"))
        assert proc.returncode == 2
        assert "missing.wav" in proc.stderr

    def test_unknown_config_key_is_runtime_error(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"kind": "sine", "vibrato": True}))
        proc = run("gen", "--config", str(cfg), "--out", str(tmp_path / "x.wav"))
        assert proc.returncode == 2
        assert "vibrato" in proc.stderr

    def test_singular_gradcheck_point_is_numeric_error(self, tmp_path):
        # u = f_b t / m = 4 exactly at t = 7.5 for (m=1.5, f_b=0.8)
        proc = run("gradcheck", "--m", "1.5", "--f-b", "0.8", "--n-fft", "16",
                   "--draws", "0", "--out", str(tmp_path / "r.json"))
        assert proc.returncode == 3

    def test_gradcheck_without_admissible_draw_ends_in_numeric_error(self, tmp_path):
        # no draw is admissible at n_fft 4096, so the rejection loop must give up
        start = time.perf_counter()
        proc = subprocess.run(CLI + ["gradcheck", "--n-fft", "4096", "--draws", "1",
                                     "--out", str(tmp_path / "r.json")],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3
        assert "n_fft 4096" in proc.stderr
        assert time.perf_counter() - start < 30.0

    def test_fractional_sample_rate_is_input_error(self, tmp_path, capsys):
        wav = tmp_path / "x.wav"
        assert main(["gen", "--sample-rate", "8000.7", "--out", str(wav)]) == 2
        assert "8000.7" in capsys.readouterr().err
        assert not wav.exists()

    def test_memory_error_is_input_error(self, tmp_path, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 PiB")

        monkeypatch.setattr(fbsplab.cli, "frequency_response", exhausted)
        code = main(["freq-response", "--num-probes", "1000000000000000",
                     "--out", str(tmp_path / "r.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "out of memory" in err and "7.28 PiB" in err

    @pytest.mark.parametrize("command, config, key", [
        ("train", {"train": {"epochs": 2.6}}, "epochs"),
        ("train", {"features": {"n_fft": 64.7}}, "n_fft"),
        ("train", {"task": {"samples_per_class": 4.9}}, "samples_per_class"),
        ("sweep", {"sweep": {"order": 2.5}}, "order"),
        ("gen", {"seed": 0.5}, "seed"),
        ("spectrogram", {"input": "x.wav", "hop": 16.5}, "hop"),
        ("freq-response", {"num_probes": 10.5}, "num_probes"),
        ("gradcheck", {"draws": 1.5}, "draws"),
    ])
    def test_fractional_integer_setting_is_input_error(self, tmp_path, capsys,
                                                       command, config, key):
        if command in ("train", "sweep"):
            base = json.loads(json.dumps(SMALL_RUN_CONFIG))
            for section, values in config.items():
                base.setdefault(section, {}).update(values)
            config = base
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        outputs = (["--out-params", str(tmp_path / "p.json"), "--out-log", str(tmp_path / "l.csv")]
                   if command == "train" else ["--out", str(tmp_path / "out")])
        assert main([command, "--config", str(path)] + outputs) == 2
        err = capsys.readouterr().err
        assert f"{key} must be a whole number" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    def test_fractional_n_fft_in_params_file_is_input_error(self, tmp_path, capsys):
        wav = tmp_path / "x.wav"
        assert main(["gen", "--out", str(wav)]) == 0
        params = tmp_path / "p.json"
        save_params(str(params), init_params(64), 64)
        doc = json.loads(params.read_text())
        doc["n_fft"] = 64.9
        params.write_text(json.dumps(doc))
        out = tmp_path / "s.csv"
        assert main(["spectrogram", "--input", str(wav), "--mode", "fbsp",
                     "--params", str(params), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(params) in err and "n_fft must be a whole number, got 64.9" in err
        assert not out.exists()

    def test_perturb_modes_are_exclusive(self, tmp_path):
        wav = tmp_path / "x.wav"
        assert run("gen", "--out", str(wav)).returncode == 0
        both = run("perturb", "--input", str(wav), "--snr-db", "10",
                   "--cutoff-hz", "1000", "--out", str(tmp_path / "y.wav"))
        assert both.returncode == 2
        neither = run("perturb", "--input", str(wav), "--out", str(tmp_path / "y.wav"))
        assert neither.returncode == 2


class TestGen:
    def test_writes_wav_and_sidecar(self, tmp_path):
        wav = tmp_path / "tone.wav"
        proc = run("gen", "--kind", "sine", "--frequency", "500", "--duration",
                   "0.2", "--out", str(wav))
        assert proc.returncode == 0
        assert wav.exists()
        sidecar = json.loads((tmp_path / "tone.wav.run.json").read_text())
        assert sidecar["command"] == "gen"
        assert sidecar["config"]["frequency"] == 500.0
        assert sidecar["config"]["kind"] == "sine"

    def test_sidecar_round_trip_is_bit_identical(self, tmp_path):
        first = tmp_path / "a.wav"
        run("gen", "--kind", "band_noise", "--low-hz", "400", "--high-hz",
            "900", "--seed", "7", "--duration", "0.3", "--out", str(first))
        second = tmp_path / "b.wav"
        proc = run("gen", "--config", str(tmp_path / "a.wav.run.json"),
                   "--out", str(second))
        assert proc.returncode == 0
        assert first.read_bytes() == second.read_bytes()


class TestSpectrogram:
    def test_stft_and_fbsp_init_agree(self, tmp_path):
        wav = tmp_path / "tone.wav"
        run("gen", "--kind", "sine", "--frequency", "500", "--duration", "0.2",
            "--encoding", "float32", "--out", str(wav))
        stft_csv = tmp_path / "stft.csv"
        fbsp_csv = tmp_path / "fbsp.csv"
        assert run("spectrogram", "--input", str(wav), "--mode", "stft",
                   "--n-fft", "64", "--hop", "32", "--out", str(stft_csv)).returncode == 0
        assert run("spectrogram", "--input", str(wav), "--mode", "fbsp",
                   "--n-fft", "64", "--hop", "32", "--out", str(fbsp_csv)).returncode == 0
        header_a, a = read_csv_matrix(stft_csv)
        header_b, b = read_csv_matrix(fbsp_csv)
        assert header_a == header_b
        assert a.shape == (33, 49)  # (1600 - 64) / 32 + 1 frames
        assert np.max(np.abs(a - b)) < 1e-10
        meta = json.loads((tmp_path / "fbsp.csv.meta.json").read_text())
        assert meta["bank"]["kind"] == "fbsp"

    def test_params_file_fixes_n_fft(self, tmp_path):
        wav = tmp_path / "tone.wav"
        run("gen", "--duration", "0.2", "--out", str(wav))
        params = tmp_path / "p.json"
        params.write_text(json.dumps({
            "m": 0.0, "f_b": 1.0,
            "f_c": [k / 32 for k in range(17)], "n_fft": 32,
        }))
        ok = run("spectrogram", "--input", str(wav), "--mode", "fbsp",
                 "--params", str(params), "--out", str(tmp_path / "s.csv"))
        assert ok.returncode == 0
        conflict = run("spectrogram", "--input", str(wav), "--mode", "fbsp",
                       "--params", str(params), "--n-fft", "64",
                       "--out", str(tmp_path / "s2.csv"))
        assert conflict.returncode == 2


class TestFreqResponse:
    def test_csv_header_and_shape(self, tmp_path):
        out = tmp_path / "resp.csv"
        proc = run("freq-response", "--mode", "stft", "--n-fft", "16",
                   "--window", "rectangular", "--num-probes", "9",
                   "--out", str(out))
        assert proc.returncode == 0
        header, matrix = read_csv_matrix(out)
        assert header == "probe_freq," + ",".join(
            f"filter_{k}" for k in range(9)) + ",max_gain"
        assert matrix.shape == (9, 11)
        assert matrix[0, 0] == 0.0 and matrix[-1, 0] == 0.5


class TestGradcheck:
    def test_passing_report(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run("gradcheck", "--n-fft", "32", "--draws", "2", "--out", str(out))
        assert proc.returncode == 0
        report = json.loads(out.read_text())
        assert report["status"] == "pass"
        assert report["failed"] == []
        assert len(report["checks"]) == 3 * 3 + 3


class TestPerturb:
    def test_awgn_inf_passthrough(self, tmp_path):
        wav = tmp_path / "x.wav"
        run("gen", "--duration", "0.2", "--encoding", "float32", "--out", str(wav))
        out = tmp_path / "y.wav"
        proc = run("perturb", "--input", str(wav), "--snr-db", "inf",
                   "--encoding", "float32", "--out", str(out))
        assert proc.returncode == 0
        from fbsplab.wavio import read_wav
        assert np.array_equal(read_wav(out).samples, read_wav(wav).samples)

    def test_lowpass_mode(self, tmp_path):
        wav = tmp_path / "x.wav"
        run("gen", "--kind", "band_noise", "--low-hz", "200", "--high-hz",
            "3500", "--duration", "0.3", "--encoding", "float32", "--out", str(wav))
        out = tmp_path / "y.wav"
        proc = run("perturb", "--input", str(wav), "--cutoff-hz", "800",
                   "--order", "5", "--encoding", "float32", "--out", str(out))
        assert proc.returncode == 0
        from fbsplab.wavio import read_wav
        x = read_wav(wav).samples
        y = read_wav(out).samples
        # the 2000-3500 Hz band sits 1.3+ octaves above the cutoff and must
        # lose nearly all of its energy
        freqs = np.fft.rfftfreq(len(x), 1.0 / 8000)
        band = (freqs >= 2000.0) & (freqs <= 3500.0)
        hi_x = np.abs(np.fft.rfft(x))[band]
        hi_y = np.abs(np.fft.rfft(y))[band]
        assert np.sum(hi_y ** 2) < 1e-4 * np.sum(hi_x ** 2)


class TestTrainAndSweep:
    def test_train_writes_params_log_and_sidecars(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(SMALL_RUN_CONFIG))
        params_out = tmp_path / "params.json"
        log_out = tmp_path / "log.csv"
        proc = run("train", "--config", str(cfg), "--out-params",
                   str(params_out), "--out-log", str(log_out))
        assert proc.returncode == 0, proc.stderr
        assert "final accuracy" in proc.stdout

        doc = json.loads(params_out.read_text())
        assert set(doc) == {"m", "f_b", "f_c", "n_fft"}
        assert doc["n_fft"] == 64

        lines = log_out.read_text().strip().split("\n")
        assert lines[0].startswith("epoch,")
        assert len(lines) == 3  # header + 2 epochs

        sidecar = json.loads((tmp_path / "params.json.run.json").read_text())
        assert sidecar["command"] == "train"
        assert sidecar["config"]["train"]["epochs"] == 2

    def test_train_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(SMALL_RUN_CONFIG))
        log_out = tmp_path / "log.csv"
        proc = run("train", "--config", str(cfg), "--epochs", "3",
                   "--out-params", str(tmp_path / "p.json"), "--out-log", str(log_out))
        assert proc.returncode == 0, proc.stderr
        assert len(log_out.read_text().strip().split("\n")) == 4

    def test_sweep_writes_both_banks(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(SMALL_RUN_CONFIG))
        proc = run("sweep", "--config", str(cfg), "--kind", "awgn",
                   "--axis", "inf,10", "--out", str(tmp_path / "sweep.csv"))
        assert proc.returncode == 0, proc.stderr
        for label in ("stft", "fbsp"):
            header, matrix = read_csv_matrix_allow_text(tmp_path / f"sweep_{label}.csv")
            assert header == "axis_value,accuracy,spectro_snr_db,bank_label"
            assert len(matrix) == 2
            assert matrix[0][0] == "inf"
            assert matrix[0][3] == label
        # non-finite floats serialize as strings and parse back through the
        # same coercion the flag path uses
        sidecar = json.loads((tmp_path / "sweep.csv.run.json").read_text())
        assert sidecar["config"]["sweep"]["axis"] == ["inf", 10.0]


def read_csv_matrix_allow_text(path):
    lines = path.read_text().strip().split("\n")
    return lines[0], [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------------------
# pinned CLI surface and resolved sidecars
# ---------------------------------------------------------------------------

PCM = ["pcm16", "float32"]
MODES = ["stft", "fbsp"]
WINDOWS = ["rectangular", "hann"]
RUN_FLAGS = {
    "--config": (None, None, False), "--seed": ("int", None, False),
    "--epochs": ("int", None, False), "--lr": ("float", None, False),
    "--lambda-fbsp": ("float", None, False), "--freeze-epochs": ("int", None, False),
}
COMMON = {"--config": (None, None, False), "--out": (None, None, True)}

# option string -> (type name, choices, required), per subcommand
SURFACE = {
    "gen": {**COMMON,
            "--kind": (None, ["band_noise", "chirp", "silence", "sine"], False),
            "--duration": ("float", None, False), "--sample-rate": ("float", None, False),
            "--seed": ("int", None, False), "--amplitude": ("float", None, False),
            "--frequency": ("float", None, False), "--f-start": ("float", None, False),
            "--f-end": ("float", None, False), "--low-hz": ("float", None, False),
            "--high-hz": ("float", None, False), "--phase": ("float", None, False),
            "--encoding": (None, PCM, False)},
    "spectrogram": {**COMMON,
                    "--input": (None, None, False), "--mode": (None, MODES, False),
                    "--params": (None, None, False), "--n-fft": ("int", None, False),
                    "--hop": ("int", None, False), "--window": (None, WINDOWS, False),
                    "--eps": ("float", None, False)},
    "freq-response": {**COMMON,
                      "--mode": (None, MODES, False), "--params": (None, None, False),
                      "--n-fft": ("int", None, False), "--window": (None, WINDOWS, False),
                      "--num-probes": ("int", None, False)},
    "gradcheck": {**COMMON,
                  "--n-fft": ("int", None, False), "--seed": ("int", None, False),
                  "--draws": ("int", None, False), "--m": ("float", None, False),
                  "--f-b": ("float", None, False), "--step": ("float", None, False)},
    "perturb": {**COMMON,
                "--input": (None, None, False), "--snr-db": (None, None, False),
                "--cutoff-hz": ("float", None, False), "--order": ("int", None, False),
                "--seed": ("int", None, False), "--encoding": (None, PCM, False)},
    "train": {**RUN_FLAGS,
              "--out-params": (None, None, True), "--out-log": (None, None, True)},
    "sweep": {**RUN_FLAGS, "--out": (None, None, True),
              "--kind": (None, ["awgn", "lowpass"], False), "--axis": (None, None, False),
              "--order": ("int", None, False)},
}


def parser_surface():
    parser = build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {}
    for name, subparser in sub.choices.items():
        surface[name] = {}
        for action in subparser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            for option in action.option_strings:
                surface[name][option] = (
                    getattr(action.type, "__name__", action.type),
                    None if action.choices is None else list(action.choices),
                    action.required,
                )
    return surface


def test_cli_surface_is_pinned():
    surface = parser_surface()
    assert surface == SURFACE
    assert sum(len(flags) for flags in surface.values()) == 64


SMALL_TRAIN_SECTION = {
    "epochs": 2, "lr": 0.1, "lr_decay": 0.985, "momentum": 0.9,
    "weight_decay": 5e-4, "lambda_fbsp": 1.0, "freeze_epochs": 1, "seed": 0,
}
SMALL_TASK_SECTION = {
    **SMALL_RUN_CONFIG["task"], "sample_rate": 8000.0, "seed": 5,
    "snr_range": None, "train_fraction": 0.8,
}
SMALL_FEATURES_SECTION = {"n_fft": 64, "hop": 32, "window": "hann", "eps": 1e-10}


def sidecar_cases(tmp_path):
    """argv without output flags, {output flag: path}, files written, resolved config."""
    wav = str(tmp_path / "in.wav")
    assert main(["gen", "--duration", "0.25", "--kind", "band_noise",
                 "--out", wav]) == 0
    params = tmp_path / "p.json"
    params.write_text(json.dumps({
        "m": 0.5, "f_b": 0.9, "f_c": [k / 32 for k in range(17)], "n_fft": 32}))
    run_cfg = tmp_path / "run.json"
    run_cfg.write_text(json.dumps(SMALL_RUN_CONFIG))
    return {
        "gen": (
            ["--kind", "chirp", "--f-start", "200", "--duration", "0.25",
             "--encoding", "float32"],
            {"--out": "gen.wav"}, ["gen.wav"],
            {"kind": "chirp", "duration": 0.25, "sample_rate": 8000.0, "seed": 0,
             "amplitude": 0.8, "frequency": 440.0, "f_start": 200.0,
             "f_end": 3000.0, "low_hz": 500.0, "high_hz": 2000.0, "phase": 0.0,
             "encoding": "float32"}),
        "spectrogram": (
            ["--input", wav, "--mode", "fbsp", "--params", str(params),
             "--window", "rectangular"],
            {"--out": "spec.csv"}, ["spec.csv", "spec.csv.meta.json"],
            {"input": wav, "mode": "fbsp", "params_file": str(params), "n_fft": 32,
             "hop": 16, "window": "rectangular", "eps": 1e-10}),
        "freq-response": (
            ["--n-fft", "32"],
            {"--out": "resp.csv"}, ["resp.csv"],
            {"mode": "fbsp", "params_file": None, "n_fft": 32,
             "window": "rectangular", "num_probes": 17}),
        "gradcheck": (
            ["--n-fft", "32", "--draws", "1", "--seed", "3"],
            {"--out": "grad.json"}, ["grad.json"],
            {"n_fft": 32, "seed": 3, "draws": 1, "m": 1.7, "f_b": 0.9, "step": 1e-6}),
        "perturb": (
            ["--input", wav, "--snr-db", "10", "--seed", "4"],
            {"--out": "noisy.wav"}, ["noisy.wav"],
            {"input": wav, "snr_db": "10", "cutoff_hz": None, "order": 5,
             "seed": 4, "encoding": "pcm16"}),
        "train": (
            ["--config", str(run_cfg), "--seed", "5", "--lr", "0.05"],
            {"--out-params": "params.json", "--out-log": "log.csv"},
            ["params.json", "log.csv"],
            {"task": SMALL_TASK_SECTION, "features": SMALL_FEATURES_SECTION,
             "train": {**SMALL_TRAIN_SECTION, "lr": 0.05}}),
        "sweep": (
            ["--config", str(run_cfg), "--seed", "5", "--kind", "lowpass",
             "--axis", "1000, 3000", "--order", "3"],
            {"--out": "sweep.csv"}, ["sweep_stft.csv", "sweep_fbsp.csv"],
            {"task": SMALL_TASK_SECTION, "features": SMALL_FEATURES_SECTION,
             "train": SMALL_TRAIN_SECTION,
             "sweep": {"kind": "lowpass", "axis": [1000.0, 3000.0], "order": 3,
                       "seed": 0}}),
    }


@pytest.mark.parametrize("command", list(SURFACE))
def test_sidecar_is_pinned_and_reruns_byte_identical(tmp_path, command):
    argv, outs, written, expected = sidecar_cases(tmp_path)[command]
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()

    def out_args(directory):
        return [arg for flag, name in outs.items() for arg in (flag, str(directory / name))]

    assert main([command, *argv, *out_args(first)]) == 0
    sidecars = [name + ".run.json" for name in outs.values()]
    for name in sidecars:
        doc = json.loads((first / name).read_text())
        assert doc == {"command": command, "config": expected}

    assert main([command, "--config", str(first / sidecars[0]), *out_args(second)]) == 0
    for name in written + sidecars:
        assert (second / name).read_bytes() == (first / name).read_bytes(), name
