import argparse
import json
import os
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fbsplab.cli
import fbsplab.gradients
import fbsplab.perturb
import fbsplab.training
from fbsplab.bank import (
    RESPONSE_PEAK_FACTOR,
    FbspParams,
    dft_grid,
    dft_kernel,
    fbsp_kernel,
    frequency_response,
    init_params,
    save_params,
)
from fbsplab.cli import build_parser, main
from fbsplab.runio import _jsonable, write_json
from fbsplab.signals import _GEN_PEAK_FACTOR, _GENERATOR_PARAMS, Waveform, WindowSpec, generate
from fbsplab.training import FeatureSpec
from fbsplab.wavio import read_wav, write_wav

CLI = [sys.executable, "-W", "error::RuntimeWarning", "-W", "error::ResourceWarning",
       "-W", "error::DeprecationWarning", "-W", "error::FutureWarning", "-m", "fbsplab.cli"]

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


def test_import_loads_no_scipy():
    # nor any other package outside the standard library and numpy
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; before = set(sys.modules); import fbsplab.cli; "
         "print(sorted({name.split('.')[0] for name in set(sys.modules) - before}"
         " - set(sys.stdlib_module_names) - {'numpy', 'fbsplab'}))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_wav_and_filter_commands_load_no_scipy(tmp_path):
    # the WAV codec and the low-pass filter are numpy code; scipy is only the
    # tests' reference
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(SMALL_RUN_CONFIG))
    wav, out = str(tmp_path / "x.wav"), str(tmp_path / "y")
    commands = [
        ["gen", "--duration", "0.2", "--out", wav],
        ["spectrogram", "--input", wav, "--out", out + ".csv", "--n-fft", "64"],
        ["perturb", "--input", wav, "--out", out + ".wav", "--snr-db", "10"],
        ["perturb", "--input", wav, "--out", out + ".wav", "--cutoff-hz", "900"],
        ["sweep", "--config", str(cfg), "--kind", "lowpass", "--axis", "1000,3000",
         "--out", out],
    ]
    script = ("import sys; from fbsplab.cli import main\n"
              f"codes = [main(argv) for argv in {commands!r}]\n"
              "print(codes, sorted(name for name in sys.modules "
              "if name.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0] []"


@pytest.mark.parametrize("module", ["fbsplab.signals", "fbsplab.bank"])
def test_import_loads_only_the_module_dependencies(module):
    # the package re-exports nothing: a name is imported from its module, and
    # importing signals or bank loads neither scipy nor the trainer
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, {module}; print(sorted(name for name in sys.modules "
         "if name.split('.')[0] == 'scipy' or name == 'fbsplab.training'))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    with pytest.raises(ImportError):
        from fbsplab import fbsp_kernel  # noqa: F401


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
        # no draw is admissible at odd n_fft from 91 on, so the rejection loop must give up
        start = time.perf_counter()
        proc = subprocess.run(CLI + ["gradcheck", "--n-fft", "91", "--draws", "1",
                                     "--out", str(tmp_path / "r.json")],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3
        assert "n_fft 91" in proc.stderr
        assert time.perf_counter() - start < 30.0

    def test_negative_draw_count_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["gradcheck", "--draws", "-1", "--out", str(out)]) == 2
        assert "draws must be non-negative, got -1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_gradcheck_above_n_fft_cap_is_refused_before_differencing(
            self, tmp_path, monkeypatch, capsys):
        def no_difference(*args, **kwargs):
            raise AssertionError("a difference quotient was taken")

        monkeypatch.setattr(fbsplab.gradients, "finite_difference_oracle", no_difference)
        start = time.perf_counter()
        code = main(["gradcheck", "--n-fft", "2048", "--draws", "0",
                     "--out", str(tmp_path / "r.json")])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        err = capsys.readouterr().err
        assert "n_fft 2048" in err and "1024" in err
        assert list(tmp_path.iterdir()) == []

    def test_gradcheck_above_n_fft_cap_is_refused_before_any_draw(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(fbsplab.gradients, "admissible_draw",
                            lambda *a, **k: pytest.fail("drew a point"))
        start = time.perf_counter()
        code = main(["gradcheck", "--n-fft", "4096", "--draws", "1",
                     "--out", str(tmp_path / "r.json")])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "needs n_fft at most 1024, got n_fft 4096" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_fractional_sample_rate_is_input_error(self, tmp_path, capsys):
        wav = tmp_path / "x.wav"
        assert main(["gen", "--sample-rate", "8000.7", "--out", str(wav)]) == 2
        assert "8000.7" in capsys.readouterr().err
        assert not wav.exists()

    def test_memory_error_is_input_error(self, tmp_path, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 PiB")

        monkeypatch.setattr(fbsplab.cli, "frequency_response", exhausted)
        code = main(["freq-response", "--num-probes", "3", "--out", str(tmp_path / "r.csv")])
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

    @pytest.mark.parametrize("argv, message", [
        (["spectrogram", "--out", "{out}.csv"], "spectrogram needs an input wav (--input)"),
        (["perturb", "--snr-db", "10", "--out", "{out}.wav"],
         "perturb needs an input wav (--input)"),
        (["perturb", "--input", "{wav}", "--snr-db", "10", "--cutoff-hz", "1000",
          "--out", "{out}.wav"], "choose exactly one of --snr-db or --cutoff-hz"),
        (["perturb", "--input", "{wav}", "--out", "{out}.wav"],
         "choose exactly one of --snr-db or --cutoff-hz"),
        (["spectrogram", "--input", "{wav}", "--mode", "stft", "--params", "{params}",
          "--out", "{out}.csv"], "a params file only applies to --mode fbsp"),
        (["spectrogram", "--input", "{wav}", "--mode", "fbsp", "--params", "{params}",
          "--n-fft", "64", "--out", "{out}.csv"], "n_fft 64 conflicts with {params} (n_fft 32)"),
    ])
    def test_refusal_names_its_cause_and_writes_nothing(self, tmp_path, capsys, argv, message):
        paths = {"wav": str(tmp_path / "x.wav"), "params": str(tmp_path / "p.json"),
                 "out": str(tmp_path / "y")}
        assert main(["gen", "--duration", "0.2", "--out", paths["wav"]]) == 0
        save_params(paths["params"], init_params(32), 32)
        before = sorted(p.name for p in tmp_path.iterdir())
        capsys.readouterr()
        assert main([arg.format(**paths) for arg in argv]) == 2
        assert f"error: {message.format(**paths)}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    @pytest.mark.parametrize("duration", ["inf", "nan"])
    def test_non_finite_duration_is_input_error(self, tmp_path, capsys, duration):
        wav = tmp_path / "a.wav"
        assert main(["gen", "--duration", duration, "--out", str(wav)]) == 2
        assert f"duration must be positive and finite, got {duration}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unallocatable_duration_is_input_error(self, tmp_path, capsys):
        wav = tmp_path / "a.wav"
        assert main(["gen", "--duration", "1e300", "--out", str(wav)]) == 2
        err = capsys.readouterr().err
        assert "duration 1e+300 s at sample_rate 8000.0 Hz is 8e+303 samples" in err
        assert list(tmp_path.iterdir()) == []

    def test_bank_larger_than_memory_is_refused_before_building(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        start = time.perf_counter()
        code = main(["freq-response", "--n-fft", "1000000", "--num-probes", "3",
                     "--out", str(out)])
        assert time.perf_counter() - start < 10.0
        assert code == 2
        # the build, 3.25 x 16 x 500001 x 1000000 bytes, is the larger term of the one bound
        assert ("the response of n_fft 1000000 at num_probes 3 needs about 26000052000000 "
                "bytes to compute") in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("mode", ["stft", "fbsp", "params"])
    def test_bank_bound_follows_physical_memory(self, tmp_path, monkeypatch, capsys, mode):
        wav = tmp_path / "x.wav"
        assert main(["gen", "--duration", "0.2", "--out", str(wav)]) == 0
        params = tmp_path / "p.json"
        save_params(str(params), init_params(256), 256)
        bank_args = (["--mode", "fbsp", "--params", str(params)] if mode == "params"
                     else ["--mode", mode, "--n-fft", "256"])
        # building the 129 x 256 bank peaks near 1.6 MiB, a 33 x 64 one near 0.1 MiB; the
        # build (1,717,248 B) is the larger term of each command's one bound, beside the
        # 1600-sample clip (12,800 B) that spectrogram holds, and the response at 3 probes
        monkeypatch.setattr(fbsplab.cli, "_physical_memory", lambda: 2 ** 20)
        for command, message in (
                (["spectrogram", "--input", str(wav)], "a spectrogram of 11 frames at n_fft 256 "
                 "and hop 128 with its 129 x 256 bank needs about 1730048 bytes to render"),
                (["freq-response", "--num-probes", "3"],
                 "the response of n_fft 256 at num_probes 3 needs about 1717248 bytes to compute")):
            out = tmp_path / "out.csv"
            assert main([*command, *bank_args, "--out", str(out)]) == 2
            assert message in capsys.readouterr().err
            assert not out.exists()
        if mode != "params":
            assert main(["freq-response", "--mode", mode, "--n-fft", "64",
                         "--out", str(tmp_path / "small.csv")]) == 0

    @pytest.mark.parametrize("n_fft", [64, 255, 256])
    def test_bank_bound_covers_the_measured_build_peak(self, n_fft):
        weight_bytes = 16 * (n_fft // 2 + 1) * n_fft
        for build in (lambda: dft_kernel(n_fft),
                      lambda: fbsp_kernel(init_params(n_fft), n_fft),
                      lambda: fbsp_kernel(FbspParams(1.3, 0.9, dft_grid(n_fft)), n_fft)):
            tracemalloc.start()
            try:
                build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= fbsplab.cli._BUILD_PEAK_FACTOR * weight_bytes

    @pytest.mark.parametrize("mode", ["stft", "fbsp", "params"])
    def test_clip_shorter_than_a_frame_fails_before_the_bank(self, tmp_path, capsys, mode):
        # a 100000-tap bank would need 74.5 GiB; the clip check must come first
        wav = tmp_path / "x.wav"
        assert main(["gen", "--duration", "3", "--sample-rate", "16000", "--out", str(wav)]) == 0
        if mode == "params":
            params = tmp_path / "p.json"
            save_params(str(params), init_params(100000), 100000)
            bank_args = ["--mode", "fbsp", "--params", str(params)]
        else:
            bank_args = ["--mode", mode, "--n-fft", "100000"]
        out = tmp_path / "s.csv"
        start = time.perf_counter()
        code = main(["spectrogram", "--input", str(wav), *bank_args, "--out", str(out)])
        assert time.perf_counter() - start < 10.0
        assert code == 2
        assert "48000 samples are too few for frames of 100000" in capsys.readouterr().err
        assert not out.exists()

    def test_render_larger_than_memory_is_refused_before_the_bank(self, tmp_path, monkeypatch,
                                                                  capsys):
        # 3937 frames of 64 taps and 33 filters from a 4000-sample clip need about
        # 7.3 MB to render; the 33 x 64 bank needs about 0.11 MB to build
        wav = tmp_path / "x.wav"
        assert main(["gen", "--duration", "0.5", "--out", str(wav)]) == 0
        monkeypatch.setattr(fbsplab.cli, "_physical_memory", lambda: 10 ** 6)
        monkeypatch.setattr(fbsplab.cli, "fbsp_kernel", lambda *a: pytest.fail("built the bank"))
        start = time.perf_counter()
        code = main(["spectrogram", "--input", str(wav), "--n-fft", "64", "--hop", "1",
                     "--out", str(tmp_path / "s.csv")])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert ("a spectrogram of 3937 frames at n_fft 64 and hop 1 with its 33 x 64 bank needs "
                "about 7312168 bytes to render, more than the 1000000 bytes of physical memory"
                in capsys.readouterr().err)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.wav", "x.wav.run.json"]

    # the render's one fixed cost is numpy's 64 KiB ufunc buffer, which the bound's
    # 8 T F bytes over the measured 8 T (n_fft + 4F) cover from about 9,000 T F on
    @pytest.mark.parametrize("n_fft, hop, samples", [(64, 32, 16000), (255, 7, 8000),
                                                     (256, 1, 4000)])
    def test_render_bound_covers_the_measured_render_peak(self, n_fft, hop, samples):
        wf = Waveform(np.random.default_rng(0).standard_normal(samples), 8000)
        spec = FeatureSpec(n_fft=n_fft, hop=hop)
        frames = spec.grid_for(len(wf)).num_frames
        for bank in (dft_kernel(n_fft), fbsp_kernel(init_params(n_fft), n_fft),
                     fbsp_kernel(FbspParams(1.3, 0.9, dft_grid(n_fft)), n_fft)):
            tracemalloc.start()
            try:
                spec.spectrogram(wf, bank)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 8 * frames * (n_fft + 5 * bank.num_filters)

    def test_render_beside_its_bank_is_refused_before_the_build(self, tmp_path, monkeypatch,
                                                               capsys):
        # 40 frames of 64 taps from 1312 samples: the 33 x 64 build (109,824 B) and the
        # render with its clip (83,776 B) each fit in 120,000 B, but not the render beside
        # the bank and the clip it holds (151,360 B)
        wav = tmp_path / "x.wav"
        assert main(["gen", "--duration", "0.164", "--out", str(wav)]) == 0
        builds = []
        monkeypatch.setattr(fbsplab.cli, "fbsp_kernel", lambda *a: builds.append(a)
                            or fbsp_kernel(*a))
        monkeypatch.setattr(FeatureSpec, "spectrogram", lambda *a: pytest.fail("rendered"))
        monkeypatch.setattr(fbsplab.cli, "_physical_memory", lambda: 120_000)
        start = time.perf_counter()
        code = main(["spectrogram", "--input", str(wav), "--n-fft", "64", "--hop", "32",
                     "--out", str(tmp_path / "s.csv")])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert builds == []
        assert ("a spectrogram of 40 frames at n_fft 64 and hop 32 with its 33 x 64 bank needs "
                "about 151360 bytes to render, more than the 120000 bytes of physical memory"
                in capsys.readouterr().err)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.wav", "x.wav.run.json"]

    # from before the bank build through the render; the bound leaves out numpy's fixed
    # 64 KiB ufunc buffer, so 40 frames at (64, 32) peak at 145,424 B against 140,864 B
    @pytest.mark.parametrize("n_fft, hop", [(512, 256), (1024, 512)])
    def test_render_and_bank_bound_covers_the_measured_peak(self, n_fft, hop):
        wf = Waveform(np.random.default_rng(0).standard_normal(80000), 16000)
        spec = FeatureSpec(n_fft=n_fft, hop=hop)
        frames, filters = spec.grid_for(len(wf)).num_frames, n_fft // 2 + 1
        for build in (lambda: dft_kernel(n_fft),
                      lambda: fbsp_kernel(init_params(n_fft), n_fft),
                      lambda: fbsp_kernel(FbspParams(1.3, 0.9, dft_grid(n_fft)), n_fft)):
            tracemalloc.start()
            try:
                spec.spectrogram(wf, build())
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 32 * filters * n_fft + 8 * frames * (n_fft + 5 * filters)

    # the whole command after one untraced call: the WAV read, the bank build, the render
    # and the CSV writer; without the 8 bytes a sample of the clip that stays alive through
    # the render, the command peaked at 1.14 x the render bound here
    def test_render_bound_covers_the_command_holding_its_clip(self, tmp_path, monkeypatch):
        wav, out = str(tmp_path / "x.wav"), str(tmp_path / "s.csv")
        assert main(["gen", "--duration", "30", "--sample-rate", "16000", "--out", wav]) == 0
        argv = ["spectrogram", "--input", wav, "--n-fft", "256", "--hop", "256", "--out", out]
        bounds = []
        check = fbsplab.cli._require_memory
        monkeypatch.setattr(fbsplab.cli, "_require_memory", lambda subject, verb, needed:
                            bounds.append((verb, needed)) or check(subject, verb, needed))
        assert main(argv) == 0
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= dict(bounds)["render"]

    def test_gen_larger_than_memory_is_refused_before_any_sample(self, tmp_path, monkeypatch,
                                                                 capsys):
        monkeypatch.setattr(fbsplab.cli, "_physical_memory", lambda: 10 ** 6)
        monkeypatch.setattr(fbsplab.cli, "generate", lambda *a, **k: pytest.fail("generated"))
        out = tmp_path / "big.wav"
        start = time.perf_counter()
        code = main(["gen", "--duration", "5", "--out", str(out)])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert ("a sine clip of 40000 samples needs about 1920000 bytes to generate, more than "
                "the 1000000 bytes of physical memory" in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []
        monkeypatch.setattr(fbsplab.cli, "generate", generate)
        assert main(["gen", "--duration", "0.1", "--out", str(out)]) == 0

    # per sample, after one untraced call: numpy.fft's first use in a process costs about
    # 0.9 MB once, which the bound's margin over band_noise's 5.7 covers from 400,000 samples on
    @pytest.mark.parametrize("kind", sorted(_GENERATOR_PARAMS))
    @pytest.mark.parametrize("encoding", ["pcm16", "float32"])
    def test_gen_bound_covers_the_measured_peak(self, tmp_path, kind, encoding):
        defaults = {key: default for key, _flag, _kind, default, _help in fbsplab.cli._GEN_KNOBS}
        params = {key: defaults[key] for key in _GENERATOR_PARAMS[kind]}
        path, samples = str(tmp_path / "x.wav"), 16000
        write_wav(path, generate(kind, params, 2.0, 8000), encoding)
        tracemalloc.start()
        try:
            write_wav(path, generate(kind, params, 2.0, 8000), encoding)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _GEN_PEAK_FACTOR * 8 * samples

    @pytest.mark.parametrize("command", [["perturb", "--snr-db", "10"],
                                         ["spectrogram", "--n-fft", "64", "--hop", "64"]])
    def test_input_wav_larger_than_memory_is_refused_before_the_read(
            self, tmp_path, monkeypatch, capsys, command):
        # a 4 s PCM16 clip at 8 kHz is a 64,044-byte WAV, 1,088,748 bytes at the read
        # bound's 17 per byte; a 2 s one is 32,044 bytes, 544,748 at 17
        wav = tmp_path / "x.wav"
        assert main(["gen", "--duration", "4", "--out", str(wav)]) == 0
        monkeypatch.setattr(fbsplab.cli, "_physical_memory", lambda: 10 ** 6)
        out = tmp_path / "out"
        with monkeypatch.context() as patch:
            patch.setattr(fbsplab.cli, "read_wav", lambda path: pytest.fail("read the WAV"))
            start = time.perf_counter()
            code = main([*command, "--input", str(wav), "--out", str(out)])
            assert time.perf_counter() - start < 1.0
        assert code == 2
        assert ("the input WAV of 64044 bytes needs about 1088748 bytes to read, more than "
                "the 1000000 bytes of physical memory" in capsys.readouterr().err)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.wav", "x.wav.run.json"]
        assert main(["gen", "--duration", "2", "--out", str(wav)]) == 0
        assert main([*command, "--input", str(wav), "--out", str(out)]) == 0

    # per byte of the file, after one untraced call: spectrogram reads before its render
    # bound, and perturb holds the clip it read while it adds noise or low-passes
    @pytest.mark.parametrize("step", [[], ["--snr-db", "10"], ["--cutoff-hz", "1000"]],
                             ids=["read", "awgn", "lowpass"])
    @pytest.mark.parametrize("encoding", ["pcm16", "float32"])
    def test_wav_read_bound_covers_the_measured_peak(self, tmp_path, step, encoding):
        wav, out = str(tmp_path / "x.wav"), str(tmp_path / "y.wav")
        write_wav(wav, Waveform(0.5 * np.sin(0.3 * np.arange(160000)), 8000), encoding)
        argv = ["perturb", "--input", wav, *step, "--encoding", encoding, "--out", out]
        work = (lambda: main(argv)) if step else (lambda: read_wav(wav))
        work()
        tracemalloc.start()
        try:
            work()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= fbsplab.cli._READ_PEAK_FACTOR * os.path.getsize(wav)


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

    # --mode stft builds the fbsp bank at its STFT point, the bank --mode fbsp builds
    # without --params, so the two write the same bytes
    @pytest.mark.parametrize("n_fft", [64, 63])
    @pytest.mark.parametrize("gen_args", [["--kind", "sine", "--frequency", "500"],
                                          ["--kind", "band_noise", "--encoding", "float32"]])
    def test_stft_and_fbsp_modes_write_the_same_files(self, tmp_path, gen_args, n_fft):
        wav = str(tmp_path / "x.wav")
        assert main(["gen", *gen_args, "--duration", "0.3", "--out", wav]) == 0
        written = []
        for mode in ("stft", "fbsp"):
            out = tmp_path / f"{mode}.csv"
            assert main(["spectrogram", "--input", wav, "--mode", mode, "--n-fft", str(n_fft),
                         "--out", str(out)]) == 0
            written.append((out.read_bytes(), (tmp_path / f"{mode}.csv.meta.json").read_bytes()))
        assert written[0] == written[1]
        assert json.loads(written[0][1])["bank"]["m"] == 0.0

    def test_stft_mode_matches_the_rfft_of_hann_frames(self, tmp_path):
        wav, out = str(tmp_path / "chirp.wav"), tmp_path / "s.csv"
        assert main(["gen", "--kind", "chirp", "--duration", "2", "--sample-rate", "16000",
                     "--encoding", "float32", "--out", wav]) == 0
        assert main(["spectrogram", "--input", wav, "--mode", "stft", "--n-fft", "1024",
                     "--out", str(out)]) == 0
        _, values = read_csv_matrix(out)
        meta = json.loads((tmp_path / "s.csv.meta.json").read_text())
        samples, n_fft, hop = read_wav(wav).samples, 1024, 512
        starts = hop * np.arange((len(samples) - n_fft) // hop + 1)
        hann = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(n_fft) / n_fft)
        coeffs = np.fft.rfft(samples[starts[:, None] + np.arange(n_fft)] * hann, axis=1)
        power = np.abs(coeffs.T) ** 2 / n_fft + meta["eps"]
        np.testing.assert_allclose(np.exp(values), power, rtol=1e-6)

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

    @pytest.mark.parametrize("window", ["rectangular", "hann"])
    def test_stft_and_fbsp_modes_write_the_same_response(self, tmp_path, window):
        written = []
        for mode in ("stft", "fbsp"):
            out = tmp_path / f"{mode}.csv"
            assert main(["freq-response", "--mode", mode, "--n-fft", "64", "--window", window,
                         "--out", str(out)]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]


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

    @pytest.mark.parametrize("samples", [0, 400])
    def test_awgn_on_an_empty_or_silent_clip_is_refused(self, tmp_path, samples):
        # an empty clip's mean power is NaN, which passed a test for 0: numpy
        # warned twice and an empty WAV was written with exit 0
        wav, out = tmp_path / "x.wav", tmp_path / "y.wav"
        write_wav(str(wav), Waveform(np.zeros(samples), 8000))
        proc = run("perturb", "--input", str(wav), "--snr-db", "10", "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr == "error: cannot set an SNR against an all-zero signal\n"
        assert not out.exists()

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

    def test_divergence_exits_3_with_its_message_alone(self, tmp_path):
        # the head's weights leave float range at epoch 1: the trainer's
        # finiteness check reports it, and numpy warns of nothing
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(SMALL_RUN_CONFIG))
        proc = run("train", "--config", str(cfg), "--lr", "1e308", "--epochs", "5",
                   "--freeze-epochs", "0", "--out-params", str(tmp_path / "p.json"),
                   "--out-log", str(tmp_path / "log.csv"))
        assert proc.returncode == 3
        assert proc.stderr == "numerical failure: objective became non-finite at epoch 1\n"

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


# ---------------------------------------------------------------------------
# every config value is typed by its knob row
# ---------------------------------------------------------------------------

LOW, HIGH = SMALL_RUN_CONFIG["task"]["classes"]
NO_KIND = {key: value for key, value in LOW.items() if key != "kind"}

MISTYPED = [
    # each of these ended in a traceback with exit 1 while commands cast by hand
    ("gen", {"duration": None}, "duration must be a number, got None"),
    ("gen", {"duration": [1]}, "duration must be a number, got [1]"),
    ("spectrogram", {"eps": None}, "eps must be a number, got None"),
    ("gradcheck", {"m": None}, "m must be a number, got None"),
    ("gradcheck", {"m": [1]}, "m must be a number, got [1]"),
    ("perturb", {"snr_db": [3]}, "snr_db must be text, got [3]"),
    ("perturb", {"cutoff_hz": [3]}, "cutoff_hz must be a number, got [3]"),
    ("train", {"train": {"lr": None}}, "train.lr must be a number, got None"),
    ("train", {"task": {"classes": 5}}, "task.classes must be a list of class objects, got 5"),
    ("train", {"task": {"duration": None}}, "task.duration must be a number, got None"),
    ("train", {"task": {"snr_range": [1]}}, "task.snr_range must be a [lo, hi] pair"),
    ("train", {"features": {"eps": None}}, "features.eps must be a number, got None"),
    ("train", {"task": {"classes": [{**LOW, "amplitude": 5}, HIGH]}},
     "task.classes[0].amplitude must be a [lo, hi] pair of numbers, got 5"),
    ("train", {"features": 5}, "features must be a JSON object, got 5"),
    ("train", {"features": [1]}, "features must be a JSON object, got [1]"),
    ("sweep", {"sweep": {"axis": 5}}, "sweep.axis must be a list of numbers, got 5"),
    ("sweep", {"sweep": {"axis": [None]}}, "sweep.axis[0] must be a number, got None"),
    # these were read as 1 Hz, as the unknown keys "l, r" and as "error: 'kind'"
    ("gen", {"sample_rate": True}, "sample_rate must be a number, got True"),
    ("train", {"train": "lr"}, "train must be a JSON object, got 'lr'"),
    ("train", {"task": {"classes": [NO_KIND, HIGH]}}, "task.classes[0] is missing kind"),
    # null only where the default is null
    ("gen", {"seed": None}, "seed must be a whole number, got None"),
    ("spectrogram", {"mode": None}, "mode must be one of stft, fbsp, got None"),
    # the config, each section and each class entry is an object without unknown keys
    ("sweep", {"task": 5}, "task must be a JSON object, got 5"),
    ("sweep", {"sweep": [1]}, "sweep must be a JSON object, got [1]"),
    ("train", {"task": {"x": 1}}, "unknown task config keys: x"),
    ("sweep", {"sweep": {"x": 1}}, "unknown sweep config keys: x"),
    ("sweep", {"x": 1}, "unknown sweep config keys: x"),
    ("gen", [1], "c.json must be a JSON object"),
    ("train", {"task": {"classes": [5]}}, "task.classes[0] must be a JSON object, got 5"),
    ("train", {"task": {"classes": [{**LOW, "x": 1}, HIGH]}},
     "unknown task.classes[0] config keys: x"),
]


def run_with_config(tmp_path, command, config):
    """main() on ``config``, merged section by section into SMALL_RUN_CONFIG for
    train and sweep, with its outputs in tmp_path."""
    if command in ("train", "sweep"):
        base = json.loads(json.dumps(SMALL_RUN_CONFIG))
        for section, values in config.items():
            if isinstance(values, dict) and isinstance(base.get(section), dict):
                base[section].update(values)
            else:
                base[section] = values
        config = base
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    outputs = (["--out-params", str(tmp_path / "p.json"), "--out-log", str(tmp_path / "l.csv")]
               if command == "train" else ["--out", str(tmp_path / "out")])
    return main([command, "--config", str(path)] + outputs)


@pytest.mark.parametrize("command, config, message", MISTYPED)
def test_mistyped_config_value_is_input_error(tmp_path, capsys, command, config, message):
    if command in ("spectrogram", "perturb"):
        config = {"input": str(tmp_path / "in.wav"), **config}
    assert run_with_config(tmp_path, command, config) == 2
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


def test_a_sweep_builds_its_cells_twice_and_sweeps_once(tmp_path, monkeypatch):
    # the early check, then one paired pass that scores both legs; each builds
    # the cells of the task's one sample rate
    calls = []

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(fbsplab.cli, "check_axis", counted("check_axis", fbsplab.cli.check_axis))
    monkeypatch.setattr(fbsplab.perturb, "check_axis",
                        counted("check_axis", fbsplab.perturb.check_axis))
    monkeypatch.setattr(fbsplab.cli, "robustness_sweep",
                        counted("robustness_sweep", fbsplab.cli.robustness_sweep))
    assert run_with_config(tmp_path, "sweep", {"sweep": {"kind": "lowpass"}}) == 0
    assert calls == ["check_axis", "robustness_sweep", "check_axis"]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "c.json", "out.run.json", "out_fbsp.csv", "out_stft.csv"]


def test_a_sweep_perturbs_the_clean_draw_of_each_validation_clip(tmp_path, monkeypatch):
    # a task with snr_range stores each clip with its training noise; the sweep's axis
    # states the SNR of the clips it scores, so it perturbs their clean draws
    received = []
    sweep = fbsplab.cli.robustness_sweep
    monkeypatch.setattr(fbsplab.cli, "robustness_sweep", lambda kind, axis, models, waveforms,
                        *rest, **kw: received.extend(waveforms)
                        or sweep(kind, axis, models, waveforms, *rest, **kw))
    snr_range = [0.0, 10.0]
    assert run_with_config(tmp_path, "sweep", {"task": {"snr_range": snr_range},
                                               "sweep": {"axis": [10]}}) == 0
    task = dict(SMALL_RUN_CONFIG["task"])
    classes = [fbsplab.training.ClassSpec(**entry) for entry in task.pop("classes")]
    clean = fbsplab.training.make_task(classes, **task)
    noisy = fbsplab.training.make_task(classes, **task, snr_range=snr_range)
    assert len(received) == len(clean.val_indices) > 0
    for wf, i in zip(received, clean.val_indices):
        assert np.array_equal(wf.samples, clean.waveforms[i].samples)
        assert not np.array_equal(wf.samples, noisy.waveforms[i].samples)


def test_empty_sweep_axis_fails_before_the_corpus(tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("generated the corpus or trained before the axis was checked")

    monkeypatch.setattr(fbsplab.cli, "make_task", no_work)
    monkeypatch.setattr(fbsplab.cli, "train", no_work)
    assert run_with_config(tmp_path, "sweep", {"sweep": {"axis": []}}) == 2
    assert "sweep.axis must hold at least one value, got []" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


def test_bad_sweep_kind_fails_before_training(tmp_path, capsys, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("trained before the sweep kind was checked")

    monkeypatch.setattr(fbsplab.cli, "train", no_training)
    assert run_with_config(tmp_path, "sweep", {"sweep": {"kind": "x"}}) == 2
    assert "sweep.kind must be one of awgn, lowpass, got 'x'" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


@pytest.mark.parametrize("sweep, message", [
    ({"kind": "lowpass", "axis": [0]}, "cutoff 0.0 Hz must lie inside (0, 4000.0) Hz"),
    ({"kind": "lowpass", "order": 0, "axis": [1000]}, "order must be a positive integer, got 0"),
    ({"kind": "lowpass", "order": 0}, "order must be a positive integer, got 0"),
    ({"kind": "awgn", "axis": [10, "-inf"]}, "snr_db -inf dB puts the noise level outside"),
    ({"kind": "awgn", "axis": ["nan"]}, "snr_db must not be NaN"),
    ({"kind": "awgn", "order": -5}, "sweep.order must be a positive integer, got -5"),
    ({"kind": "awgn", "order": 101}, "sweep.order must be at most 100, got 101"),
    ({"kind": "lowpass", "axis": [5000], "order": 0},
     "sweep.order must be a positive integer, got 0"),
])
def test_bad_sweep_axis_fails_before_the_corpus(tmp_path, capsys, monkeypatch, sweep, message):
    def no_work(*args, **kwargs):
        raise AssertionError("generated the corpus or trained before the axis was checked")

    monkeypatch.setattr(fbsplab.cli, "make_task", no_work)
    monkeypatch.setattr(fbsplab.cli, "train", no_work)
    assert run_with_config(tmp_path, "sweep", {"sweep": sweep}) == 2
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


@pytest.mark.parametrize("level", ["-inf", "-4000", "4000", "1e308", "-3100"])
def test_snr_level_outside_float_range_is_input_error(tmp_path, capsys, level):
    wav = tmp_path / "in.wav"
    assert main(["gen", "--duration", "0.5", "--out", str(wav)]) == 0
    out = tmp_path / "p.wav"
    assert main(["perturb", "--input", str(wav), f"--snr-db={level}", "--out", str(out)]) == 2
    assert "snr_db" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.wav", "in.wav.run.json"]


@pytest.mark.parametrize("level, message", [
    ("foo", "snr_db must be a number, got 'foo'"),
    ("-4000", "snr_db -4000.0 dB puts the noise level outside float range"),
])
def test_bad_snr_level_is_refused_before_the_read(tmp_path, monkeypatch, capsys, level, message):
    wav = tmp_path / "in.wav"
    assert main(["gen", "--duration", "0.5", "--out", str(wav)]) == 0
    monkeypatch.setattr(fbsplab.cli, "read_wav", lambda path: pytest.fail("read the WAV"))
    start = time.perf_counter()
    assert main(["perturb", "--input", str(wav), f"--snr-db={level}",
                 "--out", str(tmp_path / "p.wav")]) == 2
    assert time.perf_counter() - start < 1.0
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.wav", "in.wav.run.json"]


@pytest.mark.parametrize("argv", [["gen", "--amplitude", "1e39"], ["perturb", "--snr-db=-800"]])
def test_float32_output_beyond_its_range_is_input_error(tmp_path, capsys, argv):
    wav = tmp_path / "in.wav"
    assert main(["gen", "--duration", "0.5", "--out", str(wav)]) == 0
    out = tmp_path / "o.wav"
    argv = argv + ["--input", str(wav)] if argv[0] == "perturb" else argv
    assert main(argv + ["--encoding", "float32", "--out", str(out)]) == 2
    assert "float32 encoding cannot hold a sample of magnitude" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.wav", "in.wav.run.json"]


@pytest.mark.parametrize("key, value, message", [
    ("m", None, "m must be a number, got None"),
    ("m", True, "m must be a number, got True"),
    ("f_b", [1.0], "f_b must be a number, got [1.0]"),
    ("f_c", [0.0, {"x": 1}], "f_c[1] must be a number, got {'x': 1}"),
])
def test_mistyped_params_file_is_input_error(tmp_path, capsys, key, value, message):
    path = tmp_path / "p.json"
    save_params(path, init_params(16), 16)
    doc = json.loads(path.read_text())
    doc[key] = value
    path.write_text(json.dumps(doc))
    assert main(["freq-response", "--params", str(path), "--out", str(tmp_path / "r.csv")]) == 2
    assert f"{path}: {message}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.json"]


# ---------------------------------------------------------------------------
# memory bounds of freq-response, train and sweep
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n_fft", [64, 255, 256])
@pytest.mark.parametrize("default_probes", [False, True])
def test_response_bound_covers_the_measured_peak(n_fft, default_probes):
    filters = n_fft // 2 + 1
    probes = filters if default_probes else 3
    bound = RESPONSE_PEAK_FACTOR * 16 * (filters * n_fft + (n_fft + filters) * probes)
    for build in (lambda: dft_kernel(n_fft),
                  lambda: fbsp_kernel(init_params(n_fft), n_fft),
                  lambda: fbsp_kernel(FbspParams(1.3, 0.9, dft_grid(n_fft)), n_fft)):
        for window in ("rectangular", "hann"):
            tracemalloc.start()
            try:
                bank = build()
                tracemalloc.reset_peak()  # the bank stays counted
                frequency_response(bank, WindowSpec(window, n_fft), probes)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound


# the whole command after one untraced call: the bank build, the response and the CSV
# writer, which formats one (P, F + 2) float64 matrix of the probes, gains and maxima;
# measured at 0.65 of the bound. The 0.26 MB bound at n_fft 64 models the response
# alone: the command peaked at 0.94 of it writing value by value, 1.41 through the
# matrix path's fixed working set
@pytest.mark.parametrize("n_fft", [255, 256])
def test_response_bound_covers_the_command_and_its_csv(tmp_path, monkeypatch, n_fft):
    argv = ["freq-response", "--n-fft", str(n_fft), "--out", str(tmp_path / "r.csv")]
    bounds = []
    check = fbsplab.cli._require_memory
    monkeypatch.setattr(fbsplab.cli, "_require_memory", lambda subject, verb, needed:
                        bounds.append((verb, needed)) or check(subject, verb, needed))
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= dict(bounds)["compute"]


def test_response_larger_than_memory_is_refused_after_the_build_check(
        tmp_path, monkeypatch, capsys):
    # at n_fft 64 the bound is about 0.11 MB for the build, 0.26 MB for the
    # response at the default 33 probes and 0.12 MB at 3 probes
    monkeypatch.setattr(fbsplab.cli, "_physical_memory", lambda: 200_000)
    out = tmp_path / "r.csv"
    assert main(["freq-response", "--n-fft", "64", "--out", str(out)]) == 2
    assert "the response of n_fft 64 at num_probes 33 needs about" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert main(["freq-response", "--n-fft", "64", "--num-probes", "3", "--out", str(out)]) == 0


@pytest.mark.parametrize("mode", ["stft", "fbsp"])
def test_response_larger_than_memory_is_refused_before_the_build(
        tmp_path, monkeypatch, capsys, mode):
    monkeypatch.setattr(fbsplab.cli, "_physical_memory", lambda: 200_000)
    monkeypatch.setattr(fbsplab.cli, "fbsp_kernel", lambda *a: pytest.fail("built the bank"))
    out = tmp_path / "r.csv"
    assert main(["freq-response", "--mode", mode, "--n-fft", "64", "--out", str(out)]) == 2
    assert "the response of n_fft 64 at num_probes 33" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_run_bank_larger_than_memory_is_refused_before_the_corpus(
        tmp_path, monkeypatch, capsys, command):
    def no_corpus(*args, **kwargs):
        raise AssertionError("generated the corpus before the bank bound")

    # a 513 x 1024 bank needs about 27 MB to build and 42 MB at its gradient, a 33 x 64
    # one about 0.11 MB and 0.17 MB; the run bound counts the gradient
    monkeypatch.setattr(fbsplab.cli, "_physical_memory", lambda: 10 ** 6)
    with monkeypatch.context() as patch:
        patch.setattr(fbsplab.cli, "make_task", no_corpus)
        code = run_with_config(tmp_path, command, {"features": {"n_fft": 1024, "hop": 512}})
    assert code == 2
    assert ("a task of 8 clips framed at features.n_fft 1024 and features.hop 512 (16 frames) "
            "needs about") in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]
    if command == "train":
        assert run_with_config(tmp_path, "train", {}) == 0


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_corpus_larger_than_memory_is_refused_before_it_is_generated(
        tmp_path, monkeypatch, capsys, command):
    def no_corpus(*args, **kwargs):
        raise AssertionError("generated the corpus before the corpus bound")

    # the default task is 3 classes x 40 clips x 0.75 s at 8 kHz, 44,880 frames of 32 taps
    # at hop 16; the run bound counts no corpus, since no run holds it, and comes to 24.1 MB;
    # a 17 x 32 bank needs about 28 KB to build
    monkeypatch.setattr(fbsplab.cli, "_physical_memory", lambda: 10 ** 6)
    monkeypatch.setattr(fbsplab.cli, "make_task", no_corpus)
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"features": {"n_fft": 32, "hop": 16}}))
    outputs = (["--out-params", str(tmp_path / "p.json"), "--out-log", str(tmp_path / "l.csv")]
               if command == "train" else ["--out", str(tmp_path / "out")])
    assert main([command, "--config", str(path)] + outputs) == 2
    assert ("a task of 120 clips framed at features.n_fft 32 and features.hop 16 (44880 frames) "
            "needs about 24116992 bytes to train, more than the 1000000 bytes of physical "
            "memory") in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_working_set_larger_than_memory_is_refused_before_the_corpus(
        tmp_path, monkeypatch, capsys, command):
    def no_corpus(*args, **kwargs):
        raise AssertionError("generated the corpus before the working-set bound")

    # the small task's 8 clips of 1600 samples stack 392 frames of 64 taps at
    # hop 32, about 0.88 MB with what main holds, the trainer's (T, 66) outputs, one
    # group's scratch and the bank at its gradient, but 12,296 at hop 1, about 13.9 MB
    monkeypatch.setattr(fbsplab.cli, "_physical_memory", lambda: 10 ** 6)
    with monkeypatch.context() as patch:
        patch.setattr(fbsplab.cli, "make_task", no_corpus)
        assert run_with_config(tmp_path, command, {"features": {"hop": 1}}) == 2
    assert ("a task of 8 clips framed at features.n_fft 64 and features.hop 1 "
            "(12296 frames) needs about 13866640 bytes to train, more than the 1000000 "
            "bytes of physical memory") in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]
    assert run_with_config(tmp_path, command, {}) == 0


# The stacked frames and the (T, 2F) outputs grow with T; the scratch holds one clip group
# of at most transform.GROUP_ROWS rows and does not, so the peak grows by less than
# 8 dT (n_fft + 2F). The slack covers the (clips, F) features and cotangents, which grow
# with the clip count by about 1.6 KB a clip here, 128 KB over the 80 added clips.
def test_train_bound_covers_the_measured_peak():
    features = FeatureSpec(n_fft=64, hop=32)
    filters, slack = 33, 256 * 1024
    classes = [fbsplab.training.ClassSpec("low", "tone", 300.0, 600.0),
               fbsplab.training.ClassSpec("high", "band_noise", 1500.0, 3000.0)]
    rows, peaks = [], []
    for samples_per_class in (40, 80):  # T = 3920 and 7840 frames
        corpus = fbsplab.training.make_task(classes, samples_per_class, duration=0.2)
        rows.append(len(corpus) * features.grid_for(1600).num_frames)
        tracemalloc.start()
        try:
            fbsplab.training.train(corpus, fbsplab.training.TrainConfig(epochs=2, freeze_epochs=1),
                                   features)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[-1] <= 8 * rows[-1] * (features.n_fft + 4 * filters)
    assert peaks[1] - peaks[0] < 8 * (rows[1] - rows[0]) * (features.n_fft + 2 * filters) + slack


# _run_inputs' run bound, what main holds + 8 T n_fft + 16 F (T + G + 5 n_fft), against
# making the task and training on it: the folded stacks, the outputs and one group's
# scratch are most of the peak at n_fft 64, and no clip is held but the one being framed,
# so the bound neither under- nor much over-counts it
@pytest.mark.parametrize("samples_per_class", [40, 80])  # T = 3920 and 7840 frames
def test_train_bound_is_the_measured_working_set(monkeypatch, samples_per_class):
    classes = [{"name": "low", "kind": "tone", "low_hz": 300.0, "high_hz": 600.0},
               {"name": "high", "kind": "band_noise", "low_hz": 1500.0, "high_hz": 3000.0}]
    cfg = {"task": {"classes": classes, "samples_per_class": samples_per_class,
                    "duration": 0.2, "sample_rate": 8000.0},
           "features": {"n_fft": 64, "hop": 32}, "train": {"epochs": 2, "freeze_epochs": 1}}
    fbsplab.cli._run_inputs(cfg)  # first-use imports and caches stay out of the trace
    bounds = []
    check = fbsplab.cli._require_memory
    monkeypatch.setattr(fbsplab.cli, "_require_memory", lambda subject, verb, needed:
                        bounds.append((verb, needed)) or check(subject, verb, needed))
    tracemalloc.start()
    try:
        corpus, features, config = fbsplab.cli._run_inputs(cfg)
        fbsplab.training.train(corpus, config, features)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    [(verb, bound)] = bounds
    assert verb == "train"
    assert bound == (fbsplab.cli._MAIN_HELD_BYTES + 8 * len(corpus) * 49 * 64
                     + 16 * 33 * (len(corpus) * 49 + 1024 + 5 * 64))
    assert 0.8 * bound <= peak <= bound


# The whole command on 8 clips of the default 0.75 s, traced after a warm run: at n_fft 1024
# the bank at its gradient is most of the peak, at n_fft 64 the trainer's working set and
# the parser and config main holds are. No run holds the corpus.
@pytest.mark.parametrize("command, n_fft", [("train", 64), ("train", 256), ("train", 1024),
                                            ("sweep", 256)])
def test_run_bound_covers_the_measured_command_peak(tmp_path, monkeypatch, command, n_fft):
    config = {"task": {"duration": 0.75}, "features": {"n_fft": n_fft, "hop": n_fft // 2}}
    assert run_with_config(tmp_path, "train", config) == 0
    bounds = []
    check = fbsplab.cli._require_memory
    monkeypatch.setattr(fbsplab.cli, "_require_memory", lambda subject, verb, needed:
                        bounds.append(needed) or check(subject, verb, needed))
    tracemalloc.start()
    try:
        assert run_with_config(tmp_path, command, config) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = max(bounds)
    assert peak <= bound <= 1.3 * peak


# Once its input is read, each command makes at most one memory refusal, on its whole peak;
# spectrogram bounds its WAV read before it knows the clip's frame count
@pytest.mark.parametrize("command, verbs", [
    ("gen", ["generate"]), ("spectrogram", ["read", "render"]), ("freq-response", ["compute"]),
    ("perturb", ["read"]), ("train", ["train"]), ("sweep", ["train"]), ("gradcheck", []),
])
def test_each_command_makes_one_memory_refusal(tmp_path, monkeypatch, command, verbs):
    wav, out = str(tmp_path / "x.wav"), str(tmp_path / "out")
    assert main(["gen", "--duration", "0.2", "--out", wav]) == 0
    seen = []
    check = fbsplab.cli._require_memory
    monkeypatch.setattr(fbsplab.cli, "_require_memory", lambda subject, verb, needed:
                        seen.append(verb) or check(subject, verb, needed))
    argv = {"gen": ["gen", "--duration", "0.2", "--out", out + ".wav"],
            "spectrogram": ["spectrogram", "--input", wav, "--n-fft", "64", "--out", out],
            "freq-response": ["freq-response", "--n-fft", "64", "--out", out],
            "perturb": ["perturb", "--input", wav, "--snr-db", "10", "--out", out + ".wav"],
            "gradcheck": ["gradcheck", "--n-fft", "32", "--draws", "0", "--out", out]}
    if command in ("train", "sweep"):
        assert run_with_config(tmp_path, command, {"sweep": {"axis": [10]}} if command == "sweep"
                               else {}) == 0
    else:
        assert main(argv[command]) == 0
    assert seen == verbs


# ---------------------------------------------------------------------------
# config merging property
# ---------------------------------------------------------------------------
#
# A knob is a path of config keys, ("duration",) or ("train", "lr"), one per
# knob row.

NUMBER = st.floats(allow_nan=False) | st.integers(-1000, 1000)
PAIR = st.lists(NUMBER, min_size=2, max_size=2)
CLASS_ENTRY = st.fixed_dictionaries(
    {"name": st.text(max_size=6), "kind": st.text(max_size=6),
     "low_hz": NUMBER, "high_hz": NUMBER}, optional={"amplitude": PAIR})
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=3),
    max_leaves=8)


def outputs_of(command):
    if command == "train":
        return ["--out-params", "p.json", "--out-log", "l.csv"]
    return ["--out", "o"]


def knob_table(command):
    """{path: (flag, kind, default)}, a path per knob row of the command."""
    return {tuple(key.split(".")): (flag, kind, default)
            for key, flag, kind, default, _help in build_parser().parse_args(
                [command, *outputs_of(command)]).knobs}


def values_of(kind, default, flag=False):
    """Values a config file (or, with ``flag``, a flag) may give a knob of this kind."""
    if isinstance(kind, list):
        values = st.sampled_from(kind)
    elif kind is int:
        values = st.integers(-10 ** 6, 10 ** 6)
    elif kind is float:
        values = NUMBER
    elif kind in (None, str):
        values = st.text(max_size=8)
    elif kind is list:
        values = st.lists(NUMBER, min_size=1 if flag else 0, max_size=4)
    elif kind == "classes":
        values = st.lists(CLASS_ENTRY, max_size=3)
    else:
        values = NUMBER | PAIR  # snr_range
    return values if flag or default is not None else st.none() | values


def has_kind(value, kind, default) -> bool:
    if value is None:
        return default is None
    if isinstance(kind, list):
        return value in kind
    if kind is list:
        return type(value) is list and all(type(v) is float for v in value)
    if kind == "classes":
        return type(value) is list and all(
            type(e) is dict and {type(e[k]) for k in ("name", "kind")} == {str}
            and {type(e[k]) for k in ("low_hz", "high_hz")} == {float}
            and is_pair(e.get("amplitude", (0.0, 0.0))) for e in value)
    if kind == "snr_range":
        return type(value) is float or is_pair(value)
    return type(value) is {None: str}.get(kind, kind)


def is_pair(value) -> bool:
    return type(value) is tuple and len(value) == 2 and all(type(v) is float for v in value)


def flag_text(value) -> str:
    if isinstance(value, list):
        return ",".join(map(repr, value))
    return value if isinstance(value, str) else repr(value)


def at(tree: dict, path: tuple):
    for key in path:
        tree = tree[key]
    return tree


def put(tree: dict, path: tuple, value) -> None:
    for key in path[:-1]:
        tree = tree.setdefault(key, {})
    tree[path[-1]] = value


def resolve(directory, command, config, flags=()):
    path = directory / "c.json"
    path.write_text(json.dumps(config))
    return fbsplab.cli._resolve(build_parser().parse_args(
        [command, *outputs_of(command), "--config", str(path), *flags]))


@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_resolve_merges_flags_over_config_over_defaults(tmp_path_factory, data):
    directory = tmp_path_factory.mktemp("merge")
    command = data.draw(st.sampled_from(list(SURFACE)))
    table = knob_table(command)
    config, flags, expected = {}, [], {}
    for path, (flag, kind, default) in table.items():
        if kind is dict:
            continue
        expected[path] = default
        if data.draw(st.booleans()):
            expected[path] = data.draw(values_of(kind, default))
            put(config, path, expected[path])
        if flag and data.draw(st.booleans()):
            expected[path] = data.draw(values_of(kind, default, flag=True))
            flags.append(f"{flag}={flag_text(expected[path])}")

    resolved = resolve(directory, command, config, flags)
    for path, value in expected.items():
        flag, kind, default = table[path]
        assert has_kind(at(resolved, path), kind, default), path
        assert _jsonable(at(resolved, path)) == _jsonable(value), path

    sidecar = directory / "s.json"
    write_json(str(sidecar), {"command": command, "config": resolved})
    assert resolve(directory, command, json.loads(sidecar.read_text())) == resolved


@settings(max_examples=300, deadline=None, database=None)
@given(st.data())
def test_any_json_value_at_a_knob_is_typed_or_named(tmp_path_factory, data):
    directory = tmp_path_factory.mktemp("any")
    command = data.draw(st.sampled_from(list(SURFACE)))
    table = knob_table(command)
    path = data.draw(st.sampled_from(sorted(table)))
    config = {}
    put(config, path, data.draw(JSON))
    try:
        resolved = resolve(directory, command, config)
    except ValueError as err:
        assert path[-1] in str(err)
    else:
        flag, kind, default = table[path]
        assert kind is dict or has_kind(at(resolved, path), kind, default)


def test_huge_butterworth_order_is_refused_quickly(tmp_path, capsys):
    # refused whether the order would filter or, beside --snr-db, go unused
    wav = tmp_path / "in.wav"
    assert main(["gen", "--duration", "0.5", "--out", str(wav)]) == 0
    for mode, order, message in [
        (["--cutoff-hz", "1000"], "3000000", "order must be at most 100, got 3000000"),
        (["--snr-db", "10"], "0", "order must be a positive integer, got 0"),
        (["--snr-db", "10"], "100000", "order must be at most 100, got 100000"),
    ]:
        start = time.perf_counter()
        assert main(["perturb", "--input", str(wav), *mode, "--order", order,
                     "--out", str(tmp_path / "o.wav")]) == 2
        assert time.perf_counter() - start < 5.0
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.wav", "in.wav.run.json"]


# at 1e-6 Hz 1 + a1 + a2 rounds to 0 in float64, and 1 - a1 + a2 does 1e-7 Hz below Nyquist
@pytest.mark.parametrize("cutoff", ["1e-6", "3999.9999999"])
def test_cutoff_without_a_stable_filter_is_refused_naming_it(tmp_path, capsys, monkeypatch,
                                                             cutoff):
    def no_work(*args, **kwargs):
        raise AssertionError("generated the corpus or trained before the cutoff was checked")

    message = (f"cutoff_hz {float(cutoff)} at sample rate 8000.0 Hz and order 2 has no stable "
               "float64 Butterworth filter")
    wav = tmp_path / "in.wav"
    assert main(["gen", "--duration", "0.5", "--out", str(wav)]) == 0
    assert main(["perturb", "--input", str(wav), "--cutoff-hz", cutoff, "--order", "2",
                 "--out", str(tmp_path / "o.wav")]) == 2
    assert message in capsys.readouterr().err
    monkeypatch.setattr(fbsplab.cli, "make_task", no_work)
    monkeypatch.setattr(fbsplab.cli, "train", no_work)
    assert main(["sweep", "--kind", "lowpass", "--axis", cutoff, "--order", "2",
                 "--out", str(tmp_path / "s")]) == 2
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.wav", "in.wav.run.json"]


@pytest.mark.parametrize("argv, message", [
    (["--kind", "lowpass", "--order", "3000000"], "order must be at most 100, got 3000000"),
    (["--kind", "awgn", "--axis=-3100"], "snr_db -3100.0 dB puts the noise level outside"),
    (["--kind", "awgn", "--order", "-5"], "sweep.order must be a positive integer, got -5"),
    (["--kind", "lowpass", "--axis", "5000", "--order", "0"],
     "sweep.order must be a positive integer, got 0"),
])
def test_order_cap_and_subnormal_level_fail_before_the_corpus(tmp_path, capsys, monkeypatch,
                                                              argv, message):
    def no_work(*args, **kwargs):
        raise AssertionError("generated the corpus or trained before the axis was checked")

    monkeypatch.setattr(fbsplab.cli, "make_task", no_work)
    monkeypatch.setattr(fbsplab.cli, "train", no_work)
    assert main(["sweep", *argv, "--out", str(tmp_path / "s")]) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, argv, config, key", [
    ("gen", ["--kind", "sine", "--seed", "-1"], None, "seed"),
    ("gen", ["--kind", "band_noise", "--seed", "-3"], None, "seed"),
    ("gen", [], {"seed": -1}, "seed"),
    ("perturb", ["--snr-db", "10", "--seed", "-2"], None, "seed"),
    ("gradcheck", ["--seed", "-1"], None, "seed"),
    ("train", ["--seed", "-1"], {}, "task.seed"),
    ("train", [], {"task": {"seed": -1}}, "task.seed"),
    ("train", [], {"train": {"seed": -1}}, "train.seed"),
    ("sweep", [], {"sweep": {"seed": -4}}, "sweep.seed"),
])
def test_negative_seed_is_refused_before_any_work(tmp_path, capsys, monkeypatch, command, argv,
                                                  config, key):
    def no_work(*args, **kwargs):
        raise AssertionError("generated the corpus or trained before the seed was checked")

    monkeypatch.setattr(fbsplab.cli, "make_task", no_work)
    monkeypatch.setattr(fbsplab.cli, "train", no_work)
    inputs, out = tmp_path / "in", tmp_path / "out"
    inputs.mkdir()
    out.mkdir()
    if command == "perturb":
        assert main(["gen", "--duration", "0.5", "--out", str(inputs / "a.wav")]) == 0
        argv = argv + ["--input", str(inputs / "a.wav")]
    if config is not None:
        doc = json.loads(json.dumps(SMALL_RUN_CONFIG)) if command in ("train", "sweep") else {}
        for section, values in config.items():
            doc[section] = ({**doc.get(section, {}), **values} if isinstance(values, dict)
                            else values)
        (inputs / "c.json").write_text(json.dumps(doc))
        argv = argv + ["--config", str(inputs / "c.json")]
    outputs = (["--out-params", str(out / "p.json"), "--out-log", str(out / "l.csv")]
               if command == "train" else ["--out", str(out / "o")])
    assert main([command, *argv, *outputs]) == 2
    assert f"error: {key} must be a non-negative integer, got -" in capsys.readouterr().err
    assert list(out.iterdir()) == []


# ---------------------------------------------------------------------------
# task settings and gradcheck steps refused before any work
# ---------------------------------------------------------------------------


def no_clip(*args, **kwargs):
    raise AssertionError("a clip was drawn before the task settings were checked")


@pytest.mark.parametrize("snr_range", [[10, "inf"], [-1e308, 1e308], [20, 10]])
def test_bad_snr_range_is_refused_before_any_clip(tmp_path, capsys, monkeypatch, snr_range):
    # the first two ended in an OverflowError traceback (exit 1), the last in
    # numpy's "high - low < 0", which names no setting
    monkeypatch.setattr(fbsplab.training, "_draw_example", no_clip)
    assert run_with_config(tmp_path, "train", {"task": {"snr_range": snr_range}}) == 2
    assert "snr_range must be a [lo, hi] pair with lo <= hi" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


@pytest.mark.parametrize("key, value, argv", [
    ("lambda_fbsp", "nan", ["--lambda-fbsp", "nan"]),
    ("lambda_fbsp", "inf", ["--lambda-fbsp", "inf"]),
    ("weight_decay", "nan", []),
    ("weight_decay", "inf", []),
])
def test_non_finite_regularizer_weight_is_refused_before_the_corpus(tmp_path, capsys, monkeypatch,
                                                                    key, value, argv):
    # each of these trained and then exited 3 with "objective became non-finite"
    def no_corpus(*args, **kwargs):
        raise AssertionError("generated the corpus before the train settings were checked")

    monkeypatch.setattr(fbsplab.cli, "make_task", no_corpus)
    path = tmp_path / "c.json"
    # json writes float("nan") and float("inf") as NaN and Infinity
    path.write_text(json.dumps({} if argv else {"train": {key: float(value)}}))
    assert main(["train", "--config", str(path), *argv, "--out-params", str(tmp_path / "p.json"),
                 "--out-log", str(tmp_path / "l.csv")]) == 2
    assert f"train.{key} must be finite and non-negative, got {value}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


@pytest.mark.parametrize("seed", [0, 4])
def test_class_band_reaching_nyquist_is_refused_before_any_clip(tmp_path, capsys, monkeypatch,
                                                                 seed):
    # this band failed at seed 0 naming a drawn sine frequency, and trained at seed 4
    edge = {"name": "edge", "kind": "tone", "low_hz": 100.0, "high_hz": 4100.0}
    monkeypatch.setattr(fbsplab.training, "_draw_example", no_clip)
    assert run_with_config(tmp_path, "train", {"task": {"classes": [edge, HIGH], "seed": seed}}) == 2
    assert ("class 'edge' high_hz 4100.0 Hz is at or above Nyquist (4000.0 Hz)"
            in capsys.readouterr().err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_band_without_an_fft_bin_is_refused_before_any_clip(tmp_path, capsys, monkeypatch,
                                                             command):
    # 0.2 s at 8 kHz has a bin every 5 Hz, none in [1001, 1004]; this failed at the first
    # draw of the class, after the clips before it
    narrow = {"name": "narrow", "kind": "band_noise", "low_hz": 1001.0, "high_hz": 1004.0}
    monkeypatch.setattr(fbsplab.training, "_draw_example", no_clip)
    assert run_with_config(tmp_path, command, {"task": {"classes": [LOW, narrow]}}) == 2
    assert ("band [1001.0, 1004.0] Hz contains no FFT bin at 8000.0 Hz over 1600 samples"
            in capsys.readouterr().err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


@pytest.mark.parametrize("command", ["train", "sweep"])
@pytest.mark.parametrize("task, message", [
    # 0.01 s at 8 kHz is 80 samples, under the default features.n_fft of 256
    ({"duration": 0.01}, "80 samples are too few for frames of 256"),
    # 0.005 of the default 120 clips trains on none
    ({"train_fraction": 0.005}, "split leaves an empty train or validation set"),
], ids=["duration", "train_fraction"])
def test_short_clip_and_empty_split_are_refused_before_any_clip(tmp_path, capsys, monkeypatch,
                                                                 command, task, message):
    # each drew all 120 clips before it was refused
    monkeypatch.setattr(fbsplab.training, "_draw_example", no_clip)
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"task": task}))
    outputs = (["--out-params", str(tmp_path / "p.json"), "--out-log", str(tmp_path / "l.csv")]
               if command == "train" else ["--out", str(tmp_path / "out")])
    assert main([command, "--config", str(path)] + outputs) == 2
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


@pytest.mark.parametrize("step", ["0.0078125", "nan", "inf", "0.0078"])
def test_gradcheck_step_must_be_below_half_a_bin(tmp_path, capsys, step):
    # at n_fft 64 the bound is 1/128: a one-sided stencil from f_c[0] = 0 reaches f_c[1]
    out = tmp_path / "r.json"
    code = main(["gradcheck", "--n-fft", "64", "--draws", "0", f"--step={step}",
                 "--out", str(out)])
    if step == "0.0078":
        assert code in (0, 3)
        assert json.loads(out.read_text())["step"] == 0.0078
        return
    assert code == 2
    err = capsys.readouterr().err
    assert "step must be positive and below 1/(2 n_fft) = 0.0078125 at n_fft 64" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("f_b", ["1e-300", "1e-4"])
def test_gradcheck_refuses_a_bandwidth_the_step_cannot_resolve(tmp_path, capsys, f_b):
    out = tmp_path / "r.json"
    assert main(["gradcheck", "--m", "1.7", "--f-b", f_b, "--draws", "0",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"step 1e-06 cannot resolve f_b {float(f_b)}" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("m, f_b, g", [("0", "1e308", "1e+308"), ("1e306", "1e154", "1e+154")])
def test_gradcheck_refuses_a_row_energy_the_loss_cannot_square(tmp_path, capsys, m, f_b, g):
    # refused before any arithmetic overflows: numpy warns of nothing
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["gradcheck", "--m", m, "--f-b", f_b, "--draws", "0",
                     "--out", str(tmp_path / "r.json")]) == 2
    assert caught == []
    err = capsys.readouterr().err
    assert f"f_b {float(f_b)} gives every row the energy g = f_b mean|env|^2 = {g}" in err
    assert "Warning" not in err
    assert list(tmp_path.iterdir()) == []


def test_gradcheck_at_the_stft_point_skips_only_the_m_checks(tmp_path):
    # d_m at m = 0 is the convention 0, which the one-sided quotient does not approach
    out = tmp_path / "r.json"
    assert main(["gradcheck", "--m", "0", "--f-b", "1", "--draws", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["skipped"] == ["point.m", "pullback.m"]
    assert len(report["checks"]) == 3 * 3 + 3 - 2 and report["failed"] == []


@pytest.mark.parametrize("f_b, code", [("1e3", 0), ("16383", 0), ("16384", 2), ("1e8", 2)])
def test_gradcheck_refuses_a_bandwidth_the_step_cannot_resolve_from_above(tmp_path, capsys,
                                                                          f_b, code):
    # f_b +- step rounds to a multiple of f_b's float spacing, 2**-38 from f_b = 2**14 on; at
    # 1e8 the quotient missed the f_b gradient by 3%, a failure of the oracle, not the gradient
    out = tmp_path / "r.json"
    assert main(["gradcheck", "--m", "0", "--f-b", f_b, "--draws", "0", "--out", str(out)]) == code
    refused = f"step 1e-06 cannot resolve f_b {float(f_b)} from above"
    assert (refused in capsys.readouterr().err) == (code == 2)
    assert out.exists() == (code == 0)


def test_gradcheck_names_the_given_point_when_its_m_probe_leaves_the_envelope_range(
        tmp_path, capsys):
    # at m = 0 the m-derivative is differenced one-sided, from a probe at m = step
    assert main(["gradcheck", "--m", "0", "--f-b", "1e9", "--draws", "0",
                 "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert ("the point m=0, f_b=1000000000.0 cannot be differenced in m: its one-sided "
            "m-probe at m = step = 1e-06 exceeds 2**52") in err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# settings outside the envelope's and the generators' float domain
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_hop_above_n_fft_is_refused_before_the_corpus(tmp_path, capsys, monkeypatch, command):
    # the features' hop rule is FrameGrid's, applied when the features are read
    def no_work(*args, **kwargs):
        raise AssertionError("generated the corpus before the hop was checked")

    monkeypatch.setattr(fbsplab.cli, "make_task", no_work)
    assert run_with_config(tmp_path, command, {"features": {"n_fft": 64, "hop": 1000}}) == 2
    assert ("features.hop in 1..features.n_fft, got features.n_fft=64 features.hop=1000"
            in capsys.readouterr().err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_n_fft_below_two_names_the_config_key(tmp_path, capsys, command):
    assert run_with_config(tmp_path, command, {"features": {"n_fft": 1, "hop": 1}}) == 2
    assert "features.n_fft must be at least 2" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


def test_spectrogram_n_fft_below_two_names_n_fft(tmp_path, capsys):
    wav = tmp_path / "in.wav"
    write_wav(str(wav), Waveform(np.linspace(-0.5, 0.5, 64), 8000))
    assert main(["spectrogram", "--n-fft", "1", "--input", str(wav),
                 "--out", str(tmp_path / "o.csv")]) == 2
    assert "n_fft must be at least 2 and hop in 1..n_fft, got n_fft=1 hop=0" \
        in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["in.wav"]


@pytest.mark.parametrize("argv, m, f_b", [
    (["--m", "1e-310"], "m=1e-310", "f_b=0.9"),
    (["--f-b", "1e308"], "m=1.7", "f_b=1e+308"),
    (["--m", "2", "--f-b", "1e308"], "m=2.0", "f_b=1e+308"),
    (["--m", "1", "--f-b", "1e306"], "m=1.0", "f_b=1e+306"),  # finite u, but 1/sinc overflows
])
def test_gradcheck_outside_the_envelope_domain_names_m_and_f_b(tmp_path, capsys, argv, m, f_b):
    # the pytest settings turn a numpy RuntimeWarning into a failure, so this
    # also shows that the refusal comes before any overflow
    assert main(["gradcheck", *argv, "--draws", "0", "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert "sinc argument f_b t / m reaches" in err
    assert m in err and f_b in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["freq-response", "spectrogram"])
def test_params_file_outside_the_envelope_domain_names_m_and_f_b(tmp_path, capsys, command):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"m": 1e-310, "f_b": 1.0, "f_c": [0.0, 0.25, 0.5],
                                  "n_fft": 4}))
    wav = tmp_path / "in.wav"
    write_wav(str(wav), Waveform(np.linspace(-0.5, 0.5, 64), 8000))
    inputs = ["--input", str(wav)] if command == "spectrogram" else []
    assert main([command, "--mode", "fbsp", "--params", str(params), *inputs,
                 "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert "sinc argument f_b t / m reaches inf at m=1e-310, f_b=1.0, above 2**52" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.wav", "p.json"]


@pytest.mark.parametrize("argv, message", [
    (["--frequency", "nan"], "sine frequency must be >= 0 Hz, got nan"),
    (["--amplitude", "nan"], "sine amplitude must be finite, got nan"),
    (["--phase", "inf"], "sine phase must be finite, got inf"),
    (["--kind", "chirp", "--f-end", "nan"], "chirp end frequency must be >= 0 Hz, got nan"),
    (["--kind", "band_noise", "--amplitude=-inf"],
     "noise band amplitude must be finite, got -inf"),
])
def test_non_finite_generator_setting_is_named(tmp_path, capsys, argv, message):
    # each value is refused where it enters, not as the waveform's non-finite samples
    assert main(["gen", *argv, "--out", str(tmp_path / "o.wav")]) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_infinite_class_amplitude_is_refused_before_any_clip(tmp_path, capsys, monkeypatch):
    # rng.uniform cannot draw from an infinite range, so the class refuses it
    loud = dict(LOW, amplitude=[0.6, "inf"])
    monkeypatch.setattr(fbsplab.training, "_draw_example", no_clip)
    assert run_with_config(tmp_path, "train", {"task": {"classes": [loud, HIGH]}}) == 2
    assert ("class 'low' amplitude range must satisfy 0 < lo <= hi < inf, got (0.6, inf)"
            in capsys.readouterr().err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]
