"""The three workloads: set-up that writes their inputs, and the fixed command
list of one pass, each command with its output check.

Every input comes from the workload seed; fbsplab gets only files and flags.
Set-up uses fbsplab's own generators and writers, so work moved into them
shows in ``setup_s``. Why each workload exists is in README.md.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
from fbsplab.bank import FbspParams, dft_grid, save_params
from fbsplab.signals import generate
from fbsplab.wavio import write_wav


@dataclass
class Command:
    """One fbsplab invocation of a pass, with what it processes."""

    label: str
    argv: list[str]
    check: Callable[[], None]
    audio_s: float = 0.0
    epochs: int = 0


def _write_params(path, rng, n_fft):
    """A bank with fractional order m > 0, written through save_params."""
    params = FbspParams(m=float(rng.uniform(0.25, 1.75)), f_b=float(rng.uniform(0.8, 1.25)),
                        f_c=dft_grid(n_fft))
    save_params(path, params, n_fft)


def _bank_from_file(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return checks.fbsp_bank(doc["n_fft"], doc["m"], doc["f_b"], np.asarray(doc["f_c"]))


def _init_bank(n_fft):
    return checks.fbsp_bank(n_fft, 0.0, 1.0, np.arange(n_fft // 2 + 1) / n_fft)


def _join(*checks_to_run):
    def run():
        for check in checks_to_run:
            check()
    return run


# ---------------------------------------------------------------------------
# spectrogram_long: tens of seconds of 16 kHz audio per command
# ---------------------------------------------------------------------------

LONG_SECONDS = 30.0
LONG_RATE = 16000
LONG_HOP = 256


def setup_long(seed, directory):
    rng = np.random.default_rng([seed, 1])
    chirp = generate("chirp", {"f_start": float(rng.uniform(50.0, 1000.0)),
                               "f_end": float(rng.uniform(3000.0, 7500.0)),
                               "amplitude": float(rng.uniform(0.5, 0.9))},
                     LONG_SECONDS, LONG_RATE)
    noise = generate("band_noise", {"low_hz": float(rng.uniform(100.0, 1000.0)),
                                    "high_hz": float(rng.uniform(3000.0, 7000.0)),
                                    "amplitude": float(rng.uniform(0.5, 0.9))},
                     LONG_SECONDS, LONG_RATE, seed=int(rng.integers(2 ** 31)))
    inputs = {"chirp": os.path.join(directory, "chirp_pcm16.wav"),
              "noise": os.path.join(directory, "noise_float32.wav"),
              "bank512": os.path.join(directory, "bank512.json")}
    write_wav(inputs["chirp"], chirp, encoding="pcm16")
    write_wav(inputs["noise"], noise, encoding="float32")
    _write_params(inputs["bank512"], rng, 512)
    return inputs


def commands_long(inputs, out, digests):
    # (mode, n_fft, wav, params file, reference bank; None is the rfft STFT)
    plan = [
        ("stft", 512, inputs["chirp"], None, None),
        ("fbsp", 512, inputs["noise"], inputs["bank512"], _bank_from_file(inputs["bank512"])),
        ("stft", 1024, inputs["noise"], None, None),
        ("fbsp", 1024, inputs["chirp"], None, _init_bank(1024)),
    ]
    commands = []
    for mode, n_fft, wav, params, bank in plan:
        csv = os.path.join(out, f"spec_{mode}_{n_fft}.csv")
        argv = ["spectrogram", "--input", wav, "--out", csv, "--mode", mode,
                "--hop", str(LONG_HOP)]
        argv += ["--params", params] if params else ["--n-fft", str(n_fft)]
        check = functools.partial(checks.check_spectrogram, csv, wav, n_fft, LONG_HOP, bank)
        commands.append(Command(f"spectrogram.{mode}.{n_fft}", argv, check,
                                audio_s=LONG_SECONDS))
    return commands


# ---------------------------------------------------------------------------
# train_sweep: the demo training run and both robustness sweeps
# ---------------------------------------------------------------------------

# The demo task, written out so the audio and epochs a pass processes are known.
DEMO_CLIPS = 3 * 40
DEMO_CLIP_SECONDS = 0.75
DEMO_RATE = 8000.0
DEMO_EPOCHS = 30
DEMO_N_FFT = 256
AWGN_AXIS = ["inf", "30", "25", "20", "15", "10", "5", "0"]
LOWPASS_AXIS = [repr(f * DEMO_RATE) for f in
                (0.5, 16000.0 / 44100.0, 8000.0 / 44100.0, 4000.0 / 44100.0,
                 2000.0 / 44100.0, 1000.0 / 44100.0)]


def setup_train(seed, directory):
    rng = np.random.default_rng([seed, 2])
    config = {
        "task": {"seed": int(rng.integers(2 ** 31)), "samples_per_class": DEMO_CLIPS // 3,
                 "duration": DEMO_CLIP_SECONDS, "sample_rate": DEMO_RATE},
        "features": {"n_fft": DEMO_N_FFT, "hop": DEMO_N_FFT // 2},
        "train": {"epochs": DEMO_EPOCHS},
    }
    path = os.path.join(directory, "demo_config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)
    return {"config": path}


def commands_train(inputs, out, digests):
    corpus_s = DEMO_CLIPS * DEMO_CLIP_SECONDS
    params = os.path.join(out, "bank.json")
    log = os.path.join(out, "log.csv")
    commands = [Command(
        "train",
        ["train", "--config", inputs["config"], "--out-params", params, "--out-log", log],
        _join(functools.partial(checks.check_train, params, log, DEMO_EPOCHS, DEMO_N_FFT),
              functools.partial(checks.check_same_bytes, [params, log], digests)),
        audio_s=corpus_s, epochs=DEMO_EPOCHS)]
    for kind, axis in (("awgn", AWGN_AXIS), ("lowpass", LOWPASS_AXIS)):
        stem = os.path.join(out, f"sweep_{kind}")
        written = [f"{stem}_stft.csv", f"{stem}_fbsp.csv"]
        commands.append(Command(
            f"sweep.{kind}",
            ["sweep", "--config", inputs["config"], "--out", stem, "--kind", kind,
             "--axis", ",".join(axis)],
            _join(functools.partial(checks.check_sweep, stem, axis),
                  functools.partial(checks.check_same_bytes, written, digests)),
            # a sweep trains the frozen STFT baseline and the fbsp bank
            audio_s=corpus_s, epochs=2 * DEMO_EPOCHS))
    return commands


# ---------------------------------------------------------------------------
# short_calls: many commands of about a second, start-up dominated
# ---------------------------------------------------------------------------

SHORT_SECONDS = 1.0
SHORT_RATE = 16000
SHORT_N_FFT = 256
GEN_KINDS = ("sine", "chirp", "band_noise", "silence")
ENCODINGS = ("pcm16", "float32")


def setup_short(seed, directory):
    rng = np.random.default_rng([seed, 3])
    tone = generate("sine", {"frequency": float(rng.uniform(200.0, 3000.0)),
                             "amplitude": float(rng.uniform(0.3, 0.8))},
                    SHORT_SECONDS, SHORT_RATE)
    noise = generate("band_noise", {"low_hz": float(rng.uniform(100.0, 1500.0)),
                                    "high_hz": float(rng.uniform(3000.0, 7000.0)),
                                    "amplitude": float(rng.uniform(0.3, 0.8))},
                     SHORT_SECONDS, SHORT_RATE, seed=int(rng.integers(2 ** 31)))
    inputs = {"tone": os.path.join(directory, "tone_pcm16.wav"),
              "noise": os.path.join(directory, "noise_float32.wav"),
              "bank256": os.path.join(directory, "bank256.json")}
    write_wav(inputs["tone"], tone, encoding="pcm16")
    write_wav(inputs["noise"], noise, encoding="float32")
    _write_params(inputs["bank256"], rng, SHORT_N_FFT)
    inputs["gen"] = {
        "sine": ["--frequency", repr(float(rng.uniform(100.0, 4000.0)))],
        "chirp": ["--f-start", repr(float(rng.uniform(100.0, 1000.0))),
                  "--f-end", repr(float(rng.uniform(2000.0, 7000.0)))],
        "band_noise": ["--low-hz", repr(float(rng.uniform(100.0, 1000.0))),
                       "--high-hz", repr(float(rng.uniform(2000.0, 7000.0)))],
        "silence": [],
    }
    inputs["gen_seed"] = str(int(rng.integers(2 ** 31)))
    inputs["snr_db"] = float(rng.uniform(0.0, 30.0))
    inputs["noise_seed"] = str(int(rng.integers(2 ** 31)))
    inputs["cutoff_hz"] = float(rng.uniform(1000.0, 4000.0))
    inputs["gradcheck_seed"] = str(int(rng.integers(2 ** 31)))
    return inputs


def commands_short(inputs, out, digests):
    rate = str(SHORT_RATE)
    commands = []
    for kind in GEN_KINDS:
        for encoding in ENCODINGS:
            wav = os.path.join(out, f"gen_{kind}_{encoding}.wav")
            argv = ["gen", "--out", wav, "--kind", kind, "--duration", repr(SHORT_SECONDS),
                    "--sample-rate", rate, "--seed", inputs["gen_seed"],
                    "--encoding", encoding] + inputs["gen"][kind]
            check = functools.partial(checks.check_gen, wav, SHORT_SECONDS, SHORT_RATE, encoding)
            commands.append(Command(f"gen.{kind}.{encoding}", argv, check,
                                    audio_s=SHORT_SECONDS))

    noisy = os.path.join(out, "awgn_float32.wav")
    commands.append(Command(
        "perturb.awgn",
        ["perturb", "--input", inputs["tone"], "--out", noisy,
         "--snr-db", repr(inputs["snr_db"]), "--seed", inputs["noise_seed"],
         "--encoding", "float32"],
        functools.partial(checks.check_awgn, inputs["tone"], noisy, inputs["snr_db"]),
        audio_s=SHORT_SECONDS))
    lowpassed = os.path.join(out, "lowpass_pcm16.wav")
    commands.append(Command(
        "perturb.lowpass",
        ["perturb", "--input", inputs["noise"], "--out", lowpassed,
         "--cutoff-hz", repr(inputs["cutoff_hz"]), "--order", "5"],
        functools.partial(checks.check_lowpass, inputs["noise"], lowpassed,
                          inputs["cutoff_hz"], 5),
        audio_s=SHORT_SECONDS))

    hop = SHORT_N_FFT // 2
    stft_csv = os.path.join(out, "spec_stft.csv")
    commands.append(Command(
        "spectrogram.stft",
        ["spectrogram", "--input", inputs["tone"], "--out", stft_csv, "--mode", "stft",
         "--n-fft", str(SHORT_N_FFT), "--hop", str(hop)],
        functools.partial(checks.check_spectrogram, stft_csv, inputs["tone"],
                          SHORT_N_FFT, hop, None),
        audio_s=SHORT_SECONDS))
    bank = _bank_from_file(inputs["bank256"])
    fbsp_csv = os.path.join(out, "spec_fbsp.csv")
    commands.append(Command(
        "spectrogram.fbsp",
        ["spectrogram", "--input", inputs["noise"], "--out", fbsp_csv, "--mode", "fbsp",
         "--params", inputs["bank256"], "--hop", str(hop)],
        functools.partial(checks.check_spectrogram, fbsp_csv, inputs["noise"],
                          SHORT_N_FFT, hop, bank),
        audio_s=SHORT_SECONDS))

    for mode, extra, reference in (
            ("stft", ["--n-fft", str(SHORT_N_FFT)], checks.dft_bank(SHORT_N_FFT)),
            ("fbsp", ["--params", inputs["bank256"]], bank)):
        csv = os.path.join(out, f"response_{mode}.csv")
        commands.append(Command(
            f"freq-response.{mode}",
            ["freq-response", "--out", csv, "--mode", mode] + extra,
            functools.partial(checks.check_freq_response, csv, reference)))

    report = os.path.join(out, "gradcheck.json")
    commands.append(Command(
        "gradcheck",
        ["gradcheck", "--out", report, "--n-fft", "64", "--seed", inputs["gradcheck_seed"]],
        functools.partial(checks.check_gradcheck, report)))
    return commands


# name -> (set-up writing inputs into a directory, commands of one pass)
WORKLOADS = {
    "spectrogram_long": (setup_long, commands_long),
    "train_sweep": (setup_train, commands_train),
    "short_calls": (setup_short, commands_short),
}
