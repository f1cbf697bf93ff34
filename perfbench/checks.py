"""Output checks, one per command kind.

Each check raises ``CheckFailed`` naming what is wrong. References are
computed here from the formulas, not through fbsplab code: WAVs are read with
``scipy.io.wavfile``, spectrograms are recomputed from the frames, and banks
are rebuilt from their closed form. The one exception is the ``train`` check,
which must show that the written parameters load through ``load_params``.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np
from scipy.io import wavfile


class CheckFailed(Exception):
    pass


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def read_samples(path):
    """(sample rate, float64 samples, dtype name) of a mono WAV."""
    rate, data = wavfile.read(path)
    _require(data.ndim == 1, f"{path}: expected mono, got shape {data.shape}")
    if data.dtype == np.int16:
        return rate, data.astype(np.float64) / 32768.0, "int16"
    return rate, data.astype(np.float64), str(data.dtype)


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        values = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, values


def hann(n):
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def frames_of(samples, n_fft, hop):
    count = (len(samples) - n_fft) // hop + 1
    index = hop * np.arange(count)[:, None] + np.arange(n_fft)[None, :]
    return samples[index]


def fbsp_bank(n_fft, m, f_b, f_c):
    """Closed-form fbsp bank: sqrt(f_b / N) * sinc(f_b t / m)^m * exp(2i pi f_c t)."""
    taps = np.arange(n_fft) - (n_fft - 1) / 2.0
    env = np.ones(n_fft, dtype=np.complex128)
    if m > 0:
        s = np.sinc(f_b * taps / m).astype(np.complex128)
        nonzero = s != 0
        env[~nonzero] = 0.0
        env[nonzero] = s[nonzero] ** m  # principal branch for negative lobes
    return np.sqrt(f_b / n_fft) * env[None, :] * np.exp(2j * np.pi * np.outer(f_c, taps))


def dft_bank(n_fft):
    k = np.arange(n_fft // 2 + 1)[:, None]
    return np.exp(-2j * np.pi * k * np.arange(n_fft)[None, :] / n_fft) / np.sqrt(n_fft)


def _close(actual, expected, what, rtol=1e-6, atol_share=1e-9):
    _require(actual.shape == expected.shape,
             f"{what}: shape {actual.shape}, expected {expected.shape}")
    atol = atol_share * float(np.max(np.abs(expected))) if expected.size else 0.0
    bad = ~np.isclose(actual, expected, rtol=rtol, atol=atol)
    _require(not np.any(bad), f"{what}: {int(np.sum(bad))} of {bad.size} values differ "
             f"from the reference, worst at {np.unravel_index(np.argmax(bad), bad.shape)}")


def check_spectrogram(csv_path, wav_path, n_fft, hop, bank=None):
    """Log-power CSV against the reference; ``bank`` None means the STFT (rfft)."""
    header, values = read_csv(csv_path)
    with open(csv_path + ".meta.json", encoding="utf-8") as fh:
        meta = json.load(fh)
    rows, cols = values.shape
    _require(header == [f"frame_{t}" for t in range(cols)], f"{csv_path}: bad header")
    grid = meta["grid"]
    _require(meta["num_filters"] == rows and grid["num_frames"] == cols,
             f"{csv_path}: meta says {meta['num_filters']}x{grid['num_frames']}, "
             f"CSV holds {rows}x{cols}")
    _require(grid["frame_length"] == n_fft and grid["hop"] == hop,
             f"{csv_path}: meta grid {grid} does not match n_fft {n_fft}, hop {hop}")
    _, samples, _ = read_samples(wav_path)
    frames = frames_of(samples, n_fft, hop) * hann(n_fft)
    if bank is None:
        coeffs = np.fft.rfft(frames, axis=1).T / np.sqrt(n_fft)
    else:
        coeffs = bank @ frames.T
    power = coeffs.real ** 2 + coeffs.imag ** 2
    eps = float(meta["eps"])
    _close(np.exp(values), power + eps, f"{csv_path} power")


def check_freq_response(csv_path, bank):
    """Two-sided probe gains of every bank row, rectangular window."""
    header, values = read_csv(csv_path)
    count, n_fft = bank.shape
    _require(header == ["probe_freq"] + [f"filter_{k}" for k in range(count)] + ["max_gain"],
             f"{csv_path}: bad header")
    probes = np.linspace(0.0, 0.5, n_fft // 2 + 1)
    _require(values.shape == (probes.size, count + 2),
             f"{csv_path}: shape {values.shape}, expected {(probes.size, count + 2)}")
    _close(values[:, 0], probes, f"{csv_path} probe_freq", rtol=0.0, atol_share=1e-15)
    tones = np.exp(2j * np.pi * np.outer(np.arange(n_fft), probes))
    gains = np.maximum(np.abs(bank @ tones), np.abs(bank @ np.conj(tones)))
    _close(values[:, 1:-1], gains.T, f"{csv_path} gains")
    _close(values[:, -1], gains.max(axis=0), f"{csv_path} max_gain")


def check_gen(wav_path, duration, rate, encoding):
    got_rate, samples, dtype = read_samples(wav_path)
    _require(got_rate == rate, f"{wav_path}: rate {got_rate}, expected {rate}")
    expected = round(duration * rate)
    _require(len(samples) == expected, f"{wav_path}: {len(samples)} samples, expected {expected}")
    want = {"pcm16": "int16", "float32": "float32"}[encoding]
    _require(dtype == want, f"{wav_path}: stored as {dtype}, expected {want}")


def check_awgn(in_path, out_path, snr_db):
    """The added noise sits at the requested SNR within five standard errors."""
    _, clean, _ = read_samples(in_path)
    _, noisy, _ = read_samples(out_path)
    _require(len(clean) == len(noisy), f"{out_path}: length changed")
    noise = noisy - clean
    measured = 10.0 * math.log10(np.mean(clean ** 2) / np.mean(noise ** 2))
    tolerance = 10.0 * math.log10(1.0 + 5.0 * math.sqrt(2.0 / len(clean)))
    _require(abs(measured - snr_db) <= tolerance,
             f"{out_path}: SNR {measured:.3f} dB, requested {snr_db} dB (+-{tolerance:.3f})")


def check_lowpass(in_path, out_path, cutoff_hz, order):
    """Matches scipy's Butterworth design run over the input, to pcm16 rounding."""
    import scipy.signal

    rate, clean, _ = read_samples(in_path)
    _, filtered, _ = read_samples(out_path)
    sos = scipy.signal.butter(order, cutoff_hz, fs=rate, output="sos")
    expected = np.clip(scipy.signal.sosfilt(sos, clean), -1.0, 1.0)
    _require(len(filtered) == len(expected), f"{out_path}: length changed")
    worst = float(np.max(np.abs(filtered - expected)))
    _require(worst <= 2.0 / 32768.0, f"{out_path}: differs from the reference by {worst:.3g}")


def check_train(params_path, log_path, epochs, n_fft):
    from fbsplab.bank import load_params

    try:
        _, got_n_fft = load_params(params_path)
    except (ValueError, KeyError, OSError) as err:
        raise CheckFailed(f"{params_path}: does not load: {err}") from err
    _require(got_n_fft == n_fft, f"{params_path}: n_fft {got_n_fft}, expected {n_fft}")
    header, values = read_csv(log_path)
    _require(header[0] == "epoch" and values.shape[0] == epochs,
             f"{log_path}: {values.shape[0]} rows, expected {epochs}")
    _require(np.array_equal(values[:, 0], np.arange(epochs)), f"{log_path}: epochs out of order")
    _require(np.all(np.isfinite(values)), f"{log_path}: non-finite values")


def check_sweep(stem, axis):
    """Both banks' CSVs hold one row per axis value, accuracy within [0, 1]."""
    for label in ("stft", "fbsp"):
        path = f"{stem}_{label}.csv"
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        _require(lines[0] == "axis_value,accuracy,spectro_snr_db,bank_label",
                 f"{path}: bad header")
        rows = [line.split(",") for line in lines[1:]]
        _require([float(row[0]) for row in rows] == [float(v) for v in axis],
                 f"{path}: axis rows {[row[0] for row in rows]}, expected {axis}")
        for row in rows:
            _require(0.0 <= float(row[1]) <= 1.0, f"{path}: accuracy {row[1]} outside [0, 1]")
            _require(not math.isnan(float(row[2])), f"{path}: spectro_snr_db is NaN")
            _require(row[3] == label, f"{path}: bank_label {row[3]}, expected {label}")


def check_gradcheck(report_path):
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    _require(report.get("status") == "pass" and report.get("checks"),
             f"{report_path}: status {report.get('status')}, failed {report.get('failed')}")


def check_same_bytes(paths, digests):
    """Files hash the same as the first time this run saw them."""
    for path in paths:
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        first = digests.setdefault(path, digest)
        _require(digest == first, f"{path}: bytes differ from the first pass")
