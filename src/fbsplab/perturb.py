"""Controlled degradations and robustness sweeps.

Two perturbation families: additive white Gaussian noise at a target SNR,
and Butterworth low-pass filtering. The filter design is written out from
the analog prototype (pole placement, bilinear transform with frequency
prewarping, second-order sections); only the section-by-section runner is
delegated to scipy, and the tests pin its output against a long-division
impulse oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from fbsplab.signals import Waveform, derive_seed
from fbsplab.transform import bank_energy_ratio
from fbsplab.runio import write_csv

__all__ = [
    "add_awgn",
    "ButterworthFilter",
    "design_butterworth_lowpass",
    "magnitude_response_db",
    "apply_filter",
    "SweepResult",
    "default_axis",
    "robustness_sweep",
    "sweep_to_csv",
]


def add_awgn(signal: Waveform, snr_db: float, seed: int) -> Waveform:
    """Add white Gaussian noise so that mean(x^2) / var(noise) hits snr_db.

    snr_db = +inf returns the input unchanged (control arm of a sweep).
    The signal must carry nonzero power for the ratio to be defined.
    """
    if math.isnan(snr_db):
        raise ValueError("snr_db must not be NaN")
    if snr_db == math.inf:
        return signal
    power = float(np.mean(signal.samples ** 2))
    if power == 0.0:
        raise ValueError("cannot set an SNR against an all-zero signal")
    sigma = math.sqrt(power / (10.0 ** (snr_db / 10.0)))
    rng = np.random.default_rng(seed)
    noisy = signal.samples + sigma * rng.standard_normal(len(signal))
    return Waveform(noisy, signal.sample_rate)


@dataclass(frozen=True)
class ButterworthFilter:
    """Cascade of second-order sections, rows [b0, b1, b2, a1, a2] (a0 = 1).

    First-order tails are encoded with b2 = a2 = 0.
    """

    sections: np.ndarray
    order: int
    cutoff_hz: float
    sample_rate: float

    def __post_init__(self) -> None:
        sections = np.array(self.sections, dtype=np.float64)
        if sections.ndim != 2 or sections.shape[1] != 5:
            raise ValueError(f"sections must be (S, 5), got {sections.shape}")
        if not np.all(np.isfinite(sections)):
            raise ValueError("sections contain non-finite coefficients")
        for a1, a2 in sections[:, 3:]:
            # poles of z^2 + a1 z + a2 must sit inside the unit circle
            if a2 >= 1.0 or abs(a1) >= 1.0 + a2:
                raise ValueError(f"unstable section: a1={a1}, a2={a2}")
        sections.setflags(write=False)
        object.__setattr__(self, "sections", sections)

    @property
    def num_sections(self) -> int:
        return self.sections.shape[0]


def design_butterworth_lowpass(
    order: int,
    cutoff_hz: float,
    sample_rate: float,
) -> ButterworthFilter:
    """Digital Butterworth low-pass via bilinear transform with prewarping.

    Analog poles sit on the circle of radius tan(pi fc / fs) at the usual
    Butterworth angles, so the -3 dB point lands exactly on cutoff_hz after
    the bilinear map. Each conjugate pole pair becomes one section with a
    double zero at z = -1, gain-normalized to unity at DC.
    """
    if not isinstance(order, int) or order < 1:
        raise ValueError(f"order must be a positive integer, got {order!r}")
    if not 0.0 < cutoff_hz < sample_rate / 2.0:
        raise ValueError(
            f"cutoff {cutoff_hz} Hz must lie inside (0, {sample_rate / 2}) Hz")
    warped = math.tan(math.pi * cutoff_hz / sample_rate)
    rows = []
    for j in range(order // 2):
        theta = math.pi / 2.0 + math.pi * (2 * j + 1) / (2.0 * order)
        pole = warped * complex(math.cos(theta), math.sin(theta))
        z = (1.0 + pole) / (1.0 - pole)
        a1 = -2.0 * z.real
        a2 = abs(z) ** 2
        g = (1.0 + a1 + a2) / 4.0
        rows.append([g, 2.0 * g, g, a1, a2])
    if order % 2:
        z = (1.0 - warped) / (1.0 + warped)
        a1 = -z
        g = (1.0 + a1) / 2.0
        rows.append([g, g, 0.0, a1, 0.0])
    return ButterworthFilter(
        sections=np.array(rows), order=order,
        cutoff_hz=float(cutoff_hz), sample_rate=float(sample_rate),
    )


def magnitude_response_db(
    filt: ButterworthFilter,
    freqs_hz: Sequence[float] | np.ndarray,
) -> np.ndarray:
    """Evaluate 20 log10 |H| on the unit circle at the given frequencies."""
    freqs = np.asarray(freqs_hz, dtype=np.float64)
    if np.any(freqs < 0) or np.any(freqs > filt.sample_rate / 2.0):
        raise ValueError("frequencies must lie in [0, sample_rate / 2]")
    zinv = np.exp(-2j * np.pi * freqs / filt.sample_rate)
    h = np.ones_like(zinv)
    for b0, b1, b2, a1, a2 in filt.sections:
        h *= (b0 + b1 * zinv + b2 * zinv ** 2) / (1.0 + a1 * zinv + a2 * zinv ** 2)
    with np.errstate(divide="ignore"):
        return 20.0 * np.log10(np.abs(h))


def apply_filter(filt: ButterworthFilter, signal: Waveform) -> Waveform:
    """Run the cascade over the samples with zero initial state."""
    import scipy.signal  # imported here: it alone costs most of the CLI's start-up

    if signal.sample_rate != filt.sample_rate:
        raise ValueError(
            f"filter designed at {filt.sample_rate} Hz applied to "
            f"{signal.sample_rate} Hz audio")
    sos = np.insert(filt.sections, 3, 1.0, axis=1)  # rows [b0, b1, b2, 1, a1, a2]
    return Waveform(scipy.signal.sosfilt(sos, signal.samples), signal.sample_rate)


# ---------------------------------------------------------------------------
# robustness sweeps
# ---------------------------------------------------------------------------

DEFAULT_SNR_AXIS = (math.inf, 30.0, 25.0, 20.0, 15.0, 10.0, 5.0, 0.0)


def default_axis(kind: str, sample_rate: float) -> list[float]:
    """A sweep's axis when none is given: ``DEFAULT_SNR_AXIS`` for awgn, and for
    lowpass the cutoffs of 22.05, 16, 8, 4, 2 and 1 kHz at 44.1 kHz, scaled to
    ``sample_rate``."""
    if kind == "awgn":
        return list(DEFAULT_SNR_AXIS)
    fractions = (0.5, 16000.0 / 44100.0, 8000.0 / 44100.0, 4000.0 / 44100.0,
                 2000.0 / 44100.0, 1000.0 / 44100.0)
    return [f * sample_rate for f in fractions]


@dataclass(frozen=True)
class SweepResult:
    """Accuracy and spectrogram-domain SNR along one perturbation axis."""

    kind: str
    axis: np.ndarray
    accuracy: np.ndarray
    spectro_snr_db: np.ndarray
    bank_label: str
    num_clips: int

    def __post_init__(self) -> None:
        for name in ("axis", "accuracy", "spectro_snr_db"):
            arr = np.array(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        shape = self.axis.shape
        if len(shape) != 1 or not shape == self.accuracy.shape == self.spectro_snr_db.shape:
            raise ValueError("axis, accuracy and spectro_snr_db must share one 1-D shape")


def _perturbed(kind: str, value: float, signal: Waveform,
               seed: int, order: int) -> Waveform:
    """One sweep cell's clip; ``kind`` is "awgn" or "lowpass", checked by the caller."""
    if kind == "awgn":
        return add_awgn(signal, value, seed)
    if value >= signal.sample_rate / 2.0:
        return signal  # at or above Nyquist, nothing to remove
    filt = design_butterworth_lowpass(order, value, signal.sample_rate)
    return apply_filter(filt, signal)


def robustness_sweep(
    kind: str,
    axis: Sequence[float],
    model,
    waveforms: Sequence[Waveform],
    labels: Sequence[int],
    seed: int = 0,
    order: int = 5,
) -> SweepResult:
    """Measure accuracy and mean bank-energy ratio along a perturbation axis.

    The model needs spectrogram(waveform) -> Spectrogram, predict(spectrogram)
    -> label and a bank_label string; each perturbed clip is rendered once, for
    the prediction and the ratio. Noise seeds derive from (seed, kind, axis
    index, clip index) so every cell is reproducible on its own.
    """
    if len(waveforms) != len(labels):
        raise ValueError("waveforms and labels disagree in length")
    if len(waveforms) == 0:
        raise ValueError("sweep needs at least one clip")
    kind_id = {"awgn": 0, "lowpass": 1}.get(kind)
    if kind_id is None:
        raise ValueError(f"unknown sweep kind {kind!r}; expected 'awgn' or 'lowpass'")
    clean_specs = [model.spectrogram(wf) for wf in waveforms]
    accuracy = np.zeros(len(axis))
    snr_out = np.zeros(len(axis))
    for i, value in enumerate(axis):
        correct = 0
        ratios = np.zeros(len(waveforms))
        for j, (wf, label) in enumerate(zip(waveforms, labels)):
            noisy = model.spectrogram(_perturbed(kind, float(value), wf,
                                                 derive_seed(seed, kind_id, i, j), order))
            if model.predict(noisy) == label:
                correct += 1
            ratios[j] = bank_energy_ratio(clean_specs[j], noisy)
        accuracy[i] = correct / len(waveforms)
        snr_out[i] = float(np.mean(ratios))
    return SweepResult(
        kind=kind, axis=np.asarray(axis, dtype=np.float64),
        accuracy=accuracy, spectro_snr_db=snr_out,
        bank_label=str(model.bank_label), num_clips=len(waveforms),
    )


def sweep_to_csv(path: str, result: SweepResult) -> None:
    header = ["axis_value", "accuracy", "spectro_snr_db", "bank_label"]
    rows = [
        [result.axis[i], result.accuracy[i], result.spectro_snr_db[i],
         result.bank_label]
        for i in range(len(result.axis))
    ]
    write_csv(path, header, rows)
