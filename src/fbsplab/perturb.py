"""Controlled degradations and robustness sweeps.

Two perturbation families: additive white Gaussian noise at a target SNR,
and Butterworth low-pass filtering. The filter design is written out from
the analog prototype (pole placement, bilinear transform with frequency
prewarping, second-order sections), and so is the runner: an exact blocked
form of the zero-state section cascade in numpy. The tests pin its output
against a long-division impulse oracle, a per-sample loop and
``scipy.signal.sosfilt``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from fbsplab.signals import Waveform, derive_seed, frozen_field
from fbsplab.transform import bank_energy_ratio
from fbsplab.runio import write_csv

__all__ = [
    "MAX_ORDER",
    "snr_power_ratio",
    "add_awgn",
    "ButterworthFilter",
    "design_butterworth_lowpass",
    "magnitude_response_db",
    "apply_filter",
    "SweepResult",
    "SWEEP_KINDS",
    "default_axis",
    "check_axis",
    "robustness_sweep",
    "sweep_to_csv",
]


# Largest Butterworth order accepted, set by conditioning. On 1 s of sigma 0.3
# noise at fs/fc of 8000/181, 16000/1000, 8000/3000 and 44100/1000 Hz, the
# runner's largest deviation from scipy's sosfilt, relative to the output peak,
# is at most 5.1e-9 at order 100, 2.0e-8 at 110, 1.7e-5 at 150 and 3.5e-2 at
# 200; at 300 it is about the whole peak, and both outputs exceed 1e3.
MAX_ORDER = 100


def snr_power_ratio(snr_db: float) -> float:
    """The signal-to-noise power ratio 10 ** (snr_db / 10) of an SNR level, inf
    at +inf; a ValueError names a NaN level or one whose ratio overflows or falls
    below the smallest normal float (levels under about -3076.5 dB). A normal
    ratio keeps the noise sigma finite for any clip of power below 4."""
    if math.isnan(snr_db):
        raise ValueError("snr_db must not be NaN")
    if snr_db == math.inf:
        return math.inf
    try:
        ratio = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        ratio = math.inf
    if not sys.float_info.min <= ratio < math.inf:
        raise ValueError(f"snr_db {snr_db} dB puts the noise level outside float range")
    return ratio


def add_awgn(signal: Waveform, snr_db: float, seed: int) -> Waveform:
    """Add white Gaussian noise so that mean(x^2) / var(noise) hits snr_db.

    snr_db = +inf returns the input unchanged (control arm of a sweep).
    The signal must carry nonzero power for the ratio to be defined, so an
    empty or all-zero clip is refused, and the noise sigma must be a finite
    float.
    """
    ratio = snr_power_ratio(snr_db)
    if ratio == math.inf:
        return signal
    # an empty clip has no power; its mean would be NaN, with numpy warnings
    power = float(np.mean(signal.samples ** 2)) if len(signal) else 0.0
    if power == 0.0:
        raise ValueError("cannot set an SNR against an all-zero signal")
    sigma = math.sqrt(power / ratio)
    if sigma == math.inf:
        raise ValueError(f"snr_db {snr_db} dB puts the noise level outside float range "
                         f"for a signal of power {power}")
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
        sections = frozen_field(self, "sections")
        if sections.ndim != 2 or sections.shape[1] != 5:
            raise ValueError(f"sections must be (S, 5), got {sections.shape}")
        if not np.all(np.isfinite(sections)):
            raise ValueError("sections contain non-finite coefficients")
        for a1, a2 in sections[:, 3:]:
            # poles of z^2 + a1 z + a2 must sit inside the unit circle
            if a2 >= 1.0 or abs(a1) >= 1.0 + a2:
                raise ValueError(f"unstable section: a1={a1}, a2={a2}")

    @property
    def num_sections(self) -> int:
        return self.sections.shape[0]

    @cached_property
    def block_operators(self) -> tuple[tuple[np.ndarray, ...], ...]:
        """Each section's read-only ``_section_operators`` for blocks of
        ``_BLOCK`` samples, which ``apply_filter`` runs; built on first use,
        so a filter runs any number of clips on one build."""
        operators = tuple(_section_operators(section, _BLOCK) for section in self.sections)
        for array in (a for ops in operators for a in ops):
            array.setflags(write=False)
        return operators


def _check_order(order: int, name: str) -> None:
    """Refuse a Butterworth order outside 1..MAX_ORDER, naming the setting ``name``."""
    if not isinstance(order, int) or order < 1:
        raise ValueError(f"{name} must be a positive integer, got {order!r}")
    if order > MAX_ORDER:
        raise ValueError(f"{name} must be at most {MAX_ORDER}, got {order}")


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
    _check_order(order, "order")
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
    try:  # near 0 or Nyquist, 1 + a1 + a2 or 1 - a1 + a2 rounds to 0: a pole on the circle
        return ButterworthFilter(sections=np.array(rows), order=order,
                                 cutoff_hz=float(cutoff_hz), sample_rate=float(sample_rate))
    except ValueError as err:
        raise ValueError(f"cutoff_hz {cutoff_hz} at sample rate {float(sample_rate)} Hz and "
                         f"order {order} has no stable float64 Butterworth filter ({err})") from None


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


# Samples per block of apply_filter's blocked pass. Each block costs one
# Toeplitz product of this width per section, and the carry between blocks a
# doubling scan over the blocks; 32 keeps both small from 0.1 s to 30 s clips.
_BLOCK = 32


def _section_operators(section: np.ndarray, width: int) -> tuple[np.ndarray, ...]:
    """The operators by which ``_section_pass`` runs one section [b0, b1, b2,
    a1, a2] over blocks of ``width`` samples: (the transposed Toeplitz matrix
    of the section's impulse response h, the map from a block's input to the
    state it leaves at the next block's start, the one-block step of a state,
    and the map from a state at a block's start to its free response over
    the block).

    Within its own block, a block's input has the response h * x, with h the
    section's impulse response: a Toeplitz product. From two samples after the
    block on, that response obeys the free recursion r[n] = -a1 r[n-1] -
    a2 r[n-2], so what it leaves for later blocks is fixed by a 2-vector state
    at the next block's start.

    The state of r at n is (r[n], r[n+1] - s r[n]) with s = -a1 / 2, the mean
    of the poles. In it a step of the recursion is the matrix [[s, 1], [d, s]],
    d = s**2 - a2, whose repeated squares keep their accuracy even for poles
    that nearly coincide near z = 1 or z = -1, where the plain pair
    (r[n], r[n+1]) loses digits to cancellation."""
    b0, b1, b2, a1, a2 = section
    s = -a1 / 2.0
    d = s * s - a2

    def orbit(u: float, v: float) -> np.ndarray:
        """States at 0..width of the free response whose state at 0 is (u, v)."""
        states = [(u, v)]
        for _ in range(width):
            u, v = s * u + v, d * u + s * v
            states.append((u, v))
        return np.array(states)

    h1 = b1 - a1 * b0
    h2 = b2 - a1 * h1 - a2 * b0
    lagged = orbit(h1, h2 - s * h1)  # states of h at lags 1..width + 1, free from lag 1 on
    h = np.concatenate([[b0], lagged[:width - 1, 0]])
    lag = np.subtract.outer(np.arange(width), np.arange(width))
    toeplitz = np.where(lag >= 0, h[np.maximum(lag, 0)], 0.0)  # [i, j] = h[i - j]
    free = np.stack([orbit(1.0, 0.0), orbit(0.0, 1.0)], axis=-1)  # [lag, coordinate, unit state]
    return toeplitz.T, lagged[width - 1::-1], free[width], free[:width, 0].T


def _section_pass(blocks: np.ndarray, operators: tuple[np.ndarray, ...]) -> np.ndarray:
    """One section, given by its ``_section_operators`` for rows of length L =
    ``blocks.shape[1]``, over a signal cut into such rows, with zero initial
    state.

    The states left by all earlier blocks add up to one state per block start;
    a doubling scan sums them, advancing a state L samples per block, and each
    state's free response is added to its block."""
    toeplitz_t, leave, step, enter = operators
    out = blocks @ toeplitz_t
    carry = blocks @ leave  # state each block's input leaves at the next start
    shift = 1  # step advances a state by ``shift`` blocks
    while shift < len(carry):
        carry[shift:] += carry[:-shift] @ step.T
        step, shift = step @ step, 2 * shift
    out[1:] += carry[:-1] @ enter
    return out


def apply_filter(filt: ButterworthFilter, signal: Waveform) -> Waveform:
    """Run the cascade over the samples with zero initial state.

    The signal is zero-padded to whole blocks of ``_BLOCK`` samples; each
    section runs over all blocks at once (``_section_pass``), and the padding,
    which only later samples could feel, is cut off at the end."""
    if signal.sample_rate != filt.sample_rate:
        raise ValueError(
            f"filter designed at {filt.sample_rate} Hz applied to "
            f"{signal.sample_rate} Hz audio")
    n = len(signal)
    blocks = np.zeros(-(-n // _BLOCK) * _BLOCK)
    blocks[:n] = signal.samples
    blocks = blocks.reshape(-1, _BLOCK)
    for operators in filt.block_operators:
        blocks = _section_pass(blocks, operators)
    return Waveform(blocks.reshape(-1)[:n], signal.sample_rate)


# ---------------------------------------------------------------------------
# robustness sweeps
# ---------------------------------------------------------------------------

# The perturbation kinds a sweep runs; a kind's index seeds its cells' noise.
SWEEP_KINDS = ("awgn", "lowpass")
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


def check_axis(kind: str, axis: Sequence[float], sample_rate: float, order: int) -> list:
    """A sweep's cells at ``sample_rate``, one (clip, seed) -> clip per axis
    value, built before any work: an awgn cell adds noise at a level
    ``snr_power_ratio`` accepts; a lowpass cell below Nyquist runs the filter of
    ``order`` designed here, once. A cell that leaves its clip as it is (awgn at
    ``inf``, a cutoff at or above Nyquist) returns the clip object itself. An
    unknown kind, a refused level and a refused filter raise ValueError."""
    if kind not in SWEEP_KINDS:
        raise ValueError(f"unknown sweep kind {kind!r}; expected one of "
                         f"{', '.join(SWEEP_KINDS)}")
    cells = []
    for value in map(float, axis):
        if kind == "awgn":
            snr_power_ratio(value)
            cells.append(lambda signal, seed, value=value: add_awgn(signal, value, seed))
        elif value >= sample_rate / 2.0:  # nothing to remove; NaN goes to the design's refusal
            cells.append(lambda signal, seed: signal)
        else:
            filt = design_butterworth_lowpass(order, value, sample_rate)
            cells.append(lambda signal, seed, filt=filt: apply_filter(filt, signal))
    return cells


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
        axis, accuracy, snr = (frozen_field(self, name)
                               for name in ("axis", "accuracy", "spectro_snr_db"))
        if axis.ndim != 1 or not axis.shape == accuracy.shape == snr.shape:
            raise ValueError("axis, accuracy and spectro_snr_db must share one 1-D shape")


def robustness_sweep(
    kind: str,
    axis: Sequence[float],
    models: Sequence,
    waveforms: Sequence[Waveform],
    labels: Sequence[int],
    seed: int = 0,
    order: int = 5,
) -> list[SweepResult]:
    """Measure each model's accuracy and mean bank-energy ratio along a
    perturbation axis: one ``SweepResult`` per model, in order.

    A model needs spectrogram(waveform) -> Spectrogram, predict(spectrogram)
    -> label and a bank_label string. Each sample rate's cells come from
    ``check_axis`` before the first render. Each perturbed clip is made once and
    rendered once by every model, for its prediction and its ratio, so all models
    face the same clips; a cell that returns its clip itself reuses the clean
    renderings. Noise seeds derive from (seed, kind, axis index, clip index) so
    every cell is reproducible on its own.
    """
    if len(waveforms) != len(labels):
        raise ValueError("waveforms and labels disagree in length")
    if len(waveforms) == 0 or len(models) == 0:
        raise ValueError("sweep needs at least one clip and one model")
    cells = {rate: check_axis(kind, axis, rate, order)
             for rate in dict.fromkeys(wf.sample_rate for wf in waveforms)}
    kind_id = SWEEP_KINDS.index(kind)
    clean_specs = [[model.spectrogram(wf) for wf in waveforms] for model in models]
    correct = np.zeros((len(models), len(axis)))
    ratios = np.zeros((len(models), len(axis), len(waveforms)))
    for i in range(len(axis)):
        for j, (wf, label) in enumerate(zip(waveforms, labels)):
            perturbed = cells[wf.sample_rate][i](wf, derive_seed(seed, kind_id, i, j))
            for k, (model, clean) in enumerate(zip(models, clean_specs)):
                noisy = clean[j] if perturbed is wf else model.spectrogram(perturbed)
                correct[k, i] += model.predict(noisy) == label
                ratios[k, i, j] = bank_energy_ratio(clean[j], noisy)
    accuracy, snr = correct / len(waveforms), ratios.mean(axis=2)
    return [SweepResult(kind=kind, axis=np.asarray(axis, dtype=np.float64),
                        accuracy=accuracy[k], spectro_snr_db=snr[k],
                        bank_label=str(model.bank_label), num_clips=len(waveforms))
            for k, model in enumerate(models)]


def sweep_to_csv(path: str, result: SweepResult) -> None:
    header = ["axis_value", "accuracy", "spectro_snr_db", "bank_label"]
    cells = zip(result.axis, result.accuracy, result.spectro_snr_db)
    write_csv(path, header, ([*cell, result.bank_label] for cell in cells))
