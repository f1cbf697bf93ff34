"""Time-domain containers, synthetic test signals, framing and windows.

Everything in this module is pure and deterministic: containers lock their
sample buffers read-only after construction, and the generators are plain
functions of their parameters plus an explicit integer seed, so corpora can
be rebuilt bit-identically and shared across threads without locks.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Literal

import numpy as np

WindowKind = Literal["rectangular", "hann"]

__all__ = [
    "Waveform",
    "FrameGrid",
    "WindowSpec",
    "WindowKind",
    "derive_seed",
    "sine",
    "chirp",
    "band_noise",
    "silence",
    "generate",
    "frame",
    "whole_number",
    "real_number",
    "frozen_field",
]


def derive_seed(*parts: int) -> int:
    """Fold a tuple of integers into a stable 32-bit seed.

    Used to give every (clip, trial, axis point) its own independent noise
    stream while keeping the whole experiment a function of one root seed.
    The result does not depend on evaluation order.
    """
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


def whole_number(value, name: str) -> int:
    """``int(value)``, or a ValueError naming the setting if it is not a whole
    number; true and false are not."""
    try:
        number = int(value)
        if isinstance(value, str) or (number == value and not isinstance(value, bool)):
            return number
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name} must be a whole number, got {value!r}")


def real_number(value, name: str) -> float:
    """``float(value)`` of a number or numeric text, or a ValueError naming the
    setting; true and false are not numbers."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError(f"{name} must be a number, got {value!r}")


def frozen_field(owner, name: str, dtype=np.float64) -> np.ndarray:
    """Set frozen dataclass field ``name`` of ``owner`` to a read-only copy of
    its value as an array of ``dtype``, and return that copy."""
    array = np.array(getattr(owner, name), dtype=dtype)
    array.setflags(write=False)
    object.__setattr__(owner, name, array)
    return array


@dataclass(frozen=True)
class Waveform:
    """Mono sample buffer plus its sample rate, a whole number of Hz.

    Samples are double-precision, dimensionless amplitudes (nominally within
    [-1, 1], though processing such as noise injection may exceed that).
    The buffer is copied on construction and locked read-only.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self) -> None:
        samples = frozen_field(self, "samples")
        if samples.ndim != 1:
            raise ValueError(f"waveform must be 1-D, got shape {samples.shape}")
        if not np.all(np.isfinite(samples)):
            raise ValueError("waveform contains non-finite samples")
        rate = whole_number(self.sample_rate, "sample_rate")
        if rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        object.__setattr__(self, "sample_rate", rate)

    def __len__(self) -> int:
        return int(self.samples.shape[0])

    @property
    def duration(self) -> float:
        """Length in seconds."""
        return len(self) / self.sample_rate


@dataclass(frozen=True)
class FrameGrid:
    """Frame layout of a short-time analysis: length, hop and frame count.

    For a signal of ``n`` samples the number of full frames is
    ``(n - frame_length) // hop + 1`` (zero when the signal is shorter than
    one frame); ``for_length`` computes exactly that.
    """

    frame_length: int
    hop: int
    num_frames: int

    def __post_init__(self) -> None:
        if self.frame_length < 2:
            raise ValueError(f"frame_length must be >= 2, got {self.frame_length}")
        if not 0 < self.hop <= self.frame_length:
            raise ValueError(
                f"hop must satisfy 0 < hop <= frame_length, got hop={self.hop} "
                f"frame_length={self.frame_length}"
            )
        if self.num_frames < 0:
            raise ValueError(f"num_frames must be >= 0, got {self.num_frames}")

    @classmethod
    def for_length(cls, num_samples: int, frame_length: int, hop: int) -> "FrameGrid":
        """Grid covering every full frame of a ``num_samples``-long signal."""
        if num_samples >= frame_length:
            count = (num_samples - frame_length) // hop + 1
        else:
            count = 0
        return cls(frame_length=frame_length, hop=hop, num_frames=count)


@dataclass(frozen=True)
class WindowSpec:
    """Analysis window: rectangular or periodic Hann, of a given length."""

    kind: WindowKind
    length: int

    def __post_init__(self) -> None:
        if self.kind not in ("rectangular", "hann"):
            raise ValueError(f"unknown window kind {self.kind!r}")
        if self.length < 2:
            raise ValueError(f"window length must be >= 2, got {self.length}")

    def values(self) -> np.ndarray:
        """Window samples w[0..length-1], each within [0, 1]."""
        if self.kind == "rectangular":
            return np.ones(self.length)
        n = np.arange(self.length)
        # periodic Hann: w[0] = 0, denominator length (not length - 1)
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / self.length)


# ---------------------------------------------------------------------------
# synthetic generators
# ---------------------------------------------------------------------------

# numpy caps an array's size in bytes at the largest np.intp
_MAX_SAMPLES = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize
# Peak bytes of generate plus wavio.write_wav per 8 bytes of samples (tracemalloc, 16,000
# samples on): 2.13 (silence, float32) to 5.71 (band_noise), plus 0.9 MB on numpy.fft's first use.
_GEN_PEAK_FACTOR = 6.0


def _num_samples(duration: float, sample_rate: int) -> int:
    if not 0 < duration < np.inf:
        raise ValueError(f"duration must be positive and finite, got {duration}")
    if not 0 < sample_rate < np.inf:
        raise ValueError(f"sample_rate must be positive and finite, got {sample_rate}")
    count = int(round(duration * sample_rate))
    if count < 1:
        raise ValueError(f"duration {duration} s is shorter than one sample at {sample_rate} Hz")
    if count > _MAX_SAMPLES:
        raise ValueError(
            f"duration {duration} s at sample_rate {sample_rate} Hz is {count:.4g} samples, "
            f"more than the {_MAX_SAMPLES} float64 samples numpy can allocate")
    return count


def _check_band(frequency: float, sample_rate: int, what: str) -> None:
    if not frequency >= 0:  # NaN included
        raise ValueError(f"{what} must be >= 0 Hz, got {frequency}")
    if frequency >= sample_rate / 2:
        raise ValueError(
            f"{what} {frequency} Hz is at or above Nyquist ({sample_rate / 2} Hz)"
        )


def _check_finite(value: float, what: str) -> None:
    if not -np.inf < value < np.inf:
        raise ValueError(f"{what} must be finite, got {value}")


def sine(
    frequency: float,
    duration: float,
    sample_rate: int,
    amplitude: float = 1.0,
    phase: float = 0.0,
) -> Waveform:
    """Pure tone with the requested frequency, amplitude and initial phase."""
    _check_band(frequency, sample_rate, "sine frequency")
    _check_finite(amplitude, "sine amplitude")
    _check_finite(phase, "sine phase")
    n = _num_samples(duration, sample_rate)
    t = np.arange(n) / sample_rate
    return Waveform(amplitude * np.sin(2.0 * np.pi * frequency * t + phase), sample_rate)


def chirp(
    f_start: float,
    f_end: float,
    duration: float,
    sample_rate: int,
    amplitude: float = 1.0,
) -> Waveform:
    """Linear sweep from f_start to f_end over the clip duration."""
    _check_band(f_start, sample_rate, "chirp start frequency")
    _check_band(f_end, sample_rate, "chirp end frequency")
    _check_finite(amplitude, "chirp amplitude")
    n = _num_samples(duration, sample_rate)
    t = np.arange(n) / sample_rate
    phase = 2.0 * np.pi * (f_start * t + (f_end - f_start) * t * t / (2.0 * duration))
    return Waveform(amplitude * np.sin(phase), sample_rate)


def band_noise(
    low_hz: float,
    high_hz: float,
    duration: float,
    sample_rate: int,
    seed: int,
    amplitude: float = 1.0,
) -> Waveform:
    """Gaussian noise band-limited to [low_hz, high_hz], peak-normalized.

    White Gaussian noise is masked in the frequency domain and scaled so the
    peak absolute sample equals ``amplitude``. Deterministic per seed.
    """
    _check_band(high_hz, sample_rate, "noise band upper edge")
    _check_finite(amplitude, "noise band amplitude")
    if not 0 <= low_hz < high_hz:
        raise ValueError(f"need 0 <= low_hz < high_hz, got [{low_hz}, {high_hz}]")
    n = _num_samples(duration, sample_rate)
    rng = np.random.default_rng(seed)
    white = rng.standard_normal(n)
    spectrum = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n, 1.0 / sample_rate)
    keep = (freqs >= low_hz) & (freqs <= high_hz)
    if not np.any(keep):
        raise ValueError(
            f"band [{low_hz}, {high_hz}] Hz contains no FFT bin at {sample_rate} Hz "
            f"over {n} samples"
        )
    spectrum[~keep] = 0.0
    shaped = np.fft.irfft(spectrum, n=n)
    peak = np.max(np.abs(shaped))
    if peak == 0.0:
        raise ValueError("band-limited noise came out identically zero")
    return Waveform(shaped * (amplitude / peak), sample_rate)


def silence(duration: float, sample_rate: int) -> Waveform:
    """All-zero clip."""
    return Waveform(np.zeros(_num_samples(duration, sample_rate)), sample_rate)


_GENERATORS = {"sine": sine, "chirp": chirp, "band_noise": band_noise, "silence": silence}
_GENERATOR_PARAMS = {  # each generator's keys but those ``generate`` passes itself
    kind: set(inspect.signature(make).parameters) - {"duration", "sample_rate", "seed"}
    for kind, make in _GENERATORS.items()}


def generate(
    kind: str,
    params: dict,
    duration: float,
    sample_rate: int,
    seed: int = 0,
) -> Waveform:
    """Call generator ``kind`` with ``params`` as keywords, rejecting unknown kinds
    and keys; each generator applies its own defaults, and ``band_noise`` the seed."""
    if kind not in _GENERATOR_PARAMS:
        raise ValueError(f"unknown signal kind {kind!r}, expected one of {sorted(_GENERATOR_PARAMS)}")
    unknown = set(params) - _GENERATOR_PARAMS[kind]
    if unknown:
        raise ValueError(f"unknown parameter(s) {sorted(unknown)} for signal kind {kind!r}")
    seeded = {"seed": seed} if kind == "band_noise" else {}
    return _GENERATORS[kind](duration=duration, sample_rate=sample_rate, **params, **seeded)


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------


def frame(signal: Waveform, grid: FrameGrid, window: WindowSpec) -> np.ndarray:
    """Slice a signal into overlapping windowed frames.

    Returns a (num_frames, frame_length) array with
    ``frames[t, n] == samples[t * hop + n] * w[n]``. The grid must describe
    the signal exactly (see ``FrameGrid.for_length``). A signal shorter than
    one frame raises.
    """
    if window.length != grid.frame_length:
        raise ValueError(
            f"window length {window.length} does not match frame length {grid.frame_length}"
        )
    x = signal.samples
    if len(x) < grid.frame_length:
        raise ValueError(
            f"signal of {len(x)} samples is shorter than one {grid.frame_length}-sample frame")
    expected = FrameGrid.for_length(len(x), grid.frame_length, grid.hop).num_frames
    if grid.num_frames != expected:
        raise ValueError(
            f"grid declares {grid.num_frames} frames but the signal supports {expected}"
        )
    view = np.lib.stride_tricks.sliding_window_view(x, grid.frame_length)[:: grid.hop]
    return view[: grid.num_frames] * window.values()
