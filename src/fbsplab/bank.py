"""DFT and complex frequency B-spline (fbsp) analysis kernel banks.

A kernel bank is an (F, N) complex matrix whose row k is correlated with
windowed length-N signal frames. Two families are provided.

The plain Fourier bank has rows

    D_k[n] = (1/sqrt(N)) * exp(-2i pi (k/N) n),        n = 0..N-1,

one row per non-negative frequency bin by default (F = N//2 + 1).

The fbsp bank is the trainable family

    K_k[n] = (1/sqrt(N)) * sqrt(f_b) * env(n') * exp(+2i pi f_c[k] n'),
    env(t) = sinc(f_b t / m) ** m,     sinc(x) = sin(pi x) / (pi x),

with n' = n - (N - 1)/2 the centered tap index, bandwidth f_b > 0, spline
order m >= 0 and per-row center frequencies f_c (cycles/sample). Fractional
orders raise a negative sinc to a real power through the principal branch,
``exp(m * Log(sinc))``, which keeps the family continuous in m. At m = 0 the
envelope takes its limiting value 1, so every row is a pure complex
exponential; with f_b = 1 and f_c on the DFT grid the bank equals the
conjugate DFT bank times a constant per-row phase (from the centered tap
origin), and magnitudes of any transform built on it match the STFT exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Union

import numpy as np

from fbsplab.signals import WindowSpec, whole_number

__all__ = [
    "FbspParams",
    "KernelBank",
    "FrequencyResponse",
    "dft_grid",
    "init_params",
    "dft_kernel",
    "fbsp_kernel",
    "dft_reference_bank",
    "frequency_response",
    "save_params",
    "load_params",
    "response_to_csv",
]


@dataclass(frozen=True)
class FbspParams:
    """Trainable fbsp bank parameters: order m, bandwidth f_b, centers f_c.

    f_c entries are in cycles/sample, strictly increasing, within [0, 0.5].
    """

    m: float
    f_b: float
    f_c: np.ndarray

    def __post_init__(self) -> None:
        if not np.isfinite(self.m) or self.m < 0:
            raise ValueError(f"m must be finite and >= 0, got {self.m}")
        if not np.isfinite(self.f_b) or self.f_b <= 0:
            raise ValueError(f"f_b must be finite and > 0, got {self.f_b}")
        f_c = np.array(self.f_c, dtype=np.float64)
        if f_c.ndim != 1 or f_c.size == 0:
            raise ValueError("f_c must be a non-empty 1-D array")
        if not np.all(np.isfinite(f_c)):
            raise ValueError("f_c contains non-finite entries")
        if np.any(f_c < 0) or np.any(f_c > 0.5):
            raise ValueError("f_c entries must lie within [0, 0.5] cycles/sample")
        if f_c.size > 1 and np.any(np.diff(f_c) <= 0):
            raise ValueError("f_c entries must be strictly increasing")
        f_c.setflags(write=False)
        object.__setattr__(self, "m", float(self.m))
        object.__setattr__(self, "f_b", float(self.f_b))
        object.__setattr__(self, "f_c", f_c)

    @property
    def num_filters(self) -> int:
        return int(self.f_c.size)


BankDescriptor = Union[FbspParams, str]


@dataclass(frozen=True)
class KernelBank:
    """(F, N) complex analysis bank with its provenance and normalization."""

    weights: np.ndarray
    params: BankDescriptor
    norm_scale: float

    def __post_init__(self) -> None:
        weights = np.array(self.weights, dtype=np.complex128)
        if weights.ndim != 2:
            raise ValueError(f"bank weights must be 2-D, got shape {weights.shape}")
        if not np.all(np.isfinite(weights)):
            raise ValueError("bank weights contain non-finite entries")
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "norm_scale", float(self.norm_scale))

    @property
    def num_filters(self) -> int:
        return int(self.weights.shape[0])

    @property
    def num_taps(self) -> int:
        return int(self.weights.shape[1])


def dft_grid(n_fft: int) -> np.ndarray:
    """One-sided DFT center frequencies k/N, k = 0..N//2 (cycles/sample)."""
    _check_n(n_fft)
    return np.arange(n_fft // 2 + 1) / n_fft


def init_params(n_fft: int) -> FbspParams:
    """STFT-equivalent starting point: m = 0, f_b = 1, f_c on the DFT grid."""
    return FbspParams(m=0.0, f_b=1.0, f_c=dft_grid(n_fft))


def _check_n(n_fft: int) -> None:
    if n_fft < 2:
        raise ValueError(f"n_fft must be >= 2, got {n_fft}")


def dft_kernel(n_fft: int, two_sided: bool = False) -> KernelBank:
    """Unit-norm DFT bank; one-sided (N//2 + 1 rows) unless ``two_sided``."""
    _check_n(n_fft)
    count = n_fft if two_sided else n_fft // 2 + 1
    k = np.arange(count)[:, None]
    n = np.arange(n_fft)[None, :]
    scale = 1.0 / np.sqrt(n_fft)
    weights = scale * np.exp(-2j * np.pi * (k / n_fft) * n)
    return KernelBank(weights=weights, params="dft", norm_scale=scale)


def centered_taps(n_fft: int) -> np.ndarray:
    """Tap indices n - (N-1)/2; half-integers for even N, integers for odd."""
    return np.arange(n_fft) - (n_fft - 1) / 2.0


def fbsp_envelope(m: float, f_b: float, taps: np.ndarray) -> np.ndarray:
    """Complex spline envelope sinc(f_b t / m) ** m on the given taps.

    m = 0 returns the constant 1 (the family's limiting value). Negative
    sinc values go through the principal branch, so the result is complex
    for fractional m; exact sinc zeros map to 0 for any m > 0.
    """
    if m == 0.0:
        return np.ones(taps.shape, dtype=np.complex128)
    u = f_b * taps / m
    s = np.sinc(u)
    with np.errstate(divide="ignore"):
        log_mag = np.log(np.abs(s))  # -inf at exact sinc zeros
    env = np.exp(m * log_mag) * np.exp(1j * np.pi * m * (s < 0))
    env[s == 0.0] = 0.0
    return env


def fbsp_kernel(params: FbspParams, n_fft: int) -> KernelBank:
    """Materialize the fbsp bank for the given parameters and tap count."""
    _check_n(n_fft)
    taps = centered_taps(n_fft)
    env = fbsp_envelope(params.m, params.f_b, taps)
    phase = np.exp(2j * np.pi * np.outer(params.f_c, taps))
    scale = 1.0 / np.sqrt(n_fft)
    weights = scale * np.sqrt(params.f_b) * env[None, :] * phase
    return KernelBank(weights=weights, params=params, norm_scale=scale)


def dft_reference_bank(n_fft: int) -> KernelBank:
    """Conjugate DFT bank re-phased to the centered tap origin.

    Row k is conj(D_k) * exp(-2i pi (k/N) (N-1)/2), exactly what the fbsp
    family collapses to at (m = 0, f_b = 1, DFT grid); kept separate so that
    identity can be asserted against an independently built matrix.
    """
    base = dft_kernel(n_fft)
    k = np.arange(base.num_filters)
    row_phase = np.exp(-2j * np.pi * (k / n_fft) * (n_fft - 1) / 2.0)
    return KernelBank(
        weights=np.conj(base.weights) * row_phase[:, None],
        params="dft-centered",
        norm_scale=base.norm_scale,
    )


# ---------------------------------------------------------------------------
# frequency response
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrequencyResponse:
    """Per-filter gains against probe tones plus the upper envelope."""

    probe_freqs: np.ndarray
    gains: np.ndarray
    max_gain_curve: np.ndarray

    def __post_init__(self) -> None:
        for name in ("probe_freqs", "gains", "max_gain_curve"):
            arr = np.array(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        probes, gains, curve = self.probe_freqs, self.gains, self.max_gain_curve
        if gains.shape != (gains.shape[0], probes.size) or curve.shape != probes.shape:
            raise ValueError("inconsistent response shapes")
        if np.any(gains < 0) or not np.all(np.isfinite(gains)):
            raise ValueError("gains must be finite and non-negative")


def frequency_response(
    bank: KernelBank,
    window: WindowSpec,
    num_probes: int,
) -> FrequencyResponse:
    """Gain of every filter against unit probe tones across [0, 0.5].

    The gain of row k at probe frequency f is the magnitude of its windowed
    correlation with a unit complex exponential at f, taken over both
    rotation senses:

        gains[k][j] = max(|sum_n K_k[n] w[n] e^{+2i pi f_j n}|,
                          |sum_n K_k[n] w[n] e^{-2i pi f_j n}|).

    The two-sided maximum makes the response report each row's gain at its
    physical (real-signal) frequency regardless of the bank's exponent sign
    convention, and it is invariant under a global phase rotation of a row.
    ``max_gain_curve[j]`` is the maximum over filters at each probe.
    """
    if num_probes < 2:
        raise ValueError(f"need at least 2 probe frequencies, got {num_probes}")
    if window.length != bank.num_taps:
        raise ValueError(
            f"window length {window.length} does not match bank tap count {bank.num_taps}"
        )
    probes = np.linspace(0.0, 0.5, num_probes)
    n = np.arange(bank.num_taps)
    tones = np.exp(2j * np.pi * np.outer(n, probes))  # (N, M)
    rows = bank.weights * window.values()[None, :]
    forward = np.abs(rows @ tones)
    reverse = np.abs(rows @ np.conj(tones))
    gains = np.maximum(forward, reverse)
    return FrequencyResponse(
        probe_freqs=probes,
        gains=gains,
        max_gain_curve=gains.max(axis=0),
    )


# ---------------------------------------------------------------------------
# parameter file format
# ---------------------------------------------------------------------------


def save_params(path: str, params: FbspParams, n_fft: int) -> None:
    """Write bank parameters as JSON: {m, f_b, f_c, n_fft}."""
    _check_n(n_fft)
    doc = {
        "m": params.m,
        "f_b": params.f_b,
        "f_c": [float(f) for f in params.f_c],
        "n_fft": int(n_fft),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_params(path: str) -> tuple[FbspParams, int]:
    """Read a parameter JSON file back as (FbspParams, n_fft)."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    required = {"m", "f_b", "f_c", "n_fft"}
    missing = required - set(doc)
    if missing:
        raise ValueError(f"{path}: missing key(s) {sorted(missing)}")
    unknown = set(doc) - required
    if unknown:
        raise ValueError(f"{path}: unknown key(s) {sorted(unknown)}")
    params = FbspParams(m=float(doc["m"]), f_b=float(doc["f_b"]),
                        f_c=np.asarray(doc["f_c"], dtype=np.float64))
    n_fft = whole_number(doc["n_fft"], f"{path}: n_fft")
    _check_n(n_fft)
    return params, n_fft


def response_to_csv(path: str, response: FrequencyResponse) -> None:
    """Write a response as CSV: probe_freq, filter_0..filter_{F-1}, max_gain."""
    from fbsplab.runio import write_csv

    num_filters = response.gains.shape[0]
    header = ["probe_freq"] + [f"filter_{k}" for k in range(num_filters)] + ["max_gain"]
    rows = []
    for j, f in enumerate(response.probe_freqs):
        rows.append([f, *response.gains[:, j], response.max_gain_curve[j]])
    write_csv(path, header, rows)
