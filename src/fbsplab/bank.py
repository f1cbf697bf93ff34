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

import os
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from fbsplab.runio import read_json, write_csv, write_json
from fbsplab.signals import WindowSpec, frozen_field, real_number, whole_number

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
        f_c = frozen_field(self, "f_c")
        if f_c.ndim != 1 or f_c.size == 0:
            raise ValueError("f_c must be a non-empty 1-D array")
        if not np.all(np.isfinite(f_c)):
            raise ValueError("f_c contains non-finite entries")
        if np.any(f_c < 0) or np.any(f_c > 0.5):
            raise ValueError("f_c entries must lie within [0, 0.5] cycles/sample")
        if f_c.size > 1 and np.any(np.diff(f_c) <= 0):
            raise ValueError("f_c entries must be strictly increasing")
        object.__setattr__(self, "m", float(self.m))
        object.__setattr__(self, "f_b", float(self.f_b))

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
        weights = frozen_field(self, "weights", np.complex128)
        if weights.ndim != 2:
            raise ValueError(f"bank weights must be 2-D, got shape {weights.shape}")
        if not np.all(np.isfinite(weights)):
            raise ValueError("bank weights contain non-finite entries")
        object.__setattr__(self, "norm_scale", float(self.norm_scale))

    @property
    def num_filters(self) -> int:
        return int(self.weights.shape[0])

    @property
    def num_taps(self) -> int:
        return int(self.weights.shape[1])

    @cached_property
    def real_matrix(self) -> np.ndarray:
        """The read-only (N, 2F) real matrix [Re W; Im W]^T that
        ``transform.forward`` multiplies frames by, built on first use (so a
        bank that is never run through ``forward`` never holds it)."""
        matrix = np.concatenate([self.weights.real, self.weights.imag]).T
        matrix.setflags(write=False)
        return matrix


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


def dft_kernel(n_fft: int) -> KernelBank:
    """Unit-norm one-sided DFT bank, N//2 + 1 rows."""
    _check_n(n_fft)
    k = np.arange(n_fft // 2 + 1)[:, None]
    n = np.arange(n_fft)[None, :]
    scale = 1.0 / np.sqrt(n_fft)
    weights = scale * np.exp(-2j * np.pi * (k / n_fft) * n)
    return KernelBank(weights=weights, params="dft", norm_scale=scale)


def centered_taps(n_fft: int) -> np.ndarray:
    """Tap indices n - (N-1)/2; half-integers for even N, integers for odd."""
    return np.arange(n_fft) - (n_fft - 1) / 2.0


def sinc_argument(m: float, f_b: float, taps: np.ndarray) -> np.ndarray:
    """The envelope's sinc argument u = f_b t / m, m > 0. A ValueError names m
    and f_b where |u| exceeds 2**52: a float that large has no fraction, so sinc
    there is rounding noise, and near float range 1/sinc overflows."""
    reach = f_b * float(np.max(np.abs(taps))) / m
    if not reach <= 2.0 ** 52:  # inf included
        raise ValueError(f"the envelope's sinc argument f_b t / m reaches {reach:.4g} at "
                         f"m={m}, f_b={f_b}, above 2**52")
    return f_b * taps / m


def fbsp_envelope(m: float, f_b: float, taps: np.ndarray) -> np.ndarray:
    """Complex spline envelope sinc(f_b t / m) ** m on the given taps.

    m = 0 returns the constant 1 (the family's limiting value). Negative
    sinc values go through the principal branch, so the result is complex
    for fractional m. ``sinc_argument`` refuses an (m, f_b) out of its range.
    """
    if m == 0.0:
        return np.ones(taps.shape, dtype=np.complex128)
    s = np.sinc(sinc_argument(m, f_b, taps))
    return np.exp(m * np.log(np.abs(s))) * np.exp(1j * np.pi * m * (s < 0))


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
        probes, gains, curve = (frozen_field(self, name)
                                for name in ("probe_freqs", "gains", "max_gain_curve"))
        if gains.shape != (gains.shape[0], probes.size) or curve.shape != probes.shape:
            raise ValueError("inconsistent response shapes")
        if np.any(gains < 0) or not np.all(np.isfinite(gains)):
            raise ValueError("gains must be finite and non-negative")


# Peak bytes of building an (F, N) bank per F * N * 16 bytes of its weights,
# measured with tracemalloc: 3.22 for fbsp_kernel and 3.09 for dft_kernel at
# n_fft 64, about 3.07 and 2.07 from n_fft 256 on.
_BUILD_PEAK_FACTOR = 3.25
# Peak bytes of frequency_response, the bank included, per
# (F*N + N*P + F*P) * 16 bytes for F filters, N taps and P probes, measured
# with tracemalloc: 2.92 at n_fft 64 with 2 probes, 1.86 to 2.01 from n_fft
# 1024 on.
RESPONSE_PEAK_FACTOR = 3.0


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _require_memory(subject: str, verb: str, needed: float, available: int) -> None:
    """Refuse, with a MemoryError, work whose peak of ``needed`` bytes exceeds
    the ``available`` bytes of physical memory."""
    needed = int(needed)
    if needed > available:
        raise MemoryError(
            f"{subject} needs about {needed} bytes to {verb}, "
            f"more than the {available} bytes of physical memory")


def _require_bank_memory(n_fft: int, filters: int, available: int) -> None:
    """Refuse, before allocating, a (filters, n_fft) bank whose build would
    exceed ``available`` bytes."""
    _require_memory(f"a bank of n_fft {n_fft}", "build",
                    _BUILD_PEAK_FACTOR * 16 * filters * n_fft, available)


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

    A response whose peak would exceed physical memory is refused with a
    MemoryError before anything is allocated.
    """
    if num_probes < 2:
        raise ValueError(f"need at least 2 probe frequencies, got {num_probes}")
    if window.length != bank.num_taps:
        raise ValueError(
            f"window length {window.length} does not match bank tap count {bank.num_taps}"
        )
    filters, taps = bank.weights.shape
    _require_memory(f"the response of n_fft {taps} at num_probes {num_probes}", "compute",
                    RESPONSE_PEAK_FACTOR * 16 * (filters * taps + (taps + filters) * num_probes),
                    _physical_memory())
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
    write_json(path, {"m": params.m, "f_b": params.f_b, "f_c": params.f_c.tolist(),
                      "n_fft": int(n_fft)})


def load_params(path: str) -> tuple[FbspParams, int]:
    """Read a parameter JSON file back as (FbspParams, n_fft)."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    required = {"m", "f_b", "f_c", "n_fft"}
    missing = required - set(doc)
    if missing:
        raise ValueError(f"{path}: missing key(s) {sorted(missing)}")
    unknown = set(doc) - required
    if unknown:
        raise ValueError(f"{path}: unknown key(s) {sorted(unknown)}")
    if not isinstance(doc["f_c"], list):
        raise ValueError(f"{path}: f_c must be a list of numbers, got {doc['f_c']!r}")
    params = FbspParams(m=real_number(doc["m"], f"{path}: m"),
                        f_b=real_number(doc["f_b"], f"{path}: f_b"),
                        f_c=[real_number(f, f"{path}: f_c[{i}]")
                             for i, f in enumerate(doc["f_c"])])
    n_fft = whole_number(doc["n_fft"], f"{path}: n_fft")
    _check_n(n_fft)
    return params, n_fft


def response_to_csv(path: str, response: FrequencyResponse) -> None:
    """Write a response as CSV: probe_freq, filter_0..filter_{F-1}, max_gain."""
    num_filters = response.gains.shape[0]
    header = ["probe_freq"] + [f"filter_{k}" for k in range(num_filters)] + ["max_gain"]
    write_csv(path, header, ([f, *gains, top] for f, gains, top in zip(
        response.probe_freqs, response.gains.T, response.max_gain_curve)))
