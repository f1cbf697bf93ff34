"""Framed kernel-bank transform and log-power spectrograms.

The transform correlates every windowed frame with every bank row:

    X[k][t] = sum_n x[t * hop + n] * w[n] * K_k[n],

and the spectrogram is log(|X|^2 + eps) with a small positive eps keeping
the log finite on silent frames.

``forward`` computes X for real (frames, N) frames as one real product
with the (N, 2F) matrix [Re K; Im K]^T, the bank's cached ``real_matrix``,
and returns log-power rows; ``backward`` turns their cotangent into the
(F, N) bank cotangent that ``gradients.kernel_jacobian_vector`` pulls back.
Training and inference go through this one pair; ``analyze``, the complex
product K @ frames^T, is the separate reference they are tested against.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from fbsplab.bank import BankDescriptor, FbspParams, KernelBank
from fbsplab.runio import write_csv, write_json
from fbsplab.signals import FrameGrid, Waveform, WindowSpec, frame, frozen_field

__all__ = [
    "Spectrogram",
    "analyze",
    "forward",
    "backward",
    "log_power",
    "bank_energy_ratio",
    "spectrogram_to_csv",
]

DEFAULT_EPS = 1e-10


@dataclass(frozen=True)
class Spectrogram:
    """Log-power values (filters x frames) plus the grid and bank provenance."""

    values: np.ndarray
    grid: FrameGrid
    bank_descriptor: BankDescriptor
    eps: float

    def __post_init__(self) -> None:
        values = frozen_field(self, "values")
        if values.ndim != 2:
            raise ValueError(f"spectrogram values must be 2-D, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("spectrogram contains non-finite values")
        if values.shape[1] != self.grid.num_frames:
            raise ValueError(
                f"spectrogram has {values.shape[1]} columns but grid declares "
                f"{self.grid.num_frames} frames"
            )
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        object.__setattr__(self, "eps", float(self.eps))


def forward(bank: KernelBank, frames: np.ndarray,
            eps: float) -> tuple[np.ndarray, tuple]:
    """log(|X|^2 + eps) of real (T, N) frames, shape (T, F), and the cache
    ``backward`` needs; Re X and Im X sit side by side in one (T, 2F) product
    with the bank's cached ``real_matrix``."""
    outputs = frames @ bank.real_matrix
    k = bank.num_filters
    shifted = np.square(outputs[:, :k])
    logp = np.square(outputs[:, k:])
    shifted += logp
    shifted += eps
    return np.log(shifted, out=logp), (frames, outputs, shifted)


def backward(cache: tuple, dlogp: np.ndarray) -> np.ndarray:
    """(F, N) bank cotangent C = sum_t dlogp / (|X|^2 + eps) conj(X) frame_t of
    a (T, F) cotangent on ``forward``'s output; it pairs as 2 Re sum C dK.

    ``dlogp`` is consumed: it is divided in place, so pass an array no one
    reads afterwards. The cache is left unchanged and can be passed again."""
    frames, outputs, shifted = cache
    t, k = shifted.shape
    dlogp /= shifted
    paired = (outputs.reshape(t, 2, k) * dlogp[:, None, :]).reshape(t, 2 * k).T @ frames
    return paired[:k] - 1j * paired[k:]


def analyze(
    signal: Waveform,
    bank: KernelBank,
    grid: FrameGrid,
    window: WindowSpec,
) -> np.ndarray:
    """Complex filter outputs, shape (num_filters, num_frames), computed apart from ``forward``."""
    if bank.num_taps != grid.frame_length:
        raise ValueError(
            f"bank has {bank.num_taps} taps but grid frames are {grid.frame_length} samples"
        )
    return bank.weights @ frame(signal, grid, window).T


def log_power(
    coefficients: np.ndarray,
    eps: float,
    grid: FrameGrid,
    bank: KernelBank | BankDescriptor,
) -> Spectrogram:
    """log(|X|^2 + eps) of complex filter outputs, as a Spectrogram."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    descriptor = bank.params if isinstance(bank, KernelBank) else bank
    power = np.abs(np.asarray(coefficients, dtype=np.complex128)) ** 2
    return Spectrogram(values=np.log(power + eps), grid=grid,
                       bank_descriptor=descriptor, eps=eps)


def bank_energy_ratio(spec_clean: Spectrogram, spec_noisy: Spectrogram) -> float:
    """Spectrogram-domain SNR in dB between a clean and a perturbed rendering.

    Computed on linear power (the log is inverted first):

        10 * log10( sum(P_clean) / sum(|P_noisy - P_clean|) ).

    Identical inputs return +inf; a silent clean rendering against a
    different one returns -inf, the formula's limit.
    """
    if spec_clean.values.shape != spec_noisy.values.shape:
        raise ValueError(
            f"spectrogram shapes differ: {spec_clean.values.shape} vs "
            f"{spec_noisy.values.shape}"
        )
    p_clean = np.maximum(np.exp(spec_clean.values) - spec_clean.eps, 0.0)
    p_noisy = np.maximum(np.exp(spec_noisy.values) - spec_noisy.eps, 0.0)
    signal = float(np.sum(p_clean))
    residual = float(np.sum(np.abs(p_noisy - p_clean)))
    if residual == 0.0:
        return math.inf
    if signal == 0.0:
        return -math.inf
    return 10.0 * math.log10(signal / residual)


def _bank_metadata(descriptor: BankDescriptor) -> dict:
    if isinstance(descriptor, FbspParams):
        return {
            "kind": "fbsp",
            "m": descriptor.m,
            "f_b": descriptor.f_b,
            "f_c": [float(f) for f in descriptor.f_c],
        }
    return {"kind": str(descriptor)}


def spectrogram_to_csv(path: str, spec: Spectrogram) -> None:
    """Write values as CSV (rows = filters, columns = frames) plus a metadata sidecar.

    The sidecar at ``path + '.meta.json'`` records the frame grid, eps and
    bank provenance needed to interpret the matrix.
    """
    header = [f"frame_{t}" for t in range(spec.values.shape[1])]
    write_csv(path, header, spec.values)
    write_json(os.fspath(path) + ".meta.json", {
        "grid": {
            "frame_length": spec.grid.frame_length,
            "hop": spec.grid.hop,
            "num_frames": spec.grid.num_frames,
        },
        "eps": spec.eps,
        "bank": _bank_metadata(spec.bank_descriptor),
        "num_filters": spec.values.shape[0],
    })
