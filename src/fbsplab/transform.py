"""Framed kernel-bank transform and log-power spectrograms.

The transform correlates every windowed frame with every bank row:

    X[k][t] = sum_n x[t * hop + n] * w[n] * K_k[n],

and the spectrogram is log(|X|^2 + eps) with a small positive eps keeping
the log finite on silent frames.

``forward`` computes X for real (frames, N) frames as one real product
with the (N, 2F) matrix [Re K; Im K]^T, the bank's cached ``real_matrix``,
and returns log-power rows; ``backward`` turns a per-clip cotangent on the
sums of each clip's rows into the (F, N) bank cotangent that
``gradients.kernel_jacobian_vector`` pulls back. Training and inference go
through this one pair; ``analyze``, the complex product K @ frames^T, is the
separate reference they are tested against.

``forward``'s cache is (frames, outputs, eps): the frames it was given and
its (T, 2F) product [Re X | Im X]; ``backward`` recomputes the power from it
through ``_power``, the helper ``forward`` uses, so the bits agree. Neither
owns its memory: callers pass a ``workspace`` of two C-contiguous (rows, 2F)
buffers (outputs, scratch), rows >= T. ``forward`` writes the product into
the leading rows of ``outputs`` and the power and log-power into the two
leading (T, F) halves of ``scratch``, where ``backward`` writes its product.
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
    "workspace",
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


def _power(outputs: np.ndarray, eps: float, out: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """|X|^2 + eps, Re^2 + Im^2 + eps, of (T, 2F) rows [Re X | Im X], written
    into the (T, F) ``out``; ``spare``, of the same shape, is overwritten."""
    k = out.shape[1]
    np.square(outputs[:, :k], out=out)
    out += np.square(outputs[:, k:], out=spare)
    out += eps
    return out


def _leading(buffer: np.ndarray, shape: tuple) -> np.ndarray:
    """The first prod(shape) values of a C-contiguous buffer, as one contiguous array."""
    return buffer.reshape(-1)[:math.prod(shape)].reshape(shape)


def workspace(rows: int, filters: int) -> tuple[np.ndarray, np.ndarray]:
    """(outputs, scratch): two C-contiguous (rows, 2F) buffers for ``forward`` and ``backward``."""
    return np.empty((rows, 2 * filters)), np.empty((rows, 2 * filters))


def forward(bank: KernelBank, frames: np.ndarray, eps: float,
            buffers: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, tuple]:
    """log(|X|^2 + eps) of real (T, N) frames, shape (T, F), and the cache
    ``backward`` needs; Re X and Im X sit side by side in one (T, 2F) product
    with the bank's cached ``real_matrix``.

    ``buffers`` is a ``workspace`` of at least T rows; the returned rows and
    the cache are views of it, valid until it is written again."""
    t, k = len(frames), bank.num_filters
    outputs = _leading(buffers[0], (t, 2 * k))
    power, logp = _leading(buffers[1], (2, t, k))
    np.matmul(frames, bank.real_matrix, out=outputs)
    return np.log(_power(outputs, eps, power, logp), out=logp), (frames, outputs, eps)


def backward(cache: tuple, cotangent: np.ndarray, counts: np.ndarray,
             scratch: np.ndarray) -> np.ndarray:
    """(F, N) bank cotangent C = sum_t g_t conj(X_t) frame_t of a (clips, F)
    cotangent on the per-clip sums of ``forward``'s rows, where clip c owns
    the next ``counts[c]`` rows and g_t = cotangent[c] / (|X_t|^2 + eps) on
    each of them; it pairs as 2 Re sum C dK.

    The (T, 2F) product [Re X g | Im X g] goes into the leading values of
    ``scratch``, a ``workspace``'s second buffer; the cache can be passed again."""
    frames, outputs, eps = cache
    t, k = len(frames), outputs.shape[1] // 2
    product = _leading(scratch, (t, 2 * k))
    g = np.empty((int(np.max(counts)), k))
    start = 0
    for row, count in zip(cotangent, counts):
        clip, out, gain = outputs[start:start + count], product[start:start + count], g[:count]
        np.divide(row, _power(clip, eps, gain, out[:, k:]), out=gain)
        np.multiply(clip.reshape(count, 2, k), gain[:, None, :], out=out.reshape(count, 2, k))
        start += count
    paired = product.T @ frames
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
