"""Framed kernel-bank transform and log-power spectrograms.

The transform correlates every windowed frame with every bank row:

    X[k][t] = sum_n x[t * hop + n] * w[n] * K_k[n],

and the spectrogram is log(|X|^2 + eps) with a small positive eps keeping
the log finite on silent frames.

``forward`` computes X for real (frames, N) frames in folded coordinates,
``fold``'s [E | O] about the center tap: E_n = x_n + x_{N-1-n} for n < N // 2,
then the middle tap alone at odd N, and O_n = x_n - x_{N-1-n}. ``fold`` and
``_unfold`` work in place, in the array the caller keeps: a render its frames,
the trainer each clip's rows of its stack, a bank its matrix and ``backward``
its product. ``forward`` runs the bank's
``folded_blocks``, views of one folded (N, 2F) matrix: where its cross
quadrants (O through Re K, E through Im K) are zero, as on every fbsp bank
whose envelope is real, so every bank the trainer visits at m = 0, two
half-size products, E through Re K and O through Im K; on any other bank the
one (N, 2F) product, with the same flops as unfolded frames. It
returns log-power rows; ``backward`` turns a per-clip cotangent on the sums of
each clip's rows into the (F, N) bank cotangent that
``gradients.kernel_jacobian_vector`` pulls back. Training and inference go
through this one pair; ``analyze``, the complex product K @ frames^T of
unfolded frames, is the separate reference they are tested against.

``forward``'s cache is (frames, Y, blocks): the folded frames it was given,
Y = X / (|X|^2 + eps) as (T, 2F) rows [Re Y | Im Y], and the bank's blocks, so
the power is formed once per render and ``backward`` multiplies each clip's
rows of Y by its cotangent row. ``backward`` runs the blocks' products in
folded coordinates and unfolds the (2F, N) result to taps: for a symmetric bank
that is the symmetric part of C, which pairs with every dK of the family as C
does, and for any other bank the full C. Neither owns its memory: callers pass
a ``workspace`` of two C-contiguous buffers (outputs, scratch) of 2F columns.
``forward`` writes Y into the first T rows of ``outputs`` and the power and
log-power into the two (T, F) halves of the first T rows of ``scratch``.
``backward`` works a ``clip_groups`` group at a time, runs of whole clips of at
most GROUP_ROWS rows, and writes each group's product into the leading rows of
``scratch``. So a caller that also runs ``forward`` a group at a time, as the
trainer does, needs a scratch of only the largest group's rows.
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
    "fold",
    "workspace",
    "clip_groups",
    "forward",
    "backward",
    "log_power",
    "bank_energy_ratio",
    "spectrogram_to_csv",
]

DEFAULT_EPS = 1e-10
GROUP_ROWS = 1024  # frame rows of one clip group: the rows of the trainer's scratch
FOLD_VALUES = 2 ** 14  # values ``fold`` copies at a time (128 KiB)


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


def fold(frames: np.ndarray) -> np.ndarray:
    """(T, N) frames folded in place to [E | O] and returned: E_n = x_n + x_{N-1-n}
    for n < N // 2, the middle tap at odd N, O_n = x_n - x_{N-1-n}. A few rows at a
    time through a copy of at most FOLD_VALUES values, or of one row if it is longer."""
    half, middle = frames.shape[1] // 2, (frames.shape[1] + 1) // 2
    step = max(1, FOLD_VALUES // frames.shape[1])
    for start in range(0, len(frames), step):
        rows = frames[start:start + step]
        taps = rows.copy()
        near, far = taps[:, :half], taps[:, ::-1][:, :half]
        np.add(near, far, out=rows[:, :half])
        np.subtract(near, far, out=rows[:, middle:])
    return frames


def _unfold(folded: np.ndarray) -> np.ndarray:
    """The (rows, N) product with folded frames unfolded to taps in place, and
    returned: ``_unfold(z @ fold(x)) == z @ x``, (a_n + b_n) / 2 at tap n and
    (a_n - b_n) / 2 at tap N-1-n for E and O coefficients a and b."""
    half, middle = folded.shape[1] // 2, (folded.shape[1] + 1) // 2
    near, far = 0.5 * folded[:, :half], 0.5 * folded[:, middle:]
    np.add(near, far, out=folded[:, :half])
    np.subtract(near, far, out=folded[:, ::-1][:, :half])
    return folded


def workspace(rows: int, filters: int,
              scratch_rows: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(outputs, scratch): C-contiguous (rows, 2F) and (scratch_rows, 2F) buffers
    for ``forward`` and ``backward``; scratch_rows defaults to rows."""
    return np.empty((rows, 2 * filters)), np.empty((scratch_rows or rows, 2 * filters))


def clip_groups(counts: np.ndarray) -> list[tuple[slice, slice]]:
    """(clips, rows) slices of each group: a run of consecutive whole clips, clip c
    owning the next ``counts[c]`` rows, whose rows add up to at most GROUP_ROWS;
    a clip longer than that is a group of its own."""
    groups, first, start, rows = [], 0, 0, 0
    for clip, count in enumerate(counts.tolist()):
        if rows and rows + count > GROUP_ROWS:
            groups.append((slice(first, clip), slice(start, start + rows)))
            first, start, rows = clip, start + rows, 0
        rows += count
    groups.append((slice(first, len(counts)), slice(start, start + rows)))
    return groups


def forward(bank: KernelBank, frames: np.ndarray, eps: float,
            buffers: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, tuple]:
    """log(|X|^2 + eps) of (T, N) ``fold``ed frames, shape (T, F), and the cache
    ``backward`` needs; X comes from the bank's ``folded_blocks``, whose products
    fill the Re X and Im X halves of one (T, 2F) array, which then holds
    Y = X / (|X|^2 + eps).

    ``buffers`` is a ``workspace`` of at least T rows; the returned rows and
    the cache are views of it, valid until it is written again."""
    t, k, blocks = len(frames), bank.num_filters, bank.folded_blocks
    outputs = buffers[0][:t]
    power, logp = buffers[1][:t].reshape(2, t, k)
    for cols, outs, matrix in blocks:
        np.matmul(frames[:, cols], matrix, out=outputs[:, outs])
    np.square(outputs[:, :k], out=power)
    power += np.square(outputs[:, k:], out=logp)
    power += eps
    np.log(power, out=logp)
    halves = outputs.reshape(t, 2, k)
    np.divide(halves, power[:, None, :], out=halves)
    return logp, (frames, outputs, blocks)


def backward(cache: tuple, cotangent: np.ndarray, counts: np.ndarray,
             scratch: np.ndarray) -> np.ndarray:
    """(F, N) bank cotangent C = sum_t g_t conj(X_t) frame_t of a (clips, F)
    cotangent on the per-clip sums of ``forward``'s rows, where clip c owns
    the next ``counts[c]`` rows and g_t = cotangent[c] / (|X_t|^2 + eps) on
    each of them; it pairs as 2 Re sum C dK. For a symmetric bank it is the
    symmetric part of C (Re C even, Im C odd about the center tap), which pairs
    with each dK of the family, symmetric as the bank is, as C does.

    Each ``clip_groups`` group's product [Re Y g | Im Y g] goes into the leading
    rows of ``scratch``, a ``workspace``'s second buffer of at least the largest
    group's rows, and each block adds its frames' share to the folded C; the
    cache can be passed again."""
    frames, outputs, blocks = cache
    k = outputs.shape[1] // 2
    paired = np.zeros((2 * k, frames.shape[1]))
    for clips, rows in clip_groups(counts):
        group, product, start = outputs[rows], scratch[:rows.stop - rows.start], 0
        for row, count in zip(cotangent[clips], counts[clips]):
            np.multiply(group[start:start + count].reshape(count, 2, k), row,
                        out=product[start:start + count].reshape(count, 2, k))
            start += count
        for cols, outs, _ in blocks:
            paired[outs, cols] += product[:, outs].T @ frames[rows, cols]
    _unfold(paired)
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
