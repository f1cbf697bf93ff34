"""WAV file I/O: little-endian RIFF, PCM 16-bit and IEEE float 32-bit.

Stereo files are downmixed to mono by channel averaging on load. Integer
samples are scaled to [-1, 1) doubles; float files are read as-is.
"""

from __future__ import annotations

import numpy as np

from fbsplab.signals import Waveform

__all__ = ["read_wav", "write_wav"]

_PCM16_SCALE = 32768.0


def read_wav(path: str) -> Waveform:
    """Load a PCM 16-bit or float 32-bit WAV file as a mono Waveform."""
    from scipy.io import wavfile  # imported here: commands that touch no WAV skip scipy

    rate, data = wavfile.read(path)
    if data.ndim == 2:
        data = data.mean(axis=1)
    elif data.ndim != 1:
        raise ValueError(f"unsupported WAV channel layout with shape {data.shape}")
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / _PCM16_SCALE
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise ValueError(
            f"unsupported WAV sample format {data.dtype}; expected int16 or float32"
        )
    return Waveform(samples, int(rate))


def write_wav(path: str, signal: Waveform, encoding: str = "pcm16") -> None:
    """Write a mono WAV file.

    ``encoding`` selects PCM 16-bit ("pcm16", samples clipped to [-1, 1])
    or IEEE float 32-bit ("float32", which refuses, before opening the file,
    a sample outside float32's finite range).
    """
    if encoding == "pcm16":
        clipped = np.clip(signal.samples, -1.0, 1.0)
        data = np.round(clipped * (_PCM16_SCALE - 1)).astype(np.int16)
    elif encoding == "float32":
        with np.errstate(over="ignore"):
            data = signal.samples.astype(np.float32)
        if not np.isfinite(data).all():
            peak = float(np.abs(signal.samples).max())
            raise ValueError(f"float32 encoding cannot hold a sample of magnitude {peak}")
    else:
        raise ValueError(f"unknown WAV encoding {encoding!r}, expected pcm16 or float32")
    from scipy.io import wavfile

    wavfile.write(path, signal.sample_rate, data)
