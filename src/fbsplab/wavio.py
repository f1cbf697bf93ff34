"""WAV file I/O: little-endian RIFF, PCM 16-bit and IEEE float 32/64-bit.

The codec is written out here with ``struct`` and numpy. Writes produce the
same bytes as ``scipy.io.wavfile.write``: PCM16 with a 16-byte ``fmt `` chunk,
float32 with the ``cbSize`` field and a ``fact`` chunk. Reads accept PCM16,
float32 and float64 data, plain or ``WAVE_FORMAT_EXTENSIBLE``, skip chunks
they do not need (odd sizes padded) and downmix multichannel audio to mono
by averaging the scaled channels. Integer samples are scaled to [-1, 1)
doubles; float samples are read as-is. A file that is not such a WAV, or
whose headers disagree with its data, is refused with a ValueError naming
the file and the cause.
"""

from __future__ import annotations

import struct

import numpy as np

from fbsplab.signals import Waveform

__all__ = ["read_wav", "write_wav"]

_PCM16_SCALE = 32768.0
_PCM, _IEEE_FLOAT, _EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
# the last 14 bytes of an EXTENSIBLE sub-format GUID whose first two bytes
# hold a plain format tag (KSDATAFORMAT_SUBTYPE_PCM, _IEEE_FLOAT, ...)
_SUBFORMAT_TAIL = b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
# (format tag, bits per sample) -> little-endian sample dtype
_SAMPLE_DTYPES = {(_PCM, 16): "<i2", (_IEEE_FLOAT, 32): "<f4", (_IEEE_FLOAT, 64): "<f8"}
_U32_MAX = 0xFFFFFFFF
# Peak bytes per byte of a mono WAV, pcm16 / float32 (tracemalloc, 160,000 samples on, warm):
# read_wav 12.5 / 6.3; perturb 16.2 / 6.4 adding noise, 16.6 / 8.3 low-passing.
_READ_PEAK_FACTOR = 17


def _parse_fmt(body: bytes) -> tuple[str, int, int]:
    """(sample dtype, channels, sample rate) of a ``fmt `` chunk body, an
    EXTENSIBLE format resolved to its sub-format."""
    if len(body) < 16:
        raise ValueError(f"fmt chunk is {len(body)} bytes, fewer than 16")
    tag, channels, rate, byte_rate, block_align, bits = struct.unpack_from("<HHIIHH", body)
    if tag == _EXTENSIBLE:
        if len(body) < 40 or body[26:40] != _SUBFORMAT_TAIL:
            raise ValueError("EXTENSIBLE fmt chunk carries no known sub-format")
        tag = struct.unpack_from("<H", body, 24)[0]
    if channels == 0:
        raise ValueError("fmt chunk declares 0 channels")
    if rate == 0:
        raise ValueError("fmt chunk declares a sample rate of 0 Hz")
    if (tag, bits) not in _SAMPLE_DTYPES:
        kind = {_PCM: "PCM", _IEEE_FLOAT: "float"}.get(tag, f"format tag {tag:#06x}")
        raise ValueError(f"unsupported sample format {bits}-bit {kind}; "
                         f"expected 16-bit PCM or 32/64-bit float")
    if block_align != channels * bits // 8 or byte_rate != rate * block_align:
        raise ValueError(f"fmt chunk disagrees with itself: {channels} channels of "
                         f"{bits}-bit samples at {rate} Hz, block align {block_align}, "
                         f"byte rate {byte_rate}")
    return _SAMPLE_DTYPES[tag, bits], channels, rate


def _read_frames(f) -> tuple[np.ndarray, int]:
    """(float64 samples, one row per frame, sample rate) of an open WAV file."""
    head = f.read(12)
    if head[:4] in (b"RIFX", b"RF64"):
        raise ValueError(f"{head[:4].decode()} files are not supported, only "
                         f"little-endian RIFF")
    if len(head) < 12 or head[:4] != b"RIFF" or head[8:] != b"WAVE":
        raise ValueError("not a RIFF WAVE file")
    fmt = None
    while True:
        header = f.read(8)
        if len(header) < 8:
            raise ValueError("no data chunk" if fmt else "no fmt chunk")
        chunk_id, size = header[:4], struct.unpack("<I", header[4:])[0]
        if chunk_id == b"fmt ":
            body = f.read(size)
            if len(body) < size:
                raise ValueError("file ends inside its fmt chunk")
            fmt = _parse_fmt(body)
            f.seek(size % 2, 1)
        elif chunk_id == b"data":
            if fmt is None:
                raise ValueError("data chunk comes before the fmt chunk")
            dtype, channels, rate = fmt
            frame_size = channels * np.dtype(dtype).itemsize
            if size % frame_size:
                raise ValueError(f"data chunk of {size} bytes is not a whole number "
                                 f"of {frame_size}-byte frames")
            data = f.read(size)
            if len(data) < size:
                raise ValueError(f"data chunk holds {len(data)} bytes, its header "
                                 f"claims {size}")
            samples = np.frombuffer(data, dtype=dtype).astype(np.float64)
            if dtype == "<i2":
                samples /= _PCM16_SCALE
            return samples.reshape(-1, channels), rate
        else:
            f.seek(size + size % 2, 1)


def read_wav(path: str) -> Waveform:
    """Load a PCM16 or float32/64 WAV file as a mono Waveform.

    A ValueError names the file and what is wrong with it."""
    with open(path, "rb") as f:
        try:
            frames, rate = _read_frames(f)
            return Waveform(frames.mean(axis=1), rate)  # refuses non-finite samples
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None


def _header(tag: int, rate: int, data: np.ndarray) -> bytes:
    """The RIFF header of a mono WAV of ``data``, laid out as by
    ``scipy.io.wavfile.write``; a ValueError if a 32-bit field cannot hold the
    byte rate or the file size."""
    width = data.dtype.itemsize
    if rate * width > _U32_MAX:
        raise ValueError(f"a WAV of {8 * width}-bit samples cannot hold a sample rate "
                         f"of {rate} Hz: its byte rate exceeds 32 bits")
    fmt = struct.pack("<HHIIHH", tag, 1, rate, rate * width, width, 8 * width)
    fact = b""
    if tag == _IEEE_FLOAT:
        fmt += b"\x00\x00"  # cbSize
        fact = b"fact" + struct.pack("<II", 4, data.shape[0])
    riff_size = 4 + 8 + len(fmt) + len(fact) + 8 + data.nbytes
    if riff_size > _U32_MAX:
        raise ValueError(f"a WAV cannot hold {data.nbytes} bytes of samples: its RIFF "
                         f"size exceeds 32 bits")
    return (b"RIFF" + struct.pack("<I", riff_size) + b"WAVE"
            + b"fmt " + struct.pack("<I", len(fmt)) + fmt + fact
            + b"data" + struct.pack("<I", data.nbytes))


def write_wav(path: str, signal: Waveform, encoding: str = "pcm16") -> None:
    """Write a mono WAV file.

    ``encoding`` selects PCM 16-bit ("pcm16", samples clipped to [-1, 1])
    or IEEE float 32-bit ("float32", which refuses, before opening the file,
    a sample outside float32's finite range). A sample rate or length that
    the header's 32-bit fields cannot hold is refused before opening too.
    """
    if encoding == "pcm16":
        clipped = np.clip(signal.samples, -1.0, 1.0)
        data = np.round(clipped * (_PCM16_SCALE - 1)).astype("<i2")
        tag = _PCM
    elif encoding == "float32":
        with np.errstate(over="ignore"):
            data = signal.samples.astype("<f4")
        if not np.isfinite(data).all():
            peak = float(np.abs(signal.samples).max())
            raise ValueError(f"float32 encoding cannot hold a sample of magnitude {peak}")
        tag = _IEEE_FLOAT
    else:
        raise ValueError(f"unknown WAV encoding {encoding!r}, expected pcm16 or float32")
    header = _header(tag, signal.sample_rate, data)
    with open(path, "wb") as f:
        f.write(header)
        f.write(data.tobytes())
