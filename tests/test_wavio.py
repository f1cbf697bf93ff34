import struct
import warnings

import numpy as np
import pytest
from scipy.io import wavfile

from fbsplab.cli import main
from fbsplab.signals import Waveform
from fbsplab.wavio import _header, read_wav, write_wav


def test_pcm16_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    wf = Waveform(rng.uniform(-0.9, 0.9, 400), 8000)
    path = tmp_path / "a.wav"
    write_wav(path, wf, encoding="pcm16")
    back = read_wav(path)
    assert back.sample_rate == 8000
    # write scales by 32767, read divides by 32768: error is bounded by
    # the 1/32768 relative scale gap plus half a quantization step
    bound = 0.9 / 32768 + 0.5 / 32767
    assert np.max(np.abs(back.samples - wf.samples)) <= bound


def test_float32_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    wf = Waveform(rng.standard_normal(300), 44100)
    path = tmp_path / "b.wav"
    write_wav(path, wf, encoding="float32")
    back = read_wav(path)
    assert back.sample_rate == 44100
    assert np.array_equal(back.samples, wf.samples.astype(np.float32).astype(np.float64))


def test_stereo_downmix(tmp_path):
    path = tmp_path / "c.wav"
    left = np.linspace(-0.5, 0.5, 100, dtype=np.float32)
    right = np.zeros(100, dtype=np.float32)
    wavfile.write(path, 16000, np.stack([left, right], axis=1))
    back = read_wav(path)
    assert np.allclose(back.samples, left / 2.0, atol=1e-7)


def test_unsupported_dtype(tmp_path):
    path = tmp_path / "d.wav"
    wavfile.write(path, 8000, np.zeros(10, dtype=np.uint8))
    with pytest.raises(ValueError):
        read_wav(path)


def test_unknown_encoding(tmp_path):
    wf = Waveform(np.zeros(10), 8000)
    with pytest.raises(ValueError):
        write_wav(tmp_path / "e.wav", wf, encoding="pcm24")


def test_float32_refuses_samples_beyond_its_range(tmp_path):
    path = tmp_path / "c.wav"
    wf = Waveform(np.array([0.5, -1e39, 0.25]), 8000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning included
        with pytest.raises(ValueError, match=r"^float32 encoding .* magnitude 1e\+39$"):
            write_wav(path, wf, encoding="float32")
    assert not path.exists()
    write_wav(path, wf, encoding="pcm16")  # pcm16 clips
    assert read_wav(path).samples[1] == -32767 / 32768
    top = float(np.finfo(np.float32).max)
    write_wav(path, Waveform(np.array([top, -top]), 8000), encoding="float32")
    assert np.array_equal(read_wav(path).samples, [top, -top])


def test_stereo_pcm16_downmix_scales_before_averaging(tmp_path):
    path = tmp_path / "s.wav"
    wavfile.write(path, 8000, np.array([[16384, 0], [-32768, 32767]], dtype=np.int16))
    assert np.array_equal(read_wav(path).samples, [0.25, -1 / 65536])


# scipy.io.wavfile is the independent reference of the codec
@pytest.mark.parametrize("encoding", ["pcm16", "float32"])
@pytest.mark.parametrize("length", [0, 1, 333])
def test_writes_the_bytes_scipy_writes(tmp_path, encoding, length):
    samples = np.random.default_rng(length).uniform(-1.2, 1.2, length)
    ours, theirs = tmp_path / "ours.wav", tmp_path / "theirs.wav"
    write_wav(ours, Waveform(samples, 22050), encoding=encoding)
    data = (np.round(np.clip(samples, -1.0, 1.0) * 32767).astype(np.int16)
            if encoding == "pcm16" else samples.astype(np.float32))
    wavfile.write(theirs, 22050, data)
    assert ours.read_bytes() == theirs.read_bytes()


def _chunk(chunk_id: bytes, body: bytes) -> bytes:
    return chunk_id + struct.pack("<I", len(body)) + body + b"\x00" * (len(body) % 2)


def _riff(*chunks: bytes) -> bytes:
    body = b"WAVE" + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def _fmt(tag, channels, rate, bits, extra=b""):
    align = channels * bits // 8
    return _chunk(b"fmt ", struct.pack("<HHIIHH", tag, channels, rate, rate * align, align, bits)
                  + extra)


def _extensible(channels, rate, bits, subformat):
    guid = struct.pack("<I", subformat) + bytes.fromhex("0000 1000 8000 00aa00389b71")
    return _fmt(0xFFFE, channels, rate, bits, struct.pack("<HHI", 22, bits, 3) + guid)


_STEREO = np.array([[0.5, -0.25], [0.125, 1.0], [-1.0, 0.0]])


@pytest.mark.parametrize("content", [
    pytest.param(_riff(_fmt(1, 2, 8000, 16), _chunk(
        b"data", (_STEREO * 32767).astype("<i2").tobytes())), id="stereo pcm16"),
    pytest.param(_riff(_fmt(3, 2, 8000, 64, b"\x00\x00"), _chunk(
        b"data", _STEREO.astype("<f8").tobytes())), id="stereo float64"),
    pytest.param(_riff(_extensible(2, 8000, 16, 1), _chunk(
        b"data", (_STEREO * 32767).astype("<i2").tobytes())), id="extensible pcm16"),
    pytest.param(_riff(_extensible(2, 8000, 32, 3), _chunk(
        b"data", _STEREO.astype("<f4").tobytes())), id="extensible float32"),
    pytest.param(_riff(_fmt(1, 1, 8000, 16), _chunk(b"LIST", b"INFOabc"), _chunk(
        b"data", (_STEREO[:, 0] * 32767).astype("<i2").tobytes())), id="odd LIST chunk"),
])
def test_reads_what_scipy_reads(tmp_path, content):
    path = tmp_path / "r.wav"
    path.write_bytes(content)
    rate, data = wavfile.read(path)
    scaled = data / 32768.0 if data.dtype == np.int16 else data.astype(np.float64)
    expected = scaled.mean(axis=1) if scaled.ndim == 2 else scaled
    back = read_wav(path)
    assert back.sample_rate == rate == 8000
    assert np.array_equal(back.samples, expected)


_PCM16 = _riff(_fmt(1, 1, 8000, 16), _chunk(b"data", bytes(16)))


@pytest.mark.parametrize("content, cause", [
    (_PCM16[:30], "file ends inside its fmt chunk"),
    (_riff(_chunk(b"fmt ", _fmt(1, 1, 8000, 16)[8:22]), _chunk(b"data", bytes(8))),
     "fmt chunk is 14 bytes, fewer than 16"),
    (_PCM16[:22] + b"\x00\x00" + _PCM16[24:], "fmt chunk declares 0 channels"),
    (_PCM16[:-4], "data chunk holds 12 bytes, its header claims 16"),
    (b"RIFX" + _PCM16[4:], "RIFX files are not supported"),
    (b"RF64" + _PCM16[4:], "RF64 files are not supported"),
    (b"OggS" + bytes(40), "not a RIFF WAVE file"),
    (_riff(_fmt(1, 1, 8000, 8), _chunk(b"data", bytes(8))), "unsupported sample format 8-bit PCM"),
    (_riff(_fmt(1, 1, 8000, 24), _chunk(b"data", bytes(9))), "unsupported sample format 24-bit PCM"),
    (_riff(_fmt(1, 1, 8000, 32), _chunk(b"data", bytes(8))), "unsupported sample format 32-bit PCM"),
    (_riff(_fmt(6, 1, 8000, 8), _chunk(b"data", bytes(8))),
     "unsupported sample format 8-bit format tag 0x0006"),
    (_riff(_extensible(1, 8000, 16, 0x55)[:-2] + b"\x00\x01", _chunk(b"data", bytes(8))),
     "EXTENSIBLE fmt chunk carries no known sub-format"),
    (_riff(_fmt(1, 1, 0, 16), _chunk(b"data", bytes(8))), "sample rate of 0 Hz"),
    (_PCM16[:32] + b"\x04\x00" + _PCM16[34:], "fmt chunk disagrees with itself"),
    (_riff(_fmt(1, 1, 8000, 16)), "no data chunk"),
    (_riff(_chunk(b"data", bytes(8)), _fmt(1, 1, 8000, 16)),
     "data chunk comes before the fmt chunk"),
    (_riff(_fmt(1, 1, 8000, 16), _chunk(b"data", bytes(7))),
     "data chunk of 7 bytes is not a whole number of 2-byte frames"),
    (_riff(_fmt(3, 1, 8000, 32, b"\x00\x00"), _chunk(b"data", np.float32([0, np.nan]).tobytes())),
     "waveform contains non-finite samples"),
])
def test_malformed_wav_exits_2_naming_the_file_and_cause(tmp_path, capsys, content, cause):
    path = tmp_path / "bad.wav"
    path.write_bytes(content)
    code = main(["spectrogram", "--input", str(path), "--out", str(tmp_path / "s.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {path}: " in err and cause in err
    assert not (tmp_path / "s.csv").exists()


def test_gen_refuses_a_rate_the_header_cannot_hold_before_opening(tmp_path, capsys):
    out = tmp_path / "g.wav"
    code = main(["gen", "--sample-rate", "3000000000", "--duration", "0.000000002",
                 "--out", str(out)])
    assert code == 2
    assert ("error: a WAV of 16-bit samples cannot hold a sample rate of 3000000000 Hz"
            in capsys.readouterr().err)
    assert not out.exists()


def test_header_refuses_data_its_riff_size_cannot_hold():
    # 36 header bytes after the RIFF size field, then 2 bytes a sample
    most = (0xFFFFFFFF - 36) // 2
    assert len(_header(1, 8000, np.broadcast_to(np.int16(0), (most,)))) == 44
    with pytest.raises(ValueError, match="RIFF size exceeds 32 bits"):
        _header(1, 8000, np.broadcast_to(np.int16(0), (most + 1,)))
