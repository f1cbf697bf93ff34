import warnings

import numpy as np
import pytest
from scipy.io import wavfile

from fbsplab.signals import Waveform
from fbsplab.wavio import read_wav, write_wav


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
