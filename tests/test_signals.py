import math

import numpy as np
import pytest

from fbsplab.signals import (
    FrameGrid,
    Waveform,
    WindowSpec,
    band_noise,
    chirp,
    derive_seed,
    frame,
    generate,
    silence,
    sine,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)

    def test_order_and_parts_matter(self):
        seeds = {derive_seed(1, 2), derive_seed(2, 1), derive_seed(1, 2, 3),
                 derive_seed(1), derive_seed(2)}
        assert len(seeds) == 5

    def test_fits_in_uint32(self):
        for parts in [(0,), (7, 7, 7), (123456789, 42)]:
            assert 0 <= derive_seed(*parts) < 2 ** 32


class TestWaveform:
    def test_copies_and_locks(self):
        buf = np.zeros(8)
        wf = Waveform(buf, 8000)
        buf[0] = 5.0
        assert wf.samples[0] == 0.0
        with pytest.raises(ValueError):
            wf.samples[0] = 1.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            Waveform(np.zeros((2, 2)), 8000)
        with pytest.raises(ValueError):
            Waveform(np.array([0.0, np.nan]), 8000)
        with pytest.raises(ValueError):
            Waveform(np.zeros(4), 0)

    def test_duration(self):
        assert Waveform(np.zeros(4000), 8000).duration == 0.5

    def test_rejects_fractional_rate(self):
        with pytest.raises(ValueError, match="8000.7"):
            Waveform(np.zeros(4), 8000.7)
        wf = Waveform(np.zeros(4), 8000.0)
        assert wf.sample_rate == 8000 and isinstance(wf.sample_rate, int)


class TestFrameGrid:
    def test_frame_count_formula(self):
        # (n - N) // hop + 1 over a spread of shapes
        for n, N, hop in [(100, 10, 5), (100, 10, 10), (10, 10, 3),
                          (9, 10, 3), (0, 10, 1), (101, 10, 7)]:
            grid = FrameGrid.for_length(n, N, hop)
            expected = (n - N) // hop + 1 if n >= N else 0
            assert grid.num_frames == expected, (n, N, hop)

    def test_hop_bounds(self):
        with pytest.raises(ValueError):
            FrameGrid(frame_length=8, hop=0, num_frames=1)
        with pytest.raises(ValueError):
            FrameGrid(frame_length=8, hop=9, num_frames=1)


class TestWindows:
    def test_rectangular_is_ones(self):
        assert np.array_equal(WindowSpec("rectangular", 9).values(), np.ones(9))

    def test_hann_periodic(self):
        w = WindowSpec("hann", 8).values()
        # periodic Hann: zero start, symmetric about length/2, peak of 1 there
        assert w[0] == 0.0
        assert w[4] == 1.0
        assert np.allclose(w[1:], w[1:][::-1])
        assert np.all((w >= 0.0) & (w <= 1.0))

    def test_hann_matches_cosine_formula(self):
        n = 16
        w = WindowSpec("hann", n).values()
        ref = np.array([0.5 - 0.5 * math.cos(2 * math.pi * k / n) for k in range(n)])
        assert np.allclose(w, ref, atol=1e-15)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            WindowSpec("hamming", 8)


class TestGenerators:
    def test_sine_matches_scalar_formula(self):
        wf = sine(440.0, 0.01, 8000, amplitude=0.5, phase=0.3)
        ref = [0.5 * math.sin(2 * math.pi * 440.0 * t / 8000 + 0.3)
               for t in range(len(wf))]
        assert np.allclose(wf.samples, ref, atol=1e-15)
        assert len(wf) == 80

    def test_sine_rejects_aliasing(self):
        with pytest.raises(ValueError):
            sine(4000.0, 0.1, 8000)

    def test_chirp_endpoints(self):
        # instantaneous frequency should move from f_start toward f_end
        sr, dur = 8000, 1.0
        wf = chirp(500.0, 1500.0, dur, sr)
        n = len(wf)
        seg = n // 4

        def peak_hz(x):
            spec = np.abs(np.fft.rfft(x * np.hanning(len(x))))
            return np.argmax(spec) * sr / len(x)

        assert abs(peak_hz(wf.samples[:seg]) - 625.0) < 50.0  # mean of 500..750
        assert abs(peak_hz(wf.samples[-seg:]) - 1375.0) < 50.0  # mean of 1250..1500

    def test_band_noise_confined_to_band(self):
        wf = band_noise(500.0, 1500.0, 0.5, 8000, seed=7)
        spec = np.abs(np.fft.rfft(wf.samples)) ** 2
        freqs = np.fft.rfftfreq(len(wf), 1.0 / 8000)
        out_of_band = spec[(freqs < 500.0 - 4.0) | (freqs > 1500.0 + 4.0)]
        assert np.sum(out_of_band) < 1e-18 * np.sum(spec)

    def test_band_noise_peak_normalized_and_seeded(self):
        a = band_noise(500.0, 1500.0, 0.25, 8000, seed=3, amplitude=0.7)
        b = band_noise(500.0, 1500.0, 0.25, 8000, seed=3, amplitude=0.7)
        c = band_noise(500.0, 1500.0, 0.25, 8000, seed=4, amplitude=0.7)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)
        assert math.isclose(np.max(np.abs(a.samples)), 0.7, rel_tol=1e-12)

    def test_band_noise_empty_band(self):
        # 80-sample FFT has 100 Hz bin spacing; (510, 590) holds no bin
        with pytest.raises(ValueError):
            band_noise(510.0, 590.0, 0.01, 8000, seed=0)

    def test_silence(self):
        wf = silence(0.123, 8000)
        assert np.all(wf.samples == 0.0)
        assert len(wf) == round(0.123 * 8000)

    def test_generate_dispatch_and_key_checks(self):
        wf = generate("sine", {"frequency": 100.0}, 0.01, 8000)
        assert len(wf) == 80
        with pytest.raises(ValueError):
            generate("square", {}, 0.01, 8000)
        with pytest.raises(ValueError):
            generate("sine", {"frequency": 100.0, "width": 1}, 0.01, 8000)

    def test_generate_band_noise_uses_seed(self):
        a = generate("band_noise", {"low_hz": 300.0, "high_hz": 600.0}, 0.1, 8000, seed=1)
        b = generate("band_noise", {"low_hz": 300.0, "high_hz": 600.0}, 0.1, 8000, seed=2)
        assert not np.array_equal(a.samples, b.samples)


class TestFrame:
    def test_matches_index_formula(self):
        rng = np.random.default_rng(0)
        x = Waveform(rng.standard_normal(50), 8000)
        grid = FrameGrid.for_length(50, 8, 3)
        win = WindowSpec("hann", 8)
        frames = frame(x, grid, win)
        w = win.values()
        assert frames.shape == (grid.num_frames, 8)
        for t in range(grid.num_frames):
            for n in range(8):
                assert frames[t, n] == x.samples[t * 3 + n] * w[n]

    def test_window_length_mismatch(self):
        x = Waveform(np.zeros(50), 8000)
        grid = FrameGrid.for_length(50, 8, 4)
        with pytest.raises(ValueError):
            frame(x, grid, WindowSpec("hann", 16))

    def test_grid_mismatch_rejected(self):
        x = Waveform(np.zeros(50), 8000)
        wrong = FrameGrid(frame_length=8, hop=4, num_frames=2)  # true count is 11
        with pytest.raises(ValueError):
            frame(x, wrong, WindowSpec("rectangular", 8))

    def test_short_signal_raises(self):
        x = Waveform(np.arange(5, dtype=float), 8000)
        empty = FrameGrid.for_length(5, 8, 4)
        assert empty.num_frames == 0
        with pytest.raises(ValueError):
            frame(x, empty, WindowSpec("rectangular", 8))
