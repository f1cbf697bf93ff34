import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fbsplab.transform as transform
from fbsplab.bank import KernelBank, dft_kernel, fbsp_kernel, init_params
from fbsplab.signals import FrameGrid, Waveform, WindowSpec, frame, sine
from fbsplab.transform import (
    DEFAULT_EPS,
    Spectrogram,
    _unfold,
    analyze,
    bank_energy_ratio,
    fold,
    log_power,
    spectrogram_to_csv,
)


def random_waveform(n, seed, sr=8000):
    rng = np.random.default_rng(seed)
    return Waveform(rng.standard_normal(n), sr)


class TestAnalyze:
    def test_matches_triple_loop(self):
        n_fft, hop = 8, 3
        x = random_waveform(40, 0)
        grid = FrameGrid.for_length(len(x), n_fft, hop)
        win = WindowSpec("hann", n_fft)
        bank = dft_kernel(n_fft)
        coeffs = analyze(x, bank, grid, win)
        w = win.values()
        assert coeffs.shape == (bank.num_filters, grid.num_frames)
        for k in range(bank.num_filters):
            for t in range(grid.num_frames):
                acc = 0.0 + 0.0j
                for n in range(n_fft):
                    acc += x.samples[t * hop + n] * w[n] * bank.weights[k, n]
                assert abs(coeffs[k, t] - acc) < 1e-12

    def test_tap_count_mismatch(self):
        x = random_waveform(40, 0)
        grid = FrameGrid.for_length(len(x), 8, 4)
        with pytest.raises(ValueError):
            analyze(x, dft_kernel(16), grid, WindowSpec("hann", 8))

    def test_init_bank_magnitudes_match_rfft(self):
        # at the starting parameters the transform is the STFT in magnitude
        n_fft = 32
        x = random_waveform(200, 1)
        grid = FrameGrid.for_length(len(x), n_fft, n_fft // 2)
        win = WindowSpec("hann", n_fft)
        coeffs = analyze(x, fbsp_kernel(init_params(n_fft), n_fft), grid, win)
        frames = frame(x, grid, win)
        stft = np.fft.rfft(frames, axis=1).T / math.sqrt(n_fft)
        assert np.max(np.abs(np.abs(coeffs) - np.abs(stft))) < 1e-12

    def test_parseval_with_two_sided_dft(self):
        # unitary two-sided bank: per-frame output energy equals frame energy
        n_fft = 16
        x = random_waveform(64, 2)
        grid = FrameGrid.for_length(len(x), n_fft, n_fft)
        win = WindowSpec("rectangular", n_fft)
        scale = 1.0 / math.sqrt(n_fft)
        two_sided = KernelBank(np.fft.fft(np.eye(n_fft)) * scale, "dft", scale)
        coeffs = analyze(x, two_sided, grid, win)
        frames = frame(x, grid, win)
        for t in range(grid.num_frames):
            assert math.isclose(np.sum(np.abs(coeffs[:, t]) ** 2),
                                np.sum(frames[t] ** 2), rel_tol=1e-12)

    def test_is_computed_without_forward(self, monkeypatch):
        # the reference the forward pass is tested against must not run it
        def no_forward(*args, **kwargs):
            raise AssertionError("analyze ran transform.forward")

        n_fft, hop = 16, 5
        x = random_waveform(90, 3)
        grid = FrameGrid.for_length(len(x), n_fft, hop)
        win = WindowSpec("hann", n_fft)
        bank = fbsp_kernel(init_params(n_fft), n_fft)
        frames = frame(x, grid, win)
        expected = np.array([[np.sum(frames[t] * bank.weights[k])
                              for t in range(grid.num_frames)]
                             for k in range(bank.num_filters)])
        monkeypatch.setattr("fbsplab.transform.forward", no_forward)
        assert np.allclose(analyze(x, bank, grid, win), expected, atol=1e-12)


def butterfly(x):
    """[E | O] of (T, N) frames, built apart from ``fold``."""
    half, middle = x.shape[1] // 2, (x.shape[1] + 1) // 2
    mirrored = x[:, ::-1]
    return np.concatenate([x[:, :half] + mirrored[:, :half], x[:, half:middle],
                           x[:, :half] - mirrored[:, :half]], axis=1)


class TestFold:
    # chunks of FOLD_VALUES = n_fft - 1 values are one row each; the others span
    # whole rows and leave a shorter last chunk
    @settings(max_examples=300, deadline=None, database=None)
    @given(n_fft=st.integers(2, 80), rows=st.integers(1, 40),
           chunk=st.sampled_from([lambda n: n - 1, lambda n: n, lambda n: 2 * n + 1,
                                  lambda n: 7 * n - 1]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_fold_and_unfold_work_in_place_at_any_chunk(self, n_fft, rows, chunk, seed):
        rng = np.random.default_rng(seed)
        x, z = rng.standard_normal((rows, n_fft)), rng.standard_normal((5, rows))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(transform, "FOLD_VALUES", max(1, chunk(n_fft)))
            folded = x.copy()
            assert fold(folded) is folded
            assert folded.tobytes() == butterfly(x).tobytes()
            product = z @ fold(x.copy())
            assert _unfold(product) is product
        np.testing.assert_allclose(product, z @ x, rtol=0, atol=1e-12)

    # one FOLD_VALUES chunk and numpy's ufunc buffers; the spectrogram render bound
    # has no room for a frame-sized temporary
    @pytest.mark.parametrize("n_fft", [2, 64, 255, 1024, transform.FOLD_VALUES])
    def test_fold_holds_no_frame_sized_temporary(self, n_fft):
        frames = np.random.default_rng(0).standard_normal(
            (5 * transform.FOLD_VALUES // (2 * n_fft) + 1, n_fft))
        tracemalloc.start()
        try:
            fold(frames)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * transform.FOLD_VALUES + 256 * 1024


class TestLogPower:
    def test_values(self):
        n_fft = 8
        x = random_waveform(32, 3)
        grid = FrameGrid.for_length(len(x), n_fft, 4)
        win = WindowSpec("rectangular", n_fft)
        bank = dft_kernel(n_fft)
        coeffs = analyze(x, bank, grid, win)
        spec = log_power(coeffs, 1e-10, grid, bank)
        ref = np.log(np.abs(coeffs) ** 2 + 1e-10)
        assert np.array_equal(spec.values, ref)
        assert spec.eps == 1e-10
        assert spec.bank_descriptor == "dft"

    def test_eps_floor_on_silence(self):
        n_fft = 8
        x = Waveform(np.zeros(16), 8000)
        grid = FrameGrid.for_length(16, n_fft, 8)
        coeffs = analyze(x, dft_kernel(n_fft), grid, WindowSpec("rectangular", n_fft))
        spec = log_power(coeffs, DEFAULT_EPS, grid, dft_kernel(n_fft))
        assert np.allclose(spec.values, math.log(DEFAULT_EPS))

    def test_eps_validation(self):
        grid = FrameGrid.for_length(16, 8, 8)
        with pytest.raises(ValueError):
            log_power(np.zeros((5, 2), dtype=complex), 0.0, grid, "dft")

    def test_spectrogram_validation(self):
        grid = FrameGrid.for_length(16, 8, 8)  # 2 frames
        with pytest.raises(ValueError):
            Spectrogram(values=np.zeros((3, 5)), grid=grid, bank_descriptor="dft", eps=1e-10)
        with pytest.raises(ValueError):
            Spectrogram(values=np.full((3, 2), np.nan), grid=grid,
                        bank_descriptor="dft", eps=1e-10)


class TestBankEnergyRatio:
    def make_spec(self, power, grid):
        return Spectrogram(values=np.log(power + 1e-10), grid=grid,
                           bank_descriptor="dft", eps=1e-10)

    def test_identical_gives_inf(self):
        grid = FrameGrid(frame_length=8, hop=8, num_frames=2)
        p = np.abs(np.random.default_rng(0).standard_normal((5, 2))) + 0.1
        spec = self.make_spec(p, grid)
        assert bank_energy_ratio(spec, spec) == math.inf

    def test_silent_clean_gives_minus_inf(self):
        # the limit of 10 log10(signal / residual) as the clean power goes to 0
        n_fft = 64
        grid = FrameGrid.for_length(256, n_fft, n_fft // 2)
        win = WindowSpec("hann", n_fft)
        bank = dft_kernel(n_fft)

        def spec(samples):
            coeffs = analyze(Waveform(samples, 8000), bank, grid, win)
            return log_power(coeffs, DEFAULT_EPS, grid, bank)

        silent = spec(np.zeros(256))
        noisy = spec(random_waveform(256, 3).samples)
        assert bank_energy_ratio(silent, noisy) == -math.inf
        assert bank_energy_ratio(silent, silent) == math.inf

    def test_known_residual(self):
        grid = FrameGrid(frame_length=8, hop=8, num_frames=1)
        clean = np.full((4, 1), 2.0)
        noisy = clean.copy()
        noisy[0, 0] += 0.8  # residual 0.8 against signal 8.0 -> 10 dB
        ratio = bank_energy_ratio(self.make_spec(clean, grid), self.make_spec(noisy, grid))
        assert abs(ratio - 10.0) < 1e-9

    def test_shape_mismatch(self):
        g1 = FrameGrid(frame_length=8, hop=8, num_frames=1)
        g2 = FrameGrid(frame_length=8, hop=8, num_frames=2)
        with pytest.raises(ValueError):
            bank_energy_ratio(self.make_spec(np.ones((4, 1)), g1),
                              self.make_spec(np.ones((4, 2)), g2))


class TestCsvExport:
    def test_matrix_and_sidecar(self, tmp_path):
        n_fft = 16
        x = sine(440.0, 0.05, 8000)
        grid = FrameGrid.for_length(len(x), n_fft, 8)
        win = WindowSpec("hann", n_fft)
        bank = fbsp_kernel(init_params(n_fft), n_fft)
        spec = log_power(analyze(x, bank, grid, win), DEFAULT_EPS, grid, bank)
        path = tmp_path / "spec.csv"
        spectrogram_to_csv(path, spec)

        lines = path.read_text().strip().split("\n")
        assert lines[0] == ",".join(f"frame_{t}" for t in range(grid.num_frames))
        matrix = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.allclose(matrix, spec.values, atol=1e-15)

        meta = json.loads((tmp_path / "spec.csv.meta.json").read_text())
        assert meta["grid"]["hop"] == 8
        assert meta["bank"]["kind"] == "fbsp"
        assert meta["bank"]["m"] == 0.0
        assert meta["num_filters"] == n_fft // 2 + 1
