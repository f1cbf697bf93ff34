import math
import sys

import numpy as np
import pytest

import fbsplab.perturb
from fbsplab.bank import dft_kernel
from fbsplab.perturb import (
    DEFAULT_SNR_AXIS,
    MAX_ORDER,
    ButterworthFilter,
    SweepResult,
    add_awgn,
    apply_filter,
    check_axis,
    default_axis,
    design_butterworth_lowpass,
    magnitude_response_db,
    robustness_sweep,
    snr_power_ratio,
    sweep_to_csv,
)
from fbsplab.signals import FrameGrid, Waveform, WindowSpec, sine
from fbsplab.transform import DEFAULT_EPS, analyze, log_power


class TestAwgn:
    def test_calibration(self):
        # one long draw: the empirical SNR estimator has sigma ~ 0.006 dB
        # at 4e5 samples, so 0.05 dB is a > 5-sigma bound
        x = sine(440.0, 50.0, 8000)
        for target in (0.0, 10.0, 20.0):
            y = add_awgn(x, target, seed=99)
            noise = y.samples - x.samples
            measured = 10.0 * math.log10(
                np.mean(x.samples ** 2) / np.mean(noise ** 2))
            assert abs(measured - target) < 0.05, target

    def test_seeded_and_distinct(self):
        x = sine(100.0, 0.1, 8000)
        a = add_awgn(x, 10.0, seed=1)
        b = add_awgn(x, 10.0, seed=1)
        c = add_awgn(x, 10.0, seed=2)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_inf_snr_passthrough(self):
        x = sine(100.0, 0.1, 8000)
        assert np.array_equal(add_awgn(x, math.inf, seed=0).samples, x.samples)

    def test_rejects_nan_and_silence(self):
        x = sine(100.0, 0.1, 8000)
        with pytest.raises(ValueError):
            add_awgn(x, math.nan, seed=0)
        with pytest.raises(ValueError):
            add_awgn(Waveform(np.zeros(100), 8000), 10.0, seed=0)

    @pytest.mark.parametrize("level", [-math.inf, -4000.0, 4000.0, 1e308, -3100.0])
    def test_level_outside_float_range_is_named(self, level):
        # these ended in ZeroDivisionError, OverflowError or, at -3100 dB, in
        # non-finite samples
        with pytest.raises(ValueError, match="^snr_db .* dB puts the noise level outside"):
            add_awgn(sine(100.0, 0.1, 8000), level, seed=0)

    def test_noise_keeps_the_power_ratio_expression(self):
        x = sine(100.0, 0.1, 8000)
        power = float(np.mean(x.samples ** 2))
        for level in (-300.0, -7.3, 0.0, 12.5, 300.0):
            sigma = math.sqrt(power / (10.0 ** (level / 10.0)))
            noise = sigma * np.random.default_rng(5).standard_normal(len(x))
            assert np.array_equal(add_awgn(x, level, seed=5).samples, x.samples + noise)


class TestButterworthDesign:
    def test_dc_gain_unity(self):
        for order in (1, 2, 3, 5, 8):
            filt = design_butterworth_lowpass(order, 1000.0, 44100.0)
            db = magnitude_response_db(filt, [0.0])[0]
            assert abs(db) < 1e-9, order

    def test_cutoff_is_minus_3db(self):
        for order in (1, 2, 5):
            filt = design_butterworth_lowpass(order, 1000.0, 44100.0)
            db = magnitude_response_db(filt, [1000.0])[0]
            assert abs(db - 20.0 * math.log10(1.0 / math.sqrt(2.0))) < 1e-9

    def test_octave_above_cutoff_drop(self):
        # order-5 drop from the cutoff level to one octave above, at a
        # cutoff high enough that prewarping pulls the analog -27.1 dB
        # octave drop down to the asymptotic -30.1; low cutoffs stay analog
        filt = design_butterworth_lowpass(5, 4000.0, 44100.0)
        at_fc, at_2fc = magnitude_response_db(filt, [4000.0, 8000.0])
        assert abs((at_2fc - at_fc) - (-30.1)) < 1.0
        low = design_butterworth_lowpass(5, 100.0, 44100.0)
        at_fc, at_2fc = magnitude_response_db(low, [100.0, 200.0])
        assert abs((at_2fc - at_fc) - (-27.1)) < 0.5

    def test_strictly_monotone_magnitude(self):
        filt = design_butterworth_lowpass(5, 400.0, 44100.0)
        freqs = np.linspace(0.0, 22050.0, 2000)
        db = magnitude_response_db(filt, freqs)
        assert np.all(np.diff(db) < 0.0)

    def test_deep_stopband(self):
        filt = design_butterworth_lowpass(5, 400.0, 44100.0)
        db = magnitude_response_db(filt, [4000.0])[0]
        assert db < -95.0

    def test_pole_stability_and_sections(self):
        filt = design_butterworth_lowpass(7, 3000.0, 16000.0)
        assert filt.num_sections == 4  # three pairs + first-order tail
        for a1, a2 in filt.sections[:, 3:]:
            if a2 == 0.0:
                assert abs(a1) < 1.0
            else:
                roots = np.roots([1.0, a1, a2])
                assert np.all(np.abs(roots) < 1.0)

    def test_design_validation(self):
        with pytest.raises(ValueError):
            design_butterworth_lowpass(0, 1000.0, 44100.0)
        with pytest.raises(ValueError):
            design_butterworth_lowpass(4, 22050.0, 44100.0)
        with pytest.raises(ValueError):
            design_butterworth_lowpass(4, 0.0, 44100.0)

    def test_unstable_sections_rejected(self):
        with pytest.raises(ValueError):
            ButterworthFilter(sections=np.array([[1.0, 0, 0, 0.0, 1.5]]),
                              order=2, cutoff_hz=100.0, sample_rate=8000.0)
        with pytest.raises(ValueError):
            ButterworthFilter(sections=np.array([[1.0, 0, 0, 2.5, 1.0 - 1e-9]]),
                              order=2, cutoff_hz=100.0, sample_rate=8000.0)

    def test_response_frequency_validation(self):
        filt = design_butterworth_lowpass(2, 1000.0, 8000.0)
        with pytest.raises(ValueError):
            magnitude_response_db(filt, [4001.0])


class TestCheckAxis:
    @pytest.mark.parametrize("kind, axis, order, message", [
        ("awgn", [10.0, -math.inf], 5, "snr_db -inf dB"),
        ("awgn", [math.nan], 5, "snr_db must not be NaN"),
        ("lowpass", [0.0], 5, "cutoff 0.0 Hz"),
        ("lowpass", [1000.0], 0, "order must be a positive integer, got 0"),
        ("lowpass", [math.nan], 5, "cutoff nan Hz"),
        ("bandstop", [1000.0], 5, "unknown sweep kind 'bandstop'"),
    ])
    def test_refuses_a_cell_that_would_fail(self, kind, axis, order, message):
        with pytest.raises(ValueError, match=message):
            check_axis(kind, axis, 8000.0, order)

    def test_passes_valid_axes_and_cutoffs_at_or_above_nyquist(self):
        check_axis("awgn", list(DEFAULT_SNR_AXIS), 8000.0, 5)
        check_axis("lowpass", default_axis("lowpass", 8000.0), 8000.0, 5)
        check_axis("lowpass", [4000.0, 9000.0, math.inf], 8000.0, 0)  # the order goes unused


class TestApplyFilter:
    def test_impulse_matches_long_division(self):
        # expand the cascade to one rational transfer function and divide
        filt = design_butterworth_lowpass(5, 500.0, 8000.0)
        b_all, a_all = np.array([1.0]), np.array([1.0])
        for b0, b1, b2, a1, a2 in filt.sections:
            b_all = np.convolve(b_all, [b0, b1, b2])
            a_all = np.convolve(a_all, [1.0, a1, a2])
        taps = 64
        ref = np.zeros(taps)
        for k in range(taps):
            acc = b_all[k] if k < len(b_all) else 0.0
            for j in range(1, min(k, len(a_all) - 1) + 1):
                acc -= a_all[j] * ref[k - j]
            ref[k] = acc

        impulse = np.zeros(taps)
        impulse[0] = 1.0
        out = apply_filter(filt, Waveform(impulse, 8000))
        assert np.max(np.abs(out.samples - ref)) < 1e-8

    def test_matches_direct_form_loop(self):
        # run one biquad by hand over a random signal
        filt = design_butterworth_lowpass(2, 900.0, 8000.0)
        rng = np.random.default_rng(4)
        x = rng.standard_normal(100)
        b0, b1, b2, a1, a2 = filt.sections[0]
        ref = np.zeros(100)
        for k in range(100):
            ref[k] = b0 * x[k]
            if k >= 1:
                ref[k] += b1 * x[k - 1] - a1 * ref[k - 1]
            if k >= 2:
                ref[k] += b2 * x[k - 2] - a2 * ref[k - 2]
        out = apply_filter(filt, Waveform(x, 8000))
        assert np.max(np.abs(out.samples - ref)) < 1e-10

    @pytest.mark.parametrize("order", [1, 2, 3, 5, 8, 20])
    @pytest.mark.parametrize("cutoff_hz", [20.0, 181.4, 900.0, 2000.0, 3990.0])
    def test_matches_scipy_sosfilt(self, order, cutoff_hz):
        # scipy's transposed direct form II is the independent reference; the
        # lengths cover a part block, whole blocks and many blocks
        from scipy.signal import sosfilt

        filt = design_butterworth_lowpass(order, cutoff_hz, 8000.0)
        sos = np.insert(filt.sections, 3, 1.0, axis=1)
        rng = np.random.default_rng(order)
        for n in (1, 31, 64, 6001):
            x = rng.standard_normal(n)
            out = apply_filter(filt, Waveform(x, 8000))
            assert np.max(np.abs(out.samples - sosfilt(sos, x))) < 1e-10

    def test_empty_signal_filters_to_empty(self):
        filt = design_butterworth_lowpass(3, 900.0, 8000.0)
        assert len(apply_filter(filt, Waveform(np.zeros(0), 8000))) == 0

    def test_sample_rate_mismatch(self):
        filt = design_butterworth_lowpass(2, 900.0, 8000.0)
        with pytest.raises(ValueError):
            apply_filter(filt, Waveform(np.zeros(10), 16000))


class StubModel:
    """Minimal duck-typed model: nearest-frequency classifier with a DFT bank."""

    bank_label = "stub"

    def __init__(self, n_fft=64, sr=8000):
        self.n_fft = n_fft
        self.sr = sr
        self.bank = dft_kernel(n_fft)
        self.window = WindowSpec("hann", n_fft)

    def spectrogram(self, wf):
        grid = FrameGrid.for_length(len(wf), self.n_fft, self.n_fft // 2)
        coeffs = analyze(wf, self.bank, grid, self.window)
        return log_power(coeffs, DEFAULT_EPS, grid, self.bank)

    def predict(self, spec):
        peak_bin = int(np.argmax(spec.values.mean(axis=1)))
        # class 0 below 1 kHz, class 1 above
        return 0 if peak_bin * self.sr / self.n_fft < 1000.0 else 1


class CountingModel(StubModel):
    """StubModel that counts how many spectrograms a sweep asks it for."""

    def __init__(self):
        super().__init__()
        self.renders = 0

    def spectrogram(self, wf):
        self.renders += 1
        return super().spectrogram(wf)


class TestRobustnessSweep:
    def make_clips(self):
        clips = [sine(400.0, 0.1, 8000), sine(2000.0, 0.1, 8000),
                 sine(600.0, 0.1, 8000), sine(3000.0, 0.1, 8000)]
        return clips, [0, 1, 0, 1]

    def test_awgn_sweep_shapes_and_control_arm(self):
        clips, labels = self.make_clips()
        [result] = robustness_sweep("awgn", [math.inf, 10.0, -20.0],
                                    [StubModel()], clips, labels, seed=5)
        assert result.kind == "awgn"
        assert result.bank_label == "stub"
        assert result.num_clips == 4
        assert result.accuracy[0] == 1.0  # clean tones classify perfectly
        assert result.spectro_snr_db[0] == math.inf  # identical rendering
        assert result.spectro_snr_db[2] < result.spectro_snr_db[1]
        assert np.all((result.accuracy >= 0.0) & (result.accuracy <= 1.0))

    def test_lowpass_sweep_identity_above_nyquist(self):
        # class-1 clips carry a dominant high tone over a weaker low tone;
        # filtering at 1 kHz drops the high peak ~25+ dB so argmax flips
        def two_tone(sr=8000):
            low = sine(400.0, 0.1, sr, amplitude=0.5)
            high = sine(3000.0, 0.1, sr, amplitude=1.0)
            return Waveform(low.samples + high.samples, sr)

        clips = [sine(400.0, 0.1, 8000), two_tone(), sine(600.0, 0.1, 8000)]
        labels = [0, 1, 0]
        [result] = robustness_sweep("lowpass", [8000.0, 1000.0],
                                    [StubModel()], clips, labels, seed=5)
        assert result.spectro_snr_db[0] == math.inf
        assert result.accuracy[0] == 1.0
        assert result.accuracy[1] == pytest.approx(2.0 / 3.0)

    @pytest.mark.parametrize("kind, axis", [("awgn", [math.inf, 10.0, 0.0]),
                                            ("lowpass", [8000.0, 1000.0])])
    def test_each_clip_is_rendered_once_per_cell(self, kind, axis):
        # each model renders each clip clean once, then once per (axis value,
        # clip) cell that perturbs it, for both the prediction and the energy
        # ratio; the first cell of each axis is an identity (awgn at inf, a
        # cutoff at or above Nyquist), which reuses the clean rendering
        clips, labels = self.make_clips()
        models = [CountingModel(), CountingModel()]
        robustness_sweep(kind, axis, models, clips, labels, seed=5)
        assert [model.renders for model in models] == [len(clips) * len(axis)] * 2

    def test_each_cell_designs_its_filter_once(self, monkeypatch):
        # one design per cell below Nyquist (4 kHz here), whatever the clip
        # count, and none at or above it; each filter builds its block
        # operators once
        designs = []
        design = fbsplab.perturb.design_butterworth_lowpass

        def counted(*args):
            designs.append(design(*args))
            return designs[-1]

        monkeypatch.setattr(fbsplab.perturb, "design_butterworth_lowpass", counted)
        clips, labels = self.make_clips()
        robustness_sweep("lowpass", [4000.0, 9000.0, 1000.0, 2500.0], [StubModel()],
                         clips, labels, seed=5)
        assert [filt.cutoff_hz for filt in designs] == [1000.0, 2500.0]
        for filt in designs:
            assert filt.block_operators is filt.block_operators

    @pytest.mark.parametrize("kind, axis, message", [
        ("awgn", [10.0, -3100.0], "snr_db -3100.0 dB"),
        ("lowpass", [1000.0, 0.0], "cutoff 0.0 Hz"),
    ])
    def test_a_refused_cell_fails_before_the_first_render(self, kind, axis, message):
        clips, labels = self.make_clips()
        model = CountingModel()
        with pytest.raises(ValueError, match=message):
            robustness_sweep(kind, axis, [model], clips, labels, seed=5)
        assert model.renders == 0

    def test_clips_at_two_sample_rates_get_their_own_cells(self, monkeypatch):
        # one design per (cell, rate) below that rate's Nyquist; the 8 kHz
        # clip passes the 6 kHz cell unfiltered
        designs, applied = [], []
        design, apply = fbsplab.perturb.design_butterworth_lowpass, fbsplab.perturb.apply_filter

        def counted_design(*args):
            designs.append(design(*args))
            return designs[-1]

        def counted_apply(filt, signal):
            applied.append((filt.cutoff_hz, signal.sample_rate))
            return apply(filt, signal)

        monkeypatch.setattr(fbsplab.perturb, "design_butterworth_lowpass", counted_design)
        monkeypatch.setattr(fbsplab.perturb, "apply_filter", counted_apply)
        clips = [sine(400.0, 0.1, 8000), sine(3000.0, 0.1, 16000)]
        robustness_sweep("lowpass", [1000.0, 6000.0], [StubModel()], clips, [0, 1], seed=5)
        assert [(f.cutoff_hz, f.sample_rate) for f in designs] == [
            (1000.0, 8000.0), (1000.0, 16000.0), (6000.0, 16000.0)]
        assert applied == [(1000.0, 8000), (1000.0, 16000), (6000.0, 16000)]

    def test_cells_are_independently_seeded(self):
        clips, labels = self.make_clips()
        [a] = robustness_sweep("awgn", [10.0], [StubModel()], clips, labels, seed=5)
        [b] = robustness_sweep("awgn", [10.0], [StubModel()], clips, labels, seed=5)
        [c] = robustness_sweep("awgn", [10.0], [StubModel()], clips, labels, seed=6)
        assert a.spectro_snr_db[0] == b.spectro_snr_db[0]
        assert a.spectro_snr_db[0] != c.spectro_snr_db[0]

    @pytest.mark.parametrize("kind, axis", [("awgn", [math.inf, 10.0, 0.0]),
                                            ("lowpass", [8000.0, 1000.0, 2500.0])])
    def test_a_paired_sweep_scores_each_model_as_if_swept_alone(self, kind, axis):
        clips, labels = self.make_clips()
        a, b = StubModel(), StubModel(n_fft=128)
        b.bank_label = "wide"
        paired = robustness_sweep(kind, axis, [a, b], clips, labels, seed=5)
        alone = [robustness_sweep(kind, axis, [model], clips, labels, seed=5)[0]
                 for model in (a, b)]
        assert [r.bank_label for r in paired] == ["stub", "wide"]
        for together, single in zip(paired, alone):
            assert together.accuracy.tobytes() == single.accuracy.tobytes()
            assert together.spectro_snr_db.tobytes() == single.spectro_snr_db.tobytes()
        assert paired[0].spectro_snr_db.tobytes() != paired[1].spectro_snr_db.tobytes()

    @pytest.mark.parametrize("kind, axis, cells", [("awgn", [math.inf, 10.0, 0.0], 3),
                                                   ("lowpass", [8000.0, 1000.0], 1)])
    def test_each_cell_perturbs_each_clip_once_for_all_models(self, kind, axis, cells,
                                                              monkeypatch):
        # add_awgn runs at every awgn cell (returning its clip at inf), the
        # filter only at cells below Nyquist; neither runs again per model
        calls = []
        noise, apply = fbsplab.perturb.add_awgn, fbsplab.perturb.apply_filter

        def counted_noise(signal, snr_db, seed):
            calls.append(("awgn", snr_db, seed))
            return noise(signal, snr_db, seed)

        def counted_apply(filt, signal):
            calls.append(("lowpass", filt.cutoff_hz, id(signal)))
            return apply(filt, signal)

        monkeypatch.setattr(fbsplab.perturb, "add_awgn", counted_noise)
        monkeypatch.setattr(fbsplab.perturb, "apply_filter", counted_apply)
        clips, labels = self.make_clips()
        robustness_sweep(kind, axis, [StubModel(), StubModel(n_fft=128)], clips, labels, seed=5)
        assert len(calls) == len(set(calls)) == cells * len(clips)
        assert {call[0] for call in calls} == {kind}

    def test_validation(self):
        clips, labels = self.make_clips()
        with pytest.raises(ValueError):
            robustness_sweep("bandstop", [1.0], [StubModel()], clips, labels)
        with pytest.raises(ValueError):
            robustness_sweep("awgn", [1.0], [StubModel()], clips, labels[:2])
        with pytest.raises(ValueError):
            robustness_sweep("awgn", [1.0], [StubModel()], [], [])
        with pytest.raises(ValueError):
            robustness_sweep("awgn", [1.0], [], clips, labels)

    def test_default_axis_shape(self):
        assert DEFAULT_SNR_AXIS[0] == math.inf
        assert list(DEFAULT_SNR_AXIS[1:]) == [30.0, 25.0, 20.0, 15.0, 10.0, 5.0, 0.0]

    def test_sweep_result_validation(self):
        with pytest.raises(ValueError):
            SweepResult(kind="awgn", axis=np.array([1.0, 2.0]),
                        accuracy=np.array([0.5]), spectro_snr_db=np.array([1.0]),
                        bank_label="x", num_clips=1)

    def test_csv_format(self, tmp_path):
        clips, labels = self.make_clips()
        [result] = robustness_sweep("awgn", [math.inf, 0.0],
                                    [StubModel()], clips, labels, seed=1)
        path = tmp_path / "sweep.csv"
        sweep_to_csv(path, result)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "axis_value,accuracy,spectro_snr_db,bank_label"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "inf"
        assert first[3] == "stub"


class TestBounds:
    def test_order_above_the_cap_is_refused_naming_order_and_cap(self):
        with pytest.raises(ValueError, match=f"order must be at most {MAX_ORDER}, got 3000000"):
            design_butterworth_lowpass(3_000_000, 1000.0, 8000.0)
        with pytest.raises(ValueError, match=f"order must be at most {MAX_ORDER}"):
            check_axis("lowpass", [1000.0], 8000.0, 3_000_000)

    def test_order_at_the_cap_filters_to_finite_output(self):
        filt = design_butterworth_lowpass(MAX_ORDER, 1000.0, 8000.0)
        assert filt.num_sections == MAX_ORDER // 2
        out = apply_filter(filt, sine(440.0, 0.5, 8000))
        assert np.all(np.isfinite(out.samples))

    @pytest.mark.parametrize("sample_rate, cutoff_hz",
                             [(8000, 181.0), (16000, 1000.0), (8000, 3000.0), (44100, 1000.0)])
    def test_order_at_the_cap_stays_within_1e_8_of_sosfilt(self, sample_rate, cutoff_hz):
        # the cap is the largest round order whose cascade stays this close to
        # scipy's runner on 1 s of noise; at order 110 the worst cell is 2e-8
        from scipy.signal import sosfilt

        filt = design_butterworth_lowpass(MAX_ORDER, cutoff_hz, float(sample_rate))
        x = 0.3 * np.random.default_rng(0).standard_normal(sample_rate)
        ref = sosfilt(np.insert(filt.sections, 3, 1.0, axis=1), x)
        out = apply_filter(filt, Waveform(x, sample_rate)).samples
        assert np.max(np.abs(out - ref)) <= 1e-8 * np.max(np.abs(ref))

    def test_subnormal_power_ratio_is_refused(self):
        assert 10.0 * math.log10(sys.float_info.min) > -3077.0
        with pytest.raises(ValueError, match="snr_db -3100.0 dB puts the noise level outside"):
            snr_power_ratio(-3100.0)
        with pytest.raises(ValueError, match="snr_db -3100.0 dB"):
            check_axis("awgn", [10.0, -3100.0], 8000.0, 5)

    def test_lowest_normal_ratio_keeps_sigma_finite_below_power_4(self):
        assert snr_power_ratio(-3076.5) >= sys.float_info.min
        loud = Waveform(np.full(64, 1.999), 8000.0)  # power 3.996
        assert np.all(np.isfinite(add_awgn(loud, -3076.5, seed=0).samples))
