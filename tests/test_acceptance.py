"""Release gate: one test per numbered criterion.

Each test is marked ``acceptance(number, label)`` and the conftest hook
prints a per-criterion PASS/FAIL/INCONCLUSIVE line after the run. Stated
runtime budgets are asserted inside the tests. Tolerances are frozen here
on purpose; loosening one is a release decision, not a test fix.
"""

import math
import time

import numpy as np
import pytest

from fbsplab.augment import AugmentConfig, augment_pipeline, fit_duration, time_invert, time_scale
from fbsplab.bank import FbspParams, KernelBank, dft_grid, fbsp_kernel, frequency_response, init_params
from fbsplab.gradients import admissible_draw, fbsp_loss, finite_difference_oracle, loss_gradient
from fbsplab.perturb import add_awgn, design_butterworth_lowpass, magnitude_response_db, robustness_sweep
from fbsplab.signals import FrameGrid, Waveform, WindowSpec, band_noise, derive_seed, frame, sine
from fbsplab.training import (
    ClassSpec,
    FeatureSpec,
    LinearHead,
    TrainConfig,
    TrainedModel,
    feature_matrix,
    make_task,
    pipeline_gradients,
    pipeline_loss,
    prepare_frames,
    train,
)
from fbsplab.transform import DEFAULT_EPS, analyze, log_power


DEMO_CLASSES = (
    ClassSpec("low_tone", "tone", 350.0, 650.0),
    ClassSpec("mid_chirp", "chirp", 900.0, 1800.0),
    ClassSpec("high_noise", "band_noise", 2200.0, 3200.0),
)
DEMO_FEATURES = FeatureSpec(n_fft=256, hop=128)
DEMO_CONFIG = TrainConfig(epochs=30, lr=0.1, lambda_fbsp=0.0, freeze_epochs=3, seed=0)


@pytest.fixture(scope="module")
def trained_demo():
    """Corpus and main-leg training shared by the demo and robustness tests."""
    start = time.monotonic()
    corpus = make_task(list(DEMO_CLASSES), 40, duration=0.75, sample_rate=8000.0,
                       seed=0, snr_range=(0.0, 12.0))
    result = train(corpus, DEMO_CONFIG, DEMO_FEATURES)
    return corpus, result, time.monotonic() - start


@pytest.mark.acceptance(1, "stft equivalence")
def test_stft_equivalence_at_init():
    start = time.monotonic()
    for n_fft in (8, 64, 256, 1024):
        bank = fbsp_kernel(init_params(n_fft), n_fft)
        rng = np.random.default_rng(derive_seed(1, n_fft))
        signal = Waveform(rng.standard_normal(4 * n_fft + 17), 8000.0)
        grid = FrameGrid.for_length(len(signal), n_fft, n_fft // 2)
        for kind in ("rectangular", "hann"):
            window = WindowSpec(kind, n_fft)
            spec = log_power(analyze(signal, bank, grid, window), DEFAULT_EPS, grid, bank)
            frames = frame(signal, grid, window)
            stft = np.log(np.abs(np.fft.rfft(frames, axis=1).T) ** 2 / n_fft + DEFAULT_EPS)
            assert np.max(np.abs(spec.values - stft)) < 1e-10
    assert time.monotonic() - start < 10.0


@pytest.mark.acceptance(2, "loss at init")
def test_unit_norm_objective_at_init():
    start = time.monotonic()
    for n_fft in (64, 256):
        base = fbsp_kernel(init_params(n_fft), n_fft)
        assert fbsp_loss(base) < 1e-12
        scaled = KernelBank(weights=base.weights * math.sqrt(2.0),
                            params=base.params, norm_scale=base.norm_scale)
        assert abs(fbsp_loss(scaled) - 1.0) < 1e-9
    assert time.monotonic() - start < 1.0


@pytest.mark.acceptance(3, "gradient suite")
def test_gradient_suite():
    start = time.monotonic()
    n_fft = 64

    rng = np.random.default_rng(derive_seed(3, 1))
    for _ in range(100):
        params = admissible_draw(rng, n_fft)
        analytic = loss_gradient(params, n_fft)
        assert np.all(analytic.d_fc == 0.0)
        fd = finite_difference_oracle(lambda p: fbsp_loss(fbsp_kernel(p, n_fft)), params)
        for got, ref in ((analytic.d_m, fd.d_m), (analytic.d_fb, fd.d_fb)):
            assert abs(got - ref) < 1e-8 or abs(got - ref) / abs(ref) < 1e-5
        assert np.max(np.abs(fd.d_fc)) < 1e-8

    classes = [ClassSpec("low_tone", "tone", 300.0, 600.0),
               ClassSpec("high_tone", "tone", 1500.0, 3000.0)]
    corpus = make_task(classes, 4, duration=0.25, sample_rate=8000.0, seed=12)
    features = FeatureSpec(n_fft=n_fft, hop=32)
    frames_list = prepare_frames(corpus, features)
    labels = corpus.labels
    init = init_params(n_fft)
    feats = feature_matrix(init, frames_list, features)
    head_rng = np.random.default_rng(21)
    head = LinearHead(head_rng.standard_normal((2, n_fft // 2 + 1)) * 0.4,
                      head_rng.standard_normal(2) * 0.1,
                      feats.mean(axis=0), np.maximum(feats.std(axis=0), 1e-8))

    def total(p):
        return pipeline_loss(p, head, frames_list, labels, features, lambda_fbsp=1.0)

    *_, grad = pipeline_gradients(init, head, frames_list, labels, features, lambda_fbsp=1.0)
    # tighter step than the default: the f_c = 0 edge forces a one-sided
    # stencil whose truncation error still decays as step^3 there
    fd = finite_difference_oracle(total, init, step=1e-7)
    assert grad.d_m == 0.0
    assert abs(grad.d_fb - fd.d_fb) / abs(grad.d_fb) < 1e-4
    assert np.max(np.abs(grad.d_fc - fd.d_fc)) / np.max(np.abs(grad.d_fc)) < 1e-4

    # the m slope at the m = 0 edge has no difference quotient (the envelope
    # order enters through sinc(u)^m with u ~ 1/m), so that coordinate is
    # checked just inside the domain instead
    interior = FbspParams(0.8, 1.15, dft_grid(n_fft))
    *_, grad_in = pipeline_gradients(interior, head, frames_list, labels, features,
                                     lambda_fbsp=1.0)
    fd_in = finite_difference_oracle(total, interior, step=1e-6)
    assert abs(grad_in.d_m - fd_in.d_m) / abs(grad_in.d_m) < 1e-4
    assert abs(grad_in.d_fb - fd_in.d_fb) / abs(grad_in.d_fb) < 1e-4

    assert time.monotonic() - start < 120.0


@pytest.mark.acceptance(4, "flat dft response")
def test_flat_dft_response():
    start = time.monotonic()
    for n_fft in (64, 256):
        bank = fbsp_kernel(init_params(n_fft), n_fft)
        window = WindowSpec("rectangular", n_fft)
        resp = frequency_response(bank, window, num_probes=n_fft // 2 + 1)
        mask = (resp.probe_freqs > 0.02) & (resp.probe_freqs < 0.48)
        curve = resp.max_gain_curve[mask]
        assert curve.max() / curve.min() < 1.5
    assert time.monotonic() - start < 10.0


@pytest.mark.acceptance(5, "awgn calibration")
def test_awgn_calibration():
    start = time.monotonic()
    clean = sine(440.0, 125.0, 8000)  # one million samples
    power = float(np.mean(clean.samples ** 2))
    for snr_idx, target in enumerate((0.0, 10.0, 20.0)):
        for trial in range(50):
            noisy = add_awgn(clean, target, derive_seed(5, snr_idx, trial + 1))
            noise = float(np.mean((noisy.samples - clean.samples) ** 2))
            measured = 10.0 * math.log10(power / noise)
            assert abs(measured - target) <= 0.1
    assert time.monotonic() - start < 30.0


@pytest.mark.acceptance(6, "butterworth design")
def test_butterworth_lowpass():
    start = time.monotonic()
    filt = design_butterworth_lowpass(5, 4000.0, 44100.0)

    dc, at_fc, at_2fc = magnitude_response_db(filt, [0.0, 4000.0, 8000.0])
    assert abs(dc) < 1e-9
    assert abs(at_fc - (-3.01)) <= 0.1
    assert abs((at_2fc - at_fc) - (-30.1)) <= 1.0

    curve = magnitude_response_db(filt, np.linspace(0.0, 22050.0, 2000))
    steps = np.diff(curve)
    # maximally flat: successive drops near DC sink below double resolution,
    # so ties up to rounding are tolerated there and strict decrease is
    # required from the first resolvable step onward
    assert np.all(steps < 1e-12)
    resolvable = np.abs(steps) > 1e-9
    assert resolvable.any()
    assert np.all(steps[np.argmax(resolvable):] < 0.0)

    for b0, b1, b2, a1, a2 in filt.sections:
        assert np.all(np.abs(np.roots([1.0, a1, a2])) < 1.0)

    assert time.monotonic() - start < 5.0


@pytest.mark.acceptance(7, "training demo")
def test_training_demo(trained_demo):
    start = time.monotonic()
    corpus, result, fixture_seconds = trained_demo

    assert (result.params.m, result.params.f_b) != (0.0, 1.0)
    records = result.log.records
    assert len(records) == DEMO_CONFIG.epochs
    assert records[-1].total_loss < records[3].total_loss

    rerun = train(corpus, DEMO_CONFIG, DEMO_FEATURES)
    assert rerun.params.m == result.params.m
    assert rerun.params.f_b == result.params.f_b
    assert rerun.params.f_c.tobytes() == result.params.f_c.tobytes()
    assert rerun.head.weights.tobytes() == result.head.weights.tobytes()
    assert rerun.head.bias.tobytes() == result.head.bias.tobytes()
    assert rerun.log.records == records

    reg_config = TrainConfig(epochs=30, lr=0.02, lambda_fbsp=10.0, freeze_epochs=3, seed=0)
    reg_result = train(corpus, reg_config, DEMO_FEATURES)
    assert reg_result.log.records[-1].fbsp_loss < 1e-3

    assert fixture_seconds + time.monotonic() - start < 600.0


@pytest.mark.acceptance(8, "robustness echo")
def test_trained_bank_noise_robustness(trained_demo, record_property):
    corpus, result, _ = trained_demo
    bank = fbsp_kernel(result.params, DEMO_FEATURES.n_fft)
    window = WindowSpec(DEMO_FEATURES.window, DEMO_FEATURES.n_fft)
    resp = frequency_response(bank, window, num_probes=512)
    probes, curve = resp.probe_freqs, resp.max_gain_curve
    attenuation = 20.0 * math.log10(curve.max() / curve[probes > 0.375].max())

    if attenuation < 6.0:
        # the comparison is only meaningful for a bank that actually damps
        # the top of the band; report the response shape instead of failing
        edges = (0.0, 0.125, 0.25, 0.375, 0.5)
        quartile_gains = ", ".join(
            "%.2f" % curve[(probes >= lo) & (probes <= hi)].max()
            for lo, hi in zip(edges, edges[1:]))
        record_property("acceptance_status", "INCONCLUSIVE")
        record_property(
            "acceptance_detail",
            "top-quartile attenuation %.2f dB < 6 dB at (m, f_b) = (%.4g, %.4g); "
            "max gain per quarter band: %s" % (
                attenuation, result.params.m, result.params.f_b, quartile_gains))
        return

    val = corpus.val_indices
    clips = [corpus.waveforms[i] for i in val]
    labels = corpus.labels[val]
    fbsp_model = result.model("fbsp")
    stft_model = TrainedModel(params=init_params(DEMO_FEATURES.n_fft), head=result.head,
                              features=DEMO_FEATURES, class_names=result.class_names,
                              bank_label="stft")
    # one paired sweep, so both banks face the same noisy clips
    fbsp_sweep, stft_sweep = robustness_sweep("awgn", [0.0], [fbsp_model, stft_model],
                                              clips, labels, seed=8)
    assert fbsp_sweep.spectro_snr_db[0] > stft_sweep.spectro_snr_db[0]


@pytest.mark.acceptance(9, "augmentation properties")
def test_augmentation_suite():
    start = time.monotonic()
    clip = band_noise(200.0, 3800.0, 1.0, 8000, seed=900)

    twice = time_invert(time_invert(clip))
    assert np.array_equal(twice.samples, clip.samples)

    for target in (0.37, 1.0, 2.5):
        fitted = fit_duration(clip, target)
        assert len(fitted) == round(target * 8000)
    drawn = fit_duration(clip, 2.5, np.random.default_rng(4))
    assert len(drawn) == 20000

    tone = sine(440.0, 1.0, 8000)
    shifted = time_scale(tone, 2.0)
    magnitudes = np.abs(np.fft.rfft(shifted.samples))
    peak_hz = np.fft.rfftfreq(len(shifted), 1.0 / 8000.0)[np.argmax(magnitudes)]
    bin_hz = 8000.0 / len(shifted)
    assert abs(peak_hz - 880.0) <= bin_hz

    config = AugmentConfig(target_duration=0.5, seed=7)
    first = augment_pipeline(clip, config)
    again = augment_pipeline(clip, config)
    assert np.array_equal(first.samples, again.samples)
    other = augment_pipeline(clip, AugmentConfig(target_duration=0.5, seed=8))
    assert not np.array_equal(first.samples, other.samples)

    assert time.monotonic() - start < 30.0
