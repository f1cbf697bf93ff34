"""The batched log-power frontend against a per-clip complex reference, the
one waveform-to-spectrogram path against ``analyze`` and ``log_power``, and
the trainer's use of the frontend in frozen epochs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fbsplab.training as training
import fbsplab.transform as transform
from fbsplab.bank import FbspParams, KernelBank, dft_grid, dft_kernel, fbsp_kernel, init_params
from fbsplab.gradients import fbsp_loss, kernel_jacobian_vector
from fbsplab.signals import FrameGrid, Waveform, WindowSpec, frame
from fbsplab.training import (
    ClassSpec,
    EpochRecord,
    FeatureSpec,
    LinearHead,
    TrainConfig,
    feature_matrix,
    make_task,
    pipeline_gradients,
    pipeline_loss,
    prepare_frames,
    train,
)
from fbsplab.transform import analyze, backward, clip_groups, forward, log_power, workspace

FEATURES = FeatureSpec(n_fft=64, hop=32)
# (1.7, 0.9) keeps every tap 1/34 away from the nearest sinc zero
PARAMS = FbspParams(m=1.7, f_b=0.9, f_c=dft_grid(64))
TWO_TONES = [ClassSpec("low", "tone", 300.0, 600.0),
             ClassSpec("high", "tone", 1500.0, 3000.0)]


def uneven_clips():
    """Noise clips of different lengths: 1, 5, 9, 2, 15 and 3 frames."""
    rng = np.random.default_rng(11)
    window = WindowSpec(FEATURES.window, FEATURES.n_fft)
    clips = []
    for n in (64, 200, 333, 96, 517, 150):
        wf = Waveform(rng.standard_normal(n), 8000)
        clips.append(frame(wf, FEATURES.grid_for(n), window))
    return clips


def reference_outputs(clips):
    """Complex filter outputs, clip by clip, shape (filters, frames) each."""
    weights = fbsp_kernel(PARAMS, FEATURES.n_fft).weights
    return [weights @ frames.T.astype(np.complex128) for frames in clips]


def relative_error(actual, expected):
    return float(np.max(np.abs(actual - expected)) / np.max(np.abs(expected)))


def test_features_match_per_clip_reference():
    clips = uneven_clips()
    expected = np.array([np.mean(np.log(np.abs(x) ** 2 + FEATURES.eps), axis=1)
                         for x in reference_outputs(clips)])
    assert len({len(c) for c in clips}) == len(clips)
    assert relative_error(feature_matrix(PARAMS, clips, FEATURES), expected) <= 1e-12


@st.composite
def spectrogram_cases(draw):
    """A signal, its framing settings and a DFT or fractional-order fbsp bank."""
    n_fft = draw(st.integers(2, 48))
    features = FeatureSpec(n_fft=n_fft, hop=draw(st.integers(1, n_fft)),
                           window=draw(st.sampled_from(["rectangular", "hann"])),
                           eps=draw(st.sampled_from([1e-10, 1e-6, 0.5])))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from([0.0, 1e-3, 1.0]))
    signal = Waveform(scale * rng.standard_normal(draw(st.integers(n_fft, 8 * n_fft))), 8000)
    if draw(st.booleans()):
        return features, signal, dft_kernel(n_fft)
    m = draw(st.integers(0, 2)) + draw(st.floats(0.05, 0.95))
    low = draw(st.floats(0.0, 0.25))
    f_c = np.linspace(low, draw(st.floats(low + 0.01, 0.5)), draw(st.integers(1, 8)))
    params = FbspParams(m=m, f_b=draw(st.floats(0.2, 2.0)), f_c=f_c)
    return features, signal, fbsp_kernel(params, n_fft)


@settings(max_examples=150, deadline=None, database=None)
@given(spectrogram_cases())
def test_spectrogram_matches_analyze_then_log_power(case):
    features, signal, bank = case
    grid = FrameGrid.for_length(len(signal), features.n_fft, features.hop)
    window = WindowSpec(features.window, features.n_fft)
    expected = log_power(analyze(signal, bank, grid, window), features.eps, grid, bank)
    spec = features.spectrogram(signal, bank)
    assert spec.grid == expected.grid
    assert spec.eps == expected.eps
    assert spec.bank_descriptor is expected.bank_descriptor
    assert spec.values.shape == expected.values.shape
    assert relative_error(spec.values, expected.values) <= 1e-12


def test_spectrogram_rejects_a_bank_of_other_width():
    signal = Waveform(np.ones(256), 8000)
    with pytest.raises(ValueError, match="32 taps"):
        FEATURES.spectrogram(signal, dft_kernel(32))


def test_bank_cotangent_matches_per_clip_reference(monkeypatch):
    clips = uneven_clips()
    labels = np.array([0, 1, 1, 0, 1, 0])
    rng = np.random.default_rng(5)
    outputs = reference_outputs(clips)
    feats = np.array([np.mean(np.log(np.abs(x) ** 2 + FEATURES.eps), axis=1)
                      for x in outputs])
    head = LinearHead(rng.standard_normal((2, 33)), rng.standard_normal(2),
                      feats.mean(axis=0), feats.std(axis=0) + 0.1)

    # d(cross-entropy) / d(features), then through the per-clip time mean
    # and log(|X|^2 + eps) onto the kernel entries, pairing as 2 Re sum C dK
    logits = (feats - head.feat_mean) / head.feat_std @ head.weights.T + head.bias
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    probs[np.arange(len(labels)), labels] -= 1.0
    dfeat = probs / len(labels) @ head.weights / head.feat_std
    expected = np.zeros((33, FEATURES.n_fft), dtype=np.complex128)
    for frames, x, d in zip(clips, outputs, dfeat):
        g = d[:, None] / x.shape[1] / (np.abs(x) ** 2 + FEATURES.eps)
        expected += (g * np.conj(x)) @ frames

    captured = []
    pullback = training.kernel_jacobian_vector

    def spy(params, n_fft, cotangent):
        captured.append(cotangent)
        return pullback(params, n_fft, cotangent)

    monkeypatch.setattr(training, "kernel_jacobian_vector", spy)
    pipeline_gradients(PARAMS, head, clips, labels, FEATURES)
    assert len(captured) == 1
    assert relative_error(captured[0], expected) <= 1e-12


@st.composite
def symmetric_cases(draw):
    """Frames of uneven clips, a per-clip cotangent and a bank whose envelope is
    real, so that it is symmetric about the center tap: m = 0 with off-grid
    centers and any f_b, or a main-lobe envelope, m / f_b >= N, where every
    |f_b t / m| < 1."""
    n_fft = draw(st.integers(2, 48))
    low = draw(st.floats(0.0, 0.25))
    f_c = np.linspace(low, draw(st.floats(low + 0.01, 0.5)), draw(st.integers(1, 8)))
    f_b = draw(st.floats(0.2, 2.0))
    m = draw(st.sampled_from([0.0, f_b * n_fft * draw(st.floats(1.0, 4.0))]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    clips = [rng.standard_normal((count, n_fft))
             for count in draw(st.lists(st.integers(1, 9), min_size=1, max_size=4))]
    cotangent = rng.uniform(0.5, 1.5, (len(clips), f_c.size))
    return FbspParams(m=m, f_b=f_b, f_c=f_c), n_fft, clips, cotangent


@settings(max_examples=100, deadline=None, database=None)
@given(symmetric_cases())
def test_symmetric_banks_run_half_size_blocks_against_the_reference(case):
    params, n_fft, clips, cotangent = case
    # the comparison is conditioned so that 1e-12 separates a fault from rounding: eps
    # 1e-3 bounds the gain 1 / (|X|^2 + eps) (at 1e-10 a frame whose X cancels to near
    # sqrt(eps) left the per-clip reference itself 3.6e-12 from an extended-precision one,
    # in about one example in 10^4), and a positive cotangent keeps d_fb from cancelling
    # (a signed one cancelled it to 2e-2 against terms near 5, and the two pairings then
    # rounded 1.4e-12 apart)
    bank, features = fbsp_kernel(params, n_fft), FeatureSpec(n_fft=n_fft, hop=n_fft, eps=1e-3)
    # the outermost tap at sinc argument 1.5, where a fractional power is complex
    lobed = FbspParams(m=1.5, f_b=1.5 * 1.5 / ((n_fft - 1) / 2), f_c=params.f_c)
    assert len(bank.folded_blocks) == 2
    assert len(dft_kernel(n_fft).folded_blocks) == len(
        fbsp_kernel(lobed, n_fft).folded_blocks) == 1

    outputs = [bank.weights @ frames.T.astype(np.complex128) for frames in clips]
    expected = np.array([np.mean(np.log(np.abs(x) ** 2 + features.eps), axis=1)
                         for x in outputs])
    counts = np.array([len(frames) for frames in clips])
    buffers = workspace(int(counts.sum()), bank.num_filters)
    feats, cache = training._clip_features(bank, training._stack_frames(clips), features.eps,
                                           buffers)
    assert relative_error(feats, expected) <= 1e-12

    full = sum((c[:, None] / (np.abs(x) ** 2 + features.eps) * np.conj(x)) @ frames
               for frames, x, c in zip(clips, outputs, cotangent))
    pulled, reference = (kernel_jacobian_vector(params, n_fft, c) for c in (
        backward(cache, cotangent, counts, buffers[1]), full))
    assert relative_error(np.r_[pulled.d_m, pulled.d_fb, pulled.d_fc],
                          np.r_[reference.d_m, reference.d_fb, reference.d_fc]) <= 1e-12


@pytest.mark.parametrize("n_fft", [7, 8])
def test_blocks_split_exactly_where_the_cross_quadrants_are_zero(n_fft):
    # an m = 0 bank with off-grid centers is symmetric, so both cross quadrants of its
    # folded matrix are zero and its two blocks are views of that one matrix; one ulp
    # off the symmetry, or a subnormal Im on the odd middle tap, leaves one block
    bank = fbsp_kernel(FbspParams(m=0.0, f_b=0.8, f_c=np.array([0.03, 0.17, 0.31, 0.44])),
                       n_fft)
    (*_, even), (*_, odd) = bank.folded_blocks
    assert even.base is odd.base and even.base.shape == (2 * bank.num_filters, n_fft)
    assert not (even.flags.writeable or odd.flags.writeable)

    def nudged(tap, value):
        weights = bank.weights.copy()
        weights[0, tap] = value
        return KernelBank(weights, bank.params, bank.norm_scale)

    w = bank.weights[0, 0]
    perturbed = [nudged(0, complex(np.nextafter(w.real, np.inf), w.imag)),
                 nudged(0, complex(w.real, np.nextafter(w.imag, np.inf)))]
    if n_fft % 2:
        perturbed.append(nudged(n_fft // 2, complex(bank.weights[0, n_fft // 2].real, 5e-324)))
    for other in perturbed:
        assert len(other.folded_blocks) == 1


def stacked_case():
    """The uneven clips stacked, their frame counts, the bank, a per-clip
    cotangent, and a pair of (rows, 2F) buffers with rows to spare, filled
    with NaN so that a value read before it is written shows."""
    clips = uneven_clips()
    bank = fbsp_kernel(PARAMS, FEATURES.n_fft)
    cotangent = np.random.default_rng(3).standard_normal((len(clips), bank.num_filters))
    frames = np.concatenate(clips)
    shape = (len(frames) + 3, 2 * bank.num_filters)
    buffers = np.full(shape, np.nan), np.full(shape, np.nan)
    return frames, np.array([len(c) for c in clips]), bank, cotangent, buffers


def test_forward_and_backward_agree_with_and_without_buffers():
    # a fresh workspace of exactly T rows against NaN-filled buffers with rows to spare
    frames, counts, bank, cotangent, (outputs, scratch) = stacked_case()
    fresh = workspace(len(frames), bank.num_filters)
    logp, cache = forward(bank, frames, FEATURES.eps, fresh)
    logp_in, cache_in = forward(bank, frames, FEATURES.eps, (outputs, scratch))
    assert np.array_equal(logp_in, logp)
    assert np.array_equal(cache_in[1], cache[1])
    assert np.shares_memory(logp_in, scratch) and np.shares_memory(cache_in[1], outputs)
    assert np.array_equal(backward(cache_in, cotangent, counts, scratch),
                          backward(cache, cotangent, counts, fresh[1]))


def test_backward_leaves_frames_and_outputs_unchanged():
    # a refused step runs the bank gradient again on the same cache
    frames, counts, bank, cotangent, buffers = stacked_case()
    cache = forward(bank, frames, FEATURES.eps, buffers)[1]
    kept = [array.copy() for array in cache[:2]]
    first = backward(cache, cotangent, counts, buffers[1])
    assert all(np.array_equal(array, copy) for array, copy in zip(cache[:2], kept))
    assert np.array_equal(backward(cache, cotangent, counts, buffers[1]), first)


@pytest.mark.parametrize("budget, clips", [(2, [1, 1, 1, 1, 1, 1]), (10, [2, 1, 1, 1, 1])])
def test_groups_below_the_frame_count_keep_features_and_cotangent(monkeypatch, budget, clips):
    # uneven_clips' 35 rows: at 10, the groups are 1 + 5, 9, 2, 15 (alone, over the
    # budget) and 3 rows; at 2 every clip is a group of its own
    frames, counts, bank, cotangent, (outputs, scratch) = stacked_case()
    whole, cache = training._clip_features(bank, (frames, counts), FEATURES.eps,
                                           (outputs, scratch))
    expected = backward(cache, cotangent, counts, scratch)
    monkeypatch.setattr(transform, "GROUP_ROWS", budget)
    groups = clip_groups(counts)
    assert [group.stop - group.start for group, _ in groups] == clips
    small = np.full((max(rows.stop - rows.start for _, rows in groups), scratch.shape[1]), np.nan)
    feats, cache = training._clip_features(bank, (frames, counts), FEATURES.eps,
                                           (np.full_like(outputs, np.nan), small))
    assert relative_error(feats, whole) <= 1e-14
    assert relative_error(backward(cache, cotangent, counts, small), expected) <= 1e-14
    test_bank_cotangent_matches_per_clip_reference(monkeypatch)


@pytest.mark.parametrize("freeze_epochs", [0, 2, 5])
def test_frozen_epochs_skip_the_pullback(monkeypatch, freeze_epochs):
    calls = []
    pullback = training.kernel_jacobian_vector

    def spy(*args):
        calls.append(args)
        return pullback(*args)

    monkeypatch.setattr(training, "kernel_jacobian_vector", spy)
    corpus = make_task(TWO_TONES, 6, duration=0.2, seed=0)
    config = TrainConfig(epochs=5, lr=0.05, freeze_epochs=freeze_epochs)
    train(corpus, config, FEATURES)
    assert len(calls) == 5 - freeze_epochs


def test_frozen_epochs_log_the_bank_loss():
    corpus = make_task(TWO_TONES, 6, duration=0.2, seed=0)
    lam = 2.0
    config = TrainConfig(epochs=3, lr=0.1, freeze_epochs=3, lambda_fbsp=lam,
                         weight_decay=0.0)
    result = train(corpus, config, FEATURES, init=PARAMS)
    bank_loss = fbsp_loss(fbsp_kernel(PARAMS, FEATURES.n_fft))
    assert bank_loss > 1e-6
    for record in result.log.records:
        assert record.fbsp_loss == bank_loss
        assert math.isclose(record.total_loss - record.task_loss, lam * bank_loss,
                            rel_tol=1e-9)

    # epoch 0 starts from a zero head over the frozen standardization
    frames_all = prepare_frames(corpus, FEATURES)
    head = LinearHead(np.zeros_like(result.head.weights), np.zeros_like(result.head.bias),
                      result.head.feat_mean, result.head.feat_std)
    expected = pipeline_loss(PARAMS, head, [frames_all[i] for i in corpus.train_indices],
                             corpus.labels[corpus.train_indices], FEATURES, lambda_fbsp=lam)
    assert math.isclose(result.log.records[0].total_loss, expected, rel_tol=1e-12)


def test_feature_matrix_rejects_empty_input():
    with pytest.raises(ValueError):
        feature_matrix(PARAMS, [], FEATURES)
    with pytest.raises(ValueError):
        feature_matrix(PARAMS, [np.zeros((2, 64)), np.zeros((0, 64))], FEATURES)


def reference_train(corpus, config, features):
    """The trainer written as a loop over the public pass functions: every
    epoch calls ``pipeline_gradients`` on the train split and ``feature_matrix``
    on the validation split. Returns the final params and head, the log
    records and the params each epoch started from."""
    params = init_params(features.n_fft)
    frames_all = prepare_frames(corpus, features)
    train_frames = [frames_all[i] for i in corpus.train_indices]
    train_labels = corpus.labels[corpus.train_indices]
    val_frames = [frames_all[i] for i in corpus.val_indices]
    val_labels = corpus.labels[corpus.val_indices]
    init_feats = feature_matrix(params, train_frames, features)
    mean, std = init_feats.mean(axis=0), np.maximum(init_feats.std(axis=0), 1e-8)
    weights = np.zeros((corpus.num_classes, params.num_filters))
    bias = np.zeros(corpus.num_classes)
    vel_w, vel_b = np.zeros_like(weights), np.zeros_like(bias)
    vel_bank = np.zeros(2 + params.num_filters)
    records, starts = [], []
    for epoch in range(config.epochs):
        head = LinearHead(weights, bias, mean, std)
        total, ce, reg, grad_w, grad_b, grad = pipeline_gradients(
            params, head, train_frames, train_labels, features,
            lambda_fbsp=config.lambda_fbsp, weight_decay=config.weight_decay)
        pred = np.argmax(head.logits(feature_matrix(params, val_frames, features)), axis=1)
        records.append(EpochRecord(epoch, total, ce, reg, float(np.mean(pred == val_labels)),
                                   params.m, params.f_b))
        starts.append(params)
        lr, mu = config.lr * config.lr_decay ** epoch, config.momentum
        vel_w = mu * vel_w + grad_w
        weights = weights - lr * (grad_w + mu * vel_w)
        vel_b = mu * vel_b + grad_b
        bias = bias - lr * (grad_b + mu * vel_b)
        if epoch < config.freeze_epochs:
            continue
        grad_vec = np.concatenate(([grad.d_m, grad.d_fb], grad.d_fc))
        vel_bank = mu * vel_bank + grad_vec
        proposed = training._bank_step(params, lr * (grad_vec + mu * vel_bank), features.n_fft)
        if training._params_valid(proposed[0], proposed[1], proposed[2:], features.n_fft):
            params = FbspParams(m=proposed[0], f_b=proposed[1], f_c=proposed[2:])
    return params, LinearHead(weights, bias, mean, std), records, starts


TRAINER_EPOCHS = 6


def trainer_case(freeze_epochs):
    corpus = make_task(TWO_TONES, 6, duration=0.2, seed=3, snr_range=(0.0, 12.0))
    config = TrainConfig(epochs=TRAINER_EPOCHS, lr=0.2, lambda_fbsp=5.0,
                         freeze_epochs=freeze_epochs)
    return corpus, config


@pytest.mark.parametrize("freeze_epochs", [0, 2, TRAINER_EPOCHS])
def test_train_equals_the_reference_loop(freeze_epochs):
    corpus, config = trainer_case(freeze_epochs)
    params, head, records, starts = reference_train(corpus, config, FEATURES)
    result = train(corpus, config, FEATURES)
    assert list(result.log.records) == records
    assert (result.params.m, result.params.f_b) == (params.m, params.f_b)
    assert np.array_equal(result.params.f_c, params.f_c)
    for name in ("weights", "bias", "feat_mean", "feat_std"):
        assert np.array_equal(getattr(result.head, name), getattr(head, name))
    # the bank moved, so the comparison covers re-rendered points
    assert (params is starts[0]) == (freeze_epochs == TRAINER_EPOCHS)


@pytest.mark.parametrize("freeze_epochs", [0, TRAINER_EPOCHS])
def test_train_equals_the_reference_loop_over_several_groups(monkeypatch, freeze_epochs):
    # the trainer case's clips have 49 frames each, so 100 rows hold two of them:
    # its 9 train clips make 5 groups and its 3 validation clips 2
    monkeypatch.setattr(transform, "GROUP_ROWS", 100)
    corpus, _ = trainer_case(freeze_epochs)
    frames = prepare_frames(corpus, FEATURES)
    assert [len(clip_groups(np.array([len(frames[i]) for i in indices])))
            for indices in (corpus.train_indices, corpus.val_indices)] == [5, 2]
    test_train_equals_the_reference_loop(freeze_epochs)


@pytest.mark.parametrize("freeze_epochs", [0, 2, TRAINER_EPOCHS])
def test_train_builds_the_bank_once_per_point(monkeypatch, freeze_epochs):
    corpus, config = trainer_case(freeze_epochs)
    *_, starts = reference_train(corpus, config, FEATURES)
    builds = []
    build = training.fbsp_kernel

    def spy(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(training, "fbsp_kernel", spy)
    train(corpus, config, FEATURES)
    # the start plus every accepted step that a later epoch starts from; the
    # last epoch's step is returned, not rendered
    moves = sum(a is not b for a, b in zip(starts, starts[1:]))
    assert len(builds) == 1 + moves
    # every step of this case is accepted
    assert moves == max(TRAINER_EPOCHS - 1 - freeze_epochs, 0)
