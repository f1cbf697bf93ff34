"""The batched log-power frontend against a per-clip complex reference, and
the trainer's use of it in frozen epochs."""

import math

import numpy as np
import pytest

import fbsplab.training as training
from fbsplab.bank import FbspParams, dft_grid, fbsp_kernel
from fbsplab.gradients import fbsp_loss
from fbsplab.signals import Waveform, WindowSpec, frame
from fbsplab.training import (
    ClassSpec,
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
