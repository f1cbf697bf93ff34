"""Synthetic classification tasks and a trainer with a learnable kernel bank.

The model is deliberately small: per-clip features are time-averaged
log-power rows, standardized by constants frozen from the training split at
initialization, followed by a linear softmax head. Both the head and the
bank parameters (m, f_b, f_c) train by full-batch Nesterov momentum with
exponential learning-rate decay, so a run is a pure function of the corpus
and the config. The bank starts at the STFT-equivalent point; freezing it
for the whole run therefore yields the fixed-STFT baseline through the
identical code path.

Each split is framed into one stack once per run, sized from the clips' lengths,
one clip at a time (``_frame_split``): a clip is read, which for a ``make_task``
corpus draws it from its seeds, just before it is framed into its own rows and
``transform.fold``ed there, so no more than one clip and its frames exist beside
the stacks, and no run holds the corpus. What the trainer derives from the bank
(the kernel, one ``transform.forward`` over each split's stack, the regularizer
loss) depends on the parameters alone, so it is rendered once per parameter
value an epoch starts from, and once per run while the bank is frozen. The
freeze only decides whether an epoch runs the bank gradient:
``transform.backward`` on the per-clip cotangent of the features, and the
analytic cotangent pullback. While m is 0 the bank is symmetric, so both run
its two half-size ``folded_blocks``.

Every caller passes ``forward`` a ``transform.workspace``; ``train``'s lasts
the run: outputs of (rows, 2F), rows the larger split's frame count, and a
scratch of the largest ``transform.clip_groups`` group's rows in either split.
``_clip_features`` runs one ``forward`` per group into that group's rows of
outputs, the validation split's and then the train split's over them, and the
cache keeps the train split's: (frames, Y, blocks), views of the folded train
stack and of outputs, which hold Y = X / (|X|^2 + eps), and the bank's blocks.
The scratch holds one group at a time: ``forward``'s power and log-power, then
``backward``'s product. So an epoch allocates no array of the frames' size, and
the working set is the folded stacks, the outputs and one group's scratch,
8 T n_fft + 16 F (T_max + G) bytes for T_max the larger split's rows and G the
largest group's; ``cli``'s run bound counts it, T for T_max, with the bank.

Each unfrozen epoch proposes one bank step (``_bank_step``), scaled to move no
center more than MAX_CENTER_STEP bins and taken on m, f_b and the gaps between
the centers, so the centers stay ordered in [0, 0.5] and zeros stay pinned. A
non-finite proposal or one in an exclusion zone (``_params_valid``) is not taken.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from fbsplab.bank import FbspParams, KernelBank, fbsp_kernel, init_params
from fbsplab.gradients import (
    ParamGradient,
    fbsp_loss,
    kernel_jacobian_vector,
    loss_gradient,
)
from fbsplab.perturb import add_awgn, snr_power_ratio
from fbsplab.runio import write_csv
from fbsplab.signals import (FrameGrid, Waveform, WindowSpec, _band_bins, _check_band, _num_samples,
                             band_noise, chirp, derive_seed, frame, frozen_field, sine,
                             whole_number)
from fbsplab.transform import (DEFAULT_EPS, Spectrogram, backward, clip_groups, fold, forward,
                               workspace)

__all__ = [
    "FeatureSpec",
    "ClassSpec",
    "TaskCorpus",
    "make_task",
    "TrainConfig",
    "LinearHead",
    "EpochRecord",
    "TrainLog",
    "TrainingDiverged",
    "TrainedModel",
    "train",
]

MAX_CENTER_STEP = 0.05  # bins of 1 / n_fft: the largest center move of one bank step


@dataclass(frozen=True)
class FeatureSpec:
    """Framing and log-power settings shared by training and inference."""

    n_fft: int = 256
    hop: int = 128
    window: str = "hann"
    eps: float = DEFAULT_EPS

    def __post_init__(self) -> None:
        try:
            FrameGrid(self.n_fft, self.hop, 0)
        except ValueError:  # the grid's rule, in this spec's field names
            raise ValueError(f"n_fft must be at least 2 and hop in 1..n_fft, "
                             f"got n_fft={self.n_fft} hop={self.hop}") from None
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be positive, got {self.eps}")
        WindowSpec(self.window, self.n_fft)  # validates the window kind

    def grid_for(self, num_samples: int) -> FrameGrid:
        grid = FrameGrid.for_length(num_samples, self.n_fft, self.hop)
        if grid.num_frames < 1:
            raise ValueError(
                f"{num_samples} samples are too few for frames of {self.n_fft}")
        return grid

    def spectrogram(self, signal: Waveform, bank: KernelBank) -> Spectrogram:
        """The log-power spectrogram of a signal through a bank of n_fft taps."""
        if bank.num_taps != self.n_fft:
            raise ValueError(f"bank has {bank.num_taps} taps but frames are {self.n_fft} samples")
        grid = self.grid_for(len(signal))
        frames = fold(frame(signal, grid, WindowSpec(self.window, self.n_fft)))
        logp = forward(bank, frames, self.eps, workspace(len(frames), bank.num_filters))[0]
        return Spectrogram(values=logp.T, grid=grid, bank_descriptor=bank.params, eps=self.eps)


@dataclass(frozen=True)
class ClassSpec:
    """One synthetic class: a generator kind plus its frequency band.

    tone draws a frequency uniformly in [low_hz, high_hz]; chirp draws the
    endpoints independently from the band; band_noise fills the band itself.
    """

    name: str
    kind: str
    low_hz: float
    high_hz: float
    amplitude: tuple[float, float] = (0.6, 0.95)

    def __post_init__(self) -> None:
        if self.kind not in ("tone", "chirp", "band_noise"):
            raise ValueError(f"unknown class kind {self.kind!r}")
        if not 0.0 < self.low_hz < self.high_hz:
            raise ValueError(
                f"band must satisfy 0 < low < high, got [{self.low_hz}, {self.high_hz}]")
        lo, hi = self.amplitude
        if not 0.0 < lo <= hi < math.inf:
            raise ValueError(f"class {self.name!r} amplitude range must satisfy "
                             f"0 < lo <= hi < inf, got {self.amplitude}")


@dataclass(frozen=True)
class TaskCorpus:
    """Clips with labels and a fixed train/validation split. ``make_task``'s
    ``waveforms`` hold no samples: each clip is drawn from its seeds when it is read."""

    waveforms: Sequence[Waveform]
    labels: np.ndarray
    train_indices: np.ndarray
    val_indices: np.ndarray
    class_names: tuple[str, ...]
    sample_rate: float

    def __post_init__(self) -> None:
        for name in ("labels", "train_indices", "val_indices"):
            frozen_field(self, name, np.int64)
        if self.labels.shape != (len(self.waveforms),):
            raise ValueError("labels must align with waveforms")
        combined = np.sort(np.concatenate([self.train_indices, self.val_indices]))
        if not np.array_equal(combined, np.arange(len(self.waveforms))):
            raise ValueError("train and validation indices must partition the corpus")

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def __len__(self) -> int:
        return len(self.waveforms)

    def num_samples(self, index: int) -> int:
        """Clip ``index``'s length; a ``make_task`` corpus gives it without drawing the clip."""
        clips = self.waveforms
        return clips.num_samples if isinstance(clips, _SeededClips) else len(clips[index])


def _draw_example(spec: ClassSpec, rng: np.random.Generator, duration: float,
                  sample_rate: float, noise_seed: int) -> Waveform:
    amplitude = float(rng.uniform(*spec.amplitude))
    if spec.kind == "tone":
        frequency = float(rng.uniform(spec.low_hz, spec.high_hz))
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        return sine(frequency, duration, sample_rate, amplitude, phase)
    if spec.kind == "chirp":
        f_start = float(rng.uniform(spec.low_hz, spec.high_hz))
        f_end = float(rng.uniform(spec.low_hz, spec.high_hz))
        return chirp(f_start, f_end, duration, sample_rate, amplitude)
    return band_noise(spec.low_hz, spec.high_hz, duration, sample_rate, noise_seed, amplitude)


@dataclass(frozen=True)
class _SeededClips(Sequence[Waveform]):
    """``make_task``'s clips, a read-only sequence that stores no samples: clip i is
    example i % per_class of class i // per_class, drawn from its own seeds on each read."""

    classes: tuple[ClassSpec, ...]
    per_class: int
    duration: float
    sample_rate: float
    seed: int
    snr_range: float | tuple[float, float] | None
    num_samples: int

    def __len__(self) -> int:
        return len(self.classes) * self.per_class

    def __getitem__(self, index: int) -> Waveform:
        class_idx, example_idx = divmod(range(len(self))[index], self.per_class)
        rng = np.random.default_rng(derive_seed(self.seed, class_idx, example_idx))
        wf = _draw_example(self.classes[class_idx], rng, self.duration, self.sample_rate,
                           noise_seed=derive_seed(self.seed, class_idx, example_idx, 1))
        if self.snr_range is None:
            return wf
        level = (float(rng.uniform(*self.snr_range))
                 if isinstance(self.snr_range, tuple) else float(self.snr_range))
        return add_awgn(wf, level, seed=derive_seed(self.seed, class_idx, example_idx, 2))


def make_task(
    classes: Sequence[ClassSpec],
    samples_per_class: int,
    duration: float = 0.75,
    sample_rate: float = 8000.0,
    seed: int = 0,
    snr_range: float | Sequence[float] | None = None,
    train_fraction: float = 0.8,
) -> TaskCorpus:
    """A labeled corpus with a seeded 80/20 split, drawing no clip.

    Every example draws from its own generator seeded by (seed, class index,
    example index), so its ``waveforms`` hold no samples and draw a clip on
    each read, the same clip every time. snr_range of None keeps clips clean; a
    scalar adds noise at that level, a (lo, hi) pair (any two-element sequence,
    kept as a tuple) draws a level per clip. A pair with lo > hi, an infinite
    width or other than two ends, a level or pair end that
    ``snr_power_ratio`` refuses, a clip length ``signals`` refuses, a sample
    rate that is not a whole number, a class band reaching Nyquist or, for
    band_noise, holding no FFT bin, and a split leaving either side empty, are
    refused here, not when a clip is read.
    """
    if len(classes) < 2:
        raise ValueError("a classification task needs at least two classes")
    if np.ndim(snr_range) == 1:  # a list or array pair draws as the tuple does
        snr_range = tuple(snr_range)
    given = list(snr_range) if isinstance(snr_range, tuple) else snr_range
    if isinstance(snr_range, tuple) and not (
            len(snr_range) == 2 and 0.0 <= snr_range[1] - snr_range[0] < math.inf):
        raise ValueError(f"snr_range must be a [lo, hi] pair with lo <= hi and a finite "
                         f"width, got {given}")
    for level in [] if snr_range is None else np.atleast_1d(given).tolist():
        try:
            snr_power_ratio(level)
        except ValueError as err:  # its message names snr_db, the parameter of a single level
            raise ValueError(str(err).replace("snr_db", f"snr_range {given}:", 1)) from None
    num_samples = _num_samples(duration, sample_rate)
    whole_number(sample_rate, "sample_rate")
    for spec in classes:
        _check_band(spec.high_hz, sample_rate, f"class {spec.name!r} high_hz")
        if spec.kind == "band_noise":
            _band_bins(spec.low_hz, spec.high_hz, sample_rate, num_samples)
    if samples_per_class < 2:
        raise ValueError("need at least two samples per class")
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    total = len(classes) * samples_per_class
    n_train = int(train_fraction * total)
    if not 0 < n_train < total:
        raise ValueError("split leaves an empty train or validation set")
    order = np.random.default_rng(derive_seed(seed, len(classes), 0, 9)).permutation(total)
    return TaskCorpus(
        waveforms=_SeededClips(tuple(classes), samples_per_class, duration, sample_rate, seed,
                               snr_range, num_samples),
        labels=np.repeat(np.arange(len(classes)), samples_per_class),
        train_indices=order[:n_train],
        val_indices=order[n_train:],
        class_names=tuple(spec.name for spec in classes),
        sample_rate=float(sample_rate),
    )


# ---------------------------------------------------------------------------
# model pieces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    lr: float = 0.1
    lr_decay: float = 0.985
    momentum: float = 0.9
    weight_decay: float = 5e-4
    lambda_fbsp: float = 1.0
    freeze_epochs: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be positive, got {self.epochs}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be positive, got {self.lr}")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError(f"lr_decay must be in (0, 1], got {self.lr_decay}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        for name, value in (("weight_decay", self.weight_decay), ("lambda_fbsp", self.lambda_fbsp)):
            if not 0.0 <= value < math.inf:  # NaN included
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        if self.freeze_epochs < 0:
            raise ValueError(f"freeze_epochs must be >= 0, got {self.freeze_epochs}")


@dataclass(frozen=True)
class LinearHead:
    """Softmax head over standardized features; the stats are constants."""

    weights: np.ndarray
    bias: np.ndarray
    feat_mean: np.ndarray
    feat_std: np.ndarray

    def __post_init__(self) -> None:
        for name in ("weights", "bias", "feat_mean", "feat_std"):
            if not np.all(np.isfinite(frozen_field(self, name))):
                raise ValueError("head contains non-finite values")
        w = self.weights
        if w.ndim != 2 or self.bias.shape != (w.shape[0],):
            raise ValueError("weights must be (classes, features) with matching bias")
        if self.feat_mean.shape != (w.shape[1],) or self.feat_std.shape != (w.shape[1],):
            raise ValueError("standardization stats must match the feature width")
        if np.any(self.feat_std <= 0):
            raise ValueError("feat_std must be strictly positive")

    def logits(self, feats: np.ndarray) -> np.ndarray:
        z = (feats - self.feat_mean) / self.feat_std
        return z @ self.weights.T + self.bias


@dataclass(frozen=True)
class EpochRecord:
    """State snapshot taken at the start of an epoch, before its update."""

    epoch: int
    total_loss: float
    task_loss: float
    fbsp_loss: float
    accuracy: float
    m: float
    f_b: float


@dataclass(frozen=True)
class TrainLog:
    records: tuple[EpochRecord, ...]

    def __len__(self) -> int:
        return len(self.records)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])

    def to_csv(self, path: str) -> None:
        write_csv(path, [f.name for f in fields(EpochRecord)], map(astuple, self.records))


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; carries the log up to the failing epoch."""

    def __init__(self, message: str, log: TrainLog):
        super().__init__(message)
        self.log = log


@dataclass(frozen=True)
class TrainedModel:
    """Inference bundle: bank parameters, head, feature settings and the bank
    label a sweep writes; ``log`` is ``train``'s log, None for a hand-built model."""

    params: FbspParams
    head: LinearHead
    features: FeatureSpec
    class_names: tuple[str, ...]
    bank_label: str = "fbsp"
    log: TrainLog | None = None

    @cached_property
    def bank(self) -> KernelBank:
        return fbsp_kernel(self.params, self.features.n_fft)

    def model(self, bank_label: str) -> "TrainedModel":
        """This model under another bank label."""
        return replace(self, bank_label=bank_label)

    def spectrogram(self, signal: Waveform) -> Spectrogram:
        return self.features.spectrogram(signal, self.bank)

    def predict(self, spec: Spectrogram) -> int:
        """Class index of a spectrogram rendered by ``spectrogram``, pooled by ``_clip_means``."""
        filters, num_frames = spec.values.shape
        feats = _clip_means(spec.values.T, np.array([num_frames]), np.empty((1, filters)))
        return int(np.argmax(self.head.logits(feats)[0]))


# ---------------------------------------------------------------------------
# forward/backward over cached frames
# ---------------------------------------------------------------------------


def prepare_frames(corpus: TaskCorpus, features: FeatureSpec) -> list[np.ndarray]:
    """Every clip's windowed frames, unfolded, for ``feature_matrix`` and the tests;
    ``train`` frames each split straight into its folded stack (``_frame_split``)."""
    window = WindowSpec(features.window, features.n_fft)
    return [frame(wf, features.grid_for(len(wf)), window) for wf in corpus.waveforms]


def _stack_frames(frames_list: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Every clip's frames stacked into one (frames, N) array and ``fold``ed, and
    the clips' frame counts."""
    counts = np.array([len(frames) for frames in frames_list])
    if np.any(counts < 1):
        raise ValueError("every clip needs at least one frame")
    return fold(np.concatenate(frames_list)), counts


def _frame_split(corpus: TaskCorpus, indices: np.ndarray,
                 features: FeatureSpec) -> tuple[np.ndarray, np.ndarray]:
    """``_stack_frames`` of clips ``indices``' ``prepare_frames``, sized from the
    clips' lengths: each clip is read just before it is framed into its own rows of
    the stack and folded there, so no more than one clip and its frames exist beside
    the stack."""
    window = WindowSpec(features.window, features.n_fft)
    grids = [features.grid_for(corpus.num_samples(i)) for i in indices]
    counts = np.array([grid.num_frames for grid in grids])
    frames = np.empty((int(counts.sum()), features.n_fft))
    for i, grid, rows in zip(indices, grids, np.split(frames, np.cumsum(counts)[:-1])):
        rows[:] = frame(corpus.waveforms[i], grid, window)
        fold(rows)
    return frames, counts


def _clip_means(logp: np.ndarray, counts: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out`` (clips, filters) filled with each clip's time mean: clip c's ``counts[c]``
    consecutive rows of ``logp`` added in order by ``np.add.reduceat``, then divided by
    ``counts[c]``. Every feature vector, the trainer's and ``predict``'s, pools this way."""
    np.add.reduceat(logp, np.cumsum(counts) - counts, axis=0, out=out)
    out /= counts[:, None]
    return out


def _clip_features(bank: KernelBank, split: tuple[np.ndarray, np.ndarray], eps: float,
                   buffers: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, tuple]:
    """(clips, filters) time-averaged log-power rows of a ``_stack_frames`` split,
    one ``forward`` per ``clip_groups`` group into its rows of the first buffer,
    and the cache of the whole split; ``buffers`` is a workspace of at least the
    split's rows of outputs and its largest group's rows of scratch."""
    (frames, counts), (outputs, scratch) = split, buffers
    feats = np.empty((len(counts), bank.num_filters))
    for clips, rows in clip_groups(counts):
        logp = forward(bank, frames[rows], eps, (outputs[rows], scratch))[0]
        _clip_means(logp, counts[clips], feats[clips])
    return feats, (frames, outputs[:len(frames)], bank.folded_blocks)


def feature_matrix(params: FbspParams, frames_list: Sequence[np.ndarray],
                   features: FeatureSpec) -> np.ndarray:
    """Stack per-clip time-averaged log-power vectors into (clips, filters)."""
    bank, split = fbsp_kernel(params, features.n_fft), _stack_frames(frames_list)
    return _clip_features(bank, split, features.eps, workspace(len(split[0]), bank.num_filters))[0]


def _softmax_ce(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    shifted = logits - logits.max(axis=1, keepdims=True)
    expv = np.exp(shifted)
    norm = expv.sum(axis=1, keepdims=True)
    ce = float(np.mean(np.log(norm[:, 0]) - shifted[np.arange(len(labels)), labels]))
    return ce, expv / norm


def pipeline_loss(
    params: FbspParams,
    head: LinearHead,
    frames_list: Sequence[np.ndarray],
    labels: np.ndarray,
    features: FeatureSpec,
    lambda_fbsp: float = 0.0,
    weight_decay: float = 0.0,
) -> float:
    """Total objective: cross-entropy + weight decay + lambda * bank loss."""
    feats = feature_matrix(params, frames_list, features)
    ce, _ = _softmax_ce(head.logits(feats), labels)
    wd_term = 0.5 * weight_decay * float(np.sum(head.weights ** 2))
    reg = lambda_fbsp * fbsp_loss(fbsp_kernel(params, features.n_fft)) if lambda_fbsp else 0.0
    return ce + wd_term + reg


def _head_pass(feats: np.ndarray, head: LinearHead, labels: np.ndarray,
               weight_decay: float) -> tuple[float, float, np.ndarray, np.ndarray, np.ndarray]:
    """The head half of a pass over (clips, filters) features: (cross-entropy,
    cross-entropy + weight decay, grad_weights, grad_bias, feature cotangent)."""
    batch = len(labels)
    z = (feats - head.feat_mean) / head.feat_std
    ce, probs = _softmax_ce(z @ head.weights.T + head.bias, labels)
    wd_term = 0.5 * weight_decay * float(np.sum(head.weights ** 2))
    dlogits = probs
    dlogits[np.arange(batch), labels] -= 1.0
    dlogits /= batch
    grad_w = dlogits.T @ z + weight_decay * head.weights
    grad_b = dlogits.sum(axis=0)
    dfeat = (dlogits @ head.weights) / head.feat_std
    return ce, ce + wd_term, grad_w, grad_b, dfeat


def _bank_gradient(params: FbspParams, n_fft: int, cache: tuple, counts: np.ndarray,
                   dfeat: np.ndarray, lambda_fbsp: float, scratch: np.ndarray) -> ParamGradient:
    """The bank half: the feature cotangent backpropagated through the per-clip
    time means and log-power into the kernel entries, pulled back to
    (m, f_b, f_c), plus lambda times the analytic regularizer gradient;
    ``scratch`` is ``backward``'s."""
    cotangent = backward(cache, dfeat / counts[:, None], counts, scratch)
    bank_grad = kernel_jacobian_vector(params, n_fft, cotangent)
    if not lambda_fbsp:
        return bank_grad
    reg = loss_gradient(params, n_fft)
    return ParamGradient(
        d_m=bank_grad.d_m + lambda_fbsp * reg.d_m,
        d_fb=bank_grad.d_fb + lambda_fbsp * reg.d_fb,
        d_fc=bank_grad.d_fc + lambda_fbsp * reg.d_fc,
    )


def pipeline_gradients(
    params: FbspParams,
    head: LinearHead,
    frames_list: Sequence[np.ndarray],
    labels: np.ndarray,
    features: FeatureSpec,
    lambda_fbsp: float = 0.0,
    weight_decay: float = 0.0,
) -> tuple[float, float, float, np.ndarray, np.ndarray, ParamGradient]:
    """One full-batch forward/backward pass: ``_head_pass`` then
    ``_bank_gradient``, the two halves ``train`` runs.

    Returns (total, task_ce, bank_loss, grad_weights, grad_bias,
    bank_gradient).
    """
    bank, (frames, counts) = fbsp_kernel(params, features.n_fft), _stack_frames(frames_list)
    outputs, scratch = workspace(len(frames), bank.num_filters)
    feats, cache = _clip_features(bank, (frames, counts), features.eps, (outputs, scratch))
    bank_reg = fbsp_loss(bank)
    ce, objective, grad_w, grad_b, dfeat = _head_pass(feats, head, labels, weight_decay)
    bank_grad = _bank_gradient(params, features.n_fft, cache, counts, dfeat, lambda_fbsp, scratch)
    return objective + lambda_fbsp * bank_reg, ce, bank_reg, grad_w, grad_b, bank_grad


# ---------------------------------------------------------------------------
# the trainer
# ---------------------------------------------------------------------------


def _params_valid(m: float, f_b: float, f_c: np.ndarray, n_fft: int) -> bool:
    """Whether the bank is valid there and its gradients can be evaluated."""
    try:
        loss_gradient(FbspParams(m=m, f_b=f_b, f_c=f_c), n_fft)
    except ValueError:  # SingularGradientError included
        return False
    return True


@np.errstate(over="ignore", divide="ignore")  # an infinite ratio clips like any other
def _bank_step(params: FbspParams, step: np.ndarray, n_fft: int) -> np.ndarray:
    """(m, f_b, f_c) moved by ``step`` on that vector scaled to MAX_CENTER_STEP: m, f_b and
    the gaps between 0, the centers and 0.5 move as x exp(-clip(dx / x, -1, 1)), and the gaps
    are floored at 2**-40, far above the rounding of their sum, and rescaled to sum to 0.5."""
    if not np.all(np.isfinite(step)):
        return np.full_like(step, np.nan)
    step = step * min(1.0, MAX_CENTER_STEP / n_fft / np.max(np.abs(step[2:])))
    x = np.concatenate(([params.m, params.f_b], np.diff(params.f_c, prepend=0.0, append=0.5)))
    dx = np.concatenate((step[:2], np.diff(step[2:], prepend=0.0, append=0.0)))
    moved = x * np.exp(-np.clip(np.divide(dx, x, out=np.zeros_like(x), where=x > 0), -1, 1))
    edges = np.cumsum(np.where(x[2:] > 0, np.maximum(moved[2:], 2.0 ** -40), 0.0))
    return np.concatenate((moved[:2], edges[:-1] * 0.5 / edges[-1]))


def train(
    corpus: TaskCorpus,
    config: TrainConfig = TrainConfig(),
    features: FeatureSpec = FeatureSpec(),
    init: FbspParams | None = None,
) -> TrainedModel:
    """Full-batch training of the head and (after a freeze) the bank.

    Returns the trained model labelled "fbsp". Its log holds exactly
    config.epochs records, each snapshotting the state at the start of its
    epoch; its parameters include the final update. Raises TrainingDiverged
    when the objective leaves the reals.
    """
    params = init if init is not None else init_params(features.n_fft)
    train_split, val_split = (_frame_split(corpus, indices, features)
                              for indices in (corpus.train_indices, corpus.val_indices))
    train_labels = corpus.labels[corpus.train_indices]
    val_labels = corpus.labels[corpus.val_indices]

    buffers = workspace(max(len(train_split[0]), len(val_split[0])), params.num_filters,
                        max(rows.stop - rows.start for split in (train_split, val_split)
                            for _, rows in clip_groups(split[1])))

    def render(params: FbspParams) -> tuple[float, np.ndarray, np.ndarray, tuple]:
        """Bank loss, val and train features, train cache; val first, so the cache survives."""
        bank = fbsp_kernel(params, features.n_fft)
        val = _clip_features(bank, val_split, features.eps, buffers)[0]
        return fbsp_loss(bank), val, *_clip_features(bank, train_split, features.eps, buffers)

    rendered, (bank_loss, val_feats, train_feats, cache) = params, render(params)
    feat_mean = train_feats.mean(axis=0)
    feat_std = np.maximum(train_feats.std(axis=0), 1e-8)

    num_classes = corpus.num_classes
    weights = np.zeros((num_classes, params.num_filters))
    bias = np.zeros(num_classes)
    vel_w = np.zeros_like(weights)
    vel_b = np.zeros_like(bias)
    vel_bank = np.zeros(2 + params.num_filters)

    records: list[EpochRecord] = []
    for epoch in range(config.epochs):
        if rendered is not params:  # a step was taken
            rendered, (bank_loss, val_feats, train_feats, cache) = params, render(params)
        head = LinearHead(weights, bias, feat_mean, feat_std)
        with np.errstate(over="ignore", invalid="ignore"):  # a divergence is reported below
            ce, objective, grad_w, grad_b, dfeat = _head_pass(
                train_feats, head, train_labels, config.weight_decay)
            accuracy = float(np.mean(np.argmax(head.logits(val_feats), axis=1) == val_labels))
        total = objective + config.lambda_fbsp * bank_loss
        records.append(EpochRecord(
            epoch=epoch, total_loss=total, task_loss=ce, fbsp_loss=bank_loss,
            accuracy=accuracy, m=params.m, f_b=params.f_b,
        ))
        if not math.isfinite(total):
            raise TrainingDiverged(
                f"objective became non-finite at epoch {epoch}",
                TrainLog(tuple(records)))

        lr = config.lr * config.lr_decay ** epoch
        mu = config.momentum

        vel_w = mu * vel_w + grad_w
        weights = weights - lr * (grad_w + mu * vel_w)
        vel_b = mu * vel_b + grad_b
        bias = bias - lr * (grad_b + mu * vel_b)

        if epoch < config.freeze_epochs:
            continue
        bank_grad = _bank_gradient(params, features.n_fft, cache, train_split[1], dfeat,
                                   config.lambda_fbsp, buffers[1])
        grad_vec = np.concatenate(([bank_grad.d_m, bank_grad.d_fb], bank_grad.d_fc))
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite step is refused
            vel_bank = mu * vel_bank + grad_vec
            proposed = _bank_step(params, lr * (grad_vec + mu * vel_bank), features.n_fft)
        if _params_valid(proposed[0], proposed[1], proposed[2:], features.n_fft):
            params = FbspParams(m=proposed[0], f_b=proposed[1], f_c=proposed[2:])

    return TrainedModel(params=params, head=LinearHead(weights, bias, feat_mean, feat_std),
                        features=features, class_names=corpus.class_names,
                        log=TrainLog(tuple(records)))
