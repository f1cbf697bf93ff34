import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fbsplab.training as training
from fbsplab.bank import FbspParams, dft_grid, init_params
from fbsplab.gradients import finite_difference_oracle, sinc_zone_clearance
from fbsplab.training import (
    ClassSpec,
    EpochRecord,
    FeatureSpec,
    LinearHead,
    TaskCorpus,
    TrainConfig,
    TrainedModel,
    TrainingDiverged,
    feature_matrix,
    make_task,
    pipeline_gradients,
    pipeline_loss,
    prepare_frames,
    train,
)

TWO_TONES = [ClassSpec("low", "tone", 300.0, 600.0),
             ClassSpec("high", "tone", 1500.0, 3000.0)]
THREE_WAY = [ClassSpec("low_tone", "tone", 350.0, 650.0),
             ClassSpec("mid_chirp", "chirp", 900.0, 1800.0),
             ClassSpec("high_noise", "band_noise", 2200.0, 3200.0)]

FAST_FEATURES = FeatureSpec(n_fft=64, hop=32)


def small_task(seed=0, snr_range=None, samples=6):
    return make_task(TWO_TONES, samples, duration=0.2, sample_rate=8000.0,
                     seed=seed, snr_range=snr_range)


class TestMakeTask:
    def test_reproducible(self):
        a = small_task(seed=5)
        b = small_task(seed=5)
        for wa, wb in zip(a.waveforms, b.waveforms):
            assert np.array_equal(wa.samples, wb.samples)
        assert np.array_equal(a.train_indices, b.train_indices)
        c = small_task(seed=6)
        assert not np.array_equal(a.waveforms[0].samples, c.waveforms[0].samples)

    def test_split_partitions_everything(self):
        corpus = small_task(samples=10)
        assert len(corpus) == 20
        combined = np.sort(np.concatenate([corpus.train_indices, corpus.val_indices]))
        assert np.array_equal(combined, np.arange(20))
        assert len(corpus.train_indices) == 16  # floor(0.8 * 20)

    def test_class_counts_and_names(self):
        corpus = make_task(THREE_WAY, 5, duration=0.2, seed=1)
        assert corpus.num_classes == 3
        assert corpus.class_names == ("low_tone", "mid_chirp", "high_noise")
        for c in range(3):
            assert np.sum(corpus.labels == c) == 5

    def test_snr_range_forms(self):
        clean = small_task(seed=2)
        scalar = make_task(TWO_TONES, 6, duration=0.2, seed=2, snr_range=10.0)
        pair = make_task(TWO_TONES, 6, duration=0.2, seed=2, snr_range=(0.0, 12.0))
        assert not np.array_equal(clean.waveforms[0].samples, scalar.waveforms[0].samples)
        assert not np.array_equal(scalar.waveforms[0].samples, pair.waveforms[0].samples)
        # scalar form hits the requested level on every clip
        noise = scalar.waveforms[0].samples - clean.waveforms[0].samples
        measured = 10.0 * math.log10(np.mean(clean.waveforms[0].samples ** 2)
                                     / np.mean(noise ** 2))
        assert abs(measured - 10.0) < 1.5  # short clip, coarse estimate

    def test_validation(self):
        with pytest.raises(ValueError):
            make_task(TWO_TONES[:1], 5)
        with pytest.raises(ValueError):
            make_task(TWO_TONES, 1)
        with pytest.raises(ValueError):
            make_task(TWO_TONES, 5, train_fraction=1.0)

    @pytest.mark.parametrize("snr_range, message", [
        # each named snr_db, the last two a level drawn from the pair
        (-math.inf, "snr_range -inf: -inf dB puts the noise level outside float range"),
        (math.nan, "snr_range nan: must not be NaN"),
        ((-4000.0, -3500.0), "snr_range [-4000.0, -3500.0]: -4000.0 dB puts the noise level"),
        ((4000.0, 4100.0), "snr_range [4000.0, 4100.0]: 4000.0 dB puts the noise level"),
    ])
    def test_snr_levels_are_checked_before_any_clip(self, monkeypatch, snr_range, message):
        monkeypatch.setattr(training, "_draw_example", lambda *args: pytest.fail("drew a clip"))
        with pytest.raises(ValueError) as err:
            make_task(TWO_TONES, 5, snr_range=snr_range)
        assert message in str(err.value)


class TestPipelineGradients:
    def setup_method(self):
        corpus = make_task(TWO_TONES, 4, duration=0.2, sample_rate=8000.0, seed=3)
        self.features = FeatureSpec(n_fft=32, hop=16)
        frames_all = prepare_frames(corpus, self.features)
        self.frames = [frames_all[i] for i in corpus.train_indices]
        self.labels = corpus.labels[corpus.train_indices]
        self.params = FbspParams(m=0.8, f_b=1.15, f_c=dft_grid(32))
        feats = feature_matrix(self.params, self.frames, self.features)
        rng = np.random.default_rng(8)
        self.head = LinearHead(rng.standard_normal((2, 17)) * 0.3,
                               rng.standard_normal(2) * 0.1,
                               feats.mean(axis=0),
                               np.maximum(feats.std(axis=0), 1e-8))

    def run_both(self, lam, wd):
        total, ce, reg, gw, gb, bg = pipeline_gradients(
            self.params, self.head, self.frames, self.labels, self.features,
            lambda_fbsp=lam, weight_decay=wd)

        def objective(p):
            return pipeline_loss(p, self.head, self.frames, self.labels,
                                 self.features, lambda_fbsp=lam, weight_decay=wd)

        fd = finite_difference_oracle(objective, self.params)
        assert math.isclose(total, objective(self.params), rel_tol=1e-12)
        return (gw, gb, bg), fd

    @pytest.mark.parametrize("lam,wd", [(0.0, 0.0), (2.0, 1e-3)])
    def test_bank_gradient_matches_differences(self, lam, wd):
        (gw, gb, bg), fd = self.run_both(lam, wd)
        assert math.isclose(bg.d_m, fd.d_m, rel_tol=1e-5)
        assert math.isclose(bg.d_fb, fd.d_fb, rel_tol=1e-5)
        # boundary f_c entries go through the one-sided stencil; compare
        # against the gradient's scale rather than per-entry
        scale = np.max(np.abs(bg.d_fc))
        assert np.max(np.abs(bg.d_fc - fd.d_fc)) < 1e-3 * scale

    def test_a_refused_point_keeps_its_cache_and_gradient(self):
        # after a refused step train runs the bank gradient again on the same
        # point, so backward must leave the cache and the bank as it found them
        split = training._stack_frames(self.frames)
        bank = training.fbsp_kernel(self.params, 32)
        buffers = training.workspace(len(split[0]), bank.num_filters)
        feats, cache = training._clip_features(bank, split, self.features.eps, buffers)
        dfeat = training._head_pass(feats, self.head, self.labels, 1e-3)[-1]
        first, second = (training._bank_gradient(self.params, 32, cache, split[1], dfeat, 2.0,
                                                 buffers[1]) for _ in range(2))
        assert (first.d_m, first.d_fb) == (second.d_m, second.d_fb)
        assert np.array_equal(first.d_fc, second.d_fc)
        matrix = bank.real_matrix
        assert matrix is bank.real_matrix
        assert np.array_equal(matrix, np.concatenate([bank.weights.real, bank.weights.imag]).T)
        assert not matrix.flags.writeable

    def test_head_gradients_match_differences(self):
        lam, wd = 2.0, 1e-3
        (gw, gb, _), _ = self.run_both(lam, wd)
        eps = 1e-6

        def loss_with(weights, bias):
            head = LinearHead(weights, bias, self.head.feat_mean, self.head.feat_std)
            return pipeline_loss(self.params, head, self.frames, self.labels,
                                 self.features, lambda_fbsp=lam, weight_decay=wd)

        for idx in [(0, 3), (1, 11)]:
            wp, wm = self.head.weights.copy(), self.head.weights.copy()
            wp[idx] += eps
            wm[idx] -= eps
            fd = (loss_with(wp, self.head.bias) - loss_with(wm, self.head.bias)) / (2 * eps)
            assert math.isclose(gw[idx], fd, rel_tol=1e-6, abs_tol=1e-10)
        bp, bm = self.head.bias.copy(), self.head.bias.copy()
        bp[1] += eps
        bm[1] -= eps
        fd = (loss_with(self.head.weights, bp) - loss_with(self.head.weights, bm)) / (2 * eps)
        assert math.isclose(gb[1], fd, rel_tol=1e-6, abs_tol=1e-10)


def zone_step(start):
    """A step on (m, f_b, f_c) whose proposal from ``start`` (fractional m,
    n_fft 64) puts the last tap, t = 31.5, on the sinc zero f_b t / m = 17."""
    target = start.f_b * 31.5 / 17.0
    step = np.zeros(2 + start.num_filters)
    step[0] = -start.m * math.log(target / start.m)  # the step maps m to m exp(-dm / m)
    return step


@st.composite
def bank_points(draw):
    """A bank at the STFT point or with off-grid centers, m = 0 or not."""
    n_fft = draw(st.integers(4, 64))
    if draw(st.booleans()):
        f_c = dft_grid(n_fft)
    else:
        count = draw(st.integers(1, n_fft // 2 + 1))
        offsets = draw(st.lists(st.floats(0.05, 0.95), min_size=count, max_size=count))
        f_c = (np.arange(count) + np.array(offsets)) * (0.5 / count)
    m = draw(st.one_of(st.just(0.0), st.floats(0.1, 4.0)))
    return FbspParams(m=m, f_b=draw(st.floats(0.25, 4.0)), f_c=f_c), n_fft


def steps_for(params, elements):
    return st.lists(elements, min_size=2 + params.num_filters,
                    max_size=2 + params.num_filters).map(np.array)


FINITE_STEPS = st.one_of(st.just(0.0), st.sampled_from([1e300, -1e300]),
                         st.floats(allow_nan=False, allow_infinity=False))


class TestBankStep:
    @settings(max_examples=300, deadline=None, database=None)
    @given(bank_points(), st.data())
    def test_any_finite_step_gives_a_bank_with_its_pins(self, point, data):
        params, n_fft = point
        step = data.draw(steps_for(params, FINITE_STEPS))
        proposed = training._bank_step(params, step, n_fft)
        moved = FbspParams(m=proposed[0], f_b=proposed[1], f_c=proposed[2:])
        if params.m == 0.0:
            assert moved.m == 0.0
        if params.f_c[0] == 0.0:
            assert moved.f_c[0] == 0.0
        if params.f_c[-1] == 0.5:
            assert moved.f_c[-1] == 0.5

    @settings(max_examples=100, deadline=None, database=None)
    @given(bank_points())
    def test_a_zero_step_stays_put(self, point):
        params, n_fft = point
        proposed = training._bank_step(params, np.zeros(2 + params.num_filters), n_fft)
        assert (proposed[0], proposed[1]) == (params.m, params.f_b)
        np.testing.assert_allclose(proposed[2:], params.f_c, rtol=0, atol=1e-15)

    @settings(max_examples=200, deadline=None, database=None)
    @given(bank_points(), st.data())
    def test_a_small_step_is_theta_minus_step_to_first_order(self, point, data):
        params, n_fft = point
        step = 1e-10 * data.draw(steps_for(params, st.floats(-1.0, 1.0)))
        # pinned coordinates have exact derivative 0 and stay put
        step[2:][(params.f_c == 0.0) | (params.f_c == 0.5)] = 0.0
        step[0] *= params.m != 0.0
        proposed = training._bank_step(params, step, n_fft)
        theta = np.concatenate(([params.m, params.f_b], params.f_c))
        assert np.max(np.abs(proposed - (theta - step))) <= 1e-3 * 1e-10

    def test_a_large_step_moves_no_center_by_much_more_than_the_bound(self):
        params = init_params(64)
        step = np.zeros(2 + params.num_filters)
        step[2 + 10] = 1.0  # a whole cycle/sample on center 10
        proposed = training._bank_step(params, step, 64)
        moves = np.abs(proposed[2:] - params.f_c) * 64
        assert 0.5 * training.MAX_CENTER_STEP < np.max(moves) < 2 * training.MAX_CENTER_STEP

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_a_non_finite_step_is_refused(self, bad):
        params = init_params(64)
        step = np.zeros(2 + params.num_filters)
        step[1] = bad
        proposed = training._bank_step(params, step, 64)
        assert not training._params_valid(proposed[0], proposed[1], proposed[2:], 64)

    def test_a_step_into_an_exclusion_zone_is_refused(self):
        start = FbspParams(m=1.7, f_b=0.9, f_c=dft_grid(64))
        assert training._params_valid(start.m, start.f_b, start.f_c, 64)
        proposed = training._bank_step(start, zone_step(start), 64)
        assert sinc_zone_clearance(proposed[0], proposed[1], 64) < 1e-12
        assert not training._params_valid(proposed[0], proposed[1], proposed[2:], 64)


class TestTrain:
    def test_frozen_baseline_learns_separated_tones(self):
        # classes > 1 octave apart with the bank never unfrozen: the linear
        # head alone must solve this
        corpus = make_task(TWO_TONES, 20, duration=0.25, seed=0)
        config = TrainConfig(epochs=12, lr=0.5, freeze_epochs=12, lambda_fbsp=0.0)
        result = train(corpus, config, FAST_FEATURES)
        assert result.params.m == 0.0 and result.params.f_b == 1.0
        assert np.array_equal(result.params.f_c, dft_grid(64))
        assert result.log.records[-1].accuracy >= 0.95

    def test_log_shape_and_freeze_window(self):
        corpus = small_task()
        config = TrainConfig(epochs=6, lr=0.1, freeze_epochs=3, seed=0)
        result = train(corpus, config, FAST_FEATURES)
        log = result.log
        assert len(log) == 6
        assert list(log.column("epoch")) == list(range(6))
        # records snapshot epoch starts: the first unfrozen update lands
        # in the record of epoch freeze_epochs + 1
        for r in log.records[:4]:
            assert (r.m, r.f_b) == (0.0, 1.0)
        moved = [(r.m, r.f_b) != (0.0, 1.0) for r in log.records[4:]]
        assert any(moved)

    def test_bit_reproducible(self):
        corpus = small_task(snr_range=(0.0, 12.0))
        config = TrainConfig(epochs=5, lr=0.2, freeze_epochs=2)
        a = train(corpus, config, FAST_FEATURES)
        b = train(corpus, config, FAST_FEATURES)
        assert a.params.m == b.params.m
        assert a.params.f_b == b.params.f_b
        assert np.array_equal(a.params.f_c, b.params.f_c)
        assert np.array_equal(a.head.weights, b.head.weights)
        for ra, rb in zip(a.log.records, b.log.records):
            assert ra == rb

    def test_regularizer_pulls_bank_toward_unit_energy(self):
        corpus = small_task(snr_range=(0.0, 12.0))
        config = TrainConfig(epochs=8, lr=0.05, freeze_epochs=1, lambda_fbsp=10.0)
        result = train(corpus, config, FAST_FEATURES)
        assert result.log.records[-1].fbsp_loss < 1e-3

    def test_divergence_carries_log(self):
        # cross-entropy saturates instead of overflowing, so divergence
        # needs the weight-decay term: one lr = 1e160 step inflates the
        # weights until sum(w^2) leaves float range
        corpus = small_task()
        config = TrainConfig(epochs=5, lr=1e160, freeze_epochs=0)
        with pytest.raises(TrainingDiverged) as excinfo, np.errstate(over="ignore"):
            train(corpus, config, FAST_FEATURES)
        log = excinfo.value.log
        assert len(log) >= 1
        assert not math.isfinite(log.records[-1].total_loss)

    def test_custom_init(self):
        # (1.7, 0.9) keeps every tap 1/34 away from the nearest sinc zero
        corpus = small_task()
        start = FbspParams(m=1.7, f_b=0.9, f_c=dft_grid(64))
        config = TrainConfig(epochs=2, lr=0.01, freeze_epochs=2)
        result = train(corpus, config, FAST_FEATURES, init=start)
        assert result.params.m == 1.7 and result.params.f_b == 0.9

    @pytest.mark.parametrize("snr_range", [None, (0.0, 12.0)])
    def test_every_bank_step_is_taken(self, monkeypatch, snr_range):
        verdicts = []
        real_valid = training._params_valid

        def counted(*args):
            verdicts.append(real_valid(*args))
            return verdicts[-1]

        monkeypatch.setattr(training, "_params_valid", counted)
        config = TrainConfig(epochs=8, freeze_epochs=1)
        result = train(small_task(snr_range=snr_range), config, FAST_FEATURES)
        assert verdicts == [True] * 7
        assert not np.array_equal(result.params.f_c, dft_grid(64))

    def test_a_refused_proposal_is_not_taken(self, monkeypatch):
        # from a fractional-m start every proposal lands on a sinc zero: the
        # bank stays where it was, its one render serves every epoch, and each
        # unfrozen epoch runs the bank gradient and makes one proposal
        start = FbspParams(m=1.7, f_b=0.9, f_c=dft_grid(64))
        verdicts, gradients, builds = [], [], []
        real_valid, real_gradient = training._params_valid, training._bank_gradient
        real_step, real_kernel = training._bank_step, training.fbsp_kernel

        def counted_valid(*args):
            verdicts.append(real_valid(*args))
            return verdicts[-1]

        def counted_gradient(*args):
            gradients.append(args)
            return real_gradient(*args)

        def counted_kernel(*args):
            builds.append(args)
            return real_kernel(*args)

        monkeypatch.setattr(training, "_params_valid", counted_valid)
        monkeypatch.setattr(training, "_bank_gradient", counted_gradient)
        monkeypatch.setattr(training, "_bank_step",
                            lambda params, step, n_fft: real_step(params, zone_step(start), n_fft))
        monkeypatch.setattr(training, "fbsp_kernel", counted_kernel)
        config = TrainConfig(epochs=6, lr=0.1, freeze_epochs=2)
        result = train(small_task(), config, FAST_FEATURES, init=start)

        assert (result.params.m, result.params.f_b) == (start.m, start.f_b)
        assert np.array_equal(result.params.f_c, start.f_c)
        assert all((r.m, r.f_b) == (start.m, start.f_b) for r in result.log.records)
        assert len(builds) == 1 and len(gradients) == 4
        assert verdicts == [False] * 4

    def test_an_overflowing_step_is_refused_without_a_warning(self, monkeypatch):
        # lr (g + mu v) leaves float range in the first unfrozen epoch; the
        # proposal is not taken, and the run ends without a RuntimeWarning
        huge = training.ParamGradient(d_m=1e308, d_fb=1e308, d_fc=np.full(33, 1e308))
        monkeypatch.setattr(training, "_bank_gradient", lambda *args: huge)
        result = train(small_task(), TrainConfig(epochs=4, freeze_epochs=1), FAST_FEATURES)
        assert (result.params.m, result.params.f_b) == (0.0, 1.0)
        assert np.array_equal(result.params.f_c, dft_grid(64))

    def test_epochs_allocate_no_array_of_the_frames_size(self):
        # an unfrozen run holds the stacked frames and the workspace's two
        # (T, 2F) buffers; the bank, its gradient and the head need a fixed
        # few hundred KB whatever T is. At T = 3136 train frames one (T, F)
        # temporary is 0.8 MB, so a per-epoch array of that size fails here
        corpus = small_task(samples=40)
        frames = prepare_frames(corpus, FAST_FEATURES)
        rows = max(sum(len(frames[i]) for i in indices)
                   for indices in (corpus.train_indices, corpus.val_indices))
        workspace = 2 * 8 * rows * 2 * (FAST_FEATURES.n_fft // 2 + 1)
        slack = 512 * 1024
        bound = sum(f.nbytes for f in frames) + workspace + slack
        del frames
        config = TrainConfig(epochs=4, lr=0.1, freeze_epochs=1)
        tracemalloc.start()
        try:
            train(corpus, config, FAST_FEATURES)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_standardization_uses_init_train_stats(self):
        corpus = small_task()
        config = TrainConfig(epochs=1, lr=0.1, freeze_epochs=1)
        result = train(corpus, config, FAST_FEATURES)
        frames_all = prepare_frames(corpus, FAST_FEATURES)
        train_frames = [frames_all[i] for i in corpus.train_indices]
        feats = feature_matrix(init_params(64), train_frames, FAST_FEATURES)
        z = (feats - result.head.feat_mean) / result.head.feat_std
        assert np.max(np.abs(z.mean(axis=0))) < 1e-10
        spread = z.std(axis=0)
        assert np.all((np.abs(spread - 1.0) < 1e-10) | (spread < 1e-10))


class TestModelAndLog:
    def test_predict_round_trip(self):
        corpus = make_task(TWO_TONES, 20, duration=0.25, seed=0)
        config = TrainConfig(epochs=12, lr=0.5, freeze_epochs=12, lambda_fbsp=0.0)
        model = train(corpus, config, FAST_FEATURES).model(bank_label="stft")
        assert model.bank_label == "stft"
        correct = sum(model.predict(model.spectrogram(corpus.waveforms[i])) == corpus.labels[i]
                      for i in corpus.val_indices)
        assert correct / len(corpus.val_indices) >= 0.95

    def test_train_returns_the_model_a_sweep_runs(self):
        corpus = small_task()
        config = TrainConfig(epochs=3, lr=0.1, freeze_epochs=1)
        model = train(corpus, config, FAST_FEATURES)
        assert isinstance(model, TrainedModel)
        assert model.bank_label == "fbsp"
        assert len(model.log) == config.epochs
        spec = model.spectrogram(corpus.waveforms[0])
        assert spec.values.shape[0] == model.params.num_filters
        assert model.predict(spec) in range(corpus.num_classes)
        stft = model.model("stft")
        assert stft.bank_label == "stft"
        assert stft.params is model.params and stft.log is model.log
        hand_built = TrainedModel(params=model.params, head=model.head,
                                  features=FAST_FEATURES, class_names=corpus.class_names)
        assert hand_built.log is None

    def test_log_csv(self, tmp_path):
        corpus = small_task()
        result = train(corpus, TrainConfig(epochs=3, lr=0.1), FAST_FEATURES)
        path = tmp_path / "log.csv"
        result.log.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "epoch,total_loss,task_loss,fbsp_loss,accuracy,m,f_b"
        assert len(lines) == 4

    def test_log_column(self):
        records = tuple(EpochRecord(epoch=i, total_loss=float(i), task_loss=0.0,
                                    fbsp_loss=0.0, accuracy=1.0, m=0.0, f_b=1.0)
                        for i in range(3))
        from fbsplab.training import TrainLog
        log = TrainLog(records)
        assert np.array_equal(log.column("total_loss"), [0.0, 1.0, 2.0])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(lr=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(momentum=1.0)
        with pytest.raises(ValueError):
            TrainConfig(lr_decay=0.0)
        with pytest.raises(ValueError):
            TrainConfig(lambda_fbsp=-1.0)

    def test_corpus_validation(self):
        corpus = small_task()
        with pytest.raises(ValueError):
            TaskCorpus(waveforms=corpus.waveforms, labels=corpus.labels,
                       train_indices=corpus.train_indices,
                       val_indices=corpus.train_indices,  # overlap
                       class_names=corpus.class_names,
                       sample_rate=corpus.sample_rate)
