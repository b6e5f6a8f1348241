"""Training: NLL values against hand-derived anchors, Adam against its
closed-form first step and a quadratic bowl, plateau schedule, window
cropping, gradient clipping, reproducibility, full-model gradient check,
and pinned batches run as two row shards on two threads."""

import contextlib
import math
import threading
import time
import types
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from gridcast import nn, ogm, seq2seq, training, verify
from gridcast.training import (
    AdamState,
    TrainConfig,
    TrainingDiverged,
    TrainingExample,
    adam_step,
    clip_gradients,
    crop_window_arrays,
    crop_windows,
    fit_normalizer,
    lr_on_plateau,
    nll_loss,
    train,
    window_count,
)


def tiny_setup(cell_dim=4, q_w=4, q_l=3, obs_len=3, horizon=3, seed=0, n_examples=2, randomize=True):
    config = seq2seq.ModelConfig(cell_dim=cell_dim, grid=ogm.GridSpec.custom(q_w, q_l), obs_len=obs_len, horizon=horizon)
    params = seq2seq.init_model_params(config, seed=seed)
    rng = np.random.default_rng(seed + 5000)
    if randomize:
        for name, a in params.param_items():
            if name.endswith(".bias") or name.endswith(".b"):
                a[...] = rng.uniform(0.05, 0.4, size=a.shape)
            else:
                a[...] = rng.uniform(-0.4, 0.4, size=a.shape)
    examples = [
        TrainingExample(
            inputs=rng.standard_normal((obs_len, 6)),
            labels=rng.integers(1, config.num_classes + 1, size=horizon),
        )
        for _ in range(n_examples)
    ]
    return config, params, examples


class TestNllLoss:
    def test_uniform_output_gives_log_q(self):
        # all-zero params emit constant zero logits -> uniform over Q classes
        config, params, examples = tiny_setup(q_w=36, q_l=21, randomize=False)
        for _, a in params.param_items():
            a[...] = 0.0
        loss, _ = nll_loss(params, examples, with_grads=False)
        assert loss == pytest.approx(math.log(757), rel=1e-12)

    def test_probability_one_gives_zero_loss(self):
        config, params, examples = tiny_setup(randomize=False)
        for _, a in params.param_items():
            a[...] = 0.0
        # send every label's logit far up: softmax ~ 1 at the label
        label = 5
        for ex in examples:
            ex.labels[...] = label
        params.dec_fc[-1].bias[label - 1] = 500.0
        loss, _ = nll_loss(params, examples, with_grads=False)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_batch_gradient_is_mean_of_per_example(self):
        config, params, examples = tiny_setup(n_examples=3, seed=2)
        loss_all, grads_all = nll_loss(params, examples)
        singles = [nll_loss(params, [ex]) for ex in examples]
        assert loss_all == pytest.approx(np.mean([l for l, _ in singles]), abs=1e-12)
        for name, g in grads_all.items():
            mean_g = np.mean([s[1][name] for s in singles], axis=0)
            assert np.allclose(g, mean_g, atol=1e-12)

    def test_mismatched_horizon_rejected(self):
        config, params, examples = tiny_setup()
        examples[0].labels = examples[0].labels[:-1]
        with pytest.raises(ValueError):
            nll_loss(params, examples)

    def test_out_of_range_label_rejected(self):
        config, params, examples = tiny_setup()
        examples[0].labels[0] = 0
        with pytest.raises(ValueError, match="labels"):
            nll_loss(params, examples)
        examples[0].labels[0] = config.num_classes + 1
        with pytest.raises(ValueError, match="labels"):
            nll_loss(params, examples)

    def test_full_model_gradient_matches_finite_differences(self):
        # scale-relative comparison; per-coordinate FD noise is ~1e-10 abs
        config, params, examples = tiny_setup(seed=3)
        f, f_value = verify.make_loss_fn(params, examples)
        x0 = verify.get_flat_params(params)
        _, analytic = f(x0)
        h = 1e-5
        numeric = np.empty_like(x0)
        x = x0.copy()
        for k in range(x0.size):
            orig = x[k]
            x[k] = orig + h
            fp = f_value(x)
            x[k] = orig - h
            fm = f_value(x)
            x[k] = orig
            numeric[k] = (fp - fm) / (2 * h)
        scale = np.max(np.abs(analytic))
        assert np.max(np.abs(analytic - numeric)) / scale < 1e-6
        healthy = np.abs(analytic) >= 1e-2 * scale
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-12)
        assert np.max((np.abs(analytic - numeric) / denom)[healthy]) < 1e-6

    def test_teacher_forcing_uses_true_previous_label(self):
        # changing the step-1 label must change the step-2 conditional input,
        # hence the loss, even with the step-2 label fixed
        config, params, examples = tiny_setup(n_examples=1, seed=4)
        base, _ = nll_loss(params, examples, with_grads=False)
        examples[0].labels[0] = examples[0].labels[0] % config.num_classes + 1
        changed, _ = nll_loss(params, examples, with_grads=False)
        assert base != changed


class TestAdam:
    def test_first_step_is_signed_lr(self):
        # bias correction makes m_hat = g, v_hat = g*g: update = -lr * sign(g)
        config, params, _ = tiny_setup(randomize=False)
        state = AdamState.for_params(params)
        before = {n: a.copy() for n, a in params.param_items()}
        grads = {n: np.zeros_like(a) for n, a in params.param_items()}
        rng = np.random.default_rng(0)
        for n in grads:
            grads[n][...] = rng.standard_normal(grads[n].shape)
        adam_step(state, params, grads, lr=0.01)
        for n, a in params.param_items():
            g = grads[n]
            expected = before[n] - 0.01 * g / (np.abs(g) + 1e-8 * np.sqrt(np.abs(g)) / np.abs(g))
            # up to the epsilon correction the step is exactly -lr*sign(g)
            assert np.allclose(a, before[n] - 0.01 * np.sign(g), atol=1e-5)
        assert state.t == 1

    def test_zero_gradient_keeps_params(self):
        config, params, _ = tiny_setup()
        state = AdamState.for_params(params)
        before = {n: a.copy() for n, a in params.param_items()}
        grads = {n: np.zeros_like(a) for n, a in params.param_items()}
        adam_step(state, params, grads, lr=0.5)
        for n, a in params.param_items():
            assert np.array_equal(a, before[n])
        assert state.t == 1

    def test_non_finite_gradient_aborts(self):
        config, params, _ = tiny_setup()
        state = AdamState.for_params(params)
        grads = {n: np.zeros_like(a) for n, a in params.param_items()}
        grads["embed_w"][0, 0] = np.nan
        with pytest.raises(FloatingPointError, match="embed_w"):
            adam_step(state, params, grads, lr=0.1)

    def test_converges_on_quadratic_bowl(self):
        # standalone 2-d bowl driven through the same update rule
        target = np.array([1.5, -2.0])
        x = np.zeros(2)
        m = np.zeros(2)
        v = np.zeros(2)
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        for t in range(1, 201):
            g = x - target
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            x = x - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        assert np.max(np.abs(x - target)) < 1e-3

    def test_optimizer_reduces_loss_on_real_model(self):
        config, params, examples = tiny_setup(seed=6, n_examples=4)
        state = AdamState.for_params(params)
        loss0, _ = nll_loss(params, examples, with_grads=False)
        for _ in range(120):
            _, grads = nll_loss(params, examples)
            adam_step(state, params, grads, lr=0.01)
        loss_end, _ = nll_loss(params, examples, with_grads=False)
        assert loss_end < loss0 * 0.8  # measured ~0.58x at this seed


class TestClipGradients:
    def test_norm_above_limit_scaled(self):
        grads = {"a": np.array([3.0, 4.0])}  # norm 5
        norm = clip_gradients(grads, 1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(grads["a"]) <= 1.0 + 1e-12

    def test_norm_below_limit_untouched(self):
        grads = {"a": np.array([0.3, 0.4])}
        clip_gradients(grads, 5.0)
        assert np.array_equal(grads["a"], [0.3, 0.4])


class TestLrOnPlateau:
    CFG = TrainConfig(plateau_patience=3, plateau_min_delta=1e-3)

    def test_strictly_decreasing_unchanged(self):
        history = [5.0, 4.0, 3.0, 2.0, 1.0]
        assert lr_on_plateau(history, 0.1, self.CFG) == 0.1

    def test_flat_history_halves(self):
        history = [5.0, 5.0, 5.0, 5.0]  # patience+1 entries, no improvement
        assert lr_on_plateau(history, 0.1, self.CFG) == 0.05

    def test_two_consecutive_plateaus_quarter(self):
        lr = 0.1
        history = []
        for value in [5.0] + [5.0] * 6:
            history.append(value)
            lr = lr_on_plateau(history, lr, self.CFG)
        assert lr == pytest.approx(0.025)

    def test_improvement_below_min_delta_counts_as_plateau(self):
        history = [5.0, 4.9999, 4.9998, 4.9997]
        assert lr_on_plateau(history, 0.1, self.CFG) == 0.05

    def test_halving_happens_once_per_plateau(self):
        history = [5.0, 5.0, 5.0, 5.0, 5.0]  # one eval past the plateau edge
        assert lr_on_plateau(history, 0.1, self.CFG) == 0.1

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            lr_on_plateau([], 0.1, self.CFG)


class TestCropWindows:
    GRID = ogm.GridSpec()

    def make_record(self, n_frames, x0=30.0, vx=2.0, y=0.0):
        t = np.arange(n_frames) * 0.1
        frames = np.column_stack(
            [np.full(n_frames, 25.0), np.zeros(n_frames), x0 + vx * t, np.full(n_frames, y),
             np.full(n_frames, vx), np.zeros(n_frames)]
        )
        return frames

    def test_exact_length_gives_one_window(self):
        frames = self.make_record(30 + 2 * 10)
        examples, skipped = crop_windows([frames], 30, 10, self.GRID)
        assert len(examples) == 1 and skipped == 0

    def test_five_extra_frames_give_six_windows(self):
        frames = self.make_record(30 + 2 * 10 + 5)
        examples, skipped = crop_windows([frames], 30, 10, self.GRID)
        assert len(examples) == 6

    def test_short_record_skipped_and_counted(self):
        examples, skipped = crop_windows([self.make_record(49)], 30, 10, self.GRID)
        assert examples == [] and skipped == 1

    @pytest.mark.parametrize("n_frames", [0, 1, 49, 50, 51, 64])
    def test_window_count_is_the_crop_count(self, n_frames):
        examples, skipped = crop_windows([self.make_record(n_frames)], 30, 10, self.GRID)
        assert window_count(n_frames, 30, 10) == len(examples)
        assert skipped == (len(examples) == 0)

    def test_labels_quantize_every_second_frame(self):
        frames = self.make_record(50, x0=30.0, vx=2.0)
        examples, _ = crop_windows([frames], 30, 10, self.GRID)
        ex = examples[0]
        assert np.array_equal(ex.inputs, frames[:30])
        for j in range(10):
            fx, fy = frames[30 + 2 * (j + 1) - 1, 2:4]
            expected = ogm.flatten(ogm.quantize(fx, fy, self.GRID), self.GRID)
            assert ex.labels[j] == expected

    def test_out_of_range_future_labeled_out_of_map(self):
        frames = self.make_record(50, x0=170.0, vx=10.0)  # exits past 180 m
        examples, _ = crop_windows([frames], 30, 10, self.GRID)
        assert examples[0].labels[-1] == 757

    def test_far_position_is_out_of_map(self):
        frames = self.make_record(50, x0=200.0, vx=0.0)
        examples, _ = crop_windows([frames], 30, 10, self.GRID)
        assert np.all(examples[0].labels == 757)

    @staticmethod
    def reference_labels(frames, obs_len, horizon, grid):
        """One scalar quantize per label, window by window."""
        need = obs_len + 2 * horizon
        return [
            [
                ogm.flatten(ogm.quantize(*frames[s + obs_len + 2 * (j + 1) - 1, 2:4], grid), grid)
                for j in range(horizon)
            ]
            for s in range(frames.shape[0] - need + 1)
        ]

    @pytest.mark.parametrize("grid", [ogm.GridSpec(), ogm.GridSpec.custom(6, 3)])
    def test_labels_equal_scalar_reference(self, grid):
        rng = np.random.default_rng(8)
        records = []
        for n_frames in (49, 50, 51, 52, 57, 64):
            frames = self.make_record(n_frames, x0=rng.uniform(-5, 185), vx=rng.uniform(-20, 20))
            frames[:, 2:4] += rng.normal(0.0, [3.0, 6.0], size=(n_frames, 2))
            records.append(frames)
        examples, skipped = crop_windows(records, 30, 10, grid)
        assert skipped == 1
        expected = [labels for frames in records for labels in self.reference_labels(frames, 30, 10, grid)]
        assert [ex.labels.tolist() for ex in examples] == expected
        assert all(ex.labels.dtype == np.int64 for ex in examples)

    def test_nan_outside_label_frames_is_not_read(self):
        # one window: frames 0..30 are only observed, and the label frames
        # are every 2nd frame from 31 on
        frames = self.make_record(50)
        frames[[0, 30, 32, 48], 2] = np.nan
        frames[:, [0, 1, 4, 5]] = np.nan
        examples, _ = crop_windows([frames], 30, 10, self.GRID)
        assert len(examples) == 1
        assert examples[0].labels.tolist() == self.reference_labels(frames, 30, 10, self.GRID)[0]

    @staticmethod
    def reference_crop(records, obs_len, horizon, grid):
        """Record by record: one position_classes call per record over its
        label frames, and one slice per window."""
        inputs, labels, skipped = [], [], 0
        for rec in records:
            frames = np.asarray(getattr(rec, "frames", rec), dtype=np.float64)
            count = window_count(frames.shape[0], obs_len, horizon)
            if not count:
                skipped += 1
                continue
            every = 1 if count > 1 else 2
            classes = ogm.position_classes(frames[obs_len + 1 :: every, 2:4], grid)
            steps = 2 * np.arange(horizon)
            for s in range(count):
                inputs.append(frames[s : s + obs_len])
                labels.append(classes[(s + steps) // every])
        return inputs, labels, skipped

    @pytest.mark.parametrize("bare", [False, True], ids=["records", "arrays"])
    def test_arrays_equal_the_reference_and_the_examples(self, bare):
        # 50 frames hold exactly one window (every LABEL_STRIDE-th frame a
        # label), 49 and 30 none
        rng = np.random.default_rng(12)
        records = []
        for n_frames in (62, 49, 51, 50, 30, 50, 62):
            frames = self.make_record(n_frames, x0=rng.uniform(-5, 185), vx=rng.uniform(-20, 20))
            frames[:, 2:4] += rng.normal(0.0, [3.0, 6.0], size=(n_frames, 2))
            records.append(frames if bare else types.SimpleNamespace(frames=frames))
        inputs, labels, skipped = crop_window_arrays(records, 30, 10, self.GRID)
        ref_inputs, ref_labels, ref_skipped = self.reference_crop(records, 30, 10, self.GRID)
        assert inputs.shape == (13 + 2 + 1 + 1 + 13, 30, 6) and labels.shape == (30, 10)
        assert (inputs == np.stack(ref_inputs)).all() and (labels == np.stack(ref_labels)).all()
        assert labels.dtype == np.int64
        assert skipped == ref_skipped == 2
        examples, too_short = crop_windows(records, 30, 10, self.GRID)
        assert too_short == skipped
        assert all((ex.inputs == x).all() and (ex.labels == y).all() for ex, x, y in zip(examples, inputs, labels, strict=True))

    def test_arrays_of_no_records(self):
        inputs, labels, skipped = crop_window_arrays([], 30, 10, self.GRID)
        assert (inputs.shape, labels.shape, labels.dtype, skipped) == ((0, 30, 6), (0, 10), np.int64, 0)
        assert crop_windows([], 30, 10, self.GRID) == ([], 0)
        inputs, labels, skipped = crop_window_arrays([self.make_record(49), self.make_record(30)], 30, 10, self.GRID)
        assert (inputs.shape, labels.shape, skipped) == ((0, 30, 6), (0, 10), 2)

    def test_nan_in_a_label_frame_raises(self):
        frames = self.make_record(50)
        frames[33, 3] = np.nan
        with pytest.raises(ValueError, match="quantize requires finite coordinates"):
            crop_windows([frames], 30, 10, self.GRID)


class TestTrainLoop:
    def small_dataset(self, seed=0):
        # straight-line records over a small grid: quickly learnable
        rng = np.random.default_rng(seed)
        config = seq2seq.ModelConfig(cell_dim=8, grid=ogm.GridSpec.custom(6, 3), obs_len=6, horizon=2)
        grid = ogm.GridSpec.custom(6, 3)
        records = []
        for _ in range(12):
            n = config.obs_len + 2 * config.horizon + 3
            t = np.arange(n) * 0.1
            x0 = rng.uniform(2, 20)
            vx = rng.uniform(-2, 2)
            y = rng.uniform(-1.2, 1.2)
            records.append(
                np.column_stack(
                    [np.full(n, 25.0), np.zeros(n), x0 + vx * t, np.full(n, y), np.full(n, vx), np.zeros(n)]
                )
            )
        examples, _ = crop_windows(records, config.obs_len, config.horizon, grid)
        return config, examples

    def test_reproducible_trace(self):
        config, examples = self.small_dataset()
        tcfg = TrainConfig(batch_size=8, max_epochs=3, seed=11)
        r1 = train(config, examples, examples[:8], tcfg)
        r2 = train(config, examples, examples[:8], tcfg)
        assert r1.trace == r2.trace  # bit-identical floats
        for (_, a), (_, b) in zip(r1.params.checkpoint_items(), r2.params.checkpoint_items()):
            assert np.array_equal(a, b)

    def test_epoch_zero_near_log_q(self):
        config, examples = self.small_dataset()
        tcfg = TrainConfig(batch_size=8, max_epochs=1, seed=3)
        result = train(config, examples, examples[:8], tcfg)
        epoch0_val = result.trace[0][2]
        assert epoch0_val == pytest.approx(math.log(config.num_classes), rel=0.05)

    def test_overfit_small_set(self):
        config, examples = self.small_dataset(seed=5)
        subset = examples[:8]
        tcfg = TrainConfig(batch_size=8, max_epochs=400, lr0=0.01, seed=7,
                           early_stop_patience=400, target_val_nll=0.1)
        result = train(config, subset, subset, tcfg)
        assert result.best_val_nll < 0.1
        assert result.stop_reason == "target_reached"

    def test_early_stop_fires(self):
        config, examples = self.small_dataset(seed=6)
        # negligible rate: validation cannot improve beyond min_delta
        tcfg = TrainConfig(batch_size=8, max_epochs=200, lr0=1e-12, seed=1, early_stop_patience=3)
        result = train(config, examples, examples[:8], tcfg)
        assert result.stop_reason == "early_stop"
        assert len(result.trace) <= 6

    def test_trace_csv_shape(self):
        config, examples = self.small_dataset()
        tcfg = TrainConfig(batch_size=8, max_epochs=2, seed=2)
        result = train(config, examples, examples[:8], tcfg)
        lines = result.trace_csv().strip().split("\n")
        assert lines[0] == "epoch,train_nll,val_nll,lr"
        assert len(lines) == len(result.trace) + 1

    def test_clipping_bounds_global_norm(self):
        config, params, examples = tiny_setup(seed=9)
        _, grads = nll_loss(params, examples)
        clip_gradients(grads, 1e-3)
        total = math.sqrt(sum(float(np.sum(g**2)) for g in grads.values()))
        assert total <= 1e-3 + 1e-12


class TestNormalizer:
    def test_fit_statistics(self):
        rng = np.random.default_rng(0)
        config, params, _ = tiny_setup()
        examples = [
            TrainingExample(inputs=rng.standard_normal((3, 6)) * 5 + 2, labels=np.ones(3, dtype=int))
            for _ in range(10)
        ]
        fit_normalizer(params, examples)
        stacked = np.concatenate([ex.inputs for ex in examples])
        assert np.allclose(params.feat_mean, stacked.mean(axis=0), atol=1e-12)
        assert np.allclose(params.feat_std, stacked.std(axis=0), atol=1e-12)

    def test_constant_feature_floored(self):
        config, params, _ = tiny_setup()
        examples = [TrainingExample(inputs=np.ones((3, 6)), labels=np.ones(3, dtype=int))]
        fit_normalizer(params, examples)
        assert np.all(params.feat_std >= 1e-8)


@contextlib.contextmanager
def worker_pool(prefix="shard-test"):
    """A one-worker pool like the one train() runs second shards on."""
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix=prefix) as pool:
        yield pool


class InlineExecutor:
    """An executor stand-in whose submit runs the call at once, on the
    calling thread."""

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except BaseException as exc:
            future.set_exception(exc)
        return future


def assert_bitwise_equal(a, b):
    (loss_a, grads_a), (loss_b, grads_b) = a, b
    assert loss_a == loss_b
    assert grads_a.keys() == grads_b.keys()
    for name in grads_a:
        assert np.array_equal(grads_a[name], grads_b[name]), name


def recording_nll(monkeypatch):
    """Patch training.nll_loss to log (thread name, shard rows) per call."""
    calls = []
    real = training.nll_loss

    def wrapped(params, examples, *args):
        calls.append((threading.current_thread().name, len(examples)))
        return real(params, examples, *args)

    monkeypatch.setattr(training, "nll_loss", wrapped)
    return calls


BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class TestRowShards:
    """A pinned batch split into two row shards, the second on one worker
    thread."""

    @pytest.mark.parametrize(
        "env, expected",
        [
            ({"OPENBLAS_NUM_THREADS": "1"}, 1),
            ({"GOTO_NUM_THREADS": "1"}, 1),
            ({"OMP_NUM_THREADS": "1"}, 1),
            ({"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "1"}, 1),
            ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "1"}, 1),
            ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 4),
            ({"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2),
            ({}, None),
        ],
    )
    def test_blas_threads_read_in_openblas_order(self, monkeypatch, env, expected):
        for name in BLAS_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert nn._blas_threads() == expected

    @pytest.mark.parametrize(
        "pinned, cpus, expected",
        [
            (True, 2, 2),
            (True, 4, 2),
            (True, 1, 1),
            (False, 2, 1),
            (False, 4, 1),
        ],
    )
    def test_rule_reads_pin_and_cpus(self, monkeypatch, pinned, cpus, expected):
        monkeypatch.setattr(nn, "_BLAS_PINNED", pinned)
        monkeypatch.setattr(nn, "_cpu_set", lambda: set(range(cpus)))

        def no_files(*args, **kwargs):
            raise AssertionError("row_shards() opened a file")

        monkeypatch.setattr("builtins.open", no_files)
        assert nn.row_shards() == expected
        assert training.layout().startswith("2 row shards" if expected == 2 else "whole batches")

    def test_blas_pin_is_read_once_at_import(self, monkeypatch):
        monkeypatch.setattr(nn, "_cpu_set", lambda: {0, 1})
        before = nn.row_shards()
        for name in BLAS_VARIABLES:
            monkeypatch.setenv(name, "4" if nn._BLAS_PINNED else "1")
        assert nn.row_shards() == before

    @pytest.mark.parametrize("with_grads", [True, False])
    def test_threaded_equals_inline_bitwise(self, monkeypatch, with_grads):
        config, params, examples = tiny_setup(n_examples=9, seed=4)
        loss, grads = nll_loss(params, examples[:5], with_grads, 9)
        loss2, grads2 = nll_loss(params, examples[5:], with_grads, 9)
        calls = recording_nll(monkeypatch)
        with worker_pool() as pool:
            threaded = training._batch_nll(params, examples, pool, with_grads)
        assert sorted(calls) == [("MainThread", 5), ("shard-test_0", 4)]
        if with_grads:
            for name, g in grads.items():
                g += grads2[name]
            assert_bitwise_equal(threaded, (loss + loss2, grads))
        else:
            assert threaded == (loss + loss2, None)

    def test_worker_shard_is_joined_when_the_first_raises(self, monkeypatch):
        config, params, examples = tiny_setup(n_examples=4, seed=3)
        real = training.nll_loss
        finished = []

        def fail_on_main(params, examples, *args):
            if threading.current_thread() is threading.main_thread():
                raise FloatingPointError("non-finite training loss")
            time.sleep(0.05)
            result = real(params, examples, *args)
            finished.append(len(examples))
            return result

        monkeypatch.setattr(training, "nll_loss", fail_on_main)
        with worker_pool() as pool:
            with pytest.raises(FloatingPointError):
                training._batch_nll(params, examples, pool)
            assert finished == [2]

    def test_two_shards_match_whole_batch(self):
        config, params, examples = tiny_setup(n_examples=8, seed=6)
        whole_loss, whole_grads = nll_loss(params, examples)
        with worker_pool() as pool:
            loss, grads = training._batch_nll(params, examples, pool)
            forward_only, _ = training._batch_nll(params, examples, pool, with_grads=False)
        assert abs(loss - whole_loss) <= 1e-12 * abs(whole_loss)
        assert abs(forward_only - whole_loss) <= 1e-12 * abs(whole_loss)
        for name, g in whole_grads.items():
            assert np.max(np.abs(grads[name] - g)) <= 1e-12 * np.max(np.abs(g)), name

    def test_odd_batch_splits_into_two_nonempty_shards(self, monkeypatch):
        config, params, examples = tiny_setup(n_examples=5, seed=2)
        whole = nll_loss(params, examples)
        calls = recording_nll(monkeypatch)
        with worker_pool() as pool:
            loss, grads = training._batch_nll(params, examples, pool)
        assert sorted(calls) == [("MainThread", 3), ("shard-test_0", 2)]
        assert loss == pytest.approx(whole[0], rel=1e-12)

    def test_one_row_batch_is_not_split(self, monkeypatch):
        config, params, examples = tiny_setup(n_examples=1, seed=2)
        whole = nll_loss(params, examples)
        calls = recording_nll(monkeypatch)
        with worker_pool() as pool:
            result = training._batch_nll(params, examples, pool)
        assert calls == [("MainThread", 1)]
        assert_bitwise_equal(result, whole)

    def test_one_shard_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(nn, "row_shards", lambda: 1)
        threads_before = threading.active_count()
        with nn.shard_pool() as shards:
            assert shards is None
            assert threading.active_count() == threads_before

    def test_train_threaded_equals_inline_bitwise(self, monkeypatch):
        config, examples = TestTrainLoop().small_dataset()
        tcfg = TrainConfig(batch_size=8, max_epochs=2, seed=11)
        monkeypatch.setattr(nn, "row_shards", lambda: 2)
        threads_before = threading.active_count()
        calls = recording_nll(monkeypatch)
        threaded = train(config, examples, examples[:7], tcfg)
        assert threading.active_count() == threads_before
        workers = {name for name, _ in calls} - {"MainThread"}
        assert len(workers) == 1  # one worker thread took every second shard
        assert {rows for _, rows in calls} == {4, 3}  # batches of 8 and 7 rows
        calls.clear()
        monkeypatch.setattr(nn, "shard_pool", lambda: contextlib.nullcontext(InlineExecutor()))
        inline = train(config, examples, examples[:7], tcfg)
        assert {name for name, _ in calls} == {"MainThread"}
        assert {rows for _, rows in calls} == {4, 3}  # split the same way
        assert threaded.trace == inline.trace
        assert threaded.best_val_nll == inline.best_val_nll
        for (_, a), (_, b) in zip(threaded.params.checkpoint_items(), inline.params.checkpoint_items()):
            assert np.array_equal(a, b)

    def test_non_finite_loss_in_worker_shard_diverges(self, monkeypatch):
        config, examples = TestTrainLoop().small_dataset()
        tcfg = TrainConfig(batch_size=8, max_epochs=2, seed=11)
        monkeypatch.setattr(nn, "row_shards", lambda: 2)
        real = training.nll_loss
        poisoned = []

        def nan_in_worker(params, examples, with_grads=True, batch_rows=None):
            if with_grads and threading.current_thread() is not threading.main_thread():
                poisoned.append(len(examples))
                examples = [TrainingExample(inputs=np.full_like(ex.inputs, np.nan), labels=ex.labels) for ex in examples]
            return real(params, examples, with_grads, batch_rows)

        monkeypatch.setattr(training, "nll_loss", nan_in_worker)
        threads_before = threading.active_count()
        with pytest.raises(TrainingDiverged, match="non-finite") as info:
            train(config, examples, examples[:8], tcfg)
        assert threading.active_count() == threads_before
        assert poisoned == [4]  # the worker's shard of the first batch
        assert isinstance(info.value.__cause__, FloatingPointError)
        # the epoch-0 parameters, the only ones validated, are handed back
        monkeypatch.setattr(training, "nll_loss", real)
        start = train(config, examples, examples[:8], replace(tcfg, max_epochs=0))
        assert info.value.best_params is not None
        for (_, a), (_, b) in zip(info.value.best_params.checkpoint_items(), start.params.checkpoint_items()):
            assert np.array_equal(a, b)
