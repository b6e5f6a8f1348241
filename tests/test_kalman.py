"""Constant-velocity Kalman baseline: propagation, correction against the
closed-form scalar filter, covariance discipline, forecast exactness, the
row-batched filter against single rows, the predict/update chain and the
dense-transition recursion, non-finite measurements, model validation, and
the forecast cadence against the label cadence, and the memoized gain
schedule."""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridcast import ogm, training
from gridcast.kalman import (
    CvModel,
    KalmanState,
    gain_schedule,
    kf_filter_rows,
    kf_forecast,
    kf_forecast_rows,
    kf_predict,
    kf_update,
)
from gridcast.seq2seq import FRAME_DT, LABEL_STRIDE

MODEL = CvModel()
GRID = ogm.GridSpec()


def cv_frames(n, x0, y0, vx, vy, ego_speed=25.0):
    t = np.arange(n) * FRAME_DT
    return np.column_stack(
        [np.full(n, ego_speed), np.zeros(n), x0 + vx * t, y0 + vy * t, np.full(n, vx), np.full(n, vy)]
    )


class TestPredict:
    def test_cv_propagation(self):
        state = KalmanState(mean=np.array([0.0, 0.0, 10.0, 0.0]), covariance=np.eye(4))
        out = kf_predict(state, MODEL)
        assert np.allclose(out.mean, [1.0, 0.0, 10.0, 0.0], atol=1e-15)

    def test_zero_velocity_keeps_position(self):
        state = KalmanState(mean=np.array([5.0, -2.0, 0.0, 0.0]), covariance=np.eye(4))
        out = kf_predict(state, MODEL)
        assert np.allclose(out.mean, [5.0, -2.0, 0.0, 0.0], atol=1e-15)

    def test_covariance_trace_grows(self):
        state = KalmanState(mean=np.zeros(4), covariance=np.eye(4))
        out = kf_predict(state, MODEL)
        assert np.trace(out.covariance) > np.trace(state.covariance)

    def test_covariance_stays_symmetric(self):
        state = KalmanState(mean=np.zeros(4), covariance=np.diag([1.0, 2.0, 3.0, 4.0]))
        for _ in range(50):
            state = kf_predict(state, MODEL)
        assert np.max(np.abs(state.covariance - state.covariance.T)) < 1e-9


class TestUpdate:
    def test_zero_innovation_keeps_mean(self):
        state = KalmanState(mean=np.array([3.0, 1.0, 2.0, -1.0]), covariance=np.eye(4))
        out = kf_update(state, MODEL, state.mean.copy())
        assert np.allclose(out.mean, state.mean, atol=1e-12)

    def test_tiny_measurement_noise_pulls_to_measurement(self):
        model = CvModel(sigma_x=1e-6, sigma_y=1e-6, sigma_vx=1e-6, sigma_vy=1e-6)
        state = KalmanState(mean=np.zeros(4), covariance=np.eye(4))
        z = np.array([2.0, -1.0, 4.0, 0.5])
        out = kf_update(state, model, z)
        assert np.allclose(out.mean, z, atol=1e-9)

    def test_scalar_case_matches_closed_form(self):
        # project onto the x coordinate: gain = P/(P+R)
        prior_var, meas_var = 2.0, 0.5
        state = KalmanState(
            mean=np.array([1.0, 0.0, 0.0, 0.0]),
            covariance=np.diag([prior_var, 1e-12, 1e-12, 1e-12]),
        )
        model = CvModel(sigma_x=np.sqrt(meas_var), sigma_y=1e-6, sigma_vx=1e-6, sigma_vy=1e-6)
        z = np.array([3.0, 0.0, 0.0, 0.0])
        out = kf_update(state, model, z)
        gain = prior_var / (prior_var + meas_var)
        assert out.mean[0] == pytest.approx(1.0 + gain * 2.0, rel=1e-9)
        assert out.covariance[0, 0] == pytest.approx((1 - gain) * prior_var, rel=1e-6)

    def test_joseph_form_symmetry_through_sequence(self):
        rng = np.random.default_rng(0)
        state = KalmanState(mean=np.array([10.0, 0.0, 5.0, 0.0]), covariance=MODEL.initial_covariance)
        for _ in range(100):
            state = kf_predict(state, MODEL)
            state = kf_update(state, MODEL, rng.standard_normal(4) * 5)
        asym = np.max(np.abs(state.covariance - state.covariance.T))
        assert asym < 1e-9
        assert np.all(np.diag(state.covariance) >= 0)


class TestForecast:
    def test_noiseless_cv_track_exact(self):
        x0, y0, vx, vy = 40.0, -1.5, 6.0, 0.3
        frames = cv_frames(30, x0, y0, vx, vy)
        forecast = kf_forecast(frames, MODEL, horizon=10, grid=GRID)
        t_last = 29 * FRAME_DT
        expected = []
        for j in range(1, 11):
            x = x0 + vx * (t_last + 0.2 * j)
            y = y0 + vy * (t_last + 0.2 * j)
            expected.append(ogm.flatten(ogm.quantize(x, y, GRID), GRID))
        assert forecast == expected

    def test_mean_position_error_machine_precision(self):
        x0, y0, vx, vy = 40.0, -1.5, 6.0, 0.3
        frames = cv_frames(30, x0, y0, vx, vy)
        means, _ = kf_filter_rows(frames[None], MODEL)
        t_last = 29 * FRAME_DT
        assert np.allclose(means[0], [x0 + vx * t_last, y0 + vy * t_last, vx, vy], atol=1e-9)

    def test_track_exiting_range_goes_out_of_map(self):
        # last observation at 174.5 m; forecast positions cross 180 m mid-horizon
        frames = cv_frames(30, 160.0, 0.0, 5.0, 0.0)
        forecast = kf_forecast(frames, MODEL, horizon=10, grid=GRID)
        assert forecast[-1] == 757
        assert forecast[0] != 757

    def test_forecast_length_default(self):
        frames = cv_frames(30, 50.0, 0.0, 0.0, 0.0)
        assert len(kf_forecast(frames, MODEL, horizon=10, grid=GRID)) == 10

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        frames = cv_frames(30, 50.0, 1.0, 3.0, -0.2) + rng.standard_normal((30, 6)) * 0.1
        a = kf_forecast(frames, MODEL, 10, GRID)
        b = kf_forecast(frames, MODEL, 10, GRID)
        assert a == b

    def test_window_shape_validated(self):
        with pytest.raises(ValueError):
            kf_forecast(np.zeros((0, 6)), MODEL)
        with pytest.raises(ValueError):
            kf_forecast(np.zeros((10, 5)), MODEL)


def noisy_windows(n, m=30, seed=0):
    """n straight-line tracks with sensor noise, some leaving the grid."""
    rng = np.random.default_rng(seed)
    starts = rng.uniform([-10.0, -9.0, -15.0, -1.0], [185.0, 9.0, 15.0, 1.0], size=(n, 4))
    windows = np.stack([cv_frames(m, *row) for row in starts])
    return windows + rng.standard_normal(windows.shape) * [0.0, 0.0, 0.5, 0.2, 0.5, 0.5]


def chain_filter(obs, model):
    state = KalmanState(mean=obs[0, 2:6], covariance=model.initial_covariance)
    for z in obs[1:, 2:6]:
        state = kf_update(kf_predict(state, model), model, z)
    return state


class TestRows:
    def test_rows_bit_identical_to_single_rows(self):
        windows = noisy_windows(37)
        means, cov = kf_filter_rows(windows, MODEL)
        forecasts = kf_forecast_rows(windows, MODEL, 10, GRID)
        assert forecasts.shape == (37, 10)
        for n, obs in enumerate(windows):
            single_means, single_cov = kf_filter_rows(obs[None], MODEL)
            assert np.array_equal(means[n], single_means[0])
            assert np.array_equal(cov, single_cov)
            assert forecasts[n].tolist() == kf_forecast(obs, MODEL, 10, GRID)

    @pytest.mark.parametrize("m", [1, 2, 30])
    def test_rows_match_predict_update_chain(self, m):
        windows = noisy_windows(25, m=m, seed=m)
        means, cov = kf_filter_rows(windows, MODEL)
        for n, obs in enumerate(windows):
            chain = chain_filter(obs, MODEL)
            assert np.max(np.abs(means[n] - chain.mean)) <= 1e-12
            # the covariance recursion is the chain's, operation for operation
            assert np.array_equal(cov, chain.covariance)

    def test_forecast_extrapolates_the_filtered_means(self):
        windows = noisy_windows(9, seed=4)
        means, _ = kf_filter_rows(windows, MODEL)
        forecasts = kf_forecast_rows(windows, MODEL, 10, GRID)
        for n in range(9):
            state = KalmanState(mean=means[n], covariance=np.eye(4))
            expected = []
            for _ in range(10):
                state = kf_predict(kf_predict(state, MODEL), MODEL)
                expected.append(ogm.flatten(ogm.quantize(*state.mean[:2], GRID), GRID))
            assert forecasts[n].tolist() == expected

    @pytest.mark.parametrize("window_shape", [(10, 5), (0, 6), (10, 7)])
    def test_window_shape_message_shared_with_single_window(self, window_shape):
        with pytest.raises(ValueError) as single:
            kf_forecast(np.zeros(window_shape), MODEL)
        with pytest.raises(ValueError) as rows:
            kf_filter_rows(np.zeros((3, *window_shape)), MODEL)
        assert str(rows.value) == str(single.value) == f"expected an (M, 6) observation window, got {window_shape}"
        with pytest.raises(ValueError, match="expected an"):
            kf_forecast_rows(np.zeros((3, *window_shape)), MODEL, 10, GRID)

    def test_rows_need_three_dimensions(self):
        with pytest.raises(ValueError, match=r"expected \(N, M, 6\) observation windows, got \(30, 6\)"):
            kf_filter_rows(np.zeros((30, 6)), MODEL)


def dense_times_rows(mat, rows):
    """mat @ row for every row, broadcast and summed by numpy."""
    return (rows[:, None, :] * mat).sum(-1)


def dense_filter_rows(windows, model):
    """The filter with the dense 4x4 transition and gain products."""
    gains, _ = gain_schedule(model, windows.shape[1])
    z = windows[:, :, 2:6]
    mean = z[:, 0].copy()
    for t, gain in enumerate(gains, start=1):
        predicted = dense_times_rows(model.transition, mean)
        mean = predicted + dense_times_rows(gain, z[:, t] - predicted)
    return mean


def dense_forecast_positions(windows, model, horizon):
    mean = dense_filter_rows(windows, model)
    positions = np.empty((len(mean), horizon, 2))
    for j in range(horizon):
        for _ in range(LABEL_STRIDE):
            mean = dense_times_rows(model.transition, mean)
        positions[:, j] = mean[:, :2]
    return positions


@st.composite
def cv_models(draw):
    """A CvModel with every field drawn, sigma_a 0 among them."""
    positive = st.floats(0.01, 10.0)
    return CvModel(
        sigma_a=draw(st.sampled_from([0.0, 0.3, 2.0, 9.0])),
        sigma_x=draw(positive),
        sigma_y=draw(positive),
        sigma_vx=draw(positive),
        sigma_vy=draw(positive),
        init_pos_var=draw(positive),
        init_vel_var=draw(positive),
    )


@st.composite
def filter_cases(draw):
    """Finite (N, M, 6) windows of noisy straight tracks over +-200 m, about
    half of the velocity components exactly 0 and the rest of either sign,
    with a CvModel whose fields are drawn too (sigma_a may be 0)."""
    n, m = draw(st.integers(1, 50)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    start = rng.uniform(-200.0, 200.0, size=(n, 1, 2))
    velocity = rng.uniform(-30.0, 30.0, size=(n, 1, 2)) * rng.integers(0, 2, size=(n, 1, 2))
    windows = np.zeros((n, m, 6))
    windows[:, :, 2:4] = start + velocity * (FRAME_DT * np.arange(m))[:, None]
    windows[:, :, 4:6] = velocity
    noise = draw(st.sampled_from([0.0, 0.01, 0.5, 20.0]))
    windows[:, :, 2:6] += rng.normal(0.0, noise, size=(n, m, 4))
    windows[:, :, 2:4] = np.clip(windows[:, :, 2:4], -200.0, 200.0)
    return windows, draw(cv_models()), draw(st.integers(1, 12))


@settings(max_examples=60, deadline=None)
@given(filter_cases())
def test_two_term_step_equals_the_dense_recursion(case):
    """The two-term transition and the written-out gain sums give the bits
    of the dense broadcast-and-sum recursion, and each row those of its own
    one-row call. np.array_equal treats -0.0 and 0.0 as equal: adding the
    dense product's exact zeros (x*1 + y*0 + ...) can flip only the sign of
    a zero, which no later step and no quantized class can tell apart."""
    windows, model, horizon = case
    means, _ = kf_filter_rows(windows, model)
    assert np.array_equal(means, dense_filter_rows(windows, model))
    # the forecast positions themselves, as they reach the quantizer
    quantized, quantize = [], ogm.position_classes
    with mock.patch.object(ogm, "position_classes", side_effect=lambda xy, grid: quantized.append(xy) or quantize(xy, grid)):
        forecasts = kf_forecast_rows(windows, model, horizon, GRID)
    positions = dense_forecast_positions(windows, model, horizon)
    assert len(quantized) == 1 and np.array_equal(quantized[0], positions)
    assert np.array_equal(forecasts, quantize(positions, GRID))
    for n, obs in enumerate(windows):
        assert np.array_equal(kf_filter_rows(obs[None], model)[0][0], means[n])
        assert kf_forecast(obs, model, horizon, GRID) == forecasts[n].tolist()


class TestScheduleMemo:
    """gain_schedule is computed once per (model, length) in a process and
    handed out read-only; a failing recursion is not kept."""

    @settings(max_examples=60, deadline=None)
    @given(cv_models(), st.integers(1, 60))
    def test_memo_equals_the_recursion_read_only(self, model, length):
        gains, cov = gain_schedule(model, length)
        ref_gains, ref_cov = gain_schedule.__wrapped__(model, length)
        assert gains.shape == (length - 1, 4, 4)
        assert np.array_equal(gains, ref_gains) and np.array_equal(cov, ref_cov)
        for array in (gains, cov):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0
        # an equal model built anew is the same key
        hits = gain_schedule.cache_info().hits
        again = gain_schedule(dataclasses.replace(model), length)
        assert gain_schedule.cache_info().hits == hits + 1
        assert again[0] is gains and again[1] is cov
        # the filter hands out the shared covariance, still read-only
        assert kf_filter_rows(np.zeros((2, length, 6)), model)[1] is cov

    @pytest.mark.parametrize(
        "model, message",
        [
            (CvModel(init_vel_var=1e308), "innovation covariance is singular at frame 1"),
            (CvModel(sigma_vx=1.3e154, init_vel_var=1e308), "Kalman covariance overflows over 30 frames"),
        ],
    )
    def test_failing_recursion_raises_on_every_call(self, model, message):
        size = gain_schedule.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                gain_schedule(model, 30)
            with pytest.raises(ValueError, match=message):
                kf_forecast_rows(noisy_windows(3), model, 10, GRID)
        assert gain_schedule.cache_info().currsize == size


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_first_non_finite_measurement_named(self, bad):
        windows = noisy_windows(5)
        windows[[3, 3, 4], [21, 17, 2], [2, 5, 3]] = bad
        message = r"^window 3: non-finite measurement in frame 17$"
        with pytest.raises(ValueError, match=message):
            kf_filter_rows(windows, MODEL)
        with pytest.raises(ValueError, match=message):
            kf_forecast_rows(windows, MODEL, 10, GRID)
        with pytest.raises(ValueError, match=r"^window 0: non-finite measurement in frame 17$"):
            kf_forecast(windows[3], MODEL, 10, GRID)

    def test_unmeasured_columns_are_not_read(self):
        windows = noisy_windows(4)
        blanked = windows.copy()
        blanked[:, :, :2] = np.nan
        assert np.array_equal(kf_forecast_rows(blanked, MODEL, 10, GRID), kf_forecast_rows(windows, MODEL, 10, GRID))


class TestModelValidation:
    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("sigma_a", float("nan"), "sigma_a must be finite"),
            ("sigma_x", float("inf"), "sigma_x must be finite"),
            ("sigma_a", 1e200, "sigma_a = 1e+200 overflows when squared"),
            ("sigma_vy", 1e155, "sigma_vy = 1e+155 overflows when squared"),
            ("sigma_a", -1.0, "sigma_a must be non-negative"),
            ("sigma_y", 0.0, "sigma_y must be positive"),
            ("sigma_vx", -0.5, "sigma_vx must be positive"),
            ("init_pos_var", -5.0, "init_pos_var must be positive"),
            ("init_vel_var", 0.0, "init_vel_var must be positive"),
        ],
    )
    def test_bad_field_rejected_by_name(self, field, value, message):
        with pytest.raises(ValueError, match=message.replace("+", r"\+")):
            CvModel(**{field: value})

    def test_covariance_overflow_over_the_window_rejected(self):
        # each field is in range, but the predicted covariance overflows
        model = CvModel(sigma_vx=1.3e154, init_vel_var=1e308)
        with pytest.raises(ValueError, match="Kalman covariance overflows over 30 frames"):
            kf_forecast(cv_frames(30, 40.0, 0.0, 1.0, 0.0), model, 10, GRID)

    def test_singular_innovation_covariance_rejected_naming_the_model(self):
        # beside a 1e308 velocity variance the measurement noise rounds away,
        # and the innovation covariance is rank-deficient
        model = CvModel(init_vel_var=1e308)
        with pytest.raises(ValueError, match=r"innovation covariance is singular at frame 1 for CvModel\(.*init_vel_var=1e\+308"):
            gain_schedule(model, 30)
        with pytest.raises(ValueError, match="innovation covariance is singular"):
            kf_forecast_rows(noisy_windows(3), model, 10, GRID)

    def test_zero_process_noise_accepted(self):
        frames = cv_frames(30, 40.0, -1.5, 6.0, 0.3)
        assert len(kf_forecast(frames, CvModel(sigma_a=0.0), 10, GRID)) == 10


def test_noise_matrices_psd():
    q = MODEL.process_noise
    r = MODEL.measurement_noise
    assert np.all(np.linalg.eigvalsh(q) >= -1e-12)
    assert np.all(np.linalg.eigvalsh(r) > 0)


class TestCadence:
    """The forecast steps at the label cadence: LABEL_STRIDE predictions of
    FRAME_DT each per output step, as crop_windows takes every LABEL_STRIDE-th
    frame as a label."""

    @pytest.mark.parametrize(
        "x0,y0,vx,vy", [(6.37, -5.9, 26.3, 0.93), (176.2, 3.1, -27.7, -1.37), (3.4, -8.3, 27.9, 2.71)]
    )
    def test_noiseless_forecast_equals_cropped_labels(self, x0, y0, vx, vy):
        obs_len, horizon = 30, 10
        windows, too_short = training.crop_windows([cv_frames(62, x0, y0, vx, vy)], obs_len, horizon, GRID)
        assert too_short == 0
        forecasts = kf_forecast_rows(np.stack([w.inputs for w in windows]), MODEL, horizon, GRID)
        labels = np.stack([w.labels for w in windows])
        # the track stays in map and crosses a 5 m cell row at every step, so
        # a cadence one frame off moves some forecast to another cell
        assert (labels != GRID.out_of_map_class).all() and (np.diff(labels, axis=1) != 0).all()
        assert np.array_equal(forecasts, labels)
