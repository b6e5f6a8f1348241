"""Kalman filter with a constant-velocity motion model, the single-hypothesis
forecasting baseline.

State is (x, y, vx, vy) in the ego-relative frame; the sensor provides all
four components, so the measurement map is the identity. The filter runs
predict+update over the observation window, then extrapolates by pure
prediction, quantizing the mean position onto the grid at the label cadence.

The covariance and gain recursion never reads a measurement, so all windows
of one length share one gain schedule, computed once per process for each
(model, length) and handed out read-only; only the means differ, and they
are filtered together, N windows at once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from . import ogm
from .seq2seq import FRAME_DT, LABEL_STRIDE

__all__ = [
    "KalmanState",
    "CvModel",
    "kf_predict",
    "kf_update",
    "gain_schedule",
    "kf_filter_rows",
    "kf_forecast_rows",
    "kf_forecast",
]


@dataclass(frozen=True)
class CvModel:
    """Constant-velocity dynamics at the FRAME_DT frame period plus the noise
    magnitudes (these are tuning parameters, exposed in the run config)."""

    sigma_a: float = 2.0  # process acceleration, m/s^2
    sigma_x: float = 0.5  # measurement noise stds
    sigma_y: float = 0.2
    sigma_vx: float = 0.5
    sigma_vy: float = 0.5
    init_pos_var: float = 1.0
    init_vel_var: float = 4.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
            # only the process noise may vanish: zero measurement noise lets
            # the innovation covariance turn singular
            if f.name == "sigma_a" and value < 0:
                raise ValueError(f"sigma_a must be non-negative, got {value}")
            if f.name != "sigma_a" and value <= 0:
                raise ValueError(f"{f.name} must be positive, got {value}")
            if f.name.startswith("sigma_") and not math.isfinite(value * value):
                raise ValueError(f"{f.name} = {value} overflows when squared")

    @property
    def transition(self) -> np.ndarray:
        f = np.eye(4)
        f[0, 2] = f[1, 3] = FRAME_DT
        return f

    @property
    def process_noise(self) -> np.ndarray:
        # white-acceleration (piecewise constant) process noise
        q_pos = FRAME_DT**4 / 4.0
        q_cross = FRAME_DT**3 / 2.0
        q_vel = FRAME_DT**2
        q = np.array(
            [
                [q_pos, 0.0, q_cross, 0.0],
                [0.0, q_pos, 0.0, q_cross],
                [q_cross, 0.0, q_vel, 0.0],
                [0.0, q_cross, 0.0, q_vel],
            ]
        )
        return self.sigma_a**2 * q

    @property
    def measurement_noise(self) -> np.ndarray:
        return np.diag([self.sigma_x**2, self.sigma_y**2, self.sigma_vx**2, self.sigma_vy**2])

    @property
    def initial_covariance(self) -> np.ndarray:
        return np.diag([self.init_pos_var, self.init_pos_var, self.init_vel_var, self.init_vel_var])


@dataclass
class KalmanState:
    mean: np.ndarray  # (x, y, vx, vy)
    covariance: np.ndarray  # (4, 4), symmetric PSD

    def __post_init__(self) -> None:
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.covariance = np.asarray(self.covariance, dtype=np.float64)
        if self.mean.shape != (4,) or self.covariance.shape != (4, 4):
            raise ValueError("state is a 4-vector with a 4x4 covariance")


def _predicted_covariance(cov: np.ndarray, f: np.ndarray, q: np.ndarray) -> np.ndarray:
    return f @ cov @ f.T + q


def _gain(cov: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Kalman gain for a predicted covariance; LinAlgError if singular."""
    s = cov + r
    return np.linalg.solve(s.T, cov.T).T


def _updated_covariance(cov: np.ndarray, gain: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Joseph form, which keeps the covariance symmetric."""
    ikh = np.eye(4) - gain
    return ikh @ cov @ ikh.T + gain @ r @ gain.T


def kf_predict(state: KalmanState, model: CvModel) -> KalmanState:
    f = model.transition
    return KalmanState(mean=f @ state.mean, covariance=_predicted_covariance(state.covariance, f, model.process_noise))


def kf_update(state: KalmanState, model: CvModel, z: np.ndarray) -> KalmanState:
    """Measurement correction; Joseph-form covariance update for symmetry."""
    z = np.asarray(z, dtype=np.float64)
    r = model.measurement_noise
    gain = _gain(state.covariance, r)
    mean = state.mean + gain @ (z - state.mean)
    return KalmanState(mean=mean, covariance=_updated_covariance(state.covariance, gain, r))


# gain schedules kept per process, least recently used dropped first; a run
# uses one (its model and window length), tests a few dozen at most
SCHEDULE_CACHE_SIZE = 32


@functools.lru_cache(maxsize=SCHEDULE_CACHE_SIZE)
def gain_schedule(model: CvModel, length: int) -> tuple[np.ndarray, np.ndarray]:
    """The (length - 1, 4, 4) update gains of a length-frame window and the
    covariance after its last update, both read-only. The covariance
    recursion never reads a measurement, so every window of one length
    shares them: each (model, length) is computed once per process (equal
    models share one entry) and every caller gets the same arrays. A failing
    recursion is not kept, so it raises on every call."""
    f, q = model.transition, model.process_noise
    r = model.measurement_noise
    cov = model.initial_covariance
    gains = np.empty((length - 1, 4, 4))
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for t in range(length - 1):
            cov = _predicted_covariance(cov, f, q)
            try:
                gains[t] = _gain(cov, r)
            except np.linalg.LinAlgError:
                raise ValueError(f"Kalman innovation covariance is singular at frame {t + 1} for {model}") from None
            cov = _updated_covariance(cov, gains[t], r)
    if not (np.isfinite(gains).all() and np.isfinite(cov).all()):
        raise ValueError(f"Kalman covariance overflows over {length} frames for {model}")
    gains.flags.writeable = cov.flags.writeable = False
    return gains, cov


def _check_window_shape(shape: tuple[int, ...]) -> None:
    if len(shape) != 2 or shape[1] != 6 or shape[0] < 1:
        raise ValueError(f"expected an (M, 6) observation window, got {shape}")


def kf_filter_rows(windows: np.ndarray, model: CvModel) -> tuple[np.ndarray, np.ndarray]:
    """Filter N (M, 6) observation windows at once on the shared gain
    schedule: the (N, 4) final means and the final covariance, the
    schedule's read-only array. Measurements
    are the relative position/velocity features (columns 2..5); a
    non-finite one is a ValueError naming its window and frame."""
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 3:
        raise ValueError(f"expected (N, M, 6) observation windows, got {windows.shape}")
    _check_window_shape(windows.shape[1:])
    finite = np.isfinite(windows[:, :, 2:6]).all(axis=2)
    if not finite.all():
        n, t = np.unravel_index(np.flatnonzero(~finite)[0], finite.shape)
        raise ValueError(f"window {n}: non-finite measurement in frame {t}")
    gains, cov = gain_schedule(model, windows.shape[1])
    # the means are filtered as (4, N) columns, so that each term below is
    # one contiguous run of N values
    z = windows[:, :, 2:6].transpose(1, 2, 0)
    mean = z[0].copy()
    position, velocity = mean[:2], mean[2:]
    for z_t, gain_t in zip(z[1:], gains.transpose(0, 2, 1)[..., None]):
        # x += FRAME_DT*vx and y += FRAME_DT*vy are the transition's only
        # terms that are not 0 or 1: the dense product less its additions of
        # exact zeros, which could change no more than the sign of a zero
        position += FRAME_DT * velocity
        # terms[j, i] = innovation[j] * gain[i, j]; the measurement map is
        # the identity, so the innovation is z - prediction
        terms = (z_t - mean)[:, None] * gain_t
        # the order of a length-4 numpy sum, so each row gets the bits of
        # (innovation[:, None, :] * gain).sum(-1) whatever the row count
        mean += ((terms[0] + terms[1]) + terms[2]) + terms[3]
    return mean.T.copy(), cov


def kf_forecast_rows(
    windows: np.ndarray, model: CvModel, horizon: int, grid: ogm.GridSpec
) -> np.ndarray:
    """Filter N windows, then extrapolate their means: LABEL_STRIDE frame
    predictions per output step, the label cadence, each mean position
    quantized to a flat class. Returns (N, horizon) class ids."""
    mean, _ = kf_filter_rows(windows, model)
    # frame k of the extrapolation is the position plus FRAME_DT * velocity
    # added k times; a running sum adds them one at a time, as k predictions do
    path = np.repeat(FRAME_DT * mean[:, None, 2:], LABEL_STRIDE * horizon + 1, axis=1)
    path[:, 0] = mean[:, :2]
    return ogm.position_classes(np.cumsum(path, axis=1)[:, LABEL_STRIDE::LABEL_STRIDE], grid)


def kf_forecast(
    obs: np.ndarray,
    model: CvModel = CvModel(),
    horizon: int = 10,
    grid: ogm.GridSpec = ogm.GridSpec(),
) -> list[int]:
    """The flat-class forecast of one (M, 6) window: kf_forecast_rows on one
    row."""
    obs = np.asarray(obs, dtype=np.float64)
    _check_window_shape(obs.shape)
    return kf_forecast_rows(obs[None], model, horizon, grid)[0].tolist()
