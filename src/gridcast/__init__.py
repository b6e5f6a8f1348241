"""Multi-hypothesis vehicle trajectory forecasting on an occupancy grid.

An LSTM encoder-decoder classifies, per future time step, which grid cell a
surrounding vehicle will occupy; beam search emits the K most probable full
trajectories. Includes training, a Kalman constant-velocity baseline, a
synthetic highway data generator, and a Top-N MAE evaluation harness.
"""

from .ogm import GridCell, GridSpec, OUT_OF_MAP, cell_center, flatten, quantize, unflatten
from .seq2seq import (
    BeamHypothesis,
    CheckpointError,
    ModelConfig,
    ModelParams,
    TrajectoryPrediction,
    beam_search_decode,
    decode_step,
    encode,
    greedy_decode,
    init_model_params,
    load_checkpoint,
    predict_scene,
    save_checkpoint,
)
from .training import (
    AdamState,
    TrainConfig,
    TrainingDiverged,
    TrainingExample,
    TrainResult,
    adam_step,
    crop_windows,
    fit_normalizer,
    lr_on_plateau,
    nll_loss,
    train,
)
from .kalman import CvModel, KalmanState, kf_forecast, kf_predict, kf_update
from .datagen import ScenarioConfig, TrajectoryRecord, generate_dataset, read_dataset, write_dataset
from .metrics import EvalConfig, EvalReport, evaluate, render_report, top_omega_mae

__version__ = "0.1.0"
