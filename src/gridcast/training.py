"""End-to-end teacher-forced training of the encoder-decoder.

The loss is the negative log likelihood of the ground-truth grid classes
under the decoder's per-step softmax,

    L = - sum_j sum_delta ln z[j, delta, label(j, delta)],

reported and optimized as the mean over (example, step) pairs so traces are
comparable across batch sizes. Training decodes with teacher forcing: the
input at step delta is the true label of step delta-1 (the dummy start input
at step 1); beam feedback is inference-only.

Gradients are exact backpropagation through time across the decoder, both
LSTM stacks, the dense layers, and the embedding matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import nn, ogm
from .seq2seq import (
    LABEL_STRIDE,
    NUM_FEATURES,
    ModelConfig,
    ModelParams,
    decoder_initial_state,
    decode_core,
    embed_tokens,
    encode_core,
    init_model_params,
    start_input,
    token_embed_columns,
)

if TYPE_CHECKING:
    from concurrent.futures import Executor

__all__ = [
    "TrainConfig",
    "TrainingExample",
    "AdamState",
    "TrainingDiverged",
    "window_count",
    "crop_window_arrays",
    "crop_windows",
    "fit_normalizer",
    "nll_loss",
    "adam_step",
    "clip_gradients",
    "lr_on_plateau",
    "layout",
    "train",
    "TrainResult",
]


@dataclass(frozen=True)
class TrainConfig:
    lr0: float = 0.0008
    batch_size: int = 256
    max_epochs: int = 100
    plateau_patience: int = 3
    plateau_min_delta: float = 1e-3  # relative improvement threshold
    early_stop_patience: int = 5
    grad_clip_norm: float = 5.0
    seed: int = 0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    # optional stop once validation NLL reaches this (memorization runs)
    target_val_nll: float | None = None

    def __post_init__(self) -> None:
        if self.lr0 <= 0 or self.batch_size < 1:
            raise ValueError("lr0 must be positive and batch_size >= 1")


@dataclass
class TrainingExample:
    """One training window: obs_len frames of inputs, FRAME_DT apart, and
    horizon flat class labels, LABEL_STRIDE frames apart."""

    inputs: np.ndarray  # (obs_len, 6)
    labels: np.ndarray  # (horizon,) int, 1..num_classes


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; .best_params/.trace hold the last good state."""

    def __init__(self, message: str, best_params: ModelParams | None, trace: list):
        super().__init__(message)
        self.best_params = best_params
        self.trace = trace


def window_count(frames: int, obs_len: int, horizon: int) -> int:
    """How many stride-1 windows of obs_len frames plus horizon labels a
    record of this many frames holds; 0 for a record too short for one."""
    return max(0, frames - (obs_len + LABEL_STRIDE * horizon) + 1)


def crop_window_arrays(
    records, obs_len: int, horizon: int, grid: ogm.GridSpec
) -> tuple[np.ndarray, np.ndarray, int]:
    """Every stride-1 window of obs_len frames plus horizon labels from each
    record (anything with a .frames (F, 6) array, or the array itself), in
    record order: the (N, obs_len, 6) inputs, the (N, horizon) int labels
    and the count of records too short for a single window.

    Labels are the quantized positions of every LABEL_STRIDE-th frame;
    targets outside sensor validity become the out-of-map class and are
    kept. Only label frames are quantized.
    """
    frames = [np.asarray(getattr(rec, "frames", rec), dtype=np.float64) for rec in records]
    counts = np.array([window_count(f.shape[0], obs_len, horizon) for f in frames], dtype=np.int64)
    kept = [f for f, count in zip(frames, counts) if count]
    if not kept:
        return np.empty((0, obs_len, NUM_FEATURES)), np.empty((0, horizon), dtype=np.int64), len(frames)
    counts = counts[counts > 0]
    # window n of the kept records starts at frame n of their concatenation,
    # shifted past the frames that start no window in the records before it
    idle = np.array([f.shape[0] for f in kept]) - counts
    starts = np.arange(counts.sum()) + np.repeat(np.cumsum(idle) - idle, counts)
    stacked = np.concatenate(kept)
    inputs = stacked[starts[:, None] + np.arange(obs_len)]
    # window s labels frame obs_len - 1 + s + LABEL_STRIDE * (j + 1)
    label_frames = starts[:, None] + (obs_len - 1 + LABEL_STRIDE * np.arange(1, horizon + 1))
    labels = ogm.position_classes(stacked[label_frames, 2:4], grid)
    return inputs, labels, len(frames) - len(kept)


def crop_windows(records, obs_len: int, horizon: int, grid: ogm.GridSpec) -> tuple[list[TrainingExample], int]:
    """crop_window_arrays as one TrainingExample per window: (examples,
    count of records too short for a single window)."""
    inputs, labels, skipped = crop_window_arrays(records, obs_len, horizon, grid)
    return [TrainingExample(inputs=x, labels=y) for x, y in zip(inputs, labels)], skipped


def fit_normalizer(params: ModelParams, examples: list[TrainingExample]) -> None:
    """Set the per-feature standardization stats from the training inputs."""
    stacked = np.concatenate([ex.inputs for ex in examples], axis=0)
    params.feat_mean[...] = stacked.mean(axis=0)
    params.feat_std[...] = np.maximum(stacked.std(axis=0), 1e-8)


def _batch_arrays(examples: list[TrainingExample]) -> tuple[np.ndarray, np.ndarray]:
    inputs = np.stack([ex.inputs for ex in examples])
    labels = np.stack([ex.labels for ex in examples])
    return inputs, labels


def nll_loss(
    params: ModelParams,
    examples: list[TrainingExample],
    with_grads: bool = True,
    batch_rows: int | None = None,
) -> tuple[float, dict[str, np.ndarray] | None]:
    """Mean per-(example, step) NLL of the labels under teacher forcing,
    with exact gradients for every trainable tensor.

    batch_rows, when given, is the example count to normalise by instead of
    len(examples): the examples are then one shard of a batch of that many,
    and the shards' losses and gradients add up to the batch's."""
    cfg = params.config
    inputs, labels = _batch_arrays(examples)
    batch, horizon = labels.shape
    if inputs.shape[1] != cfg.obs_len or horizon != cfg.horizon:
        raise ValueError("examples do not match the model's obs_len/horizon")
    if np.any((labels < 1) | (labels > cfg.num_classes)):
        raise ValueError(f"labels must lie in 1..{cfg.num_classes}")

    summary, enc_tapes = encode_core(params, inputs, with_tapes=with_grads)
    state = decoder_initial_state(params, summary)

    dec_tapes = []
    log_probs = []  # per step, (B, Q) log-softmax
    loss_sum = 0.0
    denom = (batch if batch_rows is None else batch_rows) * horizon
    for step in range(horizon):
        u = start_input(params, batch) if step == 0 else embed_tokens(params, labels[:, step - 1])
        logits, state, tapes = decode_core(params, state, u, with_tapes=with_grads)
        lp = nn.log_softmax(logits)
        loss_sum -= float(lp[np.arange(batch), labels[:, step] - 1].sum())
        if with_grads:
            dec_tapes.append(tapes)
            log_probs.append(lp)
    loss = loss_sum / denom
    if not with_grads:
        return loss, None
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite training loss")

    grads = params.zero_grads()

    # decoder backward, newest step first
    depth = len(params.dec_lstm)
    dstate = [(np.zeros_like(s.c), np.zeros_like(s.h)) for s in state]
    for step in range(horizon - 1, -1, -1):
        dlogits = np.exp(log_probs[step])
        dlogits[np.arange(batch), labels[:, step] - 1] -= 1.0
        dlogits /= denom
        g = dlogits
        for k in range(len(params.dec_fc) - 1, -1, -1):
            fc_grads, g = nn.dense_backward(params.dec_fc[k], dec_tapes[step].fc[k], g)
            grads[f"dec_fc{k}.weight"] += fc_grads["weight"]
            grads[f"dec_fc{k}.bias"] += fc_grads["bias"]
        # g is now the gradient wrt the top decoder LSTM's h at this step
        for k in range(depth - 1, -1, -1):
            dc, dh = dstate[k]
            dh = dh + g
            cell_grads, grad_prev, grad_u = nn.lstm_backward(
                params.dec_lstm[k], dec_tapes[step].lstm[k], dc, dh
            )
            grads[f"dec_lstm{k}.w_u"] += cell_grads["w_u"]
            grads[f"dec_lstm{k}.w_h"] += cell_grads["w_h"]
            grads[f"dec_lstm{k}.b"] += cell_grads["b"]
            dstate[k] = (grad_prev.c, grad_prev.h)
            g = grad_u  # feeds layer below (same step), or the embedding
        if step:  # later steps embedded the previous step's label
            half = cfg.embed_dim_per_axis
            wc, lc = token_embed_columns(labels[:, step - 1], cfg)
            np.add.at(grads["embed_w"].T, wc, g[:, :half])
            np.add.at(grads["embed_l"].T, lc, g[:, half:])

    # decoder initial states came from the encoder summary
    estate = []
    for k in range(depth):
        dc, dh = dstate[k]
        if not cfg.copy_hidden_state:
            dh = np.zeros_like(dh)
        estate.append((dc, dh))

    # encoder backward across the observation window
    for t in range(cfg.obs_len - 1, -1, -1):
        g = None  # gradient flowing into layer k's h from layer k+1's input
        for k in range(len(params.enc_lstm) - 1, -1, -1):
            dc, dh = estate[k]
            if g is not None:
                dh = dh + g
            cell_grads, grad_prev, grad_u = nn.lstm_backward(
                params.enc_lstm[k], enc_tapes.lstm[t][k], dc, dh
            )
            grads[f"enc_lstm{k}.w_u"] += cell_grads["w_u"]
            grads[f"enc_lstm{k}.w_h"] += cell_grads["w_h"]
            grads[f"enc_lstm{k}.b"] += cell_grads["b"]
            estate[k] = (grad_prev.c, grad_prev.h)
            g = grad_u
        for k in range(len(params.enc_fc) - 1, -1, -1):
            fc_grads, g = nn.dense_backward(params.enc_fc[k], enc_tapes.fc[t][k], g)
            grads[f"enc_fc{k}.weight"] += fc_grads["weight"]
            grads[f"enc_fc{k}.bias"] += fc_grads["bias"]
        # gradient wrt normalized inputs is discarded (normalizer is frozen)
    return loss, grads


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    """Per-tensor first/second moment estimates and the step counter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        return cls(
            m={name: np.zeros_like(a) for name, a in params.param_items()},
            v={name: np.zeros_like(a) for name, a in params.param_items()},
        )


def adam_step(
    state: AdamState,
    params: ModelParams,
    grads: dict[str, np.ndarray],
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[ModelParams, AdamState]:
    """Bias-corrected moment update, applied in place."""
    state.t += 1
    t = state.t
    for name, p in params.param_items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for {name}")
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return params, state


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients in place so the global L2 norm is <= max_norm;
    returns the pre-clip norm."""
    total = 0.0
    for name in sorted(grads):
        total += float(np.sum(grads[name] ** 2))
    norm = float(np.sqrt(total))
    if norm > max_norm:
        scale = max_norm / norm
        for name in grads:
            grads[name] *= scale
    return norm


def lr_on_plateau(history: list[float], lr: float, config: TrainConfig) -> float:
    """Halve the rate when the newest evaluation completes a run of
    plateau_patience evaluations without a relative improvement over the
    running best exceeding plateau_min_delta."""
    if not history:
        raise ValueError("history must be nonempty")
    best = history[0]
    streak = 0
    halved_at = -1
    for idx, value in enumerate(history[1:], start=1):
        if value < best * (1.0 - config.plateau_min_delta):
            best = value
            streak = 0
        else:
            streak += 1
            if streak == config.plateau_patience:
                halved_at = idx
                streak = 0
    return lr / 2.0 if halved_at == len(history) - 1 else lr


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    params: ModelParams  # best-validation parameters
    trace: list[tuple[int, float, float, float]] = field(default_factory=list)
    best_val_nll: float = np.inf
    stop_reason: str = ""
    # every training batch's gradient norm before clipping, in order
    grad_norms: list[float] = field(default_factory=list)

    def trace_csv(self) -> str:
        lines = ["epoch,train_nll,val_nll,lr"]
        for epoch, train_nll, val_nll, lr in self.trace:
            lines.append(f"{epoch},{train_nll!r},{val_nll!r},{lr!r}")
        return "\n".join(lines) + "\n"


def layout() -> str:
    """How train() runs its batches, in words, as `gridcast train` prints it."""
    if nn.row_shards() == 1:
        return "whole batches on the calling thread"
    return "2 row shards, the second on a worker thread"


def _batch_nll(
    params: ModelParams, examples: list[TrainingExample], pool: Executor | None, with_grads: bool = True
) -> tuple[float, dict[str, np.ndarray] | None]:
    """nll_loss of one batch over the row shards of nn.map_shards (the whole
    batch without a pool, else two contiguous shards on two threads), each
    normalised by the whole batch's rows, so the shards' losses and
    gradients add up to the batch's. The split is fixed, so the result does
    not depend on which thread ran a shard; two shards differ from the whole
    batch in summation order only."""
    parts = nn.map_shards(lambda shard: nll_loss(params, shard, with_grads, len(examples)), examples, pool)
    loss, grads = parts[0]
    for shard_loss, shard_grads in parts[1:]:
        loss += shard_loss
        if grads is not None:
            for name, g in grads.items():
                g += shard_grads[name]
    return loss, grads


def _dataset_nll(params: ModelParams, examples: list[TrainingExample], batch_size: int, pool: Executor | None) -> float:
    total = 0.0
    count = 0
    for s in range(0, len(examples), batch_size):
        chunk = examples[s : s + batch_size]
        loss, _ = _batch_nll(params, chunk, pool, with_grads=False)
        total += loss * len(chunk)
        count += len(chunk)
    return total / count


def train(
    config: ModelConfig,
    train_set: list[TrainingExample],
    val_set: list[TrainingExample],
    tconfig: TrainConfig = TrainConfig(),
    on_epoch=None,
) -> TrainResult:
    """Seeded mini-batch training with gradient clipping, plateau LR halving,
    and early stopping on the validation NLL; returns the best-validation
    parameters, the per-epoch (epoch, train_nll, val_nll, lr) trace and
    every batch's pre-clip gradient norm.

    on_epoch, when given, is called after every evaluation as
    on_epoch(epoch, train_nll, val_nll, lr, params, is_best).

    Batches run as nn.row_shards() shards (see layout()); with 2, every
    second shard runs on one worker thread, joined before train returns or
    raises."""
    if not train_set or not val_set:
        raise ValueError("train and validation sets must be nonempty")
    with nn.shard_pool() as pool:
        rng = np.random.default_rng(tconfig.seed)
        params = init_model_params(config, rng)
        fit_normalizer(params, train_set)
        adam = AdamState.for_params(params)
        lr = tconfig.lr0

        val_history: list[float] = []
        trace: list[tuple[int, float, float, float]] = []
        best_val = np.inf
        best_params = params.copy()
        evals_since_improvement = 0
        grad_norms: list[float] = []

        train_nll0 = _dataset_nll(params, train_set, tconfig.batch_size, pool)
        val_nll = _dataset_nll(params, val_set, tconfig.batch_size, pool)
        val_history.append(val_nll)
        trace.append((0, train_nll0, val_nll, lr))
        if val_nll < best_val:
            best_val = val_nll
            best_params = params.copy()
        if on_epoch is not None:
            on_epoch(0, train_nll0, val_nll, lr, params, True)

        stop_reason = "max_epochs"
        for epoch in range(1, tconfig.max_epochs + 1):
            order = rng.permutation(len(train_set))
            epoch_loss = 0.0
            seen = 0
            for s in range(0, len(order), tconfig.batch_size):
                batch = [train_set[i] for i in order[s : s + tconfig.batch_size]]
                try:
                    loss, grads = _batch_nll(params, batch, pool)
                except FloatingPointError as exc:
                    raise TrainingDiverged(str(exc), best_params, trace) from exc
                grad_norms.append(clip_gradients(grads, tconfig.grad_clip_norm))
                adam_step(adam, params, grads, lr, tconfig.adam_beta1, tconfig.adam_beta2, tconfig.adam_eps)
                epoch_loss += loss * len(batch)
                seen += len(batch)

            val_nll = _dataset_nll(params, val_set, tconfig.batch_size, pool)
            if not np.isfinite(val_nll):
                raise TrainingDiverged("non-finite validation loss", best_params, trace)
            val_history.append(val_nll)
            trace.append((epoch, epoch_loss / seen, val_nll, lr))

            is_best = val_nll < best_val
            if is_best:
                best_params = params.copy()
            if val_nll < best_val * (1.0 - tconfig.plateau_min_delta):
                evals_since_improvement = 0
            else:
                evals_since_improvement += 1
            best_val = min(best_val, val_nll)
            if on_epoch is not None:
                on_epoch(epoch, epoch_loss / seen, val_nll, lr, params, is_best)

            lr = lr_on_plateau(val_history, lr, tconfig)
            if tconfig.target_val_nll is not None and val_nll <= tconfig.target_val_nll:
                stop_reason = "target_reached"
                break
            if evals_since_improvement >= tconfig.early_stop_patience:
                stop_reason = "early_stop"
                break

        return TrainResult(
            params=best_params, trace=trace, best_val_nll=best_val, stop_reason=stop_reason, grad_norms=grad_norms
        )
