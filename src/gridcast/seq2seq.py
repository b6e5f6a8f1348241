"""LSTM encoder-decoder over occupancy-grid classes, with beam-search decoding.

Encoder: per time step the 6 observation features are normalized, lifted by a
stack of ReLU dense layers to the cell dimension, then run through a stack of
LSTMs (output of each feeds the next). After the observation window the final
cell states of the encoder LSTMs seed the decoder LSTMs.

Decoder: at each future step the previous grid class (a dummy zero vector at
the first step) is embedded by concatenating one column from each of two
per-axis embedding matrices, run through the LSTM stack and dense layers, and
a softmax gives the occupancy probability over all grid classes plus
out-of-map. Beam search keeps the highest cumulative-log-probability
hypotheses; width 1 is greedy decoding.

Every computation runs on rows: encoder windows, decoder inputs and LSTM
states are batches whose rows are training examples, vehicles or beam
hypotheses, and a single vehicle is one row. Inference decodes every
hypothesis of every vehicle in a chunk as one row of a batch: one decoder
call per step over all rows. Its products are row-exact (nn._product), so
every row has the bits it has alone: a vehicle decodes to the same bits in
any batch, and replaying a hypothesis one row at a time reproduces its
cumulative log probability exactly. Training keeps the plain product.
Because of that, a scene's vehicles may also be split into two row shards
decoded on two threads (nn.row_shards) without changing a bit.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
from copy import deepcopy
from dataclasses import asdict, dataclass, field, replace
from typing import BinaryIO, Iterator

import numpy as np

from . import nn, ogm
from .nn import DenseParams, LstmParams, LstmState

__all__ = [
    "ModelConfig",
    "ModelParams",
    "EncoderSummary",
    "BeamHypothesis",
    "TrajectoryPrediction",
    "CheckpointError",
    "init_model_params",
    "encode",
    "decoder_initial_state",
    "decode_step",
    "greedy_decode",
    "beam_search_decode",
    "predict_scene",
    "greedy_scene",
    "save_checkpoint",
    "load_checkpoint",
    "write_atomic",
]

# input and output format: frames of NUM_FEATURES features every FRAME_DT
# seconds in, one grid class every LABEL_STRIDE frames (0.2 s) out
NUM_FEATURES = 6
FRAME_DT = 0.1
LABEL_STRIDE = 2

# vehicles decoded together by predict_scene and greedy_scene: bounds each
# row shard's per-step score array at DECODE_CHUNK * beam_width *
# num_classes floats
DECODE_CHUNK = 64

# rows the row-exact encoder runs through each layer at once: as many whole
# time steps of every window as fit (one at least). Bounds the per-layer
# block arrays, which for all steps at once would raise peak memory
ENCODE_BLOCK_ROWS = 256


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and decoding hyperparameters.

    Defaults: 256-dim cells, 3 dense layers on each side, 2-deep LSTM stacks,
    observation window 30 frames (3 s at 100 ms), 10 decode steps (2 s at
    0.2 s), beam width 10, over the default 36 x 21 grid (757 classes).
    The grid is part of the model: its cells plus out-of-map are the output
    classes, and checkpoints record its full geometry.
    """

    cell_dim: int = 256
    fc_depth: int = 3
    lstm_stack_depth: int = 2
    grid: ogm.GridSpec = field(default_factory=ogm.GridSpec)
    obs_len: int = 30
    horizon: int = 10
    beam_width: int = 10
    # the encoder hands its cell states to the decoder; whether its hidden
    # outputs are copied too is configurable (zeros otherwise)
    copy_hidden_state: bool = True

    def __post_init__(self) -> None:
        if self.cell_dim < 2 or self.cell_dim % 2 != 0:
            raise ValueError("cell_dim must be even (two embedding halves)")
        if self.fc_depth < 1 or self.lstm_stack_depth < 1:
            raise ValueError("layer depths must be >= 1")
        if min(self.obs_len, self.horizon, self.beam_width) < 1:
            raise ValueError("obs_len, horizon, beam_width must be >= 1")

    @property
    def num_classes(self) -> int:
        return self.grid.num_classes

    @property
    def out_of_map_class(self) -> int:
        return self.grid.out_of_map_class

    @property
    def embed_dim_per_axis(self) -> int:
        return self.cell_dim // 2

    @property
    def embed_cols_w(self) -> int:
        # one column per longitudinal index plus the out-of-map state
        return self.grid.q_w + 1

    @property
    def embed_cols_l(self) -> int:
        return self.grid.q_l + 1


@dataclass
class ModelParams:
    """All learned weights plus the feature normalizer statistics.

    The checkpoint/optimizer ordering is the order of `checkpoint_items`:
    encoder dense layers, encoder LSTMs, decoder LSTMs, decoder dense layers,
    the two embedding matrices, then the (non-trainable) normalizer stats.
    """

    config: ModelConfig
    enc_fc: list[DenseParams]
    enc_lstm: list[LstmParams]
    dec_lstm: list[LstmParams]
    dec_fc: list[DenseParams]
    embed_w: np.ndarray  # (cell_dim/2, grid.q_w+1)
    embed_l: np.ndarray  # (cell_dim/2, grid.q_l+1)
    feat_mean: np.ndarray  # (6,)
    feat_std: np.ndarray  # (6,)

    def param_items(self) -> list[tuple[str, np.ndarray]]:
        """Trainable tensors as (name, array), in the canonical order."""
        items: list[tuple[str, np.ndarray]] = []
        for i, fc in enumerate(self.enc_fc):
            items += [(f"enc_fc{i}.weight", fc.weight), (f"enc_fc{i}.bias", fc.bias)]
        for i, p in enumerate(self.enc_lstm):
            items += [(f"enc_lstm{i}.w_u", p.w_u), (f"enc_lstm{i}.w_h", p.w_h), (f"enc_lstm{i}.b", p.b)]
        for i, p in enumerate(self.dec_lstm):
            items += [(f"dec_lstm{i}.w_u", p.w_u), (f"dec_lstm{i}.w_h", p.w_h), (f"dec_lstm{i}.b", p.b)]
        for i, fc in enumerate(self.dec_fc):
            items += [(f"dec_fc{i}.weight", fc.weight), (f"dec_fc{i}.bias", fc.bias)]
        items += [("embed_w", self.embed_w), ("embed_l", self.embed_l)]
        return items

    def checkpoint_items(self) -> list[tuple[str, np.ndarray]]:
        return self.param_items() + [("feat_mean", self.feat_mean), ("feat_std", self.feat_std)]

    def zero_grads(self) -> dict[str, np.ndarray]:
        return {name: np.zeros_like(a) for name, a in self.param_items()}

    def copy(self) -> "ModelParams":
        return deepcopy(self)


def init_model_params(config: ModelConfig, seed: int | np.random.Generator = 0) -> ModelParams:
    """Fresh parameters: Glorot-uniform matrices, zero biases except LSTM
    forget gates at 1.0, normalizer at identity (mean 0, std 1)."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return _layout_params(config, rng)


def _layout_params(config: ModelConfig, rng: np.random.Generator | None) -> ModelParams:
    """Every tensor in canonical order, matrices drawn from rng in that
    order; rng None gives zero matrices without drawing random numbers."""
    c = config.cell_dim
    enc_fc = []
    in_dim = NUM_FEATURES
    for _ in range(config.fc_depth):
        enc_fc.append(nn.init_dense(rng, c, in_dim))
        in_dim = c
    enc_lstm = [nn.init_lstm(rng, c, c) for _ in range(config.lstm_stack_depth)]
    dec_lstm = [nn.init_lstm(rng, c, c) for _ in range(config.lstm_stack_depth)]
    dec_fc = []
    for k in range(config.fc_depth):
        out_dim = config.num_classes if k == config.fc_depth - 1 else c
        dec_fc.append(nn.init_dense(rng, out_dim, c))
    embed_w = nn.glorot_uniform(rng, config.embed_dim_per_axis, config.embed_cols_w)
    embed_l = nn.glorot_uniform(rng, config.embed_dim_per_axis, config.embed_cols_l)
    return ModelParams(
        config=config,
        enc_fc=enc_fc,
        enc_lstm=enc_lstm,
        dec_lstm=dec_lstm,
        dec_fc=dec_fc,
        embed_w=embed_w,
        embed_l=embed_l,
        feat_mean=np.zeros(NUM_FEATURES),
        feat_std=np.ones(NUM_FEATURES),
    )


# ---------------------------------------------------------------------------
# encoder
# ---------------------------------------------------------------------------


@dataclass
class EncoderSummary:
    """Final (cell, hidden) state of every encoder LSTM after the window."""

    states: list[LstmState]


@dataclass
class EncoderTapes:
    fc: list[list[nn.DenseTape]]  # [step][fc layer]
    lstm: list[list[nn.LstmTape]]  # [step][lstm layer]


def _observation_window(params: ModelParams, obs) -> np.ndarray:
    """One vehicle's window as a finite (obs_len, 6) array, or ValueError."""
    arr = np.asarray(obs, dtype=np.float64)
    if arr.shape != (params.config.obs_len, NUM_FEATURES):
        raise ValueError(
            f"encode expects ({params.config.obs_len}, {NUM_FEATURES}) observations, got {arr.shape}"
        )
    bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
    if bad.size:
        raise ValueError(f"non-finite observation in frame {bad[0]}")
    return arr


def encode(params: ModelParams, obs) -> EncoderSummary:
    """Run the encoder over exactly obs_len observations (oldest first); the
    summary states are one (1, cell) row."""
    summary, _ = encode_core(params, _observation_window(params, obs)[None], with_tapes=False, row_exact=True)
    return summary


def encode_core(
    params: ModelParams, obs: np.ndarray, with_tapes: bool, row_exact: bool = False
) -> tuple[EncoderSummary, EncoderTapes | None]:
    """Encoder forward over (B, M, 6) observations: B windows of M frames.

    Training (row_exact False) runs step by step through every layer with
    the plain product, keeping each step's tapes when with_tapes. Inference
    (row_exact True) keeps no tapes and runs _encode_blocks."""
    obs = np.asarray(obs, dtype=np.float64)
    if row_exact:
        if with_tapes:
            raise ValueError("the row-exact encoder keeps no tapes")
        return _encode_blocks(params, obs), None
    batch, steps, _ = obs.shape
    states = [LstmState.zeros(batch, params.config.cell_dim) for _ in params.enc_lstm]
    tapes = EncoderTapes(fc=[], lstm=[]) if with_tapes else None
    for t in range(steps):
        u = (obs[:, t] - params.feat_mean) / params.feat_std
        fc_tapes = []
        for fc in params.enc_fc:
            u, tape = nn.dense_forward_cached(fc, u, "relu")
            fc_tapes.append(tape)
        lstm_tapes = []
        for k, cell in enumerate(params.enc_lstm):
            states[k], tape = nn.lstm_forward(cell, u, states[k])
            lstm_tapes.append(tape)
            u = states[k].h
        if with_tapes:
            tapes.fc.append(fc_tapes)
            tapes.lstm.append(lstm_tapes)
    return EncoderSummary(states=states), tapes


def _encode_blocks(params: ModelParams, obs: np.ndarray) -> EncoderSummary:
    """The row-exact encoder, layer by layer over blocks of consecutive time
    steps of at most ENCODE_BLOCK_ROWS rows (one step at least). Per block,
    the normalizer, each dense layer and each LSTM's input product run once
    over all its rows; only the state product and the gates run per step.
    Every product is row-exact (nn._product), so each row has the bits of
    the step-by-step loop's."""
    batch, steps, _ = obs.shape
    states = [LstmState.zeros(batch, params.config.cell_dim) for _ in params.enc_lstm]
    span = max(1, ENCODE_BLOCK_ROWS // batch)
    for t0 in range(0, steps, span):
        # step-major rows: rows s*batch .. (s+1)*batch - 1 are step t0 + s
        block = obs[:, t0 : t0 + span].transpose(1, 0, 2).reshape(-1, NUM_FEATURES)
        u = (block - params.feat_mean) / params.feat_std
        for fc in params.enc_fc:
            u, _ = nn.dense_forward_cached(fc, u, "relu", row_exact=True)
        for k, cell in enumerate(params.enc_lstm):
            u_product = nn.lstm_input_product(cell, u, row_exact=True)
            outputs = []
            for lo in range(0, len(u), batch):
                rows = slice(lo, lo + batch)
                states[k], _ = nn.lstm_forward(cell, u[rows], states[k], row_exact=True, u_product=u_product[rows])
                outputs.append(states[k].h)
            del u_product  # freed before the next layer's is made: one held at a time
            u = np.concatenate(outputs)
    return EncoderSummary(states=states)


# ---------------------------------------------------------------------------
# decoder
# ---------------------------------------------------------------------------


@dataclass
class DecodeTapes:
    lstm: list[nn.LstmTape]
    fc: list[nn.DenseTape]


def decoder_initial_state(params: ModelParams, summary: EncoderSummary) -> list[LstmState]:
    """Decoder LSTM states seeded from the encoder: cell states always, hidden
    outputs copied or zeroed per config."""
    init = []
    for st in summary.states:
        h = st.h.copy() if params.config.copy_hidden_state else np.zeros_like(st.h)
        init.append(LstmState(c=st.c.copy(), h=h))
    return init


def token_embed_columns(tokens: np.ndarray, config: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """Column indices into the two embedding matrices for flat class ids;
    the out-of-map class selects the extra final column of each."""
    w, l = ogm.unflatten_indices(tokens, config.grid)
    # out of map is w == l == 0
    return np.where(w > 0, w - 1, config.grid.q_w), np.where(l > 0, l - 1, config.grid.q_l)


def embed_tokens(params: ModelParams, tokens: np.ndarray) -> np.ndarray:
    """Decoder input rows for (rows,) flat class ids: per token, the concat
    of one column from each embedding matrix."""
    wc, lc = token_embed_columns(tokens, params.config)
    return np.concatenate([params.embed_w[:, wc].T, params.embed_l[:, lc].T], axis=1)


def start_input(params: ModelParams, rows: int) -> np.ndarray:
    """The dummy decode-start input: zero rows in place of embeddings."""
    return np.zeros((rows, params.config.cell_dim))


def decode_core(
    params: ModelParams, state: list[LstmState], u: np.ndarray, with_tapes: bool, row_exact: bool = False
) -> tuple[np.ndarray, list[LstmState], DecodeTapes | None]:
    """One decoder step from an already-embedded input; returns logits;
    row_exact for inference."""
    new_state = list(state)
    lstm_tapes = []
    for k, cell in enumerate(params.dec_lstm):
        new_state[k], tape = nn.lstm_forward(cell, u, new_state[k], row_exact)
        lstm_tapes.append(tape)
        u = new_state[k].h
    fc_tapes = []
    last = len(params.dec_fc) - 1
    for k, fc in enumerate(params.dec_fc):
        u, tape = nn.dense_forward_cached(fc, u, "none" if k == last else "relu", row_exact)
        fc_tapes.append(tape)
    if not np.all(np.isfinite(u)):
        raise FloatingPointError("non-finite decoder logits")
    tapes = DecodeTapes(lstm=lstm_tapes, fc=fc_tapes) if with_tapes else None
    return u, new_state, tapes


def _padded_head(params: ModelParams) -> ModelParams:
    """params for a row-exact decode loop, with the output layer padded
    once (nn.row_exact_padded) instead of at every step. Its logits carry
    zero pad columns after the num_classes real ones, which keep their
    bits; the loop slices the pad off."""
    return replace(params, dec_fc=[*params.dec_fc[:-1], nn.row_exact_padded(params.dec_fc[-1])])


def decode_step(
    params: ModelParams, state: list[LstmState], prev: int | None
) -> tuple[np.ndarray, list[LstmState]]:
    """One public decode step for one vehicle's (1, cell) state rows: its
    (num_classes,) probability map and the advanced state. prev is the
    previous flat class id, or None for the decode-start token."""
    u = start_input(params, 1) if prev is None else embed_tokens(params, np.array([prev]))
    logits, new_state, _ = decode_core(params, state, u, with_tapes=False, row_exact=True)
    return nn.softmax(logits)[0], new_state


@dataclass
class BeamHypothesis:
    """A predicted class sequence with its cumulative natural-log
    probability."""

    sequence: list[int]
    log_prob: float


@dataclass
class TrajectoryPrediction:
    """K complete hypotheses for one vehicle, sorted by descending log_prob
    (ties: lower class id, then lower parent hypothesis index)."""

    hypotheses: list[BeamHypothesis]
    # per decode step, the probability maps the surviving hypotheses emitted
    # (populated on request; one row per hypothesis alive at that step)
    probability_maps: list[np.ndarray] | None = None


def greedy_decode(params: ModelParams, summary: EncoderSummary, horizon: int | None = None) -> BeamHypothesis:
    """Pick the argmax class at every step and feed it back. Decodes the
    summary's one (1, cell) row, the one-row case of greedy_scene's loop, as
    the beam core does for a single vehicle, so beam width 1 reproduces it
    bit for bit."""
    _, steps = _beam_args(params, 1, horizon)
    rows = decoder_initial_state(params, summary)
    if len(rows[0].c) != 1:
        raise nn.ShapeError(f"greedy_decode takes one vehicle's summary, got {len(rows[0].c)} rows")
    seqs, log_probs = _greedy_rows(params, rows, steps)
    return BeamHypothesis(sequence=seqs[0].tolist(), log_prob=float(log_probs[0]))


def _greedy_rows(params: ModelParams, state: list[LstmState], steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Greedy decoding for N vehicles at once from their N decoder-state
    rows: every step decodes all rows in one decode_core call, and each row
    feeds back its argmax class. An argmax loop of its own, not _beam_rows
    at width 1, so that the beam at width 1 stays an independent check of
    it. Returns (sequences (N, steps) of flat class ids, log_probs (N,))."""
    n = state[0].c.shape[0]
    seqs = np.zeros((n, steps), dtype=np.int64)
    log_probs = np.zeros(n)
    u = start_input(params, n)
    padded = _padded_head(params)
    for step in range(steps):
        if step:
            u = embed_tokens(params, seqs[:, step - 1])
        logits, state, _ = decode_core(padded, state, u, with_tapes=False, row_exact=True)
        lp = nn.log_softmax(logits[:, : params.config.num_classes])
        best = np.argmax(lp, axis=1)  # first max <=> lowest class id on ties
        log_probs += lp[np.arange(n), best]
        seqs[:, step] = best + 1
    return seqs, log_probs


def _top_k(scores: np.ndarray, take: int, num_classes: int) -> np.ndarray:
    """Per row of scores (column = parent * num_classes + class), the columns
    of the take best extensions in beam order: score descending, ties by
    lower class id, then lower parent. Only the candidates at or above each
    row's take-th largest score are sorted."""
    n, m = scores.shape
    kth = np.partition(scores, m - take, axis=1)[:, m - take]
    row, col = np.nonzero(scores >= kth[:, None])
    order = np.lexsort((col // num_classes, col % num_classes, -scores[row, col], row))
    counts = np.bincount(row, minlength=n)
    first = np.cumsum(counts) - counts
    return col[order][first[:, None] + np.arange(take)]


def _beam_rows(
    params: ModelParams, state: list[LstmState], beam_width: int, steps: int, collect_maps: bool = False
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray] | None]:
    """Beam search for N vehicles at once from their N decoder-state rows.

    Hypotheses are rows, vehicle-major and in rank order within a vehicle.
    Step 1 expands each vehicle's start token; every step decodes all rows
    in one decode_core call, scores each vehicle's (hypothesis, class)
    extensions by cumulative log probability and keeps its top beam_width,
    gathering the parents' advanced states by row index.

    Returns (sequences (N, K, steps) of flat class ids, log_probs (N, K),
    and per step the (N, hypotheses, num_classes) probability maps when
    collect_maps, else None).
    """
    n = state[0].c.shape[0]
    num_classes = params.config.num_classes
    log_probs = np.zeros((n, 1))
    seqs = np.zeros((n, 1, 0), dtype=np.int64)
    maps: list[np.ndarray] | None = [] if collect_maps else None
    u = start_input(params, n)
    padded = _padded_head(params)
    for step in range(steps):
        if step:
            state = [LstmState(c=s.c[rows], h=s.h[rows]) for s in state]
            u = embed_tokens(params, seqs[:, :, -1].ravel())
        logits, state, _ = decode_core(padded, state, u, with_tapes=False, row_exact=True)
        lp = nn.log_softmax(logits[:, :num_classes]).reshape(n, -1, num_classes)
        if maps is not None:
            maps.append(np.exp(lp))
        lp += log_probs[:, :, None]  # the extensions' scores, in place of the log probs
        scores = lp.reshape(n, -1)
        cols = _top_k(scores, min(beam_width, scores.shape[1]), num_classes)
        parents, classes = np.divmod(cols, num_classes)
        rows = (parents + lp.shape[1] * np.arange(n)[:, None]).ravel()
        log_probs = np.take_along_axis(scores, cols, axis=1)
        seqs = np.concatenate(
            [np.take_along_axis(seqs, parents[:, :, None], axis=1), classes[:, :, None] + 1], axis=2
        )
    return seqs, log_probs, maps


def _predictions(seqs: np.ndarray, log_probs: np.ndarray, maps) -> list[TrajectoryPrediction]:
    """Per-vehicle predictions from _beam_rows' arrays."""
    return [
        TrajectoryPrediction(
            hypotheses=[BeamHypothesis(sequence=q, log_prob=lp) for q, lp in zip(seqs[v].tolist(), log_probs[v].tolist())],
            probability_maps=None if maps is None else [m[v] for m in maps],
        )
        for v in range(len(seqs))
    ]


def _beam_args(params: ModelParams, beam_width: int | None, horizon: int | None) -> tuple[int, int]:
    k = params.config.beam_width if beam_width is None else beam_width
    steps = params.config.horizon if horizon is None else horizon
    if k < 1 or steps < 1:
        raise ValueError("beam width and horizon must be >= 1")
    return k, steps


def beam_search_decode(
    params: ModelParams,
    summary: EncoderSummary,
    beam_width: int | None = None,
    horizon: int | None = None,
    collect_probability_maps: bool = False,
) -> TrajectoryPrediction:
    """Keep the beam_width most probable hypotheses at every decode step for
    one vehicle: the batched beam core on a single row."""
    k, steps = _beam_args(params, beam_width, horizon)
    rows = decoder_initial_state(params, summary)
    if len(rows[0].c) != 1:
        raise nn.ShapeError(f"beam_search_decode takes one vehicle's summary, got {len(rows[0].c)} rows")
    return _predictions(*_beam_rows(params, rows, k, steps, collect_probability_maps))[0]


def predict_scene(params: ModelParams, scenes, beam_width: int | None = None, horizon: int | None = None) -> list[TrajectoryPrediction]:
    """Encode + beam-decode each vehicle's observation window with the
    shared parameters; output order matches input order. Every window is
    validated first; then each row shard (see _scene_shards) encodes its
    windows in one batch and beam-decodes DECODE_CHUNK vehicles at a time,
    each as beam_search_decode bit for bit."""
    k, steps = _beam_args(params, beam_width, horizon)

    def decode(windows: np.ndarray) -> list[TrajectoryPrediction]:
        return [p for chunk in _chunks(params, windows) for p in _predictions(*_beam_rows(params, chunk, k, steps))]

    return _scene_shards(params, scenes, decode)


def greedy_scene(params: ModelParams, scenes, horizon: int | None = None) -> list[BeamHypothesis]:
    """Greedy-decode each vehicle's observation window, in input order,
    sharded and batched as predict_scene is; each vehicle's hypothesis
    equals greedy_decode(params, encode(params, window)) bit for bit."""
    _, steps = _beam_args(params, 1, horizon)

    def decode(windows: np.ndarray) -> list[BeamHypothesis]:
        out = []
        for chunk in _chunks(params, windows):
            seqs, log_probs = _greedy_rows(params, chunk, steps)
            out += [BeamHypothesis(sequence=q, log_prob=lp) for q, lp in zip(seqs.tolist(), log_probs.tolist())]
        return out

    return _scene_shards(params, scenes, decode)


def _scene_shards(params: ModelParams, scenes, decode) -> list:
    """Every window validated (an error names the vehicle's index in
    scenes), then decode(windows) over the row shards of nn.map_shards:
    with nn.row_shards() at 2, the first contiguous half of the vehicles on
    the calling thread and the second on a worker thread. The products are
    row-exact, so a vehicle decodes to the same bits in either shard.
    Returns the shards' outputs concatenated in input order."""
    if len(scenes) < 1:
        raise ValueError("a scene needs at least one vehicle")
    windows = []
    for n, obs in enumerate(scenes):
        try:
            windows.append(_observation_window(params, obs))
        except ValueError as exc:
            raise ValueError(f"vehicle {n}: {exc}") from exc
    with nn.shard_pool() as pool:
        parts = nn.map_shards(decode, np.stack(windows), pool)
    return [out for part in parts for out in part]


def _chunks(params: ModelParams, windows: np.ndarray) -> Iterator[list[LstmState]]:
    """(N, M, 6) validated windows encoded in one row-exact batch; yields
    the decoder-state rows of DECODE_CHUNK vehicles at a time."""
    summary, _ = encode_core(params, windows, with_tapes=False, row_exact=True)
    state = decoder_initial_state(params, summary)
    for lo in range(0, len(windows), DECODE_CHUNK):
        yield [LstmState(c=s.c[lo : lo + DECODE_CHUNK], h=s.h[lo : lo + DECODE_CHUNK]) for s in state]


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = "GRIDCAST-CHECKPOINT"
# v2 records the full grid geometry; v1 recorded only its dimensions
CHECKPOINT_VERSION = 2
_BLOB_SEPARATOR = b"\n#BLOBS\n"


class CheckpointError(RuntimeError):
    """Checkpoint file rejected; the message carries the diagnosis."""


def save_checkpoint(params: ModelParams, path: str) -> None:
    """Text manifest (version, config, tensor order/shapes) + little-endian
    float64 blobs in manifest order. Written atomically (temp + rename)."""
    items = params.checkpoint_items()
    manifest = {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(params.config),
        "tensors": [{"name": name, "shape": list(a.shape)} for name, a in items],
    }
    header = f"{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION}\n" + json.dumps(manifest)
    with write_atomic(path, prefix=".ckpt-") as f:
        f.write(header.encode("utf-8") + _BLOB_SEPARATOR)
        for _, a in items:
            f.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


@contextlib.contextmanager
def write_atomic(path: str, prefix: str) -> Iterator[BinaryIO]:
    """A binary file to stream into: a temp file (named prefix + random)
    beside path, renamed over path when the block ends without an error and
    removed when it raises, so path never holds a partial file. The file
    gets the mode a plain open() gives a new one: 0o666 less the umask."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), prefix + os.urandom(8).hex())
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path: str) -> ModelParams:
    """Parameters from a save_checkpoint file: the manifest is parsed and
    checked against this architecture, then each tensor's bytes are read
    straight into its array, with no copy of the file in memory."""
    with open(path, "rb") as f:
        header = _read_header(f, path)
        try:
            first_line, manifest_json = header.decode("utf-8").split("\n", 1)
            manifest = json.loads(manifest_json)
        except (UnicodeDecodeError, ValueError) as exc:
            raise CheckpointError(f"{path}: corrupted manifest ({exc})") from exc
        if not first_line.startswith(CHECKPOINT_MAGIC):
            raise CheckpointError(f"{path}: bad magic {first_line!r}")
        version = manifest.get("format_version")
        if version not in (1, CHECKPOINT_VERSION):
            raise CheckpointError(f"{path}: format version {version}, expected 1 or {CHECKPOINT_VERSION}")
        try:
            config = _manifest_config(dict(manifest["config"]), version)
            tensors = manifest["tensors"]
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"{path}: invalid manifest contents ({exc})") from exc

        params = _layout_params(config, None)
        expected = params.checkpoint_items()
        if [t["name"] for t in tensors] != [name for name, _ in expected]:
            raise CheckpointError(f"{path}: tensor ordering does not match this architecture")
        for spec, (name, dst) in zip(tensors, expected):
            shape = tuple(spec["shape"])
            if shape != dst.shape:
                raise CheckpointError(f"{path}: tensor {name} shape {shape}, expected {dst.shape}")
            if f.readinto(memoryview(dst).cast("B")) != dst.nbytes:
                raise CheckpointError(f"{path}: truncated blob for tensor {name}")
            if sys.byteorder == "big":  # the blobs are little-endian
                dst.byteswap(inplace=True)
        trailing = len(f.read())
    if trailing:
        raise CheckpointError(f"{path}: {trailing} trailing bytes after last tensor")
    return params


def _read_header(f: BinaryIO, path: str) -> bytearray:
    """The bytes before the blob separator; leaves f at the first blob."""
    head = bytearray()
    while True:
        start = max(0, len(head) - len(_BLOB_SEPARATOR) + 1)
        block = f.read(1 << 14)
        if not block:
            raise CheckpointError(f"{path}: no blob separator; truncated or not a checkpoint")
        head += block
        sep = head.find(_BLOB_SEPARATOR, start)
        if sep >= 0:
            f.seek(sep + len(_BLOB_SEPARATOR))
            return head[:sep]


def _manifest_config(raw: dict, version: int) -> ModelConfig:
    if version == 1:
        # v1 held only q_w/q_l: 36 x 21 meant the default geometry, any
        # other size the centered GridSpec.custom grid
        dims = (raw.pop("q_w"), raw.pop("q_l"))
        grid = ogm.GridSpec() if dims == (36, 21) else ogm.GridSpec.custom(*dims)
    else:
        grid = ogm.GridSpec(**raw.pop("grid"))
    if raw.pop("input_dim", NUM_FEATURES) != NUM_FEATURES:  # recorded by older files
        raise ValueError(f"input_dim must be {NUM_FEATURES}")
    return ModelConfig(grid=grid, **raw)
