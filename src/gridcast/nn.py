"""Minimal 64-bit neural-network core: dense layers, the LSTM cell with exact
analytic gradients, stable softmax, a finite-difference gradient checker, and
the rule that splits a batch's rows into shards run on two threads.

All tensors are float64 numpy arrays. Layer inputs and LSTM states are
(rows, dim) arrays whose rows are examples or beam hypotheses; a single one
is one row. Reductions are delegated to numpy, whose summation order is
fixed for identical shapes, so identical inputs produce bit-identical
outputs run to run.

The LSTM cell implements

    f_t = sigmoid(W_uf u_t + W_hf h_{t-1} + b_f)
    i_t = sigmoid(W_ui u_t + W_hi h_{t-1} + b_i)
    o_t = sigmoid(W_uo u_t + W_ho h_{t-1} + b_o)
    c_t = f_t * c_{t-1} + i_t * tanh(W_uc u_t + W_hc h_{t-1} + b_c)
    h_t = o_t * tanh(c_t)

with the four gate blocks stored row-stacked (order f, i, o, g) so a step
costs two matrix products instead of eight.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Sequence, TypeVar

import numpy as np

if TYPE_CHECKING:
    from concurrent.futures import Executor

__all__ = [
    "ShapeError",
    "sigmoid",
    "relu",
    "softmax",
    "log_softmax",
    "DenseParams",
    "DenseTape",
    "row_exact_padded",
    "dense_forward_cached",
    "dense_backward",
    "LstmParams",
    "LstmState",
    "LstmTape",
    "lstm_input_product",
    "lstm_forward",
    "lstm_backward",
    "gradient_check",
    "central_differences",
    "glorot_uniform",
    "init_dense",
    "init_lstm",
    "row_shards",
    "shard_pool",
    "shard_count",
    "map_shards",
]


class ShapeError(ValueError):
    """Operand shapes inconsistent with the declared parameter shapes."""


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Elementwise 1/(1+exp(-x)) as 0.5 + 0.5*tanh(x/2): no overflow at
    either tail and no branch on the sign."""
    return 0.5 + 0.5 * np.tanh(0.5 * np.asarray(x, dtype=np.float64))


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Probability vector over the last axis, max-subtracted for stability."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """log(softmax(logits)) over the last axis via the log-sum-exp shift."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - np.max(z, axis=-1, keepdims=True)
    z -= np.log(np.sum(np.exp(z), axis=-1, keepdims=True))
    return z


# ---------------------------------------------------------------------------
# dense layer
# ---------------------------------------------------------------------------


@dataclass
class DenseParams:
    weight: np.ndarray  # (out_dim, in_dim)
    bias: np.ndarray  # (out_dim,)

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]


@dataclass
class DenseTape:
    u: np.ndarray
    # the relu output, whose positive entries are the backward mask (the
    # same test as pre > 0, on an array the next layer's tape holds anyway);
    # None for a linear layer
    out: np.ndarray | None


def _rows(u: np.ndarray, width: int, what: str) -> np.ndarray:
    """u as a float64 (rows, width) array, or ShapeError."""
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2 or u.shape[1] != width:
        raise ShapeError(f"{what} must be (rows, {width}), got {u.shape}")
    return u


def _product(u: np.ndarray, w: np.ndarray, row_exact: bool) -> np.ndarray:
    """u @ w.T. A plain gemm may round a row differently by the row count.
    row_exact pads the rows of u with zeros to a multiple of 16 and those of
    w (the output width) to a multiple of 4 and at least 128, and slices the
    gemm back: then each row has the bits of a one-row call. That is this
    BLAS build's property, not a documented one (narrower padding loses it
    for narrow layers); tests/test_nn.py::TestRowExact checks it."""
    if not row_exact:
        return u @ w.T
    rows, width = len(u), len(w)
    pad_rows, pad_width = -rows % 16, _width_pad(width)
    if pad_rows:
        u = np.concatenate([u, np.zeros((pad_rows, u.shape[1]))])
    if pad_width:
        w = np.concatenate([w, np.zeros((pad_width, w.shape[1]))])
    return (u @ w.T)[:rows, :width]


def _width_pad(width: int) -> int:
    return max(128 - width, -width % 4)


def row_exact_padded(p: DenseParams) -> DenseParams:
    """p with zero output rows appended as _product pads a weight. A
    row-exact call on it makes no padded copy of the weight, and its first
    len(p.weight) output columns have the bits of a row-exact call on p;
    the rest are 0. For a layer whose weight many calls reuse."""
    pad = _width_pad(len(p.weight))
    return DenseParams(np.concatenate([p.weight, np.zeros((pad, p.in_dim))]), np.concatenate([p.bias, np.zeros(pad)]))


def dense_forward_cached(
    p: DenseParams, u: np.ndarray, activation: str = "relu", row_exact: bool = False
) -> tuple[np.ndarray, DenseTape]:
    """activation(u @ weight.T + bias) over (rows, in_dim) inputs, with the
    tape for dense_backward; activation is "relu" or "none". row_exact
    gives every row the bits of a one-row call (see _product)."""
    u = _rows(u, p.in_dim, "dense input")
    if activation not in ("relu", "none"):
        raise ValueError(f"unknown activation {activation!r}")
    out = _product(u, p.weight, row_exact)
    out += p.bias
    if activation == "none":
        return out, DenseTape(u=u, out=None)
    np.maximum(out, 0.0, out=out)  # relu
    return out, DenseTape(u=u, out=out)


def dense_backward(
    p: DenseParams, tape: DenseTape, grad_out: np.ndarray
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Gradients of a cached dense call: ({"weight", "bias"}, grad wrt input)."""
    g = np.asarray(grad_out, dtype=np.float64)
    if tape.out is not None:
        g = g * (tape.out > 0)
    grads = {"weight": g.T @ tape.u, "bias": g.sum(axis=0)}
    return grads, g @ p.weight


# ---------------------------------------------------------------------------
# LSTM cell
# ---------------------------------------------------------------------------


@dataclass
class LstmParams:
    """Cell parameters with the four gates row-stacked: w_u is (4*cell, in),
    w_h is (4*cell, cell), b is (4*cell,), blocks ordered (forget, input,
    output, candidate)."""

    w_u: np.ndarray
    w_h: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        cell = self.w_h.shape[1]
        if self.w_u.shape[0] != 4 * cell or self.w_h.shape[0] != 4 * cell:
            raise ShapeError("stacked gate matrices must have 4*cell_dim rows")
        if self.b.shape != (4 * cell,):
            raise ShapeError("bias must have 4*cell_dim entries")

    @property
    def cell_dim(self) -> int:
        return self.w_h.shape[1]

    @property
    def input_dim(self) -> int:
        return self.w_u.shape[1]


@dataclass
class LstmState:
    c: np.ndarray  # cell memory, (rows, cell)
    h: np.ndarray  # state output, same shape

    @classmethod
    def zeros(cls, rows: int, cell_dim: int) -> "LstmState":
        return cls(c=np.zeros((rows, cell_dim)), h=np.zeros((rows, cell_dim)))


@dataclass
class LstmTape:
    """Forward intermediates for one step, consumed exactly once by backward."""

    u: np.ndarray
    h_prev: np.ndarray
    c_prev: np.ndarray
    f: np.ndarray
    i: np.ndarray
    o: np.ndarray
    g: np.ndarray  # tanh of the candidate pre-activation
    tanh_c: np.ndarray
    _consumed: bool = field(default=False, repr=False)


def lstm_input_product(p: LstmParams, u: np.ndarray, row_exact: bool = False) -> np.ndarray:
    """u @ w_u.T over (rows, input_dim) inputs: the part of the gate
    pre-activations that does not depend on the state, as lstm_forward's
    u_product. Its rows may be many steps' inputs at once, since no step's
    input depends on its own layer's state. row_exact as for
    dense_forward_cached."""
    return _product(_rows(u, p.input_dim, "lstm input"), p.w_u, row_exact)


def lstm_forward(
    p: LstmParams, u: np.ndarray, prev: LstmState, row_exact: bool = False, u_product: np.ndarray | None = None
) -> tuple[LstmState, LstmTape]:
    """One step of the gate recursion over (rows, input_dim) inputs and a
    (rows, cell_dim) state; returns the next state and the tape. row_exact
    as for dense_forward_cached. u_product, when given, is these inputs'
    lstm_input_product, computed beforehand with the same row_exact, and is
    only read. The pre-activations are (state product + input product) +
    bias either way, the bits of (input product + state product) + bias,
    since a sum of two floats does not depend on their order."""
    u = _rows(u, p.input_dim, "lstm input")
    cdim = p.cell_dim
    if prev.c.shape != (len(u), cdim) or prev.h.shape != (len(u), cdim):
        raise ShapeError(f"lstm state must be ({len(u)}, {cdim}), got c {prev.c.shape}, h {prev.h.shape}")
    if u_product is not None and u_product.shape != (len(u), 4 * cdim):
        raise ShapeError(f"lstm input product must be ({len(u)}, {4 * cdim}), got {u_product.shape}")
    z = _product(prev.h, p.w_h, row_exact)
    # a product made here is freed once added, before the gates are made
    z += _product(u, p.w_u, row_exact) if u_product is None else u_product
    z += p.b
    f = sigmoid(z[:, :cdim])
    i = sigmoid(z[:, cdim : 2 * cdim])
    o = sigmoid(z[:, 2 * cdim : 3 * cdim])
    g = np.tanh(z[:, 3 * cdim :])
    c = f * prev.c + i * g
    tanh_c = np.tanh(c)
    h = o * tanh_c
    tape = LstmTape(u=u, h_prev=prev.h, c_prev=prev.c, f=f, i=i, o=o, g=g, tanh_c=tanh_c)
    return LstmState(c=c, h=h), tape


def lstm_backward(
    p: LstmParams,
    tape: LstmTape,
    grad_c: np.ndarray,
    grad_h: np.ndarray,
) -> tuple[dict[str, np.ndarray], LstmState, np.ndarray]:
    """Analytic partials of one forward step.

    grad_c / grad_h are the loss gradients wrt this step's c_t and h_t
    (grad_c already holding any contribution flowing back from step t+1).
    Returns ({"w_u", "w_h", "b"} gradients, gradient wrt the previous state,
    gradient wrt the input).
    """
    if tape._consumed:
        raise RuntimeError("LSTM tape already consumed by a backward pass")
    tape._consumed = True

    dc = grad_c + grad_h * tape.o * (1.0 - tape.tanh_c**2)
    do = grad_h * tape.tanh_c
    df = dc * tape.c_prev
    di = dc * tape.g
    dg = dc * tape.i
    dc_prev = dc * tape.f

    da_f = df * tape.f * (1.0 - tape.f)
    da_i = di * tape.i * (1.0 - tape.i)
    da_o = do * tape.o * (1.0 - tape.o)
    da_g = dg * (1.0 - tape.g**2)
    da = np.concatenate([da_f, da_i, da_o, da_g], axis=1)

    grads = {"w_u": da.T @ tape.u, "w_h": da.T @ tape.h_prev, "b": da.sum(axis=0)}
    grad_prev = LstmState(c=dc_prev, h=da @ p.w_h)
    grad_u = da @ p.w_u
    return grads, grad_prev, grad_u


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def gradient_check(f, x0: np.ndarray, h: float = 1e-5) -> float:
    """Compare analytic against central-difference gradients.

    f maps a flat float64 vector to (scalar value, gradient vector). Returns
    the max over coordinates of |a - n| / max(|a|, |n|, 1e-12).
    """
    x0 = np.asarray(x0, dtype=np.float64)
    _, analytic = f(x0)
    analytic = np.asarray(analytic, dtype=np.float64)
    if analytic.shape != x0.shape:
        raise ShapeError("analytic gradient shape != parameter shape")
    numeric = central_differences(lambda x: f(x)[0], x0, h)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-12)
    return float(np.max(np.abs(analytic - numeric) / denom))


def central_differences(f_value, x0: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Numerical gradient of the scalar f_value at x0, one coordinate at a
    time: (f(x + h e_k) - f(x - h e_k)) / 2h."""
    numeric = np.empty_like(x0)
    x = x0.copy()
    for k in range(x0.size):
        orig = x[k]
        x[k] = orig + h
        fp = f_value(x)
        x[k] = orig - h
        fm = f_value(x)
        x[k] = orig
        numeric[k] = (fp - fm) / (2.0 * h)
    return numeric


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


def glorot_uniform(rng: np.random.Generator | None, out_dim: int, in_dim: int) -> np.ndarray:
    """Uniform on +-sqrt(6 / (in + out)); rng None gives zeros, so the init
    functions can lay out a shape-only template without random draws."""
    if rng is None:
        return np.zeros((out_dim, in_dim))
    bound = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-bound, bound, size=(out_dim, in_dim))


def init_dense(rng: np.random.Generator | None, out_dim: int, in_dim: int) -> DenseParams:
    return DenseParams(weight=glorot_uniform(rng, out_dim, in_dim), bias=np.zeros(out_dim))


def init_lstm(rng: np.random.Generator | None, cell_dim: int, input_dim: int) -> LstmParams:
    """Glorot matrices per gate block; biases zero except forget gate at 1.0."""
    w_u = np.concatenate([glorot_uniform(rng, cell_dim, input_dim) for _ in range(4)], axis=0)
    w_h = np.concatenate([glorot_uniform(rng, cell_dim, cell_dim) for _ in range(4)], axis=0)
    b = np.zeros(4 * cell_dim)
    b[:cell_dim] = 1.0  # forget-gate block
    return LstmParams(w_u=w_u, w_h=w_h, b=b)


# ---------------------------------------------------------------------------
# row shards
# ---------------------------------------------------------------------------


def _blas_threads() -> int | None:
    """The BLAS thread count the environment sets, in the order OpenBLAS
    reads it (OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS, OMP_NUM_THREADS; an
    MKL build reads MKL_NUM_THREADS, then OMP_NUM_THREADS): the first one
    set to a positive integer, or None."""
    try:
        mkl = "mkl" in np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError):  # numpy < 1.26 keeps no build record
        mkl = False
    names = ("MKL_NUM_THREADS",) if mkl else ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS")
    settings = [os.environ.get(name, "").strip() for name in (*names, "OMP_NUM_THREADS")]
    return next((int(v) for v in settings if v.isdigit() and int(v) > 0), None)


# BLAS read its thread count when numpy loaded (imported above), so the
# setting is read once, here: a later change to the environment, or a pin
# made through threadpoolctl, is not seen.
_BLAS_PINNED = _blas_threads() == 1


def _cpu_set() -> set[int]:
    if hasattr(os, "sched_getaffinity"):
        return os.sched_getaffinity(0)
    return set(range(os.cpu_count() or 1))


def row_shards() -> int:
    """How many row shards a batch is split into, for training and for
    inference alike: 2 when numpy's BLAS is pinned to one thread and this
    process may use at least 2 CPUs (its affinity mask); else 1, since an
    unpinned BLAS already spreads each product over the cores. The answer
    depends on the process's settings only, not on the machine's load, so
    it fixes the numbers a run computes."""
    return 2 if _BLAS_PINNED and len(_cpu_set()) >= 2 else 1


@contextlib.contextmanager
def shard_pool() -> Iterator[Executor | None]:
    """The one-worker pool that runs second row shards when row_shards() is
    2, else None. Its thread starts at the first submit, is reused by every
    later one (so its heap arena is too), and is joined when the block
    exits, normally or by an exception."""
    if row_shards() == 1:
        yield None
        return
    # imported here: the module (and the logging it imports) costs memory
    # and import time that a process which never shards need not pay
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="gridcast-shard") as pool:
        yield pool


def shard_count(rows: int) -> int:
    """How many shards map_shards splits this many rows into with the pool
    of shard_pool(): row_shards(), or 1 for fewer than 2 rows."""
    return row_shards() if rows >= 2 else 1


_R = TypeVar("_R")


def map_shards(fn: Callable[[Sequence], _R], rows: Sequence, pool: Executor | None) -> list[_R]:
    """fn over the rows as one shard, [fn(rows)], without a pool or with
    fewer than 2 rows; else over two contiguous shards, [fn(first half),
    fn(second half)], the first (the larger, for an odd count) on the
    calling thread and the second on the pool's worker at the same time
    (numpy releases the GIL inside its matrix products and float ufuncs).
    The second has finished, or raised, before this returns or raises."""
    if pool is None or len(rows) < 2:
        return [fn(rows)]
    half = (len(rows) + 1) // 2
    future = pool.submit(fn, rows[half:])
    try:
        first = fn(rows[:half])
    finally:
        second = future.result()
    return [first, second]
