"""Minimal 64-bit neural-network core: dense layers, the LSTM cell with exact
analytic gradients, stable softmax, and a finite-difference gradient checker.

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

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ShapeError",
    "sigmoid",
    "relu",
    "softmax",
    "log_softmax",
    "DenseParams",
    "DenseTape",
    "dense_forward_cached",
    "dense_backward",
    "LstmParams",
    "LstmState",
    "LstmTape",
    "lstm_forward",
    "lstm_backward",
    "gradient_check",
    "central_differences",
    "glorot_uniform",
    "init_dense",
    "init_lstm",
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
    return z - np.log(np.sum(np.exp(z), axis=-1, keepdims=True))


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

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]


@dataclass
class DenseTape:
    u: np.ndarray
    pre: np.ndarray  # pre-activation, kept only for relu masking
    activation: str


def _rows(u: np.ndarray, width: int, what: str) -> np.ndarray:
    """u as a float64 (rows, width) array, or ShapeError."""
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2 or u.shape[1] != width:
        raise ShapeError(f"{what} must be (rows, {width}), got {u.shape}")
    return u


def dense_forward_cached(
    p: DenseParams, u: np.ndarray, activation: str = "relu"
) -> tuple[np.ndarray, DenseTape]:
    """activation(u @ weight.T + bias) over (rows, in_dim) inputs, with the
    tape for dense_backward; activation is "relu" or "none"."""
    u = _rows(u, p.in_dim, "dense input")
    if activation not in ("relu", "none"):
        raise ValueError(f"unknown activation {activation!r}")
    pre = u @ p.weight.T + p.bias
    out = relu(pre) if activation == "relu" else pre
    return out, DenseTape(u=u, pre=pre, activation=activation)


def dense_backward(
    p: DenseParams, tape: DenseTape, grad_out: np.ndarray
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Gradients of a cached dense call: ({"weight", "bias"}, grad wrt input)."""
    g = np.asarray(grad_out, dtype=np.float64)
    if tape.activation == "relu":
        g = g * (tape.pre > 0)
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


def lstm_forward(
    p: LstmParams, u: np.ndarray, prev: LstmState
) -> tuple[LstmState, LstmTape]:
    """One step of the gate recursion over (rows, input_dim) inputs and a
    (rows, cell_dim) state; returns the next state and the tape."""
    u = _rows(u, p.input_dim, "lstm input")
    cdim = p.cell_dim
    if prev.c.shape != (len(u), cdim) or prev.h.shape != (len(u), cdim):
        raise ShapeError(f"lstm state must be ({len(u)}, {cdim}), got c {prev.c.shape}, h {prev.h.shape}")
    z = u @ p.w_u.T + prev.h @ p.w_h.T + p.b
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


def gradient_check(f, x0: np.ndarray, h: float = 1e-5, f_value=None) -> float:
    """Compare analytic against central-difference gradients.

    f maps a flat float64 vector to (scalar value, gradient vector). f_value,
    when given, is a cheaper value-only evaluation used for the difference
    sweep. Returns the max over coordinates of |a - n| / max(|a|, |n|, 1e-12).
    """
    x0 = np.asarray(x0, dtype=np.float64)
    _, analytic = f(x0)
    analytic = np.asarray(analytic, dtype=np.float64)
    if analytic.shape != x0.shape:
        raise ShapeError("analytic gradient shape != parameter shape")
    numeric = central_differences(f_value if f_value is not None else (lambda x: f(x)[0]), x0, h)
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
