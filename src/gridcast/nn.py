"""Minimal 64-bit neural-network core: dense layers, the LSTM cell with exact
analytic gradients, stable softmax, and a finite-difference gradient checker.

All tensors are float64 numpy arrays. Vector ops accept a single vector
(dim,) or a batch (B, dim); reductions are delegated to numpy, whose
summation order is fixed for identical shapes, so identical inputs produce
bit-identical outputs run to run.

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
    "dense_forward",
    "dense_forward_cached",
    "dense_backward",
    "LstmParams",
    "LstmState",
    "LstmTape",
    "lstm_forward",
    "lstm_backward",
    "gradient_check",
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


def dense_forward(p: DenseParams, u: np.ndarray, activation: str = "relu") -> np.ndarray:
    """activation(weight @ u + bias); activation is "relu" or "none"."""
    out, _ = dense_forward_cached(p, u, activation)
    return out


def dense_forward_cached(
    p: DenseParams, u: np.ndarray, activation: str = "relu"
) -> tuple[np.ndarray, DenseTape]:
    u = np.asarray(u, dtype=np.float64)
    if u.shape[-1] != p.in_dim:
        raise ShapeError(f"dense input width {u.shape[-1]} != {p.in_dim}")
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
    grads = {"weight": _weight_grad(g, tape.u), "bias": _bias_grad(g)}
    return grads, g @ p.weight


def _weight_grad(g: np.ndarray, u: np.ndarray) -> np.ndarray:
    if g.ndim == 1:
        return np.outer(g, u)
    return g.T @ u


def _bias_grad(g: np.ndarray) -> np.ndarray:
    if g.ndim == 1:
        return g.copy()
    return g.sum(axis=0)


# ---------------------------------------------------------------------------
# LSTM cell
# ---------------------------------------------------------------------------

# rows of the stacked gate matrices, in order
_F, _I, _O, _G = range(4)


@dataclass
class LstmParams:
    """Cell parameters with the four gates row-stacked: w_u is (4*cell, in),
    w_h is (4*cell, cell), b is (4*cell,), blocks ordered (forget, input,
    output, candidate). The per-gate matrices are exposed as views."""

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

    def _block(self, m: np.ndarray, gate: int) -> np.ndarray:
        c = self.cell_dim
        return m[gate * c : (gate + 1) * c]

    # per-gate views (writable, backed by the stacked arrays)
    @property
    def w_uf(self) -> np.ndarray:
        return self._block(self.w_u, _F)

    @property
    def w_ui(self) -> np.ndarray:
        return self._block(self.w_u, _I)

    @property
    def w_uo(self) -> np.ndarray:
        return self._block(self.w_u, _O)

    @property
    def w_uc(self) -> np.ndarray:
        return self._block(self.w_u, _G)

    @property
    def w_hf(self) -> np.ndarray:
        return self._block(self.w_h, _F)

    @property
    def w_hi(self) -> np.ndarray:
        return self._block(self.w_h, _I)

    @property
    def w_ho(self) -> np.ndarray:
        return self._block(self.w_h, _O)

    @property
    def w_hc(self) -> np.ndarray:
        return self._block(self.w_h, _G)

    @property
    def b_f(self) -> np.ndarray:
        return self._block(self.b, _F)

    @property
    def b_i(self) -> np.ndarray:
        return self._block(self.b, _I)

    @property
    def b_o(self) -> np.ndarray:
        return self._block(self.b, _O)

    @property
    def b_c(self) -> np.ndarray:
        return self._block(self.b, _G)

    @classmethod
    def from_gates(
        cls,
        w_uf: np.ndarray,
        w_hf: np.ndarray,
        w_ui: np.ndarray,
        w_hi: np.ndarray,
        w_uo: np.ndarray,
        w_ho: np.ndarray,
        w_uc: np.ndarray,
        w_hc: np.ndarray,
        b_f: np.ndarray,
        b_i: np.ndarray,
        b_o: np.ndarray,
        b_c: np.ndarray,
    ) -> "LstmParams":
        return cls(
            w_u=np.concatenate([w_uf, w_ui, w_uo, w_uc], axis=0).astype(np.float64),
            w_h=np.concatenate([w_hf, w_hi, w_ho, w_hc], axis=0).astype(np.float64),
            b=np.concatenate([b_f, b_i, b_o, b_c]).astype(np.float64),
        )


@dataclass
class LstmState:
    c: np.ndarray  # cell memory, (cell,) or (B, cell)
    h: np.ndarray  # state output, same shape

    @classmethod
    def zeros(cls, cell_dim: int, batch: int | None = None) -> "LstmState":
        shape = (cell_dim,) if batch is None else (batch, cell_dim)
        return cls(c=np.zeros(shape), h=np.zeros(shape))

    def copy(self) -> "LstmState":
        return LstmState(c=self.c.copy(), h=self.h.copy())


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
    """One step of the gate recursion; returns the next state and the tape."""
    u = np.asarray(u, dtype=np.float64)
    if u.shape[-1] != p.input_dim:
        raise ShapeError(f"lstm input width {u.shape[-1]} != {p.input_dim}")
    if prev.h.shape[-1] != p.cell_dim or prev.c.shape[-1] != p.cell_dim:
        raise ShapeError("state width != cell_dim")
    cdim = p.cell_dim
    z = u @ p.w_u.T + prev.h @ p.w_h.T + p.b
    f = sigmoid(z[..., :cdim])
    i = sigmoid(z[..., cdim : 2 * cdim])
    o = sigmoid(z[..., 2 * cdim : 3 * cdim])
    g = np.tanh(z[..., 3 * cdim :])
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
    da = np.concatenate([da_f, da_i, da_o, da_g], axis=-1)

    grads = {
        "w_u": _weight_grad(da, tape.u),
        "w_h": _weight_grad(da, tape.h_prev),
        "b": _bias_grad(da),
    }
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
    value = f_value if f_value is not None else (lambda x: f(x)[0])
    numeric = np.empty_like(x0)
    x = x0.copy()
    for k in range(x0.size):
        orig = x[k]
        x[k] = orig + h
        fp = value(x)
        x[k] = orig - h
        fm = value(x)
        x[k] = orig
        numeric[k] = (fp - fm) / (2.0 * h)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-12)
    return float(np.max(np.abs(analytic - numeric) / denom))


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


def glorot_uniform(rng: np.random.Generator, out_dim: int, in_dim: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-bound, bound, size=(out_dim, in_dim))


def init_dense(rng: np.random.Generator, out_dim: int, in_dim: int) -> DenseParams:
    return DenseParams(weight=glorot_uniform(rng, out_dim, in_dim), bias=np.zeros(out_dim))


def init_lstm(rng: np.random.Generator, cell_dim: int, input_dim: int) -> LstmParams:
    """Glorot matrices per gate block; biases zero except forget gate at 1.0."""
    w_u = np.concatenate([glorot_uniform(rng, cell_dim, input_dim) for _ in range(4)], axis=0)
    w_h = np.concatenate([glorot_uniform(rng, cell_dim, cell_dim) for _ in range(4)], axis=0)
    b = np.zeros(4 * cell_dim)
    b[:cell_dim] = 1.0  # forget-gate block
    return LstmParams(w_u=w_u, w_h=w_h, b=b)
