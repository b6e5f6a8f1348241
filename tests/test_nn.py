"""Numerical core: dense/LSTM forward against independent re-implementations,
backward against finite differences, softmax contracts, gradient checker."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridcast import nn


def scalar_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class TestActivations:
    def test_sigmoid_extremes_no_overflow(self):
        out = nn.sigmoid(np.array([-1000.0, 0.0, 1000.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0 and out[1] == 0.5 and out[2] == 1.0

    def test_sigmoid_matches_direct_form(self):
        x = np.linspace(-30, 30, 101)
        assert np.allclose(nn.sigmoid(x), scalar_sigmoid(x), rtol=0, atol=1e-15)

    def test_relu(self):
        assert np.array_equal(nn.relu(np.array([-2.0, 0.0, 3.0])), [0.0, 0.0, 3.0])


class TestSoftmax:
    def test_uniform_757(self):
        probs = nn.softmax(np.zeros(757))
        assert np.allclose(probs, 1 / 757, rtol=0, atol=1e-18)

    def test_extreme_logits_stable(self):
        probs = nn.softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(probs))
        assert probs[0] == pytest.approx(1.0, abs=1e-12)

    def test_random_vs_direct_evaluation(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal(5)
        direct = np.exp(logits) / np.exp(logits).sum()
        assert np.allclose(nn.softmax(logits), direct, atol=1e-15)

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=50))
    def test_probability_vector_contract(self, logits):
        probs = nn.softmax(np.array(logits))
        assert np.all(probs >= 0)
        assert abs(probs.sum() - 1.0) < 1e-9

    @given(
        st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=20),
        st.floats(min_value=-100, max_value=100),
    )
    def test_shift_invariance(self, logits, shift):
        a = nn.softmax(np.array(logits))
        b = nn.softmax(np.array(logits) + shift)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_log_softmax_consistent(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal(20) * 10
        assert np.allclose(nn.log_softmax(logits), np.log(nn.softmax(logits)), atol=1e-12)


def dense(p, u, activation):
    out, _ = nn.dense_forward_cached(p, u, activation)
    return out


class TestDense:
    def test_identity_relu_clips(self):
        p = nn.DenseParams(weight=np.eye(2), bias=np.zeros(2))
        assert np.array_equal(dense(p, np.array([[-1.0, 2.0]]), "relu")[0], [0.0, 2.0])

    def test_zero_weight_returns_bias(self):
        p = nn.DenseParams(weight=np.zeros((3, 4)), bias=np.array([1.0, -2.0, 3.0]))
        out = dense(p, np.ones((1, 4)), "none")
        assert np.array_equal(out[0], [1.0, -2.0, 3.0])

    def test_random_case_vs_hand_product(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((3, 4))
        b = rng.standard_normal(3)
        u = rng.standard_normal((1, 4))
        expected = np.array([sum(w[i, j] * u[0, j] for j in range(4)) + b[i] for i in range(3)])
        out = dense(nn.DenseParams(w, b), u, "none")
        assert np.allclose(out[0], expected, atol=1e-12)

    def test_shape_mismatch(self):
        p = nn.DenseParams(weight=np.zeros((3, 4)), bias=np.zeros(3))
        with pytest.raises(nn.ShapeError):
            dense(p, np.zeros((1, 5)), "relu")

    def test_vector_input_rejected(self):
        p = nn.DenseParams(weight=np.zeros((3, 4)), bias=np.zeros(3))
        for u in (np.zeros(4), np.zeros((1, 1, 4))):
            with pytest.raises(nn.ShapeError, match=r"\(rows, 4\)"):
                nn.dense_forward_cached(p, u, "relu")

    def test_unknown_activation(self):
        p = nn.DenseParams(weight=np.eye(2), bias=np.zeros(2))
        with pytest.raises(ValueError, match="unknown activation"):
            dense(p, np.zeros((1, 2)), "tanh")

    def test_batched_matches_single(self):
        rng = np.random.default_rng(4)
        p = nn.init_dense(rng, 3, 4)
        u = rng.standard_normal((5, 4))
        batched = dense(p, u, "relu")
        for k in range(5):
            assert np.allclose(batched[k], dense(p, u[k : k + 1], "relu")[0], atol=1e-12)


def reference_lstm_step(p: nn.LstmParams, u, c_prev, h_prev):
    """Scalar-loop re-implementation of the gate recursion, independent of
    the vectorized path: unit k of gate G (f, i, o, g = 0..3) reads row
    G*cell + k of the stacked w_u, w_h and b."""
    cell = p.cell_dim
    z = np.empty((4, cell))
    for gate in range(4):
        for k in range(cell):
            row = gate * cell + k
            z[gate, k] = sum(p.w_u[row, j] * u[j] for j in range(len(u)))
            z[gate, k] += sum(p.w_h[row, j] * h_prev[j] for j in range(cell)) + p.b[row]
    f = np.array([scalar_sigmoid(v) for v in z[0]])
    i = np.array([scalar_sigmoid(v) for v in z[1]])
    o = np.array([scalar_sigmoid(v) for v in z[2]])
    g = np.tanh(z[3])
    c = f * c_prev + i * g
    h = o * np.tanh(c)
    return c, h, f, i, o


class TestLstmForward:
    def test_zero_params_zero_state_fixed_point(self):
        p = nn.LstmParams(w_u=np.zeros((8, 3)), w_h=np.zeros((8, 2)), b=np.zeros(8))
        state, _ = nn.lstm_forward(p, np.array([[5.0, -1.0, 2.0]]), nn.LstmState.zeros(1, 2))
        assert np.array_equal(state.c[0], [0.0, 0.0])
        assert np.array_equal(state.h[0], [0.0, 0.0])

    def test_zero_params_unit_cell(self):
        # gates 0.5 -> c = 0.5, h = 0.5 * tanh(0.5)
        p = nn.LstmParams(w_u=np.zeros((8, 3)), w_h=np.zeros((8, 2)), b=np.zeros(8))
        prev = nn.LstmState(c=np.ones((1, 2)), h=np.zeros((1, 2)))
        state, _ = nn.lstm_forward(p, np.zeros((1, 3)), prev)
        assert np.allclose(state.c, 0.5, atol=1e-15)
        assert np.allclose(state.h, 0.5 * np.tanh(0.5), atol=1e-15)
        assert state.h[0, 0] == pytest.approx(0.231059, abs=1e-6)

    def test_random_vs_scalar_loop_oracle(self):
        rng = np.random.default_rng(11)
        p = nn.init_lstm(rng, 4, 4)
        p.b[...] = rng.standard_normal(16) * 0.5
        u = rng.standard_normal((1, 4))
        prev = nn.LstmState(c=rng.standard_normal((1, 4)), h=rng.standard_normal((1, 4)))
        state, _ = nn.lstm_forward(p, u, prev)
        c_ref, h_ref, f, i, o = reference_lstm_step(p, u[0], prev.c[0], prev.h[0])
        assert np.allclose(state.c[0], c_ref, atol=1e-12)
        assert np.allclose(state.h[0], h_ref, atol=1e-12)

    def test_gate_range_and_cell_bound(self):
        rng = np.random.default_rng(12)
        p = nn.init_lstm(rng, 6, 3)
        prev = nn.LstmState(c=rng.standard_normal((1, 6)) * 3, h=rng.standard_normal((1, 6)))
        state, tape = nn.lstm_forward(p, rng.standard_normal((1, 3)) * 5, prev)
        for gate in (tape.f, tape.i, tape.o):
            assert np.all(gate > 0) and np.all(gate < 1)
        assert np.all(np.abs(state.c) <= np.abs(prev.c) + 1.0 + 1e-12)

    def test_shape_mismatch(self):
        p = nn.LstmParams(w_u=np.zeros((8, 3)), w_h=np.zeros((8, 2)), b=np.zeros(8))
        with pytest.raises(nn.ShapeError):
            nn.lstm_forward(p, np.zeros((1, 4)), nn.LstmState.zeros(1, 2))

    def test_vector_input_rejected(self):
        p = nn.LstmParams(w_u=np.zeros((8, 3)), w_h=np.zeros((8, 2)), b=np.zeros(8))
        with pytest.raises(nn.ShapeError, match=r"\(rows, 3\)"):
            nn.lstm_forward(p, np.zeros(3), nn.LstmState(c=np.zeros(2), h=np.zeros(2)))

    def test_state_rows_must_match_input_rows(self):
        # a 1-row state would otherwise broadcast against a 4-row input
        p = nn.LstmParams(w_u=np.zeros((8, 3)), w_h=np.zeros((8, 2)), b=np.zeros(8))
        for prev in (
            nn.LstmState.zeros(1, 2),
            nn.LstmState(c=np.zeros((4, 2)), h=np.zeros((1, 2))),
            nn.LstmState(c=np.zeros(2), h=np.zeros((4, 2))),
        ):
            with pytest.raises(nn.ShapeError, match=r"\(4, 2\)"):
                nn.lstm_forward(p, np.zeros((4, 3)), prev)

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(14)
        p = nn.init_lstm(rng, 8, 5)
        u = rng.standard_normal((6, 5))
        prev = nn.LstmState(c=rng.standard_normal((6, 8)), h=rng.standard_normal((6, 8)))
        s1, _ = nn.lstm_forward(p, u, prev)
        s2, _ = nn.lstm_forward(p, u, prev)
        assert np.array_equal(s1.c, s2.c) and np.array_equal(s1.h, s2.h)


def lstm_chain_loss(p, inputs, target):
    """Forward a step chain and 0.5*||h_T - target||^2 with its gradient."""
    state = nn.LstmState.zeros(1, p.cell_dim)
    tapes = []
    for t in range(inputs.shape[0]):
        state, tape = nn.lstm_forward(p, inputs[t : t + 1], state)
        tapes.append(tape)
    diff = state.h - target
    value = 0.5 * float(np.vdot(diff, diff))
    total = {"w_u": np.zeros_like(p.w_u), "w_h": np.zeros_like(p.w_h), "b": np.zeros_like(p.b)}
    dc, dh = np.zeros((1, p.cell_dim)), diff
    for t in range(len(tapes) - 1, -1, -1):
        grads, grad_prev, _ = nn.lstm_backward(p, tapes[t], dc, dh)
        for k in total:
            total[k] += grads[k]
        dc, dh = grad_prev.c, grad_prev.h
    return value, total


class TestLstmBackward:
    def test_zero_grad_in_zero_grad_out(self):
        rng = np.random.default_rng(20)
        p = nn.init_lstm(rng, 3, 2)
        state, tape = nn.lstm_forward(p, rng.standard_normal((1, 2)), nn.LstmState.zeros(1, 3))
        grads, grad_prev, grad_u = nn.lstm_backward(p, tape, np.zeros((1, 3)), np.zeros((1, 3)))
        assert all(np.all(g == 0) for g in grads.values())
        assert np.all(grad_prev.c == 0) and np.all(grad_prev.h == 0)
        assert np.all(grad_u == 0)

    def test_tape_reuse_rejected(self):
        rng = np.random.default_rng(21)
        p = nn.init_lstm(rng, 3, 2)
        _, tape = nn.lstm_forward(p, rng.standard_normal((1, 2)), nn.LstmState.zeros(1, 3))
        nn.lstm_backward(p, tape, np.zeros((1, 3)), np.zeros((1, 3)))
        with pytest.raises(RuntimeError):
            nn.lstm_backward(p, tape, np.zeros((1, 3)), np.zeros((1, 3)))

    def test_single_step_scalar_vs_finite_difference(self):
        # scalar cell: every quantity is 1-d, the cleanest oracle case
        rng = np.random.default_rng(22)
        p = nn.LstmParams(
            w_u=rng.standard_normal((4, 1)), w_h=rng.standard_normal((4, 1)),
            b=rng.standard_normal(4),
        )
        inputs = rng.standard_normal((1, 1))
        target = rng.standard_normal(1)

        def f(vec):
            p.w_u[...] = vec[:4].reshape(4, 1)
            p.w_h[...] = vec[4:8].reshape(4, 1)
            p.b[...] = vec[8:]
            value, g = lstm_chain_loss(p, inputs, target)
            return value, np.concatenate([g["w_u"].ravel(), g["w_h"].ravel(), g["b"]])

        x0 = np.concatenate([p.w_u.ravel(), p.w_h.ravel(), p.b])
        err = nn.gradient_check(f, x0, h=1e-5)
        assert err < 1e-7

    def test_five_step_bptt_vs_finite_difference(self):
        # seed 39: every gradient coordinate is >= ~4e-3, well above the
        # h=1e-5 finite-difference noise floor (~1e-10 absolute)
        rng = np.random.default_rng(39)
        p = nn.init_lstm(rng, 4, 3)
        p.b[...] = rng.uniform(-0.5, 0.5, size=p.b.shape)
        inputs = rng.standard_normal((5, 3))
        target = rng.standard_normal(4)
        sizes = [p.w_u.size, p.w_h.size, p.b.size]

        def f(vec):
            parts = np.split(vec, np.cumsum(sizes)[:-1])
            p.w_u[...] = parts[0].reshape(p.w_u.shape)
            p.w_h[...] = parts[1].reshape(p.w_h.shape)
            p.b[...] = parts[2]
            value, g = lstm_chain_loss(p, inputs, target)
            return value, np.concatenate([g["w_u"].ravel(), g["w_h"].ravel(), g["b"]])

        x0 = np.concatenate([p.w_u.ravel(), p.w_h.ravel(), p.b])
        _, g0 = f(x0)
        assert np.min(np.abs(g0)) > 1e-4, "check point degenerate for the FD oracle"
        err = nn.gradient_check(f, x0, h=1e-5)
        assert err < 1e-6

    def test_batched_backward_matches_sum_of_singles(self):
        rng = np.random.default_rng(23)
        p = nn.init_lstm(rng, 4, 3)
        u = rng.standard_normal((5, 3))
        prev = nn.LstmState(c=rng.standard_normal((5, 4)), h=rng.standard_normal((5, 4)))
        state, tape = nn.lstm_forward(p, u, prev)
        dc = rng.standard_normal((5, 4))
        dh = rng.standard_normal((5, 4))
        grads, grad_prev, grad_u = nn.lstm_backward(p, tape, dc, dh)
        acc = {k: np.zeros_like(v) for k, v in grads.items()}
        for b in range(5):
            rows = slice(b, b + 1)
            sb, tb = nn.lstm_forward(p, u[rows], nn.LstmState(c=prev.c[rows], h=prev.h[rows]))
            gb, gp, gu = nn.lstm_backward(p, tb, dc[rows], dh[rows])
            for k in acc:
                acc[k] += gb[k]
            assert np.allclose(gp.c[0], grad_prev.c[b], atol=1e-12)
            assert np.allclose(gu[0], grad_u[b], atol=1e-12)
        for k in acc:
            assert np.allclose(acc[k], grads[k], atol=1e-12)


class TestGradientCheck:
    def test_quadratic_exact(self):
        a = np.diag([2.0, 3.0, 5.0])
        b = np.array([1.0, -2.0, 0.5])

        def f(x):
            return 0.5 * float(x @ a @ x) + float(b @ x), a @ x + b

        err = nn.gradient_check(f, np.array([0.3, -1.2, 2.0]), h=1e-5)
        assert err < 1e-10

    def test_truncation_error_decreases_with_h(self):
        # cubic has nonzero third derivative: error ~ h^2
        def f(x):
            return float(np.sum(x**3)) + float(np.sum(x)), 3 * x**2 + 1

        x0 = np.array([0.7, -0.4, 1.1])
        errs = [nn.gradient_check(f, x0, h=h) for h in (1e-1, 1e-2, 1e-3, 1e-5)]
        assert errs[0] > errs[1] > errs[2] > errs[3]

    def test_detects_wrong_gradient(self):
        def f(x):
            return float(np.sum(x**2)), 2 * x * 1.001  # 0.1% off

        err = nn.gradient_check(f, np.array([1.0, 2.0]), h=1e-5)
        assert err > 1e-4


@settings(deadline=None, max_examples=25)
@given(
    cell=st.integers(min_value=1, max_value=6),
    dim=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_forward_matches_scalar_oracle(cell, dim, seed):
    rng = np.random.default_rng(seed)
    p = nn.init_lstm(rng, cell, dim)
    p.b[...] = rng.standard_normal(4 * cell) * 0.3
    u = rng.standard_normal((1, dim))
    prev = nn.LstmState(c=rng.standard_normal((1, cell)), h=rng.standard_normal((1, cell)))
    state, _ = nn.lstm_forward(p, u, prev)
    c_ref, h_ref, *_ = reference_lstm_step(p, u[0], prev.c[0], prev.h[0])
    assert np.allclose(state.c[0], c_ref, atol=1e-12)
    assert np.allclose(state.h[0], h_ref, atol=1e-12)


def _central_differences(f_value, x0, h=1e-5):
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
    return numeric


def test_dense_backward_vs_finite_difference():
    rng = np.random.default_rng(50)
    p = nn.DenseParams(weight=rng.standard_normal((3, 4)) * 0.5, bias=rng.uniform(0.1, 0.5, 3))
    u = rng.standard_normal((1, 4))
    target = rng.standard_normal((1, 3))

    def f(vec):
        p.weight[...] = vec[:12].reshape(3, 4)
        p.bias[...] = vec[12:]
        out, tape = nn.dense_forward_cached(p, u, "relu")
        diff = out - target
        grads, _ = nn.dense_backward(p, tape, diff)
        return 0.5 * float(np.vdot(diff, diff)), np.concatenate([grads["weight"].ravel(), grads["bias"]])

    x0 = np.concatenate([p.weight.ravel(), p.bias])
    assert abs(f(x0)[0]) > 0  # sanity: not at the minimum
    err = nn.gradient_check(f, x0, h=1e-5)
    assert err < 1e-6


@settings(deadline=None, max_examples=12)
@given(
    cell=st.integers(min_value=1, max_value=4),
    dim=st.integers(min_value=1, max_value=3),
    steps=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_bptt_gradients_match_finite_differences(cell, dim, steps, seed):
    """Analytic gradients within 1e-6 of central differences at h=1e-5 over
    random small shapes, relative to the gradient scale (per-coordinate
    ratios are finite-difference-noise-bound on near-zero coordinates)."""
    rng = np.random.default_rng(seed)
    p = nn.init_lstm(rng, cell, dim)
    p.b[...] = rng.uniform(-0.5, 0.5, size=4 * cell)
    inputs = rng.standard_normal((steps, dim))
    target = rng.standard_normal(cell)
    sizes = [p.w_u.size, p.w_h.size, p.b.size]

    def assemble(vec):
        parts = np.split(vec, np.cumsum(sizes)[:-1])
        p.w_u[...] = parts[0].reshape(p.w_u.shape)
        p.w_h[...] = parts[1].reshape(p.w_h.shape)
        p.b[...] = parts[2]

    def f_value(vec):
        assemble(vec)
        value, _ = lstm_chain_loss(p, inputs, target)
        return value

    x0 = np.concatenate([p.w_u.ravel(), p.w_h.ravel(), p.b])
    _, grads = lstm_chain_loss(p, inputs, target)
    analytic = np.concatenate([grads["w_u"].ravel(), grads["w_h"].ravel(), grads["b"]])
    numeric = _central_differences(f_value, x0)
    scale = max(float(np.max(np.abs(analytic))), 1e-12)
    assert float(np.max(np.abs(analytic - numeric))) / scale < 1e-6
