"""The ``gridcast verify`` battery: fast correctness checks of the gradients,
beam search, grid quantization, softmax and the Kalman baseline, plus the
flat-parameter views of the training loss that a finite-difference gradient
check perturbs.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from . import kalman, nn, ogm, seq2seq, training

__all__ = ["get_flat_params", "set_flat_params", "flatten_grads", "make_loss_fn", "run_battery"]


# ---------------------------------------------------------------------------
# flat-parameter views of the training loss
# ---------------------------------------------------------------------------


def get_flat_params(params: seq2seq.ModelParams) -> np.ndarray:
    return np.concatenate([a.ravel() for _, a in params.param_items()])


def set_flat_params(params: seq2seq.ModelParams, vec: np.ndarray) -> None:
    offset = 0
    for _, a in params.param_items():
        a[...] = vec[offset : offset + a.size].reshape(a.shape)
        offset += a.size
    if offset != vec.size:
        raise ValueError(f"flat vector has {vec.size} entries, params need {offset}")


def flatten_grads(params: seq2seq.ModelParams, grads: dict[str, np.ndarray]) -> np.ndarray:
    return np.concatenate([grads[name].ravel() for name, _ in params.param_items()])


def make_loss_fn(params: seq2seq.ModelParams, examples: list[training.TrainingExample]):
    """Flat-vector views of the NLL for the finite-difference gradient
    checker: (loss-and-gradient function, cheaper value-only function)."""

    def f(vec: np.ndarray) -> tuple[float, np.ndarray]:
        set_flat_params(params, vec)
        loss, grads = training.nll_loss(params, examples)
        return loss, flatten_grads(params, grads)

    def f_value(vec: np.ndarray) -> float:
        set_flat_params(params, vec)
        loss, _ = training.nll_loss(params, examples, with_grads=False)
        return loss

    return f, f_value


# ---------------------------------------------------------------------------
# verification battery
# ---------------------------------------------------------------------------


def _tiny_model(cell_dim=4, q_w=4, q_l=3, obs_len=3, horizon=2, seed=0, beam_width=4):
    config = seq2seq.ModelConfig(
        cell_dim=cell_dim, grid=ogm.GridSpec.custom(q_w, q_l), obs_len=obs_len, horizon=horizon, beam_width=beam_width
    )
    params = seq2seq.init_model_params(config, seed=seed)
    return config, params


def _check_lstm_gradient(perturb: float) -> tuple[bool, str]:
    # seed chosen so every gradient coordinate is large enough for the
    # finite-difference oracle (its absolute noise floor is ~1e-10 at h=1e-5)
    rng = np.random.default_rng(39)
    cell, dim, steps = 4, 3, 5
    p = nn.init_lstm(rng, cell, dim)
    p.b[...] = rng.uniform(-0.5, 0.5, size=p.b.shape)
    inputs = rng.standard_normal((steps, 1, dim))
    target = rng.standard_normal((1, cell))
    shapes = [("w_u", p.w_u.shape), ("w_h", p.w_h.shape), ("b", p.b.shape)]
    sizes = [int(np.prod(s)) for _, s in shapes]

    def f(vec):
        offset = 0
        for (name, shape), size in zip(shapes, sizes):
            getattr(p, name)[...] = vec[offset : offset + size].reshape(shape)
            offset += size
        state = nn.LstmState.zeros(1, cell)
        tapes = []
        for t in range(steps):
            state, tape = nn.lstm_forward(p, inputs[t], state)
            tapes.append(tape)
        diff = state.h - target
        value = 0.5 * float(np.vdot(diff, diff))
        grads_total = {name: np.zeros(shape) for name, shape in shapes}
        dc, dh = np.zeros((1, cell)), diff
        for t in range(steps - 1, -1, -1):
            cell_grads, grad_prev, _ = nn.lstm_backward(p, tapes[t], dc, dh)
            for name, _ in shapes:
                grads_total[name] += cell_grads[name]
            dc, dh = grad_prev.c, grad_prev.h
        flat = np.concatenate([grads_total[name].ravel() for name, _ in shapes])
        if perturb:
            flat = flat * (1.0 + perturb)
        return value, flat

    x0 = np.concatenate([getattr(p, name).ravel() for name, _ in shapes])
    _, g0 = f(x0)
    if float(np.min(np.abs(g0))) < 1e-4:
        return False, "degenerate check point (tiny gradient coordinate)"
    err = nn.gradient_check(f, x0, h=1e-5)
    return err < 1e-6, f"max relative error {err:.3e}"


def _check_full_model_gradient() -> tuple[bool, str]:
    config, params = _tiny_model(cell_dim=4, q_w=4, q_l=3, obs_len=2, horizon=2, seed=3)
    rng = np.random.default_rng(11)
    # randomize every tensor (positive biases keep relu units and gates live)
    for name, a in params.param_items():
        if name.endswith(".bias") or name.endswith(".b"):
            a[...] = rng.uniform(0.05, 0.4, size=a.shape)
        else:
            a[...] = rng.uniform(-0.4, 0.4, size=a.shape)
    examples = [
        training.TrainingExample(
            inputs=rng.standard_normal((config.obs_len, 6)),
            labels=rng.integers(1, config.num_classes + 1, size=config.horizon),
        )
        for _ in range(2)
    ]
    f, f_value = make_loss_fn(params, examples)
    x0 = get_flat_params(params)
    _, analytic = f(x0)
    numeric = nn.central_differences(f_value, x0, 1e-5)
    err = float(np.max(np.abs(analytic - numeric)) / np.max(np.abs(analytic)))
    return err < 1e-6, f"max error relative to gradient scale {err:.3e}"


def _check_beam_exhaustive() -> tuple[bool, str]:
    config, params = _tiny_model(cell_dim=4, q_w=3, q_l=1, obs_len=3, horizon=3, seed=5, beam_width=64)
    rng = np.random.default_rng(5)
    for name, a in params.param_items():
        a[...] = rng.uniform(-0.4, 0.4, size=a.shape)
    summary = seq2seq.encode(params, rng.standard_normal((config.obs_len, 6)))
    result = seq2seq.beam_search_decode(params, summary, beam_width=64, horizon=3)

    scored = []
    for seq in product(range(1, config.num_classes + 1), repeat=3):
        state = seq2seq.decoder_initial_state(params, summary)
        u = seq2seq.start_input(params, 1)
        lp = 0.0
        for q in seq:
            logits, state, _ = seq2seq.decode_core(params, state, u, False, row_exact=True)
            lp += float(nn.log_softmax(logits)[0, q - 1])
            u = seq2seq.embed_tokens(params, np.array([q]))
        scored.append((list(seq), lp))
    scored.sort(key=lambda item: -item[1])
    ok, lp_err = _same_ranking(
        [(h.sequence, h.log_prob) for h in result.hypotheses], scored
    )
    return ok and lp_err < 1e-9, f"ranking match {ok}, log-prob error {lp_err:.3e}"


def _same_ranking(got, expected) -> tuple[bool, float]:
    """Orderings agree by score; exactly-tied scores compare as sets."""
    if len(got) != len(expected):
        return False, math.inf
    lp_err = max(abs(g[1] - e[1]) for g, e in zip(got, expected))

    def groups(items):
        out, current, score = [], [], None
        for seq, lp in items:
            if score is None or lp == score:
                current.append(tuple(seq))
            else:
                out.append(set(current))
                current = [tuple(seq)]
            score = lp
        if current:
            out.append(set(current))
        return out

    return groups(got) == groups(expected), lp_err


def _check_beam_greedy_equivalence() -> tuple[bool, str]:
    mismatches = 0
    for seed in range(20):
        config, params = _tiny_model(cell_dim=4, q_w=4, q_l=3, obs_len=3, horizon=4, seed=seed)
        rng = np.random.default_rng(100 + seed)
        summary = seq2seq.encode(params, rng.standard_normal((config.obs_len, 6)))
        greedy = seq2seq.greedy_decode(params, summary)
        beam = seq2seq.beam_search_decode(params, summary, beam_width=1).hypotheses[0]
        if greedy.sequence != beam.sequence or greedy.log_prob != beam.log_prob:
            mismatches += 1
    return mismatches == 0, f"{mismatches} mismatches over 20 models"


def _check_quantize_roundtrip() -> tuple[bool, str]:
    grid = ogm.GridSpec()
    bad = 0
    for q in range(1, grid.num_classes + 1):
        cell = ogm.unflatten(q, grid)
        if ogm.flatten(cell, grid) != q:
            bad += 1
        if cell.in_map:
            x, y = ogm.cell_center(cell, grid)
            if ogm.quantize(x, y, grid) != cell:
                bad += 1
    edge_cases = [
        ((2.0, 0.0), ogm.GridCell(1, 11)),
        ((185.0, 0.0), ogm.OUT_OF_MAP),
        ((0.0, -9.1875), ogm.GridCell(1, 1)),
        ((0.0, 9.2), ogm.GridCell(1, 21)),
        ((180.0, 0.0), ogm.OUT_OF_MAP),
    ]
    for (x, y), expected in edge_cases:
        if ogm.quantize(x, y, grid) != expected:
            bad += 1
    return bad == 0, f"{bad} failures over {grid.num_classes} classes + edges"


def _check_softmax() -> tuple[bool, str]:
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        logits = rng.standard_normal(757) * rng.uniform(0.1, 50)
        probs = nn.softmax(logits)
        worst = max(worst, abs(float(probs.sum()) - 1.0))
        if probs.min() < 0:
            return False, "negative probability"
        shifted = nn.softmax(logits + 123.456)
        worst = max(worst, float(np.max(np.abs(shifted - probs))))
    big = nn.softmax(np.array([1000.0, 0.0]))
    if not np.isfinite(big).all():
        return False, "overflow on extreme logits"
    return worst < 1e-9, f"max deviation {worst:.3e}"


def _check_kalman_cv() -> tuple[bool, str]:
    grid = ogm.GridSpec()
    model = kalman.CvModel()
    x0, y0, vx, vy = 30.0, -1.0, 8.0, 0.4
    t = np.arange(30) * seq2seq.FRAME_DT
    frames = np.column_stack(
        [np.full(30, 25.0), np.zeros(30), x0 + vx * t, y0 + vy * t, np.full(30, vx), np.full(30, vy)]
    )
    forecast = kalman.kf_forecast(frames, model, horizon=10, grid=grid)
    truth = []
    for j in range(1, 11):
        tj = t[-1] + seq2seq.FRAME_DT * seq2seq.LABEL_STRIDE * j
        truth.append(ogm.flatten(ogm.quantize(x0 + vx * tj, y0 + vy * tj, grid), grid))
    ok = forecast == truth
    return ok, "forecast equals ground truth" if ok else f"mismatch {forecast} vs {truth}"


def run_battery(grad_perturbation: float = 0.0) -> int:
    """Fast correctness battery; grad_perturbation is a negative-control hook
    that corrupts the analytic LSTM gradient by the given relative amount."""
    checks = [
        ("lstm-bptt-gradient-vs-finite-difference", lambda: _check_lstm_gradient(grad_perturbation)),
        ("full-model-gradient-vs-finite-difference", _check_full_model_gradient),
        ("beam-search-vs-exhaustive-enumeration", _check_beam_exhaustive),
        ("beam-width-1-equals-greedy", _check_beam_greedy_equivalence),
        ("grid-quantization-roundtrip", _check_quantize_roundtrip),
        ("softmax-probability-contract", _check_softmax),
        ("kalman-constant-velocity-exactness", _check_kalman_cv),
    ]
    failures = 0
    for name, fn in checks:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"{status} {name}: {detail}")
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 0 if failures == 0 else 1
