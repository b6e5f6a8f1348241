"""Top-N MAE: hand-evaluated cases, monotonicity in the candidate count,
coordinate decompositions, exclusion handling, report rendering."""

import math

import numpy as np
import pytest

from gridcast.metrics import EvalConfig, evaluate, render_report, score_classes, score_predictions, top_omega_mae
from gridcast.ogm import GridCell, GridSpec, flatten, unflatten
from gridcast.seq2seq import BeamHypothesis, TrajectoryPrediction
from gridcast.training import TrainingExample

GRID = GridSpec()


def prediction(*sequences, log_probs=None):
    """Hypotheses from (w, l) tuples (None for out-of-map), ranked in order."""
    hyps = []
    for k, seq in enumerate(sequences):
        flat = [flatten(GridCell(*c) if c is not None else GridCell(0, 0), GRID) for c in seq]
        lp = -float(k) if log_probs is None else log_probs[k]
        hyps.append(BeamHypothesis(sequence=flat, log_prob=lp))
    return TrajectoryPrediction(hypotheses=hyps)


def truth(*cells):
    return np.array([flatten(GridCell(*c) if c is not None else GridCell(0, 0), GRID) for c in cells])


class TestTopOmegaMae:
    def test_perfect_prediction_zero(self):
        preds = [prediction([(5, 10), (6, 10)]) for _ in range(4)]
        truths = [truth((5, 10), (6, 10)) for _ in range(4)]
        for step in (1, 2):
            res = top_omega_mae(preds, truths, 1, step, GRID)
            assert (res.mae, res.mae_x, res.mae_y) == (0.0, 0.0, 0.0)
            assert res.n_evaluated == 4

    def test_one_longitudinal_cell_offset(self):
        preds = [prediction([(6, 10)]) for _ in range(3)]
        truths = [truth((5, 10)) for _ in range(3)]
        res = top_omega_mae(preds, truths, 1, 1, GRID)
        assert (res.mae, res.mae_x, res.mae_y) == (1.0, 1.0, 0.0)

    def test_min_over_candidates(self):
        # candidate A offset (3, 0), candidate B offset (0, 1): B is closer
        preds = [prediction([(8, 10)], [(5, 11)])]
        truths = [truth((5, 10))]
        res = top_omega_mae(preds, truths, 2, 1, GRID)
        assert res.mae == 1.0
        assert (res.mae_x, res.mae_y) == (0.0, 1.0)

    def test_omega_one_ignores_lower_ranked(self):
        preds = [prediction([(8, 10)], [(5, 10)])]
        truths = [truth((5, 10))]
        res = top_omega_mae(preds, truths, 1, 1, GRID)
        assert res.mae == 3.0

    def test_euclidean_distance(self):
        preds = [prediction([(8, 14)])]
        truths = [truth((5, 10))]
        res = top_omega_mae(preds, truths, 1, 1, GRID)
        assert res.mae == pytest.approx(math.hypot(3, 4))
        assert (res.mae_x, res.mae_y) == (3.0, 4.0)

    def test_truth_out_of_map_excluded_and_tallied(self):
        preds = [prediction([(5, 10)]), prediction([(5, 10)])]
        truths = [truth((5, 10)), truth(None)]
        res = top_omega_mae(preds, truths, 1, 1, GRID)
        assert res.n_evaluated == 1
        assert res.n_truth_out_of_map == 1
        assert res.mae == 0.0

    def test_out_of_map_candidate_skipped_in_min(self):
        preds = [prediction([None], [(6, 10)])]
        truths = [truth((5, 10))]
        res = top_omega_mae(preds, truths, 2, 1, GRID)
        assert res.mae == 1.0

    def test_all_candidates_out_of_map_excluded(self):
        preds = [prediction([None], [None]), prediction([(5, 10)], [(6, 10)])]
        truths = [truth((5, 10)), truth((5, 10))]
        res = top_omega_mae(preds, truths, 2, 1, GRID)
        assert res.n_evaluated == 1
        assert res.n_no_candidate == 1

    def test_monotone_in_omega(self):
        rng = np.random.default_rng(0)
        preds, truths = [], []
        for _ in range(40):
            seqs = [[(int(rng.integers(1, 37)), int(rng.integers(1, 22)))] for _ in range(5)]
            preds.append(prediction(*seqs))
            truths.append(truth((int(rng.integers(1, 37)), int(rng.integers(1, 22)))))
        maes = [top_omega_mae(preds, truths, om, 1, GRID).mae for om in (1, 3, 5)]
        assert maes[0] >= maes[1] >= maes[2]

    def test_mae_dominates_coordinates(self):
        rng = np.random.default_rng(1)
        preds, truths = [], []
        for _ in range(30):
            seqs = [[(int(rng.integers(1, 37)), int(rng.integers(1, 22)))] for _ in range(3)]
            preds.append(prediction(*seqs))
            truths.append(truth((int(rng.integers(1, 37)), int(rng.integers(1, 22)))))
        res = top_omega_mae(preds, truths, 3, 1, GRID)
        assert res.mae >= res.mae_x
        assert res.mae >= res.mae_y

    def test_order_invariance(self):
        rng = np.random.default_rng(2)
        preds, truths = [], []
        for _ in range(20):
            seqs = [[(int(rng.integers(1, 37)), int(rng.integers(1, 22)))] for _ in range(2)]
            preds.append(prediction(*seqs))
            truths.append(truth((int(rng.integers(1, 37)), int(rng.integers(1, 22)))))
        a = top_omega_mae(preds, truths, 2, 1, GRID)
        b = top_omega_mae(list(reversed(preds)), list(reversed(truths)), 2, 1, GRID)
        assert a.mae == pytest.approx(b.mae, abs=1e-12)

    def test_whole_trajectory_selection_sticks_to_one_hypothesis(self):
        # hypothesis 0: perfect at step 1, 5 cells off at step 2
        # hypothesis 1: 1 cell off at both steps -> better overall
        preds = [prediction([(5, 10), (10, 10)], [(6, 10), (6, 10)])]
        truths = [truth((5, 10), (5, 10))]
        per_step_1 = top_omega_mae(preds, truths, 2, 1, GRID, selection="per_step")
        whole_1 = top_omega_mae(preds, truths, 2, 1, GRID, selection="whole_trajectory")
        assert per_step_1.mae == 0.0  # free to pick hypothesis 0 at step 1
        assert whole_1.mae == 1.0  # stuck with overall-best hypothesis 1

    def test_step_bounds_checked(self):
        preds = [prediction([(5, 10)])]
        truths = [truth((5, 10))]
        with pytest.raises(ValueError):
            top_omega_mae(preds, truths, 1, 2, GRID)

    def test_top_1_equals_plain_top_hypothesis_error(self):
        # definitional: omega=1 is the distance of the highest-ranked
        # hypothesis, no min involved
        rng = np.random.default_rng(4)
        preds, truths, direct = [], [], []
        for _ in range(25):
            top = (int(rng.integers(1, 37)), int(rng.integers(1, 22)))
            other = (int(rng.integers(1, 37)), int(rng.integers(1, 22)))
            gt = (int(rng.integers(1, 37)), int(rng.integers(1, 22)))
            preds.append(prediction([top], [other]))
            truths.append(truth(gt))
            direct.append(math.hypot(top[0] - gt[0], top[1] - gt[1]))
        res = top_omega_mae(preds, truths, 1, 1, GRID)
        assert res.mae == pytest.approx(np.mean(direct), abs=1e-12)


class TestIndexArrayScoring:
    """Hand-computed cases for the array scorer's tie, padding and
    exclusion rules."""

    def test_equal_distance_tie_keeps_first_ranked(self):
        # both candidates are 3 cells away; the first-ranked one sets the
        # coordinate errors
        preds = [prediction([(8, 10)], [(5, 13)]), prediction([(5, 13)], [(8, 10)])]
        truths = [truth((5, 10)), truth((5, 10))]
        res = top_omega_mae(preds, truths, 2, 1, GRID)
        assert (res.mae, res.mae_x, res.mae_y) == (3.0, 1.5, 1.5)
        first = top_omega_mae(preds[:1], truths[:1], 2, 1, GRID)
        assert (first.mae_x, first.mae_y) == (3.0, 0.0)

    def test_fewer_hypotheses_than_omega(self):
        # one example with a single hypothesis, one with two, omega 3
        preds = [prediction([(7, 10)]), prediction([(9, 10)], [(5, 12)])]
        truths = [truth((5, 10)), truth((5, 10))]
        res = top_omega_mae(preds, truths, 3, 1, GRID)
        assert res.mae == 2.0 and res.n_evaluated == 2
        whole = top_omega_mae(preds, truths, 3, 1, GRID, selection="whole_trajectory")
        assert whole.mae == 2.0

    def test_whole_trajectory_no_comparable_step_picks_first(self):
        # truth out of map at step 1, both candidates out of map at step 2:
        # no hypothesis has a comparable step, so the first one is kept
        preds = [prediction([(5, 10), None], [(9, 10), None])]
        truths = [truth(None, (5, 10))]
        res = top_omega_mae(preds, truths, 2, 2, GRID, selection="whole_trajectory")
        assert (res.n_evaluated, res.n_truth_out_of_map, res.n_no_candidate) == (0, 0, 1)
        assert math.isnan(res.mae)
        step1 = top_omega_mae(preds, truths, 2, 1, GRID, selection="whole_trajectory")
        assert (step1.n_evaluated, step1.n_truth_out_of_map) == (0, 1)

    def test_whole_trajectory_mean_over_comparable_steps(self):
        # hypothesis 0: distances (0, 4) -> mean 2; hypothesis 1: (1, out of
        # map) -> mean 1 over its single comparable step, so it is picked
        preds = [prediction([(5, 10), (9, 10)], [(6, 10), None])]
        truths = [truth((5, 10), (5, 10))]
        step1 = top_omega_mae(preds, truths, 2, 1, GRID, selection="whole_trajectory")
        assert step1.mae == 1.0
        step2 = top_omega_mae(preds, truths, 2, 2, GRID, selection="whole_trajectory")
        assert (step2.n_evaluated, step2.n_no_candidate) == (0, 1)

    def test_report_exclusions_and_values(self):
        preds = [
            prediction([(5, 10), (5, 10)], [(6, 11), (6, 11)]),
            prediction([None, (8, 14)], [None, None]),
        ]
        truths = [truth((5, 10), (6, 10)), truth((5, 10), None)]
        cfg = EvalConfig(omegas=(1, 2), horizons_s=(0.2, 0.4))
        report = score_predictions(preds, truths, cfg, GRID)
        # step 1: example 0 exact, example 1 has no in-map candidate
        assert report.value("MAE", 1, 0.2) == 0.0
        assert report.excluded[(1, 0.2)] == (0, 1)
        # step 2: example 0's candidates (5, 10) and (6, 11) are both one
        # cell from (6, 10), and the first-ranked sets the coordinate errors;
        # example 1's truth is out of map
        for omega in (1, 2):
            assert report.value("MAE", omega, 0.4) == 1.0
            assert (report.value("MAE_X", omega, 0.4), report.value("MAE_Y", omega, 0.4)) == (1.0, 0.0)
        assert report.excluded[(2, 0.4)] == (1, 0)
        assert report.counts[(2, 0.4)] == 1

    def test_score_predictions_equals_evaluate(self):
        rng = np.random.default_rng(9)
        examples, preds = [], []
        for _ in range(12):
            cells = [[(int(rng.integers(1, 37)), int(rng.integers(1, 22))) for _ in range(10)] for _ in range(5)]
            preds.append(prediction(*cells))
            labels = truth(*[(int(rng.integers(1, 37)), int(rng.integers(1, 22))) for _ in range(10)])
            examples.append(TrainingExample(inputs=np.zeros((4, 6)), labels=labels))
        for selection in ("per_step", "whole_trajectory"):
            cfg = EvalConfig(selection=selection)
            by_fn = evaluate(lambda x, it=iter(preds): next(it), examples, cfg, GRID)
            direct = score_predictions(preds, [ex.labels for ex in examples], cfg, GRID)
            assert by_fn.values == direct.values
            assert by_fn.excluded == direct.excluded

    def test_score_classes_equals_score_predictions(self):
        rng = np.random.default_rng(10)
        classes = rng.integers(1, GRID.num_classes + 1, size=(9, 5, 10))
        truths = rng.integers(1, GRID.num_classes + 1, size=(9, 10))
        preds = [TrajectoryPrediction([BeamHypothesis(q, 0.0) for q in row]) for row in classes.tolist()]
        for selection in ("per_step", "whole_trajectory"):
            cfg = EvalConfig(omegas=(1, 3), selection=selection)
            by_array = score_classes(classes, truths, cfg, GRID, label="x")
            assert render_report(by_array) == render_report(score_predictions(preds, list(truths), cfg, GRID, label="x"))
        with pytest.raises(ValueError, match="need 5 hypotheses per prediction, got 3"):
            score_classes(classes[:, :3], truths, EvalConfig(), GRID)
        with pytest.raises(ValueError, match="pair up"):
            score_classes(classes[:4], truths, EvalConfig(), GRID)
        with pytest.raises(ValueError, match=r"expected \(N, K, H\) hypothesis classes, got shape \(9, 10\)"):
            score_classes(classes[:, 0], truths, EvalConfig(omegas=(1,)), GRID)

    def test_ragged_hypotheses_rejected(self):
        preds = [prediction([(5, 10), (5, 10)], [(5, 10)])]
        with pytest.raises(ValueError, match="span"):
            top_omega_mae(preds, [truth((5, 10), (5, 10))], 2, 1, GRID)


def loop_top_omega_mae(predictions, truths, omega, step, grid, selection):
    """Reference scorer: per-example Python loops over GridCell objects."""

    def cells(seq):
        return [(c.w, c.l) if c.in_map else None for c in (unflatten(int(q), grid) for q in seq)]

    def whole_pick(hyps, truth):
        best, best_score = cells(hyps[0].sequence), math.inf
        for h in hyps:
            d = [
                math.hypot(c[0] - t.w, c[1] - t.l)
                for c, t in zip(cells(h.sequence), (unflatten(int(q), grid) for q in truth))
                if c is not None and t.in_map
            ]
            score = sum(d) / len(d) if d else math.inf
            if score < best_score:
                best, best_score = cells(h.sequence), score
        return best

    picked, truth_oom, no_candidate = [], 0, 0
    for pred, truth in zip(predictions, truths):
        hyps = pred.hypotheses[:omega]
        t = unflatten(int(truth[step - 1]), grid)
        if not t.in_map:
            truth_oom += 1
            continue
        if selection == "per_step":
            candidates = [cells(h.sequence)[step - 1] for h in hyps]
        else:
            candidates = [whole_pick(hyps, truth)[step - 1]]
        best = None
        for c in candidates:
            if c is not None:
                d = math.hypot(c[0] - t.w, c[1] - t.l)
                if best is None or d < best[0]:
                    best = (d, abs(c[0] - t.w), abs(c[1] - t.l))
        if best is None:
            no_candidate += 1
        else:
            picked.append(best)
    n = len(picked)
    means = [sum(col) / n for col in zip(*picked)] if n else [math.nan] * 3
    return means, n, truth_oom, no_candidate


@pytest.mark.parametrize("selection", ["per_step", "whole_trajectory"])
def test_array_scorer_matches_loop_reference(selection):
    # a 4 x 3 grid makes out-of-map candidates and truths and exact distance
    # ties common
    grid = GridSpec.custom(4, 3)
    rng = np.random.default_rng(17)
    for _ in range(30):
        n, k, h = int(rng.integers(1, 8)), int(rng.integers(1, 5)), int(rng.integers(1, 4))
        preds = [
            TrajectoryPrediction(
                hypotheses=[
                    BeamHypothesis(sequence=rng.integers(1, grid.num_classes + 1, size=h).tolist(), log_prob=0.0)
                    for _ in range(int(rng.integers(1, k + 1)))
                ]
            )
            for _ in range(n)
        ]
        truths = [rng.integers(1, grid.num_classes + 1, size=h) for _ in range(n)]
        for omega in range(1, k + 1):
            for step in range(1, h + 1):
                got = top_omega_mae(preds, truths, omega, step, grid, selection)
                means, count, truth_oom, no_candidate = loop_top_omega_mae(preds, truths, omega, step, grid, selection)
                assert (got.n_evaluated, got.n_truth_out_of_map, got.n_no_candidate) == (count, truth_oom, no_candidate)
                np.testing.assert_allclose([got.mae, got.mae_x, got.mae_y], means, rtol=0, atol=1e-12)


class TestEvalConfig:
    def test_default_steps(self):
        cfg = EvalConfig()
        assert cfg.horizon_steps() == [2, 4, 6, 8, 10]

    def test_non_multiple_horizon_rejected(self):
        with pytest.raises(ValueError):
            EvalConfig(horizons_s=(0.5,))

    def test_bad_selection_rejected(self):
        with pytest.raises(ValueError):
            EvalConfig(selection="nearest")


class TestEvaluate:
    def fake_examples(self, n=6):
        rng = np.random.default_rng(3)
        examples = []
        for _ in range(n):
            labels = truth(*[(int(rng.integers(1, 37)), int(rng.integers(1, 22))) for _ in range(10)])
            examples.append(TrainingExample(inputs=np.zeros((4, 6)), labels=labels))
        return examples

    def predictor(self, inputs):
        seq = [(5 + j, 10) for j in range(10)]
        other = [(20, 5)] * 10
        return prediction(seq, other, seq, other, seq)

    def test_report_covers_full_table(self):
        cfg = EvalConfig(omegas=(1, 3, 5))
        report = evaluate(self.predictor, self.fake_examples(), cfg, GRID)
        assert len(report.values) == 3 * 3 * 5  # metric x omega x horizon
        for om in (1, 3, 5):
            for h in cfg.horizons_s:
                assert report.value("MAE", om, h) >= report.value("MAE_X", om, h)

    def test_monotone_in_omega_everywhere(self):
        report = evaluate(self.predictor, self.fake_examples(), EvalConfig(), GRID)
        for h in report.horizons_s:
            seq = [report.value("MAE", om, h) for om in (1, 3, 5)]
            assert seq[0] >= seq[1] >= seq[2]

    def test_empty_test_set_rejected(self):
        with pytest.raises(ValueError):
            evaluate(self.predictor, [], EvalConfig(), GRID)

    def test_too_few_hypotheses_rejected(self):
        def thin_predictor(inputs):
            return prediction([(5, 10)] * 10)

        with pytest.raises(ValueError):
            evaluate(thin_predictor, self.fake_examples(), EvalConfig(omegas=(1, 3)), GRID)


class TestRenderReport:
    def make_report(self):
        return evaluate(
            lambda inputs: prediction([(5, 10)] * 10, [(6, 10)] * 10, [(7, 10)] * 10),
            [TrainingExample(inputs=np.zeros((4, 6)), labels=truth(*[(5, 10)] * 10))],
            EvalConfig(omegas=(1, 3)),
            GRID,
        )

    def test_zero_error_renders_zeros(self):
        text, series = render_report(self.make_report())
        assert "0.00" in text
        assert "MAE (grids)" in text and "MAE_X" in text and "MAE_Y" in text

    def test_series_row_count(self):
        report = self.make_report()
        _, series = render_report(report)
        lines = series.strip().split("\n")
        # header + |metrics| * |omegas| * (|horizons| + 1 average row)
        assert len(lines) == 1 + 3 * 2 * (5 + 1)

    def test_average_rows_match_mean(self):
        report = self.make_report()
        _, series = render_report(report)
        rows = [line.split(",") for line in series.strip().split("\n")[1:]]
        for metric in ("MAE", "MAE_X", "MAE_Y"):
            for om in (1, 3):
                values = [float(r[3]) for r in rows if r[0] == str(om) and r[2] == metric and r[1] != "avg"]
                avg = [float(r[3]) for r in rows if r[0] == str(om) and r[2] == metric and r[1] == "avg"]
                assert avg[0] == pytest.approx(np.mean(values), abs=1e-12)

    def test_label_and_selection_shown(self):
        report = self.make_report()
        report.label = "test-model"
        text, _ = render_report(report)
        assert "test-model" in text
        assert "per_step" in text
