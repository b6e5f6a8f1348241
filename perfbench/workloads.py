"""The benchmark's workloads, each a closed loop of ``gridcast`` commands run
in-process through ``gridcast.cli.main``: the next command starts when the
previous one returns.

A workload builds its inputs from the seed in ``setup``, names the commands
of one iteration in ``phases`` (each with the count of work items it
processes), and checks an iteration's outputs in ``check``, outside the timed
region. Every command of a workload runs on the same inputs in every
iteration, so a command's outputs repeat exactly from one iteration to the
next.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gridcast import cli, datagen, ogm, seq2seq, training

import checks

OBS_LEN = 30
HORIZON = 10
NUM_CLASSES = ogm.GridSpec().num_classes
OMEGAS = (1, 3, 5)
HORIZONS_S = (0.4, 0.8, 1.2, 1.6, 2.0)


class SetupError(RuntimeError):
    pass


@dataclass
class CommandResult:
    code: object  # exit code, or a description of the exception raised
    seconds: float
    stdout: str
    stderr: str


def run_command(argv: list[str]) -> CommandResult:
    """``gridcast <argv>`` in this process; only the call is timed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code
        except Exception as exc:  # a crashing command is a failed command
            code = f"raised {type(exc).__name__}: {exc}"
            traceback.print_exc(file=err)
        seconds = time.perf_counter() - t0
    return CommandResult(code, seconds, out.getvalue(), err.getvalue())


@dataclass
class Phase:
    metric: str  # the per-item rate this command reports, e.g. "greedy_vehicles_per_s"
    argv: list[str]
    items: int


def _setup_command(argv: list[str]) -> CommandResult:
    res = run_command(argv)
    if res.code != 0:
        raise SetupError(f"gridcast {' '.join(argv)}: exit {res.code!r}\n{res.stderr}")
    return res


def _split_counts(datagen_stdout: str) -> dict[str, tuple[int, int]]:
    """{split: (sequences, usable windows)} from ``gridcast datagen`` output."""
    found = re.findall(r"^\s+(train|val|test): (\d+) sequences, (\d+) usable windows", datagen_stdout, re.M)
    return {name: (int(seqs), int(wins)) for name, seqs, wins in found}


def _records_written(datagen_stdout: str) -> int | None:
    m = re.search(r"^wrote (\d+) sequences", datagen_stdout, re.M)
    return int(m.group(1)) if m else None


class Train:
    """``gridcast train`` at the acceptance model shape for a fixed number of
    epochs, on a dataset written in set-up."""

    name = "train"
    EPOCHS = 2
    # many short records: the split marginals agree, so two epochs reliably
    # bring the validation NLL below the uniform ln 757
    DATA = ["--set", "data.n_scenarios=60", "--set", "data.frames_per_record=51"]
    MODEL = ["--set", "model.cell_dim=128", "--set", "train.batch_size=128", "--set", f"train.max_epochs={EPOCHS}"]

    def setup(self, work: Path, seed: int) -> None:
        self.seed = seed
        self.data = work / "data.jsonl"
        self.checkpoint = work / "model.ckpt"
        res = _setup_command(["datagen", "--out", str(self.data), "--seed", str(seed), *self.DATA])
        self.windows = _split_counts(res.stdout)["train"][1]
        self.first_nll: float | None = None
        self.reported: dict[str, tuple[float, str]] = {}

    def phases(self) -> list[Phase]:
        argv = ["train", "--data", str(self.data), "--out", str(self.checkpoint), "--seed", str(self.seed), *self.MODEL]
        return [Phase("train_windows_per_s", argv, self.EPOCHS * self.windows)]

    def check(self, results: list[CommandResult], iteration: int) -> list[tuple[str, list[str]]]:
        (res,) = results
        out = [("train-exit", checks.check_exit("gridcast train", res.code))]
        if res.code != 0:
            return out
        m = re.search(r"^training on (\d+) windows", res.stdout, re.M)
        out.append(("train-window-count", checks.check_equal("training windows", m and int(m.group(1)), self.windows)))
        metrics_csv = Path(f"{self.checkpoint}.metrics.csv").read_text(encoding="utf-8")
        out.append(("train-metrics", checks.check_train_metrics(metrics_csv, self.EPOCHS, NUM_CLASSES)))
        nll = checks.final_val_nll(metrics_csv)
        if self.first_nll is None:
            self.first_nll = nll
        # same seed, same data, one BLAS thread: training is bit-identical run to run
        out.append(("train-run-to-run-identity", checks.check_equal("final val NLL", nll, self.first_nll)))
        try:
            seq2seq.load_checkpoint(str(self.checkpoint))
            out.append(("train-checkpoint-loads", []))
        except (OSError, seq2seq.CheckpointError) as exc:
            out.append(("train-checkpoint-loads", [str(exc)]))
        self.reported["train_val_nll"] = (nll, "nats")
        return out


class Decode:
    """``gridcast predict --greedy`` over every vehicle, then ``gridcast eval
    --checkpoint`` (beam K=10, Top-1/3/5 MAE) on the test split.

    The checkpoint is ``init_model_params`` seeded from the workload seed with
    the feature normalizer fitted to the training windows, not a trained
    model: decode cost does not depend on the weight values, and this keeps a
    training run out of set-up."""

    name = "decode"
    DATA = ["--set", "data.n_scenarios=14", "--set", "data.frames_per_record=51"]
    CELL_DIM = 128
    SAMPLE = 2  # vehicles per iteration re-decoded by the beam oracles

    def setup(self, work: Path, seed: int) -> None:
        self.seed = seed
        self.data = work / "data.jsonl"
        self.checkpoint = work / "model.ckpt"
        self.predictions = work / "predictions.jsonl"
        self.series = work / "series.csv"
        res = _setup_command(["datagen", "--out", str(self.data), "--seed", str(seed), *self.DATA])
        self.test_windows = _split_counts(res.stdout)["test"][1]
        self.records = datagen.read_dataset(str(self.data))
        manifest = datagen.read_manifest(str(self.data))
        train_ids = set(manifest["splits"]["train"])
        windows, _ = training.crop_windows(
            [r for r in self.records if r.scenario_id in train_ids], OBS_LEN, HORIZON, ogm.GridSpec()
        )
        config = seq2seq.ModelConfig(cell_dim=self.CELL_DIM, obs_len=OBS_LEN, horizon=HORIZON)
        params = seq2seq.init_model_params(config, seed=seed)
        training.fit_normalizer(params, windows)
        seq2seq.save_checkpoint(params, str(self.checkpoint))
        self.params = seq2seq.load_checkpoint(str(self.checkpoint))
        self.reported: dict[str, tuple[float, str]] = {}

    def phases(self) -> list[Phase]:
        predict = ["predict", "--checkpoint", str(self.checkpoint), "--data", str(self.data), "--out", str(self.predictions), "--greedy"]
        evaluate = ["eval", "--checkpoint", str(self.checkpoint), "--data", str(self.data), "--out-series", str(self.series)]
        return [
            Phase("greedy_vehicles_per_s", predict, len(self.records)),
            Phase("eval_windows_per_s", evaluate, self.test_windows),
        ]

    def check(self, results: list[CommandResult], iteration: int) -> list[tuple[str, list[str]]]:
        predict, evaluate = results
        grid = ogm.GridSpec()
        out = [
            ("predict-exit", checks.check_exit("gridcast predict --greedy", predict.code)),
            ("eval-exit", checks.check_exit("gridcast eval --checkpoint", evaluate.code)),
        ]
        if predict.code == 0:
            lines = [json.loads(line) for line in self.predictions.read_text(encoding="utf-8").splitlines()]
            problems = checks.check_predictions(lines, self.records, 1, HORIZON, grid)
            out.append(("predict-hypotheses", problems))
            if not problems:
                rng = np.random.default_rng([self.seed, iteration])
                for n in rng.choice(len(self.records), size=self.SAMPLE, replace=False):
                    window = self.records[n].frames[-OBS_LEN:]
                    out.append(("beam-oracles", checks.check_beam_oracles(self.params, window, lines[n])))
        if evaluate.code == 0:
            series = self.series.read_text(encoding="utf-8")
            out.append(("eval-table", checks.check_eval_series(series, OMEGAS)))
        return out


class DataKalman:
    """``gridcast datagen`` (generate, write, manifest, crop every split),
    then ``gridcast eval --kalman`` on the written dataset. Set-up computes
    the reference dataset and the reference Kalman Top-1 table in memory."""

    name = "data_kalman"
    N_SCENARIOS = 40

    def setup(self, work: Path, seed: int) -> None:
        self.seed = seed
        self.data = work / "data.jsonl"
        self.series = work / "series.csv"
        config = datagen.ScenarioConfig(n_scenarios=self.N_SCENARIOS, seed=seed)
        self.records, self.manifest = datagen.generate_dataset(config)
        windows = checks.held_out_windows(self.records, self.manifest, OBS_LEN, HORIZON)
        self.test_windows = len(windows)
        self.reference = checks.kalman_reference(windows, HORIZONS_S)
        self.reported: dict[str, tuple[float, str]] = {}

    def phases(self) -> list[Phase]:
        gen = ["datagen", "--out", str(self.data), "--seed", str(self.seed), "--set", f"data.n_scenarios={self.N_SCENARIOS}"]
        evaluate = ["eval", "--kalman", "--data", str(self.data), "--out-series", str(self.series)]
        return [
            Phase("datagen_records_per_s", gen, len(self.records)),
            Phase("kalman_eval_windows_per_s", evaluate, self.test_windows),
        ]

    def check(self, results: list[CommandResult], iteration: int) -> list[tuple[str, list[str]]]:
        gen, evaluate = results
        out = [
            ("datagen-exit", checks.check_exit("gridcast datagen", gen.code)),
            ("eval-exit", checks.check_exit("gridcast eval --kalman", evaluate.code)),
        ]
        if gen.code == 0:
            counts = (_records_written(gen.stdout), _split_counts(gen.stdout).get("test", (0, 0))[1])
            out.append(("datagen-counts", checks.check_equal("records, test windows", counts, (len(self.records), self.test_windows))))
            out.append(("datagen-dataset", checks.check_dataset(str(self.data), self.records, self.manifest)))
        if evaluate.code == 0:
            series = self.series.read_text(encoding="utf-8")
            out.append(("kalman-table", checks.check_eval_series(series, (1,))))
            out.append(("kalman-reference", checks.check_series_matches(series, self.reference)))
        return out


WORKLOADS = {w.name: w for w in (Train, Decode, DataKalman)}
