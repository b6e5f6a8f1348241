"""gridcast benchmark: run one workload through the ``gridcast`` command line
for a fixed time and print its metrics.

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``). The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end metrics, measured untraced; with ``--trace 1``
they are the per-layer metrics of a traced run (see NOTES.md). The lines
before it name each workload metric with its unit and record the machine.
The exit code is 0 only when every command and output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BLAS_THREADS = 1
SETUP_REPS = 3
MIN_ITERATIONS = 3
WORKLOAD_NAMES = ("train", "decode", "data_kalman")

# (name, unit) of the end-to-end metrics every untraced run reports
END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("first_cmd_per_s", "1/s"),
    ("last_cmd_per_s", "1/s"),
]

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the measured loop")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gridcast" / "__init__.py").is_file():
        print(f"error: no gridcast package under {SRC}", file=sys.stderr)
        return 2
    # the BLAS thread count is read when numpy loads, so pin it first
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    work = WORK / f"run-{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: Path) -> int:
    import workloads
    from tracer import Tracer, per_layer_metric_specs

    clock = time.perf_counter
    workload = workloads.WORKLOADS[args.workload]()
    reps = 1 if args.trace else SETUP_REPS
    setup_times = []
    for rep in range(reps):
        rep_dir = work / f"setup-{rep}"
        rep_dir.mkdir(parents=True)
        t0 = clock()
        try:
            workload.setup(rep_dir, args.seed)
        except workloads.SetupError as exc:
            print(f"error: set-up failed: {exc}", file=sys.stderr)
            return 2
        setup_times.append(clock() - t0)
    phases = workload.phases()
    tracer = Tracer() if args.trace else None

    walls = {False: [], True: []}  # traced? -> per-iteration command seconds
    seconds = [[] for _ in phases]  # per phase, its untraced command times
    layer_rows = []
    attempted = failed = 0
    problems: list[str] = []
    start = clock()
    iteration = 0
    min_iterations = 2 * MIN_ITERATIONS if tracer else MIN_ITERATIONS
    while iteration < min_iterations or clock() - start < args.seconds:
        traced = tracer is not None and iteration % 2 == 1
        if traced:
            tracer.install()
        try:
            results = [workloads.run_command(p.argv) for p in phases]
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            layer_rows.append(tracer.harvest())
        walls[traced].append(sum(r.seconds for r in results))
        if not traced:
            for times, res in zip(seconds, results):
                times.append(res.seconds)
        try:
            outcomes = workload.check(results, iteration)
        except Exception as exc:  # unreadable output is a failed check, not a crash
            outcomes = [("outputs-readable", [f"{type(exc).__name__}: {exc}"])]
        for name, found in outcomes:
            attempted += 1
            if found:
                failed += 1
                problems += [f"iteration {iteration} {name}: {p}" for p in found[:3]]
        iteration += 1
    elapsed = clock() - start

    print("machine " + json.dumps(machine_facts(), sort_keys=True))
    print(
        f"workload {args.workload} seed {args.seed}: {iteration} iterations in {elapsed:.1f} s, "
        f"closed loop, one client, {reps} set-up repetition(s)"
    )
    for line in problems[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    failed_frac = failed / attempted
    if tracer is None:
        # a command's rate over the run is its items over its summed seconds:
        # under the bursty slow-downs of a shared host this moves less from
        # run to run than the median of per-iteration rates
        totals = [phase.items * len(times) / sum(times) for phase, times in zip(phases, seconds)]
        for phase, total, times in zip(phases, totals, seconds):
            rates = [phase.items / t for t in times]
            print(
                f"{phase.metric} {total!r} 1/s ({len(times)} commands of "
                f"{phase.items} items; per-command median {statistics.median(rates):.4g}, "
                f"range {min(rates):.4g}..{max(rates):.4g})"
            )
        for name, (value, unit) in workload.reported.items():
            print(f"{name} {value!r} {unit}")
        values = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "first_cmd_per_s": totals[0],
            "last_cmd_per_s": totals[-1],
        }
        print(f"setup_s {values['setup_s']!r} s (median of {reps})")
        print(f"peak_rss_mb {values['peak_rss_mb']!r} MB")
        specs = END_TO_END
    else:
        WORK.mkdir(exist_ok=True)
        trace_path = WORK / f"trace-{args.workload}-s{args.seed}.npz"
        tracer.write(trace_path)
        print(f"spans of {len(layer_rows)} traced iterations written to {trace_path}")
        values = {key: statistics.median(row[key] for row in layer_rows) for key in layer_rows[0]}
        values["trace_overhead_frac"] = statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
        specs = per_layer_metric_specs()
    print(f"failed_frac {failed_frac!r} ratio ({failed} of {attempted} commands and output checks)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in specs},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
