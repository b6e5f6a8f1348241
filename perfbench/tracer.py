"""Outside-in layer tracing for the gridcast benchmark.

The tracer wraps public functions of the gridcast modules without touching
their source. A function can be reachable under several names, because
``from .x import f`` copies the binding into the importing module (for
example ``training.decode_core`` and ``metrics.unflatten``), so installing
replaces every binding of the original object in every loaded gridcast
module, and uninstalling puts the originals back.

Each call records one span (function id, parent span, start, end, rows) into
an in-memory list; nothing is written while tracing. A span's self time is
its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import sys
import time

import numpy as np

# layer (module) -> traced attribute paths, in report order
TRACED: dict[str, tuple[str, ...]] = {
    "nn": ("sigmoid", "lstm_forward", "lstm_backward", "dense_forward_cached", "dense_backward", "log_softmax"),
    "seq2seq": (
        "encode_core",
        "decode_core",
        "embed_tokens",
        "greedy_decode",
        "beam_search_decode",
        "ModelParams.copy",
        "save_checkpoint",
        "load_checkpoint",
    ),
    "training": ("nll_loss", "clip_gradients", "adam_step", "crop_windows"),
    "ogm": ("quantize", "unflatten"),
    "kalman": ("kf_forecast",),
    "datagen": ("generate_dataset", "write_dataset", "read_dataset"),
    "metrics": ("evaluate", "top_omega_mae"),
    "cli": ("cmd_datagen", "cmd_train", "cmd_predict", "cmd_eval"),
}

# traced functions whose row count per call is reported: name -> position of
# the input-rows argument (a (rows, dim) array, or a single (dim,) row)
ROWS_ARG: dict[str, tuple[int, str]] = {
    "nn.lstm_forward": (1, "u"),
    "seq2seq.decode_core": (2, "u"),
}

TRACED_NAMES: tuple[str, ...] = tuple(f"{mod}.{attr}" for mod, attrs in TRACED.items() for attr in attrs)


def per_layer_metric_specs() -> list[tuple[str, str]]:
    """(metric name, unit) for every per-layer metric a traced run reports."""
    specs = []
    for name in TRACED_NAMES:
        if not name.startswith("cli."):
            specs.append((f"{name}.calls", "count"))
        specs.append((f"{name}.self_s", "s"))
        if name in ROWS_ARG:
            specs.append((f"{name}.rows_per_call", "rows"))
    specs.append(("trace_overhead_frac", "ratio"))
    return specs


def _rows(value) -> int:
    shape = getattr(value, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus the summed durations of the spans
    whose parent it is (parent -1 marks a root span)."""
    child = np.zeros_like(duration)
    nested = parent >= 0
    np.add.at(child, parent[nested], duration[nested])
    return duration - child


class Tracer:
    """Patches the traced gridcast functions while installed and records one
    span per call; ``harvest`` turns the recorded spans into per-function
    totals and keeps them for ``write``."""

    def __init__(self) -> None:
        self._spans: list[tuple] = []
        self._stack: list[int] = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self._kept: list[np.ndarray] = []

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items()) if n == "gridcast" or n.startswith("gridcast.")]
        for fid, name in enumerate(TRACED_NAMES):
            mod_name, attr = name.split(".", 1)
            owner = sys.modules[f"gridcast.{mod_name}"]
            if "." in attr:  # a method: patch the class attribute
                cls_name, meth = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, self._wrap(fid, name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(fid, name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, fid: int, name: str, fn):
        spans = self._spans
        stack = self._stack
        clock = time.perf_counter
        rows_at = ROWS_ARG.get(name)

        def traced(*args, **kwargs):
            if rows_at is None:
                rows = 0
            else:
                pos, key = rows_at
                rows = _rows(args[pos] if len(args) > pos else kwargs[key])
            parent = stack[-1]
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (fid, parent, t0, t1, rows)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    # -- results ------------------------------------------------------------

    def harvest(self) -> dict[str, float]:
        """Per-function metrics over the spans recorded since the last
        harvest; the spans move to the kept set and the live list empties."""
        if len(self._stack) != 1:
            raise RuntimeError("harvest inside an open span")
        arr = np.array(self._spans, dtype=np.float64).reshape(-1, 5)
        self._spans.clear()
        self._kept.append(arr)
        fid = arr[:, 0].astype(np.int64)
        self_s = self_times(arr[:, 1].astype(np.int64), arr[:, 3] - arr[:, 2])
        n = len(TRACED_NAMES)
        calls = np.bincount(fid, minlength=n)
        self_total = np.bincount(fid, weights=self_s, minlength=n)
        rows = np.bincount(fid, weights=arr[:, 4], minlength=n)
        out: dict[str, float] = {}
        for k, name in enumerate(TRACED_NAMES):
            if not name.startswith("cli."):
                out[f"{name}.calls"] = float(calls[k])
            out[f"{name}.self_s"] = float(self_total[k])
            if name in ROWS_ARG:
                out[f"{name}.rows_per_call"] = float(rows[k] / calls[k]) if calls[k] else 0.0
        return out

    def write(self, path) -> None:
        """All kept spans as one .npz: names, and spans rows of
        (function id, parent row or -1, start, end, rows)."""
        parts = []
        offset = 0
        for arr in self._kept:
            arr = arr.copy()
            arr[arr[:, 1] >= 0, 1] += offset
            offset += len(arr)
            parts.append(arr)
        spans = np.concatenate(parts) if parts else np.empty((0, 5))
        np.savez(path, names=np.array(TRACED_NAMES), spans=spans)
