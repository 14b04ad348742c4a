"""Span recorder for the traced run, and the per-layer metrics computed from it.

The recorder replaces callee names inside the caller modules (for
example ``qubitfit.chemotaxis.performance_index``) with wrappers that
record a span per call, and puts the originals back afterwards. Nothing
in the package changes. A span is (name, start, end, parent span, unit
id); spans are kept in typed arrays in memory and written out at the end.
A span's self time is its duration minus the durations of its direct
children, which cover disjoint parts of it in a single thread.
"""

from __future__ import annotations

import importlib
import os
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

# (owner, attribute, span name). The owner is the module that makes the
# call, so only calls across a module boundary are recorded; an owner
# "module:Class" patches a class attribute. Several owners may feed one
# span name.
BOUNDARIES = (
    ("qubitfit.objective", "circuit_expectation_grid", "circuit.grid"),
    ("qubitfit.circuit:CircuitParams", "from_vector", "circuit.params"),
    ("qubitfit.verify", "circuit_expectation", "circuit.scalar"),
    ("qubitfit.verify", "prepare_state", "circuit.prepare_state"),
    ("qubitfit.verify", "closed_form_expectation", "analytic.closed_form"),
    ("qubitfit.verify", "cubic_remainder", "analytic.remainder"),
    ("qubitfit.analytic", "cubic_coefficients", "analytic.cubic"),
    ("qubitfit.cli", "cubic_coefficients", "analytic.cubic"),
    ("qubitfit.chemotaxis", "performance_index", "objective.index"),
    ("qubitfit.chemotaxis", "max_pointwise_error", "objective.max_error"),
    ("qubitfit.reproduce", "max_pointwise_error", "objective.max_error"),
    ("qubitfit.cli", "max_pointwise_error", "objective.max_error"),
    ("qubitfit.reproduce", "optimize", "chemotaxis.optimize"),
    ("qubitfit.cli", "optimize", "chemotaxis.optimize"),
    ("qubitfit.verify", "run_suites", "verify.run_suites"),
    ("qubitfit.cli", "run_suites", "verify.run_suites"),
    ("qubitfit.reproduce", "parse_params", "fileio.parse"),
    ("qubitfit.cli", "read_params_file", "fileio.parse"),
    ("qubitfit.reproduce", "write_params_file", "fileio.write"),
    ("qubitfit.cli", "write_params_file", "fileio.write"),
    ("qubitfit.cli", "write_run_csv", "fileio.write"),
    ("qubitfit.cli", "write_trace_csv", "fileio.write"),
    ("qubitfit.cli", "write_summary", "fileio.write"),
    ("qubitfit.reproduce", "write_line_plot", "svgplot.write"),
    ("qubitfit.cli", "write_line_plot", "svgplot.write"),
    ("qubitfit.reproduce", "run_reproduction", "reproduce.run"),
    ("qubitfit.cli", "run_reproduction", "reproduce.run"),
    ("qubitfit.cli", "main", "cli.main"),
)


def _count_fit(counters: Counter, args, result) -> None:
    counters["evals"] += result.evals
    counters["accepts"] += len(result.j_trace) - 1


def _count_trials(counters: Counter, args, result) -> None:
    counters["trials"] += args[0]


def _count_bytes(counters: Counter, args, result) -> None:
    counters["bytes"] += os.path.getsize(args[0])  # computed from the file written


HOOKS = {
    "chemotaxis.optimize": _count_fit,
    "verify.run_suites": _count_trials,
    "fileio.write": _count_bytes,
    "svgplot.write": _count_bytes,
}

# name, unit, better, the end-to-end metric it should move (and where),
# and the workloads where it should stay flat. Counts are per traced unit.
LAYER_METRICS = (
    ("circuit.grid_calls", "count", "lower", "unit_s, work_per_s on train", "cli"),
    ("circuit.grid_us", "us", "lower", "unit_s, work_per_s on train", "cli"),
    ("circuit.params_calls", "count", "lower", "unit_s on train", "cli"),
    ("circuit.params_us", "us", "lower", "unit_s on train", "cli"),
    ("circuit.scalar_calls", "count", "lower", "unit_s on selfcheck", "train"),
    ("circuit.scalar_us", "us", "lower", "unit_s on selfcheck", "train"),
    ("circuit.prepare_state_us", "us", "lower", "unit_s on selfcheck", "train"),
    ("analytic.closed_form_us", "us", "lower", "unit_s on selfcheck", "train"),
    ("analytic.cubic_us", "us", "lower", "unit_s on selfcheck", "train"),
    ("analytic.remainder_calls", "count", "lower", "unit_s on selfcheck", "train"),
    ("objective.index_calls", "count", "lower", "unit_s on train", "selfcheck"),
    ("objective.index_us", "us", "lower", "unit_s on train", "selfcheck"),
    ("objective.index_self_us", "us", "lower", "unit_s on train", "selfcheck"),
    ("objective.max_error_calls", "count", "lower", "unit_s on train", "selfcheck"),
    ("chemotaxis.optimize_s", "s", "lower", "unit_s on train; train_j_total", "selfcheck, cli"),
    ("chemotaxis.self_us_per_eval", "us", "lower", "unit_s on train; train_j_total", "selfcheck, cli"),
    ("chemotaxis.winner_accepts", "count", "higher", "train_j_total on train", "selfcheck, cli"),
    ("verify.run_suites_s", "s", "lower", "unit_s on selfcheck", "train"),
    ("verify.self_us_per_trial", "us", "lower", "unit_s on selfcheck", "train"),
    ("fileio.parse_us", "us", "lower", "unit_s on cli", "train"),
    ("fileio.write_calls", "count", "lower", "unit_s on cli", "train"),
    ("fileio.write_us", "us", "lower", "unit_s on cli", "train"),
    ("fileio.bytes_written", "B", "lower", "unit_s on cli", "train"),
    ("svgplot.write_ms", "ms", "lower", "unit_s on cli", "selfcheck"),
    ("svgplot.bytes", "B", "lower", "unit_s on cli", "selfcheck"),
    ("reproduce.self_s", "s", "lower", "unit_s on train (tiny)", "cli"),
    ("cli.import_s", "s", "lower", "unit_s on cli; setup_s", "train"),
    ("cli.main_ms.coeffs", "ms", "lower", "unit_s on cli", "train"),
    ("cli.main_ms.eval", "ms", "lower", "unit_s on cli", "train"),
    ("cli.main_ms.fit", "ms", "lower", "unit_s on cli", "train"),
    ("trace.overhead", "x", "lower", "(tracing cost: traced / untraced wall time of one unit)", "-"),
)


def _owner(spec: str):
    """The module or class named by ``spec``, or None when the package no longer has it."""
    module, _, cls = spec.partition(":")
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(owner, cls, None) if cls else owner


class Recorder:
    """Records spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("q")
        self.unit = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counters: dict[str, Counter] = defaultdict(Counter)
        self.unit_id = -1
        self.missing: list[str] = []
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name: str, fn, *args, **kwargs):
        idx = len(self.name)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.unit.append(self.unit_id)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter_ns()
            self.start[idx] = t0
            self._stack.pop()

    def _wrapper(self, name: str, fn):
        hook = HOOKS.get(name)
        counters = self.counters[name]
        call = self.call
        if name == "cli.main":
            def wrapper(argv=None):
                return call(f"cli.main.{argv[0]}", fn, argv)
        elif hook is None:
            def wrapper(*args, **kwargs):
                return call(name, fn, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                result = call(name, fn, *args, **kwargs)
                hook(counters, args, result)
                return result
        return wrapper

    def install(self) -> None:
        for spec, attr, name in BOUNDARIES:
            owner = _owner(spec)
            if owner is None or attr not in vars(owner):
                self.missing.append(f"{spec}.{attr}")
                continue
            saved = vars(owner)[attr]
            self._saved.append((owner, attr, saved))
            wrapper = self._wrapper(name, getattr(owner, attr))
            setattr(owner, attr, staticmethod(wrapper) if isinstance(owner, type) else wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, saved = self._saved.pop()
            setattr(owner, attr, saved)

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, np.uint16),
                 parent=np.frombuffer(self.parent, np.int64), unit=np.frombuffer(self.unit, np.int64),
                 start_ns=np.frombuffer(self.start, np.int64), end_ns=np.frombuffer(self.end, np.int64))


class SpanStats:
    """Per span name: call count, summed duration and summed self time (ns)."""

    def __init__(self, rec: Recorder) -> None:
        name = np.frombuffer(rec.name, np.uint16).astype(np.int64)
        parent = np.frombuffer(rec.parent, np.int64)
        dur = (np.frombuffer(rec.end, np.int64) - np.frombuffer(rec.start, np.int64)).astype(float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        k = len(rec.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=dur - child, minlength=k)
        self._index = {n: i for i, n in enumerate(rec.names)}
        self._calls, self._total, self._self = calls, total, own

    def calls(self, name: str) -> int:
        i = self._index.get(name)
        return 0 if i is None else int(self._calls[i])

    def total_ns(self, name: str) -> float:
        i = self._index.get(name)
        return 0.0 if i is None else float(self._total[i])

    def self_ns(self, name: str) -> float:
        i = self._index.get(name)
        return 0.0 if i is None else float(self._self[i])

    def mean_ns(self, name: str) -> float:
        n = self.calls(name)
        return self.total_ns(name) / n if n else 0.0


def layer_metrics(rec: Recorder, units: int, import_s: float, overhead: float) -> dict[str, float]:
    """Every per-layer metric of LAYER_METRICS from the recorded spans."""
    s = SpanStats(rec)
    c = rec.counters
    evals = c["chemotaxis.optimize"]["evals"]
    trials = c["verify.run_suites"]["trials"]
    return {
        "circuit.grid_calls": s.calls("circuit.grid") / units,
        "circuit.grid_us": s.mean_ns("circuit.grid") / 1e3,
        "circuit.params_calls": s.calls("circuit.params") / units,
        "circuit.params_us": s.mean_ns("circuit.params") / 1e3,
        "circuit.scalar_calls": s.calls("circuit.scalar") / units,
        "circuit.scalar_us": s.mean_ns("circuit.scalar") / 1e3,
        "circuit.prepare_state_us": s.mean_ns("circuit.prepare_state") / 1e3,
        "analytic.closed_form_us": s.mean_ns("analytic.closed_form") / 1e3,
        "analytic.cubic_us": s.mean_ns("analytic.cubic") / 1e3,
        "analytic.remainder_calls": s.calls("analytic.remainder") / units,
        "objective.index_calls": s.calls("objective.index") / units,
        "objective.index_us": s.mean_ns("objective.index") / 1e3,
        "objective.index_self_us": s.self_ns("objective.index") / max(1, s.calls("objective.index")) / 1e3,
        "objective.max_error_calls": s.calls("objective.max_error") / units,
        "chemotaxis.optimize_s": s.mean_ns("chemotaxis.optimize") / 1e9,
        "chemotaxis.self_us_per_eval": s.self_ns("chemotaxis.optimize") / max(1, evals) / 1e3,
        "chemotaxis.winner_accepts": c["chemotaxis.optimize"]["accepts"] / units,
        "verify.run_suites_s": s.mean_ns("verify.run_suites") / 1e9,
        "verify.self_us_per_trial": s.self_ns("verify.run_suites") / max(1, trials) / 1e3,
        "fileio.parse_us": s.mean_ns("fileio.parse") / 1e3,
        "fileio.write_calls": s.calls("fileio.write") / units,
        "fileio.write_us": s.mean_ns("fileio.write") / 1e3,
        "fileio.bytes_written": c["fileio.write"]["bytes"] / units,
        "svgplot.write_ms": s.mean_ns("svgplot.write") / 1e6,
        "svgplot.bytes": c["svgplot.write"]["bytes"] / units,
        "reproduce.self_s": s.self_ns("reproduce.run") / max(1, s.calls("reproduce.run")) / 1e9,
        "cli.import_s": import_s,
        "cli.main_ms.coeffs": s.mean_ns("cli.main.coeffs") / 1e6,
        "cli.main_ms.eval": s.mean_ns("cli.main.eval") / 1e6,
        "cli.main_ms.fit": s.mean_ns("cli.main.fit") / 1e6,
        "trace.overhead": overhead,
    }


def trace_checks(rec: Recorder) -> dict[str, object]:
    """Consistency of the trace itself; reported, not counted as failed operations."""
    s = SpanStats(rec)
    evals = rec.counters["chemotaxis.optimize"]["evals"]
    return {
        "index_calls_equal_evals": s.calls("objective.index") == evals,
        "index_calls": s.calls("objective.index"),
        "evals": evals,
        "missing_boundaries": sorted(set(rec.missing)),
    }
