"""Spans around the calls the CLI makes into each layer, and the per-layer
metrics computed from them.

The traced run calls the same CLI entry point as the untraced run.  For its
duration, the layer functions that ``rumorsim.cli`` and
``rumorsim.experiments`` look up by module-global name are replaced by
wrappers that record a span around each call; ``core.run`` is also handed a
timing wrapper as its ``round_engine``.  The package's source is unchanged,
and the runner checks that the traced run's outputs are byte-identical to
the untraced run's at the same seed.

Layers are the package's modules.  A span's self time is its duration minus
the time its direct children cover.
"""

from __future__ import annotations

import csv
import json
import os
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace

import rumorsim.cli
import rumorsim.experiments
from rumorsim.core import execute_round, init_simulation, run
from rumorsim.experiments import RETAIN_SUMMARY, RETAIN_TRACE, build_trial_state
from rumorsim.protocols import Hybrid, protocol_name

# Module -> names it looks up at call time that lead into another layer.
PATCH_POINTS = {
    rumorsim.cli: (
        "build_trial_state", "run", "sweep", "compare_protocols",
        "summary_to_dict", "format_json", "write_text", "write_trace_csv",
        "read_trace_csv", "read_summary_json",
        "verify_trace", "verify_summary_against_trace",
    ),
    rumorsim.experiments: ("run_trials", "build_trial_state", "init_simulation", "run"),
}

PROTOCOLS = ("hybrid", "push", "quasirandom-identical", "quasirandom-independent")
SUBCOMMANDS = ("simulate", "trace", "sweep", "compare")
INIT_PROBE_N = 2**20

# Every per-layer metric and its unit, in the order they are reported.
LAYER_METRICS = {
    "core.execute_round_s": "s",
    "core.rounds": "count",
    "core.round_ms_p50": "ms",
    "core.round_ms_max": "ms",
    **{f"core.run_s.{name}": "s" for name in PROTOCOLS},
    "core.run_self_s": "s",
    "core.calls": "count",
    "core.informing_per_call": "ratio",
    "core.init_bytes_per_node": "B/node",
    "core.log_build_s": "s",
    "traceio.write_trace_csv_s": "s",
    "traceio.read_trace_csv_s": "s",
    "traceio.trace_bytes": "B",
    "traceio.trace_rows": "count",
    "verify.verify_trace_s": "s",
    "verify.verify_summary_s": "s",
    "verify.records_checked": "count",
    "verify.violations": "count",
    "experiments.build_trial_state_s": "s",
    "experiments.run_trials_s": "s",
    "experiments.trial_ms_p50": "ms",
    "experiments.trial_ms_p99": "ms",
    "experiments.trial_overhead_ms": "ms",
    "experiments.aggregate_s": "s",
    "experiments.trials": "count",
    "cli.self_s": "s",
    **{f"cli.{name}_s": "s" for name in SUBCOMMANDS},
    "trace_overhead_frac": "frac",
}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "iteration", "attrs")

    def __init__(self, span_id, name, start, parent, iteration):
        self.id, self.name, self.start, self.end = span_id, name, start, start
        self.parent, self.iteration, self.attrs = parent, iteration, {}

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; ``write_csv`` saves them when the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.iteration = 0
        self._open: list[Span] = []

    def begin(self, name: str) -> Span:
        parent = self._open[-1].id if self._open else -1
        span = Span(len(self.spans), name, time.perf_counter(), parent, self.iteration)
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def wrap(self, name: str, fn, after=None):
        """``fn`` with a span around each call; ``after(span, args, result)``
        may attach attributes once the call returns."""

        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if after is not None:
                after(span, args, result)
            return result

        return traced

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(("id", "name", "start", "end", "parent", "iteration", "attrs"))
            for s in self.spans:
                writer.writerow((s.id, s.name, f"{s.start:.9f}", f"{s.end:.9f}",
                                 s.parent, s.iteration, json.dumps(s.attrs, sort_keys=True, default=repr)))


def _layer_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _keep_logged_config(span, args, _):
    config, trial = args
    if config.retention == RETAIN_TRACE:
        span.attrs["config"] = (config, trial)


# Attributes recorded on a span once its call returns, by span name.
_AFTER = {
    "experiments.build_trial_state": _keep_logged_config,
    "traceio.write_trace_csv":
        lambda span, args, path: span.attrs.update(rows=len(args[0]), bytes=os.path.getsize(path)),
    "verify.verify_trace":
        lambda span, _, report: span.attrs.update(records=report.records_checked,
                                                  violations=len(report.violations)),
    "verify.verify_summary_against_trace":
        lambda span, _, violations: span.attrs.update(violations=len(violations)),
}


def _traced_run(tracer: Tracer, fn):
    """``core.run`` with a span, and a timed ``execute_round`` as its engine."""
    engine = tracer.wrap("core.execute_round", execute_round)

    def traced_run(state, max_rounds=None, *, round_engine=None):
        span = tracer.begin("core.run")
        try:
            summary = fn(state, max_rounds, round_engine=round_engine or engine)
        finally:
            tracer.end(span)
        span.attrs.update(protocol=protocol_name(state.spec), calls=summary.total_calls,
                          informing=summary.informing_calls)
        return summary

    return traced_run


def _wrapped(tracer: Tracer, fn):
    name = _layer_name(fn)
    if name == "core.run":
        return _traced_run(tracer, fn)
    return tracer.wrap(name, fn, _AFTER.get(name))


@contextmanager
def instrumented(tracer: Tracer):
    """Routes the CLI's calls into each layer through span wrappers."""
    originals = [(module, name, getattr(module, name))
                 for module, names in PATCH_POINTS.items() for name in names]
    try:
        for module, name, fn in originals:
            setattr(module, name, _wrapped(tracer, fn))
        yield
    finally:
        for module, name, fn in originals:
            setattr(module, name, fn)


def init_bytes_per_node(n: int = INIT_PROBE_N) -> float:
    """Peak traced allocation of a standalone ``init_simulation``, per node."""
    tracemalloc.start()
    try:
        state = init_simulation(Hybrid(4), n, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del state
    return peak / n


def _trials(spans: list[Span]):
    """(build_trial_state span, run span) pairs.  A trial is a build and the
    run that follows it under the same parent, whether the CLI or
    ``run_trials`` made them."""
    builds = {}
    for span in spans:
        if span.name == "experiments.build_trial_state":
            builds[span.parent] = span
        elif span.name == "core.run" and span.parent in builds:
            yield builds.pop(span.parent), span


def log_build_seconds(spans: list[Span]) -> float:
    """For each traced trial that kept a call log: its run's duration minus
    an untraced rerun of the same trial without a log."""
    total = 0.0
    for build, logged in _trials(spans):
        if "config" not in build.attrs:
            continue
        config, trial = build.attrs["config"]
        state = build_trial_state(replace(config, retention=RETAIN_SUMMARY), trial)
        start = time.perf_counter()
        summary = run(state, config.max_rounds)
        total += logged.seconds - (time.perf_counter() - start)
        if summary.total_calls != logged.attrs["calls"]:
            raise AssertionError("keeping the call log changed the run's call count")
    return total


def _nearest_rank(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.5) - 1))]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced iteration (every key of LAYER_METRICS
    except the three measured outside the spans)."""
    children: dict[int, float] = {}
    for span in spans:
        if span.parent >= 0:
            children[span.parent] = children.get(span.parent, 0.0) + span.seconds

    def self_time(span: Span) -> float:
        return span.seconds - children.get(span.id, 0.0)

    def total(name: str) -> float:
        return sum(s.seconds for s in spans if s.name == name)

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    rounds = named("core.execute_round")
    runs = named("core.run")
    calls = sum(s.attrs["calls"] for s in runs)
    trials_ms, overhead_ms = [], []
    for build, trial_run in _trials(spans):
        trials_ms.append((trial_run.end - build.start) * 1e3)
        # The run's children are its rounds.
        overhead_ms.append(trials_ms[-1] - children.get(trial_run.id, 0.0) * 1e3)
    write = named("traceio.write_trace_csv")
    checks = named("verify.verify_trace")
    aggregate = ("experiments.run_trials", "experiments.sweep", "experiments.compare_protocols")
    metrics = {
        "core.execute_round_s": sum(s.seconds for s in rounds),
        "core.rounds": len(rounds),
        "core.round_ms_p50": _nearest_rank([s.seconds * 1e3 for s in rounds], 0.5),
        "core.round_ms_max": max((s.seconds * 1e3 for s in rounds), default=0.0),
        **{f"core.run_s.{name}": sum(s.seconds for s in runs if s.attrs["protocol"] == name)
           for name in PROTOCOLS},
        "core.run_self_s": sum(self_time(s) for s in runs),
        "core.calls": calls,
        "core.informing_per_call": sum(s.attrs["informing"] for s in runs) / calls if calls else 0.0,
        "traceio.write_trace_csv_s": total("traceio.write_trace_csv"),
        "traceio.read_trace_csv_s": total("traceio.read_trace_csv"),
        "traceio.trace_bytes": sum(s.attrs["bytes"] for s in write),
        "traceio.trace_rows": sum(s.attrs["rows"] for s in write),
        "verify.verify_trace_s": total("verify.verify_trace"),
        "verify.verify_summary_s": total("verify.verify_summary_against_trace"),
        "verify.records_checked": sum(s.attrs["records"] for s in checks),
        "verify.violations": sum(s.attrs["violations"] for s in spans if s.name.startswith("verify.")),
        "experiments.build_trial_state_s": total("experiments.build_trial_state"),
        "experiments.run_trials_s": total("experiments.run_trials"),
        "experiments.trial_ms_p50": _nearest_rank(trials_ms, 0.5),
        "experiments.trial_ms_p99": _nearest_rank(trials_ms, 0.99),
        "experiments.trial_overhead_ms": statistics.median(overhead_ms) if overhead_ms else 0.0,
        "experiments.aggregate_s": sum(self_time(s) for s in spans if s.name in aggregate),
        "experiments.trials": len(trials_ms),
        "cli.self_s": sum(self_time(s) for s in spans if s.name.startswith("cli.")),
        **{f"cli.{name}_s": total(f"cli.{name}") for name in SUBCOMMANDS},
    }
    return metrics
