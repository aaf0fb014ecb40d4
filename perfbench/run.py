"""Runs one benchmark workload against the package in ``src/`` and prints its
metrics; the last line of stdout is the JSON result.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

With ``--trace 0`` it reports the end-to-end metrics, measured with tracing
off; with ``--trace 1`` the per-layer metrics of a traced run.  See
README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not __package__:  # run as a script
    sys.path.insert(0, str(ROOT))

from perfbench import checks  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    DEFAULT_SEED, FULL, REFERENCE_ITERATION, SUMMARY, TRACE, WORKLOADS,
)

SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 7

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def _import_package():
    """Imports the package from this checkout's ``src/``, never from an
    installed copy, so the benchmark measures the code beside it."""
    if not (SRC / "rumorsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'rumorsim'}")
    sys.path.insert(0, str(SRC))
    import rumorsim.cli

    if Path(rumorsim.cli.__file__).resolve().parent != SRC / "rumorsim":
        raise SystemExit(f"error: imported rumorsim from {rumorsim.cli.__file__}")
    return rumorsim.cli


def run_context() -> dict:
    """Where and on what the figures were measured."""
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                               text=True, timeout=30)
        commit = probe.stdout.strip() or None
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, encoding="utf-8") as handle:
            src_lines += sum(1 for _ in handle)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_lines": src_lines,
    }


def measure_setup(workload: str, seed: int, repeats: int = SETUP_REPEATS) -> float:
    """Median set-up time over ``repeats`` fresh processes."""
    probe = str(ROOT / "perfbench" / "setup_probe.py")
    samples = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, probe, workload, str(seed)], cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


class Runner:
    """Runs iterations of one workload and checks every output."""

    def __init__(self, cli, workload, sizes, scratch: str):
        self.cli, self.workload, self.sizes = cli, workload, sizes
        self.files = {"trace": os.path.join(scratch, "trace.csv"),
                      "summary": os.path.join(scratch, "summary.json")}
        self.recorded = checks.load_digests()
        self.outcomes = []

    def _invoke(self, argv):
        concrete = [{TRACE: self.files["trace"], SUMMARY: self.files["summary"]}.get(a, a)
                    for a in argv]
        buffer = io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(buffer):
                rc = self.cli.main(concrete)
        except Exception:  # a crash is a failed invocation, not a failed benchmark
            traceback.print_exc()
            rc = -1
        return checks.Outcome(tuple(argv), rc, time.perf_counter() - start, buffer.getvalue())

    def iteration(self, workload_seed: int, index: int, tracer=None):
        """Runs one iteration; returns (wall seconds, outcomes)."""
        from perfbench.tracing import instrumented

        argvs = self.workload.iteration(workload_seed, index, self.sizes)
        if tracer is not None:
            tracer.iteration = index
        gc.collect()
        outcomes = []
        with instrumented(tracer) if tracer else nullcontext():
            start = time.perf_counter()
            for argv in argvs:
                with tracer.span(f"cli.{argv[0]}") if tracer else nullcontext():
                    outcomes.append(self._invoke(argv))
            wall = time.perf_counter() - start
        self.check(outcomes, pinned=index == REFERENCE_ITERATION and self.sizes == FULL)
        self.outcomes.extend(outcomes)
        return wall, outcomes

    def check(self, outcomes, pinned: bool) -> None:
        """Digests and checks one iteration's outputs; ``pinned`` also
        compares the digests with the recorded ones."""
        last_summary = None
        for outcome in outcomes:
            outcome.digests["stdout"] = hashlib.sha256(outcome.stdout.encode()).hexdigest()
            if "--trace-out" in outcome.argv and os.path.exists(self.files["trace"]):
                outcome.digests["trace"] = checks.sha256_file(self.files["trace"])
            try:
                last_summary = checks.check_outcome(outcome, self.files, last_summary)
            except (KeyError, TypeError, OSError) as exc:
                outcome.problems.append(f"output not as documented: {exc!r}")
            if pinned:
                checks.check_digests(outcome, self.recorded)


def _paced(seconds: float, walls: list[float]):
    """Iteration numbers from 0, for as long as the next iteration is
    expected to end near ``seconds``: it starts while half the median
    iteration so far still fits."""
    start, index = time.perf_counter(), 0
    while not walls or time.perf_counter() - start + statistics.median(walls) / 2 < seconds:
        yield index
        index += 1


def _measure(runner: Runner, seed: int, seconds: float) -> dict:
    """Untraced iterations back to back for ``seconds``: end-to-end metrics.

    ``wall_s`` is the mean iteration, not the median: on a shared host the
    speed switches between a fast and a slow mode that each last 20-40 s,
    and a run's median flips between the modes where its mean moves
    smoothly with their mix.
    """
    walls, calls, trials, by_command = [], 0.0, 0, {}
    for index in _paced(seconds, walls):
        wall, outcomes = runner.iteration(seed, index)
        walls.append(wall)
        for o in outcomes:
            calls += o.calls
            trials += o.trials
            by_command[o.argv[0]] = by_command.get(o.argv[0], 0.0) + o.seconds
    # Not gated: the work of an iteration is fixed by the workload, so these
    # add no signal to wall_s, only more chances for host noise to breach a
    # bound.  Each subcommand's time is simulate_trace_s and check_trace_s
    # on trace-roundtrip.
    total = sum(walls)
    print(f"info calls_per_s {calls / total!r} 1/s")
    print(f"info trials_per_s {trials / total!r} 1/s")
    for command, spent in by_command.items():
        print(f"info {command}_s {spent / len(walls)!r} s (mean of {len(walls)} iterations)")
    return {
        "wall_s": total / len(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _measure_traced(runner: Runner, seed: int, seconds: float, spans_path: Path) -> dict:
    """Pairs of untraced and traced iterations at one seed: per-layer metrics."""
    from perfbench import tracing

    tracer = tracing.Tracer()
    plain_walls, traced_walls, pair_walls, per_iteration = [], [], [], []
    for index in _paced(seconds, pair_walls):
        plain_wall, plain = runner.iteration(seed, index)
        first_span = len(tracer.spans)
        traced_wall, traced = runner.iteration(seed, index, tracer)
        for a, b in zip(plain, traced):
            if a.digests != b.digests:
                b.problems.append("traced outputs differ from the untraced run at the same seed")
        spans = tracer.spans[first_span:]
        metrics = tracing.layer_metrics(spans)
        metrics["core.log_build_s"] = tracing.log_build_seconds(spans)
        per_iteration.append(metrics)
        plain_walls.append(plain_wall)
        traced_walls.append(traced_wall)
        pair_walls.append(plain_wall + traced_wall)
    tracer.write_csv(str(spans_path))
    metrics = {key: statistics.median(m[key] for m in per_iteration) for key in per_iteration[0]}
    metrics["core.init_bytes_per_node"] = tracing.init_bytes_per_node()
    metrics["trace_overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
    )
    return {key: metrics[key] for key in tracing.LAYER_METRICS}


def benchmark(workload_name: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    """One benchmark run; returns the result document printed last."""
    cli = _import_package()
    from perfbench import tracing

    sizes = FULL if sizes is None else sizes
    workload = WORKLOADS[workload_name]
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{workload_name}-seed{seed}-trace{int(trace)}"
    context = run_context()
    print("context " + json.dumps(context, sort_keys=True))

    setup_s = None if trace else measure_setup(workload_name, seed)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        runner = Runner(cli, workload, sizes, scratch)
        if trace:
            values = _measure_traced(runner, seed, seconds, OUT / f"spans-{stem}.csv")
            units = tracing.LAYER_METRICS
        else:
            values = {"setup_s": setup_s, **_measure(runner, seed, seconds)}
            units = END_TO_END
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = [o for o in runner.outcomes if o.failed]
    for outcome in failed:
        print(f"FAILED {outcome.key}: {'; '.join(outcome.problems)}", file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"metric {name} {metric['value']!r} {metric['unit']}")
    print(f"info failed_frac {len(failed) / len(runner.outcomes)!r} "
          f"({len(failed)} of {len(runner.outcomes)} invocations)")
    result = {
        "correct": not failed,
        "attempted": len(runner.outcomes),
        "failed": len(failed),
        "metrics": metrics,
    }
    record = {"context": context, "workload": workload_name, "seed": seed, "result": result,
              "invocations": [{"argv": o.key, "rc": o.rc, "seconds": o.seconds,
                               "digests": o.digests, "problems": o.problems}
                              for o in runner.outcomes]}
    with open(OUT / f"result-{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
