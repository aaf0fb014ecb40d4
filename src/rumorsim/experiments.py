"""Monte Carlo harness: seeded trial batches, sweeps, comparisons, bounds.

Trial independence and reproducibility come from one seeding scheme:
trial ``i`` of stream group ``g`` under master seed ``m`` derives its
crash-schedule generator from ``SeedSequence(m, spawn_key=(g, i, 0))``
and its simulation generator from ``SeedSequence(m, spawn_key=(g, i, 1))``.
Plain batches use group 0; sweeps and comparisons use the cell or
protocol index as the group, so a one-cell sweep reproduces a plain
batch exactly and trials can run in any order or in parallel.

A call runs its batches' trials in stacks, and when the batches hold at
least ``_POOL_NODE_TRIALS`` node-trials it runs the stacks on a pool of
forked workers, one per CPU the process may use (at most one per stack).
Results come back in stack order, so they do not depend on the worker
count.  The stacks run in the calling process instead when fewer than two
workers would run, when the platform has no ``fork`` start method, or
when a thread has started since this module was imported, as forking a
process with threads is unsafe.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .bounds import lower_bound_rounds, max_total_calls, upper_bound_rounds
from .core import (
    MAX_STACK_NODES,
    RUN_CAPPED,
    RUN_COMPLETED,
    RUN_STALLED,
    CallLog,
    TraceSummary,
    default_round_cap,
    init_simulation,
    init_stack,
    run,  # not called here; importable for callers that patch it by name
    run_stack,
)
from .protocols import Hybrid, ProtocolSpec, protocol_name

TIMING_AT_START = "at_start"
TIMING_UNIFORM_ROUND = "uniform_round"
TIMING_FIXED_ROUND = "fixed_round"

RETAIN_SUMMARY = "summary"
RETAIN_TRACE = "trace"

QUANTILE_POINTS = (0.1, 0.25, 0.5, 0.75, 0.9)


@dataclass(frozen=True)
class CrashModel:
    """Which nodes crash and when.

    ``floor(fraction * n)`` nodes, chosen uniformly at random excluding
    the starting node, crash at round 0 (``at_start``), at one fixed
    round (``fixed_round``), or at independent uniform rounds in
    ``[0, max_round]`` (``uniform_round``; ``max_round`` defaults to the
    default round cap for the batch's ``n``).  Each round field is set
    only with the timing that reads it.
    """

    fraction: float
    timing: str = TIMING_UNIFORM_ROUND
    round: int | None = None
    max_round: int | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.fraction < 1:
            raise ValueError(f"crash fraction must be in [0, 1), got {self.fraction}")
        if self.timing not in (TIMING_AT_START, TIMING_UNIFORM_ROUND, TIMING_FIXED_ROUND):
            raise ValueError(f"unknown crash timing: {self.timing!r}")
        if self.timing == TIMING_FIXED_ROUND:
            if self.round is None or self.round < 0:
                raise ValueError("fixed_round timing needs a non-negative round")
        if self.max_round is not None and self.max_round < 0:
            raise ValueError(f"max_round must be >= 0, got {self.max_round}")
        # Crash rounds are drawn and held as int64.
        for field in ("round", "max_round"):
            value = getattr(self, field)
            if value is not None and value >= 2**63:
                raise ValueError(f"crash {field} must be below 2**63, got {value}")
        for field, timing in (("round", TIMING_FIXED_ROUND), ("max_round", TIMING_UNIFORM_ROUND)):
            if getattr(self, field) is not None and self.timing != timing:
                raise ValueError(f"crash {field} needs {timing} timing, got {self.timing}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one trial batch depends on; batches are pure in this."""

    spec: ProtocolSpec
    n: int
    trials: int
    master_seed: int
    max_rounds: int | None = None
    crash: CrashModel | None = None
    retention: str = RETAIN_SUMMARY
    start: int = 0
    allow_self_calls: bool = True
    seed_group: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        # A batch stacks at most max(n, _STACK_NODES) nodes; refuse here,
        # before a crash schedule of O(n) is drawn.
        if self.n > MAX_STACK_NODES:
            raise ValueError(f"n must be at most {MAX_STACK_NODES}, got {self.n}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.master_seed < 0:
            raise ValueError(f"master seed must be >= 0, got {self.master_seed}")
        if not 0 <= self.start < self.n:
            raise ValueError(f"start {self.start} out of range for n={self.n}")
        if self.retention not in (RETAIN_SUMMARY, RETAIN_TRACE):
            raise ValueError(f"unknown retention mode: {self.retention!r}")


@dataclass(frozen=True)
class StatBlock:
    """Location and spread of one per-trial metric (nearest-rank quantiles)."""

    count: int
    mean: float
    median: float
    std_error: float
    quantiles: tuple[tuple[float, float], ...]

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "median": self.median,
            "std_error": self.std_error,
            "quantiles": {f"p{int(p * 100)}": v for p, v in self.quantiles},
        }


def _stat_block(values: Sequence[float]) -> StatBlock | None:
    if len(values) == 0:
        return None
    arr = np.asarray(values, dtype=float)
    if len(arr) > 1:
        std_error = float(arr.std(ddof=1) / math.sqrt(len(arr)))
    else:
        std_error = 0.0
    quantiles = tuple(
        (p, float(np.quantile(arr, p, method="inverted_cdf")))
        for p in QUANTILE_POINTS
    )
    return StatBlock(
        count=len(arr),
        mean=float(arr.mean()),
        median=float(np.quantile(arr, 0.5, method="inverted_cdf")),
        std_error=std_error,
        quantiles=quantiles,
    )


@dataclass(frozen=True)
class SampleStats:
    """Aggregate of one batch; completion stats cover completed trials only."""

    trials: int
    completed_count: int
    stalled_count: int
    capped_count: int
    summaries: tuple[TraceSummary, ...]
    completion_rounds: StatBlock | None
    total_calls: StatBlock
    traces: tuple[CallLog, ...] | None = None

    @property
    def failure_count(self) -> int:
        return self.stalled_count + self.capped_count

    def incomplete_at(self, round_budget: int) -> float:
        """Fraction of trials with uninformed non-crashed nodes after the
        given round; failed trials never completed, so they count."""
        missed = sum(
            1
            for s in self.summaries
            if s.completion_round is None or s.completion_round > round_budget
        )
        return missed / self.trials

    def as_dict(self) -> dict:
        return {
            "trials": self.trials,
            "completed_count": self.completed_count,
            "stalled_count": self.stalled_count,
            "capped_count": self.capped_count,
            "failure_count": self.failure_count,
            "completion_rounds": (
                None if self.completion_rounds is None else self.completion_rounds.as_dict()
            ),
            "total_calls": self.total_calls.as_dict(),
        }


def trial_seed_sequences(master_seed: int, trial: int, seed_group: int = 0):
    """(crash stream, simulation stream) seeds for one trial."""
    crash = np.random.SeedSequence(master_seed, spawn_key=(seed_group, trial, 0))
    sim = np.random.SeedSequence(master_seed, spawn_key=(seed_group, trial, 1))
    return crash, sim


def generate_crash_schedule(
    n: int, model: CrashModel, rng: np.random.Generator, start: int = 0
) -> dict[int, int]:
    """Draw the crash schedule for one trial; the start never crashes."""
    count = math.floor(model.fraction * n)
    if count > n - 1:
        raise ValueError("cannot crash every node besides the start")
    if count == 0:
        return {}
    nodes = rng.choice(n - 1, size=count, replace=False)
    nodes[nodes >= start] += 1
    if model.timing == TIMING_AT_START:
        rounds = np.zeros(count, dtype=np.int64)
    elif model.timing == TIMING_FIXED_ROUND:
        rounds = np.full(count, model.round, dtype=np.int64)
    else:
        hi = model.max_round if model.max_round is not None else default_round_cap(n)
        rounds = rng.integers(0, hi + 1, size=count)
    return dict(zip(nodes.tolist(), rounds.tolist()))


# Stacked nodes per batch step: a batch runs ``_STACK_NODES // n`` trials
# (at least one) as one stack, so the per-node arrays of each process running
# a stack stay near this size whatever the trial count.  Results do not
# depend on it.
_STACK_NODES = 2**15

# Trials times n, summed over the batches of one call, below which the
# stacks run in the calling process: forking the workers and sending the
# results back cost more than the work they share.  On a 2-CPU Xeon, for
# n from 64 to 4096, a pool took up to 1.73x the serial time below 2^18
# node-trials and 0.57-0.98x from 2^18 to 2^20.  Results do not depend on it.
_POOL_NODE_TRIALS = 2**18


def _thread_count() -> int | None:
    """Threads of this process, or None where ``/proc`` cannot tell."""
    try:
        return len(os.listdir("/proc/self/task"))
    except FileNotFoundError:
        return None


# Threads running when this module was imported, after numpy: its BLAS
# threads, which stop themselves around a fork.
_IMPORT_THREADS = _thread_count()


def _trial_inputs(config: ExperimentConfig, trial: int):
    """(simulation seed, crash schedule) of one trial of a batch."""
    crash_seed, sim_seed = trial_seed_sequences(
        config.master_seed, trial, config.seed_group
    )
    schedule = None
    if config.crash is not None and config.crash.fraction > 0:
        rng = np.random.default_rng(crash_seed)
        schedule = generate_crash_schedule(config.n, config.crash, rng, config.start)
    return sim_seed, schedule


def build_trial_state(config: ExperimentConfig, trial: int):
    """The fully seeded simulation state for one trial of a batch."""
    sim_seed, schedule = _trial_inputs(config, trial)
    return init_simulation(
        config.spec,
        config.n,
        config.start,
        seed=sim_seed,
        crash_schedule=schedule,
        allow_self_calls=config.allow_self_calls,
        keep_log=(config.retention == RETAIN_TRACE),
    )


def _stacks(config: ExperimentConfig) -> list[tuple[ExperimentConfig, int, int]]:
    """A batch's jobs: (config, first trial, stop) of each of its stacks."""
    per_stack = max(1, _STACK_NODES // config.n)
    return [
        (config, first, min(first + per_stack, config.trials))
        for first in range(0, config.trials, per_stack)
    ]


def _run_stack(config: ExperimentConfig, first: int, stop: int):
    """Summaries of trials ``first`` to ``stop - 1`` of a batch, run as one
    stack, and their call logs when the batch keeps traces (else None)."""
    seeds, schedules = zip(*(_trial_inputs(config, trial) for trial in range(first, stop)))
    keep_log = config.retention == RETAIN_TRACE
    worlds = init_stack(
        config.spec,
        config.n,
        config.start,
        seeds,
        schedules,
        allow_self_calls=config.allow_self_calls,
        keep_log=keep_log,
    )
    summaries = run_stack(worlds, config.max_rounds)
    return summaries, [world.log for world in worlds] if keep_log else None


def _pool_workers(jobs) -> int:
    """How many forked workers run ``jobs``; below 2 they run in this process.

    Forking is safe only while no thread has started since import; threads
    are counted in Linux's ``/proc``, so elsewhere the jobs run here.
    """
    if sum((stop - first) * config.n for config, first, stop in jobs) < _POOL_NODE_TRIALS:
        return 1
    threads = _thread_count()
    if threads is None or threads > _IMPORT_THREADS or threading.active_count() > 1:
        return 1
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return min(len(os.sched_getaffinity(0)), len(jobs))


def _map_stacks(jobs) -> list:
    """``_run_stack`` of every job, in job order, on one pool of forked
    workers when ``_pool_workers`` allows two or more."""
    workers = _pool_workers(jobs)
    if workers < 2:
        return [_run_stack(*job) for job in jobs]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        try:
            futures = [pool.submit(_run_stack, *job) for job in jobs]
            return [future.result() for future in futures]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def _run_batches(configs: Sequence[ExperimentConfig]) -> list[SampleStats]:
    """Each config's batch, with the stacks of all of them run by one
    ``_map_stacks``."""
    per_config = [_stacks(config) for config in configs]
    results = iter(_map_stacks([job for jobs in per_config for job in jobs]))
    stats = []
    for config, jobs in zip(configs, per_config):
        batch = [next(results) for _ in jobs]
        summaries = [s for stack_summaries, _ in batch for s in stack_summaries]
        traces = None
        if config.retention == RETAIN_TRACE:
            traces = tuple(log for _, logs in batch for log in logs)
        completed = [s for s in summaries if s.outcome == RUN_COMPLETED]
        stalled = sum(1 for s in summaries if s.outcome == RUN_STALLED)
        capped = sum(1 for s in summaries if s.outcome == RUN_CAPPED)
        stats.append(SampleStats(
            trials=config.trials,
            completed_count=len(completed),
            stalled_count=stalled,
            capped_count=capped,
            summaries=tuple(summaries),
            completion_rounds=_stat_block([s.completion_round for s in completed]),
            total_calls=_stat_block([s.total_calls for s in summaries]),
            traces=traces,
        ))
    return stats


def run_trials(config: ExperimentConfig) -> SampleStats:
    """Run the batch; per-trial stalls and caps are reported, never raised.

    Trials run in stacks of ``_STACK_NODES // n`` worlds, each on its own
    generator, so every trial's summary and trace equal those of
    ``run(build_trial_state(config, trial), config.max_rounds)``, wherever
    and in whichever process its stack ran.
    """
    return _run_batches([config])[0]


@dataclass(frozen=True)
class PairwiseComparison:
    """Mean completion-round difference between two batch entries."""

    name_a: str
    name_b: str
    mean_a: float | None
    mean_b: float | None
    mean_diff: float | None
    combined_std_error: float | None
    dominance_flagged: bool

    def as_dict(self) -> dict:
        return {
            "a": self.name_a,
            "b": self.name_b,
            "mean_a": self.mean_a,
            "mean_b": self.mean_b,
            "mean_diff": self.mean_diff,
            "combined_std_error": self.combined_std_error,
            "dominance_flagged": self.dominance_flagged,
        }


@dataclass(frozen=True)
class ComparisonReport:
    n: int
    trials: int
    master_seed: int
    names: tuple[str, ...]
    stats: tuple[SampleStats, ...]
    pairs: tuple[PairwiseComparison, ...]

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "protocols": {
                f"{i}:{name}": stat.as_dict()
                for i, (name, stat) in enumerate(zip(self.names, self.stats))
            },
            "pairs": [p.as_dict() for p in self.pairs],
        }


def compare_protocols(
    specs: Sequence[ProtocolSpec],
    n: int,
    trials: int,
    master_seed: int,
    *,
    max_rounds: int | None = None,
    crash: CrashModel | None = None,
    start: int = 0,
) -> ComparisonReport:
    """Evaluate several protocols on equal trial counts.

    Protocol ``i`` uses seed group ``i``, so two entries with the same
    spec get independent streams.  A pair is dominance-flagged when a
    hybrid entry's mean completion exceeds an identical-lists entry's
    mean by more than three combined standard errors (the hybrid is
    expected to be at least as fast).
    """
    if len(specs) < 2:
        raise ValueError("compare_protocols needs at least two protocol specs")
    result = sweep(
        [SweepCell(n, spec) for spec in specs],
        trials,
        master_seed,
        max_rounds=max_rounds,
        crash=crash,
        start=start,
    )
    names = tuple(protocol_name(spec) for spec in specs)
    pairs = tuple(
        _pairwise(names, result.stats, a, b)
        for a in range(len(specs))
        for b in range(a + 1, len(specs))
    )
    return ComparisonReport(
        n=n,
        trials=trials,
        master_seed=master_seed,
        names=names,
        stats=result.stats,
        pairs=pairs,
    )


def _pairwise(names, stats, a: int, b: int) -> PairwiseComparison:
    block_a = stats[a].completion_rounds
    block_b = stats[b].completion_rounds
    mean_a = None if block_a is None else block_a.mean
    mean_b = None if block_b is None else block_b.mean
    diff = None
    combined = None
    if mean_a is not None and mean_b is not None:
        diff = mean_a - mean_b
        combined = math.hypot(block_a.std_error, block_b.std_error)
    flagged = False
    if diff is not None:
        pair = (names[a], names[b])
        if pair == ("hybrid", "quasirandom-identical"):
            flagged = diff > 3 * combined
        elif pair == ("quasirandom-identical", "hybrid"):
            flagged = -diff > 3 * combined
    return PairwiseComparison(
        name_a=names[a],
        name_b=names[b],
        mean_a=mean_a,
        mean_b=mean_b,
        mean_diff=diff,
        combined_std_error=combined,
        dominance_flagged=flagged,
    )


@dataclass(frozen=True)
class BoundValidationReport:
    """Empirical batch framed against the closed-form round bounds."""

    n: int
    stop_budget: int
    trials: int
    upper_epsilon: float
    lower_epsilon: float
    upper_rounds: float
    lower_rounds: float
    lower_cutoff: int
    fraction_within_upper: float
    incomplete_at_lower_cutoff: float
    max_observed_calls: int
    max_calls_bound: int
    call_cap_satisfied: bool

    def as_dict(self) -> dict:
        return asdict(self)


def validate_bounds(
    config: ExperimentConfig,
    stats: SampleStats | None = None,
    *,
    upper_epsilon: float = 0.1,
    lower_epsilon: float = 0.1,
) -> BoundValidationReport:
    """Frame a hybrid batch against the round bounds and the call cap.

    ``stats`` may carry a batch already run for this exact config;
    otherwise the batch is run here.  The upper bound uses
    ``default_round_slack``.
    """
    if config.spec.name != Hybrid.name:
        raise ValueError("bound validation applies to the hybrid protocol")
    if stats is None:
        stats = run_trials(config)
    budget = config.spec.stop_budget
    upper = upper_bound_rounds(config.n, budget, upper_epsilon)
    lower = lower_bound_rounds(config.n, budget, lower_epsilon)
    cutoff = math.floor(lower) - 1
    within = sum(
        1
        for s in stats.summaries
        if s.completion_round is not None and s.completion_round <= upper
    )
    max_observed = max(s.total_calls for s in stats.summaries)
    cap = max_total_calls(config.n, budget)
    return BoundValidationReport(
        n=config.n,
        stop_budget=budget,
        trials=stats.trials,
        upper_epsilon=upper_epsilon,
        lower_epsilon=lower_epsilon,
        upper_rounds=upper,
        lower_rounds=lower,
        lower_cutoff=cutoff,
        fraction_within_upper=within / stats.trials,
        incomplete_at_lower_cutoff=stats.incomplete_at(cutoff),
        max_observed_calls=max_observed,
        max_calls_bound=cap,
        call_cap_satisfied=max_observed <= cap,
    )


@dataclass(frozen=True)
class SweepCell:
    n: int
    spec: ProtocolSpec

    @property
    def stop_budget(self) -> int | None:
        return self.spec.stop_budget


@dataclass(frozen=True)
class SweepResult:
    trials: int
    master_seed: int
    cells: tuple[SweepCell, ...]
    stats: tuple[SampleStats, ...]

    ROW_HEADER = ("n", "protocol", "stop_budget", "statistic", "value")

    def rows(self) -> list[tuple]:
        """One row per (cell, statistic) for the delimited table export."""
        out = []
        for cell, stat in zip(self.cells, self.stats):
            name = protocol_name(cell.spec)
            budget = "" if cell.stop_budget is None else cell.stop_budget
            block = stat.completion_rounds
            entries = [
                ("completion_mean", None if block is None else block.mean),
                ("completion_median", None if block is None else block.median),
                ("completion_std_error", None if block is None else block.std_error),
                ("calls_mean", stat.total_calls.mean),
                ("calls_max", max(s.total_calls for s in stat.summaries)),
                ("completed_count", stat.completed_count),
                ("stalled_count", stat.stalled_count),
                ("capped_count", stat.capped_count),
            ]
            for statistic, value in entries:
                out.append((cell.n, name, budget, statistic, "" if value is None else value))
        return out


def sweep_grid(
    ns: Sequence[int], specs_or_budgets: Sequence
) -> list[SweepCell]:
    """Cross product of sizes and protocol specs (ints mean hybrid budgets)."""
    cells = []
    for n in ns:
        for item in specs_or_budgets:
            spec = Hybrid(item) if isinstance(item, int) else item
            cells.append(SweepCell(n=n, spec=spec))
    return cells


def sweep(
    cells: Sequence[SweepCell],
    trials: int,
    master_seed: int,
    *,
    max_rounds: int | None = None,
    crash: CrashModel | None = None,
    start: int = 0,
) -> SweepResult:
    """Run one batch per grid cell; cell ``i`` uses seed group ``i``, and
    the stacks of every cell share one pool of workers."""
    if len(cells) == 0:
        raise ValueError("sweep needs a non-empty grid")
    configs = [
        ExperimentConfig(
            spec=cell.spec,
            n=cell.n,
            trials=trials,
            master_seed=master_seed,
            max_rounds=max_rounds,
            crash=crash,
            start=start,
            seed_group=index,
        )
        for index, cell in enumerate(cells)
    ]
    return SweepResult(
        trials=trials,
        master_seed=master_seed,
        cells=tuple(cells),
        stats=tuple(_run_batches(configs)),
    )
