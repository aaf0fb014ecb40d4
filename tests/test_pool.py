"""The pool of forked workers over a batch's stacks: its results equal the
serial path's byte for byte, and no worker is started, or outlives a call,
where it must not."""

import concurrent.futures
import multiprocessing
import os
import signal
import threading
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from rumorsim import experiments
from rumorsim.cli import main
from rumorsim.experiments import (
    RETAIN_SUMMARY,
    RETAIN_TRACE,
    TIMING_AT_START,
    TIMING_FIXED_ROUND,
    TIMING_UNIFORM_ROUND,
    CrashModel,
    ExperimentConfig,
    compare_protocols,
    run_trials,
    sweep,
    sweep_grid,
)
from rumorsim.protocols import FullyRandomPush, Hybrid, Quasirandom

from test_core import ALL_SPECS

CRASHES = {
    "none": None,
    TIMING_AT_START: CrashModel(0.2, TIMING_AT_START),
    TIMING_UNIFORM_ROUND: CrashModel(0.2, TIMING_UNIFORM_ROUND),
    TIMING_FIXED_ROUND: CrashModel(0.2, TIMING_FIXED_ROUND, round=2),
}

# 100 stacked nodes hold 4 worlds of n=24, so 13 trials make 4 stacks, the
# last of one trial.
STACK_NODES = 100
N, TRIALS = 24, 13


@pytest.fixture
def deadline():
    """Fails a test still running after 60 s instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError("test still running after its 60 s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def small_stacks(monkeypatch):
    monkeypatch.setattr(experiments, "_STACK_NODES", STACK_NODES)


def _allow_pool(monkeypatch, cpus: int) -> None:
    """Let even a small batch fork ``cpus`` workers.  The threads running
    now are taken as those at import: a test module that imported scipy
    after this package started its BLAS threads, which stop around a fork
    like numpy's."""
    monkeypatch.setattr(experiments, "_POOL_NODE_TRIALS", 0)
    monkeypatch.setattr(experiments, "_IMPORT_THREADS", experiments._thread_count())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


@pytest.fixture
def pools(monkeypatch):
    """The worker counts of the pools built during a test."""
    built = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            built.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    return built


@pytest.fixture
def no_pool(monkeypatch):
    """Fails the test if a pool is built, before any process starts."""
    def refuse(*args, **kwargs):
        pytest.fail("a process pool was built")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)


def _assert_same_batches(serial, pooled) -> None:
    assert len(serial) == len(pooled)
    for a, b in zip(serial, pooled):
        assert a.as_dict() == b.as_dict()
        assert a.summaries == b.summaries
        assert (a.traces is None) == (b.traces is None)
        for log_a, log_b in zip(a.traces or (), b.traces or ()):
            for col_a, col_b in zip(log_a.columns, log_b.columns):
                assert col_a.dtype == col_b.dtype and np.array_equal(col_a, col_b)


def _serial_and_pooled(monkeypatch, cpus, batch):
    serial = batch()
    _allow_pool(monkeypatch, cpus)
    return serial, batch()


@pytest.mark.parametrize("cpus", [2, 3])
def test_pooled_batches_equal_serial(cpus, monkeypatch, small_stacks, pools, deadline):
    # Every protocol and crash timing with traces kept, self-calls on and
    # off, and every protocol without traces, all in one call as a sweep's
    # cells are.  Six trials make a stack of four and a ragged one of two.
    configs = [
        ExperimentConfig(spec=spec, n=N, trials=6, master_seed=91, crash=crash,
                         retention=RETAIN_TRACE, start=5, allow_self_calls=self_calls)
        for spec in ALL_SPECS
        for crash in CRASHES.values()
        for self_calls in (True, False)
    ] + [
        ExperimentConfig(spec=spec, n=N, trials=6, master_seed=91,
                         crash=CRASHES[TIMING_UNIFORM_ROUND])
        for spec in ALL_SPECS
    ]
    serial, pooled = _serial_and_pooled(
        monkeypatch, cpus, lambda: experiments._run_batches(configs))
    assert pools == [cpus]
    _assert_same_batches(serial, pooled)
    assert [stats.traces is None for stats in pooled] == [
        config.retention == RETAIN_SUMMARY for config in configs]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [2, 3])
def test_pooled_sweep_equals_serial(cpus, monkeypatch, small_stacks, pools, deadline):
    # Cells of 6, 4 and 1 worlds per stack: 13 trials leave the first two
    # a ragged last stack.
    cells = sweep_grid([16, 24, 100], [1, Quasirandom("identical"), FullyRandomPush()])

    def batch():
        return sweep(cells, TRIALS, 93, crash=CrashModel(0.1), start=1)

    serial, pooled = _serial_and_pooled(monkeypatch, cpus, batch)
    assert pools == [cpus]
    _assert_same_batches(serial.stats, pooled.stats)
    assert serial.rows() == pooled.rows()
    assert multiprocessing.active_children() == []


def test_pooled_compare_equals_serial(monkeypatch, small_stacks, pools, deadline):
    def batch():
        return compare_protocols([Hybrid(2), Quasirandom("identical")], N, TRIALS, 94)

    serial, pooled = _serial_and_pooled(monkeypatch, 2, batch)
    assert pools == [2]
    assert serial.as_dict() == pooled.as_dict()
    _assert_same_batches(serial.stats, pooled.stats)


def test_one_job_per_worker_at_most(monkeypatch, small_stacks, pools, deadline):
    # Two stacks on three CPUs: two workers.
    config = ExperimentConfig(spec=Hybrid(2), n=N, trials=5, master_seed=95)
    serial, pooled = _serial_and_pooled(monkeypatch, 3, lambda: [run_trials(config)])
    assert pools == [2]
    _assert_same_batches(serial, pooled)


# ------------------------------------------------------ where no pool starts

CONFIG = ExperimentConfig(spec=Hybrid(2), n=N, trials=TRIALS, master_seed=96)


def test_no_pool_on_one_cpu(monkeypatch, small_stacks, no_pool):
    _allow_pool(monkeypatch, 1)
    assert run_trials(CONFIG).trials == TRIALS


def test_no_pool_without_the_fork_start_method(monkeypatch, small_stacks, no_pool):
    _allow_pool(monkeypatch, 2)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn", "forkserver"])
    assert run_trials(CONFIG).trials == TRIALS


def test_no_pool_while_a_second_thread_runs(monkeypatch, small_stacks, no_pool):
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    thread.start()
    try:
        # Counted as running at import, the thread is refused as a thread.
        _allow_pool(monkeypatch, 2)
        assert run_trials(CONFIG).trials == TRIALS
    finally:
        release.set()
        thread.join(timeout=30)
    assert not thread.is_alive()


def test_no_pool_when_threads_started_since_import(monkeypatch, small_stacks, no_pool):
    # A native thread is invisible to ``threading``; it shows only in /proc.
    _allow_pool(monkeypatch, 2)
    monkeypatch.setattr(experiments, "_IMPORT_THREADS", experiments._thread_count() - 1)
    assert run_trials(CONFIG).trials == TRIALS


def test_no_pool_below_the_node_trial_threshold(monkeypatch, no_pool):
    monkeypatch.setattr(experiments, "_IMPORT_THREADS", experiments._thread_count())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    config = ExperimentConfig(spec=Hybrid(2), n=256, trials=200, master_seed=97)
    assert config.n * config.trials < experiments._POOL_NODE_TRIALS
    assert run_trials(config).trials == 200


# ------------------------------------------------------------ failing workers

def test_a_worker_error_reaches_the_caller_and_leaves_no_process(
    monkeypatch, small_stacks, deadline
):
    def fail_the_ragged_stack(worlds, max_rounds=None):
        if len(worlds) == 1:
            raise ValueError("stack failed")
        return run_stack(worlds, max_rounds)

    run_stack = experiments.run_stack
    # The workers fork after the patch, so they run it.
    monkeypatch.setattr(experiments, "run_stack", fail_the_ragged_stack)
    _allow_pool(monkeypatch, 2)
    with pytest.raises(ValueError, match="stack failed"):
        run_trials(CONFIG)
    assert multiprocessing.active_children() == []


class _DeadPool:
    """Stands in for the executor: every job fails as when its worker was
    killed, and no process starts."""

    shutdowns = []

    def __init__(self, max_workers, mp_context=None):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.shutdown()

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_exception(BrokenProcessPool("a child process terminated abruptly"))
        return future

    def shutdown(self, wait=True, *, cancel_futures=False):
        self.shutdowns.append(cancel_futures)


def test_a_dead_worker_is_an_error_exit(monkeypatch, capsys):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _DeadPool)
    monkeypatch.setattr(_DeadPool, "shutdowns", [])
    _allow_pool(monkeypatch, 2)
    rc = main(["sweep", "--n-list", "16,32", "--R-list", "1", "--trials", "9", "--seed", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a worker process died: a child process terminated abruptly")
    # Pending jobs are cancelled before the pool is left.
    assert _DeadPool.shutdowns[0] is True


def test_other_runtime_errors_still_raise(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("not a pool failure")

    monkeypatch.setattr(experiments, "_run_batches", broken)
    with pytest.raises(RuntimeError, match="not a pool failure"):
        main(["sweep", "--n-list", "16", "--R-list", "1", "--trials", "2", "--seed", "1"])
