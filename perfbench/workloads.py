"""The benchmark's workloads: which CLI invocations make up one iteration.

Each workload puts most of its time in a different layer, so a change that
speeds one layer shows on one workload and shows "no change" on the others:

- simulate-large: the round kernel (``core.execute_round``), every protocol
  branch, and memory per node at n = 2^20.
- trace-roundtrip: building the call log, writing and parsing the trace CSV
  and verifying it; the kernel is about 1% of the time.
- batch-small-n: 2,600 small trials, where per-trial fixed cost in
  ``experiments`` and per-round Python overhead dominate.

Argument lists may hold the placeholders ``{trace}`` and ``{summary}``; the
runner replaces them with scratch file paths.  Everything else, seeds
included, is a pure function of the workload seed and the iteration number.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 0
# Iteration 0 of every run is the reference iteration: it always takes its
# inputs from the default seed, and its outputs are checked against the
# digests recorded in digests.json.
REFERENCE_ITERATION = 0

TRACE = "{trace}"
SUMMARY = "{summary}"


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the smoke test shrinks them, the benchmark uses FULL."""

    large_n: int = 2**20
    independent_n: int = 2**14
    trace_n: int = 2**17
    sweep_ns: tuple[int, ...] = (256, 4096)
    compare_n: int = 1024
    trials: int = 200


FULL = Sizes()


def invocation_seed(workload_seed: int, iteration: int, index: int) -> int:
    """The --seed of invocation ``index`` of one iteration (63 bits)."""
    key = f"{workload_seed}:{iteration}:{index}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big") >> 1


def _simulate_large(seed, sizes: Sizes) -> list[tuple[str, ...]]:
    argvs = []
    for index, protocol in enumerate(("hybrid", "push", "quasirandom-identical")):
        argvs.append(("simulate", "--n", str(sizes.large_n), "--protocol", protocol,
                      "--seed", str(seed(index))))
    # The independent-lists draw is a Python loop per caller, 50x slower
    # per node than the other protocols, so it runs at a smaller n.
    argvs.append(("simulate", "--n", str(sizes.independent_n),
                  "--protocol", "quasirandom-independent", "--seed", str(seed(3))))
    return argvs


def _trace_roundtrip(seed, sizes: Sizes) -> list[tuple[str, ...]]:
    return [
        ("simulate", "--n", str(sizes.trace_n), "--R", "4", "--seed", str(seed(0)),
         "--trace-out", TRACE, "--summary-out", SUMMARY),
        ("trace", TRACE, "--protocol", "hybrid", "--R", "4", "--no-crashes",
         "--summary", SUMMARY),
    ]


def _batch_small_n(seed, sizes: Sizes) -> list[tuple[str, ...]]:
    return [
        ("sweep", "--n-list", ",".join(str(n) for n in sizes.sweep_ns),
         "--R-list", "1,2,3", "--protocols", "push,quasirandom-identical",
         "--trials", str(sizes.trials), "--format", "structured", "--seed", str(seed(0))),
        ("compare", "--n", str(sizes.compare_n),
         "--protocols", "hybrid,quasirandom-identical,push", "--trials", str(sizes.trials),
         "--rho", "0.1", "--crash-timing", "uniform_round", "--seed", str(seed(1))),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[Callable[[int], int], Sizes], list[tuple[str, ...]]]

    def iteration(self, workload_seed: int, iteration: int, sizes: Sizes = FULL):
        """The argument lists of one iteration, in the order they run."""
        if iteration == REFERENCE_ITERATION:
            workload_seed = DEFAULT_SEED
        return self.build(lambda index: invocation_seed(workload_seed, iteration, index), sizes)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "simulate-large",
            "the round kernel does nearly all the work, over every protocol branch, at n=2^20",
            _simulate_large,
        ),
        Workload(
            "trace-roundtrip",
            "call-log building, trace CSV write, parse and verify dominate; the kernel is ~1%",
            _trace_roundtrip,
        ),
        Workload(
            "batch-small-n",
            "2,600 small trials: per-trial fixed cost and per-round Python overhead dominate",
            _batch_small_n,
        ),
    )
}
