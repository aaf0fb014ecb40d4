"""Deterministic simulator for push-only rumor spreading on the complete graph.

The package models a family of synchronous-round broadcast protocols in
which informed nodes push a rumor by calling one node per round:

- ``Hybrid``: nodes walk the shared cyclic order, restart at a uniformly
  random node after each encounter with an already informed node, and
  stop for good after ``stop_budget`` encounters.  This caps the total
  number of calls at ``n * (stop_budget + 1)``.
- ``Quasirandom``: nodes walk cyclic lists from a random start position
  and never stop (shared identity lists or per-node random lists).
- ``FullyRandomPush``: every call goes to an independent uniform target.

``core`` holds the round engine, ``bounds`` the closed-form round bounds,
``experiments`` the seeded Monte Carlo harness, ``traceio`` the stable
file formats, ``verify`` the trace re-checker, and ``cli`` the command
line front end.  All randomness flows from explicit seeds; identical
configurations reproduce identical traces byte for byte.
"""

from .bounds import (
    BoundsReport,
    bounds_report,
    classical_push_estimate,
    default_round_slack,
    lower_bound_margin,
    lower_bound_rounds,
    max_total_calls,
    optimal_stop_budget,
    upper_bound_rounds,
)
from .core import (
    CallKind,
    CallLog,
    CallOutcome,
    CallRecord,
    RUN_CAPPED,
    RUN_COMPLETED,
    RUN_STALLED,
    SimulationState,
    TraceSummary,
    default_round_cap,
    execute_round,
    init_simulation,
    run,
)
from .experiments import (
    ComparisonReport,
    CrashModel,
    ExperimentConfig,
    SampleStats,
    SweepCell,
    SweepResult,
    compare_protocols,
    generate_crash_schedule,
    run_trials,
    sweep,
    sweep_grid,
    validate_bounds,
)
from .protocols import (
    FullyRandomPush,
    Hybrid,
    ProtocolSpec,
    Quasirandom,
    protocol_from_name,
    protocol_name,
)
from .traceio import (
    read_summary_json,
    read_trace_csv,
    write_summary_json,
    write_trace_csv,
)
from .verify import VerificationReport, verify_summary_against_trace, verify_trace

__all__ = [
    "BoundsReport",
    "CallKind",
    "CallLog",
    "CallOutcome",
    "CallRecord",
    "ComparisonReport",
    "CrashModel",
    "ExperimentConfig",
    "FullyRandomPush",
    "Hybrid",
    "ProtocolSpec",
    "Quasirandom",
    "RUN_CAPPED",
    "RUN_COMPLETED",
    "RUN_STALLED",
    "SampleStats",
    "SimulationState",
    "SweepCell",
    "SweepResult",
    "TraceSummary",
    "VerificationReport",
    "bounds_report",
    "classical_push_estimate",
    "compare_protocols",
    "default_round_cap",
    "default_round_slack",
    "execute_round",
    "generate_crash_schedule",
    "init_simulation",
    "lower_bound_margin",
    "lower_bound_rounds",
    "max_total_calls",
    "optimal_stop_budget",
    "protocol_from_name",
    "protocol_name",
    "read_summary_json",
    "read_trace_csv",
    "run",
    "run_trials",
    "sweep",
    "sweep_grid",
    "upper_bound_rounds",
    "validate_bounds",
    "verify_summary_against_trace",
    "verify_trace",
    "write_summary_json",
    "write_trace_csv",
]

__version__ = "0.1.0"
