"""Command-line front end for the simulator, bounds, and experiment harness.

Every subcommand is a thin binding: flags are parsed, handed to the
library layers, and the result is printed in a byte-stable form.  No
protocol logic lives here.

``--config FILE`` holds a JSON object keyed by the subcommand's own flag
names (``_`` for ``-``).  Each value becomes that flag, placed before the
typed flags so those win, and is accepted exactly when the same text typed
as the flag would be: on/off flags take ``true``/``false``; list flags take
an array or a comma string; every other flag takes a string or a number,
never a boolean.  ``null`` leaves the flag unset.

Exit codes: 0 success, 1 usage or ill-formed input, 2 simulation stall,
3 round cap exhausted, 4 invariant violation found by ``trace``.
"""

from __future__ import annotations

import argparse
import json
import secrets
import sys
from contextlib import contextmanager

from .bounds import bounds_report, optimal_stop_budget
from .core import RUN_CAPPED, RUN_COMPLETED, RUN_STALLED, run
from .experiments import (
    CrashModel,
    ExperimentConfig,
    RETAIN_SUMMARY,
    RETAIN_TRACE,
    TIMING_UNIFORM_ROUND,
    build_trial_state,
    compare_protocols,
    sweep,
    sweep_grid,
)
from .protocols import PROTOCOL_NAMES, protocol_from_name, protocol_name
from .traceio import (
    TraceFormatError,
    format_json,
    format_jsonl,
    format_rows_csv,
    read_summary_json,
    read_trace_csv,
    summary_to_dict,
    write_text,
    write_trace_csv,
)
from .verify import verify_summary_against_trace, verify_trace

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_STALLED = 2
EXIT_CAPPED = 3
EXIT_VIOLATION = 4

_OUTCOME_EXIT = {RUN_COMPLETED: EXIT_OK, RUN_STALLED: EXIT_STALLED, RUN_CAPPED: EXIT_CAPPED}

FORMAT_DELIMITED = "delimited"
FORMAT_STRUCTURED = "structured"
FORMAT_LINES = "lines"


class UsageError(Exception):
    """Bad flags, bad config, or ill-formed input files."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; that code is reserved
    # for simulation stalls, so route parse errors through UsageError.
    def error(self, message):
        raise UsageError(message)


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object")
    return data


def _names(text: str) -> list[str]:
    """A list flag's comma-separated items, blanks dropped."""
    return [token.strip() for token in text.split(",") if token.strip()]


def _integers(text: str) -> list[int]:
    try:
        return [int(token) for token in _names(text)]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _config_flags(command: argparse.ArgumentParser, config: dict) -> list[str]:
    """The command's own flags for the config values; see the module doc."""
    actions = {action.dest: action for action in command._actions
               if action.option_strings and action.dest not in ("help", "config")}
    unknown = sorted(set(config) - set(actions))
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    flags = []
    for key, value in config.items():
        action = actions[key]
        if value is None:
            continue
        if action.nargs == 0:  # an on/off flag
            if not isinstance(value, bool):
                raise UsageError(f"config {key} must be true or false, got {value!r}")
            flags += action.option_strings[:1] if value else []
            continue
        is_list = action.type in (_names, _integers)
        items = value if is_list and isinstance(value, list) else [value]
        if not all(isinstance(v, (str, int, float)) and not isinstance(v, bool) for v in items):
            kind = "an array, a string or a number" if is_list else "a string or a number"
            raise UsageError(f"config {key} must be {kind}, got {value!r}")
        flags.append(f"{action.option_strings[0]}={','.join(str(v) for v in items)}")
    return flags


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse argv; a --config file's values go in as flags ahead of argv's own."""
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    (subparsers,) = [action for action in parser._actions
                     if isinstance(action, argparse._SubParsersAction)]
    flags = _config_flags(subparsers.choices[args.subcommand], _load_config_file(args.config))
    at = argv.index(args.subcommand) + 1
    return parser.parse_args(argv[:at] + flags + argv[at:])


def _require_n(args: argparse.Namespace) -> int:
    if args.n is None:
        raise UsageError("--n is required")
    return args.n


def _resolve_seed(args: argparse.Namespace) -> int:
    """Use the given seed, or draw one from system entropy and announce it."""
    seed = args.seed
    if seed is None:
        seed = secrets.randbits(63)
        print(f"seed = {seed}", file=sys.stderr)
    return seed


def _resolve_protocol(args: argparse.Namespace, name: str, *, budget_hybrid_only: bool = False):
    """Spec for ``name``; hybrid gets --R or the optimal default budget.

    With ``budget_hybrid_only`` a set --R is ignored for other protocols
    (mixed compare lists); otherwise it is rejected as a bad combination.
    """
    if name != "hybrid":
        return protocol_from_name(name, stop_budget=None if budget_hybrid_only else args.R)
    budget = args.R
    if budget is None:
        n = _require_n(args)
        # The bound formulas need n >= 2; a one-node run takes no calls.
        budget = optimal_stop_budget(n) if n >= 2 else 1
    return protocol_from_name(name, stop_budget=budget)


def _resolve_crash_model(args: argparse.Namespace) -> CrashModel | None:
    if args.rho == 0.0:
        return None
    return CrashModel(
        fraction=args.rho,
        timing=args.crash_timing,
        round=args.crash_round,
        max_round=args.crash_max_round,
    )


@contextmanager
def _writing(path: str):
    """Report a failed write of an output file as a usage error."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _emit(text: str, out_path: str | None) -> None:
    sys.stdout.write(text)
    if out_path is not None:
        with _writing(out_path):
            write_text(out_path, text)


def _cmd_simulate(args: argparse.Namespace) -> int:
    n = _require_n(args)
    config = ExperimentConfig(
        spec=_resolve_protocol(args, args.protocol),
        n=n,
        trials=1,
        master_seed=_resolve_seed(args),
        max_rounds=args.cap,
        crash=_resolve_crash_model(args),
        retention=RETAIN_TRACE if args.trace_out is not None else RETAIN_SUMMARY,
        start=args.start,
        allow_self_calls=not args.no_self_calls,
    )
    state = build_trial_state(config, 0)
    summary = run(state, config.max_rounds)

    _emit(format_json(summary_to_dict(summary)), args.summary_out)
    if args.trace_out is not None:
        with _writing(args.trace_out):
            write_trace_csv(state.log, args.trace_out)
    return _OUTCOME_EXIT[summary.outcome]


def _cmd_bounds(args: argparse.Namespace) -> int:
    n = _require_n(args)
    budget = args.R
    if budget is not None and budget.is_integer():
        budget = int(budget)
    report = bounds_report(n, budget, epsilon=args.epsilon)
    _emit(format_json(report.as_dict()), args.out)
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    n = _require_n(args)
    specs = [_resolve_protocol(args, name, budget_hybrid_only=True) for name in args.protocols]
    report = compare_protocols(
        specs,
        n,
        args.trials,
        _resolve_seed(args),
        max_rounds=args.cap,
        crash=_resolve_crash_model(args),
        start=args.start,
    )
    _emit(format_json(report.as_dict()), args.out)
    return EXIT_OK


def _sweep_structured(result) -> dict:
    cells = []
    for cell, stats in zip(result.cells, result.stats):
        cells.append(
            {
                "n": cell.n,
                "protocol": protocol_name(cell.spec),
                "stop_budget": cell.stop_budget,
                "stats": stats.as_dict(),
            }
        )
    return {"trials": result.trials, "master_seed": result.master_seed, "cells": cells}


_SWEEP_FORMATS = {
    FORMAT_DELIMITED: lambda result: format_rows_csv(result.ROW_HEADER, result.rows()),
    FORMAT_STRUCTURED: lambda result: format_json(_sweep_structured(result)),
    FORMAT_LINES: lambda result: format_jsonl(
        dict(zip(result.ROW_HEADER, row)) for row in result.rows()
    ),
}


def _cmd_sweep(args: argparse.Namespace) -> int:
    extra = []
    for name in args.protocols:
        if name == "hybrid":
            raise UsageError("list hybrid budgets with --R-list, not --protocols")
        extra.append(protocol_from_name(name))
    cells = sweep_grid(args.n_list, args.R_list + extra)
    if not cells:
        raise UsageError("sweep grid is empty; give --n-list and --R-list or --protocols")
    result = sweep(
        cells,
        args.trials,
        _resolve_seed(args),
        max_rounds=args.cap,
        crash=_resolve_crash_model(args),
        start=args.start,
    )
    _emit(_SWEEP_FORMATS[args.format](result), args.out)
    return EXIT_OK


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.R is not None and args.protocol is None:
        raise UsageError("--R needs --protocol")
    try:
        records = read_trace_csv(args.file)
        summary = None if args.summary is None else read_summary_json(args.summary)
    except TraceFormatError as exc:
        raise UsageError(str(exc)) from exc

    # No defaulted budget here: the check must use the trace's own R.
    spec = None if args.protocol is None else protocol_from_name(args.protocol, stop_budget=args.R)
    report = verify_trace(
        records, n=args.n, spec=spec, start=args.start, no_crashes=args.no_crashes
    )
    violations = list(report.violations)
    if summary is not None:
        violations.extend(verify_summary_against_trace(summary, records))

    document = {
        "records_checked": report.records_checked,
        "n": report.n,
        "start": report.start,
        "ok": not violations,
        "violations": violations,
    }
    sys.stdout.write(format_json(document))
    return EXIT_OK if not violations else EXIT_VIOLATION


def _add_common_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, help="master seed; if omitted, drawn from system entropy and printed")
    parser.add_argument("--cap", type=int, help="round cap per trial (default scales with n)")
    parser.add_argument("--rho", type=float, default=0.0,
                        help="fraction of non-start nodes to crash (default 0)")
    parser.add_argument("--crash-timing", dest="crash_timing", default=TIMING_UNIFORM_ROUND,
                        choices=["at_start", "uniform_round", "fixed_round"],
                        help="when scheduled crashes take effect (default uniform_round)")
    parser.add_argument("--crash-round", dest="crash_round", type=int,
                        help="crash round for fixed_round timing")
    parser.add_argument("--crash-max-round", dest="crash_max_round", type=int,
                        help="latest crash round for uniform_round timing")
    parser.add_argument("--start", type=int, default=0, help="initially informed node (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rumorsim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    sub.required = True

    sim = sub.add_parser("simulate", help="run one trial and print its summary")
    sim.add_argument("--config", help="JSON config file; explicit flags override it")
    sim.add_argument("--n", type=int, help="number of nodes")
    sim.add_argument("--protocol", choices=PROTOCOL_NAMES, default="hybrid",
                     help="protocol to run (default hybrid)")
    sim.add_argument("--R", type=int, help="hybrid stop budget (default ceil(sqrt(ln n)))")
    _add_common_run_flags(sim)
    sim.add_argument("--no-self-calls", dest="no_self_calls", action="store_true",
                     help="draw random targets from the other n-1 nodes")
    sim.add_argument("--trace-out", dest="trace_out", help="write the call log to this CSV file")
    sim.add_argument("--summary-out", dest="summary_out", help="write the summary JSON to this file")
    sim.set_defaults(handler=_cmd_simulate)

    bnd = sub.add_parser("bounds", help="print the closed-form round bounds for n and R")
    bnd.add_argument("--config", help="JSON config file; explicit flags override it")
    bnd.add_argument("--n", type=int, help="number of nodes")
    bnd.add_argument("--R", type=float, help="stop budget (default ceil(sqrt(ln n)))")
    bnd.add_argument("--epsilon", type=float, default=0.1,
                     help="slack factor in the bound formulas (default 0.1)")
    bnd.add_argument("--out", help="also write the report to this file")
    bnd.set_defaults(handler=_cmd_bounds)

    cmp_ = sub.add_parser("compare", help="run several protocols on one graph size")
    cmp_.add_argument("--config", help="JSON config file; explicit flags override it")
    cmp_.add_argument("--n", type=int, help="number of nodes")
    cmp_.add_argument("--protocols", type=_names, default=["hybrid", "quasirandom-identical"],
                      help="comma-separated protocol names (at least two)")
    cmp_.add_argument("--R", type=int, help="stop budget for hybrid entries")
    cmp_.add_argument("--trials", type=int, default=100, help="trials per protocol (default 100)")
    _add_common_run_flags(cmp_)
    cmp_.add_argument("--out", help="also write the report to this file")
    cmp_.set_defaults(handler=_cmd_compare)

    swp = sub.add_parser("sweep", help="run a grid of (n, protocol) cells")
    swp.add_argument("--config", help="JSON config file; explicit flags override it")
    swp.add_argument("--n-list", dest="n_list", type=_integers, default=[],
                     help="comma-separated node counts")
    swp.add_argument("--R-list", dest="R_list", type=_integers, default=[],
                     help="comma-separated hybrid stop budgets")
    swp.add_argument("--protocols", type=_names, default=[],
                     help="comma-separated non-hybrid protocols to add per n")
    swp.add_argument("--trials", type=int, default=100, help="trials per cell (default 100)")
    _add_common_run_flags(swp)
    swp.add_argument("--format", choices=list(_SWEEP_FORMATS), default=FORMAT_DELIMITED,
                     help="output shape (default delimited)")
    swp.add_argument("--out", help="also write the table to this file")
    swp.set_defaults(handler=_cmd_sweep)

    trc = sub.add_parser("trace", help="replay a stored call log and re-verify invariants")
    trc.add_argument("file", help="trace CSV produced by simulate --trace-out")
    trc.add_argument("--config", help="JSON config file; explicit flags override it")
    trc.add_argument("--n", type=int, help="number of nodes (default inferred)")
    trc.add_argument("--protocol", choices=PROTOCOL_NAMES,
                     help="protocol the trace came from, for walk checks")
    trc.add_argument("--R", type=int, help="hybrid stop budget used in the trace")
    trc.add_argument("--start", type=int, help="initially informed node (default inferred)")
    trc.add_argument("--no-crashes", dest="no_crashes", action="store_true",
                     help="assert the run had no crash schedule")
    trc.add_argument("--summary", help="summary JSON to cross-check against the trace")
    trc.set_defaults(handler=_cmd_trace)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = _parse(parser, sys.argv[1:] if argv is None else list(argv))
        return args.handler(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
