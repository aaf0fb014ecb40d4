"""Command-line front end for the simulator, bounds, and experiment harness.

Every subcommand is a thin binding: flags and an optional JSON config file
are merged (explicit flags win), handed to the library layers, and the
result is printed in a byte-stable form.  No protocol logic lives here.

Exit codes: 0 success, 1 usage or ill-formed input, 2 simulation stall,
3 round cap exhausted, 4 invariant violation found by ``trace``.
"""

from __future__ import annotations

import argparse
import json
import secrets
import sys

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


# Namespace entries that are not run settings, so no config key names them.
_NOT_CONFIG_KEYS = {"handler", "subcommand", "config", "file"}


class _Options:
    """Flag values layered over config-file values over defaults.

    A config file may set exactly the subcommand's own flags, by dest.
    """

    def __init__(self, args: argparse.Namespace):
        self._args = args
        self._config = {}
        if getattr(args, "config", None) is not None:
            self._config = _load_config_file(args.config)
            allowed = set(vars(args)) - _NOT_CONFIG_KEYS
            unknown = sorted(set(self._config) - allowed)
            if unknown:
                raise UsageError(f"unknown config keys: {', '.join(unknown)}")

    def get(self, key: str, default=None):
        value = getattr(self._args, key, None)
        if value is None:
            value = self._config.get(key, default)
        return value

    def get_int(self, key: str, default=None):
        value = self.get(key, default)
        if value is None:
            return None
        try:
            if isinstance(value, float) and not value.is_integer():
                raise ValueError(value)
            return int(value)
        except (TypeError, ValueError):
            raise UsageError(f"{key} must be an integer, got {value!r}") from None

    def get_float(self, key: str, default=None):
        value = self.get(key, default)
        if value is None:
            return None
        try:
            return float(value)
        except (TypeError, ValueError):
            raise UsageError(f"{key} must be a number, got {value!r}") from None

    def get_list(self, key: str, default=None):
        """Comma-separated flag text or a JSON array from the config file."""
        value = self.get(key, default)
        if value is None:
            return []
        if isinstance(value, str):
            return [token.strip() for token in value.split(",") if token.strip()]
        if isinstance(value, (list, tuple)):
            return [str(item) for item in value]
        raise UsageError(f"{key} must be a comma-separated list, got {value!r}")


def _require_int(options: _Options, key: str) -> int:
    value = options.get_int(key)
    if value is None:
        raise UsageError(f"--{key.replace('_', '-')} is required")
    return value


def _resolve_seed(options: _Options) -> int:
    """Use the given seed, or draw one from system entropy and announce it."""
    seed = options.get_int("seed")
    if seed is None:
        seed = secrets.randbits(63)
        print(f"seed = {seed}", file=sys.stderr)
    return seed


def _resolve_protocol(options: _Options, name: str, *, budget_hybrid_only: bool = False):
    """Spec for ``name``; hybrid gets --R or the optimal default budget.

    With ``budget_hybrid_only`` a set --R is ignored for other protocols
    (mixed compare lists); otherwise it is rejected as a bad combination.
    """
    if name == "hybrid":
        budget = options.get_int("R")
        if budget is None:
            n = _require_int(options, "n")
            # The bound formulas need n >= 2; a one-node run takes no calls.
            budget = optimal_stop_budget(n) if n >= 2 else 1
        return protocol_from_name(name, stop_budget=budget)
    if budget_hybrid_only:
        return protocol_from_name(name)
    return protocol_from_name(name, stop_budget=options.get_int("R"))


def _resolve_crash_model(options: _Options) -> CrashModel | None:
    fraction = options.get_float("rho", 0.0)
    if fraction == 0.0:
        return None
    return CrashModel(
        fraction=fraction,
        timing=options.get("crash_timing", TIMING_UNIFORM_ROUND),
        round=options.get_int("crash_round"),
        max_round=options.get_int("crash_max_round"),
    )


def _emit(document: dict, out_path: str | None) -> None:
    text = format_json(document)
    sys.stdout.write(text)
    if out_path is not None:
        write_text(out_path, text)


def _cmd_simulate(args: argparse.Namespace) -> int:
    options = _Options(args)
    n = _require_int(options, "n")
    spec = _resolve_protocol(options, options.get("protocol", "hybrid"))
    seed = _resolve_seed(options)
    trace_out = options.get("trace_out")
    config = ExperimentConfig(
        spec=spec,
        n=n,
        trials=1,
        master_seed=seed,
        max_rounds=options.get_int("cap"),
        crash=_resolve_crash_model(options),
        retention=RETAIN_TRACE if trace_out is not None else RETAIN_SUMMARY,
        start=options.get_int("start", 0),
        allow_self_calls=not bool(options.get("no_self_calls", False)),
    )
    state = build_trial_state(config, 0)
    summary = run(state, config.max_rounds)

    text = format_json(summary_to_dict(summary))
    sys.stdout.write(text)
    summary_out = options.get("summary_out")
    if summary_out is not None:
        write_text(summary_out, text)
    if trace_out is not None:
        write_trace_csv(state.log, trace_out)
    return _OUTCOME_EXIT[summary.outcome]


def _cmd_bounds(args: argparse.Namespace) -> int:
    options = _Options(args)
    n = _require_int(options, "n")
    budget = options.get_float("R")
    if budget is not None and budget.is_integer():
        budget = int(budget)
    report = bounds_report(n, budget, epsilon=options.get_float("epsilon", 0.1))
    _emit(report.as_dict(), options.get("out"))
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    options = _Options(args)
    n = _require_int(options, "n")
    names = options.get_list("protocols", "hybrid,quasirandom-identical")
    specs = [_resolve_protocol(options, name, budget_hybrid_only=True) for name in names]
    seed = _resolve_seed(options)
    report = compare_protocols(
        specs,
        n,
        options.get_int("trials", 100),
        seed,
        max_rounds=options.get_int("cap"),
        crash=_resolve_crash_model(options),
        start=options.get_int("start", 0),
    )
    _emit(report.as_dict(), options.get("out"))
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


def _format_sweep(result, fmt: str) -> str:
    if fmt == FORMAT_DELIMITED:
        return format_rows_csv(result.ROW_HEADER, result.rows())
    if fmt == FORMAT_STRUCTURED:
        return format_json(_sweep_structured(result))
    if fmt == FORMAT_LINES:
        return format_jsonl(dict(zip(result.ROW_HEADER, row)) for row in result.rows())
    raise UsageError(f"unknown output format {fmt!r}")


def _cmd_sweep(args: argparse.Namespace) -> int:
    options = _Options(args)
    ns = [int(token) for token in options.get_list("n_list")]
    budgets = [int(token) for token in options.get_list("R_list")]
    extra = []
    for name in options.get_list("protocols"):
        if name == "hybrid":
            raise UsageError("list hybrid budgets with --R-list, not --protocols")
        extra.append(protocol_from_name(name))
    cells = sweep_grid(ns, budgets + extra)
    if not cells:
        raise UsageError("sweep grid is empty; give --n-list and --R-list or --protocols")
    seed = _resolve_seed(options)
    result = sweep(
        cells,
        options.get_int("trials", 100),
        seed,
        max_rounds=options.get_int("cap"),
        crash=_resolve_crash_model(options),
        start=options.get_int("start", 0),
    )
    text = _format_sweep(result, options.get("format", FORMAT_DELIMITED))
    sys.stdout.write(text)
    out_path = options.get("out")
    if out_path is not None:
        write_text(out_path, text)
    return EXIT_OK


def _cmd_trace(args: argparse.Namespace) -> int:
    options = _Options(args)
    try:
        records = read_trace_csv(args.file)
    except TraceFormatError as exc:
        raise UsageError(str(exc)) from exc

    spec = None
    name = options.get("protocol")
    if name is not None:
        # No defaulted budget here: the check must use the trace's own R.
        spec = protocol_from_name(name, stop_budget=options.get_int("R"))
    report = verify_trace(
        records,
        n=options.get_int("n"),
        spec=spec,
        start=options.get_int("start"),
        no_crashes=bool(options.get("no_crashes", False)),
    )
    violations = list(report.violations)
    summary_path = options.get("summary")
    if summary_path is not None:
        try:
            summary = read_summary_json(summary_path)
        except (TraceFormatError, ValueError) as exc:
            raise UsageError(f"ill-formed summary file: {exc}") from exc
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
    parser.add_argument("--rho", type=float, help="fraction of non-start nodes to crash (default 0)")
    parser.add_argument("--crash-timing", dest="crash_timing",
                        choices=["at_start", "uniform_round", "fixed_round"],
                        help="when scheduled crashes take effect (default uniform_round)")
    parser.add_argument("--crash-round", dest="crash_round", type=int,
                        help="crash round for fixed_round timing")
    parser.add_argument("--crash-max-round", dest="crash_max_round", type=int,
                        help="latest crash round for uniform_round timing")
    parser.add_argument("--start", type=int, help="initially informed node (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rumorsim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    sub.required = True

    sim = sub.add_parser("simulate", help="run one trial and print its summary")
    sim.add_argument("--config", help="JSON config file; explicit flags override it")
    sim.add_argument("--n", type=int, help="number of nodes")
    sim.add_argument("--protocol", choices=PROTOCOL_NAMES,
                     help="protocol to run (default hybrid)")
    sim.add_argument("--R", type=int, help="hybrid stop budget (default ceil(sqrt(ln n)))")
    _add_common_run_flags(sim)
    sim.add_argument("--no-self-calls", dest="no_self_calls", action="store_const", const=True,
                     help="draw random targets from the other n-1 nodes")
    sim.add_argument("--trace-out", dest="trace_out", help="write the call log to this CSV file")
    sim.add_argument("--summary-out", dest="summary_out", help="write the summary JSON to this file")
    sim.set_defaults(handler=_cmd_simulate)

    bnd = sub.add_parser("bounds", help="print the closed-form round bounds for n and R")
    bnd.add_argument("--config", help="JSON config file; explicit flags override it")
    bnd.add_argument("--n", type=int, help="number of nodes")
    bnd.add_argument("--R", type=float, help="stop budget (default ceil(sqrt(ln n)))")
    bnd.add_argument("--epsilon", type=float, help="slack factor in the bound formulas (default 0.1)")
    bnd.add_argument("--out", help="also write the report to this file")
    bnd.set_defaults(handler=_cmd_bounds)

    cmp_ = sub.add_parser("compare", help="run several protocols on one graph size")
    cmp_.add_argument("--config", help="JSON config file; explicit flags override it")
    cmp_.add_argument("--n", type=int, help="number of nodes")
    cmp_.add_argument("--protocols", help="comma-separated protocol names (at least two)")
    cmp_.add_argument("--R", type=int, help="stop budget for hybrid entries")
    cmp_.add_argument("--trials", type=int, help="trials per protocol (default 100)")
    _add_common_run_flags(cmp_)
    cmp_.add_argument("--out", help="also write the report to this file")
    cmp_.set_defaults(handler=_cmd_compare)

    swp = sub.add_parser("sweep", help="run a grid of (n, protocol) cells")
    swp.add_argument("--config", help="JSON config file; explicit flags override it")
    swp.add_argument("--n-list", dest="n_list", help="comma-separated node counts")
    swp.add_argument("--R-list", dest="R_list", help="comma-separated hybrid stop budgets")
    swp.add_argument("--protocols", help="comma-separated non-hybrid protocols to add per n")
    swp.add_argument("--trials", type=int, help="trials per cell (default 100)")
    _add_common_run_flags(swp)
    swp.add_argument("--format", choices=[FORMAT_DELIMITED, FORMAT_STRUCTURED, FORMAT_LINES],
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
    trc.add_argument("--no-crashes", dest="no_crashes", action="store_const", const=True,
                     help="assert the run had no crash schedule")
    trc.add_argument("--summary", help="summary JSON to cross-check against the trace")
    trc.set_defaults(handler=_cmd_trace)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
