"""File formats: call trace CSV, summary JSON, results CSV, trial JSONL.

All writers produce byte-stable output for fixed inputs: fixed field
order, LF line endings, and floats rendered at six significant digits.
"""

from __future__ import annotations

import csv
import io
import json
import os
from typing import Iterable, Sequence

from .core import CallKind, CallOutcome, CallRecord, TraceSummary

TRACE_COLUMNS = ("round", "caller", "target", "kind", "outcome", "serial_position")

_KINDS = {k.value: k for k in CallKind}
_OUTCOMES = {o.value: o for o in CallOutcome}


class TraceFormatError(ValueError):
    """A trace file does not parse as the documented CSV format."""


def round6(value: float) -> float:
    """Round to six significant digits (the stable output precision)."""
    return float(f"{value:.6g}")


def json_value(value):
    """Make a value JSON-clean: floats at six significant digits."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return round6(value)
    if isinstance(value, int):
        return int(value)
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(k): json_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_value(v) for v in value]
    return value


def format_json(doc: dict) -> str:
    """One structured document, stable byte-for-byte."""
    return json.dumps(json_value(doc), indent=2) + "\n"


def format_jsonl(docs: Iterable[dict]) -> str:
    """Line-delimited structured records."""
    return "".join(
        json.dumps(json_value(doc), separators=(", ", ": ")) + "\n" for doc in docs
    )


def resolve_output_path(path: str) -> str:
    """Relative output paths land in $RUMORSIM_OUTPUT_DIR when it is set."""
    base = os.environ.get("RUMORSIM_OUTPUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def write_text(path: str, text: str) -> str:
    resolved = resolve_output_path(path)
    parent = os.path.dirname(resolved)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(resolved, "w", newline="") as handle:
        handle.write(text)
    return resolved


def format_trace_csv(records: Sequence[CallRecord]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(TRACE_COLUMNS)
    for record in records:
        writer.writerow(
            (
                record.round,
                record.caller,
                record.target,
                record.kind.value,
                record.outcome.value,
                record.serial_position,
            )
        )
    return out.getvalue()


def write_trace_csv(records: Sequence[CallRecord], path: str) -> str:
    return write_text(path, format_trace_csv(records))


def parse_trace_csv(text: str) -> list[CallRecord]:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise TraceFormatError("empty trace file") from None
    if tuple(header) != TRACE_COLUMNS:
        raise TraceFormatError(
            f"bad header {header!r}, expected {list(TRACE_COLUMNS)}"
        )
    records = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(TRACE_COLUMNS):
            raise TraceFormatError(f"line {lineno}: expected 6 fields, got {len(row)}")
        try:
            rnd, caller, target = int(row[0]), int(row[1]), int(row[2])
            serial = int(row[5])
        except ValueError as exc:
            raise TraceFormatError(f"line {lineno}: {exc}") from None
        kind = _KINDS.get(row[3])
        outcome = _OUTCOMES.get(row[4])
        if kind is None:
            raise TraceFormatError(f"line {lineno}: unknown kind {row[3]!r}")
        if outcome is None:
            raise TraceFormatError(f"line {lineno}: unknown outcome {row[4]!r}")
        if rnd < 1 or caller < 0 or target < 0 or serial < 0:
            raise TraceFormatError(f"line {lineno}: negative or zero-round field")
        records.append(CallRecord(rnd, caller, target, kind, outcome, serial))
    return records


def read_trace_csv(path: str) -> list[CallRecord]:
    try:
        with open(path, "r", newline="") as handle:
            text = handle.read()
    except OSError as exc:
        raise TraceFormatError(f"cannot read trace file: {exc}") from None
    return parse_trace_csv(text)


def summary_to_dict(summary: TraceSummary) -> dict:
    return {
        "n": summary.n,
        "outcome": summary.outcome,
        "completion_round": summary.completion_round,
        "rounds_executed": summary.rounds_executed,
        "total_calls": summary.total_calls,
        "informing_calls": summary.informing_calls,
        "encounter_calls": summary.encounter_calls,
        "crashed_target_calls": summary.crashed_target_calls,
        "per_round_informed": list(summary.per_round_informed),
    }


def summary_from_dict(doc: dict) -> TraceSummary:
    try:
        return TraceSummary(
            n=int(doc["n"]),
            outcome=str(doc["outcome"]),
            completion_round=(
                None if doc["completion_round"] is None else int(doc["completion_round"])
            ),
            rounds_executed=int(doc["rounds_executed"]),
            total_calls=int(doc["total_calls"]),
            informing_calls=int(doc["informing_calls"]),
            encounter_calls=int(doc["encounter_calls"]),
            crashed_target_calls=int(doc["crashed_target_calls"]),
            per_round_informed=tuple(int(x) for x in doc["per_round_informed"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceFormatError(f"bad summary document: {exc}") from None


def write_summary_json(summary: TraceSummary, path: str) -> str:
    return write_text(path, format_json(summary_to_dict(summary)))


def read_summary_json(path: str) -> TraceSummary:
    try:
        with open(path, "r") as handle:
            text = handle.read()
    except OSError as exc:
        raise TraceFormatError(f"cannot read summary file: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"summary file is not valid JSON: {exc}") from None
    return summary_from_dict(doc)


def format_rows_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Delimiter-separated table; floats at six significant digits."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [f"{v:.6g}" if isinstance(v, float) else v for v in row]
        )
    return out.getvalue()
