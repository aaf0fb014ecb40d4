"""File formats: call trace CSV, summary JSON, results CSV, trial JSONL.

All writers produce byte-stable output for fixed inputs: fixed field
order, LF line endings, and floats rendered at six significant digits.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import asdict, fields
from typing import Iterable, Sequence

from .core import (
    RUN_CAPPED,
    RUN_COMPLETED,
    RUN_STALLED,
    CallKind,
    CallOutcome,
    CallRecord,
    TraceSummary,
)

TRACE_COLUMNS = CallRecord._fields


def _member_parser(enum, name: str):
    """Text -> member of a str-valued enum; ValueError for any other text."""
    members = {member.value: member for member in enum}

    def parse(text: str):
        try:
            return members[text]
        except KeyError:
            raise ValueError(f"unknown {name} {text!r}") from None

    return parse


# How each column's text becomes its field's value. Built as a CallRecord so
# each parser is named by its own field (a NamedTuple does not check the
# annotated field types).
_FIELD_PARSERS = CallRecord(
    round=int,
    caller=int,
    target=int,
    kind=_member_parser(CallKind, "kind"),
    outcome=_member_parser(CallOutcome, "outcome"),
    serial_position=int,
)


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
    # A str-valued enum member is written as its value.
    writer.writerows(records)
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
            raise TraceFormatError(
                f"line {lineno}: expected {len(TRACE_COLUMNS)} fields, got {len(row)}"
            )
        try:
            record = CallRecord._make(
                [parse(text) for parse, text in zip(_FIELD_PARSERS, row)]
            )
        except ValueError as exc:
            raise TraceFormatError(f"line {lineno}: {exc}") from None
        if record.round < 1 or min(record.caller, record.target, record.serial_position) < 0:
            raise TraceFormatError(f"line {lineno}: negative or zero-round field")
        records.append(record)
    return records


def read_trace_csv(path: str) -> list[CallRecord]:
    try:
        with open(path, "r", newline="") as handle:
            text = handle.read()
    except OSError as exc:
        raise TraceFormatError(f"cannot read trace file: {exc}") from None
    return parse_trace_csv(text)


def summary_to_dict(summary: TraceSummary) -> dict:
    """The summary document: one key per ``TraceSummary`` field, in order."""
    return {**asdict(summary), "per_round_informed": list(summary.per_round_informed)}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# The form a summary document's value must take, by field; every field not
# listed is a count and must be a JSON integer.
_SUMMARY_FORMS = {
    "outcome": (
        "completed, stalled or capped",
        lambda v: v in (RUN_COMPLETED, RUN_STALLED, RUN_CAPPED),
    ),
    "completion_round": ("an integer or null", lambda v: v is None or _is_int(v)),
    "per_round_informed": (
        "an array of integers",
        lambda v: isinstance(v, list) and all(map(_is_int, v)),
    ),
}
_COUNT_FORM = ("an integer", _is_int)


def summary_from_dict(doc: dict) -> TraceSummary:
    """Inverse of ``summary_to_dict`` for a parsed JSON document; any other
    key set or value form is rejected, never coerced."""
    if not isinstance(doc, dict):
        raise TraceFormatError(f"bad summary document: not an object: {doc!r}")
    names = [f.name for f in fields(TraceSummary)]
    if set(doc) != set(names):
        missing = sorted(set(names) - set(doc))
        unknown = sorted(set(doc) - set(names))
        raise TraceFormatError(
            f"bad summary document: missing keys {missing}, unknown keys {unknown}"
        )
    for name in names:
        form, valid = _SUMMARY_FORMS.get(name, _COUNT_FORM)
        if not valid(doc[name]):
            raise TraceFormatError(
                f"bad summary document: {name} must be {form}, got {doc[name]!r}"
            )
    return TraceSummary(**{**doc, "per_round_informed": tuple(doc["per_round_informed"])})


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
