"""File formats: call trace CSV, summary JSON, results CSV, trial JSONL.

All writers produce byte-stable output for fixed inputs: fixed field
order, LF line endings, and floats rendered at six significant digits.

The call trace is written from a ``CallLog``'s columns and parsed back into
one by numpy operations over the file's bytes, a block of rows at a time,
with no Python object per row or per cell.  The writer's bytes are those of
``csv.writer`` on the records; each block's bytes go straight to the file.
The parser fills columns allocated once, with an entry per line.  It
accepts what the writer writes, plus blank lines and CRLF line ends; a
row's integers must be plain decimals of at most 18 digits, so every value
fits in int64 and none is ever clamped.  Any other row is reported, with
its line number, by the first failing per-row check.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
from dataclasses import asdict, fields
from typing import Iterable, Iterator, NoReturn, Sequence

import numpy as np

from .core import (
    COLUMN_DTYPES,
    RUN_CAPPED,
    RUN_COMPLETED,
    RUN_STALLED,
    CallKind,
    CallLog,
    CallOutcome,
    CallRecord,
    TraceSummary,
)

TRACE_COLUMNS = CallRecord._fields
_HEADER = (",".join(TRACE_COLUMNS) + "\n").encode()

# The text of each kind and outcome code; None marks an integer column.
_CELL_NAMES = CallRecord(
    None, None, None, tuple(m.value for m in CallKind), tuple(m.value for m in CallOutcome), None
)
_MAX_DIGITS = 18  # every integer of at most 18 digits fits in int64
_COMMA, _NEWLINE, _RETURN, _ZERO = b",\n\r0"
# Rows written or parsed in one numpy pass: the write and the parse hold
# the log (and the parse the file's bytes) and one block's temporaries.
_BLOCK_ROWS = 16384
# The longest line a row can take, its CRLF line end included.
_LINE_BYTES = sum(
    _MAX_DIGITS if names is None else max(map(len, names)) for names in _CELL_NAMES
) + len(_CELL_NAMES) + 1


def _member_parser(enum, name: str):
    """Text -> member of a str-valued enum; ValueError for any other text."""
    members = {member.value: member for member in enum}

    def parse(text: str):
        try:
            return members[text]
        except KeyError:
            raise ValueError(f"unknown {name} {text!r}") from None

    return parse


# How each column's text becomes its field's value, for the message about
# an ill-formed row. Built as a CallRecord so each parser is named by its own
# field (a NamedTuple does not check the annotated field types).
_FIELD_PARSERS = CallRecord(
    round=int,
    caller=int,
    target=int,
    kind=_member_parser(CallKind, "kind"),
    outcome=_member_parser(CallOutcome, "outcome"),
    serial_position=int,
)

# A row, blank lines aside, as the bulk parser accepts it.
_ROW = ",".join(
    f"[0-9]{{1,{_MAX_DIGITS}}}" if names is None else f"(?:{'|'.join(names)})"
    for names in _CELL_NAMES
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
    return _write_bytes(path, [text.encode()])


def _write_bytes(path: str, pieces: Iterable[bytes]) -> str:
    """Write the pieces, in order, to the resolved path; its directory is made."""
    resolved = resolve_output_path(path)
    parent = os.path.dirname(resolved)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(resolved, "wb") as handle:
        for piece in pieces:
            handle.write(piece)
    return resolved


def _integer_cells(values: np.ndarray):
    """(width, write): the width of the widest decimal text of ``values``,
    and a writer of each one's text, right-aligned, into a rows x width
    array of zeros."""
    negative = values < 0
    rest = np.where(negative, -values, values).astype(np.uint64)
    largest = int(rest.max(initial=0))
    if largest < 2**32:
        rest = rest.astype(np.uint32)  # divides faster
    width = len(str(largest)) + int(negative.any())

    def write(out: np.ndarray) -> None:
        text = np.empty((width, len(values)), dtype=np.uint8)  # one row per place
        digits, remaining = np.zeros(len(values), dtype=np.int64), rest
        for j in range(width - 1, -1, -1):
            # The last place always holds a digit, so zero is written as "0".
            live = (remaining > 0) | (j == width - 1)
            remaining, digit = np.divmod(remaining, 10)
            text[j] = (_ZERO + digit) * live
            digits += live
        text[width - 1 - digits[negative], negative] = ord("-")
        out[:] = text.T

    return width, write


def _name_cells(codes: np.ndarray, names: tuple[str, ...]):
    """(width, write) as for ``_integer_cells``; names are left-aligned."""
    table = np.zeros((len(names), max(map(len, names))), dtype=np.uint8)
    for code, name in enumerate(names):
        table[code, : len(name)] = np.frombuffer(name.encode(), np.uint8)

    def write(out: np.ndarray) -> None:
        out[:] = table[codes]

    return table.shape[1], write


def _format_rows(columns: CallRecord) -> bytes:
    """The CSV lines of one block of rows."""
    cells = [
        _integer_cells(column) if names is None else _name_cells(column, names)
        for column, names in zip(columns, _CELL_NAMES)
    ]
    # Each row is laid out at fixed width, its cells zero-padded and each
    # followed by a comma or the newline; dropping the zero bytes leaves
    # the CSV text.
    table = np.zeros((len(columns.round), sum(width + 1 for width, _ in cells)), np.uint8)
    offset = 0
    for width, write in cells:
        write(table[:, offset : offset + width])
        table[:, offset + width] = _COMMA
        offset += width + 1
    table[:, -1] = _NEWLINE
    text = table.ravel()
    return text[text != 0].tobytes()


def _trace_pieces(records: Sequence[CallRecord]) -> Iterator[bytes]:
    """The trace CSV's bytes: the header, then each block's lines."""
    columns = CallRecord.columns_of(records)
    yield _HEADER
    for begin in range(0, len(columns.round), _BLOCK_ROWS):
        yield _format_rows(CallRecord._make(column[begin : begin + _BLOCK_ROWS] for column in columns))


def format_trace_csv(records: Sequence[CallRecord]) -> str:
    """The trace CSV of a ``CallLog`` or of any sequence of records."""
    return b"".join(_trace_pieces(records)).decode("ascii")


def write_trace_csv(records: Sequence[CallRecord], path: str) -> str:
    return _write_bytes(path, _trace_pieces(records))


def parse_trace_csv(text: str) -> CallLog:
    """The ``CallLog`` of a trace CSV; ``TraceFormatError`` if ill-formed."""
    return _parse_trace(text.encode())


def read_trace_csv(path: str) -> CallLog:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise TraceFormatError(f"cannot read trace file: {exc}") from None
    return _parse_trace(data)


def _parse_trace(data: bytes) -> CallLog:
    if not data:
        raise TraceFormatError("empty trace file")
    header_end = data.find(b"\n")
    header_end = len(data) if header_end < 0 else header_end
    try:
        header = next(csv.reader([data[:header_end].decode("utf-8", "replace")]), [])
    except csv.Error as exc:
        raise TraceFormatError(f"bad header: {exc}") from None
    if tuple(header) != TRACE_COLUMNS:
        raise TraceFormatError(
            f"bad header {header!r}, expected {list(TRACE_COLUMNS)}"
        )
    # Each line holds at most one row: the columns are allocated once, for
    # every line, and filled block by block.
    lines = data.count(b"\n", header_end + 1) + 1
    columns = CallRecord._make(np.empty(lines, dtype) for dtype in COLUMN_DTYPES)
    rows, lineno = 0, 2
    body = np.frombuffer(data, dtype=np.uint8)
    for begin, end, newlines in _line_blocks(body, header_end + 1):
        block = _parse_rows(body[begin:end], newlines)
        if block is None:
            _raise_first_bad_row(data[begin:].decode("utf-8", "replace"), lineno)
        for column, values in zip(columns, block):
            column[rows : rows + len(values)] = values
        rows += len(block.round)
        lineno += len(newlines)
    return CallLog(CallRecord._make(column[:rows] for column in columns))


def _line_blocks(body: np.ndarray, begin: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """(begin, end, newlines) of each block of ``_BLOCK_ROWS`` lines of
    ``body`` from ``begin``; ``newlines`` are the block's newline offsets.

    A block ends after its last newline or at the end of ``body``.  Where a
    block of the longest rows would end first, a line in it is longer than
    any row, so the block ends there and fails ``_parse_rows``.
    """
    most = size = _BLOCK_ROWS * _LINE_BYTES
    while begin < len(body):
        # Look first as far as the last block's lines reached, and a half
        # more; then as far as a block of the longest rows reaches.
        for size in (size, most):
            window = body[begin : begin + size]
            newlines = np.flatnonzero(window == _NEWLINE)[:_BLOCK_ROWS]
            if len(newlines) == _BLOCK_ROWS or begin + size >= len(body):
                break
        end = begin + (int(newlines[-1]) + 1 if len(newlines) == _BLOCK_ROWS else len(window))
        yield begin, end, newlines
        size = min(most, (end - begin) * 3 // 2 + _LINE_BYTES)
        begin = end


def _parse_rows(body: np.ndarray, newlines: np.ndarray) -> CallRecord | None:
    """Every row's columns at once, or None if any line is not blank and
    not a row that ``_ROW`` matches with a round of at least 1.

    ``newlines`` are the offsets of the newline bytes in ``body``."""
    ends = newlines
    if len(body) and body[-1] != _NEWLINE:
        ends = np.append(ends, len(body))
    starts = np.concatenate(([0], ends[:-1] + 1))
    # A line may end in a carriage return; blank lines are skipped.
    ends = ends - ((ends > starts) & (body[np.maximum(ends - 1, 0)] == _RETURN))
    kept = ends > starts
    starts, ends = starts[kept], ends[kept]
    # Commas lie only in kept lines, so five per line are row i's five.
    commas = np.flatnonzero(body == _COMMA)
    if len(commas) != 5 * len(starts):
        return None
    commas = commas.reshape(-1, 5)
    if len(starts) and ((commas[:, 0] < starts).any() or (commas[:, 4] >= ends).any()):
        return None
    columns = []
    for j, names in enumerate(_CELL_NAMES):
        cell_starts = starts if j == 0 else commas[:, j - 1] + 1
        cell_ends = ends if j == len(_CELL_NAMES) - 1 else commas[:, j].copy()
        parse = _parse_integers if names is None else _parse_names
        column = parse(body, cell_starts, cell_ends, names)
        if column is None:
            return None
        columns.append(column)
    if (columns[0] < 1).any():
        return None
    return CallRecord._make(columns)


def _parse_integers(body, starts, ends, _) -> np.ndarray | None:
    widths = ends - starts
    if len(widths) and (widths.min() < 1 or widths.max() > _MAX_DIGITS):
        return None
    values = np.zeros(len(widths), dtype=np.int64)
    # Digit j counted from the right; cells narrower than j + 1 add nothing.
    for j in range(int(widths.max(initial=0))):
        digits = body[ends - 1 - j] - _ZERO
        present = widths > j
        if (present & (digits > 9)).any():
            return None
        values += np.where(present, digits, 0).astype(np.int64) * 10**j
    return values


def _parse_names(body, starts, ends, names) -> np.ndarray | None:
    widths = ends - starts
    codes = np.full(len(widths), -1, dtype=np.int8)
    for code, name in enumerate(names):
        rows = np.flatnonzero(widths == len(name))
        at = starts[rows]
        match = np.ones(len(rows), dtype=bool)
        for j, char in enumerate(name.encode()):
            match &= body[at + j] == char
        codes[rows[match]] = code
    return None if (codes < 0).any() else codes


def _raise_first_bad_row(body: str, first_line: int) -> NoReturn:
    """Raise ``TraceFormatError`` for the first line of ``body``, numbered
    from ``first_line``, that ``_parse_rows`` rejects."""
    for lineno, line in enumerate(body.split("\n"), start=first_line):
        line = line[:-1] if line.endswith("\r") else line
        if not line:
            continue
        try:
            row = next(csv.reader([line]))
        except csv.Error as exc:
            raise TraceFormatError(f"line {lineno}: {exc}") from None
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
        if not re.fullmatch(_ROW, line):
            raise TraceFormatError(
                f"line {lineno}: integers must be plain decimals of at most "
                f"{_MAX_DIGITS} digits, with no quotes or spaces: {line!r}"
            )
    raise TraceFormatError("ill-formed trace rows")


def summary_to_dict(summary: TraceSummary) -> dict:
    """The summary document: one key per ``TraceSummary`` field, in order."""
    return {**asdict(summary), "per_round_informed": list(summary.per_round_informed)}


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


# The form a summary document's value must take, by field; every field not
# listed is a count and must be a non-negative JSON integer.
_SUMMARY_FORMS = {
    "outcome": (
        "completed, stalled or capped",
        lambda v: v in (RUN_COMPLETED, RUN_STALLED, RUN_CAPPED),
    ),
    "completion_round": (
        "a non-negative integer or null", lambda v: v is None or _is_count(v)
    ),
    "per_round_informed": (
        "an array of non-negative integers",
        lambda v: isinstance(v, list) and all(map(_is_count, v)),
    ),
}
_COUNT_FORM = ("a non-negative integer", _is_count)


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
