"""File format tests: round trips, byte stability, and rejection paths."""

import csv
import io
import itertools
import json
import math
import mmap
import os
import pathlib
import tempfile
import threading
import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from rumorsim import traceio
from rumorsim.core import CallKind, CallLog, CallOutcome, CallRecord, init_simulation, run
from rumorsim.protocols import Hybrid
from rumorsim.traceio import (
    TraceFormatError,
    format_json,
    format_jsonl,
    format_rows_csv,
    json_value,
    read_summary_json,
    read_trace_csv,
    resolve_output_path,
    round6,
    summary_from_dict,
    summary_to_dict,
    write_summary_json,
    write_text,
    write_trace_csv,
)

from test_verify_oracle import runs


def sample_run(seed=5, n=32):
    state = init_simulation(Hybrid(2), n, 0, seed=seed, keep_log=True)
    summary = run(state)
    return summary, list(state.log)


# -------------------------------------------------------------- number format


def test_round6_magnitudes():
    assert round6(3.14159265) == 3.14159
    assert round6(123456789.0) == 123457000.0
    assert round6(0.000123456789) == 0.000123457
    assert round6(2.0) == 2.0


def test_json_value_walks_containers():
    doc = {"a": [1.23456789, {"b": (2, 0.1)}], "c": None, "d": True}
    assert json_value(doc) == {"a": [1.23457, {"b": [2, 0.1]}], "c": None, "d": True}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_json_formats_refuse_non_finite_floats(value):
    # NaN and Infinity are not JSON.
    with pytest.raises(ValueError):
        format_json({"x": value})
    with pytest.raises(ValueError):
        format_jsonl([{"x": 1.0}, {"x": value}])


def test_format_json_is_stable_and_newline_terminated():
    text = format_json({"x": 1.0000001, "y": "s"})
    assert text == '{\n  "x": 1.0,\n  "y": "s"\n}\n'
    assert format_json({"x": 1.0000001, "y": "s"}) == text


def test_format_jsonl_one_object_per_line():
    text = format_jsonl([{"a": 1}, {"a": 2}])
    assert text == '{"a": 1}\n{"a": 2}\n'


# ---------------------------------------------------------------- trace CSV
# Every trace goes through files, as ``simulate --trace-out`` writes them
# and ``trace`` maps them back.


def written_text(records) -> str:
    """The text of the trace CSV file that ``write_trace_csv`` writes."""
    with tempfile.TemporaryDirectory() as directory:
        path = pathlib.Path(directory, "trace.csv")
        write_trace_csv(records, str(path))
        return path.read_bytes().decode("ascii")


def read_text(text: str):
    """The ``CallLog`` that ``read_trace_csv`` reads from a file of ``text``."""
    with tempfile.TemporaryDirectory() as directory:
        path = pathlib.Path(directory, "trace.csv")
        path.write_bytes(text.encode())
        return read_trace_csv(str(path))


def test_trace_csv_file_round_trip(tmp_path):
    _, records = sample_run()
    path = tmp_path / "trace.csv"
    write_trace_csv(records, str(path))
    assert read_trace_csv(str(path)) == records
    assert path.read_bytes().endswith(b"\n")
    assert b"\r" not in path.read_bytes()


SLICES = [slice(3, 17), slice(None, None, 3), slice(-10, -2), slice(-5, None),
          slice(None, None, -2), slice(-2, -40, -3), slice(5, 5)]


@pytest.mark.parametrize("index", SLICES, ids=str)
def test_call_log_slice_is_the_call_log_of_its_records(index):
    # A kept log and the log parsed back from its file slice alike.
    state = init_simulation(Hybrid(2), 32, 0, seed=5, keep_log=True)
    run(state)
    for log in (state.log, read_text(written_text(state.log))):
        part = log[index]
        expected = CallLog(CallRecord.columns_of(list(log)[index]))
        assert isinstance(part, CallLog)
        assert part == expected
        assert list(part) == list(log)[index]
        assert [c.dtype for c in part.columns] == [c.dtype for c in log.columns]
        assert [c.dtype for c in part.columns] == [c.dtype for c in expected.columns]


def test_trace_csv_header_first_line():
    _, records = sample_run()
    first = written_text(records).splitlines()[0]
    assert first == "round,caller,target,kind,outcome,serial_position"


@pytest.mark.parametrize(
    "text, message",
    [
        # An empty file cannot be mapped, so it is read.
        ("", "^empty trace file$"),
        ("wrong,header\n", "bad header"),
        ("round,caller,target,kind,outcome,serial_position\n1,2\n", "expected 6 fields"),
        (
            "round,caller,target,kind,outcome,serial_position\n1,0,1,bogus,informed,0\n",
            "unknown kind",
        ),
        (
            "round,caller,target,kind,outcome,serial_position\n1,0,1,random,bogus,0\n",
            "unknown outcome",
        ),
        (
            "round,caller,target,kind,outcome,serial_position\nx,0,1,random,informed,0\n",
            "line 2",
        ),
        (
            "round,caller,target,kind,outcome,serial_position\n0,0,1,random,informed,0\n",
            "line 2",
        ),
        (
            # Ten commas in two rows, but not five in each.
            "round,caller,target,kind,outcome,serial_position\n"
            "1,0,1,random,informed,0,9\n2,0,2,random,informed\n",
            "^line 2: expected 6 fields, got 7$",
        ),
    ],
)
def test_trace_csv_rejects_ill_formed_input(text, message):
    with pytest.raises(TraceFormatError, match=message):
        read_text(text)


def test_read_trace_csv_missing_file():
    with pytest.raises(TraceFormatError, match="cannot read"):
        read_trace_csv("/nonexistent/trace.csv")


def test_read_trace_csv_reads_a_fifo_as_the_file_it_carries(tmp_path):
    # A pipe cannot be mapped; it is read through instead.
    _, records = sample_run()
    path, fifo = tmp_path / "t.csv", tmp_path / "t.fifo"
    write_trace_csv(records, str(path))
    os.mkfifo(fifo)
    feeder = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),), daemon=True)
    feeder.start()
    try:
        assert read_trace_csv(str(fifo)) == read_trace_csv(str(path)) == records
    finally:
        feeder.join(timeout=10)
    assert not feeder.is_alive()


def test_trace_csv_skips_blank_lines():
    text = (
        "round,caller,target,kind,outcome,serial_position\n"
        "1,0,1,initial_successor,informed,0\n\n"
    )
    records = read_text(text)
    assert records == [
        CallRecord(1, 0, 1, CallKind.INITIAL_SUCCESSOR, CallOutcome.INFORMED, 0)
    ]


HEADER = "round,caller,target,kind,outcome,serial_position\n"


def csv_module_text(records):
    """The trace CSV as the csv module writes it, a row per record."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CallRecord._fields)
    writer.writerows(records)
    return out.getvalue()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(run=runs())
def test_trace_csv_round_trips_every_protocol(run):
    *_, log = run
    text = written_text(log)
    assert text == csv_module_text(log)
    parsed = read_text(text)
    assert parsed == log
    assert written_text(parsed) == text


def test_trace_csv_writes_any_int64():
    records = [
        CallRecord(1, -5, 0, CallKind.RANDOM, CallOutcome.INFORMED, -(2**63)),
        CallRecord(10, 0, -1, CallKind.SEQUENTIAL, CallOutcome.CRASHED_TARGET, 2**63 - 1),
    ]
    assert written_text(records) == csv_module_text(records)
    assert written_text([]) == HEADER
    # Columns that fit int32, extremes included, are held as int32.
    records = [
        CallRecord(1, -(2**31), 2**31 - 1, CallKind.RANDOM, CallOutcome.INFORMED, -1),
        CallRecord(2**31 - 1, 0, -10, CallKind.SEQUENTIAL, CallOutcome.ALREADY_INFORMED, 9),
    ]
    assert {column.dtype for column in CallRecord.columns_of(records)} == {
        np.dtype(np.int32), np.dtype(np.int8)
    }
    assert written_text(records) == csv_module_text(records)


@pytest.mark.parametrize("column", [0, 1, 2, 5])
@pytest.mark.parametrize("cell", ["99999999999999999999", "1000000000000000000"])
def test_trace_csv_rejects_integers_beyond_18_digits(column, cell):
    # Never clamped to int64: the first is out of its range, and neither
    # is a plain decimal of at most 18 digits.
    row = ["1", "0", "1", "random", "informed", "0"]
    row[column] = cell
    text = HEADER + "1,0,1,initial_successor,informed,0\n" + ",".join(row) + "\n"
    with pytest.raises(TraceFormatError, match=r"^line 3: .* at most 18 digits"):
        read_text(text)


def test_trace_csv_reads_18_digit_integers():
    text = HEADER + "1,0,999999999999999999,random,informed,0\n"
    assert read_text(text)[0].target == 10**18 - 1


@pytest.mark.parametrize("row", ["+1,0,1,random,informed,0", " 1,0,1,random,informed,0",
                                 "1_0,0,1,random,informed,0", '"1",0,1,random,informed,0'])
def test_trace_csv_rejects_integers_that_are_not_plain_decimals(row):
    with pytest.raises(TraceFormatError, match=r"^line 2: integers must be plain decimals"):
        read_text(HEADER + row + "\n")


def test_trace_csv_cell_beyond_the_csv_field_limit_names_its_line():
    text = HEADER + "1,0,1,random,informed," + "1" * 200_000 + "\n"
    with pytest.raises(TraceFormatError,
                       match=r"^line 2: field larger than field limit \(131072\)$"):
        read_text(text)


def test_trace_csv_accepts_crlf_blank_lines_and_no_final_newline():
    _, records = sample_run()
    text = written_text(records)
    body = text[len(HEADER):].splitlines()
    assert read_text(text.replace("\n", "\r\n")) == records
    assert read_text(HEADER + "\n\n" + "\n\r\n".join(body)) == records
    assert read_text(HEADER) == []


def test_trace_csv_error_names_the_line_after_blank_lines():
    text = HEADER + "1,0,1,initial_successor,informed,0\n\n\n2,0,x,sequential,informed,0\n"
    with pytest.raises(TraceFormatError, match="^line 5: invalid literal"):
        read_text(text)


def test_trace_csv_header_that_csv_cannot_read_is_a_format_error():
    with pytest.raises(TraceFormatError, match="^bad header: new-line character"):
        read_text("round,cal\rler\n1,0,1,random,informed,0\n")


# ------------------------------------------------------- trace CSV row blocks


BLOCK_ROWS = [1, 2, 7]


@contextmanager
def block_rows(rows):
    """Write and parse the trace CSV in blocks of ``rows`` rows."""
    with mock.patch.object(traceio, "_BLOCK_ROWS", rows):
        yield


@pytest.mark.parametrize("rows", BLOCK_ROWS)
@settings(max_examples=20, deadline=None, derandomize=True)
@given(run=runs())
def test_trace_csv_blocks_write_the_csv_module_bytes(rows, run):
    *_, log = run
    with block_rows(rows):
        text = written_text(log)
        assert text == csv_module_text(log)
        assert read_text(text) == log


@pytest.mark.parametrize("rows", [2, 7])
@pytest.mark.parametrize("value", [2**31 - 1, 2**31, 10**18 - 1])
@pytest.mark.parametrize("field", ["round", "caller", "target", "serial_position"])
def test_trace_csv_parse_widens_a_column_only_for_a_value_beyond_int32(rows, value, field):
    # The value sits in the last of several blocks: its column is int32
    # up to there, and int64 from then on only where int32 cannot hold it.
    _, records = sample_run()
    records = records[:20]
    records[-1] = records[-1]._replace(**{field: value})
    with block_rows(rows):
        parsed = read_text(written_text(records))
    assert parsed == records
    for name, column in zip(CallRecord._fields, parsed.columns):
        if name in ("kind", "outcome"):
            assert column.dtype == np.int8
        else:
            assert column.dtype == (np.int64 if name == field and value >= 2**31 else np.int32)


def test_trace_csv_write_reads_a_kept_log_without_joining_it(tmp_path):
    state = init_simulation(Hybrid(4), MEMORY_N, 0, seed=1, keep_log=True)
    run(state)
    path = tmp_path / "kept.csv"
    with block_rows(MEMORY_BLOCK_ROWS):
        peak = traced_peak(lambda: write_trace_csv(state.log, str(path)))
    assert len(state.log) > 2**15
    assert peak < 4 * MEMORY_BLOCK_ROWS * traceio._LINE_BYTES
    assert path.read_text() == written_text(list(state.log))


BAD_ROWS = [
    ("1,0,x,random,informed,0", "invalid literal"),
    ("1,0,1,random", "expected 6 fields"),
    ("0,0,1,random,informed,0", "negative or zero-round field"),
    ("1,0,1,random,informed," + "1" * 200, "integers must be plain decimals"),
    ("1,0,1,random,informed,0" + " " * 300, "integers must be plain decimals"),
]


@pytest.mark.parametrize("rows", BLOCK_ROWS)
@pytest.mark.parametrize("bad, message", BAD_ROWS)
def test_trace_csv_bad_row_in_a_later_block_names_its_line(rows, bad, message):
    _, records = sample_run()
    lines = csv_module_text(records[:20]).splitlines()
    for at in (2, 3, 9, 16, 21):  # line numbers; the header is line 1
        text = "\n".join(lines[: at - 1] + [bad] + lines[at - 1 :]) + "\n"
        with block_rows(rows), pytest.raises(TraceFormatError, match=f"^line {at}: {message}"):
            read_text(text)


@pytest.mark.parametrize("rows", BLOCK_ROWS)
def test_trace_csv_blank_lines_crlf_and_no_final_newline_on_block_edges(rows):
    _, records = sample_run()
    records = records[:15]
    body = csv_module_text(records)[len(HEADER) :].splitlines()
    with block_rows(rows):
        for at, end in itertools.product(range(len(body) + 1), ("\n", "\r\n")):
            # One or two blank lines; among LF lines, also a blank CRLF line.
            for blanks in ([""], ["", ""], ["\r"])[: 3 if end == "\n" else 2]:
                text = HEADER + end.join(body[:at] + blanks + body[at:])
                assert read_text(text) == records
                assert read_text(text + end) == records


# A trace of about 2^15 rows, and blocks much shorter than the trace.
MEMORY_N, MEMORY_BLOCK_ROWS = 2**13, 1024


@pytest.fixture(scope="module")
def large_log():
    state = init_simulation(Hybrid(4), MEMORY_N, 0, seed=1, keep_log=True)
    run(state)
    state.log.columns  # joins the per-round chunks outside the measurement
    return state.log


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trace_csv_write_holds_a_few_blocks(large_log, tmp_path):
    assert len(large_log) > 2**15
    path = str(tmp_path / "t.csv")
    with block_rows(MEMORY_BLOCK_ROWS):
        peak = traced_peak(lambda: write_trace_csv(large_log, path))
    assert peak < 4 * MEMORY_BLOCK_ROWS * traceio._LINE_BYTES


def test_trace_csv_parse_holds_the_file_the_columns_and_a_few_blocks(large_log, tmp_path):
    path, bad = tmp_path / "t.csv", tmp_path / "bad.csv"
    write_trace_csv(large_log, str(path))
    lines = path.read_bytes().split(b"\n")
    # The same file with a bad kind on line 4: the error path re-reads
    # that line's block, not the rest of the file.
    cells = lines[3].split(b",")
    cells[3] = b"bogus"
    bad.write_bytes(b"\n".join(lines[:3] + [b",".join(cells)] + lines[4:]))

    def read_bad():
        with pytest.raises(TraceFormatError, match="^line 4: unknown kind 'bogus'$"):
            read_trace_csv(str(bad))

    row_bytes = sum(column.itemsize for column in large_log.columns)
    for file, read in ((path, lambda: read_trace_csv(str(path))), (bad, read_bad)):
        with block_rows(MEMORY_BLOCK_ROWS):
            peak = traced_peak(read)
        beyond = peak - file.stat().st_size - (len(lines) - 1) * row_bytes
        assert beyond < 4 * MEMORY_BLOCK_ROWS * traceio._LINE_BYTES, file.name


def mapped_resident_bytes():
    """The process's resident pages of mapped files (on disk or tmpfs)."""
    with open("/proc/self/status") as status:
        fields = dict(line.split(":", 1) for line in status)
    return sum(1024 * int(fields[name].split()[0]) for name in ("RssFile", "RssShmem"))


@pytest.mark.skipif(not hasattr(mmap, "MADV_DONTNEED") or not os.path.exists("/proc/self/status"),
                    reason="needs madvise(MADV_DONTNEED) and /proc/self/status")
def test_trace_csv_parse_lets_go_of_the_mapped_file(tmp_path, monkeypatch):
    # 2^17 rows of 18-digit integers: a file about seven times the bytes
    # of one of the parse's slices.
    rows = 2**17
    wide = 10**17 + np.arange(rows, dtype=np.int64)
    codes = (np.arange(rows) % 3).astype(np.int8)
    log = CallLog(CallRecord(wide, wide, wide, codes, codes, wide))
    path = tmp_path / "wide.csv"
    write_trace_csv(log, str(path))
    slice_bytes = traceio._BLOCK_ROWS * traceio._LINE_BYTES
    assert path.stat().st_size > 6 * slice_bytes

    resident = []
    parse_rows = traceio._parse_rows

    def measured(body):
        block = parse_rows(body)
        resident.append(mapped_resident_bytes())
        return block

    read_trace_csv(str(path))  # maps in any code the parse touches first
    monkeypatch.setattr(traceio, "_parse_rows", measured)
    before = mapped_resident_bytes()
    parsed = read_trace_csv(str(path))
    assert len(resident) == rows // traceio._BLOCK_ROWS
    assert max(resident) - before < 2 * slice_bytes
    assert all(map(np.array_equal, parsed.columns, log.columns))


# -------------------------------------------------------------- summary JSON


def test_summary_dict_round_trip():
    summary, _ = sample_run()
    assert summary_from_dict(summary_to_dict(summary)) == summary


def test_summary_file_round_trip(tmp_path):
    summary, _ = sample_run()
    path = tmp_path / "summary.json"
    write_summary_json(summary, str(path))
    assert read_summary_json(str(path)) == summary


def test_summary_key_order_fixed():
    summary, _ = sample_run()
    assert list(summary_to_dict(summary)) == [
        "n",
        "outcome",
        "completion_round",
        "rounds_executed",
        "total_calls",
        "informing_calls",
        "encounter_calls",
        "crashed_target_calls",
        "per_round_informed",
    ]


def test_summary_from_dict_rejects_missing_fields():
    with pytest.raises(TraceFormatError, match="bad summary"):
        summary_from_dict({"n": 4})


@pytest.mark.parametrize(
    "changes",
    [
        {"total_calls": 14.5},
        {"total_calls": 14.0},
        {"informing_calls": True},
        {"n": "32"},
        {"completion_round": True},
        {"completion_round": 5.5},
        {"outcome": "finished"},
        {"outcome": 7},
        {"per_round_informed": "1234"},
        {"per_round_informed": [1, 2.0]},
        {"per_round_informed": [1, False]},
        {"comment": "unexpected key"},
    ],
)
def test_summary_from_dict_rejects_other_forms(changes):
    summary, _ = sample_run()
    doc = {**summary_to_dict(summary), **changes}
    with pytest.raises(TraceFormatError, match="bad summary document: "):
        summary_from_dict(doc)


@pytest.mark.parametrize(
    "changes, name",
    [
        ({"n": -8}, "n"),
        ({"total_calls": -1}, "total_calls"),
        ({"crashed_target_calls": -2}, "crashed_target_calls"),
        ({"rounds_executed": -1, "per_round_informed": []}, "rounds_executed"),
        ({"completion_round": -1}, "completion_round"),
        ({"per_round_informed": [1, -2]}, "per_round_informed"),
    ],
)
def test_summary_from_dict_rejects_negative_values(changes, name):
    summary, _ = sample_run()
    doc = {**summary_to_dict(summary), **changes}
    pattern = rf"^bad summary document: {name} must be .*non-negative integer"
    with pytest.raises(TraceFormatError, match=pattern):
        summary_from_dict(doc)


def test_read_summary_json_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(TraceFormatError, match="summary file is not valid JSON"):
        read_summary_json(str(path))
    path.write_text("[1, 2]")
    with pytest.raises(TraceFormatError, match="bad summary document"):
        read_summary_json(str(path))
    with pytest.raises(TraceFormatError, match="cannot read summary file"):
        read_summary_json(str(tmp_path / "missing.json"))


# ----------------------------------------------------------------- table CSV


def test_format_rows_csv_six_digit_floats():
    text = format_rows_csv(("a", "b"), [(1, 3.14159265), ("x", 2.0)])
    assert text == "a,b\n1,3.14159\nx,2\n"


# --------------------------------------------------------------- output paths


def test_relative_paths_honor_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("RUMORSIM_OUTPUT_DIR", str(tmp_path))
    assert resolve_output_path("x.csv") == str(tmp_path / "x.csv")
    written = write_text("sub/x.txt", "hello")
    assert written == str(tmp_path / "sub" / "x.txt")
    assert (tmp_path / "sub" / "x.txt").read_text() == "hello"


def test_absolute_paths_ignore_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("RUMORSIM_OUTPUT_DIR", str(tmp_path / "elsewhere"))
    target = str(tmp_path / "y.txt")
    assert resolve_output_path(target) == target


def test_unset_output_dir_keeps_relative_paths(monkeypatch, tmp_path):
    monkeypatch.delenv("RUMORSIM_OUTPUT_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    assert resolve_output_path("z.txt") == "z.txt"


# ----------------------------------------------------------- byte stability


def test_trace_bytes_stable_across_runs(tmp_path):
    paths = []
    for tag in ("a", "b"):
        summary, records = sample_run(seed=11)
        trace_path = tmp_path / f"{tag}.csv"
        summary_path = tmp_path / f"{tag}.json"
        write_trace_csv(records, str(trace_path))
        write_summary_json(summary, str(summary_path))
        paths.append((trace_path.read_bytes(), summary_path.read_bytes()))
    assert paths[0] == paths[1]
