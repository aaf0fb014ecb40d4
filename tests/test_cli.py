"""Command-line tests: exit codes, merging, byte stability, round trips."""

import argparse
import hashlib
import json
import subprocess
import sys
import tracemalloc

import pytest

from rumorsim.cli import (
    EXIT_CAPPED,
    EXIT_OK,
    EXIT_STALLED,
    EXIT_USAGE,
    EXIT_VIOLATION,
    build_parser,
    main,
)
from rumorsim.core import CallKind, CallOutcome
from rumorsim import experiments
from rumorsim.experiments import sweep, sweep_grid
from rumorsim.traceio import format_jsonl

# A frozen configuration that stalls: most nodes crash mid-spread and the
# survivors spend their stop budgets before reaching everyone.
STALL_ARGS = [
    "simulate", "--n", "32", "--R", "1", "--seed", "2",
    "--rho", "0.8", "--crash-timing", "fixed_round", "--crash-round", "4",
]


def run_cli(*argv):
    return main(list(argv))


def out_json(capsys):
    return json.loads(capsys.readouterr().out)


# ----------------------------------------------------------------- simulate


def test_simulate_single_node(capsys):
    assert run_cli("simulate", "--n", "1", "--seed", "5") == EXIT_OK
    doc = out_json(capsys)
    assert doc["completion_round"] == 0
    assert doc["total_calls"] == 0


def test_simulate_two_nodes(capsys):
    assert run_cli("simulate", "--n", "2", "--protocol", "hybrid", "--R", "1",
                   "--seed", "9") == EXIT_OK
    assert out_json(capsys)["completion_round"] == 1


def test_simulate_same_seed_byte_identical(capsys):
    run_cli("simulate", "--n", "256", "--R", "2", "--seed", "7")
    first = capsys.readouterr().out
    run_cli("simulate", "--n", "256", "--R", "2", "--seed", "7")
    assert capsys.readouterr().out == first


def test_simulate_defaults_to_hybrid_with_optimal_budget(capsys):
    assert run_cli("simulate", "--n", "1024", "--seed", "3") == EXIT_OK
    doc = out_json(capsys)
    # ceil(sqrt(ln 1024)) = 3, so at most n*(3+1) calls.
    assert doc["total_calls"] <= 1024 * 4


def test_simulate_missing_seed_is_generated_and_printed(capsys):
    assert run_cli("simulate", "--n", "16") == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err.startswith("seed = ")
    assert json.loads(captured.out)["outcome"] == "completed"


def test_simulate_stall_exit_code(capsys):
    assert run_cli(*STALL_ARGS) == EXIT_STALLED
    doc = out_json(capsys)
    assert doc["outcome"] == "stalled"
    assert doc["completion_round"] is None


def test_simulate_cap_exit_code(capsys):
    assert run_cli("simulate", "--n", "4096", "--R", "1", "--seed", "4",
                   "--cap", "3") == EXIT_CAPPED
    assert out_json(capsys)["outcome"] == "capped"


def test_simulate_usage_errors():
    assert run_cli("simulate") == EXIT_USAGE  # no n
    assert run_cli("simulate", "--n", "0", "--seed", "1") == EXIT_USAGE
    assert run_cli("simulate", "--n", "8", "--protocol", "push", "--R", "2",
                   "--seed", "1") == EXIT_USAGE
    assert run_cli("simulate", "--n", "8", "--rho", "0.5",
                   "--crash-timing", "fixed_round", "--seed", "1") == EXIT_USAGE
    assert run_cli("simulate", "--n", "8", "--wibble") == EXIT_USAGE
    assert run_cli("wibble") == EXIT_USAGE
    assert run_cli() == EXIT_USAGE


@pytest.mark.parametrize("subcommand", [
    ["simulate", "--n", "8"], ["compare", "--n", "8", "--trials", "2"],
], ids=["simulate", "compare"])
@pytest.mark.parametrize("flags, field", [
    (["--crash-timing", "fixed_round", "--crash-round"], "round"),
    (["--crash-max-round"], "max_round"),
], ids=["round", "max_round"])
def test_crash_round_beyond_int64_is_a_usage_error(subcommand, flags, field, capsys):
    huge = "99999999999999999999"
    assert run_cli(*subcommand, "--rho", "0.5", *flags, huge, "--seed", "1") == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: crash {field} must be below 2**63, got {huge}\n"


@pytest.mark.parametrize("subcommand", [
    ["simulate", "--n", "8"], ["compare", "--n", "8", "--trials", "2"],
], ids=["simulate", "compare"])
@pytest.mark.parametrize("flags, message", [
    (["--crash-round", "99999999999999999999"],
     "crash round must be below 2**63, got 99999999999999999999"),
    (["--crash-timing", "fixed_round"], "fixed_round timing needs a non-negative round"),
    (["--crash-max-round", "-1"], "max_round must be >= 0, got -1"),
], ids=["round", "fixed_round", "max_round"])
def test_crash_flags_are_checked_with_no_crashes(subcommand, flags, message, capsys):
    # A zero crash fraction draws no schedule, but its flags are still checked.
    assert run_cli(*subcommand, "--rho", "0", *flags, "--seed", "1") == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("subcommand", [
    ["simulate", "--n", "8"], ["compare", "--n", "8", "--trials", "2"],
], ids=["simulate", "compare"])
@pytest.mark.parametrize("flags, message", [
    (["--crash-timing", "at_start", "--crash-round", "5", "--crash-max-round", "3"],
     "crash round needs fixed_round timing, got at_start"),
    (["--crash-round", "5"], "crash round needs fixed_round timing, got uniform_round"),
    (["--crash-timing", "at_start", "--crash-max-round", "3"],
     "crash max_round needs uniform_round timing, got at_start"),
    (["--crash-timing", "fixed_round", "--crash-round", "5", "--crash-max-round", "3"],
     "crash max_round needs uniform_round timing, got fixed_round"),
], ids=["at_start-round", "uniform_round-round", "at_start-max_round", "fixed_round-max_round"])
def test_crash_round_flags_the_timing_ignores_are_usage_errors(subcommand, flags, message, capsys):
    assert run_cli(*subcommand, "--rho", "0.5", *flags, "--seed", "1") == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("subcommand", [
    ["simulate", "--n", "2147483648"], ["compare", "--n", "2147483648", "--trials", "2"],
    ["sweep", "--n-list", "2147483648", "--R-list", "1", "--trials", "2"],
], ids=["simulate", "compare", "sweep"])
@pytest.mark.parametrize("crashes", [[], ["--rho", "0.5"]], ids=["no-crashes", "crashes"])
def test_n_beyond_int32_is_refused_before_allocating(subcommand, crashes, monkeypatch, capsys):
    # Node ids are int32.  A stack or a crash schedule reached fails the
    # test instead of allocating 2**31 nodes.
    def allocate(*args):
        raise AssertionError("allocated")

    monkeypatch.setattr("rumorsim.core._Stack", allocate)
    monkeypatch.setattr(experiments, "generate_crash_schedule", allocate)
    tracemalloc.start()
    try:
        assert run_cli(*subcommand, *crashes, "--seed", "1") == EXIT_USAGE
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n must be at most 2147483647, got 2147483648\n"


@pytest.mark.parametrize("subcommand", [
    ["simulate", "--n", "2147483647", "--protocol", "push", "--cap", "0"],
    ["compare", "--n", "2147483647", "--trials", "2"],
    ["sweep", "--n-list", "2147483647", "--R-list", "1", "--trials", "2"],
], ids=["simulate", "compare", "sweep"])
def test_out_of_memory_is_an_error_not_a_traceback(subcommand, monkeypatch, capsys):
    # An n that fits int32 but not in memory; the stack's allocation fails
    # as numpy's would, without allocating.
    message = "Unable to allocate 8.00 GiB for an array with shape (2147483647,) and data type int32"

    def allocate(*args):
        raise MemoryError(message)

    monkeypatch.setattr("rumorsim.core._Stack", allocate)
    tracemalloc.start()
    try:
        assert run_cli(*subcommand, "--seed", "1") == EXIT_USAGE
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: out of memory: {message}\n"


@pytest.mark.parametrize("subcommand", [
    ["simulate", "--n", "16"], ["compare", "--n", "16", "--trials", "2"],
    ["sweep", "--n-list", "16", "--R-list", "1", "--trials", "2"],
], ids=["simulate", "compare", "sweep"])
def test_negative_seed_is_a_usage_error(subcommand, tmp_path, capsys):
    config = tmp_path / "seed.json"
    config.write_text(json.dumps({"seed": -1}))
    assert run_cli(*subcommand, "--seed", "-1") == EXIT_USAGE
    assert run_cli(*subcommand, "--config", str(config)) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: master seed must be >= 0, got -1\n" * 2


def test_simulate_writes_trace_and_summary(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    summary = tmp_path / "s.json"
    code = run_cli("simulate", "--n", "64", "--R", "2", "--seed", "42",
                   "--trace-out", str(trace), "--summary-out", str(summary))
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    assert summary.read_text() == stdout
    header = trace.read_text().splitlines()[0]
    assert header == "round,caller,target,kind,outcome,serial_position"


def test_simulate_output_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RUMORSIM_OUTPUT_DIR", str(tmp_path))
    run_cli("simulate", "--n", "16", "--R", "1", "--seed", "2",
            "--trace-out", "inner.csv")
    capsys.readouterr()
    assert (tmp_path / "inner.csv").exists()


def test_simulate_quasirandom_and_push(capsys):
    for name in ("quasirandom-identical", "quasirandom-independent", "push"):
        assert run_cli("simulate", "--n", "64", "--protocol", name,
                       "--seed", "3") == EXIT_OK
        assert out_json(capsys)["outcome"] == "completed"


# SHA-256 of the trace CSV and the summary JSON that
# `simulate --n 64 --seed 3 --protocol P [--rho 0.2]` writes.  Frozen: any
# change to these bytes is a change of format or semantics, not a refactor.
FROZEN_SIMULATE_DIGESTS = {
    ("hybrid", False): (
        "8b1f248074bf04971c8ba1305f9d6b86e06116bb1d6284019e7c558f0c35dc01",
        "f772e04c91bca6a3a29f6c07f54fe80ddf9e2b7196f53a4cba25d7437e14519a",
    ),
    ("hybrid", True): (
        "1446d23a5d502edaa39b8818661fa820d86c24a6c30e6e0aa8848fea00ccde4a",
        "4a1bf918e63848f28349a04b90626d86aea990b2a3830499fb18653605192385",
    ),
    ("push", False): (
        "85f01751e24a4ed0495aa0b5385ca7cb448c73a4da678bd0fbde72107c1cd718",
        "25ee6f85df6cb73a231c05acec30b182cf048c136439cfc1c7a655df5f8ac132",
    ),
    ("push", True): (
        "ff443a8ca76ff0572f957dc98ef4de49ca10b494afaa2dd91abf2c2df084e959",
        "2521143e38731286f6258e719a885bc82ec6858e9023b42a223d7f17a77336f4",
    ),
    ("quasirandom-identical", False): (
        "d9566639caf4a39793e778bb3cfe43aa46debecac009ed817fd3fc532919f9d3",
        "8e65814274e9369e6f63014078626ab8e406d38747e3d5ff75809cbdeaf9ff5d",
    ),
    ("quasirandom-identical", True): (
        "cd91fcf323356dc74d50939922eb6d52efa0d02c0ff5a189ebd01b37fc2a1065",
        "3cbc6b08542f18853f5e511fa1e79d4cc7e1d5665e601103f95cd317a27cb74f",
    ),
    ("quasirandom-independent", False): (
        "f63e045b5eeb7daf952d5a3905fb6a40d8fe413e1f0fed649baab1d77df8d4d6",
        "e86edd2c08e92620da3197e647e255362695255632f58305bb09ee7a1e292aa8",
    ),
    ("quasirandom-independent", True): (
        "97a96f40aff1e49801d377a4f690695ca48efcc291aed6a544a2013c032c9157",
        "2521143e38731286f6258e719a885bc82ec6858e9023b42a223d7f17a77336f4",
    ),
}


def test_simulate_output_bytes_frozen(tmp_path, capsys):
    digests, kinds, outcomes = {}, set(), set()
    for protocol, crashes in FROZEN_SIMULATE_DIGESTS:
        trace = tmp_path / f"{protocol}-{crashes}.csv"
        summary = tmp_path / f"{protocol}-{crashes}.json"
        code = run_cli("simulate", "--n", "64", "--seed", "3", "--protocol", protocol,
                       *(["--rho", "0.2"] if crashes else []),
                       "--trace-out", str(trace), "--summary-out", str(summary))
        assert code == EXIT_OK
        assert capsys.readouterr().out == summary.read_text()
        digests[protocol, crashes] = tuple(
            hashlib.sha256(path.read_bytes()).hexdigest() for path in (trace, summary)
        )
        for row in trace.read_text().splitlines()[1:]:
            _, _, _, kind, outcome, _ = row.split(",")
            kinds.add(kind)
            outcomes.add(outcome)
    assert digests == FROZEN_SIMULATE_DIGESTS
    # The frozen runs exercise every call kind and every call outcome.
    assert kinds == {kind.value for kind in CallKind}
    assert outcomes == {outcome.value for outcome in CallOutcome}


# SHA-256 of what `simulate --n 16384 --protocol quasirandom-independent
# --seed 0` prints.  At this size the independent lists are drawn over many
# blocks of callers; frozen like the digests above.
FROZEN_INDEPENDENT_LISTS_DIGEST = "1be7430c5d20f88d36920b6a2b2c14a9ac0a9581e6d872640b89ad6b0e92446b"


def test_simulate_independent_lists_at_scale_frozen(capsys):
    code = run_cli("simulate", "--n", "16384", "--protocol", "quasirandom-independent",
                   "--seed", "0")
    assert code == EXIT_OK
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256(stdout).hexdigest() == FROZEN_INDEPENDENT_LISTS_DIGEST


# SHA-256 of what each batch command prints.  Between them they run all four
# protocols, the three crash timings, a non-zero start, a cell with stalled
# trials and a cell where some trials complete and the rest hit the cap.
# Frozen like the digests above.
FROZEN_BATCH_DIGESTS = {
    ("sweep", "--n-list", "16,100", "--R-list", "1,3",
     "--protocols", "push,quasirandom-identical,quasirandom-independent",
     "--trials", "25", "--format", "structured", "--seed", "11"):
        "436beb403ba386ad8c3179814612d68b5da1f29b7fbb74975a622c68241ea858",
    ("sweep", "--n-list", "48", "--R-list", "2", "--protocols", "push,quasirandom-independent",
     "--trials", "25", "--format", "structured", "--seed", "12",
     "--rho", "0.25", "--crash-timing", "at_start"):
        "91741c905a948775f7d677c93d9c48c05dc440f04a167a32a7c61bc61ef44774",
    ("sweep", "--n-list", "32", "--R-list", "1", "--protocols", "quasirandom-identical",
     "--trials", "25", "--format", "structured", "--seed", "2",
     "--rho", "0.8", "--crash-timing", "fixed_round", "--crash-round", "4"):
        "e99e0ce7c6dcc2e5d65d72667b7c7b70aef41f7ad81aff8652a8864cef3f9908",
    ("sweep", "--n-list", "1024", "--R-list", "2", "--protocols", "push",
     "--trials", "40", "--cap", "17", "--format", "structured", "--seed", "13"):
        "ddd8d9ed03f30875bf926b87e03f54cdbc7440b6a9ec1c8cc45eb8e5cb5786d3",
    ("compare", "--n", "64",
     "--protocols", "hybrid,quasirandom-identical,push,quasirandom-independent",
     "--trials", "30", "--rho", "0.1", "--crash-timing", "uniform_round", "--seed", "14"):
        "797a1fc37b77215be56805be3b61a2ea57e9cc6e5db5ed495327a77ca1f728dc",
    ("compare", "--n", "40", "--protocols", "hybrid,push", "--R", "1", "--trials", "30",
     "--rho", "0.5", "--crash-timing", "uniform_round", "--crash-max-round", "3",
     "--start", "7", "--seed", "15"):
        "8163fda99c5fffc92ef5f5f279212c28575753f18ac5a2249281376456c322f3",
}


@pytest.mark.parametrize("stack_nodes", [None, 1, 100])
def test_batch_output_bytes_frozen(stack_nodes, capsys, monkeypatch):
    # Batches run their trials in stacks; the bytes must not depend on the
    # stack size (one trial per stack, a few per stack, or the default).
    if stack_nodes is not None:
        monkeypatch.setattr(experiments, "_STACK_NODES", stack_nodes)
    digests, outcomes = {}, set()
    for argv in FROZEN_BATCH_DIGESTS:
        assert run_cli(*argv) == EXIT_OK
        stdout = capsys.readouterr().out
        digests[argv] = hashlib.sha256(stdout.encode()).hexdigest()
        doc = json.loads(stdout)
        for stats in [cell["stats"] for cell in doc.get("cells", ())] + list(
            doc.get("protocols", {}).values()
        ):
            outcomes.update(key for key in ("stalled_count", "capped_count") if stats[key])
    assert digests == FROZEN_BATCH_DIGESTS
    assert outcomes == {"stalled_count", "capped_count"}


@pytest.mark.parametrize("flag", ["--trace-out", "--summary-out"])
def test_simulate_unwritable_output_is_usage_error(tmp_path, capsys, flag):
    code = run_cli("simulate", "--n", "8", "--seed", "1", flag, str(tmp_path))
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path}: ")


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "report.json"
    assert run_cli("bounds", "--n", "64", "--out", str(out)) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")


# ------------------------------------------------------------------- bounds


def test_bounds_max_calls(capsys):
    assert run_cli("bounds", "--n", "100", "--R", "3") == EXIT_OK
    doc = out_json(capsys)
    assert doc["max_calls"] == 400
    assert doc["stop_budget"] == 3


def test_bounds_default_budget_is_optimal(capsys):
    assert run_cli("bounds", "--n", "1024") == EXIT_OK
    doc = out_json(capsys)
    assert doc["optimal_stop_budget"] == 3
    assert doc["stop_budget"] == 3
    assert doc["lower_rounds"] <= doc["upper_rounds"]


def test_bounds_rejects_bad_epsilon(capsys):
    assert run_cli("bounds", "--n", "1024", "--epsilon", "-1") == EXIT_USAGE
    assert run_cli("bounds") == EXIT_USAGE


@pytest.mark.parametrize("flag, value, message", [
    ("--R", "nan", "stop_budget must be finite and >= 1, got nan"),
    ("--R", "inf", "stop_budget must be finite and >= 1, got inf"),
    ("--epsilon", "nan", "epsilon must be finite and >= 0, got nan"),
    ("--epsilon", "inf", "epsilon must be finite and >= 0, got inf"),
])
def test_bounds_rejects_non_finite_values(flag, value, message, capsys):
    # NaN and Infinity are not JSON, so no report may carry them.
    assert run_cli("bounds", "--n", "16", flag, value) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_bounds_accepts_real_budget(capsys):
    assert run_cli("bounds", "--n", "1024", "--R", "2.5") == EXIT_OK
    assert out_json(capsys)["stop_budget"] == 2.5


# ------------------------------------------------------------------ compare


def test_compare_report(capsys):
    code = run_cli("compare", "--n", "128", "--R", "1", "--trials", "15",
                   "--seed", "11",
                   "--protocols", "hybrid,quasirandom-identical,push")
    assert code == EXIT_OK
    doc = out_json(capsys)
    assert set(doc["protocols"]) == {
        "0:hybrid", "1:quasirandom-identical", "2:push",
    }
    assert len(doc["pairs"]) == 3
    assert doc["pairs"][0]["dominance_flagged"] in (False, True)


def test_compare_needs_two_protocols(capsys):
    assert run_cli("compare", "--n", "64", "--protocols", "hybrid",
                   "--R", "1", "--seed", "1") == EXIT_USAGE


# -------------------------------------------------------------------- sweep


def test_sweep_delimited(capsys):
    code = run_cli("sweep", "--n-list", "32,64", "--R-list", "1,2",
                   "--trials", "5", "--seed", "3")
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,protocol,stop_budget,statistic,value"
    assert len(lines) == 1 + 4 * 8


def test_sweep_structured_and_lines(capsys):
    run_cli("sweep", "--n-list", "32", "--R-list", "1", "--trials", "5",
            "--seed", "3", "--format", "structured")
    doc = out_json(capsys)
    assert doc["cells"][0]["n"] == 32
    assert doc["cells"][0]["stats"]["trials"] == 5

    run_cli("sweep", "--n-list", "32", "--R-list", "1", "--trials", "5",
            "--seed", "3", "--format", "lines")
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert all(json.loads(line)["n"] == 32 for line in lines)
    result = sweep(sweep_grid([32], [1]), 5, 3)
    assert out == format_jsonl(dict(zip(result.ROW_HEADER, row)) for row in result.rows())


def test_sweep_named_protocol_cells(capsys):
    code = run_cli("sweep", "--n-list", "32", "--protocols", "push",
                   "--trials", "5", "--seed", "3")
    assert code == EXIT_OK
    assert ",push,," in capsys.readouterr().out


def test_sweep_empty_grid_is_usage_error(capsys):
    assert run_cli("sweep", "--trials", "5", "--seed", "1") == EXIT_USAGE
    assert run_cli("sweep", "--n-list", "32", "--trials", "5",
                   "--seed", "1") == EXIT_USAGE


def test_sweep_rejects_a_non_integer_size(capsys):
    assert run_cli("sweep", "--n-list", "16,x") == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected comma-separated integers, got '16,x'" in captured.err


def test_sweep_hybrid_in_protocols_rejected(capsys):
    assert run_cli("sweep", "--n-list", "32", "--protocols", "hybrid",
                   "--trials", "5", "--seed", "1") == EXIT_USAGE


def test_sweep_out_file_matches_stdout(tmp_path, capsys):
    out = tmp_path / "table.csv"
    run_cli("sweep", "--n-list", "32", "--R-list", "1", "--trials", "5",
            "--seed", "3", "--out", str(out))
    assert out.read_text() == capsys.readouterr().out


def test_sweep_byte_identical_reruns(capsys):
    argv = ["sweep", "--n-list", "64", "--R-list", "1,3", "--trials", "10",
            "--seed", "21"]
    run_cli(*argv)
    first = capsys.readouterr().out
    run_cli(*argv)
    assert capsys.readouterr().out == first


# -------------------------------------------------------------------- trace


@pytest.fixture()
def trace_files(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    summary = tmp_path / "s.json"
    run_cli("simulate", "--n", "64", "--R", "2", "--seed", "42",
            "--trace-out", str(trace), "--summary-out", str(summary))
    capsys.readouterr()
    return trace, summary


def test_trace_round_trip(trace_files, capsys):
    trace, summary = trace_files
    code = run_cli("trace", str(trace), "--protocol", "hybrid", "--R", "2",
                   "--no-crashes", "--summary", str(summary))
    assert code == EXIT_OK
    doc = out_json(capsys)
    assert doc["ok"] is True
    assert doc["violations"] == []
    assert doc["n"] == 64


def test_trace_forged_informed_fails(trace_files, capsys):
    trace, _ = trace_files
    text = trace.read_text().replace("already_informed", "informed", 1)
    trace.write_text(text)
    code = run_cli("trace", str(trace), "--protocol", "hybrid", "--R", "2")
    assert code == EXIT_VIOLATION
    doc = out_json(capsys)
    assert doc["ok"] is False
    assert any("second time" in v for v in doc["violations"])


def test_trace_mismatched_summary_fails(trace_files, tmp_path, capsys):
    trace, _ = trace_files
    other = tmp_path / "other.json"
    run_cli("simulate", "--n", "64", "--R", "2", "--seed", "43",
            "--summary-out", str(other))
    capsys.readouterr()
    assert run_cli("trace", str(trace), "--summary", str(other)) == EXIT_VIOLATION


def test_trace_rejects_summary_with_fractional_counts(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    summary = tmp_path / "s.json"
    run_cli("simulate", "--n", "8", "--seed", "3",
            "--trace-out", str(trace), "--summary-out", str(summary))
    capsys.readouterr()
    doc = json.loads(summary.read_text())
    doc["total_calls"] += 0.5
    doc["completion_round"] += 0.5
    summary.write_text(json.dumps(doc))
    assert run_cli("trace", str(trace), "--summary", str(summary)) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad summary document: " in captured.err


def rewritten_summary_violations(tmp_path, capsys, run_flags, trace_flags=(), **changes):
    """``trace --summary``'s violations, with ``trace_flags``, for a run's
    own trace and its summary with ``changes`` applied; the unchanged
    summary passes."""
    trace, summary = tmp_path / "t.csv", tmp_path / "s.json"
    assert run_cli("simulate", *run_flags, "--trace-out", str(trace),
                   "--summary-out", str(summary)) == EXIT_OK
    capsys.readouterr()
    check = ("trace", str(trace), *trace_flags, "--summary", str(summary))
    assert run_cli(*check) == EXIT_OK
    capsys.readouterr()
    summary.write_text(json.dumps({**json.loads(summary.read_text()), **changes}))
    assert run_cli(*check) == EXIT_VIOLATION
    return out_json(capsys)["violations"]


def test_trace_summary_of_a_stall_with_a_completion_round_fails(tmp_path, capsys):
    violations = rewritten_summary_violations(
        tmp_path, capsys, ["--n", "8", "--seed", "3"], outcome="stalled"
    )
    assert violations == ["completion_round 4 for a stalled run"]


def test_trace_summary_of_a_completion_without_its_round_fails(tmp_path, capsys):
    violations = rewritten_summary_violations(
        tmp_path, capsys, ["--n", "8", "--seed", "3"], completion_round=None
    )
    assert violations == ["completion_round None for a completed run"]


def test_trace_summary_with_n_below_a_traced_node_fails(tmp_path, capsys):
    # Half the nodes crash at the start, so the informed counts stay
    # below 50 and only the node ids contradict the summary's n.
    violations = rewritten_summary_violations(
        tmp_path, capsys,
        ["--n", "64", "--seed", "3", "--rho", "0.5", "--crash-timing", "at_start"],
        n=50,
    )
    assert violations == ["node id 63 in trace is not below n=50"]


def test_trace_summary_of_another_n_than_given_fails(tmp_path, capsys):
    # n=9 is consistent with the n=8 trace on its own; only --n refutes it.
    violations = rewritten_summary_violations(
        tmp_path, capsys, ["--n", "8", "--seed", "3"], ["--n", "8"], n=9
    )
    assert violations == ["summary n 9 != n=8"]


def test_trace_rejects_summary_with_negative_rounds(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    summary = tmp_path / "s.json"
    run_cli("simulate", "--n", "8", "--seed", "3",
            "--trace-out", str(trace), "--summary-out", str(summary))
    capsys.readouterr()
    doc = json.loads(summary.read_text())
    doc.update(rounds_executed=-1, per_round_informed=[])
    summary.write_text(json.dumps(doc))
    assert run_cli("trace", str(trace), "--summary", str(summary)) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: bad summary document: rounds_executed must be a non-negative "
        "integer, got -1\n"
    )


def test_trace_config_file_sets_every_flag(trace_files, tmp_path, capsys):
    trace, summary = trace_files
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({
        "n": 64, "protocol": "hybrid", "R": 2, "start": 0,
        "no_crashes": True, "summary": str(summary),
    }))
    assert run_cli("trace", str(trace), "--config", str(config)) == EXIT_OK
    assert out_json(capsys)["ok"] is True
    # The config's no_crashes takes effect: a crashed-target row is flagged.
    lines = trace.read_text().splitlines()
    lines[1] = lines[1].replace(",informed,", ",crashed_target,")
    trace.write_text("\n".join(lines) + "\n")
    assert run_cli("trace", str(trace), "--config", str(config)) == EXIT_VIOLATION
    assert any("no-crash run" in v for v in out_json(capsys)["violations"])


def test_trace_unreadable_and_ill_formed(tmp_path, capsys):
    assert run_cli("trace", str(tmp_path / "missing.csv")) == EXIT_USAGE
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,trace\n")
    assert run_cli("trace", str(bad)) == EXIT_USAGE


def test_trace_missing_summary_is_unreadable_not_ill_formed(trace_files, tmp_path, capsys):
    trace, _ = trace_files
    missing = tmp_path / "nope.json"
    assert run_cli("trace", str(trace), "--summary", str(missing)) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read summary file: ")
    assert "ill-formed" not in captured.err


def test_trace_budget_needs_protocol(trace_files, tmp_path, capsys):
    trace, _ = trace_files
    assert run_cli("trace", str(trace), "--R", "2") == EXIT_USAGE
    assert "--R needs --protocol" in capsys.readouterr().err
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"R": 2}))
    assert run_cli("trace", str(trace), "--config", str(config)) == EXIT_USAGE
    assert "--R needs --protocol" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--n", "0"], "n must be >= 1, got 0"),
        (["--n", "-3"], "n must be >= 1, got -3"),
        (["--start", "99"], "start 99 out of range for n=8"),
        (["--n", "64", "--start", "-1"], "start -1 out of range for n=64"),
    ],
)
def test_trace_rejects_impossible_n_or_start(tmp_path, capsys, flags, message):
    trace = tmp_path / "t.csv"
    run_cli("simulate", "--n", "8", "--seed", "3", "--trace-out", str(trace))
    capsys.readouterr()
    assert run_cli("trace", str(trace), *flags) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("n", ["1000000000000000", "100000000000000000000"])
def test_trace_with_huge_n_verifies(trace_files, capsys, n):
    # Every id of the trace is in range.  A walk does not wrap at such an
    # n, so the hybrid rules flag the one walk that wraps at 64 nodes.
    trace, _ = trace_files
    assert run_cli("trace", str(trace), "--n", n) == EXIT_OK
    doc = out_json(capsys)
    assert doc["ok"] is True and doc["n"] == int(n)
    code = run_cli("trace", str(trace), "--n", n, "--protocol", "hybrid", "--R", "2")
    assert code == EXIT_VIOLATION
    doc = out_json(capsys)
    assert doc["n"] == int(n)
    assert doc["violations"] == ["round 9 serial 18: caller 3 walks to 0, expected 64 after 63"]


# An n or a start beyond int64 is compared with the trace's int64 ids
# without overflow; each run reports in full.
NEVER_INFORMED = "caller 0 was never informed"
NOT_INFORMED = "already-informed outcome but target 0 is not"


@pytest.mark.parametrize("protocol, n, start, checked, violations", [
    # Node 15's successor is 16 at this n, so the walk that wraps to 0 at
    # 16 nodes is flagged.
    ("hybrid", 2**63, 0, 40,
     ["round 4 serial 2: caller 1 walks to 0, expected 16 after 15"]),
    ("push", 2**63, 0, 73, []),
    # The start is 2^63, not node 0, whose calls and wraps are flagged.
    ("quasirandom-identical", 2**63 + 1, 2**63, 85, [
        f"round 1 serial 0: {NEVER_INFORMED}", f"round 2 serial 0: {NEVER_INFORMED}",
        f"round 3 serial 2: {NEVER_INFORMED}", f"round 3 serial 2: {NOT_INFORMED}",
        f"round 4 serial 3: {NEVER_INFORMED}", f"round 5 serial 2: {NEVER_INFORMED}",
        f"round 5 serial 7: {NOT_INFORMED}", f"round 6 serial 1: {NEVER_INFORMED}",
        f"round 6 serial 8: {NOT_INFORMED}", f"round 7 serial 4: {NOT_INFORMED}",
        f"round 7 serial 5: {NEVER_INFORMED}", f"round 8 serial 4: {NEVER_INFORMED}",
        f"round 9 serial 5: {NEVER_INFORMED}", f"round 10 serial 13: {NEVER_INFORMED}",
        "round 3 serial 2: caller 0 walks to 0, expected 16 after 15",
        "round 5 serial 7: caller 5 walks to 0, expected 16 after 15",
        "round 7 serial 4: caller 8 walks to 0, expected 16 after 15",
    ]),
    ("quasirandom-independent", 2**63 + 1, 2**63, 74, [
        f"round 1 serial 0: {NEVER_INFORMED}", f"round 2 serial 1: {NEVER_INFORMED}",
        f"round 3 serial 1: {NOT_INFORMED}", f"round 3 serial 2: {NEVER_INFORMED}",
        f"round 4 serial 1: {NEVER_INFORMED}", f"round 5 serial 1: {NOT_INFORMED}",
        f"round 5 serial 3: {NEVER_INFORMED}", f"round 5 serial 3: {NOT_INFORMED}",
        f"round 6 serial 9: {NEVER_INFORMED}", f"round 7 serial 10: {NOT_INFORMED}",
        f"round 7 serial 11: {NEVER_INFORMED}", f"round 7 serial 12: {NOT_INFORMED}",
        f"round 8 serial 1: {NEVER_INFORMED}", f"round 9 serial 7: {NEVER_INFORMED}",
    ]),
], ids=["hybrid", "push", "identical", "independent"])
def test_trace_with_n_beyond_int64(tmp_path, capsys, protocol, n, start, checked, violations):
    trace = tmp_path / "t.csv"
    budget = ["--R", "2"] if protocol == "hybrid" else []
    run_cli("simulate", "--n", "16", "--seed", "1", "--protocol", protocol, *budget,
            "--trace-out", str(trace))
    capsys.readouterr()
    code = run_cli("trace", str(trace), "--protocol", protocol, *budget,
                   "--n", str(n), "--start", str(start), "--no-crashes")
    assert code == (EXIT_VIOLATION if violations else EXIT_OK)
    doc = {"records_checked": checked, "n": n, "start": start, "ok": not violations,
           "violations": violations}
    assert capsys.readouterr() == (json.dumps(doc, indent=2) + "\n", "")


# -------------------------------------------------------------- config files


def test_config_file_supplies_defaults(tmp_path, capsys):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"n": 128, "R": 2, "seed": 11}))
    assert run_cli("simulate", "--config", str(config)) == EXIT_OK
    assert out_json(capsys)["n"] == 128


def test_flags_override_config(tmp_path, capsys):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"n": 128, "R": 2, "seed": 11}))
    run_cli("simulate", "--config", str(config), "--n", "64")
    assert out_json(capsys)["n"] == 64


def test_config_null_protocol_runs_the_default_hybrid(tmp_path, capsys):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"n": 64, "seed": 11, "protocol": None}))
    assert run_cli("simulate", "--config", str(config)) == EXIT_OK
    from_config = capsys.readouterr().out
    assert run_cli("simulate", "--n", "64", "--seed", "11", "--protocol", "hybrid") == EXIT_OK
    assert from_config == capsys.readouterr().out


def test_config_rejects_unknown_keys(tmp_path):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"n": 128, "bogus": 1}))
    assert run_cli("simulate", "--config", str(config)) == EXIT_USAGE


def test_config_rejects_non_object_and_bad_json(tmp_path):
    config = tmp_path / "conf.json"
    config.write_text("[1, 2]")
    assert run_cli("simulate", "--config", str(config)) == EXIT_USAGE
    config.write_text("{oops")
    assert run_cli("simulate", "--config", str(config)) == EXIT_USAGE
    assert run_cli("simulate", "--config", str(tmp_path / "nope.json")) == EXIT_USAGE
    for bad in (
        {"n": 64.5, "seed": 1},
        {"n": True, "seed": 1},
        {"n": 16, "seed": True},
        {"n": 16, "seed": 1, "no_self_calls": "false"},
        {"n": 16, "seed": 1, "crash_timing": "bogus"},
    ):
        config.write_text(json.dumps(bad))
        assert run_cli("simulate", "--config", str(config)) == EXIT_USAGE, bad


def test_config_works_for_bounds(tmp_path, capsys):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"n": 100, "R": 3}))
    assert run_cli("bounds", "--config", str(config)) == EXIT_OK
    assert out_json(capsys)["max_calls"] == 400


# Every flag of each subcommand but the crash timing and its round flags:
# dest -> (flag tokens, config value).  Output paths are relative, so they
# land in the run's own $RUMORSIM_OUTPUT_DIR.
CONFIG_EQUALS_FLAGS = {
    "simulate": {
        "n": (["--n", "64"], 64),
        "protocol": (["--protocol", "hybrid"], "hybrid"),
        "R": (["--R", "2"], 2),
        "seed": (["--seed", "5"], 5),
        "cap": (["--cap", "40"], 40),
        "rho": (["--rho", "0.25"], 0.25),
        "start": (["--start", "5"], 5),
        "no_self_calls": (["--no-self-calls"], True),
        "trace_out": (["--trace-out", "t.csv"], "t.csv"),
        "summary_out": (["--summary-out", "s.json"], "s.json"),
    },
    "bounds": {
        "n": (["--n", "100"], 100),
        "R": (["--R", "2.5"], 2.5),
        "epsilon": (["--epsilon", "0.2"], 0.2),
        "out": (["--out", "b.json"], "b.json"),
    },
    "compare": {
        "n": (["--n", "64"], 64),
        "protocols": (["--protocols", "hybrid,push,quasirandom-independent"],
                      ["hybrid", "push", "quasirandom-independent"]),
        "R": (["--R", "2"], 2),
        "trials": (["--trials", "7"], 7),
        "seed": (["--seed", "5"], 5),
        "cap": (["--cap", "40"], 40),
        "rho": (["--rho", "0.25"], 0.25),
        "start": (["--start", "5"], 5),
        "out": (["--out", "c.json"], "c.json"),
    },
    "sweep": {
        "n_list": (["--n-list", "32,64"], [32, 64]),
        "R_list": (["--R-list", "1,3"], "1,3"),
        "protocols": (["--protocols", "push"], ["push"]),
        "trials": (["--trials", "5"], 5),
        "seed": (["--seed", "5"], 5),
        "cap": (["--cap", "40"], 40),
        "rho": (["--rho", "0.25"], 0.25),
        "start": (["--start", "5"], 5),
        "format": (["--format", "lines"], "lines"),
        "out": (["--out", "w.txt"], "w.txt"),
    },
}
# Each crash timing with the round flag it reads; a subcommand that takes
# crash flags runs once with each.
CRASH_TIMING_FLAGS = {
    "at_start": {},
    "uniform_round": {"crash_max_round": (["--crash-max-round", "6"], 6)},
    "fixed_round": {"crash_round": (["--crash-round", "3"], 3)},
}


def config_tables(subcommand):
    """The subcommand's cases; all entries of one case form one valid
    invocation."""
    table = CONFIG_EQUALS_FLAGS[subcommand]
    if "rho" not in table:  # no crash flags
        return [table]
    return [
        {**table, "crash_timing": (["--crash-timing", timing], timing), **round_flags}
        for timing, round_flags in CRASH_TIMING_FLAGS.items()
    ]


def _flag_dests(subcommand):
    (subparsers,) = [action for action in build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    actions = subparsers.choices[subcommand]._actions
    return {action.dest for action in actions if action.option_strings} - {"help", "config"}


@pytest.mark.parametrize("subcommand", sorted(CONFIG_EQUALS_FLAGS))
def test_config_equals_flags_for_every_flag(subcommand, tmp_path, capsys, monkeypatch):
    tables = config_tables(subcommand)
    assert set().union(*tables) == _flag_dests(subcommand)
    for case, table in enumerate(tables):
        check_config_equals_flags(subcommand, table, tmp_path / str(case), capsys, monkeypatch)


def check_config_equals_flags(subcommand, table, tmp_path, capsys, monkeypatch):
    tmp_path.mkdir()

    def outcome(name, flag_dests, config):
        out_dir = tmp_path / name
        out_dir.mkdir()
        monkeypatch.setenv("RUMORSIM_OUTPUT_DIR", str(out_dir))
        argv = [subcommand]
        for dest in flag_dests:
            argv += table[dest][0]
        if config is not None:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        code = run_cli(*argv)
        files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        return code, capsys.readouterr().out, files

    by_flags = outcome("flags", list(table), None)
    assert by_flags[2], "every table writes at least one output file"
    everything = {dest: value for dest, (_, value) in table.items()}
    assert outcome("config", [], everything) == by_flags
    for dest, (_, value) in table.items():
        others = [d for d in table if d != dest]
        assert outcome(f"one-{dest}", others, {dest: value}) == by_flags, dest


# ---------------------------------------------------------- installed script


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "rumorsim.cli"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_USAGE

    proc = subprocess.run(
        [sys.executable, "-m", "rumorsim.cli", "simulate", "--n", "2",
         "--R", "1", "--seed", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK
    assert json.loads(proc.stdout)["completion_round"] == 1
