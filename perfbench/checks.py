"""Output checks for every CLI invocation the benchmark makes.

Two kinds of check count towards ``failed``:

- invariants, at any seed: exit code 0, call-count identities, the
  per-round informed counts, the hybrid call cap, ``trace`` reporting
  ``ok``, and cell counts that sum to the trial count;
- SHA-256 digests of stdout and of the trace CSV, for the reference
  iteration, against the values in ``digests.json``.  These pin the byte
  streams the package promises to keep stable: hybrid, push, identical
  lists, and the sweep and compare documents.  quasirandom-independent is
  checked by invariants only, because its random stream may change.

The checks are written from the README's file formats, not from the
package's code, so that a defect in the package cannot hide itself here.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

DIGESTS_PATH = Path(__file__).with_name("digests.json")
UNPINNED_PROTOCOL = "quasirandom-independent"
TRACE_HEADER = "round,caller,target,kind,outcome,serial_position"


@dataclass
class Outcome:
    """One CLI invocation: what ran, what it printed, and what it cost."""

    argv: tuple[str, ...]
    rc: int
    seconds: float
    stdout: str
    digests: dict[str, str] = field(default_factory=dict)
    calls: float = 0.0
    trials: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def load_digests() -> dict[str, dict[str, str]]:
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _flag(argv, name, default=None):
    for i, token in enumerate(argv[:-1]):
        if token == name:
            return argv[i + 1]
    return default


def _check_summary(doc: dict, argv, problems: list[str]) -> None:
    n = int(_flag(argv, "--n"))
    protocol = _flag(argv, "--protocol", "hybrid")
    total = doc["total_calls"]
    if total != doc["informing_calls"] + doc["encounter_calls"] + doc["crashed_target_calls"]:
        problems.append("total_calls != informing + encounter + crashed_target calls")
    if doc["n"] != n or doc["outcome"] != "completed":
        problems.append(f"expected a completed run at n={n}, got {doc['n']} {doc['outcome']}")
    informed = doc["per_round_informed"]
    if len(informed) != doc["rounds_executed"] + 1 or informed[0] != 1:
        problems.append("per_round_informed does not span rounds 0..rounds_executed from 1")
    for t, count in enumerate(informed):
        if count > min(n, 2**t) or (t and count < informed[t - 1]):
            problems.append(f"per_round_informed[{t}] = {count} breaks monotone doubling")
            break
    if informed[-1] != n or doc["completion_round"] != doc["rounds_executed"]:
        problems.append("completed run does not end with all n nodes informed")
    if doc["informing_calls"] != n - 1:
        problems.append(f"informing_calls {doc['informing_calls']} != n - 1")
    if protocol == "hybrid":
        budget = int(_flag(argv, "--R", math.ceil(math.sqrt(math.log(n)))))
        if total > n * (budget + 1):
            problems.append(f"hybrid total_calls {total} > n(R+1) = {n * (budget + 1)}")


def _check_trace_file(path: str, total_calls: int, problems: list[str]) -> None:
    with open(path, encoding="utf-8", newline="") as handle:
        header = handle.readline().rstrip("\n")
        rows = sum(1 for _ in handle)
    if header != TRACE_HEADER:
        problems.append(f"trace header {header!r}")
    if rows != total_calls:
        problems.append(f"trace has {rows} rows, summary says {total_calls} calls")


def _check_stats(stats: dict, trials: int, where: str, problems: list[str]) -> float:
    """Checks one SampleStats document; returns its total call count."""
    counts = stats["completed_count"] + stats["stalled_count"] + stats["capped_count"]
    if stats["trials"] != trials or counts != trials or stats["total_calls"]["count"] != trials:
        problems.append(f"{where}: trial counts do not sum to {trials}")
    rounds = stats["completion_rounds"]
    if (rounds["count"] if rounds else 0) != stats["completed_count"]:
        problems.append(f"{where}: completion_rounds.count != completed_count")
    # Means are printed to six significant digits, so this total is within
    # a relative 5e-6 of the exact call count.
    return stats["total_calls"]["mean"] * trials


def check_outcome(outcome: Outcome, files: dict[str, str], last_summary: dict | None) -> dict | None:
    """Fills ``outcome.problems``, ``calls`` and ``trials``.

    ``files`` maps the placeholders to the paths this invocation used.
    ``last_summary`` is the summary printed by the previous ``simulate`` in
    the same iteration; the return value is the one to pass to the next.
    """
    argv, problems = outcome.argv, outcome.problems
    if outcome.rc != 0:
        problems.append(f"exit code {outcome.rc}")
        return last_summary
    try:
        doc = json.loads(outcome.stdout)
    except json.JSONDecodeError as exc:
        problems.append(f"stdout is not JSON: {exc}")
        return last_summary
    command = argv[0]
    if command == "simulate":
        _check_summary(doc, argv, problems)
        outcome.calls, outcome.trials = doc["total_calls"], 1
        if "--trace-out" in argv:
            _check_trace_file(files["trace"], doc["total_calls"], problems)
        if "--summary-out" in argv:
            with open(files["summary"], encoding="utf-8", newline="") as handle:
                if handle.read() != outcome.stdout:
                    problems.append("summary file differs from stdout")
        return doc
    if command == "trace":
        if doc["ok"] is not True or doc["violations"]:
            problems.append(f"trace reports violations: {doc['violations'][:3]}")
        if last_summary is None or doc["records_checked"] != last_summary["total_calls"]:
            problems.append("trace checked a different number of records than were simulated")
    elif command == "sweep":
        trials = int(_flag(argv, "--trials"))
        cells = doc["cells"]
        per_n = len(_flag(argv, "--R-list").split(",")) + len(_flag(argv, "--protocols").split(","))
        if len(cells) != per_n * len(_flag(argv, "--n-list").split(",")):
            problems.append(f"sweep printed {len(cells)} cells")
        if doc["trials"] != trials or doc["master_seed"] != int(_flag(argv, "--seed")):
            problems.append("sweep document has the wrong trials or master_seed")
        for cell in cells:
            where = f"sweep cell n={cell['n']} {cell['protocol']}"
            outcome.calls += _check_stats(cell["stats"], trials, where, problems)
            if cell["stats"]["completed_count"] != trials:
                problems.append(f"{where}: a run without crashes did not complete")
        outcome.trials = trials * len(cells)
    elif command == "compare":
        trials = int(_flag(argv, "--trials"))
        names = _flag(argv, "--protocols").split(",")
        expected = [f"{i}:{name}" for i, name in enumerate(names)]
        if list(doc["protocols"]) != expected or len(doc["pairs"]) != len(names) * (len(names) - 1) // 2:
            problems.append("compare document has the wrong protocols or pairs")
        for where, stats in doc["protocols"].items():
            outcome.calls += _check_stats(stats, trials, where, problems)
        outcome.trials = trials * len(names)
    else:
        problems.append(f"no check for subcommand {command!r}")
    return last_summary


def check_digests(outcome: Outcome, recorded: dict[str, dict[str, str]]) -> None:
    """Compares a reference invocation's digests with the recorded ones."""
    expected = recorded.get(outcome.key)
    if expected is None:
        if _flag(outcome.argv, "--protocol") != UNPINNED_PROTOCOL:
            outcome.problems.append("no digest recorded for this reference invocation")
        return
    for stream, digest in expected.items():
        actual = outcome.digests.get(stream)
        if actual != digest:
            outcome.problems.append(f"{stream} digest {actual} != recorded {digest}")
