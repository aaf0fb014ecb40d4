"""The demos run, and each prints what it always did."""

import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# SHA-256 of the stdout of demos/01_single_trace.py, which prints every
# record of a kept call log and verifies it.
SINGLE_TRACE_STDOUT_SHA256 = "63a9f03d1eb0f51e6f58e99fdd72f7efc647389b22e7d2b88e91561a50be8a29"

# SHA-256 of the stdout of each batch demo.  Demo 04 is the only run of
# ``validate_bounds``' report through the public API.
BATCH_DEMO_STDOUT_SHA256 = {
    "02_round_call_tradeoff.py": "caca1eead6c40f27388e164e79b45259175a850f38961f1af5d5e0a0174f8013",
    "03_protocol_comparison.py": "f854c253b05be8548b0e78827cf0732af03a8998c3fc3e779e3ebb88ece6d808",
    "04_bound_validation.py": "08ae10ef84e2d8c96ad12f0b22bf02f489d61f1a1cc96295b7b22fa62fc12e34",
    "05_crash_robustness.py": "c8361c59ce925a8576dc079f0b90dee58ce7fd6391d250c516656e12e93a6771",
}


def demo_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def test_single_trace_demo_output_is_frozen():
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "01_single_trace.py")],
        capture_output=True, env=demo_env(), check=True, timeout=120,
    )
    assert hashlib.sha256(result.stdout).hexdigest() == SINGLE_TRACE_STDOUT_SHA256


def test_batch_demo_outputs_are_frozen():
    # The demos start together; each is then waited for in turn.
    running = {
        name: subprocess.Popen(
            [sys.executable, str(ROOT / "demos" / name)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=demo_env(),
        )
        for name in BATCH_DEMO_STDOUT_SHA256
    }
    try:
        digests = {}
        for name, process in running.items():
            stdout, stderr = process.communicate(timeout=300)
            assert process.returncode == 0, (name, stderr.decode()[-2000:])
            digests[name] = hashlib.sha256(stdout).hexdigest()
    finally:
        for process in running.values():
            process.kill()
            process.wait()
    assert digests == BATCH_DEMO_STDOUT_SHA256
