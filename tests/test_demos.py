"""The demos run, and the call-by-call walk-through prints what it always did."""

import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# SHA-256 of the stdout of demos/01_single_trace.py, which prints every
# record of a kept call log and verifies it.
SINGLE_TRACE_STDOUT_SHA256 = "63a9f03d1eb0f51e6f58e99fdd72f7efc647389b22e7d2b88e91561a50be8a29"


def test_single_trace_demo_output_is_frozen():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "01_single_trace.py")],
        capture_output=True, env=env, check=True, timeout=120,
    )
    assert hashlib.sha256(result.stdout).hexdigest() == SINGLE_TRACE_STDOUT_SHA256
