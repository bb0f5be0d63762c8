"""Smoke runs of the benchmark on tiny inputs, so that it cannot rot unnoticed.

A traced run stops with exit code 2 when a function it wraps is missing or
is bypassed (for example a kernel call that does not go through
`sub_laplacian_base`), and reports `"correct": false` when an output check
fails.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["flow_rough_64", "verify_64"])
def test_traced_smoke_run(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--smoke", "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result
