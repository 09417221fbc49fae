"""The benchmark's own self-test runs against the library as it stands."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    # The benchmark reads result fields, record names and the manifest
    # layout; its self-test fails when any of them changes.
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert "selftest: ok" in proc.stderr
