"""The CLI digest script runs against the library as it stands."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_cli_digest_smoke():
    # One command: a line digesting the inputs, then exp2's exit code, its
    # empty stdout and the three files it writes.
    proc = subprocess.run(
        [sys.executable, "scripts/cli_digest.py", "--src", "src", "exp2"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    inputs, row = [json.loads(line) for line in proc.stdout.splitlines()]
    assert inputs["name"] == "inputs" and "op.tz1" in inputs["files"]
    assert row["name"] == "exp2" and row["exit"] == 0
    assert row["argv"] == ["experiment", "exp2", "--out", "exp2"]
    assert sorted(row["files"]) == ["exp2/input.tz1", "exp2/report.json", "exp2/spectrum.csv"]
    for digest in [row["stdout"], *row["files"].values()]:
        assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")
