"""The eigensolver ladder script runs against the library as it stands."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_eig_ladder_smoke():
    # Two small orders, one timed solve each: one JSON line per order with
    # the fields the BENCH_eig.json records are built from.
    proc = subprocess.run(
        [sys.executable, "scripts/eig_ladder.py", "--src", "src", "--sizes", "16,32",
         "--repeats", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [row["n"] for row in rows] == [16, 32]
    for row in rows:
        assert len(row["times_s"]) == 1 and row["median_s"] > 0.0
        assert row["sweeps"] > 0
        assert row["ortho_err"] <= 1e-13 and row["eig_rel_err"] <= 1e-13
