"""The term-sum probe script runs against the library as it stands."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_terms_probe_smoke():
    # One timed call each, one replay block: the reconstruct line, one
    # curve line for the tree, and a replay line at the block and at the
    # tree's default, with the fields the BENCH_terms.json records use.
    proc = subprocess.run(
        [sys.executable, "scripts/terms_probe.py", "--src", "src", "--repeats", "1",
         "--blocks", "32"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    reconstruct, curve, *replays = [json.loads(line) for line in proc.stdout.splitlines()]
    assert reconstruct["reconstruct"] > 0.0 and reconstruct["rel_error"] <= 1e-14
    assert curve["curve"] == "src" and curve["s"] > 0.0
    assert curve["points"] == 2049 and curve["final"] <= 1e-14
    assert [(row["replay"], row["block"]) for row in replays] == [
        ("src", 32), ("src", "default")
    ]
    for row in replays:
        assert row["s"] > 0.0 and row["max_abs_error"] <= 1e-13
