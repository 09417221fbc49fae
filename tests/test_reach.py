"""The reach probe runs against the library as it stands."""

import json
import subprocess
import sys
from pathlib import Path

import tenspec

ROOT = Path(__file__).resolve().parents[1]


def test_reach_lists_no_public_name_but_contract():
    # Every public name is reached by a CLI command or a benchmark workload,
    # except `contract`, which only the benchmark's tracer names.
    proc = subprocess.run(
        [sys.executable, "scripts/reach.py", "--src", "src"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert all(set(row) == {"module", "function", "line"} for row in rows)
    # Only exp1, which the probe leaves out, reaches the block sweep: an
    # empty list would mean that the probe saw nothing.
    assert ("jacobi", "_block_sweep") in {(row["module"], row["function"]) for row in rows}
    assert {row["function"] for row in rows} & set(tenspec.__all__) <= {"contract"}
