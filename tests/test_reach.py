"""The reach probe runs against the library as it stands."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_reach_lists_exactly_the_unreached_functions():
    # Every function and lambda is reached by a CLI command or a benchmark
    # workload except these: `contract` (with its axis check), which only the
    # benchmark's tracer names; the eigensolver's non-convergence error; and
    # its block one-sided sweep (the function and its local sweep), which of
    # the commands only the probe's skipped `exp1` reaches.  A function only
    # the tests call, or only the probe's input builder, would be listed
    # here too.
    proc = subprocess.run(
        [sys.executable, "scripts/reach.py", "--src", "src"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert all(set(row) == {"module", "function", "line"} for row in rows)
    assert {(row["module"], row["function"]) for row in rows} == {
        ("core", "contract"),
        ("core", "_check_axes"),
        ("errors", "NoConvergence.__init__"),
        ("jacobi", "_block_one_sided"),
        ("jacobi", "_block_one_sided.<locals>.sweep"),
    }
