"""Self-test of the benchmark at tiny input sizes.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it checks that a clean run passes and
prints exactly the declared metrics with their units, with and without
tracing; that a decomposition with one weight perturbed by 1e-3 relative
makes inputs fail and lowers ``pass_ratio``; and that the benchmark exits
non-zero without printing a result when the library sources are absent.
"""

import dataclasses
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import run
import spans

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WEIGHT_FIELDS = {
    "decompose_sa_nnd": "eigenvalues",
    "decompose_transform": "singulars",
    "decompose_triple": "weights",
}


def check(cond, message):
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")


def run_tiny(workload, trace):
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(
            ["--workload", workload, "--seed", "7", "--seconds", "0.5",
             "--trace", str(trace)],
            size="tiny",
        )
    check(code == 0, f"{workload} trace {trace} exited {code}")
    return json.loads(out.getvalue().splitlines()[-1])


def check_metrics(workload, trace, result):
    declared = SPEC["per_layer" if trace else "end_to_end"]
    check(
        set(result) == {"correct", "attempted", "failed", "metrics"},
        f"{workload}: result keys {sorted(result)}",
    )
    got = result["metrics"]
    check(
        sorted(got) == sorted(m["name"] for m in declared),
        f"{workload} trace {trace}: metric names differ from BENCHMARK.json",
    )
    for m in declared:
        check(got[m["name"]]["unit"] == m["unit"], f"{workload}: unit of {m['name']}")


def perturb_weights():
    """Make every decompose_* return its result with weight 0 scaled by
    1 + 1e-3, at every binding; returns the undo list."""
    import tenspec

    swaps = []
    for func, field in WEIGHT_FIELDS.items():
        original = getattr(tenspec, func)

        def broken(*args, _original=original, _field=field, **kwargs):
            dec = _original(*args, **kwargs)
            weights = getattr(dec, _field).copy()
            weights[0] *= 1.0 + 1e-3
            return dataclasses.replace(dec, **{_field: weights})

        swaps += spans.rebind(original, broken)
    return swaps


def check_without_sources():
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.BENCH.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "triple", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0, "run without src/ exited 0")
    check('"correct"' not in proc.stdout, "run without src/ printed a result")


def main():
    for w in SPEC["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            result = run_tiny(name, trace)
            check_metrics(name, trace, result)
            check(result["correct"] and result["failed"] == 0, f"{name}: clean run failed")
        swaps = perturb_weights()
        try:
            result = run_tiny(name, 0)
        finally:
            for module, attr, original in swaps:
                setattr(module, attr, original)
        check(result["failed"] > 0 and not result["correct"], f"{name}: perturbed weight passed")
        check(result["metrics"]["pass_ratio"]["value"] < 1.0, f"{name}: pass_ratio unchanged")
        print(f"selftest {name}: ok", file=sys.stderr)
    check_without_sources()
    print("selftest: ok", file=sys.stderr)


if __name__ == "__main__":
    main()
