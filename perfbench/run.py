"""tenspec benchmark: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload operator --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  After a set-up phase that ends with a warm-up run of the largest
input, input sets run one after another, each after a timed
``import tenspec`` in a fresh interpreter, until ``--seconds`` would be
exceeded.  Every output is checked against ``numpy.linalg`` references
(see checks.py).  The last line of
stdout is ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``, where
untraced and traced input sets alternate.  The line before it describes
the environment and the samples behind each median.
"""

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
# Inputs are built this many times per run and the median build reported.
BUILD_REPEATS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["operator", "triple", "cli-transform"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def cap_blas_threads():
    """Cap BLAS threads at the CPUs this process may use; must run before
    numpy is first imported.  Returns the cap."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            os.environ[var] = str(nproc)
    return nproc, int(os.environ["OPENBLAS_NUM_THREADS"])


def time_import():
    """Wall time of a fresh interpreter that imports tenspec from src/."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import tenspec"
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - started


def blas_version(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def main(argv=None, size="full"):
    """Run one workload; ``size="tiny"`` shrinks every input (self-test)."""
    args = parse_args(argv)
    nproc, threads = cap_blas_threads()
    if not (SRC / "tenspec" / "__init__.py").is_file():
        print(f"perfbench: no tenspec sources under {SRC}", file=sys.stderr)
        return 2
    for path in (str(SRC), str(BENCH)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import numpy as np
    import tenspec

    if Path(tenspec.__file__).resolve().parent != SRC / "tenspec":
        print(f"perfbench: imported tenspec from {tenspec.__file__}", file=sys.stderr)
        return 2
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        build_times = []
        for _ in range(BUILD_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            started = time.perf_counter()
            inputs = workload.make_inputs(args.seed, size, work)
            build_times.append(time.perf_counter() - started)

        # Warm-up on the largest (last) input, outside the timed sets: the
        # first run of an input size in a process is up to 2.5 times slower
        # (allocator and page-fault state), which a smaller input does not
        # absorb.  A CLI user pays it on every call, so its pipeline time
        # (reference checks excluded) counts as set-up.
        warmup_s = workloads.attempt(workload, inputs[-1]).total_s

        tracer = spans.Tracer() if args.trace else None
        sets, outcomes, import_times = [], [], []
        loop_started = time.perf_counter()
        while True:
            set_started = time.perf_counter()
            # One import sample per set: machine speed drifts over seconds,
            # so samples spread over the run average it out better than
            # back-to-back ones.
            import_times.append(time_import())
            traced = bool(args.trace) and len(sets) % 2 == 1
            if traced:
                tracer.set_index = len(sets)
            decompose_s = total_s = 0.0
            with tracer.installed() if traced else nullcontext():
                for inp in inputs:
                    if traced:
                        tracer.input_index = inp.index
                    timed = workloads.attempt(workload, inp)
                    decompose_s += timed.decompose_s
                    total_s += timed.total_s
                    outcomes.append((inp.index, timed.outcome))
            sets.append({
                "traced": traced,
                "decompose_s": decompose_s,
                "total_s": total_s,
                "wall_s": time.perf_counter() - set_started,
            })
            elapsed = time.perf_counter() - loop_started
            typical = statistics.median(p["wall_s"] for p in sets)
            if len(sets) >= 1 + args.trace and elapsed + typical > args.seconds:
                break

        first_outcome = next(o for i, o in outcomes if i == 0)
        first_outcome.reasons += workloads.run_controls(workload, inputs, args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(outcomes)
    failed = sum(1 for _, o in outcomes if not o.ok)
    for index, outcome in [(i, o) for i, o in outcomes if not o.ok][:5]:
        for reason in outcome.reasons[:3]:
            print(f"perfbench: input {index} failed: {reason}", file=sys.stderr)
    untraced = [p for p in sets if not p["traced"]]

    if args.trace:
        traced_sets = [i for i, p in enumerate(sets) if p["traced"]]
        per_set = spans.layer_stats(tracer.spans, traced_sets)
        metrics = {
            name: {"value": statistics.median(p[name] for p in per_set),
                   "unit": spans.unit(name)}
            for name in per_set[0]
        }
        overhead = statistics.median(sets[i]["total_s"] for i in traced_sets)
        overhead -= statistics.median(p["total_s"] for p in untraced)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        tracer.write_jsonl(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    else:

        def worst_digits(key):
            found = [o.digits[key] for _, o in outcomes if key in o.digits]
            return min(found) if found else 0.0

        values = {
            "setup_s": (
                statistics.median(import_times)
                + statistics.median(build_times)
                + warmup_s,
                "s",
            ),
            "total_s": (statistics.median(p["total_s"] for p in untraced), "s"),
            "decompose_s": (statistics.median(p["decompose_s"] for p in untraced), "s"),
            "recon_digits": (worst_digits("recon_digits"), "digits"),
            "ortho_digits": (worst_digits("ortho_digits"), "digits"),
            "weight_digits": (worst_digits("weight_digits"), "digits"),
            "pass_ratio": ((attempted - failed) / attempted, "ratio"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
            ),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version(np),
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": nproc,
        "blas_threads": threads,
        "inputs_per_set": len(inputs),
        "sets_untraced": len(untraced),
        "sets_traced": len(sets) - len(untraced),
        "set_total_s": [round(p["total_s"], 4) for p in sets],
        "setup_import_s": [round(t, 4) for t in import_times],
        "setup_inputs_s": [round(t, 4) for t in build_times],
        "warmup_s": round(warmup_s, 4),
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
