"""List the functions of the tenspec sources that no command or workload reaches.

    python3 scripts/reach.py [--src DIR]

Imports tenspec from `DIR`, writes the inputs of `scripts/cli_digest.py`
and then, with a `sys.setprofile` hook recording every Python function
called, runs in one process: every command of `scripts/cli_digest.py`
except `exp1`, on those inputs, through `tenspec.cli.main`; then every
benchmark workload of `perfbench/workloads.py` on its `tiny` inputs,
controls included.  Writing the inputs is not profiled, so a function that
only the probe's own input builder calls is listed.  One JSON line goes to
stdout per function defined (with `def` or `lambda`, so property getters
written as lambdas count) in `DIR/tenspec` that none of them called: its
module, qualified name and first line.  `exp1` is left out because it takes
about 6 s.  The functions it reaches that the rest do not are the
eigensolver's block one-sided sweep for factors of more than
`jacobi.SINGLE_BLOCK_MAX` columns: `jacobi._block_one_sided` and its local
`sweep`.  These two are therefore always listed.
The exit code is 1 if a workload input or control fails, since then the run
may have missed code it should reach.
"""

import argparse
import inspect
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 7


def defined_functions(package):
    """(module, qualified name, first line) of every `def` and `lambda` in
    the package."""
    found = set()
    for path in sorted(package.glob("*.py")):
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
            # Class bodies are not optimized; comprehensions and generator
            # expressions are part of the function that holds them.
            if code.co_flags & inspect.CO_OPTIMIZED and code.co_name not in (
                "<module>", "<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"
            ):
                found.add((path.stem, code.co_qualname, code.co_firstlineno))
    return found


def run_commands(cli, cli_digest):
    for name, (argv, _) in cli_digest.commands().items():
        if name == "exp1":
            continue
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                cli.main(argv)
            except SystemExit:  # argparse refusals exit 2
                pass


def run_workloads(workloads, work):
    """Failure reasons of every workload input and control."""
    reasons = []
    for name, make in workloads.WORKLOADS.items():
        workload = make()
        (work / name).mkdir(parents=True)
        inputs = workload.make_inputs(SEED, "tiny", work / name)
        for inp in inputs:
            outcome = workloads.attempt(workload, inp).outcome
            reasons += [f"{name} input {inp.index}: {r}" for r in outcome.reasons]
        reasons += [f"{name} controls: {r}" for r in workloads.run_controls(workload, inputs, SEED)]
    return reasons


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default="src")
    args = parser.parse_args(argv)
    package = Path(args.src).resolve() / "tenspec"
    sys.path[:0] = [str(package.parent), str(ROOT / "scripts"), str(ROOT / "perfbench")]

    from tenspec import cli

    if Path(cli.__file__).resolve().parent != package:
        parser.error(f"imported tenspec from {cli.__file__}, not {package}")
    import cli_digest
    import workloads

    reached = set()

    def record(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        cli_digest.write_inputs(root)
        sys.setprofile(record)
        try:
            os.chdir(root)
            run_commands(cli, cli_digest)
            reasons = run_workloads(workloads, root / "workloads")
        finally:
            sys.setprofile(None)
            os.chdir(cwd)

    called = {
        (Path(c.co_filename).stem, c.co_qualname, c.co_firstlineno)
        for c in reached
        if Path(c.co_filename).parent == package
    }
    for module, qualname, line in sorted(defined_functions(package) - called):
        print(json.dumps({"module": module, "function": qualname, "line": line}))
    for reason in reasons:
        print(f"reach: {reason}", file=sys.stderr)
    return 1 if reasons else 0


if __name__ == "__main__":
    sys.exit(main())
