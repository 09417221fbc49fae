"""Digest the output files and exit codes of a fixed list of CLI commands.

    python3 scripts/cli_digest.py [--src DIR] [NAME ...]

Writes a few small seeded inputs into a fresh temporary directory, then runs
each command there as `python -m tenspec.cli ...` with `--src` first on
PYTHONPATH.  One JSON line goes to stdout per command: its name, its
arguments, its exit code, and the sha256 of its stdout and of every file it
wrote; a first line `inputs` digests the inputs.  Stderr, which carries wall
times, is not digested.  NAMEs select commands (with the commands whose
output they read); by default all run.  Two source trees give the same lines
exactly when every output byte and exit code is the same:

    python3 scripts/cli_digest.py --src PARENT/src > parent.jsonl
    python3 scripts/cli_digest.py --src src > change.jsonl
    diff parent.jsonl change.jsonl

BLAS threads are what the environment sets.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# name: (input file, --groups, --algorithm, extra arguments).  Each writes
# into a directory of its own name, and each that writes a manifest is
# verified by a `verify-<name>` command.
DECOMPOSE = {
    "op": ("op.tz1", "2,2", "op", ()),
    "transform": ("transform.tz1", "1,2", "transform", ()),
    "triple": ("triple.tz1", "1,1,1", "triple", ()),
    "auto-op": ("op.tz1", "2,2", "auto", ()),
    "auto-transform": ("transform.tz1", "1,2", "auto", ()),
    "auto-triple": ("triple.tz1", "1,1,1", "auto", ()),
    "auto-asym": ("asym.tz1", "1,1", "auto", ()),  # not self-adjoint: transform
    "op-asym": ("asym.tz1", "1,1", "op", ()),  # refused, exit 2
    "keep3": ("transform.tz1", "1,2", "auto", ("--keep", "3")),
    # Only the U and Z rows the five leading components use: a prefix.
    "keep-triple": ("triple.tz1", "1,1,1", "triple", ("--keep", "5")),
    "tiny": ("tiny.tz1", "1,1,1", "auto", ()),  # 1e-170: no terms, exit 1
}
REFUSED = {"op-asym"}


def commands():
    """Ordered name -> (argv after `tenspec`, names of commands it reads)."""
    table = {}
    for name in ("exp1", "exp2", "exp3"):
        table[name] = (["experiment", name, "--out", name], ())
    for name, (source, groups, algorithm, extra) in DECOMPOSE.items():
        table[name] = (["decompose", source, "--groups", groups, "--algorithm", algorithm,
                        *extra, "--out", name], ())
    for name, (source, *_) in DECOMPOSE.items():
        if name not in REFUSED:
            table[f"verify-{name}"] = (["verify", source, f"{name}/manifest.json"], (name,))
    return table


def write_inputs(root):
    from tenspec import DenseTensor, GroupedTensor, gram_operator, random_tensor, write_tensor

    source = GroupedTensor(random_tensor((6, 4, 6, 4), 1), (2, 2))
    write_tensor(root / "op.tz1", gram_operator(source, side="right").tensor)
    write_tensor(root / "transform.tz1", random_tensor((24, 6, 5), 2))
    write_tensor(root / "triple.tz1", random_tensor((12, 5, 4), 3))
    write_tensor(root / "tiny.tz1", DenseTensor(random_tensor((12, 5, 4), 3).data * 1e-170))
    write_tensor(root / "asym.tz1", random_tensor((3, 3), 64))


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def listing(root):
    return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}


def digests(root, names):
    return {name: sha256((root / name).read_bytes()) for name in sorted(names)}


def main(argv=None):
    table = commands()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default="src")
    parser.add_argument("names", nargs="*", metavar="NAME", help=", ".join(table))
    args = parser.parse_args(argv)
    unknown = sorted(set(args.names) - set(table))
    if unknown:
        parser.error(f"unknown command names: {', '.join(unknown)}")
    src = str(Path(args.src).resolve())
    sys.path.insert(0, src)
    selected = set(args.names or table)
    for name in list(selected):
        selected.update(table[name][1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_inputs(root)
        print(json.dumps({"name": "inputs", "files": digests(root, listing(root))}), flush=True)
        for name, (cli_args, _) in table.items():
            if name not in selected:
                continue
            before = listing(root)
            proc = subprocess.run(
                [sys.executable, "-m", "tenspec.cli", *cli_args],
                cwd=root, env=env, capture_output=True, timeout=600,
            )
            row = {
                "name": name,
                "argv": cli_args,
                "exit": proc.returncode,
                "stdout": sha256(proc.stdout),
                "files": digests(root, listing(root) - before),
            }
            print(json.dumps(row), flush=True)


if __name__ == "__main__":
    main()
