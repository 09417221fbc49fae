"""Inputs and timed pipelines of the benchmark's workloads.

Every workload is a closed loop: one caller runs the inputs of a set back
to back, each one only after the previous one returned.  Inputs come from
the workload seed alone; the library only ever sees the generated tensors.
"""

import io
import json
import shutil
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tenspec as ts
from tenspec import cli

import checks

# Operators are Grams of seeded order-6 tensors, built the way the canned
# exp1 experiment builds its 768 x 768 operator, at n = 48, 72 and 96: a
# set then takes about 3 s on the numpy-only Jacobi path, so a 30 s run
# holds enough sets for a steady median.
OPERATOR_GROUPS = {
    "full": ((8, 2, 3), (8, 3, 3), (8, 4, 3)),
    "tiny": ((2, 2, 2), (3, 2, 2)),
}
# I = (64), J = (32), K = (32): M = 64 * 32 = 2048 components per input.
TRIPLE_DIMS = {"full": ((64, 32, 32),), "tiny": ((6, 4, 3),)}
# Narrow left group I = (48), wide right group J = (16, 16); one input per
# set, since its 256 x 256 Gram eigenproblem alone takes about 5 s.
CLI_DIMS = {"full": ((48, 16, 16),), "tiny": ((6, 3, 4),)}
CLI_GROUPS = (1, 2)
PERTURBATION = 1e-3


@dataclass
class Input:
    index: int
    a: object = None  # GroupedTensor for the library workloads
    path: Path = None  # TZ1 input file for the CLI workload
    out: Path = None  # CLI output directory


@dataclass(frozen=True)
class Timed:
    decompose_s: float
    total_s: float
    outcome: checks.Outcome


def attempt(workload, inp):
    """Run one input; an exception counts as a failed input, not a crash."""
    started = time.perf_counter()
    try:
        return workload.run(inp)
    except Exception as exc:  # noqa: BLE001 - every failure is counted
        traceback.print_exc(file=sys.stderr)
        outcome = checks.Outcome()
        outcome.reasons.append(f"{type(exc).__name__}: {exc}")
        return Timed(0.0, time.perf_counter() - started, outcome)


def run_controls(workload, inputs, seed):
    """The workload's control checks, as a list of failure reasons."""
    try:
        return workload.controls(inputs, seed)
    except Exception as exc:  # noqa: BLE001 - a broken control is a failure
        traceback.print_exc(file=sys.stderr)
        return [f"controls raised {type(exc).__name__}: {exc}"]


def _seeds(seed, count):
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, size=count)]


def quiet_main(argv):
    """``tenspec`` CLI in-process, with its stdout/stderr chatter captured."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return cli.main([str(arg) for arg in argv])


class Library:
    """decompose -> full reconstruct -> residual_curve -> verify, in-process."""

    def __init__(self, kind, decompose_name):
        self.kind = kind
        self.decompose_name = decompose_name

    def run(self, inp):
        a = inp.a
        # Looked up per call so that traced runs see the wrapped function.
        decompose = getattr(ts, self.decompose_name)
        started = time.perf_counter()
        dec = decompose(a)
        decomposed = time.perf_counter()
        rebuilt = ts.reconstruct(dec)
        curve = ts.residual_curve(a, dec)
        report = ts.verify_decomposition(a, dec)
        finished = time.perf_counter()
        outcome = checks.check_library(self.kind, a, dec, rebuilt, curve, report)
        return Timed(decomposed - started, finished - started, outcome)

    def controls(self, inputs, seed):
        return []


class Operator(Library):
    def __init__(self):
        super().__init__("op", "decompose_sa_nnd")

    def make_inputs(self, seed, size, work):
        groups = OPERATOR_GROUPS[size]
        inputs = []
        for k, (g, s) in enumerate(zip(groups, _seeds(seed, len(groups)))):
            source = ts.GroupedTensor(ts.random_tensor(g + g, s), (len(g), len(g)))
            inputs.append(Input(k, a=ts.gram_operator(source, side="right")))
        return inputs


class Triple(Library):
    def __init__(self):
        super().__init__("triple", "decompose_triple")

    def make_inputs(self, seed, size, work):
        dims = TRIPLE_DIMS[size]
        return [
            Input(k, a=ts.GroupedTensor(ts.random_tensor(d, s), (1, 1, 1)))
            for k, (d, s) in enumerate(zip(dims, _seeds(seed, len(dims))))
        ]


class CliTransform:
    """``tenspec decompose`` then ``tenspec verify`` on TZ1 transform files."""

    OUTPUTS = ("manifest.json", "spectrum.csv", "report.json")

    def __init__(self):
        # Output bytes of every decompose, per input file, for determinism.
        self.outputs = {}

    def make_inputs(self, seed, size, work):
        dims = CLI_DIMS[size]
        inputs = []
        for k, (d, s) in enumerate(zip(dims, _seeds(seed, len(dims)))):
            path = work / f"input-{k}.tz1"
            ts.write_tensor(path, ts.random_tensor(d, s))
            inputs.append(Input(k, path=path, out=work / f"out-{k}"))
        return inputs

    def _decompose(self, path, out):
        return quiet_main(
            ["decompose", path, "--groups", ",".join(map(str, CLI_GROUPS)),
             "--algorithm", "transform", "--out", out]
        )

    def run(self, inp):
        shutil.rmtree(inp.out, ignore_errors=True)
        started = time.perf_counter()
        code_dec = self._decompose(inp.path, inp.out)
        decomposed = time.perf_counter()
        code_ver = quiet_main(["verify", inp.path, inp.out / "manifest.json"])
        finished = time.perf_counter()
        t = checks.read_tz1(inp.path)
        outcome = checks.check_cli_transform(
            t, CLI_GROUPS[0], inp.out, (code_dec, code_ver)
        )
        self.outputs.setdefault(inp.path, []).append(
            [(inp.out / name).read_bytes() for name in self.OUTPUTS]
        )
        return Timed(decomposed - started, finished - started, outcome)

    def controls(self, inputs, seed):
        """Negative control and determinism on the first input.

        A manifest copy with one weight perturbed by 1e-3 relative must make
        ``verify`` exit 1, and every decompose of the input must write
        byte-identical manifest.json, spectrum.csv and report.json (it is
        decomposed once more if the timed loop did so only once).
        """
        reasons = []
        first = inputs[0]
        manifest = json.loads((first.out / "manifest.json").read_text(encoding="utf-8"))
        k = int(np.random.default_rng(seed).integers(len(manifest["weights"])))
        manifest["weights"][k] *= 1.0 + PERTURBATION
        perturbed = first.out / "manifest-perturbed.json"
        perturbed.write_text(json.dumps(manifest), encoding="utf-8")
        code = quiet_main(["verify", first.path, perturbed])
        if code != 1:
            reasons.append(f"perturbed weight {k}: verify exited {code}, expected 1")
        if len(self.outputs[first.path]) < 2:
            self.run(first)
        for name, *versions in zip(self.OUTPUTS, *self.outputs[first.path]):
            if any(v != versions[0] for v in versions):
                reasons.append(f"{name} differs between decompose runs")
        return reasons


WORKLOADS = {"operator": Operator, "triple": Triple, "cli-transform": CliTransform}
