"""Command-line front end.

Three subcommands: ``experiment`` reruns one of the paper's three seeded
runs in ``EXPERIMENTS``, ``decompose`` factors a TZ1 tensor file and writes
the factors plus a manifest, ``verify`` replays a manifest through the
oracle.  Outputs are CSV (spectra), JSON (reports, manifests) and TZ1
(tensors).  report.json is a ``RunReport`` without its wall time, and
``verify`` prints an ``OracleReport``: each JSON record is its class's
fields in order.  With one numpy and BLAS build and one BLAS kernel,
identical command lines produce byte-identical files (another kernel moves
the written values in their last digits), so wall time goes to stderr only.
tenspec's own sums run in one order at any BLAS thread count, but OpenBLAS
matrix products with a side above 256 may round differently at another
count (257 x 257 and 300 x 300 products did at 1 and 2 threads; 448, 512
and 768 did not).  So at 1 and 2 threads every command of
``scripts/cli_digest.py``, exp1's order-768 operator included, writes the
same bytes, and a transform of a 300 x 400 tensor does not.
"""

import argparse
import json
import math
import sys
import time
from collections import namedtuple
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import oracle
from .core import DenseTensor, _integer, random_tensor, relative_error
from .decompose import (
    GroupedTensor,
    OperatorDecomposition,
    TransformDecomposition,
    TripleDecomposition,
    component_count,
    decompose_sa_nnd,
    decompose_transform,
    decompose_triple,
    gram_operator,
    grouping,
    reconstruct,
)
from .errors import (
    GroupingMismatch,
    InvalidKeep,
    NotNND,
    NotSelfAdjoint,
    ParseError,
    ShapeMismatch,
    TenspecError,
    TooLarge,
)
from .oracle import verify_decomposition
from .tz1 import open_regular, read_header, read_payload, write_tensor

DEFAULT_SEED = 42
MANIFEST_VERSION = 2
# `decompose` refuses an input whose largest eigenproblem is above this
# order, instead of running for long without a word.  sym_eig took 7.3 s on
# a Gaussian Gram at n = 768, 17.6 s at 1024 and 63 s at 2048
# (BENCH_eig.json, one_kernel, 2-vCPU VM): a minute is the longest run that
# still reads as working rather than hung.
MAX_EIGEN_ORDER = 2048


# Each algorithm's number of mode groups and its manifest factor families
# (in ``terms()`` order).
Algorithm = namedtuple("Algorithm", "groups families")
ALGORITHMS = {
    "op": Algorithm(2, ("u",)),
    "transform": Algorithm(2, ("u", "v")),
    "triple": Algorithm(3, ("u", "z", "w")),
}


# The paper's three runs: name -> (source dims, mode groups, algorithm).
# The source is random_tensor(dims, seed).  An ``op`` run decomposes the
# right Gram of the grouped source, so its operator is self-adjoint and
# non-negative definite; the others decompose the source itself.
EXPERIMENTS = {
    "exp1": ((16, 16, 3, 16, 16, 3), (3, 3), "op"),
    "exp2": ((64, 8, 4), (1, 2), "transform"),
    "exp3": ((64, 16, 3), (1, 1, 1), "triple"),
}


@dataclass(frozen=True)
class RunReport:
    """Result summary of one experiment or decompose run.

    ``wall_time_ms`` is informational only and is never written into the
    report file (outputs must be byte-reproducible); it is logged to stderr.
    """

    name: str
    algorithm: str
    seed: Optional[int]
    dims: tuple
    groups: tuple
    rank: int
    spectrum: np.ndarray
    reconstruction_relative_error: float
    tolerance: float
    passed: bool
    wall_time_ms: int


def _decompose(a, algorithm):
    """Decompose ``a``; returns the result and the algorithm used.  ``auto``
    takes ``triple`` for three groups, else ``op``, else (not self-adjoint,
    or indefinite) ``transform``.  The decompose_* names are looked up at
    call time, so wrappers bound to them take effect."""
    if algorithm == "auto" and a.group_count == 3:
        algorithm = "triple"
    elif algorithm == "auto":
        try:
            return decompose_sa_nnd(a), "op"
        except (NotSelfAdjoint, NotNND):
            algorithm = "transform"
    if algorithm == "op":
        return decompose_sa_nnd(a), algorithm
    if algorithm == "transform":
        return decompose_transform(a), algorithm
    if algorithm == "triple":
        return decompose_triple(a), algorithm
    raise ValueError(f"unknown algorithm {algorithm!r}")


def _run(a, algorithm, out_dir, name="decompose", seed=None, keep=None):
    """Decompose ``a``, rebuild its leading ``keep`` components and write
    spectrum.csv and report.json; returns the result and the report."""
    started = time.perf_counter()
    dec, algorithm = _decompose(a, algorithm)
    rebuilt = reconstruct(dec, keep)
    wall_ms = int(round(1000.0 * (time.perf_counter() - started)))

    err = relative_error(a.tensor, rebuilt)
    tolerance = oracle.RECONSTRUCTION_TOL[a.group_count]
    report = RunReport(
        name=name,
        algorithm=algorithm,
        seed=seed,
        dims=a.tensor.dims,
        groups=a.group_orders,
        rank=component_count(dec),
        spectrum=np.asarray(dec.spectrum, dtype=np.float64),
        reconstruction_relative_error=err,
        tolerance=tolerance,
        passed=bool(err <= tolerance),
        wall_time_ms=wall_ms,
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_spectrum_csv(out_dir / "spectrum.csv", report.spectrum)
    _write_json(out_dir / "report.json", _as_json(report, omit="wall_time_ms"))
    return dec, report


def run_experiment(name, out_dir, seed=DEFAULT_SEED):
    """Run the experiment ``name`` of ``EXPERIMENTS`` with ``seed``; write
    input.tz1, spectrum.csv and report.json.  ValueError, before any work,
    for an unknown name or a seed that is not an integer."""
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}")
    seed = _integer(seed, ValueError, "seed")
    dims, groups, algorithm = EXPERIMENTS[name]
    a = GroupedTensor(random_tensor(dims, seed), groups)
    if algorithm == "op":
        a = gram_operator(a, side="right")
    out_dir = Path(out_dir)
    _, report = _run(a, algorithm, out_dir, name, seed)
    write_tensor(out_dir / "input.tz1", a.tensor)
    return report


def _refuse_large(path, shapes):
    """The most components a decomposition of a tensor of these group shapes
    has: the product of its eigenproblems' orders.  TooLarge when one of
    those orders is above ``MAX_EIGEN_ORDER``.

    Each Gram is taken on the smaller side of its unfolding; a triple's
    second stage is the (J x K*r1) coupling matrix, with r1 at most
    min(I, JK).
    """
    sizes = [math.prod(shape) for shape in shapes]
    if len(sizes) == 2:
        orders = [min(sizes)]
    else:
        i, j, k = sizes
        r1 = min(i, j * k)
        orders = [r1, min(j, k * r1)]
    order = max(orders)
    if order > MAX_EIGEN_ORDER:
        raise TooLarge(
            f"{path}: needs an eigenproblem of order {order}, above the "
            f"limit {MAX_EIGEN_ORDER}"
        )
    return math.prod(orders)


def run_decompose(path, groups, algorithm="auto", keep=None, out_dir="tenspec-out"):
    """Decompose a TZ1 file; write factor files, manifest.json, report.json.

    Each family gets one file per ``terms()`` row that the leading ``keep``
    components use, always its first rows (weights are non-increasing in p
    and in s, ties in (p, s) order); a triple's ``pairMap`` entry m names
    the U and Z files of component m.  Raises InvalidKeep for a negative
    ``keep`` before the tensor is read, and TooLarge from the file's header,
    before any payload byte is read, for more than ``tz1.MAX_ELEMENTS``
    values or an eigenproblem above ``MAX_EIGEN_ORDER`` (``_refuse_large``).
    """
    if keep is not None and _integer(keep, InvalidKeep, "keep") < 0:
        raise InvalidKeep(f"keep {keep} is negative")
    with open_regular(path) as fh:
        dims = read_header(fh, path)
        group_orders, shapes = grouping(dims, groups)
        _refuse_large(path, shapes)
        a = GroupedTensor(read_payload(fh, path, dims), group_orders)
    out_dir = Path(out_dir)
    dec, report = _run(a, algorithm, out_dir, keep=keep)
    algorithm = report.algorithm
    kept = report.rank if keep is None else keep

    weights, families = dec.terms()
    factor_names = {}
    for family, (rows, index, shape) in zip(ALGORITHMS[algorithm].families, families):
        used = rows[: index[:kept].max(initial=-1) + 1]
        factor_names[family] = [f"{family}-{i + 1:04d}.tz1" for i in range(len(used))]
        for name, row in zip(factor_names[family], used):
            write_tensor(out_dir / name, DenseTensor(row.reshape(shape), check_finite=False))
    manifest = {
        "version": MANIFEST_VERSION,
        "algorithm": algorithm,
        "shapes": [list(s) for s in a.group_shapes],
        "groups": list(a.group_orders),
        "weights": [float(w) for w in weights[:kept]],
        "factors": factor_names,
    }
    if algorithm == "triple":
        manifest["pairMap"] = [
            [int(p) + 1, int(s) + 1] for p, s in dec.pair_map[:kept]
        ]
    _write_json(out_dir / "manifest.json", manifest)
    return report


def run_verify(tensor_path, manifest_path):
    """Replay a version-2 manifest's factors against the tensor via the
    oracle, which judges them by its fixed standard.

    A family's files are its rows, and component m uses file index[m]: a
    triple's U and Z index is its ``pairMap`` column, every other index is
    m.  The components must use every file and no other.  ParseError for
    any other version and for a malformed manifest; TooLarge, before any
    factor file is opened, for shapes ``decompose`` would refuse, and
    ParseError for more weights than it writes for them (``_refuse_large``).
    The manifest is parsed and checked against the tensor's header before
    any payload is read, each factor file's shape is checked from its
    header before its payload is read, and the tensor's payload is read
    last.
    """
    manifest_path = Path(manifest_path)
    try:
        with open_regular(manifest_path) as fh:
            manifest = json.loads(fh.read().decode("utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError,
            RecursionError) as exc:  # RecursionError: too deeply nested
        raise ParseError(f"{manifest_path}: {exc}") from exc
    try:
        version = manifest["version"]
        if version != MANIFEST_VERSION:
            raise ParseError(
                f"{manifest_path}: manifest version {version!r} is not "
                f"{MANIFEST_VERSION}; re-run decompose to write one"
            )
        algorithm = manifest["algorithm"]
        declared = manifest["shapes"]
        groups = manifest["groups"]
        weights = manifest["weights"]
        factor_names = manifest["factors"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"{manifest_path}: bad manifest field: {exc}") from exc
    if not isinstance(weights, list) or any(  # type() is exact: a bool is no weight
        type(w) not in (int, float) or not abs(w) <= sys.float_info.max for w in weights
    ):
        raise ParseError(f"{manifest_path}: weights are not finite JSON numbers")
    weights = np.array(weights, dtype=np.float64)
    if not isinstance(algorithm, str) or algorithm not in ALGORITHMS:
        raise ParseError(f"{manifest_path}: unknown algorithm {algorithm!r}")
    if not (isinstance(groups, list) and all(type(g) is int for g in groups)):
        raise ParseError(f"{manifest_path}: groups {groups!r} are not integers")
    if not isinstance(factor_names, dict):
        raise ParseError(f"{manifest_path}: factors must map family to file names")

    with open_regular(tensor_path) as tensor_file:
        dims = read_header(tensor_file, tensor_path)
        group_orders, shapes = grouping(dims, groups)
        actual = [list(s) for s in shapes]
        if declared != actual:
            raise ParseError(
                f"{manifest_path}: declared shapes {declared} do not match "
                f"tensor groups {actual}"
            )
        group_count, families = ALGORITHMS[algorithm]
        one_shape = algorithm == "op"  # an operator maps its group onto itself
        if len(shapes) != group_count or (one_shape and shapes[0] != shapes[1]):
            raise ParseError(
                f"{manifest_path}: {algorithm} needs {group_count} groups"
                f"{' of one shape' if one_shape else ''}, got {list(shapes)}"
            )
        most = _refuse_large(manifest_path, shapes)
        count = len(weights)
        if count > most:
            raise ParseError(
                f"{manifest_path}: {count} weights, more than the {most} components "
                f"of a decomposition of shapes {actual}"
            )
        indexes = [np.arange(count)] * len(families)
        if algorithm == "triple":
            pair_map = _pair_map(manifest.get("pairMap", []), count, manifest_path)
            indexes[:2] = pair_map.T
        stacks = {}
        for family, shape, index in zip(families, shapes, indexes):
            names = factor_names.get(family)
            if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
                raise ParseError(f"{manifest_path}: no list of {family} factor files")
            if set(index.tolist()) != set(range(len(names))):
                raise ParseError(
                    f"{manifest_path}: the {count} components do not use every one "
                    f"of the {len(names)} {family} factor files and no other"
                )
            for name in names:
                if name in ("", ".", "..") or Path(name).name != name or "\0" in name:
                    raise ParseError(
                        f"{manifest_path}: factor file {name!r} is not a plain file "
                        f"name beside the manifest"
                    )
            stacks[family] = np.empty((len(names), math.prod(shape)))
            for row, name in zip(stacks[family], names):
                path = manifest_path.parent / name
                try:
                    with open_regular(path) as fh:
                        if read_header(fh, path) != shape:
                            raise ShapeMismatch(
                                f"{path}: a {family} factor is not of shape {shape}"
                            )
                        row[:] = read_payload(fh, path, shape).values
                except OSError as exc:
                    raise ParseError(f"{manifest_path}: unreadable factor file: {exc}") from exc
        a = GroupedTensor(read_payload(tensor_file, tensor_path, dims), group_orders)

    if algorithm == "op":
        result = OperatorDecomposition(weights, stacks["u"], shapes[0], spectrum=weights)
    elif algorithm == "transform":
        result = TransformDecomposition(
            weights, stacks["u"], stacks["v"], *shapes, spectrum=weights
        )
    else:
        result = TripleDecomposition(
            weights, pair_map, stacks["u"], stacks["z"], stacks["w"], shapes
        )
    return verify_decomposition(a, result)


def _pair_map(entries, count, manifest_path):
    """Zero-based pair map of a triple manifest's 1-based ``pairMap``: one
    distinct pair of integers in [1, count] per weight (the k-th largest
    weight sigma_p * gamma_s has p, s <= k)."""
    if not isinstance(entries, list) or len(entries) != count:
        raise ParseError(
            f"{manifest_path}: pairMap needs one entry per weight ({count})"
        )
    for entry in entries:
        if not (
            isinstance(entry, list)
            and len(entry) == 2
            and all(type(i) is int and 1 <= i <= count for i in entry)
        ):
            raise ParseError(
                f"{manifest_path}: pairMap entry {entry!r} is not a pair of "
                f"integers in [1, {count}]"
            )
    if len({tuple(entry) for entry in entries}) != count:
        raise ParseError(f"{manifest_path}: pairMap repeats a pair")
    return np.array(entries, dtype=np.intp).reshape(count, 2) - 1


def _write_spectrum_csv(path, spectrum):
    lines = ["index,weight"]
    for i, w in enumerate(spectrum, start=1):
        lines.append(f"{i},{float(w)!r}")
    _write_text(path, "\n".join(lines) + "\n")


def _as_json(record, omit=None):
    # A frozen record's fields but `omit`, in declaration order, as JSON
    # values: each array a list of floats.
    value = {}
    for field in fields(record):
        if field.name != omit:
            x = getattr(record, field.name)
            value[field.name] = [float(w) for w in x] if isinstance(x, np.ndarray) else x
    return value


def _write_json(path, value):
    _write_text(path, json.dumps(value, indent=2) + "\n")


def _write_text(path, text):
    # Through open_regular, like every file tenspec writes, so an existing
    # FIFO or device at `path` is refused (exit 2), not waited on.
    with open_regular(path, "wb") as fh:
        fh.write(text.encode("utf-8"))


def _cmd_experiment(args):
    report = run_experiment(args.name, args.out, args.seed)
    print(
        f"[tenspec] {report.name}: rank {report.rank}, reconstruction error "
        f"{report.reconstruction_relative_error:.3e} (tolerance {report.tolerance:.1e}), "
        f"wall time {report.wall_time_ms} ms",
        file=sys.stderr,
    )
    return 0 if report.passed else 1


def _parse_groups(text):
    try:
        groups = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise GroupingMismatch(f"bad --groups value {text!r}") from exc
    return groups


def _cmd_decompose(args):
    report = run_decompose(
        args.file,
        _parse_groups(args.groups),
        algorithm=args.algorithm,
        keep=args.keep,
        out_dir=args.out,
    )
    print(
        f"[tenspec] decompose: {report.algorithm}, rank {report.rank}, "
        f"reconstruction error {report.reconstruction_relative_error:.3e}, "
        f"wall time {report.wall_time_ms} ms",
        file=sys.stderr,
    )
    # A truncated reconstruction misses the tolerance on purpose.
    full = args.keep is None or args.keep == report.rank
    return 1 if full and not report.passed else 0


def _cmd_verify(args):
    report = run_verify(args.file, args.manifest)
    print(json.dumps(_as_json(report), indent=2))
    return 0 if report.passed else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tenspec",
        description="Exact decomposition of dense tensors: operators, "
        "transformations, and three-group tensors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiment", help="run a canned seeded experiment")
    p_exp.add_argument("name", choices=sorted(EXPERIMENTS))
    p_exp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_exp.add_argument("--out", default="tenspec-out", help="output directory")
    p_exp.set_defaults(func=_cmd_experiment)

    p_dec = sub.add_parser("decompose", help="decompose a TZ1 tensor file")
    p_dec.add_argument("file")
    p_dec.add_argument("--groups", required=True,
                       help="mode counts per group, e.g. 1,2 or 1,1,1")
    p_dec.add_argument("--algorithm", default="auto", choices=["auto", *ALGORITHMS])
    p_dec.add_argument("--keep", type=int, default=None,
                       help="write only the leading K components")
    p_dec.add_argument("--out", default="tenspec-out", help="output directory")
    p_dec.set_defaults(func=_cmd_decompose)

    p_ver = sub.add_parser("verify", help="replay a manifest against its tensor")
    p_ver.add_argument("file")
    p_ver.add_argument("manifest")
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TenspecError, OSError, ValueError) as exc:
        print(f"tenspec: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
