"""Command line: experiments, decompose/verify round trips, determinism."""

import dataclasses
import inspect
import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tenspec
from tenspec import (
    DenseTensor,
    GroupedTensor,
    contract,
    decompose_transform,
    gram_operator,
    random_tensor,
    read_tensor,
    reconstruct,
    unfold,
    write_tensor,
)
from tenspec.cli import (
    EXPERIMENTS,
    MANIFEST_VERSION,
    main,
    run_decompose,
    run_experiment,
    run_verify,
)
from tenspec.errors import InvalidAxis, InvalidKeep, InvalidSplit
from tenspec.tz1 import read_header

from helpers import sparse_tz1, unit

SRC = str(Path(tenspec.__file__).resolve().parents[1])


def read_json(path):
    return json.loads(path.read_text())


# ------------------------------------------------------------- experiment


def test_experiment_exp2_via_main(tmp_path):
    out = tmp_path / "run"
    code = main(["experiment", "exp2", "--seed", "7", "--out", str(out)])
    assert code == 0
    report = read_json(out / "report.json")
    # A RunReport's fields in declaration order, but its wall time.
    assert list(report) == [
        "name", "algorithm", "seed", "dims", "groups", "rank", "spectrum",
        "reconstruction_relative_error", "tolerance", "passed",
    ]
    assert report["name"] == "exp2"
    assert report["seed"] == 7
    assert report["rank"] == 32
    assert report["passed"] is True
    assert report["reconstruction_relative_error"] < 1e-8

    lines = (out / "spectrum.csv").read_text().strip().splitlines()
    assert lines[0] == "index,weight"
    weights = [float(line.split(",")[1]) for line in lines[1:]]
    assert weights == sorted(weights, reverse=True)
    assert int(lines[1].split(",")[0]) == 1

    saved = read_tensor(out / "input.tz1")
    assert saved.dims == (64, 8, 4)
    assert np.array_equal(saved.data, random_tensor((64, 8, 4), 7).data)


def test_experiment_exp3_via_main(tmp_path):
    out = tmp_path / "run3"
    code = main(["experiment", "exp3", "--out", str(out)])
    assert code == 0
    report = read_json(out / "report.json")
    assert report["rank"] == len(report["spectrum"])
    assert report["reconstruction_relative_error"] < 1e-10
    assert report["tolerance"] == 1e-10


def test_experiment_determinism_bytes(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["experiment", "exp2", "--seed", "7", "--out", str(out1)]) == 0
    assert main(["experiment", "exp2", "--seed", "7", "--out", str(out2)]) == 0
    for name in ("spectrum.csv", "report.json", "input.tz1"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def cli_child(argv, threads=1, timeout=60):
    # `tenspec` argv in a child process with `threads` BLAS threads, under a
    # timeout, so a hang fails the test instead of stalling the suite.
    code = f"import sys; sys.path.insert(0, {SRC!r}); from tenspec import cli; sys.exit(cli.main())"
    return subprocess.run(
        [sys.executable, "-c", code, *map(str, argv)],
        capture_output=True, text=True, timeout=timeout,
        env={**os.environ, "OPENBLAS_NUM_THREADS": str(threads)},
    )


def test_decompose_bytes_do_not_depend_on_blas_threads(tmp_path):
    # BLAS ddot (np.dot, np.vdot) splits a sum of more than 10,000 values
    # across threads, so the relative error of this transform, whose norms
    # sum 16,384 squares, moved in its last digits between 1 and 2 threads.
    # Every output file must have the same bytes at either count.
    src = tmp_path / "in.tz1"
    write_tensor(src, random_tensor((64, 256), 7))
    outputs = []
    for threads in (1, 2):
        out = tmp_path / f"threads-{threads}"
        argv = ["decompose", src, "--groups", "1,1", "--algorithm", "transform", "--out", out]
        done = cli_child(argv, threads)
        assert done.returncode == 0, done.stderr
        outputs.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert outputs[0].keys() == outputs[1].keys()
    assert [name for name in outputs[0] if outputs[0][name] != outputs[1][name]] == []


def test_decompose_zero_tensor(tmp_path):
    # The degenerate zero-tensor path: no components, and 0/0 counts as an
    # exact reconstruction.
    path, out = tmp_path / "zero.tz1", tmp_path / "zero"
    write_tensor(path, DenseTensor(np.zeros((2, 2, 2))))
    assert main(["decompose", str(path), "--groups", "1,2", "--algorithm", "transform",
                 "--out", str(out)]) == 0
    report = read_json(out / "report.json")
    assert report["rank"] == 0
    assert report["reconstruction_relative_error"] == 0.0
    assert report["passed"] is True


def test_experiment_tolerance_failure_exit_code(tmp_path, monkeypatch):
    # Weight 0 off by 1e-3 relative misses the fixed standard.
    from tenspec import cli

    original = cli.decompose_transform

    def perturbed(a):
        dec = original(a)
        singulars = dec.singulars.copy()
        singulars[0] *= 1.0 + 1e-3
        return dataclasses.replace(dec, singulars=singulars)

    monkeypatch.setattr(cli, "decompose_transform", perturbed)
    out = tmp_path / "t"
    assert main(["experiment", "exp2", "--seed", "7", "--out", str(out)]) == 1
    report = read_json(out / "report.json")
    assert report["passed"] is False
    assert report["reconstruction_relative_error"] > report["tolerance"] == 1e-8


def test_experiment_rejects_unknown_name(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "exp9", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_experiment_spec_registry(tmp_path):
    assert EXPERIMENTS["exp1"] == ((16, 16, 3, 16, 16, 3), (3, 3), "op")
    with pytest.raises(ValueError, match="unknown experiment"):
        run_experiment("nope", tmp_path / "nope")
    assert not (tmp_path / "nope").exists()


def test_no_tolerance_knob_on_the_report_and_verify_path(tmp_path):
    # The pass/fail standard is the oracle's constants: no public callable
    # and no command entry point takes a tolerance, and `--tol` is gone.
    import tenspec
    from tenspec import cli

    callables = [getattr(tenspec, name) for name in tenspec.__all__]
    callables += [cli.run_experiment, cli.run_decompose, cli.run_verify]
    for func in callables:
        for param in inspect.signature(func).parameters:
            assert param != "tolerance" and not param.endswith("_tol"), (func, param)
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "exp2", "--tol", "1e-3", "--out", str(tmp_path / "t")])
    assert exc.value.code == 2


def _decompose_file(keep, tmp_path):
    src = tmp_path / "in.tz1"
    write_tensor(src, random_tensor((4, 3, 2), 1))
    run_decompose(src, (1, 2), keep=keep, out_dir=tmp_path / "out")
    assert len(read_json(tmp_path / "out" / "manifest.json")["weights"]) == keep


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda v, _: reconstruct(
            decompose_transform(GroupedTensor(random_tensor((4, 3, 2), 1), (1, 2))), v
        ), InvalidKeep),
        (lambda v, _: random_tensor((2, 3), v), ValueError),
        (lambda v, _: contract(random_tensor((3, 3), 1), random_tensor((3,), 2), (v,), (0,)),
         InvalidAxis),
        (lambda v, _: unfold(random_tensor((2, 3, 4), 1), v), InvalidSplit),
        (lambda v, tmp: run_experiment("exp2", tmp / "exp2", seed=v), ValueError),
        (_decompose_file, InvalidKeep),
    ],
    ids=["reconstruct", "random_tensor", "contract", "unfold", "run_experiment",
         "run_decompose"],
)
@pytest.mark.parametrize("value", [0.9, 1.5, 2.7, True, "1"])
def test_integer_arguments_are_not_truncated(tmp_path, call, error, value):
    # A count, seed, axis or split that is not an integer (a bool is none)
    # is refused, where int() truncated it; numpy integers are integers.
    with pytest.raises(error, match="is not an integer"):
        call(value, tmp_path)
    call(np.int64(1), tmp_path)


# -------------------------------------------------------------- decompose


def test_decompose_rank_one_round_trip(tmp_path):
    u = unit((2, 2), 60)
    v = unit((3,), 61)
    t = DenseTensor(2.5 * np.multiply.outer(u.data, v.data))
    src = tmp_path / "rank1.tz1"
    write_tensor(src, t)
    out = tmp_path / "fac"
    code = main(["decompose", str(src), "--groups", "2,1", "--out", str(out)])
    assert code == 0
    manifest = read_json(out / "manifest.json")
    assert manifest["algorithm"] == "transform"
    assert len(manifest["weights"]) == 1
    assert manifest["weights"][0] == pytest.approx(2.5, abs=1e-10)
    loaded_u = read_tensor(out / manifest["factors"]["u"][0])
    assert abs(float(np.dot(loaded_u.values, u.values))) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize(
    "name, groups", [("exp2", "1,2"), ("exp3", "1,1,1")], ids=["exp2", "exp3"]
)
def test_decompose_matches_experiment_report(tmp_path, name, groups):
    exp_out = tmp_path / "exp"
    assert main(["experiment", name, "--seed", "11", "--out", str(exp_out)]) == 0
    dec_out = tmp_path / "dec"
    code = main(
        ["decompose", str(exp_out / "input.tz1"), "--groups", groups, "--out", str(dec_out)]
    )
    assert code == 0
    exp_report = read_json(exp_out / "report.json")
    dec_report = read_json(dec_out / "report.json")
    for field in ("algorithm", "spectrum", "rank", "tolerance", "passed"):
        assert dec_report[field] == exp_report[field], field
    assert dec_report["reconstruction_relative_error"] == pytest.approx(
        exp_report["reconstruction_relative_error"], abs=1e-15
    )


@pytest.mark.parametrize(
    "algorithm, function, dims, groups",
    [
        ("op", "decompose_sa_nnd", (3, 2, 3, 2), (2, 2)),
        ("transform", "decompose_transform", (4, 3, 2), (1, 2)),
        ("triple", "decompose_triple", (3, 2, 2), (1, 1, 1)),
    ],
)
def test_decompose_functions_looked_up_at_call_time(
    tmp_path, monkeypatch, algorithm, function, dims, groups
):
    # Wrappers bound to the cli module's decompose_* names (as a tracer or a
    # fault injector binds them) must see every run: experiment, decompose by
    # name and decompose with `auto`.
    from tenspec import cli

    original = getattr(cli, function)
    calls = []

    def recording(a):
        calls.append(a.tensor.dims)
        return original(a)

    monkeypatch.setattr(cli, function, recording)
    monkeypatch.setitem(cli.EXPERIMENTS, "probe", (dims, groups, algorithm))
    report = run_experiment("probe", tmp_path / "exp")
    assert report.algorithm == algorithm and report.passed
    for choice in (algorithm, "auto"):
        args = ["decompose", str(tmp_path / "exp" / "input.tz1"), "--groups",
                ",".join(map(str, report.groups)), "--algorithm", choice,
                "--out", str(tmp_path / choice)]
        assert main(args) == 0, choice
    assert calls == [report.dims] * 3


def test_decompose_auto_picks_operator(tmp_path):
    src = GroupedTensor(random_tensor((3, 3), 62), (1, 1))
    g = (src.tensor.data.T @ src.tensor.data)
    path = tmp_path / "op.tz1"
    write_tensor(path, DenseTensor(g))
    out = tmp_path / "opout"
    assert main(["decompose", str(path), "--groups", "1,1", "--out", str(out)]) == 0
    assert read_json(out / "manifest.json")["algorithm"] == "op"


def test_decompose_auto_falls_back_on_indefinite_operator(tmp_path):
    path = tmp_path / "indef.tz1"
    write_tensor(path, DenseTensor(np.diag([3.0, -1.0, 2.0])))
    out = tmp_path / "indefout"
    assert main(["decompose", str(path), "--groups", "1,1", "--out", str(out)]) == 0
    manifest = read_json(out / "manifest.json")
    assert manifest["algorithm"] == "transform"
    assert manifest["weights"] == pytest.approx([3.0, 2.0, 1.0], rel=1e-14)
    assert read_json(out / "report.json")["passed"] is True
    assert main(["verify", str(path), str(out / "manifest.json")]) == 0
    # Asked for by name, the operator decomposition still refuses it.
    code = main(["decompose", str(path), "--groups", "1,1", "--algorithm", "op",
                 "--out", str(tmp_path / "x")])
    assert code == 2


def test_decompose_triple_manifest_has_pair_map(tmp_path):
    from tenspec import GroupedTensor as GT, decompose_triple

    t = random_tensor((3, 2, 2), 63)
    path = tmp_path / "t3.tz1"
    write_tensor(path, t)
    out = tmp_path / "t3out"
    assert main(["decompose", str(path), "--groups", "1,1,1", "--out", str(out)]) == 0
    manifest = read_json(out / "manifest.json")
    assert manifest["algorithm"] == "triple"
    assert manifest["shapes"] == [[3], [2], [2]]
    dec = decompose_triple(GT(t, (1, 1, 1)))
    # pairMap is the record's pair map, 1-based: entry m names the U and Z
    # files of component m.
    assert manifest["pairMap"] == (dec.pair_map + 1).tolist()
    # One file per row, r1 U, r2 Z and M W files, each round-tripping the
    # record's row bit-exactly.
    assert len(dec.u) * len(dec.z) == dec.count
    for family, rows in (("u", dec.u), ("z", dec.z), ("w", dec.w)):
        names = manifest["factors"][family]
        assert len(names) == len(rows)
        for name, row in zip(names, rows):
            assert read_tensor(out / name).values.tobytes() == row.tobytes()


def test_decompose_triple_keep_writes_only_the_rows_it_uses(tmp_path):
    # The leading components use a prefix of the U and of the Z rows, and
    # exactly those rows are written.
    from tenspec import GroupedTensor as GT, decompose_triple

    t = random_tensor((6, 4, 3), 70)
    path = tmp_path / "t3.tz1"
    write_tensor(path, t)
    out = tmp_path / "keep5"
    args = ["decompose", str(path), "--groups", "1,1,1", "--keep", "5", "--out", str(out)]
    assert main(args) == 0
    dec = decompose_triple(GT(t, (1, 1, 1)))
    p, s = dec.pair_map[:5].T
    counts = {"u": p.max() + 1, "z": s.max() + 1, "w": 5}
    assert counts["u"] < len(dec.u) and counts["z"] < len(dec.z)
    manifest = read_json(out / "manifest.json")
    assert manifest["pairMap"] == (dec.pair_map[:5] + 1).tolist()
    rows = {"u": dec.u, "z": dec.z, "w": dec.w}
    expected = {"manifest.json", "spectrum.csv", "report.json"}
    for family, count in counts.items():
        names = [f"{family}-{i + 1:04d}.tz1" for i in range(count)]
        assert manifest["factors"][family] == names
        expected.update(names)
        for name, row in zip(names, rows[family]):
            assert read_tensor(out / name).values.tobytes() == row.tobytes()
    assert {f.name for f in out.iterdir()} == expected
    # A truncated triple lacks pairs: it is replayed and fails, not refused.
    assert main(["verify", str(path), str(out / "manifest.json")]) == 1


def test_decompose_op_on_non_self_adjoint_exits_2(tmp_path):
    path = tmp_path / "asym.tz1"
    write_tensor(path, random_tensor((3, 3), 64))
    code = main(
        ["decompose", str(path), "--groups", "1,1", "--algorithm", "op",
         "--out", str(tmp_path / "x")]
    )
    assert code == 2
    # `auto` falls back to the transform on the same square input.
    out = tmp_path / "auto"
    assert main(["decompose", str(path), "--groups", "1,1", "--out", str(out)]) == 0
    assert read_json(out / "manifest.json")["algorithm"] == "transform"


def test_decompose_keep_truncates(tmp_path):
    path = tmp_path / "full.tz1"
    write_tensor(path, random_tensor((4, 3), 65))
    out = tmp_path / "kept"
    assert main(
        ["decompose", str(path), "--groups", "1,1", "--keep", "2", "--out", str(out)]
    ) == 0
    manifest = read_json(out / "manifest.json")
    assert len(manifest["weights"]) == 2
    assert len(manifest["factors"]["u"]) == 2
    report = read_json(out / "report.json")
    assert report["reconstruction_relative_error"] > 1e-8  # truncated on purpose


def test_decompose_failed_reconstruction_exits_1(tmp_path, monkeypatch):
    import dataclasses

    from tenspec import cli, decompose_transform

    def scaled_weight(a):
        dec = decompose_transform(a)
        singulars = dec.singulars.copy()
        singulars[0] *= 1.01
        return dataclasses.replace(dec, singulars=singulars)

    monkeypatch.setattr(cli, "decompose_transform", scaled_weight)
    path = tmp_path / "f.tz1"
    write_tensor(path, random_tensor((4, 3), 70))
    for keep, code in ((None, 1), (3, 1), (2, 0)):
        out = tmp_path / f"keep-{keep}"
        args = ["decompose", str(path), "--groups", "1,1", "--algorithm", "transform",
                "--out", str(out)]
        if keep is not None:
            args += ["--keep", str(keep)]
        assert main(args) == code, keep
        assert read_json(out / "report.json")["passed"] is False


def test_decompose_keep_out_of_range_exit_2(tmp_path):
    path = tmp_path / "k.tz1"
    write_tensor(path, random_tensor((4, 3), 69))
    code = main(
        ["decompose", str(path), "--groups", "1,1", "--keep", "99", "--out", str(tmp_path / "o")]
    )
    assert code == 2


def test_decompose_negative_keep_refused_before_any_work(tmp_path, monkeypatch, capsys):
    # A negative count needs no rank to refuse: the tensor is not read and
    # nothing is decomposed.
    from tenspec import cli

    calls = []
    for name in ("read_header", "read_payload", "decompose_sa_nnd", "decompose_transform",
                 "decompose_triple"):
        monkeypatch.setattr(cli, name, lambda *args, name=name: calls.append(name))
    path = tmp_path / "k.tz1"
    write_tensor(path, random_tensor((4, 4), 69))
    out = tmp_path / "o"
    assert main(["decompose", str(path), "--groups", "1,1", "--keep", "-1",
                 "--out", str(out)]) == 2
    assert "keep -1 is negative" in capsys.readouterr().err
    assert calls == [] and not out.exists()


def test_decompose_bad_groups_exit_2(tmp_path):
    path = tmp_path / "g.tz1"
    write_tensor(path, random_tensor((4, 3), 66))
    assert main(["decompose", str(path), "--groups", "1,1,1", "--out", str(tmp_path / "o")]) == 2
    assert main(["decompose", str(path), "--groups", "banana", "--out", str(tmp_path / "o")]) == 2
    assert main(["decompose", str(tmp_path / "missing.tz1"), "--groups", "1,1",
                 "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "dims, groups, order",
    [
        ((5, 5), "1,1", 5),  # op: I
        ((6, 4), "1,1", 4),  # transform: min(I, J)
        ((7, 2, 3), "1,1,1", 6),  # triple, stage one: min(I, JK)
        ((2, 6, 5), "1,1,1", 6),  # triple, stage two: min(J, K min(I, JK))
    ],
)
def test_decompose_refuses_large_eigenproblem(tmp_path, monkeypatch, capsys, dims, groups, order):
    from tenspec import cli, jacobi

    t = random_tensor(dims, 72)
    if dims == (5, 5):
        t = DenseTensor(t.data.T @ t.data)  # self-adjoint, so `auto` picks op
    path = tmp_path / "in.tz1"
    write_tensor(path, t)
    solve = jacobi.sym_eig
    solved = []

    def recording(m, **kwargs):
        solved.append(len(m))
        return solve(m, **kwargs)

    monkeypatch.setattr(jacobi, "sym_eig", recording)
    args = ["decompose", str(path), "--groups", groups, "--out", str(tmp_path / "o")]
    monkeypatch.setattr(cli, "MAX_EIGEN_ORDER", order - 1)
    assert main(args) == 2
    assert solved == []
    err = capsys.readouterr().err
    assert f"order {order}," in err and f"limit {order - 1}" in err
    # At the limit it runs, and its largest eigenproblem is that order.
    monkeypatch.setattr(cli, "MAX_EIGEN_ORDER", order)
    assert main(args) == 0
    assert max(solved) == order


@pytest.mark.parametrize(
    "dims, message",
    [((2, 2**25), "67108864 elements, above the limit 33554432"),
     ((3000, 3000), "order 3000, above the limit 2048")],
)
def test_decompose_refuses_oversized_input_from_its_header(tmp_path, monkeypatch, capsys,
                                                           dims, message):
    # More values than tz1.MAX_ELEMENTS, or fewer but an eigenproblem above
    # MAX_EIGEN_ORDER: either is refused from the header, and no payload is
    # read.
    from tenspec import cli

    monkeypatch.setattr(cli, "read_payload", lambda *args: pytest.fail("payload read"))
    path = tmp_path / "big.tz1"
    sparse_tz1(path, dims)
    assert main(["decompose", str(path), "--groups", "1,1", "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("algorithm, message", [
    ("op", "max asymmetry 2.000e+00 * max entry exceeds 1.0e-10 * max entry"),
    ("auto", "Gram of the unfolding is not representable"),
])
def test_decompose_refuses_overflowing_asymmetry_without_a_warning(tmp_path, capsys,
                                                                    algorithm, message):
    # a - a^T overflows for this finite operator.  Its asymmetry is measured
    # on the scaled copy the sweeps run on, so numpy warns of no overflow,
    # op names a finite multiple of the max entry, and auto's transform
    # refuses the Gram that does overflow.
    path = tmp_path / "big.tz1"
    write_tensor(path, DenseTensor([[1.0, 1e308], [-1e308, 1.0]]))
    argv = ["decompose", str(path), "--groups", "1,1", "--algorithm", algorithm]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("algorithm", ["op", "auto"])
def test_decompose_refuses_an_eigenvalue_past_float64(tmp_path, capsys, algorithm):
    # Every entry of the 1e308 operator is finite, its lambda_1 = 2e308 is
    # not: refused where sym_eig scales it back, with no overflow warning
    # from numpy.  The 8e307 one, lambda_1 = 1.6e308, decomposes and verifies.
    big, near = tmp_path / "big.tz1", tmp_path / "near.tz1"
    write_tensor(big, DenseTensor(np.full((2, 2), 1e308)))
    write_tensor(near, DenseTensor(np.full((2, 2), 8e307)))
    argv = ["--groups", "1,1", "--algorithm", algorithm]
    assert main(["decompose", str(big), *argv, "--out", str(tmp_path / "o")]) == 2
    assert "largest eigenvalue is not representable in float64" in capsys.readouterr().err
    out = tmp_path / "near"
    assert main(["decompose", str(near), *argv, "--out", str(out)]) == 0
    assert read_json(out / "report.json")["rank"] == 1
    assert main(["verify", str(near), str(out / "manifest.json")]) == 0


def test_verify_refuses_oversized_shapes_before_reading_factors(tmp_path, monkeypatch, capsys):
    # The manifest's shapes get decompose's eigenproblem limit before any
    # factor file is opened: only the tensor's header is read.
    from tenspec import cli

    src, manifest = make_verified_run(tmp_path)
    read = []
    monkeypatch.setattr(cli, "read_header",
                        lambda fh, path: read.append(path) or read_header(fh, path))
    monkeypatch.setattr(cli, "MAX_EIGEN_ORDER", 3)
    assert main(["verify", str(src), str(manifest)]) == 2
    assert "order 4, above the limit 3" in capsys.readouterr().err
    assert read == [str(src)]


# ----------------------------------------------------------------- verify


def make_verified_run(tmp_path, seed=67):
    src = tmp_path / "in.tz1"
    write_tensor(src, random_tensor((4, 3, 2), seed))
    out = tmp_path / "fac"
    assert main(["decompose", str(src), "--groups", "1,2", "--out", str(out)]) == 0
    return src, out / "manifest.json"


def test_verify_round_trip_passes(tmp_path):
    src, manifest = make_verified_run(tmp_path)
    assert main(["verify", str(src), str(manifest)]) == 0
    report = run_verify(src, manifest)
    assert report.passed
    assert report.max_singular_deviation <= 1e-8


def test_verify_triple_round_trip(tmp_path):
    src = tmp_path / "in3.tz1"
    write_tensor(src, random_tensor((3, 3, 2), 68))
    out = tmp_path / "fac3"
    assert main(["decompose", str(src), "--groups", "1,1,1", "--out", str(out)]) == 0
    assert main(["verify", str(src), str(out / "manifest.json")]) == 0


def test_verify_corrupted_weight_fails(tmp_path):
    src, manifest = make_verified_run(tmp_path)
    data = json.loads(manifest.read_text())
    data["weights"][0] *= 1.1
    bad = manifest.parent / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["verify", str(src), str(bad)]) == 1


def test_verify_rescaled_factors_fail(tmp_path):
    # Rescaled factor pairs leave weights and reconstruction intact, but
    # the factors are no longer orthonormal.
    src, manifest = make_verified_run(tmp_path)
    src3 = tmp_path / "in3.tz1"
    write_tensor(src3, random_tensor((3, 3, 2), 68))
    out3 = tmp_path / "fac3"
    assert main(["decompose", str(src3), "--groups", "1,1,1", "--out", str(out3)]) == 0
    cases = [
        (src, manifest, {"u": 2.0, "v": 0.5}),
        (src3, out3 / "manifest.json", {"z": 3.0, "w": 1.0 / 3.0}),
    ]
    for tensor_path, path, scales in cases:
        factors = json.loads(path.read_text())["factors"]
        for family, scale in scales.items():
            for name in factors[family]:
                f = path.parent / name
                write_tensor(f, DenseTensor(read_tensor(f).data * scale))
        assert main(["verify", str(tensor_path), str(path)]) == 1, scales
        report = run_verify(tensor_path, path)
        assert report.max_reconstruction_error <= 1e-10
        assert report.max_orthonormality_error > 1.0


def test_verify_orphan_weights_exit_2(tmp_path):
    src, manifest = make_verified_run(tmp_path)
    data = json.loads(manifest.read_text())
    data["weights"] += [0.0, 0.0]
    orphan = manifest.parent / "orphan.json"
    orphan.write_text(json.dumps(data))
    assert main(["verify", str(src), str(orphan)]) == 2

    src3 = tmp_path / "in3.tz1"
    write_tensor(src3, random_tensor((3, 3, 2), 68))
    out3 = tmp_path / "fac3"
    assert main(["decompose", str(src3), "--groups", "1,1,1", "--out", str(out3)]) == 0
    data = json.loads((out3 / "manifest.json").read_text())
    data["pairMap"] = data["pairMap"][:-1]
    short = out3 / "short.json"
    short.write_text(json.dumps(data))
    assert main(["verify", str(src3), str(short)]) == 2


def test_verify_bad_pair_map_exits_2(tmp_path):
    src = tmp_path / "in3.tz1"
    write_tensor(src, random_tensor((3, 3, 2), 68))
    out = tmp_path / "fac3"
    assert main(["decompose", str(src), "--groups", "1,1,1", "--out", str(out)]) == 0
    good = json.loads((out / "manifest.json").read_text())
    pairs = good["pairMap"]
    count = len(pairs)
    assert count > 2
    bad_maps = {
        "out_of_range": [[99, 99]] + pairs[1:],
        "bare_integers": [1] * count,
        "repeated": [pairs[0]] + pairs[:-1],
    }
    for name, bad in bad_maps.items():
        path = out / f"{name}.json"
        path.write_text(json.dumps({**good, "pairMap": bad}))
        assert main(["verify", str(src), str(path)]) == 2, name
    # A U file that no pairMap entry names is refused.
    factors = {**good["factors"], "u": good["factors"]["u"] + good["factors"]["u"][:1]}
    path = out / "unused.json"
    path.write_text(json.dumps({**good, "factors": factors}))
    assert main(["verify", str(src), str(path)]) == 2
    # Reordered: every pair in range and distinct and every file used, a
    # well-formed claim that the replay shows to be wrong.
    path = out / "reversed.json"
    path.write_text(json.dumps({**good, "pairMap": pairs[::-1]}))
    assert main(["verify", str(src), str(path)]) == 1


def test_verify_refuses_other_manifest_versions(tmp_path, capsys):
    src, manifest = make_verified_run(tmp_path)
    good = read_json(manifest)
    for version in (1, 3, "2", None):
        old = manifest.parent / "old.json"
        old.write_text(json.dumps({**good, "version": version}))
        capsys.readouterr()
        assert main(["verify", str(src), str(old)]) == 2, version
        err = capsys.readouterr().err
        assert f"manifest version {version!r} is not 2" in err
        assert "re-run decompose" in err


@pytest.mark.parametrize(
    "algorithm, dims, groups, families, message",
    [
        # Ended in a KeyError: 'w' traceback.
        ("triple", (3, 4), [1, 1], "uz", "triple needs 3 groups, got [(3,), (4,)]"),
        # Replayed by broadcasting (3, 3) against (3, 1), then exit 1.
        ("op", (3, 1), [1, 1], "u", "op needs 2 groups of one shape, got [(3,), (1,)]"),
        # Refused only inside the oracle, by a message naming neither.
        ("op", (3, 1, 1), [1, 1, 1], "u", "op needs 2 groups of one shape, got [(3,),"),
    ],
    ids=["triple-two-groups", "op-unequal-shapes", "op-three-groups"],
)
def test_verify_groups_must_fit_algorithm(
    tmp_path, capsys, algorithm, dims, groups, families, message
):
    src = tmp_path / "in.tz1"
    write_tensor(src, random_tensor(dims, 73))
    factors = {}
    for family, size in zip(families, dims):
        write_tensor(tmp_path / f"{family}.tz1", DenseTensor(np.eye(size)[0]))
        factors[family] = [f"{family}.tz1"]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "version": MANIFEST_VERSION, "algorithm": algorithm,
        "shapes": [[d] for d in dims], "groups": groups, "weights": [1.0],
        "factors": factors, "pairMap": [[1, 1]],
    }))
    assert main(["verify", str(src), str(manifest)]) == 2
    assert message in capsys.readouterr().err


def test_verify_truncated_factor_exits_2(tmp_path):
    src, manifest = make_verified_run(tmp_path)
    factor = manifest.parent / json.loads(manifest.read_text())["factors"]["u"][0]
    factor.write_bytes(factor.read_bytes()[:-8])
    assert main(["verify", str(src), str(manifest)]) == 2


def test_verify_misshapen_factor_exits_2(tmp_path):
    # A one-element factor would broadcast over its whole group.
    src, manifest = make_verified_run(tmp_path)
    factor = manifest.parent / json.loads(manifest.read_text())["factors"]["u"][0]
    write_tensor(factor, DenseTensor([1.0]))
    assert main(["verify", str(src), str(manifest)]) == 2


def test_verify_refuses_misshapen_factor_from_its_header(tmp_path, monkeypatch, capsys):
    # A factor's shape is checked from its header: the payload of a
    # misshapen one, here 8 MB of a hole, is never read.
    from tenspec import cli, tz1

    src, manifest = make_verified_run(tmp_path)
    factor = manifest.parent / read_json(manifest)["factors"]["u"][0]
    sparse_tz1(factor, (2**20,))
    read, read_payload = [], tz1.read_payload

    def payload(fh, path, dims):
        read.append(Path(path))
        return read_payload(fh, path, dims)

    monkeypatch.setattr(cli, "read_payload", payload)
    monkeypatch.setattr(tz1, "read_payload", payload)
    assert main(["verify", str(src), str(manifest)]) == 2
    assert "not of shape (4,)" in capsys.readouterr().err
    assert factor not in read


def test_verify_refuses_more_weights_than_decompose_writes(tmp_path, monkeypatch, capsys):
    # A decomposition of shapes I, J has at most n (op, I = J of n elements),
    # min(I, J) (transform) or r1 min(J, K r1), r1 = min(I, JK) (triple)
    # components.  A manifest with one weight more is refused before any
    # factor file is opened: only the tensor (for its header) and the
    # manifest are.
    from tenspec import cli, tz1

    op = GroupedTensor(random_tensor((2, 2, 3), 5), (2, 1))
    inputs = {
        "op": (gram_operator(op, side="left").tensor, "2,2", 4),
        "transform": (random_tensor((4, 3, 2), 6), "1,2", 4),
        "triple": (random_tensor((3, 3, 2), 7), "1,1,1", 9),
    }
    opened, open_regular = [], tz1.open_regular

    def recording(path, mode="rb"):
        opened.append(Path(path))
        return open_regular(path, mode)

    for algorithm, (tensor, groups, most) in inputs.items():
        src, out = tmp_path / f"{algorithm}.tz1", tmp_path / algorithm
        write_tensor(src, tensor)
        assert main(["decompose", str(src), "--groups", groups, "--algorithm", algorithm,
                     "--out", str(out)]) == 0
        good = read_json(out / "manifest.json")
        count = most + 1
        bad = {
            **good,
            "weights": good["weights"][:1] * count,
            "factors": {f: names[:1] * count for f, names in good["factors"].items()},
        }
        if algorithm == "triple":
            bad["pairMap"] = [[m, m] for m in range(1, count + 1)]
        manifest = out / "bad.json"
        manifest.write_text(json.dumps(bad))
        opened.clear()
        with monkeypatch.context() as patch:
            patch.setattr(cli, "open_regular", recording)
            patch.setattr(tz1, "open_regular", recording)
            assert main(["verify", str(src), str(manifest)]) == 2, algorithm
        assert f"{count} weights, more than the {most} components" in capsys.readouterr().err
        assert opened == [src, manifest], algorithm


def test_verify_refuses_an_oversized_manifest_before_parsing_it(tmp_path, monkeypatch,
                                                                capsys):
    # A manifest larger than decompose writes for a 2 x 3 tensor, here its
    # own manifest with each weight repeated, is refused from its size:
    # it is never parsed, however large it is.
    from tenspec import cli

    src = tmp_path / "in.tz1"
    write_tensor(src, random_tensor((2, 3), 68))
    out = tmp_path / "fac"
    assert main(["decompose", str(src), "--groups", "1,1", "--out", str(out)]) == 0
    good = read_json(out / "manifest.json")
    manifest = out / "big.json"
    manifest.write_text(json.dumps({**good, "weights": good["weights"] * 100}, indent=2))

    def loads(*args, **kwargs):
        pytest.fail("manifest parsed")

    monkeypatch.setattr(cli.json, "loads", loads)
    assert main(["verify", str(src), str(manifest)]) == 2
    size = manifest.stat().st_size
    assert f"{manifest}: {size} bytes, above the limit" in capsys.readouterr().err


@pytest.mark.parametrize("algorithm, dims", [
    ("op", (2, 2)), ("transform", (2, 3)), ("triple", (2, 3, 1)),
])
def test_widest_manifest_decompose_could_write_fits_the_size_limit(tmp_path, algorithm,
                                                                    dims):
    # One component per tensor value, as written by decompose's writer:
    # every weight the longest float repr, every family one file per
    # component under the widest name, and every pairMap number as wide as
    # MAX_EIGEN_ORDER^2.
    from tenspec import cli

    count = math.prod(dims)
    widest = -2.2250738585072014e-308
    assert len(repr(widest)) == 24
    families = cli.ALGORITHMS[algorithm].families
    manifest = {
        "version": MANIFEST_VERSION,
        "algorithm": algorithm,
        "shapes": [[d] for d in dims],
        "groups": [1] * len(dims),
        "weights": [widest] * count,
        "factors": {f: [f"{f}-{cli.MAX_EIGEN_ORDER**2:04d}.tz1"] * count for f in families},
    }
    if algorithm == "triple":
        manifest["pairMap"] = [[cli.MAX_EIGEN_ORDER**2] * 2] * count
    path = tmp_path / "manifest.json"
    cli._write_json(path, manifest)
    assert cli._load_manifest(path, dims) == manifest


def test_verify_missing_factor_exits_2(tmp_path):
    src, manifest = make_verified_run(tmp_path)
    factor = manifest.parent / json.loads(manifest.read_text())["factors"]["v"][0]
    factor.unlink()
    assert main(["verify", str(src), str(manifest)]) == 2


def test_verify_bad_manifest_exits_2(tmp_path):
    src, manifest = make_verified_run(tmp_path)
    broken = manifest.parent / "broken.json"
    broken.write_text("{not json")
    assert main(["verify", str(src), str(broken)]) == 2
    # Nested past Python's recursion limit, which json.loads raises as
    # RecursionError, not JSONDecodeError.
    deep = manifest.parent / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    assert main(["verify", str(src), str(deep)]) == 2
    nofield = manifest.parent / "nofield.json"
    nofield.write_text(json.dumps({"algorithm": "transform"}))
    assert main(["verify", str(src), str(nofield)]) == 2
    good = read_json(manifest)
    fields = [
        ("factors", ["x"]),
        ("factors", {"u": None}),
        ("groups", [1.5, 1]),
    ]
    for k, (field, value) in enumerate(fields):
        bad = manifest.parent / f"bad-{k}.json"
        bad.write_text(json.dumps({**good, field: value}))
        assert main(["verify", str(src), str(bad)]) == 2, (field, value)


@pytest.mark.parametrize("fault", [
    "bad JSON", "not UTF-8", "version 1", "misdeclared shapes", "a weight over the bound",
    "a missing factor file",
])
def test_verify_refuses_a_bad_manifest_before_reading_the_tensor(tmp_path, monkeypatch,
                                                                  capsys, fault):
    # The manifest is parsed and checked against the tensor's header, and
    # its factor files read, before the tensor's payload: here 64 MB of a
    # hole, which is never read.
    from tenspec import cli, tz1

    src, manifest = tmp_path / "big.tz1", tmp_path / "manifest.json"
    sparse_tz1(src, (2, 2**22))
    read_payload = tz1.read_payload

    def payload(fh, path, dims):
        if Path(path) == src:
            pytest.fail("tensor payload read")
        return read_payload(fh, path, dims)

    monkeypatch.setattr(cli, "read_payload", payload)
    monkeypatch.setattr(tz1, "read_payload", payload)
    good = {  # the factor files do not exist
        "version": MANIFEST_VERSION, "algorithm": "transform", "shapes": [[2], [2**22]],
        "groups": [1, 1], "weights": [2.0, 1.0],
        "factors": {"u": ["u-0001.tz1", "u-0002.tz1"], "v": ["v-0001.tz1", "v-0002.tz1"]},
    }
    text = {
        "bad JSON": b"{not json",
        "not UTF-8": b"\xff" + json.dumps(good).encode(),
        "version 1": json.dumps({**good, "version": 1}).encode(),
        "misdeclared shapes": json.dumps({**good, "shapes": [[2], [5]]}).encode(),
        "a weight over the bound": json.dumps({**good, "weights": [3.0, 2.0, 1.0]}).encode(),
        "a missing factor file": json.dumps(good).encode(),
    }[fault]
    manifest.write_bytes(text)
    assert main(["verify", str(src), str(manifest)]) == 2
    assert capsys.readouterr().err.startswith(f"tenspec: error: {manifest}: ")


def test_verify_unreadable_weights_and_factor_names_exit_2(tmp_path):
    # Found by test_fuzz_verify_manifests: an integer weight too large for a
    # float (OverflowError) and a factor name that resolves to a directory
    # (IsADirectoryError) ended in tracebacks.  Weights written as strings
    # passed, a `true` weight read as 1.0, and NaN (a string or the JSON
    # literal) exited 1 and printed NaN.
    src, manifest = make_verified_run(tmp_path)
    good = read_json(manifest)
    count = len(good["weights"])
    cases = [("weights", [10**400] * count)] + [
        ("weights", bad)
        for bad in (
            [repr(w) for w in good["weights"]],
            [True] + good["weights"][1:],
            ["nan"] + good["weights"][1:],
            [float("nan")] + good["weights"][1:],
        )
    ] + [
        ("factors", {**good["factors"], "u": [name] + good["factors"]["u"][1:]})
        for name in ("", "/", "..")
    ]
    for k, (field, value) in enumerate(cases):
        bad = manifest.parent / f"bad-{k}.json"
        bad.write_text(json.dumps({**good, field: value}))
        assert main(["verify", str(src), str(bad)]) == 2, (field, value)


def test_verify_refuses_factor_files_outside_the_manifest_directory(tmp_path):
    # A readable TZ1 file outside the manifest's directory, named by a
    # relative or an absolute path, must not be opened; a name holding a NUL
    # byte ended in a ValueError traceback.
    src, manifest = make_verified_run(tmp_path)
    good = read_json(manifest)
    outside = tmp_path / "tr.tz1"
    write_tensor(outside, read_tensor(manifest.parent / good["factors"]["u"][0]))
    for k, name in enumerate(("../tr.tz1", str(outside), "sub/u.tz1", "u\0.tz1")):
        factors = {**good["factors"], "u": [name] + good["factors"]["u"][1:]}
        bad = manifest.parent / f"outside-{k}.json"
        bad.write_text(json.dumps({**good, "factors": factors}))
        assert main(["verify", str(src), str(bad)]) == 2, name


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
@pytest.mark.parametrize("fifo", ["decompose input", "tensor", "manifest", "factor"])
def test_fifo_inputs_exit_2_without_hanging(tmp_path, fifo):
    # Opening a FIFO that nothing writes to blocks forever, so each input is
    # refused as not a regular file before it is read.  main runs in a child
    # under a timeout, so a hang fails the test instead of stalling the suite.
    src, manifest = make_verified_run(tmp_path)
    path = tmp_path / "fifo.tz1"
    argv = {
        "decompose input": ["decompose", path, "--groups", "1,1", "--out", tmp_path / "o"],
        "tensor": ["verify", path, manifest],
        "manifest": ["verify", src, path],
        "factor": ["verify", src, manifest],
    }[fifo]
    if fifo == "factor":
        path = manifest.parent / read_json(manifest)["factors"]["v"][0]
        path.unlink()
    os.mkfifo(path)
    done = cli_child(argv)
    assert done.returncode == 2, done.stderr
    assert "not a regular file" in done.stderr


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
@pytest.mark.parametrize(
    "fifo", ["spectrum.csv", "report.json", "manifest.json", "u-0001.tz1", "input.tz1"]
)
def test_fifo_outputs_exit_2_without_hanging(tmp_path, fifo):
    # Opening a FIFO that nothing reads blocks forever, so an output path
    # that is one is refused as not a regular file, and left as it was.
    # input.tz1 is written by `experiment`, the others by `decompose`.
    src = tmp_path / "in.tz1"
    write_tensor(src, random_tensor((4, 3, 2), 67))
    out = tmp_path / "out"
    out.mkdir()
    os.mkfifo(out / fifo)
    if fifo == "input.tz1":
        argv = ["experiment", "exp2", "--out", out]
    else:
        argv = ["decompose", src, "--groups", "1,2", "--out", out]
    done = cli_child(argv)
    assert done.returncode == 2, done.stderr
    assert f"{fifo}: not a regular file" in done.stderr
    assert stat.S_ISFIFO((out / fifo).stat().st_mode)


def test_verify_tolerances_only_tighten(tmp_path):
    src, manifest = make_verified_run(tmp_path)
    data = read_json(manifest)
    data["weights"] = [7.0 * w for w in data["weights"]]
    data["tolerances"] = {"reconstruction_tol": 1e300, "singular_tol": 1e300}
    loose = manifest.parent / "loose.json"
    loose.write_text(json.dumps(data))
    assert main(["verify", str(src), str(loose)]) == 1


def test_verify_triple_defaults_to_its_report_tolerance(tmp_path):
    # Weights off by 1e-9 relative miss a triple's 1e-10 tolerance, with or
    # without a loose tolerances map inserted into the manifest.
    run_experiment("exp3", tmp_path / "exp3")
    src, out = tmp_path / "exp3" / "input.tz1", tmp_path / "fac"
    assert main(["decompose", str(src), "--groups", "1,1,1", "--out", str(out)]) == 0
    data = read_json(out / "manifest.json")
    data["weights"] = [w * (1 + 1e-9) for w in data["weights"]]
    scaled = out / "scaled.json"
    scaled.write_text(json.dumps(data))
    assert main(["verify", str(src), str(scaled)]) == 1
    data["tolerances"] = {"reconstruction_tol": 1e300, "singular_tol": 1e300}
    scaled.write_text(json.dumps(data))
    assert main(["verify", str(src), str(scaled)]) == 1


def test_nonzero_tensor_with_no_terms_fails(tmp_path):
    # Every entry is nonzero but the Gram underflows to 0, so the
    # decomposition has no terms: that is not an exact reconstruction.
    src, out = tmp_path / "tiny.tz1", tmp_path / "fac"
    write_tensor(src, DenseTensor(random_tensor((12, 5, 4), 3).data * 1e-170))
    assert main(["decompose", str(src), "--groups", "1,1,1", "--out", str(out)]) == 1
    assert read_json(out / "manifest.json")["weights"] == []
    assert main(["verify", str(src), str(out / "manifest.json")]) == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("groups", ["1,1,1", "1,2"])
def test_decompose_overflowing_gram_ends_without_traceback(tmp_path, capsys, groups):
    # The input is finite, its Gram is not: the Gram is refused before the
    # eigensolve, and numpy warns of no overflow on the way.
    src = tmp_path / "huge.tz1"
    write_tensor(src, DenseTensor(random_tensor((12, 5, 4), 3).data * 1e160))
    capsys.readouterr()
    code = main(["decompose", str(src), "--groups", groups, "--out", str(tmp_path / "f")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("tenspec: error:")
    assert "Gram of the unfolding is not representable" in err


def decompose_triple_files(tmp_path, dims=(6, 4, 3), seed=68):
    src = tmp_path / "in3.tz1"
    write_tensor(src, random_tensor(dims, seed))
    out = tmp_path / "fac3"
    assert main(["decompose", str(src), "--groups", "1,1,1", "--out", str(out)]) == 0
    return src, out / "manifest.json"


def test_verify_triple_joint_w(tmp_path):
    # W x 3 with weights / 3 keeps the replay exact; only the joint W
    # orthonormality check can see it.
    src, manifest = decompose_triple_files(tmp_path)
    data = read_json(manifest)
    for name in data["factors"]["w"]:
        f = manifest.parent / name
        write_tensor(f, DenseTensor(read_tensor(f).data * 3.0))
    data["weights"] = [w / 3.0 for w in data["weights"]]
    manifest.write_text(json.dumps(data))
    assert main(["verify", str(src), str(manifest)]) == 1
    report = run_verify(src, manifest)
    assert report.max_reconstruction_error <= 1e-10
    assert report.max_orthonormality_error > 1.0


def test_verify_triple_manifest_matches_record(tmp_path, monkeypatch):
    # The record run_verify rebuilds from files (distinct U/Z rows through
    # the pair map) equals the in-memory one, and so do the reports.
    from tenspec import cli, decompose_triple, verify_decomposition

    src, manifest = decompose_triple_files(tmp_path)
    a = GroupedTensor(read_tensor(src), (1, 1, 1))
    dec = decompose_triple(a)
    seen = []

    def capture(a, result):
        seen.append(result)
        return verify_decomposition(a, result)

    monkeypatch.setattr(cli, "verify_decomposition", capture)
    loaded = run_verify(src, manifest)
    for field in ("weights", "pair_map", "u", "z", "w"):
        assert np.array_equal(getattr(seen[0], field), getattr(dec, field)), field
    direct = verify_decomposition(a, dec)
    assert loaded.passed and direct.passed
    for field in (
        "max_singular_deviation",
        "max_reconstruction_error",
        "max_orthonormality_error",
    ):
        assert getattr(loaded, field) == getattr(direct, field), field


# ------------------------------------------------------------------ fuzzing


# Values worth trying at any position: file names that resolve to
# something other than a factor file, and numbers no float can hold.
EDGE = ["", ".", "..", "/", "missing.tz1", "manifest.json", "../tr.tz1"]
EDGE += [10**400, -(10**400)]
JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(EDGE),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)


@pytest.fixture(scope="module")
def fuzz_runs(tmp_path_factory):
    # A decomposed transform and a decomposed triple of small TZ1 files.
    base = tmp_path_factory.mktemp("fuzz")
    runs = []
    for name, dims, groups in (("tr", (4, 3, 2), "1,2"), ("tp", (3, 3, 2), "1,1,1")):
        src = base / f"{name}.tz1"
        write_tensor(src, random_tensor(dims, 69))
        out = base / name
        assert main(["decompose", str(src), "--groups", groups, "--out", str(out)]) == 0
        runs.append((src, out / "manifest.json"))
    return runs


def node_paths(value, path=()):
    # Every position in a JSON value, the root included.
    yield path
    if isinstance(value, dict):
        items = value.items()
    else:
        items = enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from node_paths(child, path + (key,))


@st.composite
def mutated_manifest(draw, good):
    # A valid manifest with up to three nodes deleted or replaced, by an
    # edge value half of the time and by arbitrary JSON otherwise.
    manifest = json.loads(json.dumps(good))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(node_paths(manifest))[1:]
        if not paths:
            break
        *parents, key = draw(st.sampled_from(paths))
        node = manifest
        for k in parents:
            node = node[k]
        if draw(st.integers(0, 3)):
            node[key] = draw(st.sampled_from(EDGE) | JSON)
        else:
            del node[key]
    return manifest


@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_fuzz_verify_manifests(fuzz_runs, data):
    # Any manifest gives a verdict (0 or 1) or a refusal (2), never another
    # exception.
    src, path = data.draw(st.sampled_from(fuzz_runs))
    manifest = data.draw(JSON | mutated_manifest(read_json(path)))
    fuzzed = path.parent / "fuzzed.json"
    fuzzed.write_text(json.dumps(manifest))
    assert main(["verify", str(src), str(fuzzed)]) in (0, 1, 2)
