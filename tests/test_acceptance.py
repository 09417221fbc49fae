"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test prints a single ``ACCEPTANCE <name>: PASS|FAIL`` line (visible
with ``pytest -s``) and then asserts, so the suite doubles as a checklist.
"""

import dataclasses
import math
import time

import numpy as np

from tenspec import (
    GroupedTensor,
    contract,
    decompose_sa_nnd,
    decompose_transform,
    decompose_triple,
    gram_operator,
    matricized_singulars,
    random_tensor,
    reconstruct,
    residual_curve,
    unfold,
    verify_decomposition,
)
from tenspec.cli import main, run_experiment

from helpers import couplings, ortho_err, rel_err, stage_identity_errors

RECON_TOL_OP = 1e-8
RECON_TOL_TRANSFORM = 1e-8
RECON_TOL_TRIPLE = 1e-10
ORTHO_TOL = 1e-10
RESIDUAL_TOL = 1e-8
JOINT_W_TOL = 1e-8
IDENTITY_TOL = 1e-8
SINGULAR_TOL = 1e-8
CONTRACT_TOL = 1e-12
NEG_EIG_TOL = 1e-10
RUNTIME_EXP1 = 120.0
RUNTIME_EXP23 = 10.0


def _report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    return ok


# ------------------------------------------------------------ experiments


def test_experiment_1(tmp_path):
    started = time.perf_counter()
    report = run_experiment("exp1", tmp_path / "exp1")
    elapsed = time.perf_counter() - started
    err = report.reconstruction_relative_error
    lam = report.spectrum
    nonneg = float(lam.min()) >= -NEG_EIG_TOL * float(lam.max())
    ok = err < RECON_TOL_OP and nonneg and elapsed < RUNTIME_EXP1
    _report(
        "experiment-1 (operator, I=(16,16,3))",
        ok,
        f"error {err:.3e} < {RECON_TOL_OP:.0e}, min eigenvalue {lam.min():.3e}, "
        f"runtime {elapsed:.1f}s < {RUNTIME_EXP1:.0f}s",
    )
    assert err < RECON_TOL_OP
    assert nonneg
    assert elapsed < RUNTIME_EXP1


def test_experiment_2(tmp_path):
    started = time.perf_counter()
    report = run_experiment("exp2", tmp_path / "exp2")
    elapsed = time.perf_counter() - started
    err = report.reconstruction_relative_error

    a = GroupedTensor(random_tensor((64, 8, 4), report.seed), (1, 2))
    dec = decompose_transform(a)
    ref = matricized_singulars(a)
    width = max(len(ref), len(dec.singulars))
    padded_ref = np.zeros(width)
    padded_got = np.zeros(width)
    padded_ref[: len(ref)] = ref
    padded_got[: len(dec.singulars)] = dec.singulars
    dev = float(np.abs(padded_got - padded_ref).max() / ref[0])

    ok = err < RECON_TOL_TRANSFORM and dev <= SINGULAR_TOL and elapsed < RUNTIME_EXP23
    _report(
        "experiment-2 (transform, I=(64), J=(8,4))",
        ok,
        f"error {err:.3e} < {RECON_TOL_TRANSFORM:.0e}, singular deviation {dev:.3e}, "
        f"runtime {elapsed:.1f}s < {RUNTIME_EXP23:.0f}s",
    )
    assert err < RECON_TOL_TRANSFORM
    assert dev <= SINGULAR_TOL
    assert elapsed < RUNTIME_EXP23


def test_experiment_3(tmp_path):
    started = time.perf_counter()
    report = run_experiment("exp3", tmp_path / "exp3")
    elapsed = time.perf_counter() - started
    err = report.reconstruction_relative_error

    a = GroupedTensor(random_tensor((64, 16, 3), report.seed), (1, 1, 1))
    dec = decompose_triple(a)
    r1, r2 = len(dec.sigma), len(dec.gamma)
    id1_err, id2_err = stage_identity_errors(a, dec)

    ok = (
        err < RECON_TOL_TRIPLE
        and id1_err <= IDENTITY_TOL
        and id2_err <= IDENTITY_TOL
        and elapsed < RUNTIME_EXP23
    )
    _report(
        "experiment-3 (triple, I=(64), J=(16), K=(3))",
        ok,
        f"error {err:.3e} < {RECON_TOL_TRIPLE:.0e}, stage identities "
        f"{id1_err:.3e}/{id2_err:.3e} <= {IDENTITY_TOL:.0e}, M={r1}x{r2}, "
        f"runtime {elapsed:.1f}s < {RUNTIME_EXP23:.0f}s",
    )
    assert err < RECON_TOL_TRIPLE
    assert id1_err <= IDENTITY_TOL
    assert id2_err <= IDENTITY_TOL
    assert elapsed < RUNTIME_EXP23


# ---------------------------------------------------------- property suite


def _draw_group(rng, max_count=32):
    # 1 or 2 modes, product capped at max_count
    if rng.integers(0, 2) == 0:
        return (int(rng.integers(2, 9)),)
    a = int(rng.integers(2, 7))
    b = int(rng.integers(2, max(3, max_count // a + 1)))
    while a * b > max_count:
        b -= 1
    return (a, max(b, 1))


def _instance(idx):
    rng = np.random.Generator(np.random.PCG64(5000 + idx))
    kind = ("op", "transform", "triple")[idx % 3]
    if kind == "op":
        gi = _draw_group(rng)
        src = GroupedTensor(
            random_tensor(gi + gi, int(rng.integers(0, 2**31))), (len(gi), len(gi))
        )
        return kind, gram_operator(src, side="right")
    if kind == "transform":
        gi, gj = _draw_group(rng), _draw_group(rng)
        t = random_tensor(gi + gj, int(rng.integers(0, 2**31)))
        return kind, GroupedTensor(t, (len(gi), len(gj)))
    gi, gj, gk = _draw_group(rng), _draw_group(rng), _draw_group(rng)
    t = random_tensor(gi + gj + gk, int(rng.integers(0, 2**31)))
    return kind, GroupedTensor(t, (len(gi), len(gj), len(gk)))


def _residual_ok(m, pairs, top):
    # Every (lambda, x) pair, x a flattened factor, solves m x = lambda x to
    # RESIDUAL_TOL * top.
    return all(
        np.linalg.norm(m @ x - float(lam) * x) <= RESIDUAL_TOL * top for lam, x in pairs
    )


def _eigentensor_residuals_ok(kind, a, dec):
    if kind == "op":
        top = max(1.0, float(dec.eigenvalues[0])) if dec.rank else 1.0
        m = unfold(a.tensor, a.group_orders[0]).data
        return _residual_ok(m, zip(dec.eigenvalues, dec.vectors), top)
    if kind == "transform":
        g = gram_operator(a, side="right")
        lam = dec.singulars**2
        top = max(1.0, float(lam[0])) if len(lam) else 1.0
        m = unfold(g.tensor, g.group_orders[0]).data
        return _residual_ok(m, zip(lam, dec.v), top)
    d = a.group_orders[0]
    stage1_op = gram_operator(
        GroupedTensor(a.tensor, (d, a.tensor.order - d)), side="left"
    )
    lam1 = dec.sigma**2
    top1 = max(1.0, float(lam1[0])) if len(lam1) else 1.0
    ok = _residual_ok(unfold(stage1_op.tensor, d).data, zip(lam1, dec.u), top1)
    if not ok or not len(dec.gamma):
        return ok
    e = a.group_orders[1]
    l_j = math.prod(a.group_shapes[1])
    h = np.zeros((l_j, l_j))
    for v in couplings(a, dec):
        k_axes = tuple(range(e, v.order))
        part = contract(v, v, k_axes, k_axes)
        h += part.data.reshape(l_j, l_j)
    lam2 = dec.gamma**2
    top2 = max(1.0, float(lam2[0]))
    return _residual_ok(h, zip(lam2, dec.z), top2)


def test_property_suite():
    failures = []
    for idx in range(100):
        kind, a = _instance(idx)
        if kind == "op":
            dec = decompose_sa_nnd(a)
            families = {"eigentensors": dec.vectors}
        elif kind == "transform":
            dec = decompose_transform(a)
            families = {"left": dec.u, "right": dec.v}
        else:
            dec = decompose_triple(a)
            families = {"u": dec.u, "z": dec.z}

        for fname, family in families.items():
            worst = ortho_err(family)
            if worst > ORTHO_TOL:
                failures.append(f"{idx}: {kind} {fname} orthonormality {worst:.2e}")

        if not _eigentensor_residuals_ok(kind, a, dec):
            failures.append(f"{idx}: {kind} eigentensor residual above {RESIDUAL_TOL}")

        if kind == "triple" and len(dec.gamma):
            r1, r2 = len(dec.sigma), len(dec.gamma)
            w = dec.w_joint.data.reshape(-1, r1, r2)
            gw = np.einsum("kpr,kps->rs", w, w)
            worst = float(np.abs(gw - np.eye(r2)).max())
            if worst > JOINT_W_TOL:
                failures.append(f"{idx}: joint W orthonormality {worst:.2e}")

        curve = residual_curve(a, dec)
        errs = [e for _, e in curve]
        if any(errs[i] < errs[i + 1] - 1e-13 for i in range(len(errs) - 1)):
            failures.append(f"{idx}: residual curve not monotone")

        rng = np.random.Generator(np.random.PCG64(9000 + idx))
        dx = tuple(int(v) for v in rng.integers(2, 5, size=2))
        dy = (dx[1], int(rng.integers(2, 5)))
        x = random_tensor(dx, int(rng.integers(0, 2**31)))
        y = random_tensor(dy, int(rng.integers(0, 2**31)))
        fast = contract(x, y, (1,), (0,))
        ref = np.tensordot(x.data, y.data, axes=((1,), (0,)))
        scale = float(np.abs(ref).max())
        if float(np.abs(fast.data - ref).max()) > CONTRACT_TOL * max(scale, 1e-300):
            failures.append(f"{idx}: contract vs tensordot above {CONTRACT_TOL}")

    ok = not failures
    _report(
        "property-suite (100 seeded instances)",
        ok,
        "orthonormality/residuals/joint-W/monotone-curve/contract-agreement"
        if ok
        else "; ".join(failures[:5]),
    )
    assert ok, failures


# ------------------------------------------------------- oracle equivalence


def test_oracle_equivalence():
    worst = 0.0
    for idx in range(50):
        rng = np.random.Generator(np.random.PCG64(7000 + idx))
        gi, gj = _draw_group(rng, 64), _draw_group(rng, 64)
        a = GroupedTensor(
            random_tensor(gi + gj, int(rng.integers(0, 2**31))), (len(gi), len(gj))
        )
        dec = decompose_transform(a)
        ref = matricized_singulars(a)
        width = max(len(ref), len(dec.singulars))
        padded_ref = np.zeros(width)
        padded_got = np.zeros(width)
        padded_ref[: len(ref)] = ref
        padded_got[: len(dec.singulars)] = dec.singulars
        if width:
            worst = max(worst, float(np.abs(padded_got - padded_ref).max() / padded_ref[0]))

    a = GroupedTensor(random_tensor((6, 5), 7777), (1, 1))
    dec = decompose_transform(a)
    bad = dec.singulars.copy()
    bad[0] *= 1.1
    corrupted = dataclasses.replace(dec, singulars=bad)
    control = verify_decomposition(a, corrupted)

    ok = worst <= SINGULAR_TOL and not control.passed
    _report(
        "oracle-equivalence (50 seeded instances + negative control)",
        ok,
        f"worst singular deviation {worst:.3e} <= {SINGULAR_TOL:.0e}, "
        f"perturbed-weight verify passed={control.passed}",
    )
    assert worst <= SINGULAR_TOL
    assert not control.passed


# ---------------------------------------------------- exactness degradation


def test_truncation_strictly_increases_error():
    a = GroupedTensor(random_tensor((64, 8, 4), 42), (1, 2))
    dec = decompose_transform(a)
    rank = len(dec.singulars)
    full = rel_err(a.tensor, reconstruct(dec, rank))
    truncated = rel_err(a.tensor, reconstruct(dec, rank - 1))
    ok = truncated > full
    _report(
        "exactness-degradation (keep = r-1)",
        ok,
        f"error {full:.3e} -> {truncated:.3e}",
    )
    assert truncated > full


# ---------------------------------------------------------------- determinism


def test_cli_determinism(tmp_path):
    out1 = tmp_path / "one"
    out2 = tmp_path / "two"
    code1 = main(["experiment", "exp2", "--seed", "7", "--out", str(out1)])
    code2 = main(["experiment", "exp2", "--seed", "7", "--out", str(out2)])
    same = {
        name: (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("spectrum.csv", "report.json", "input.tz1")
    }
    ok = code1 == 0 and code2 == 0 and all(same.values())
    _report(
        "determinism (exp2 --seed 7, two runs)",
        ok,
        "byte-identical spectrum.csv/report.json/input.tz1" if ok else str(same),
    )
    assert code1 == 0 and code2 == 0
    assert all(same.values())
