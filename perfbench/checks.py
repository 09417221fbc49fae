"""Reference checks for one decomposition, computed with ``numpy.linalg``.

Nothing here calls tenspec: weights are compared with LAPACK's ``eigvalsh``
or ``svd`` of the unfolding, orthonormality and Parseval are recomputed
from the factor arrays, and TZ1 files written by the CLI are parsed by a
reader of this module's own.  Each check appends a reason to the outcome
instead of raising, so a bad input counts as failed and the run goes on.
"""

import json
import math
import struct
from pathlib import Path

import numpy as np

RECON_TOL = {"op": 1e-8, "transform": 1e-8, "triple": 1e-10}
WEIGHT_TOL = 1e-8
ORTHO_TOL = 1e-10
JOINT_W_TOL = 1e-8
PARSEVAL_TOL = 1e-10
RANK_TOL = 1e-10
CURVE_SLACK = 1e-13
# Errors are floored here before taking digits, so an exact zero reads as
# 17 digits instead of infinity.
ERROR_FLOOR = 1e-17


def digits(err):
    return -math.log10(max(float(err), ERROR_FLOOR))


class Outcome:
    """Failure reasons plus the accuracy digits of one checked input."""

    def __init__(self):
        self.reasons = []
        self.digits = {}

    @property
    def ok(self):
        return not self.reasons

    def require(self, cond, reason):
        if not cond:
            self.reasons.append(reason)

    def score(self, metric, err, tol, what):
        """Record ``digits(err)`` under ``metric`` (keeping the minimum)."""
        d = digits(err)
        self.digits[metric] = min(self.digits.get(metric, d), d)
        self.require(err <= tol, f"{what} {err:.3e} above {tol:.0e}")


def numerical_rank(values):
    values = np.asarray(values)
    if not values.size or values[0] <= 0.0:
        return 0
    return int(np.count_nonzero(values > RANK_TOL * values[0]))


def gram_error(rows):
    """max |G G^T - I| for a family stacked as (count, size) rows."""
    rows = np.asarray(rows)
    if not len(rows):
        return 0.0
    g = rows @ rows.T
    return float(np.abs(g - np.eye(len(rows))).max())


def stack(tensors):
    return np.array([t.data.reshape(-1) for t in tensors])


def check_weights(out, weights, reference):
    """Kept weights against the leading reference values, and the rank."""
    weights = np.asarray(weights, dtype=np.float64)
    r = len(weights)
    out.require(
        r == numerical_rank(reference),
        f"rank {r} != reference rank {numerical_rank(reference)}",
    )
    out.require(bool(np.all(weights[:-1] >= weights[1:])), "weights not sorted")
    if r and r <= len(reference) and reference[0] > 0.0:
        dev = float(np.abs(weights - reference[:r]).max() / reference[0])
    else:
        dev = math.inf
    out.score("weight_digits", dev, WEIGHT_TOL, "weight deviation")


def check_parseval(out, energy, norm2, what="Parseval"):
    err = abs(energy - norm2) / norm2
    out.require(err <= PARSEVAL_TOL, f"{what} mismatch {err:.3e}")


def check_family(out, name, rows, tol=ORTHO_TOL):
    out.score("ortho_digits", gram_error(rows), tol, f"{name} orthonormality")


def check_reconstruction(out, reference, rebuilt, tol):
    scale = np.linalg.norm(reference)
    err = np.linalg.norm(reference - rebuilt) / scale
    out.score("recon_digits", err, tol, "reconstruction error")


def check_curve(out, curve, count, tol):
    errs = [e for _, e in curve]
    out.require([k for k, _ in curve] == list(range(count + 1)), "curve length")
    out.require(
        all(errs[i] >= errs[i + 1] - CURVE_SLACK for i in range(len(errs) - 1)),
        "residual curve not monotone",
    )
    out.require(errs[-1] <= tol, f"residual curve ends at {errs[-1]:.3e}")


def check_library(kind, a, dec, rebuilt, curve, report):
    """All reference checks for one in-process ``op`` or ``triple`` run."""
    out = Outcome()
    t = a.tensor.data
    norm2 = float(np.sum(t * t))
    tol = RECON_TOL[kind]
    out.require(report.passed, "verify_decomposition did not pass")
    check_reconstruction(out, t, rebuilt.data, tol)
    if kind == "op":
        n = int(np.prod(t.shape[: a.group_orders[0]]))
        ref = np.linalg.eigvalsh(t.reshape(n, n))[::-1]
        check_weights(out, dec.eigenvalues, ref)
        check_parseval(out, float(np.sum(dec.eigenvalues**2)), norm2)
        check_family(out, "eigentensors", stack(dec.eigentensors))
        count = dec.rank
    else:
        raw = dec.raw
        d, e, _ = a.group_orders
        n_i = int(np.prod(t.shape[:d]))
        n_j = int(np.prod(t.shape[d : d + e]))
        check_weights(out, raw.sigma, np.linalg.svd(t.reshape(n_i, -1), compute_uv=False))
        j_unfold = np.moveaxis(t.reshape(n_i, n_j, -1), 1, 0).reshape(n_j, -1)
        r1, r2 = len(raw.sigma), len(raw.gamma)
        r2_ref = numerical_rank(np.linalg.svd(j_unfold, compute_uv=False))
        out.require(r2 == r2_ref, f"stage-two rank {r2} != reference {r2_ref}")
        out.require(dec.count == r1 * r2, f"M = {dec.count} != r1*r2 = {r1 * r2}")
        w = np.asarray(dec.weights)
        out.require(bool(np.all(w[:-1] >= w[1:])), "weights not sorted")
        check_parseval(out, float(np.sum(raw.sigma**2)), norm2, "stage-one Parseval")
        # Terms are mutually orthogonal, so their squared norms add up.
        term_norms = np.abs(w)
        for family in (dec.factors_u, dec.factors_z, dec.factors_w):
            term_norms = term_norms * np.linalg.norm(stack(family), axis=1)
        check_parseval(out, float(np.sum(term_norms**2)), norm2)
        check_family(out, "u_basis", stack(raw.u_basis))
        check_family(out, "z_basis", stack(raw.z_basis))
        if r2:
            # Joint W: the (K x r1)-long columns, one per s, are orthonormal.
            joint = raw.w_joint.data.reshape(-1, r2).T
            check_family(out, "joint W", joint, JOINT_W_TOL)
        count = dec.count
    check_curve(out, curve, count, tol)
    return out


def read_tz1(path):
    """Parse a TZ1 file (magic, u32 version, u32 order, u64 extents, f64s)."""
    blob = Path(path).read_bytes()
    magic, version, order = struct.unpack_from("<4sII", blob)
    if magic != b"TENZ" or version != 1:
        raise ValueError(f"{path}: not a TZ1 v1 file")
    dims = struct.unpack_from(f"<{order}Q", blob, 12)
    return np.frombuffer(blob, dtype="<f8", offset=12 + 8 * order).reshape(dims)


def check_cli_transform(t, split, out_dir, codes):
    """Reference checks on the files ``decompose`` wrote for tensor ``t``."""
    out = Outcome()
    out.require(codes == (0, 0), f"exit codes (decompose, verify) = {codes}")
    out_dir = Path(out_dir)
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    weights = np.array(manifest["weights"], dtype=np.float64)
    u = np.array([read_tz1(out_dir / f).reshape(-1) for f in manifest["factors"]["u"]])
    v = np.array([read_tz1(out_dir / f).reshape(-1) for f in manifest["factors"]["v"]])
    m = t.reshape(int(np.prod(t.shape[:split])), -1)
    tol = RECON_TOL["transform"]
    out.require(report["passed"], "report.json says not passed")
    out.require(len(u) == len(v) == len(weights), "factor counts differ from weights")
    check_weights(out, weights, np.linalg.svd(m, compute_uv=False))
    check_parseval(out, float(np.sum(weights**2)), float(np.sum(m * m)))
    check_family(out, "left", u)
    check_family(out, "right", v)
    check_reconstruction(out, m, np.einsum("r,ri,rj->ij", weights, u, v), tol)
    lines = (out_dir / "spectrum.csv").read_text(encoding="utf-8").split()[1:]
    spectrum = np.array([float(line.split(",")[1]) for line in lines])
    out.require(
        np.array_equal(spectrum[: len(weights)], weights), "spectrum.csv != weights"
    )
    out.require(bool(np.all(spectrum[:-1] >= spectrum[1:])), "spectrum not sorted")
    return out
