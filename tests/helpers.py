"""Test helpers shared by several test modules."""

import math
import os
import struct

import numpy as np

from tenspec import DenseTensor, norm, random_tensor


def unit(dims, seed):
    t = random_tensor(dims, seed)
    return DenseTensor(t.data * (1.0 / norm(t)))


def sparse_tz1(path, dims):
    # A TZ1 header declaring `dims`, and a file as long as their payload:
    # the payload is a hole, which takes no disk and must never be read.
    path.write_bytes(b"TENZ" + struct.pack(f"<II{len(dims)}Q", 1, len(dims), *dims))
    os.truncate(path, 12 + 8 * len(dims) + 8 * math.prod(dims))


def rel_err(reference, candidate):
    return norm(reference - candidate) / norm(reference)


def ortho_err(rows):
    # max|F F^T - I| over a family's rows F, one flattened factor each.
    return float(np.abs(rows @ rows.T - np.eye(len(rows))).max(initial=0.0))


def couplings(a, dec):
    # Stage one's factors over J x K, V_p = A_(1)^T U_p / sigma_p.
    d = a.group_orders[0]
    m = a.tensor.data.reshape(math.prod(a.group_shapes[0]), -1)
    v = (dec.u @ m) / dec.sigma[:, None]
    return [DenseTensor(row.reshape(a.tensor.dims[d:])) for row in v]


def stage_identity_errors(a, dec):
    """Relative errors of a triple decomposition's two stage identities.

    Stage one: A is the sigma-weighted sum of U_p x V_p over its couplings
    V_p.  Stage two: each V_p is the gamma-weighted sum of Z_s x W[..., p, s];
    the worst coupling's error is taken relative to the norm of all of them.
    """
    coupling = couplings(a, dec)
    stage1 = np.zeros(a.tensor.dims)
    for s, u, v in zip(dec.sigma, dec.u_basis, coupling):
        stage1 += float(s) * np.multiply.outer(u.data, v.data)
    stage1_err = rel_err(a.tensor, DenseTensor(stage1, check_finite=False))
    worst = 0.0
    for p, v in enumerate(coupling):
        rebuilt = np.zeros(v.dims)
        for s in range(len(dec.gamma)):
            rebuilt += float(dec.gamma[s]) * np.multiply.outer(
                dec.z_basis[s].data, dec.w_joint.data[..., p, s]
            )
        worst = max(worst, float(np.sqrt(((rebuilt - v.data) ** 2).sum())))
    return stage1_err, worst / math.sqrt(sum(norm(v) ** 2 for v in coupling))
