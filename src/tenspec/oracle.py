"""Independent references used by tests and the ``verify`` command.

Deliberately disjoint from the main path: singular values come from
LAPACK's SVD of the unfolded matrix itself (never from the Gram spectrum
the decompositions diagonalize with their own Jacobi solver), and
reconstructions are replayed term by term: every component's weighted
first-family row and the outer product of its other rows are formed
explicitly, a block of components at a time, and each block is summed with
one matrix product, never through the grouped first-family sums of
``reconstruct``.  Shared code is limited
to tensor storage, the error measure ``core.relative_error``, and the
records' ``terms()`` layout: each factor family one array of flattened
factors with a row index per component.

The pass/fail standard is fixed and stated here once: factor Grams, and a
two-group result's weights, within ``SINGULAR_TOL``; the reconstruction
within ``RECONSTRUCTION_TOL`` of the result's family count.  No caller
can loosen or tighten it; the report carries every measured deviation, so
a stricter standard can be applied to it.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import DenseTensor, relative_error
from .decompose import reconstructed_dims
from .errors import GroupingMismatch

RANK_TOL = 1e-10
SINGULAR_TOL = 1e-8
# Relative reconstruction error a result passes at, by its number of factor
# families (its tensor's group count): op and transform, then triple.
RECONSTRUCTION_TOL = {2: 1e-8, 3: 1e-10}
# Elements of a replay block's outer-product rows (B components x the
# product of the other families' sizes): 1 MB of float64.
REPLAY_BUDGET = 2**17


@dataclass(frozen=True)
class OracleReport:
    """Outcome of replaying a decomposition against the references."""

    singulars_reference: np.ndarray
    max_singular_deviation: float
    max_reconstruction_error: float
    max_orthonormality_error: float
    passed: bool


def matricized_singulars(a):
    """Reference singular values of a two-group tensor's unfolding.

    LAPACK's SVD of the unfolded matrix; values at or below ``RANK_TOL``
    times the largest are dropped, so a zero tensor yields an empty array.
    """
    if a.group_count != 2:
        raise GroupingMismatch(
            f"matricized_singulars needs 2 groups, got {a.group_count}"
        )
    n = int(np.prod(a.tensor.dims[: a.group_orders[0]]))
    sig = np.linalg.svd(a.tensor.data.reshape(n, -1), compute_uv=False)
    return sig[sig > RANK_TOL * sig[0]]


def replay_reconstruction(decomposition):
    """Rebuild the decomposed tensor term by term.

    For a block of B components, L holds their first-family rows times
    their weights (B x N_1) and R the outer products of their other rows,
    one flattened product a row (B x rest: a triple's Z and W rows, else
    the second family's rows); the block adds L^T R.  B keeps R within
    ``REPLAY_BUDGET`` elements.
    """
    weights, ((first, first_index, _), *others) = decomposition.terms()
    rest = math.prod(stack.shape[1] for stack, _, _ in others)
    block = max(1, REPLAY_BUDGET // rest)
    acc = np.zeros((first.shape[1], rest))
    for lo in range(0, len(weights), block):
        rows = slice(lo, lo + block)
        lhs = weights[rows, None] * first[first_index[rows]]
        rhs = functools.reduce(
            _row_outer, (stack[index[rows]] for stack, index, _ in others)
        )
        acc += lhs.T @ rhs
    return DenseTensor(acc.reshape(reconstructed_dims(decomposition)), check_finite=False)


def _row_outer(x, y):
    # Row m is the flattened outer product of x[m] and y[m].
    return (x[:, :, None] * y[:, None, :]).reshape(len(x), -1)


def verify_decomposition(a, result):
    """Replay a decomposition of ``a`` and compare against the references.

    Reconstruction error is ``core.relative_error`` (0/0 counts as 0 only
    for an all-zero tensor) and passes within the ``RECONSTRUCTION_TOL`` of
    the result's family count.  For two-group decompositions the stored
    weights are also checked against the LAPACK singular values,
    zero-padded to a common length and measured relative to the largest
    reference value, within ``SINGULAR_TOL``; no independent weight
    reference is taken for triple decompositions.  The stored factors of
    each family must be orthonormal: their Gram may differ from the
    identity by at most ``SINGULAR_TOL`` in any entry.  A triple's W
    rows are orthonormal only jointly: scattered by ``pair_map`` into one
    (r1 K) x r2 matrix, zero for absent pairs, its columns must be.
    """
    recon_err = relative_error(a.tensor, replay_reconstruction(result))

    weights, families = result.terms()
    if len(families) == 3:
        (u, p, _), (z, s, _), (w, index, _) = families
        joint = np.zeros((len(z), len(u), w.shape[1]))
        joint[s, p] = w[index]
        stacks = [u, z, joint.reshape(len(z), len(u) * w.shape[1])]
        reference = np.array([])
        deviation = 0.0
    else:
        stacks = [stack for stack, _, _ in families]
        reference = matricized_singulars(a)
        width = max(len(reference), len(weights))
        ref, got = (np.pad(v, (0, width - len(v))) for v in (reference, weights))
        # A non-empty reference is positive; against none, weights are absolute.
        top = ref[0] if len(reference) else 1.0
        deviation = float(np.abs(got - ref).max(initial=0.0) / top)
    ortho = max(
        float(np.abs(stack @ stack.T - np.eye(len(stack))).max(initial=0.0))
        for stack in stacks
    )

    return OracleReport(
        singulars_reference=reference,
        max_singular_deviation=deviation,
        max_reconstruction_error=recon_err,
        max_orthonormality_error=ortho,
        passed=bool(
            recon_err <= RECONSTRUCTION_TOL[len(families)]
            and deviation <= SINGULAR_TOL
            and ortho <= SINGULAR_TOL
        ),
    )
