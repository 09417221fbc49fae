"""Exact decompositions of grouped tensors.

Three procedures, all built on the same mechanism: linearize a mode group,
solve a symmetric eigenproblem there, and keep the eigenvectors (and the
factors mapped from them) as arrays with one flattened factor per row.

* ``decompose_sa_nnd``: a self-adjoint non-negative definite operator over
  I x I is written as a weighted sum of outer products of orthonormal
  eigentensors.
* ``decompose_transform``: a transformation from R^J to R^I is written as a
  weighted sum of outer products of left/right orthonormal factor tensors,
  the weights being the singular values of its unfolding.
* ``decompose_triple``: a three-group tensor is factored in two stages (the
  SVD of its (I x JK) unfolding, then that of the couplings arranged over
  J) into weights and three factor families indexed by a flattened pair
  index.

Reconstruction from the full factor set reproduces the input to floating
point accuracy; truncating to the leading components gives the best-aligned
partial sums since distinct terms are mutually orthogonal.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import jacobi
from .core import DenseTensor, _integer, norm, unfold
from .errors import (
    GroupingMismatch,
    InvalidKeep,
    NotSelfAdjoint,
    NotSymmetric,
    TenspecError,
)

# residual_curve visits components this many at a time (reconstruct takes
# them all at once).  A block costs its term Gram plus one product per
# distinct first-family row it holds: on a 64 x 32 x 32 triple (2048
# components) a block holds a median of 22 distinct U rows per 32 and 33.5
# per 128, and the curve took 55, 33, 19 and 24 ms at blocks of 32, 64, 128
# and 256 (scripts/terms_probe.py, 2-vCPU VM; spread in BENCH_terms.json).
TERM_BLOCK = 128


def grouping(dims, group_orders):
    """The group orders as ints and the shapes of the 2 or 3 contiguous mode
    groups they cut ``dims`` into; GroupingMismatch unless every group has a
    mode and together they partition the modes."""
    group_orders = tuple(_integer(g, GroupingMismatch, "group order") for g in group_orders)
    if len(group_orders) not in (2, 3):
        raise GroupingMismatch(f"need 2 or 3 groups, got {len(group_orders)}")
    if any(g < 1 for g in group_orders):
        raise GroupingMismatch(f"every group needs a mode, got {group_orders}")
    if sum(group_orders) != len(dims):
        raise GroupingMismatch(f"groups {group_orders} do not partition order {len(dims)}")
    ends = itertools.accumulate(group_orders)
    return group_orders, tuple(dims[end - g : end] for g, end in zip(group_orders, ends))


class GroupedTensor:
    """A tensor whose modes are partitioned into 2 or 3 contiguous groups."""

    __slots__ = ("tensor", "group_orders", "group_shapes")

    def __init__(self, tensor, group_orders):
        self.group_orders, self.group_shapes = grouping(tensor.dims, group_orders)
        self.tensor = tensor

    @property
    def group_count(self):
        return len(self.group_orders)


def _views(rows, shape):
    # One DenseTensor per row of a factor array (a view unless rows are strided).
    return [DenseTensor(row.reshape(shape), check_finite=False) for row in rows]


def _factors(decomposition, family):
    # The factor tensors of one family, one per component: views of the
    # family's rows, each row wrapped once however many components share it.
    rows, index, shape = decomposition.terms()[1][family]
    views = _views(rows, shape)
    return [views[k] for k in index.tolist()]


@dataclass(frozen=True)
class OperatorDecomposition:
    """Eigenvalues and orthonormal eigentensors of an SA-NND operator.

    ``eigenvalues`` holds the kept (above-threshold) spectrum, descending;
    ``spectrum`` the full pre-truncation spectrum for reporting.  Row p of
    ``vectors`` (r x N) is eigentensor p flattened; component p is
    ``eigenvalues[p] * U_p o U_p``.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    operand_shape: tuple
    spectrum: np.ndarray

    @property
    def rank(self):
        return len(self.eigenvalues)

    eigentensors = property(lambda self: _factors(self, 0))

    def terms(self):
        """Weights and one (rows, index, shape) triple per factor family:
        component m is ``weights[m]`` times the outer product over families
        of ``rows[index[m]]``, each row reshaped to ``shape``, the family's
        dims tuple."""
        family = (self.vectors, np.arange(len(self.eigenvalues)), self.operand_shape)
        return self.eigenvalues, (family, family)


@dataclass(frozen=True)
class TransformDecomposition:
    """Singular values with left (over I) and right (over J) factors, the
    flattened ones of component p being row p of ``u`` and of ``v``."""

    singulars: np.ndarray
    u: np.ndarray
    v: np.ndarray
    left_shape: tuple
    right_shape: tuple
    spectrum: np.ndarray

    def terms(self):
        """See ``OperatorDecomposition.terms``."""
        index = np.arange(len(self.singulars))
        return self.singulars, (
            (self.u, index, self.left_shape),
            (self.v, index, self.right_shape),
        )


@dataclass(frozen=True)
class TripleDecomposition:
    """Weights and three factor families for a three-group tensor.

    Component m contributes ``weights[m] * U_p o Z_s o W_m`` with
    ``(p, s) = pair_map[m]`` (zero-based), ``U_p`` row p of ``u`` (r1 x I),
    ``Z_s`` row s of ``z`` (r2 x J) and ``W_m`` row m of ``w`` (M x K).
    Weights are stored as the exact products ``sigma[p] * gamma[s]``,
    sorted non-increasing with lexicographic (p, s) tie-breaks.  ``sigma``
    and ``gamma`` are the stage weights (None for a record read from a
    manifest); ``u_basis``/``z_basis`` view the rows of ``u`` and ``z``.
    """

    weights: np.ndarray
    pair_map: np.ndarray
    u: np.ndarray
    z: np.ndarray
    w: np.ndarray
    shapes: tuple
    sigma: Optional[np.ndarray] = None
    gamma: Optional[np.ndarray] = None

    @property
    def count(self):
        return len(self.weights)

    @property
    def spectrum(self):
        return self.weights

    factors_u = property(lambda self: _factors(self, 0))
    factors_z = property(lambda self: _factors(self, 1))
    factors_w = property(lambda self: _factors(self, 2))
    u_basis = property(lambda self: _views(self.u, self.shapes[0]))
    z_basis = property(lambda self: _views(self.z, self.shapes[1]))
    raw = property(lambda self: self)  # alias: dec.raw.sigma is dec.sigma

    @property
    def w_joint(self):
        """``w`` scattered by ``pair_map`` into a K x r1 x r2 tensor whose
        fibers are the W factors, zero at absent pairs (None when empty)."""
        joint = np.zeros((math.prod(self.shapes[2]), len(self.u), len(self.z)))
        joint[:, self.pair_map[:, 0], self.pair_map[:, 1]] = self.w.T
        joint = joint.reshape(self.shapes[2] + joint.shape[1:])
        return DenseTensor(joint, check_finite=False) if joint.size else None

    def terms(self):
        """See ``OperatorDecomposition.terms``."""
        u_shape, z_shape, w_shape = self.shapes
        return self.weights, (
            (self.u, self.pair_map[:, 0], u_shape),
            (self.z, self.pair_map[:, 1], z_shape),
            (self.w, np.arange(len(self.weights)), w_shape),
        )


def _require_groups(a, n, what):
    if a.group_count != n:
        raise GroupingMismatch(f"{what} needs {n} groups, got {a.group_count}")


def gram_operator(a, side="right"):
    """Self-adjoint non-negative operator built from a two-group tensor.

    ``right`` contracts the first group of both copies, giving an operator
    over J x J; ``left`` contracts the second group, giving one over I x I.
    Either is one product of the unfolding with its transpose; a product
    that overflows is refused with TenspecError.
    """
    _require_groups(a, 2, "gram_operator")
    m = unfold(a.tensor, a.group_orders[0]).data
    if side == "right":
        g, shape = _gram(m.T), a.group_shapes[1]
    elif side == "left":
        g, shape = _gram(m), a.group_shapes[0]
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return GroupedTensor(
        DenseTensor(g.reshape(shape * 2), check_finite=False), (len(shape),) * 2
    )


def _asymmetric(asym):
    return f"max asymmetry {asym:.3e} exceeds {jacobi.SYMMETRY_TOL:.1e} * max entry"


def _as_rows(columns):
    return np.ascontiguousarray(columns.T)


def _gram(t):
    # t t^T, refused if it is not representable (entries too large to
    # square) before numpy can warn of the overflow.
    with np.errstate(over="ignore", invalid="ignore"):
        gram = t @ t.T
    if not np.isfinite(gram).all():
        raise TenspecError(
            "the Gram of the unfolding is not representable in float64 "
            "(entries too large to square)"
        )
    return gram


def _matrix_svd(m):
    # SVD of the matrix m from the Gram on its smaller side: m m^T when m
    # has fewer rows than columns, else m^T m.  The Gram's eigenvalues are
    # the squared weights and its eigenvectors that side's columns; the
    # other side's follow in one product (m^T x / s for solved rows, m x / s
    # for solved columns).  Components below the rank cut (jacobi.RANK_TOL)
    # are dropped before the division, so a zero matrix gives none.  Returns
    # the kept weights, the left and right factor columns, and the full
    # spectrum (min(rows, cols) values).  A Gram that overflows is refused.
    by_rows = m.shape[0] < m.shape[1]
    t = m if by_rows else m.T
    eig = jacobi.sym_eig(_gram(t))
    r = eig.rank
    weights = np.sqrt(eig.eigenvalues[:r])
    solved = eig.vectors[:, :r]
    mapped = (t.T @ solved) / weights
    left, right = (solved, mapped) if by_rows else (mapped, solved)
    return weights, left, right, np.sqrt(np.clip(eig.eigenvalues, 0.0, None))


def decompose_sa_nnd(a):
    """Spectral decomposition of a self-adjoint non-negative operator.

    The operator is linearized over its (equal) groups, the resulting
    symmetric matrix is diagonalized, and eigenvector columns above the rank
    threshold ``jacobi.RANK_TOL`` are mapped back to eigentensors over I.
    Unequal group shapes, or an asymmetry beyond ``jacobi.SYMMETRY_TOL``
    found by the eigensolver's own check, raise NotSelfAdjoint; an operator
    the eigensolver finds indefinite raises its NotNND (``jacobi.sym_eig``).
    """
    _require_groups(a, 2, "decompose_sa_nnd")
    shape_i, shape_j = a.group_shapes
    if shape_i != shape_j:
        raise NotSelfAdjoint(f"group shapes differ: {shape_i} vs {shape_j}")
    try:
        eig = jacobi.sym_eig(unfold(a.tensor, a.group_orders[0]).data)
    except NotSymmetric as exc:
        if exc.asymmetry is None:  # not finite
            raise
        raise NotSelfAdjoint(_asymmetric(exc.asymmetry)) from exc
    lam = eig.eigenvalues
    r = eig.rank
    return OperatorDecomposition(
        eigenvalues=lam[:r].copy(),
        vectors=_as_rows(eig.vectors[:, :r]),
        operand_shape=shape_i,
        spectrum=lam,
    )


def decompose_transform(a):
    """Singular-value style decomposition of a two-group tensor.

    The Gram of the unfolding over the smaller group (I x I when I has
    fewer elements than J, otherwise J x J) is diagonalized: its eigenvalues
    are the squared weights and its eigenvectors that group's factors.  The
    other group's factors follow as ``A . X_p / s_p``, one matrix product.
    ``spectrum`` holds the min(I, J) singular values, the count that exists.
    Components whose Gram eigenvalue falls below the rank threshold
    ``jacobi.RANK_TOL`` are dropped before any inversion, so a zero tensor
    yields an empty (r = 0) decomposition rather than an error.
    """
    _require_groups(a, 2, "decompose_transform")
    shape_i, shape_j = a.group_shapes
    singulars, left, right, spectrum = _matrix_svd(unfold(a.tensor, a.group_orders[0]).data)
    return TransformDecomposition(
        singulars=singulars,
        u=_as_rows(left),
        v=_as_rows(right),
        left_shape=shape_i,
        right_shape=shape_j,
        spectrum=spectrum,
    )


def decompose_triple(a):
    """Two-stage decomposition of a three-group tensor.

    Stage one is the SVD of the (I x JK) unfolding, giving weights
    ``sigma``, the U basis over I and the couplings ``V_p = A . U_p /
    sigma_p`` over J x K.  Stage two is the SVD of the couplings arranged
    as one (J x K r1) matrix, giving ``gamma``, the Z basis over J, and as
    its right columns the joint W tensor over K x r1 x r2.  Each stage
    diagonalizes the Gram on the smaller side of its matrix.  Components
    are the flattened (p, s) pairs with weights ``sigma_p * gamma_s``,
    sorted non-increasing with lexicographic (p, s) tie-breaks.
    """
    _require_groups(a, 3, "decompose_triple")
    shape_j, shape_k = a.group_shapes[1:]
    sigma, u_cols, v_cols, _ = _matrix_svd(unfold(a.tensor, a.group_orders[0]).data)
    r1 = len(sigma)
    # Row j of the stage-two matrix holds V_p[j, k] at column (k, p), so row
    # (k, p) of its right columns is the W fiber over K of each pair (p, s).
    gamma, z_cols, w_cols, _ = _matrix_svd(
        v_cols.reshape(math.prod(shape_j), math.prod(shape_k) * r1)
    )
    r2 = len(gamma)

    # Flatten (p, s) pairs, s fastest; a stable sort by weight descending
    # keeps equal weights in lexicographic (p, s) order, so truncation by
    # count is meaningful.
    products = np.outer(sigma, gamma).ravel()
    order = np.argsort(-products, kind="stable")
    return TripleDecomposition(
        weights=products[order],
        pair_map=np.stack(np.unravel_index(order, (r1, r2)), axis=1),
        u=_as_rows(u_cols),
        z=_as_rows(z_cols),
        w=w_cols.reshape(math.prod(shape_k), r1 * r2).T[order],
        shapes=a.group_shapes,
        sigma=sigma,
        gamma=gamma,
    )


def component_count(decomposition):
    """Number of stored components (r, or M for a triple decomposition)."""
    return len(decomposition.terms()[0])


def reconstructed_dims(decomposition):
    """Dims of the tensor the decomposition reproduces."""
    return sum((shape for *_, shape in decomposition.terms()[1]), ())


def _blocks(count):
    # Slices of at most TERM_BLOCK consecutive components covering [0, count).
    return [
        slice(lo, min(lo + TERM_BLOCK, count)) for lo in range(0, count, TERM_BLOCK)
    ]


def _rows(family, rows):
    # The factors of the components in `rows`, one flattened factor a row.
    stack, index, _ = family
    return stack[index[rows]]


def _grouped(weights, families, rows):
    # The components in `rows` grouped by first-family row: the distinct
    # rows `keys` and C, whose row g sums the weighted outer products of the
    # group's other factors, so that F_1[keys]^T C is their sum.  Last-family
    # rows are added into one slab per group at their middle-family (a
    # triple's Z) row, and Z^T multiplies all slabs at once; a slab is no
    # larger than its row of C while Z has at most J rows.
    (_, index, _), *middle, last = families
    keys, group = np.unique(index[rows], return_inverse=True)
    shape = (len(keys),) + tuple(len(s) for s, _, _ in middle) + last[0].shape[1:]
    at = (group,) + tuple(i[rows] for _, i, _ in middle)
    slot = np.ravel_multi_index(at, shape[:-1])
    flat = (slot[:, None] * shape[-1] + np.arange(shape[-1])).ravel()
    weighted = weights[rows, None] * _rows(last, rows)
    joint = np.bincount(flat, weighted.ravel(), math.prod(shape)).reshape(shape)
    for stack, _, _ in middle:
        joint = stack.T @ joint
    return keys, joint.reshape(len(keys), math.prod(joint.shape[1:]))


def _sum_terms(weights, families, count):
    # Sum of the leading `count` terms as an (N_1 x rest) matrix.
    keys, c = _grouped(weights, families, slice(0, count))
    return families[0][0][keys].T @ c


def reconstruct(decomposition, keep=None):
    """Sum of the leading ``keep`` components (all of them by default).

    ``keep=0`` returns the zero tensor of the original shape; the full count
    reproduces the decomposed input to floating point accuracy.  Components
    are summed per distinct first-family row (a triple's r1 U rows): each
    row's coefficient over the other families is formed first, and the sum
    is one matrix product of the rows with those coefficients.
    """
    weights, families = decomposition.terms()
    keep = len(weights) if keep is None else _integer(keep, InvalidKeep, "keep")
    if not 0 <= keep <= len(weights):
        raise InvalidKeep(f"keep {keep} not in [0, {len(weights)}]")
    acc = _sum_terms(weights, families, keep)
    return DenseTensor(acc.reshape(reconstructed_dims(decomposition)), check_finite=False)


def residual_curve(a, decomposition):
    """Relative reconstruction error after each truncation depth.

    Entry k is (k, ||A - S_k|| / ||A||), S_k being the sum of the k leading
    terms; an all-zero input yields [(0, 0.0)] by the 0/0 -> 0 convention,
    as in ``core.relative_error``.  The curve is monotone non-increasing
    because distinct components are mutually orthogonal.

    No partial sum is subtracted from A.  From R = A - S_M (M the count),
    the exact identity for term t_m

        ||A - S_m||^2 = ||A - S_(m+1)||^2 + ||t_m||^2 + 2 <t_m, A - S_(m+1)>

    runs backwards a block at a time, so each point is ||R||^2 plus the
    small increments after it.  A block's later terms enter through its
    term Gram, and A - S_hi only through P = F_1 (A - S_hi) (r1 x rest, no
    orthonormality assumed): <t_m, A - S_hi> is w_m times P[p_m] paired with
    t_m's other factors, and each block adds (F_1 F_1^T)[:, keys] C to P.
    """
    reference = a.tensor
    if not reference.data.any():
        return [(0, 0.0)]
    weights, families = decomposition.terms()
    count = len(weights)
    # The sums run on A and the weights scaled by a power of two to below 1,
    # as in core.norm, so squares of a tiny A do not underflow and those of
    # weights far above A do not overflow.  The curve is a ratio, so wherever
    # the squares are normal floats it is the unscaled one bit for bit.
    top = max(float(np.abs(reference.data).max()), float(np.abs(weights).max(initial=0.0)))
    exponent = math.frexp(top)[1]
    weights = np.ldexp(weights, -exponent)
    scale = math.ldexp(norm(reference), -exponent)
    first, index, _ = families[0]
    resid = _sum_terms(weights, families, count)
    np.subtract(np.ldexp(reference.data, -exponent).reshape(resid.shape), resid, out=resid)
    resid2 = float(np.einsum("ij,ij->", resid, resid))  # as in core.norm
    first_gram = first @ first.T
    # drop[m] = ||A - S_m||^2 - ||A - S_(m+1)||^2; `proj` is F_1 (A - S_hi)
    # for the block [lo, hi) being visited.
    proj = first @ resid
    drop = np.empty(count)
    for rows in reversed(_blocks(count)):
        gram = np.outer(weights[rows], weights[rows])
        for f in families:
            gram *= _rows(f, rows) @ _rows(f, rows).T
        paired = proj[index[rows]]
        for f in families[1:-1]:
            middle = _rows(f, rows)
            paired = paired.reshape(len(middle), middle.shape[1], -1)
            paired = np.einsum("mj,mjk->mk", middle, paired)
        overlap = weights[rows] * (paired * _rows(families[-1], rows)).sum(axis=1)
        drop[rows] = np.diagonal(gram) + 2.0 * (overlap + np.triu(gram, 1).sum(axis=1))
        keys, c = _grouped(weights, families, rows)
        proj += first_gram[:, keys] @ c
    err2 = resid2 + np.append(np.cumsum(drop[::-1])[::-1], 0.0)
    errs = np.sqrt(np.maximum(err2[1:], 0.0)) / scale
    return [(0, 1.0)] + list(zip(range(1, count + 1), errs.tolist()))
