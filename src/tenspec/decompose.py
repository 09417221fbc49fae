"""Exact decompositions of grouped tensors.

Three procedures, all built on the same mechanism: linearize a mode group,
solve a symmetric eigenproblem there, and map the eigenvector columns back
to tensors.

* ``decompose_sa_nnd``: a self-adjoint non-negative definite operator over
  I x I is written as a weighted sum of outer products of orthonormal
  eigentensors.
* ``decompose_transform``: a transformation from R^J to R^I is written as a
  weighted sum of outer products of left/right orthonormal factor tensors,
  the weights being the singular values of its unfolding.
* ``decompose_triple``: a three-group tensor is factored in two stages (an
  eigenproblem over I, then one over J) into weights and three factor
  families indexed by a flattened pair index.

Reconstruction from the full factor set reproduces the input to floating
point accuracy; truncating to the leading components gives the best-aligned
partial sums since distinct terms are mutually orthogonal.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import jacobi
from .core import DenseTensor, Shape, contract, norm, unfold
from .errors import (
    GroupingMismatch,
    InvalidKeep,
    NotNND,
    NotSelfAdjoint,
    ShapeMismatch,
)

SELF_ADJOINT_TOL = 1e-10
RANK_TOL = jacobi.RANK_TOL


class GroupedTensor:
    """A tensor whose modes are partitioned into 2 or 3 contiguous groups."""

    __slots__ = ("tensor", "group_orders")

    def __init__(self, tensor, group_orders):
        group_orders = tuple(int(g) for g in group_orders)
        if len(group_orders) not in (2, 3):
            raise GroupingMismatch(
                f"need 2 or 3 groups, got {len(group_orders)}"
            )
        if any(g < 1 for g in group_orders):
            raise GroupingMismatch(f"every group needs a mode, got {group_orders}")
        if sum(group_orders) != tensor.order:
            raise GroupingMismatch(
                f"groups {group_orders} do not partition order {tensor.order}"
            )
        self.tensor = tensor
        self.group_orders = group_orders

    @property
    def group_count(self):
        return len(self.group_orders)

    @property
    def group_shapes(self):
        shapes = []
        start = 0
        for g in self.group_orders:
            shapes.append(Shape(self.tensor.dims[start : start + g]))
            start += g
        return tuple(shapes)

    def positions(self, group):
        """Mode positions of one group within the tensor."""
        start = sum(self.group_orders[:group])
        return tuple(range(start, start + self.group_orders[group]))

    def __repr__(self):
        return f"GroupedTensor(dims={self.tensor.dims}, groups={self.group_orders})"


class SelfAdjointCheck(NamedTuple):
    ok: bool
    max_asymmetry: float
    reason: Optional[str] = None

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class OperatorDecomposition:
    """Eigenvalues and orthonormal eigentensors of an SA-NND operator.

    ``eigenvalues`` holds the kept (above-threshold) spectrum, descending;
    ``spectrum`` the full pre-truncation spectrum for reporting.
    """

    eigenvalues: np.ndarray
    eigentensors: list
    operand_shape: Shape
    spectrum: np.ndarray

    @property
    def rank(self):
        return len(self.eigenvalues)


@dataclass(frozen=True)
class TransformDecomposition:
    """Singular values with left (over I) and right (over J) factor tensors."""

    singulars: np.ndarray
    left: list
    right: list
    left_shape: Shape
    right_shape: Shape
    spectrum: np.ndarray

    @property
    def rank(self):
        return len(self.singulars)


@dataclass(frozen=True)
class RawTriple:
    """Stage outputs of the triple decomposition before pair flattening.

    ``sigma``/``u_basis`` come from the eigenproblem over I, ``gamma``/
    ``z_basis`` from the one over J.  ``coupling[p]`` is the stage-one
    factor over J x K paired with ``sigma[p]``; ``w_joint`` is the order-
    (f+2) tensor over K x r1 x r2 whose fibers become the W factors (None
    for an empty decomposition).  ``pair_map[m] = (p, s)`` records the
    flattening, zero-based, in final (sorted) component order.
    """

    sigma: np.ndarray
    gamma: np.ndarray
    u_basis: list
    z_basis: list
    coupling: list
    w_joint: Optional[DenseTensor]
    pair_map: np.ndarray


@dataclass(frozen=True)
class TripleDecomposition:
    """Weights and three factor families for a three-group tensor.

    Component m contributes ``weights[m] * factors_u[m] o factors_z[m] o
    factors_w[m]``; weights are stored as the exact products
    ``sigma[pair_map[m, 0]] * gamma[pair_map[m, 1]]``, sorted non-increasing
    with lexicographic (p, s) tie-breaks.
    """

    weights: np.ndarray
    factors_u: list
    factors_z: list
    factors_w: list
    shapes: tuple
    raw: Optional[RawTriple]

    @property
    def count(self):
        return len(self.weights)

    @property
    def pair_map(self):
        return self.raw.pair_map

    @property
    def spectrum(self):
        return self.weights


def _require_groups(a, n, what):
    if a.group_count != n:
        raise GroupingMismatch(f"{what} needs {n} groups, got {a.group_count}")


def apply_operator(a, x):
    """Apply a two-group tensor to x by contracting the second group."""
    _require_groups(a, 2, "apply_operator")
    shapes = a.group_shapes
    if x.dims != shapes[1].dims:
        raise ShapeMismatch(
            f"operand shape {x.dims} does not match second group {shapes[1].dims}"
        )
    return contract(a.tensor, x, a.positions(1), tuple(range(x.order)))


def gram_operator(a, side="right"):
    """Self-adjoint non-negative operator built from a two-group tensor.

    ``right`` contracts the first group of both copies, giving an operator
    over J x J; ``left`` contracts the second group, giving one over I x I.
    """
    _require_groups(a, 2, "gram_operator")
    if side == "right":
        axes = a.positions(0)
        order = a.group_orders[1]
    elif side == "left":
        axes = a.positions(1)
        order = a.group_orders[0]
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return GroupedTensor(contract(a.tensor, a.tensor, axes, axes), (order, order))


def is_self_adjoint(a, tol=SELF_ADJOINT_TOL):
    """Predicate: does swapping the two groups leave the tensor unchanged?

    Returns a (ok, max_asymmetry, reason) tuple that is truthy iff ok.
    Mismatched group shapes report ok=False rather than raising.
    """
    _require_groups(a, 2, "is_self_adjoint")
    shapes = a.group_shapes
    if shapes[0].dims != shapes[1].dims:
        return SelfAdjointCheck(
            False, math.inf, f"group shapes differ: {shapes[0].dims} vs {shapes[1].dims}"
        )
    m = unfold(a.tensor, a.group_orders[0]).data
    asym = float(np.abs(m - m.T).max())
    scale = float(np.abs(m).max())
    if asym > tol * scale:
        return SelfAdjointCheck(
            False, asym, f"max asymmetry {asym:.3e} exceeds {tol:.1e} * max entry"
        )
    return SelfAdjointCheck(True, asym)


def _columns_to_tensors(vectors, count, shape):
    shape = Shape(shape) if not isinstance(shape, Shape) else shape
    return [
        DenseTensor(np.ascontiguousarray(vectors[:, p]).reshape(shape.dims),
                    check_finite=False)
        for p in range(count)
    ]


def decompose_sa_nnd(a, rank_tol=RANK_TOL, sym_tol=SELF_ADJOINT_TOL):
    """Spectral decomposition of a self-adjoint non-negative operator.

    The operator is linearized over its (equal) groups, the resulting
    symmetric matrix is diagonalized, and eigenvector columns above the rank
    threshold are mapped back to eigentensors over I.  The input must be
    self-adjoint within ``sym_tol`` (the eigensolver symmetrizes it
    exactly); an eigenvalue below ``-rank_tol * lambda_1`` raises NotNND.
    """
    _require_groups(a, 2, "decompose_sa_nnd")
    check = is_self_adjoint(a, sym_tol)
    if not check:
        raise NotSelfAdjoint(check.reason)
    d = a.group_orders[0]
    shape_i = a.group_shapes[0]
    m = unfold(a.tensor, d).data
    eig = jacobi.sym_eig(m, sym_tol=sym_tol, rank_tol=rank_tol)
    lam = eig.eigenvalues
    floor = -rank_tol * max(float(lam[0]), 0.0)
    if float(lam[-1]) < floor:
        raise NotNND(
            f"eigenvalue {lam[-1]:.6e} below {floor:.3e}; operator is not "
            "non-negative definite"
        )
    r = eig.rank
    return OperatorDecomposition(
        eigenvalues=lam[:r].copy(),
        eigentensors=_columns_to_tensors(eig.vectors, r, shape_i),
        operand_shape=shape_i,
        spectrum=lam,
    )


def decompose_transform(a, rank_tol=RANK_TOL):
    """Singular-value style decomposition of a two-group tensor.

    The Gram operator over the smaller group (I x I when I has fewer
    elements than J, otherwise J x J) is diagonalized: its eigenvalues are
    the squared weights and its eigenvectors that group's factors.  The
    other group's factors follow as ``A . X_p / s_p``, contracting the
    solved group.  ``spectrum`` holds the min(I, J) singular values, the
    count that exists.  Components whose Gram eigenvalue falls below the
    rank threshold are dropped before any inversion, so a zero tensor
    yields an empty (r = 0) decomposition rather than an error.
    """
    _require_groups(a, 2, "decompose_transform")
    shape_i, shape_j = a.group_shapes
    solve_left = shape_i.element_count < shape_j.element_count
    side, group = ("left", 0) if solve_left else ("right", 1)
    g = gram_operator(a, side=side)
    gm = unfold(g.tensor, g.group_orders[0]).data
    eig = jacobi.sym_eig(gm, rank_tol=rank_tol)
    r = eig.rank
    singulars = np.sqrt(eig.eigenvalues[:r])
    solved = _columns_to_tensors(eig.vectors, r, a.group_shapes[group])
    axes = a.positions(group)
    mapped = [
        contract(a.tensor, x, axes, tuple(range(x.order))) * (1.0 / s)
        for x, s in zip(solved, singulars)
    ]
    left, right = (solved, mapped) if solve_left else (mapped, solved)
    return TransformDecomposition(
        singulars=singulars,
        left=left,
        right=right,
        left_shape=shape_i,
        right_shape=shape_j,
        spectrum=np.sqrt(np.clip(eig.eigenvalues, 0.0, None)),
    )


def decompose_triple(a, rank_tol=RANK_TOL):
    """Two-stage decomposition of a three-group tensor.

    Stage one diagonalizes the operator over I obtained by contracting the
    J and K groups of two copies, giving weights ``sigma`` and the U basis;
    the couplings ``V_p = A . U_p / sigma_p`` live over J x K.  Stage two
    diagonalizes the operator over J built from the couplings, giving
    ``gamma`` and the Z basis, and the joint W tensor carries what remains.
    Components are the flattened (p, s) pairs with weights
    ``sigma_p * gamma_s``, sorted non-increasing.
    """
    _require_groups(a, 3, "decompose_triple")
    shape_i, shape_j, shape_k = a.group_shapes
    d, e, f = a.group_orders

    # Stage one: eigenproblem over I (contract both trailing groups).
    two_group = GroupedTensor(a.tensor, (d, e + f))
    op1 = gram_operator(two_group, side="left")
    m1 = unfold(op1.tensor, d).data
    eig1 = jacobi.sym_eig(m1, rank_tol=rank_tol)
    r1 = eig1.rank
    sigma = np.sqrt(eig1.eigenvalues[:r1])
    u_basis = _columns_to_tensors(eig1.vectors, r1, shape_i)
    i_axes = two_group.positions(0)
    coupling = [
        contract(a.tensor, u, i_axes, tuple(range(u.order))) * (1.0 / s)
        for u, s in zip(u_basis, sigma)
    ]

    # Stage two: eigenproblem over J, summing the couplings' K modes.
    l_j = shape_j.element_count
    k_axes_in_coupling = tuple(range(e, e + f))
    h = np.zeros((l_j, l_j))
    for v in coupling:
        part = contract(v, v, k_axes_in_coupling, k_axes_in_coupling)
        h += part.data.reshape(l_j, l_j)
    eig2 = jacobi.sym_eig(h, rank_tol=rank_tol)
    r2 = eig2.rank
    gamma = np.sqrt(eig2.eigenvalues[:r2])
    z_basis = _columns_to_tensors(eig2.vectors, r2, shape_j)

    # Joint W over K x r1 x r2: coupling against Z, scaled by 1/gamma.
    j_axes_in_coupling = tuple(range(e))
    w_joint = np.zeros(shape_k.dims + (r1, r2))
    for p, v in enumerate(coupling):
        for s, z in enumerate(z_basis):
            slab = contract(v, z, j_axes_in_coupling, tuple(range(z.order)))
            w_joint[..., p, s] = slab.data * (1.0 / gamma[s])

    # Flatten (p, s) pairs, s fastest, then sort by weight descending with
    # lexicographic tie-breaks so truncation by count is meaningful.
    pairs = [(p, s) for p in range(r1) for s in range(r2)]
    weights = np.array([sigma[p] * gamma[s] for p, s in pairs])
    order = sorted(range(len(pairs)), key=lambda m: (-weights[m], pairs[m]))
    pair_map = np.array([pairs[m] for m in order], dtype=np.intp).reshape(-1, 2)
    weights = weights[order] if len(order) else weights

    factors_u = [u_basis[p] for p, _ in pair_map]
    factors_z = [z_basis[s] for _, s in pair_map]
    factors_w = [
        DenseTensor(np.ascontiguousarray(w_joint[..., p, s]), check_finite=False)
        for p, s in pair_map
    ]
    raw = RawTriple(
        sigma=sigma,
        gamma=gamma,
        u_basis=u_basis,
        z_basis=z_basis,
        coupling=coupling,
        w_joint=DenseTensor(w_joint, check_finite=False) if w_joint.size else None,
        pair_map=pair_map,
    )
    return TripleDecomposition(
        weights=weights,
        factors_u=factors_u,
        factors_z=factors_z,
        factors_w=factors_w,
        shapes=(shape_i, shape_j, shape_k),
        raw=raw,
    )


def component_count(decomposition):
    """Number of stored components (r, or M for a triple decomposition)."""
    if isinstance(decomposition, OperatorDecomposition):
        return decomposition.rank
    if isinstance(decomposition, TransformDecomposition):
        return decomposition.rank
    if isinstance(decomposition, TripleDecomposition):
        return decomposition.count
    raise TypeError(f"not a decomposition result: {type(decomposition).__name__}")


def _terms(decomposition):
    # (weight, factor tensors) per component, in stored order.
    if isinstance(decomposition, OperatorDecomposition):
        for lam, u in zip(decomposition.eigenvalues, decomposition.eigentensors):
            yield float(lam), (u, u)
    elif isinstance(decomposition, TransformDecomposition):
        for s, u, v in zip(
            decomposition.singulars, decomposition.left, decomposition.right
        ):
            yield float(s), (u, v)
    elif isinstance(decomposition, TripleDecomposition):
        for lam, u, z, w in zip(
            decomposition.weights,
            decomposition.factors_u,
            decomposition.factors_z,
            decomposition.factors_w,
        ):
            yield float(lam), (u, z, w)
    else:
        raise TypeError(f"not a decomposition result: {type(decomposition).__name__}")


def reconstructed_dims(decomposition):
    """Dims of the tensor the decomposition reproduces."""
    if isinstance(decomposition, OperatorDecomposition):
        dims = decomposition.operand_shape.dims
        return dims + dims
    if isinstance(decomposition, TransformDecomposition):
        return decomposition.left_shape.dims + decomposition.right_shape.dims
    if isinstance(decomposition, TripleDecomposition):
        i, j, k = decomposition.shapes
        return i.dims + j.dims + k.dims
    raise TypeError(f"not a decomposition result: {type(decomposition).__name__}")


def reconstruct(decomposition, keep=None):
    """Sum of the leading ``keep`` components (all of them by default).

    ``keep=0`` returns the zero tensor of the original shape; the full count
    reproduces the decomposed input to floating point accuracy.
    """
    count = component_count(decomposition)
    if keep is None:
        keep = count
    keep = int(keep)
    if not 0 <= keep <= count:
        raise InvalidKeep(f"keep {keep} not in [0, {count}]")
    acc = np.zeros(reconstructed_dims(decomposition))
    for m, (weight, factors) in enumerate(_terms(decomposition)):
        if m >= keep:
            break
        term = factors[0].data
        for factor in factors[1:]:
            term = np.multiply.outer(term, factor.data)
        acc += weight * term
    return DenseTensor(acc, check_finite=False)


def residual_curve(a, decomposition):
    """Relative reconstruction error after each truncation depth.

    Entry k is (k, ||A - sum of k leading terms|| / ||A||); a zero input
    yields [(0, 0.0)] by the 0/0 -> 0 convention.  The curve is monotone
    non-increasing because distinct components are mutually orthogonal.
    """
    reference = a.tensor
    scale = norm(reference)
    if scale == 0.0:
        return [(0, 0.0)]
    count = component_count(decomposition)
    acc = np.zeros(reference.dims)
    curve = [(0, 1.0)]
    for k, (weight, factors) in enumerate(_terms(decomposition), start=1):
        term = factors[0].data
        for factor in factors[1:]:
            term = np.multiply.outer(term, factor.data)
        acc += weight * term
        err = norm(DenseTensor(reference.data - acc, check_finite=False)) / scale
        curve.append((k, err))
        if k >= count:
            break
    return curve
