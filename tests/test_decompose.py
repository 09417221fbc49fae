"""The three decomposition procedures and their supporting operators."""

import dataclasses
import math

import numpy as np
import pytest

from tenspec import (
    DenseTensor,
    GroupedTensor,
    component_count,
    decompose_sa_nnd,
    decompose_transform,
    decompose_triple,
    gram_operator,
    jacobi,
    norm,
    random_tensor,
    reconstruct,
    residual_curve,
    sym_eig,
    unfold,
)
from tenspec.core import relative_error
from tenspec.decompose import TERM_BLOCK, TripleDecomposition
from tenspec.errors import (
    GroupingMismatch,
    InvalidKeep,
    NotNND,
    NotSelfAdjoint,
    NotSymmetric,
    TenspecError,
)

from helpers import ortho_err, rel_err, stage_identity_errors, unit


def identity_operator(dims):
    count = int(np.prod(dims))
    return GroupedTensor(
        DenseTensor(np.eye(count).reshape(dims + dims)), (len(dims), len(dims))
    )


# ---------------------------------------------------------- grouped tensor


def test_grouping_validation():
    t = random_tensor((2, 3, 4), 1)
    with pytest.raises(GroupingMismatch):
        GroupedTensor(t, (3,))
    with pytest.raises(GroupingMismatch):
        GroupedTensor(t, (1, 1))
    with pytest.raises(GroupingMismatch):
        GroupedTensor(t, (0, 3))
    g = GroupedTensor(t, (1, 2))
    assert g.group_shapes == ((2,), (3, 4))


def test_non_integer_extents_and_group_orders_are_refused():
    # Neither is truncated to an int; numpy integers, as `.shape` and
    # arrays give them, are integers.
    for extent in (2.5, 2.0, True, "2", None):
        with pytest.raises(ValueError, match="is not an integer"):
            random_tensor((extent, 3), 1)
    assert random_tensor((np.int64(2), 3), 1).dims == (2, 3)
    t = random_tensor((2, 3), 1)
    for order in (1.5, 1.0, True, "1", None):
        with pytest.raises(GroupingMismatch, match="is not an integer"):
            GroupedTensor(t, (order, 1))
    assert GroupedTensor(t, np.array([1, 1])).group_orders == (1, 1)


# ---------------------------------------------------------- gram operator


def test_gram_of_orthonormal_columns_is_identity():
    # Unfolded tensor with orthonormal columns: gram must be the identity.
    q = np.linalg.qr(np.random.Generator(np.random.PCG64(8)).random((6, 4)))[0]
    a = GroupedTensor(DenseTensor(q.reshape(2, 3, 4)), (2, 1))
    g = gram_operator(a, side="right")
    assert np.allclose(unfold(g.tensor, 1).data, np.eye(4), atol=1e-12)


def test_gram_of_zero_is_zero():
    a = GroupedTensor(DenseTensor(np.zeros((2, 2, 2))), (1, 2))
    g = gram_operator(a, side="right")
    assert not g.tensor.data.any()


def test_gram_matches_flat_loop_oracle():
    t = random_tensor((3, 2, 2), 9)
    a = GroupedTensor(t, (1, 2))
    g = gram_operator(a, side="right")
    gm = unfold(g.tensor, 2).data
    m = unfold(t, 1).data  # (3, 4)
    expected = [[sum(m[k][i] * m[k][j] for k in range(3)) for j in range(4)] for i in range(4)]
    assert np.allclose(gm, np.array(expected), rtol=1e-12, atol=1e-15)
    asym, limit = jacobi.asymmetry(gm)
    assert asym <= limit


def test_gram_left_side():
    t = random_tensor((3, 2, 2), 10)
    a = GroupedTensor(t, (1, 2))
    g = gram_operator(a, side="left")
    assert g.tensor.dims == (3, 3)
    m = unfold(t, 1).data
    assert np.allclose(g.tensor.data, m @ m.T, rtol=1e-12, atol=1e-15)


def test_gram_rayleigh_quotients_non_negative():
    t = random_tensor((2, 2, 3), 11)
    g = gram_operator(GroupedTensor(t, (2, 1)), side="right")
    m = unfold(g.tensor, 1).data
    for seed in range(10):
        v = random_tensor((3,), 100 + seed).values
        assert v @ m @ v >= -1e-12


def test_gram_bad_side():
    with pytest.raises(ValueError):
        gram_operator(GroupedTensor(random_tensor((2, 2), 1), (1, 1)), side="up")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("side", ["right", "left"])
def test_gram_operator_refuses_an_overflowing_gram(side):
    # The input is finite, its Gram is not: refused as _matrix_svd refuses
    # it, with no overflow warning from numpy on the way.
    a = GroupedTensor(DenseTensor(random_tensor((12, 5, 4), 3).data * 1e160), (1, 2))
    with pytest.raises(TenspecError, match="Gram of the unfolding is not representable"):
        gram_operator(a, side=side)


# ---------------------------------------------------------- self-adjointness


def test_self_adjoint_of_gram_output():
    g = gram_operator(GroupedTensor(random_tensor((2, 3, 3), 12), (1, 2)), "right")
    asym, limit = jacobi.asymmetry(unfold(g.tensor, 2).data)
    assert asym <= limit
    assert asym <= 1e-15


def test_self_adjoint_constructed_violation():
    arr = np.zeros((2, 2, 2, 2))
    arr[0, 0, 0, 1] = 1.0
    with pytest.raises(NotSelfAdjoint) as exc:
        decompose_sa_nnd(GroupedTensor(DenseTensor(arr), (2, 2)))
    assert str(exc.value) == "max asymmetry 1.000e+00 * max entry exceeds 1.0e-10 * max entry"
    assert exc.value.__cause__.asymmetry == 1.0


def test_self_adjoint_after_symmetrizing():
    t = random_tensor((2, 2, 2, 2), 13)
    sym = 0.5 * (t.data + np.transpose(t.data, (2, 3, 0, 1)))
    asym, limit = jacobi.asymmetry(sym.reshape(4, 4))
    assert asym <= limit


def test_self_adjoint_group_shape_mismatch():
    # Equal element counts, so the unfolding is square; the shapes differ.
    a = GroupedTensor(random_tensor((2, 3, 6), 14), (2, 1))
    with pytest.raises(NotSelfAdjoint) as exc:
        decompose_sa_nnd(a)
    assert str(exc.value) == "group shapes differ: (2, 3) vs (6,)"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_self_adjoint_refuses_non_finite_operators(bad):
    # NaN compares false and an infinite entry makes the bound infinite, so
    # neither may reach the asymmetry measurement: the eigensolver's own
    # check refuses them first.
    for entries in ([[1.0, bad], [bad, 1.0]], [[1.0, bad], [0.0, 1.0]]):
        a = GroupedTensor(DenseTensor(entries, check_finite=False), (1, 1))
        with pytest.raises(NotSymmetric) as exc:
            decompose_sa_nnd(a)
        assert str(exc.value) == "matrix has non-finite entries"


# -------------------------------------------------------- decompose_sa_nnd


def test_sa_nnd_identity_operator():
    a = identity_operator((2, 2))
    dec = decompose_sa_nnd(a)
    assert dec.rank == 4
    assert np.allclose(dec.eigenvalues, np.ones(4), atol=1e-12)
    assert rel_err(a.tensor, reconstruct(dec)) <= 1e-12


def test_sa_nnd_rank_one():
    u = unit((3, 2), 15)
    a = GroupedTensor(DenseTensor(5.0 * np.multiply.outer(u.data, u.data)), (2, 2))
    dec = decompose_sa_nnd(a)
    assert dec.rank == 1
    assert dec.eigenvalues[0] == pytest.approx(5.0, rel=1e-12)
    overlap = abs(np.dot(dec.eigentensors[0].values, u.values))
    assert overlap == pytest.approx(1.0, abs=1e-10)
    assert rel_err(a.tensor, reconstruct(dec)) <= 1e-10


def test_sa_nnd_rejects_asymmetric():
    arr = np.zeros((2, 2, 2, 2))
    arr[0, 0, 0, 1] = 1.0
    asymmetric = GroupedTensor(DenseTensor(arr), (2, 2))
    # Unequal group shapes are refused as well, before any eigensolve.
    unequal = GroupedTensor(random_tensor((2, 3), 14), (1, 1))
    for a, message in (
        (asymmetric, "max asymmetry 1.000e+00 * max entry exceeds 1.0e-10 * max entry"),
        (unequal, "group shapes differ: (2,) vs (3,)"),
    ):
        with pytest.raises(NotSelfAdjoint) as exc:
            decompose_sa_nnd(a)
        assert str(exc.value) == message


def test_sa_nnd_measures_asymmetry_once(monkeypatch):
    # The eigensolver's own symmetry check is the only measurement, on the
    # accepted path and on the refused one.
    measure, calls = jacobi.asymmetry, []
    monkeypatch.setattr(jacobi, "asymmetry", lambda m: calls.append(m.shape) or measure(m))
    src = GroupedTensor(random_tensor((3, 2, 3, 2), 5), (2, 2))
    decompose_sa_nnd(gram_operator(src, side="right"))
    assert calls == [(6, 6)]
    with pytest.raises(NotSelfAdjoint):
        decompose_sa_nnd(src)
    assert calls == [(6, 6)] * 2


def test_sa_nnd_rejects_indefinite():
    a = GroupedTensor(DenseTensor(np.diag([1.0, -1.0])), (1, 1))
    with pytest.raises(NotNND):
        decompose_sa_nnd(a)


def test_sa_nnd_gram_built_operator():
    src = GroupedTensor(random_tensor((4, 3, 4, 3), 16), (2, 2))
    a = gram_operator(src, side="right")
    dec = decompose_sa_nnd(a)
    assert dec.spectrum[-1] >= -1e-10 * dec.spectrum[0]
    assert rel_err(a.tensor, reconstruct(dec)) <= 1e-8
    # eigentensor equation residual, per component
    top = max(1.0, float(dec.eigenvalues[0]))
    m = unfold(a.tensor, 2).data
    for lam, u in zip(dec.eigenvalues, dec.eigentensors):
        resid = np.linalg.norm(m @ u.values - float(lam) * u.values)
        assert resid <= 1e-8 * top
    assert ortho_err(dec.vectors) <= 1e-10


def test_sa_nnd_equals_matrix_spectral_decomposition():
    src = GroupedTensor(random_tensor((2, 3, 2, 3), 17), (2, 2))
    a = gram_operator(src, side="right")
    dec = decompose_sa_nnd(a)
    meig = sym_eig(unfold(a.tensor, 2).data)
    assert np.abs(dec.spectrum - meig.eigenvalues).max() <= 1e-10 * max(
        1.0, float(meig.eigenvalues[0])
    )
    matrix_recon = (meig.vectors[:, : meig.rank] * meig.eigenvalues[: meig.rank]) @ (
        meig.vectors[:, : meig.rank].T
    )
    tensor_recon = unfold(reconstruct(dec), 2).data
    assert np.abs(tensor_recon - matrix_recon).max() <= 1e-10 * np.abs(matrix_recon).max()


def test_sa_nnd_distinct_eigenvalue_orthogonality():
    src = GroupedTensor(random_tensor((5, 5), 18), (1, 1))
    a = gram_operator(src, side="right")
    dec = decompose_sa_nnd(a)
    lam1 = float(dec.eigenvalues[0])
    for p in range(dec.rank):
        for q in range(p + 1, dec.rank):
            if abs(dec.eigenvalues[p] - dec.eigenvalues[q]) > 1e-6 * lam1:
                overlap = np.dot(dec.eigentensors[p].values, dec.eigentensors[q].values)
                assert abs(overlap) <= 1e-10


# ---------------------------------------------------- decompose_transform


def test_transform_rank_one():
    u = unit((4,), 19)
    v = unit((2, 2), 20)
    a = GroupedTensor(DenseTensor(3.0 * np.multiply.outer(u.data, v.data)), (1, 2))
    dec = decompose_transform(a)
    assert len(dec.singulars) == 1
    assert dec.singulars[0] == pytest.approx(3.0, rel=1e-12)
    assert abs(np.dot(dec.u[0], u.values)) == pytest.approx(1.0, abs=1e-10)
    assert abs(np.dot(dec.v[0], v.values)) == pytest.approx(1.0, abs=1e-10)
    assert rel_err(a.tensor, reconstruct(dec)) <= 1e-10


def test_transform_keeps_a_weight_spread_below_the_pivot_floor():
    # A = e1 e1^T + sqrt(c) e2 1^T (1000 x 1000, c = 0.9 n eps) has the Gram
    # e1 e1^T + c 1 1^T, whose Schur complement at the pivot floor is spread
    # over all its entries: the solve must not refuse it, and the second
    # weight, sqrt((n - 1) c), is kept.
    n = 1000
    c = 0.9 * n * np.finfo(np.float64).eps
    data = np.zeros((n, n))
    data[0, 0] = 1.0
    data[1] = math.sqrt(c)
    a = GroupedTensor(DenseTensor(data), (1, 1))
    dec = decompose_transform(a)
    assert len(dec.singulars) == 2
    assert dec.singulars[1] == pytest.approx(math.sqrt((n - 1) * c), rel=1e-6)
    assert rel_err(a.tensor, reconstruct(dec)) <= 1e-12


def test_transform_zero_tensor():
    a = GroupedTensor(DenseTensor(np.zeros((3, 2, 2))), (1, 2))
    dec = decompose_transform(a)
    assert len(dec.singulars) == 0
    assert dec.u.shape == (0, 3) and dec.v.shape == (0, 4)
    assert not reconstruct(dec).data.any()


def test_transform_random_properties():
    a = GroupedTensor(random_tensor((5, 3, 2), 21), (1, 2))
    dec = decompose_transform(a)
    assert rel_err(a.tensor, reconstruct(dec)) <= 1e-8
    for family in (dec.u, dec.v):
        assert ortho_err(family) <= 1e-10
    # weight identity: s_p = <U_p, A . V_p>
    m = unfold(a.tensor, 1).data
    for s, u, v in zip(dec.singulars, dec.u, dec.v):
        got = u @ m @ v
        assert got == pytest.approx(float(s), rel=1e-8)
    # spectrum of the right gram operator gives the squared weights
    g = gram_operator(a, side="right")
    geig = sym_eig(unfold(g.tensor, 2).data)
    assert np.allclose(
        dec.singulars**2, geig.eigenvalues[: len(dec.singulars)], rtol=0, atol=1e-10 * geig.eigenvalues[0]
    )


@pytest.mark.parametrize("dims, groups", [((3, 4, 5), (1, 2)), ((6, 2, 3), (2, 1))])
def test_transform_solves_smaller_side(monkeypatch, dims, groups):
    from tenspec.decompose import jacobi

    orders = []
    solve = jacobi.sym_eig

    def recording(a, *args, **kwargs):
        orders.append(np.shape(a)[0])
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(jacobi, "sym_eig", recording)
    a = GroupedTensor(random_tensor(dims, 25), groups)
    dec = decompose_transform(a)
    smaller = min(math.prod(s) for s in a.group_shapes)
    assert orders == [smaller]
    assert len(dec.spectrum) == smaller
    for family in (dec.u, dec.v):
        assert ortho_err(family) <= 1e-12
    assert rel_err(a.tensor, reconstruct(dec)) <= 1e-12


# ------------------------------------------------------- decompose_triple


def test_triple_rank_one():
    u = unit((2,), 22)
    z = unit((3,), 23)
    w = unit((2,), 24)
    t = DenseTensor(6.0 * np.multiply.outer(np.multiply.outer(u.data, z.data), w.data))
    dec = decompose_triple(GroupedTensor(t, (1, 1, 1)))
    assert dec.count == 1
    assert dec.weights[0] == pytest.approx(6.0, rel=1e-12)
    for factors, x in ((dec.factors_u, u), (dec.factors_z, z), (dec.factors_w, w)):
        assert abs(np.dot(factors[0].values, x.values)) == pytest.approx(1.0, abs=1e-10)
    assert rel_err(t, reconstruct(dec)) <= 1e-10


def test_triple_zero_tensor():
    dec = decompose_triple(GroupedTensor(DenseTensor(np.zeros((2, 2, 2))), (1, 1, 1)))
    assert dec.count == 0
    assert dec.pair_map.shape == (0, 2)
    assert not reconstruct(dec).data.any()


def check_triple_contract(a, dec, recon_tol=1e-10):
    r1, r2 = len(dec.sigma), len(dec.gamma)
    # orthonormal bases
    for family in (dec.u, dec.z):
        assert ortho_err(family) <= 1e-10
    # joint W orthonormality: contraction over the K modes AND p
    w = dec.w_joint.data.reshape(-1, r1, r2)
    gw = np.einsum("kpr,kps->rs", w, w)
    assert np.abs(gw - np.eye(r2)).max() <= 1e-8
    # stage identities: A is the sigma-weighted sum of U x coupling, and
    # each coupling factor the gamma-weighted sum of Z x W fibers
    stage1_err, stage2_err = stage_identity_errors(a, dec)
    assert stage1_err <= 1e-8
    assert stage2_err <= 1e-8
    # flattening bookkeeping
    pairs = [tuple(row) for row in dec.pair_map]
    assert len(set(pairs)) == dec.count == r1 * r2
    assert set(pairs) == {(p, s) for p in range(r1) for s in range(r2)}
    for m, (p, s) in enumerate(pairs):
        assert dec.weights[m] == float(dec.sigma[p]) * float(dec.gamma[s])
    assert np.all(dec.weights[:-1] >= dec.weights[1:]) if dec.count else True
    # full reconstruction
    assert rel_err(a.tensor, reconstruct(dec)) <= recon_tol


def test_triple_random_single_mode_groups():
    a = GroupedTensor(random_tensor((4, 3, 2), 25), (1, 1, 1))
    check_triple_contract(a, decompose_triple(a))


def test_triple_random_multi_mode_groups():
    a = GroupedTensor(random_tensor((2, 2, 3, 2), 26), (2, 1, 1))
    dec = decompose_triple(a)
    assert dec.factors_u[0].dims == (2, 2)
    check_triple_contract(a, dec)


def test_triple_random_multi_mode_trailing_group():
    a = GroupedTensor(random_tensor((2, 3, 2, 2), 35), (1, 1, 2))
    dec = decompose_triple(a)
    assert dec.factors_w[0].dims == (2, 2)
    assert dec.w_joint.dims[:2] == (2, 2)
    check_triple_contract(a, dec)


@pytest.mark.parametrize(
    "dims, orders",
    [
        # Stage one: the (12 x 6) unfolding is solved on its 6 side.
        ((12, 2, 3), [6, 2]),
        # Stage two: the couplings form a (12 x r1*K) = (12 x 6) matrix.
        ((2, 12, 3), [2, 6]),
    ],
)
def test_triple_solves_smaller_sides(monkeypatch, dims, orders):
    from tenspec.decompose import jacobi

    seen = []
    solve = jacobi.sym_eig

    def recording(a, *args, **kwargs):
        seen.append(np.shape(a)[0])
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(jacobi, "sym_eig", recording)
    a = GroupedTensor(random_tensor(dims, 36), (1, 1, 1))
    dec = decompose_triple(a)
    assert seen == orders
    r1, r2 = len(dec.sigma), len(dec.gamma)
    for family in (dec.u, dec.z):
        assert ortho_err(family) <= 1e-12
    w = dec.w_joint.data.reshape(-1, r2)
    assert np.abs(w.T @ w - np.eye(r2)).max() <= 1e-12
    assert dec.count == r1 * r2
    assert rel_err(a.tensor, reconstruct(dec)) <= 1e-12


def test_triple_weight_tie_break_order():
    # Equal weights must come out in lexicographic (p, s) order.
    e0, e1 = np.eye(2)
    t = 2.0 * np.multiply.outer(np.multiply.outer(e0, e0), e0) + 2.0 * np.multiply.outer(
        np.multiply.outer(e1, e1), e0
    )
    dec = decompose_triple(GroupedTensor(DenseTensor(t), (1, 1, 1)))
    assert dec.count == 4
    pairs = [tuple(row) for row in dec.pair_map]
    assert pairs == sorted(pairs, key=lambda ps: (-float(dec.weights[pairs.index(ps)]), ps))


@pytest.mark.parametrize(
    "dims, seed",
    [((6, 5, 4), 71), ((64, 16, 3), 42)],
    ids=["random", "exp3-degenerate"],
)
def test_triple_leading_components_use_row_prefixes(dims, seed):
    # For every k, the p's (and the s's) of the first k components are
    # 0 .. P-1 for some P: a manifest truncated to k components needs only
    # the leading U and Z rows.  exp3's input has I = 64 >= JK = 48.
    dec = decompose_triple(GroupedTensor(random_tensor(dims, seed), (1, 1, 1)))
    assert dec.count == len(dec.u) * len(dec.z) > 1
    for column in dec.pair_map.T:
        first = np.zeros(dec.count, dtype=bool)
        first[np.unique(column, return_index=True)[1]] = True
        assert np.array_equal(np.maximum.accumulate(column) + 1, np.cumsum(first))


def test_record_surface():
    # Each result stores a factor family as one array of flattened factors;
    # the per-factor names below are read-only views of its rows, and the
    # weight fields can be swapped with dataclasses.replace.
    op = gram_operator(GroupedTensor(random_tensor((3, 2, 3, 2), 38), (2, 2)))
    tr = GroupedTensor(random_tensor((5, 2, 3), 39), (1, 2))
    tp = GroupedTensor(random_tensor((6, 4, 3), 40), (1, 1, 1))
    d_op = decompose_sa_nnd(op)
    d_tr = decompose_transform(tr)
    d_tp = decompose_triple(tp)
    r1, r2 = len(d_tp.sigma), len(d_tp.gamma)
    assert (d_op.rank, len(d_tr.singulars), d_tp.count) == (6, 5, r1 * r2)
    assert [f.name for f in dataclasses.fields(d_tp)] == [
        "weights", "pair_map", "u", "z", "w", "shapes", "sigma", "gamma"
    ]
    assert d_tp.raw is d_tp
    p, s = d_tp.pair_map.T
    assert np.array_equal(d_tp.weights, d_tp.sigma[p] * d_tp.gamma[s])
    # A family's shape is its group's dims: a tuple of ints.
    for dec, a in ((d_op, op), (d_tr, tr), (d_tp, tp)):
        shapes = tuple(shape for *_, shape in dec.terms()[1])
        assert shapes == a.group_shapes
        assert all(type(d) is int for shape in shapes for d in shape)
    views = [
        (d_op.eigentensors, d_op.vectors, np.arange(6), (3, 2)),
        (d_tp.factors_u, d_tp.u, p, (6,)),
        (d_tp.factors_z, d_tp.z, s, (4,)),
        (d_tp.factors_w, d_tp.w, np.arange(r1 * r2), (3,)),
        (d_tp.u_basis, d_tp.u, np.arange(r1), (6,)),
        (d_tp.z_basis, d_tp.z, np.arange(r2), (4,)),
    ]
    for tensors, rows, index, dims in views:
        assert len(tensors) == len(index)
        for t, k in zip(tensors, index):
            assert isinstance(t, DenseTensor) and t.dims == dims
            assert np.array_equal(t.values, rows[k])
    # U and Z factors are views of the r1 / r2 basis rows, not M copies.
    for tensors, rows in (
        (d_tp.factors_u, d_tp.u),
        (d_tp.factors_z, d_tp.z),
        (d_tp.u_basis, d_tp.u),
        (d_tp.z_basis, d_tp.z),
    ):
        assert all(np.shares_memory(t.data, rows) for t in tensors)
    # The joint W is w scattered by pair_map, the same bits in a new layout.
    scattered = np.zeros((3, r1, r2))
    scattered[:, p, s] = d_tp.w.T
    assert d_tp.w_joint.dims == (3, r1, r2)
    assert np.array_equal(d_tp.w_joint.data, scattered)
    for dec, field in ((d_op, "eigenvalues"), (d_tr, "singulars"), (d_tp, "weights")):
        doubled = dataclasses.replace(dec, **{field: 2.0 * getattr(dec, field)})
        assert np.array_equal(doubled.terms()[0], 2.0 * getattr(dec, field))
        assert np.allclose(reconstruct(doubled).data, 2.0 * reconstruct(dec).data)


def test_truncated_triple_record_has_zero_fibers_at_absent_pairs():
    # A kept prefix, as a --keep manifest holds it: no stage weights, and
    # the joint W is zero wherever a pair was cut.
    a = GroupedTensor(random_tensor((4, 3, 2, 2), 41), (1, 1, 2))
    dec = decompose_triple(a)
    keep = 5
    cut = TripleDecomposition(
        dec.weights[:keep], dec.pair_map[:keep], dec.u, dec.z, dec.w[:keep], dec.shapes
    )
    assert cut.sigma is None and cut.gamma is None
    assert cut.w_joint.dims == (2, 2, len(dec.u), len(dec.z))
    kept = np.zeros((len(dec.u), len(dec.z)), dtype=bool)
    kept[tuple(dec.pair_map[:keep].T)] = True
    joint = cut.w_joint.data.reshape(4, len(dec.u), len(dec.z))
    assert not joint[:, ~kept].any()
    assert np.array_equal(joint[:, kept], dec.w_joint.data.reshape(joint.shape)[:, kept])
    assert cut.u_basis[0].dims == (4,) and len(cut.z_basis) == len(dec.z)
    empty = decompose_triple(GroupedTensor(DenseTensor(np.zeros((2, 2, 2))), (1, 1, 1)))
    assert empty.w_joint is None


# ------------------------------------------------------------ reconstruct


def test_reconstruct_keep_zero():
    a = GroupedTensor(random_tensor((3, 2, 2), 27), (1, 2))
    dec = decompose_transform(a)
    zero = reconstruct(dec, 0)
    assert zero.dims == a.tensor.dims
    assert not zero.data.any()


def test_reconstruct_keep_validation():
    a = GroupedTensor(random_tensor((3, 4), 28), (1, 1))
    dec = decompose_transform(a)
    with pytest.raises(InvalidKeep):
        reconstruct(dec, -1)
    with pytest.raises(InvalidKeep):
        reconstruct(dec, len(dec.singulars) + 1)


def test_reconstruct_completeness_all_algorithms():
    src = GroupedTensor(random_tensor((2, 2, 2, 2), 29), (2, 2))
    op = gram_operator(src, side="right")
    assert rel_err(op.tensor, reconstruct(decompose_sa_nnd(op))) <= 1e-8
    tr = GroupedTensor(random_tensor((4, 3), 30), (1, 1))
    assert rel_err(tr.tensor, reconstruct(decompose_transform(tr))) <= 1e-8
    tp = GroupedTensor(random_tensor((3, 3, 2), 31), (1, 1, 1))
    assert rel_err(tp.tensor, reconstruct(decompose_triple(tp))) <= 1e-10


def explicit_terms(dec):
    # The terms in order, each built as its own outer product.
    if hasattr(dec, "eigentensors"):
        terms = zip(dec.eigenvalues, dec.eigentensors, dec.eigentensors)
    elif hasattr(dec, "singulars"):
        u = dec.u.reshape((-1,) + dec.left_shape)
        v = dec.v.reshape((-1,) + dec.right_shape)
        terms = zip(dec.singulars, map(DenseTensor, u), map(DenseTensor, v))
    else:
        terms = zip(dec.weights, dec.factors_u, dec.factors_z, dec.factors_w)
    for weight, *factors in terms:
        term = factors[0].data
        for f in factors[1:]:
            term = np.multiply.outer(term, f.data)
        yield float(weight) * term


def term_sum(dec, keep):
    # Explicit loop over the leading `keep` terms, one outer product each.
    acc = 0.0
    for _, term in zip(range(keep), explicit_terms(dec)):
        acc = acc + term
    return acc


def blocked_cases():
    # Component counts 137, 139 and 153: more than one block, not a
    # multiple of TERM_BLOCK.
    op = gram_operator(GroupedTensor(random_tensor((137, 10, 15), 35), (1, 2)))
    tr = GroupedTensor(random_tensor((139, 12, 15), 36), (1, 2))
    tp = GroupedTensor(random_tensor((17, 9, 20), 37), (1, 1, 1))
    cases = [
        (op, decompose_sa_nnd(op)),
        (tr, decompose_transform(tr)),
        (tp, decompose_triple(tp)),
    ]
    counts = [component_count(dec) for _, dec in cases]
    assert counts == [137, 139, 153]
    assert all(c > TERM_BLOCK and c % TERM_BLOCK for c in counts)
    return cases


def test_reconstruct_blocks_match_term_loop():
    for a, dec in blocked_cases():
        count = component_count(dec)
        scale = norm(a.tensor)
        for keep in (1, TERM_BLOCK - 1, TERM_BLOCK, TERM_BLOCK + 1, count):
            got = reconstruct(dec, keep).data
            assert np.abs(got - term_sum(dec, keep)).max() <= 1e-14 * scale


def check_every_keep(a, dec, monotone):
    # reconstruct and residual_curve at every keep against the explicit
    # partial sums, walked once.
    scale = norm(a.tensor)
    curve = residual_curve(a, dec)
    assert [k for k, _ in curve] == list(range(dec.count + 1))
    acc = np.zeros(a.tensor.dims)
    terms = explicit_terms(dec)
    for keep in range(dec.count + 1):
        if keep:
            acc += next(terms)
        assert np.abs(reconstruct(dec, keep).data - acc).max() <= 1e-14 * scale
        direct = np.sqrt(((a.tensor.data - acc) ** 2).sum()) / scale
        assert curve[keep][1] == pytest.approx(direct, rel=1e-10, abs=1e-14)
    errs = [e for _, e in curve]
    assert not monotone or all(errs[i] >= errs[i + 1] for i in range(dec.count))


def test_grouped_sums_with_mixed_unsorted_u_rows():
    # U rows mixed by a well-conditioned matrix (no longer orthonormal),
    # components shuffled so that equal p are scattered over both blocks,
    # and the last three U rows folded onto the first three, which repeats
    # some (p, s) pairs.  The terms stop being orthogonal, so only
    # exactness is checked.
    a, dec = blocked_cases()[2]
    rng = np.random.Generator(np.random.PCG64(39))
    r1 = len(dec.u)
    mix = np.eye(r1) + 0.5 / math.sqrt(r1) * rng.standard_normal((r1, r1))
    assert np.linalg.cond(mix) < 10.0
    order = rng.permutation(dec.count)
    mixed = dataclasses.replace(
        dec,
        u=mix @ dec.u,
        weights=dec.weights[order],
        pair_map=dec.pair_map[order] % [r1 - 3, len(dec.z)],
        w=dec.w[order],
    )
    assert np.abs(mixed.u @ mixed.u.T - np.eye(r1)).max() > 0.1
    assert np.any(np.diff(mixed.pair_map[:, 0]) < 0)
    assert len(np.unique(mixed.pair_map, axis=0)) < dec.count
    check_every_keep(a, mixed, monotone=False)


def test_grouped_sums_with_one_dominant_u_row():
    # A subset of a real decomposition: U row 0 carries all its r2
    # components, every other U row one.  The terms stay orthogonal, so the
    # curve against the input is still monotone.
    a = GroupedTensor(random_tensor((5, 140, 30), 40), (1, 1, 1))
    dec = decompose_triple(a)
    p, s = dec.pair_map.T
    first = np.flatnonzero(np.diff(np.append(-1, np.sort(p))))
    one_each = np.argsort(p, kind="stable")[first[1:]]
    kept = np.sort(np.concatenate([np.flatnonzero(p == 0), one_each]))
    ragged = dataclasses.replace(
        dec, weights=dec.weights[kept], pair_map=dec.pair_map[kept], w=dec.w[kept]
    )
    assert np.bincount(ragged.pair_map[:, 0]).tolist() == [140, 1, 1, 1, 1]
    check_every_keep(a, ragged, monotone=True)


# --------------------------------------------------------- residual curve


def graded_transform():
    # Singular values 1 down to 1e-9: the Gram rank cut keeps those above
    # 1e-5, so the curve ends near 1e-6 and must stay exact down there.
    rng = np.random.Generator(np.random.PCG64(38))
    q1, _ = np.linalg.qr(rng.standard_normal((40, 12)))
    q2, _ = np.linalg.qr(rng.standard_normal((12, 12)))
    a = GroupedTensor(DenseTensor((q1 * np.logspace(0, -9, 12)) @ q2.T), (1, 1))
    return a, decompose_transform(a)


def test_residual_curve_matches_partial_sums_across_blocks():
    for a, dec in blocked_cases() + [graded_transform()]:
        curve = residual_curve(a, dec)
        count = component_count(dec)
        assert [k for k, _ in curve] == list(range(count + 1))
        scale = norm(a.tensor)
        for keep, err in curve:
            direct = np.sqrt(((a.tensor.data - term_sum(dec, keep)) ** 2).sum()) / scale
            assert err == pytest.approx(direct, rel=1e-10, abs=1e-14)
        errs = [e for _, e in curve]
        assert all(errs[i] >= errs[i + 1] for i in range(count))


def test_residual_curve_rank_one():
    u = unit((3,), 32)
    v = unit((2, 2), 33)
    a = GroupedTensor(DenseTensor(2.0 * np.multiply.outer(u.data, v.data)), (1, 2))
    curve = residual_curve(a, decompose_transform(a))
    assert curve[0] == (0, 1.0)
    assert curve[1][0] == 1
    assert curve[1][1] <= 1e-10


def test_residual_curve_zero_input():
    a = GroupedTensor(DenseTensor(np.zeros((2, 2, 2))), (1, 1, 1))
    curve = residual_curve(a, decompose_triple(a))
    assert curve == [(0, 0.0)]


def test_residual_curve_underflowing_norm():
    # A nonzero input whose squares underflow: its scaled norm is exact and
    # nonzero, so a decomposition with no terms scores exactly 1, and the
    # curve of another tensor's decomposition is finite (about 1e169).
    tiny = DenseTensor(random_tensor((12, 5, 4), 3).data * 1e-170)
    assert float(np.vdot(tiny.data, tiny.data)) == 0.0
    assert norm(tiny) == math.ldexp(norm(DenseTensor(np.ldexp(tiny.data, 560))), -560)
    a = GroupedTensor(tiny, (1, 1, 1))
    own = decompose_triple(a)
    assert component_count(own) == 0
    assert relative_error(tiny, reconstruct(own)) == 1.0
    assert residual_curve(a, own) == [(0, 1.0)]
    full = decompose_triple(GroupedTensor(random_tensor((12, 5, 4), 3), (1, 1, 1)))
    curve = residual_curve(a, full)
    assert len(curve) == component_count(full) + 1 > 1
    assert all(math.isfinite(e) and e > 1e150 for _, e in curve[1:])
    assert curve[-1][1] == pytest.approx(relative_error(tiny, reconstruct(full)), rel=1e-12)


def test_residual_curve_with_underflowing_squares():
    # A nonzero transform and its singulars, both scaled so that every
    # square underflows: the curve must follow the partial sums' relative
    # errors (0.888, 0.806, ...), never read a perfect fit, and scaling by a
    # power of two must leave it bit for bit as it was.
    a = GroupedTensor(random_tensor((12, 20), 3), (1, 1))
    dec = decompose_transform(a)
    for factor in (1e-170, 2.0**-565):
        tiny = GroupedTensor(DenseTensor(a.tensor.data * factor), (1, 1))
        scaled = dataclasses.replace(dec, singulars=dec.singulars * factor)
        assert float(np.vdot(tiny.tensor.data, tiny.tensor.data)) == 0.0
        curve = residual_curve(tiny, scaled)
        for keep, err in curve[1:5]:
            direct = relative_error(tiny.tensor, reconstruct(scaled, keep))
            assert err == pytest.approx(direct, rel=1e-12) and err > 0.5, keep
    assert curve == residual_curve(a, dec)


def test_residual_curve_monotone_and_matches_partial_sums():
    a = GroupedTensor(random_tensor((4, 4, 4), 34), (1, 1, 1))
    dec = decompose_triple(a)
    curve = residual_curve(a, dec)
    errs = [e for _, e in curve]
    assert all(errs[i] >= errs[i + 1] - 1e-14 for i in range(len(errs) - 1))
    assert errs[-1] <= 1e-10
    # direct partial-sum oracle
    scale = norm(a.tensor)
    for keep in (0, 1, dec.count // 2, dec.count):
        acc = np.zeros(a.tensor.dims)
        for m in range(keep):
            acc += float(dec.weights[m]) * np.multiply.outer(
                np.multiply.outer(dec.factors_u[m].data, dec.factors_z[m].data),
                dec.factors_w[m].data,
            )
        expected = float(np.sqrt(((a.tensor.data - acc) ** 2).sum())) / scale
        assert curve[keep][1] == pytest.approx(expected, rel=1e-10, abs=1e-14)
