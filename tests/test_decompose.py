"""The three decomposition procedures and their supporting operators."""

import dataclasses
import math

import numpy as np
import pytest

from tenspec import (
    DenseTensor,
    GroupedTensor,
    apply_operator,
    component_count,
    decompose_sa_nnd,
    decompose_transform,
    decompose_triple,
    gram_operator,
    inner,
    is_self_adjoint,
    norm,
    outer,
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
    ShapeMismatch,
    TenspecError,
)


def unit(dims, seed):
    t = random_tensor(dims, seed)
    return t * (1.0 / norm(t))


def rel_err(reference, candidate):
    return norm(reference - candidate) / norm(reference)


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
    assert g.group_shapes[0] == (2,)
    assert g.group_shapes[1] == (3, 4)
    assert g.positions(1) == (1, 2)


# --------------------------------------------------------- apply_operator


def test_apply_identity_operator():
    a = identity_operator((2, 2))
    x = random_tensor((2, 2), 3)
    y = apply_operator(a, x)
    assert np.allclose(y.data, x.data, atol=1e-15)


def test_apply_rank_one_projector():
    u = unit((3, 2), 4)
    a = GroupedTensor(outer(u, u), (2, 2))
    y = apply_operator(a, u)
    assert np.allclose(y.data, u.data, atol=1e-12)


def test_apply_matches_matricized_multiply():
    t = random_tensor((2, 3, 4), 5)
    a = GroupedTensor(t, (2, 1))
    x = random_tensor((4,), 6)
    y = apply_operator(a, x)
    m = unfold(t, 2).data  # (6, 4)
    expected = np.zeros(6)
    for n in range(6):
        for k in range(4):
            expected[n] += m[n, k] * x.values[k]
    assert np.allclose(y.values, expected, rtol=1e-12, atol=1e-15)


def test_apply_shape_mismatch():
    a = identity_operator((2, 2))
    with pytest.raises(ShapeMismatch):
        apply_operator(a, random_tensor((3,), 1))


# ---------------------------------------------------------- gram operator


def test_gram_of_orthonormal_columns_is_identity():
    # Unfolded tensor with orthonormal columns: gram must be the identity.
    q = np.linalg.qr(np.random.Generator(np.random.PCG64(8)).random((6, 4)))[0]
    a = GroupedTensor(DenseTensor(q.reshape(2, 3, 4)), (2, 1))
    g = gram_operator(a, side="right")
    assert np.allclose(unfold(g.tensor, 1).data, np.eye(4), atol=1e-12)


def test_gram_of_zero_is_zero():
    a = GroupedTensor(DenseTensor.zeros((2, 2, 2)), (1, 2))
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
    assert is_self_adjoint(g)


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
    for seed in range(10):
        v = random_tensor((3,), 100 + seed)
        assert inner(v, apply_operator(g, v)) >= -1e-12


def test_gram_bad_side():
    with pytest.raises(ValueError):
        gram_operator(GroupedTensor(random_tensor((2, 2), 1), (1, 1)), side="up")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("side", ["right", "left"])
def test_gram_operator_refuses_an_overflowing_gram(side):
    # The input is finite, its Gram is not: refused as _matrix_svd refuses
    # it, with no overflow warning from numpy on the way.
    a = GroupedTensor(random_tensor((12, 5, 4), 3) * 1e160, (1, 2))
    with pytest.raises(TenspecError, match="Gram of the unfolding is not representable"):
        gram_operator(a, side=side)


# -------------------------------------------------------- is_self_adjoint


def test_self_adjoint_of_gram_output():
    g = gram_operator(GroupedTensor(random_tensor((2, 3, 3), 12), (1, 2)), "right")
    check = is_self_adjoint(g)
    assert check
    assert check.max_asymmetry <= 1e-15


def test_self_adjoint_constructed_violation():
    arr = np.zeros((2, 2, 2, 2))
    arr[0, 0, 0, 1] = 1.0
    check = is_self_adjoint(GroupedTensor(DenseTensor(arr), (2, 2)))
    assert not check
    assert check.max_asymmetry == 1.0
    assert check.reason


def test_self_adjoint_after_symmetrizing():
    t = random_tensor((2, 2, 2, 2), 13)
    sym = 0.5 * (t.data + np.transpose(t.data, (2, 3, 0, 1)))
    check = is_self_adjoint(GroupedTensor(DenseTensor(sym), (2, 2)))
    assert check


def test_self_adjoint_group_shape_mismatch():
    check = is_self_adjoint(GroupedTensor(random_tensor((2, 3), 14), (1, 1)))
    assert not check
    assert "differ" in check.reason


# -------------------------------------------------------- decompose_sa_nnd


def test_sa_nnd_identity_operator():
    a = identity_operator((2, 2))
    dec = decompose_sa_nnd(a)
    assert dec.rank == 4
    assert np.allclose(dec.eigenvalues, np.ones(4), atol=1e-12)
    assert rel_err(a.tensor, reconstruct(dec)) <= 1e-12


def test_sa_nnd_rank_one():
    u = unit((3, 2), 15)
    a = GroupedTensor(5.0 * outer(u, u), (2, 2))
    dec = decompose_sa_nnd(a)
    assert dec.rank == 1
    assert dec.eigenvalues[0] == pytest.approx(5.0, rel=1e-12)
    overlap = abs(inner(dec.eigentensors[0], u))
    assert overlap == pytest.approx(1.0, abs=1e-10)
    assert rel_err(a.tensor, reconstruct(dec)) <= 1e-10


def test_sa_nnd_rejects_asymmetric():
    arr = np.zeros((2, 2, 2, 2))
    arr[0, 0, 0, 1] = 1.0
    with pytest.raises(NotSelfAdjoint):
        decompose_sa_nnd(GroupedTensor(DenseTensor(arr), (2, 2)))


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
    for lam, u in zip(dec.eigenvalues, dec.eigentensors):
        resid = norm(apply_operator(a, u) - float(lam) * u)
        assert resid <= 1e-8 * top
    # orthonormal family
    for p in range(dec.rank):
        for q in range(p, dec.rank):
            expected = 1.0 if p == q else 0.0
            assert abs(inner(dec.eigentensors[p], dec.eigentensors[q]) - expected) <= 1e-10


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
                assert abs(inner(dec.eigentensors[p], dec.eigentensors[q])) <= 1e-10


# ---------------------------------------------------- decompose_transform


def test_transform_rank_one():
    u = unit((4,), 19)
    v = unit((2, 2), 20)
    a = GroupedTensor(3.0 * outer(u, v), (1, 2))
    dec = decompose_transform(a)
    assert dec.rank == 1
    assert dec.singulars[0] == pytest.approx(3.0, rel=1e-12)
    assert abs(inner(dec.left[0], u)) == pytest.approx(1.0, abs=1e-10)
    assert abs(inner(dec.right[0], v)) == pytest.approx(1.0, abs=1e-10)
    assert rel_err(a.tensor, reconstruct(dec)) <= 1e-10


def test_transform_zero_tensor():
    a = GroupedTensor(DenseTensor.zeros((3, 2, 2)), (1, 2))
    dec = decompose_transform(a)
    assert dec.rank == 0
    assert dec.left == [] and dec.right == []
    assert not reconstruct(dec).data.any()


def test_transform_random_properties():
    a = GroupedTensor(random_tensor((5, 3, 2), 21), (1, 2))
    dec = decompose_transform(a)
    assert rel_err(a.tensor, reconstruct(dec)) <= 1e-8
    for family in (dec.left, dec.right):
        r = len(family)
        for p in range(r):
            for q in range(p, r):
                expected = 1.0 if p == q else 0.0
                assert abs(inner(family[p], family[q]) - expected) <= 1e-10
    # weight identity: s_p = <U_p, A . V_p>
    for s, u, v in zip(dec.singulars, dec.left, dec.right):
        got = inner(u, apply_operator(a, v))
        assert got == pytest.approx(float(s), rel=1e-8)
    # spectrum of the right gram operator gives the squared weights
    g = gram_operator(a, side="right")
    geig = sym_eig(unfold(g.tensor, 2).data)
    assert np.allclose(
        dec.singulars**2, geig.eigenvalues[: dec.rank], rtol=0, atol=1e-10 * geig.eigenvalues[0]
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
    smaller = min(s.element_count for s in a.group_shapes)
    assert orders == [smaller]
    assert len(dec.spectrum) == smaller
    for family in (dec.left, dec.right):
        flat = np.array([f.data.ravel() for f in family])
        assert np.abs(flat @ flat.T - np.eye(len(family))).max() <= 1e-12
    assert rel_err(a.tensor, reconstruct(dec)) <= 1e-12


# ------------------------------------------------------- decompose_triple


def test_triple_rank_one():
    u = unit((2,), 22)
    z = unit((3,), 23)
    w = unit((2,), 24)
    t = 6.0 * outer(outer(u, z), w)
    dec = decompose_triple(GroupedTensor(t, (1, 1, 1)))
    assert dec.count == 1
    assert dec.weights[0] == pytest.approx(6.0, rel=1e-12)
    assert abs(inner(dec.factors_u[0], u)) == pytest.approx(1.0, abs=1e-10)
    assert abs(inner(dec.factors_z[0], z)) == pytest.approx(1.0, abs=1e-10)
    assert abs(inner(dec.factors_w[0], w)) == pytest.approx(1.0, abs=1e-10)
    assert rel_err(t, reconstruct(dec)) <= 1e-10


def test_triple_zero_tensor():
    dec = decompose_triple(GroupedTensor(DenseTensor.zeros((2, 2, 2)), (1, 1, 1)))
    assert dec.count == 0
    assert dec.pair_map.shape == (0, 2)
    assert not reconstruct(dec).data.any()


def couplings(a, dec):
    # Stage one's factors over J x K, V_p = A_(1)^T U_p / sigma_p.
    d = a.group_orders[0]
    v = (dec.u @ unfold(a.tensor, d).data) / dec.sigma[:, None]
    return [DenseTensor(row.reshape(a.tensor.dims[d:])) for row in v]


def check_triple_contract(a, dec, recon_tol=1e-10):
    r1, r2 = len(dec.sigma), len(dec.gamma)
    coupling = couplings(a, dec)
    # orthonormal bases
    for family in (dec.u_basis, dec.z_basis):
        for p in range(len(family)):
            for q in range(p, len(family)):
                expected = 1.0 if p == q else 0.0
                assert abs(inner(family[p], family[q]) - expected) <= 1e-10
    # joint W orthonormality: contraction over the K modes AND p
    w = dec.w_joint.data.reshape(-1, r1, r2)
    gw = np.einsum("kpr,kps->rs", w, w)
    assert np.abs(gw - np.eye(r2)).max() <= 1e-8
    # stage-one identity: A is the sigma-weighted sum of U x coupling
    stage1 = np.zeros(a.tensor.dims)
    for s, u, v in zip(dec.sigma, dec.u_basis, coupling):
        stage1 += float(s) * np.multiply.outer(u.data, v.data)
    assert norm(a.tensor - DenseTensor(stage1, check_finite=False)) <= 1e-8 * norm(a.tensor)
    # stage-two identity: each coupling factor is the gamma-weighted sum
    # of Z x W fibers
    couple_scale = math.sqrt(sum(norm(v) ** 2 for v in coupling))
    worst = 0.0
    for p, v in enumerate(coupling):
        rebuilt = np.zeros(v.dims)
        for s in range(r2):
            fiber = dec.w_joint.data[..., p, s]
            rebuilt += float(dec.gamma[s]) * np.multiply.outer(
                dec.z_basis[s].data, fiber
            )
        worst = max(worst, float(np.sqrt(((rebuilt - v.data) ** 2).sum())))
    assert worst <= 1e-8 * couple_scale
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
    for family in (dec.u_basis, dec.z_basis):
        flat = np.array([f.data.ravel() for f in family])
        assert np.abs(flat @ flat.T - np.eye(len(family))).max() <= 1e-12
    w = dec.w_joint.data.reshape(-1, r2)
    assert np.abs(w.T @ w - np.eye(r2)).max() <= 1e-12
    assert dec.count == r1 * r2
    assert rel_err(a.tensor, reconstruct(dec)) <= 1e-12


def test_triple_weight_tie_break_order():
    # Equal weights must come out in lexicographic (p, s) order.
    u0 = DenseTensor([1.0, 0.0])
    u1 = DenseTensor([0.0, 1.0])
    z0 = DenseTensor([1.0, 0.0])
    z1 = DenseTensor([0.0, 1.0])
    w0 = DenseTensor([1.0, 0.0])
    t = (
        2.0 * outer(outer(u0, z0), w0).data
        + 2.0 * outer(outer(u1, z1), w0).data
    )
    dec = decompose_triple(GroupedTensor(DenseTensor(t), (1, 1, 1)))
    assert dec.count == 4
    pairs = [tuple(row) for row in dec.pair_map]
    assert pairs == sorted(pairs, key=lambda ps: (-float(dec.weights[pairs.index(ps)]), ps))


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
    assert (d_op.rank, d_tr.rank, d_tp.count) == (6, 5, r1 * r2)
    assert [f.name for f in dataclasses.fields(d_tp)] == [
        "weights", "pair_map", "u", "z", "w", "shapes", "sigma", "gamma"
    ]
    assert d_tp.raw is d_tp
    p, s = d_tp.pair_map.T
    assert np.array_equal(d_tp.weights, d_tp.sigma[p] * d_tp.gamma[s])
    views = [
        (d_op.eigentensors, d_op.vectors, np.arange(6), (3, 2)),
        (d_tr.left, d_tr.u, np.arange(5), (5,)),
        (d_tr.right, d_tr.v, np.arange(5), (2, 3)),
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
    empty = decompose_triple(GroupedTensor(DenseTensor.zeros((2, 2, 2)), (1, 1, 1)))
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
        reconstruct(dec, dec.rank + 1)


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
        terms = zip(dec.singulars, dec.left, dec.right)
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
    a = GroupedTensor(2.0 * outer(u, v), (1, 2))
    curve = residual_curve(a, decompose_transform(a))
    assert curve[0] == (0, 1.0)
    assert curve[1][0] == 1
    assert curve[1][1] <= 1e-10


def test_residual_curve_zero_input():
    a = GroupedTensor(DenseTensor.zeros((2, 2, 2)), (1, 1, 1))
    curve = residual_curve(a, decompose_triple(a))
    assert curve == [(0, 0.0)]


def test_residual_curve_underflowing_norm():
    # A nonzero input whose squares underflow: its scaled norm is exact and
    # nonzero, so a decomposition with no terms scores exactly 1, and the
    # curve of another tensor's decomposition is finite (about 1e169).
    tiny = random_tensor((12, 5, 4), 3) * 1e-170
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
