"""Tensor storage, index maps, and contraction primitives."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tenspec import (
    DenseTensor,
    Shape,
    build_index_map,
    contract,
    fold,
    inner,
    norm,
    outer,
    random_tensor,
    unfold,
)
from tenspec.errors import InvalidAxis, InvalidSplit, ShapeMismatch

small_shapes = st.lists(st.integers(1, 4), min_size=1, max_size=4).map(tuple)


def seeded(dims, seed):
    return random_tensor(dims, seed)


# ---------------------------------------------------------------- shapes


def test_shape_basics():
    s = Shape((2, 3, 4))
    assert s.order == 3
    assert s.element_count == 24
    assert tuple(s) == (2, 3, 4)
    assert s == (2, 3, 4)
    assert s == Shape([2, 3, 4])


def test_shape_rejects_bad_extents():
    with pytest.raises(ValueError):
        Shape(())
    with pytest.raises(ValueError):
        Shape((3, 0))
    with pytest.raises(OverflowError):
        Shape((2**62, 2**62))


def test_tensor_rejects_non_finite():
    with pytest.raises(ValueError):
        DenseTensor([1.0, float("nan")])
    with pytest.raises(ValueError):
        DenseTensor([float("inf")])


def test_scalar_input_becomes_shape_1():
    t = DenseTensor(5.0)
    assert t.dims == (1,)
    assert t.values[0] == 5.0


# ----------------------------------------------------------- inner / norm


def test_inner_all_ones():
    x = DenseTensor(np.ones((2, 3)))
    assert inner(x, x) == 6.0


def test_inner_disjoint_supports_is_zero():
    a = np.zeros((2, 2, 2))
    b = np.zeros((2, 2, 2))
    a[0, 0, 0] = 3.5
    a[1, 0, 1] = -2.0
    b[0, 1, 1] = 7.0
    b[1, 1, 0] = 4.0
    assert inner(DenseTensor(a), DenseTensor(b)) == 0.0


def test_inner_matches_flat_loop_oracle():
    x = seeded((3, 3, 3), 101)
    y = seeded((3, 3, 3), 202)
    expected = 0.0
    for xv, yv in zip(x.values.tolist(), y.values.tolist()):
        expected += xv * yv
    assert inner(x, y) == pytest.approx(expected, rel=1e-12)


def test_inner_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        inner(DenseTensor(np.ones((2, 2))), DenseTensor(np.ones((4,))))


def test_inner_symmetry_and_cauchy_schwarz():
    for seed in range(20):
        x = seeded((4, 5), 2 * seed)
        y = seeded((4, 5), 2 * seed + 1)
        assert inner(x, y) == inner(y, x)
        bound = norm(x) * norm(y)
        assert abs(inner(x, y)) <= bound * (1.0 + 1e-9)


def test_norm_cases():
    assert norm(DenseTensor.zeros((3, 2, 5))) == 0.0
    assert norm(DenseTensor([-3.0])) == 3.0
    assert norm(DenseTensor(np.ones((4, 4)))) == 4.0


def test_norm_scaled_by_a_power_of_two():
    # Squares that overflow or underflow do not decide the norm, and where
    # they are normal floats it is the unscaled formula's, bit for bit.
    assert norm(DenseTensor([1e200, 1.0])) == 1e200
    assert norm(DenseTensor(np.full(4, 1e-170))) == 2e-170
    x = seeded((6, 5, 4), 5)
    for k in (0, -300, 300):
        values = np.ldexp(x.values, k)
        assert norm(DenseTensor(values)) == math.sqrt(float(np.dot(values, values)))
    for k in (-600, 600):
        assert norm(DenseTensor(np.ldexp(x.data, k))) == math.ldexp(norm(x), k)


# ----------------------------------------------------------------- outer


def test_outer_hand_example():
    x = DenseTensor([1.0, 2.0])
    y = DenseTensor([3.0, 4.0])
    z = outer(x, y)
    assert z.dims == (2, 2)
    assert np.array_equal(z.data, [[3.0, 4.0], [6.0, 8.0]])


def test_outer_with_scalar_like_is_scaling():
    c = DenseTensor([2.5])
    y = seeded((3, 2), 7)
    z = outer(c, y)
    assert z.dims == (1, 3, 2)
    assert np.array_equal(z.data[0], 2.5 * y.data)


def test_outer_fibers_proportional_to_second_factor():
    x = seeded((2, 2), 11)
    y = seeded((3,), 12)
    z = outer(x, y)
    for i in range(2):
        for j in range(2):
            fiber = z.data[i, j, :]
            assert np.allclose(fiber, x.data[i, j] * y.data, rtol=0, atol=1e-15)


def test_outer_then_full_contraction_identity():
    for seed in range(10):
        x = seeded((2, 3), 3 * seed)
        y = seeded((4,), 3 * seed + 1)
        z = outer(x, y)
        lhs = inner(z, z)
        rhs = inner(x, x) * inner(y, y)
        assert lhs == pytest.approx(rhs, rel=1e-10)


# -------------------------------------------------------------- contract


def test_contract_identity_action():
    eye = DenseTensor(np.eye(2))
    v = DenseTensor([5.0, 7.0])
    out = contract(eye, v, (1,), (0,))
    assert out.dims == (2,)
    assert np.array_equal(out.data, [5.0, 7.0])


def test_contract_all_modes_reduces_to_inner():
    x = DenseTensor(np.ones((2, 2)))
    out = contract(x, x, (0, 1), (0, 1))
    assert out.dims == (1,)
    assert out.values[0] == 4.0 == inner(x, x)


def test_contract_matches_triple_loop_matmul():
    a = seeded((3, 4), 31)
    b = seeded((4, 5), 32)
    out = contract(a, b, (1,), (0,))
    assert out.dims == (3, 5)
    for i in range(3):
        for j in range(5):
            s = 0.0
            for k in range(4):
                s += a.data[i, k] * b.data[k, j]
            assert out.data[i, j] == pytest.approx(s, rel=1e-12)


def test_contract_axis_order_and_free_modes():
    x = seeded((2, 3, 4), 41)
    y = seeded((4, 5, 3), 42)
    out = contract(x, y, (2, 1), (0, 2))
    assert out.dims == (2, 5)
    s = 0.0
    for k in range(4):
        for m in range(3):
            s += x.data[1, m, k] * y.data[k, 2, m]
    assert out.data[1, 2] == pytest.approx(s, rel=1e-12)


def test_contract_is_bilinear():
    for seed in range(10):
        x1 = seeded((3, 2), 5 * seed)
        x2 = seeded((3, 2), 5 * seed + 1)
        y = seeded((2, 4), 5 * seed + 2)
        a, b = 1.7, -0.3
        lhs = contract(a * x1 + b * x2, y, (1,), (0,))
        rhs = a * contract(x1, y, (1,), (0,)) + b * contract(x2, y, (1,), (0,))
        assert np.allclose(lhs.data, rhs.data, rtol=1e-10, atol=1e-14)


def test_contract_errors():
    x = DenseTensor(np.ones((2, 3)))
    y = DenseTensor(np.ones((4, 2)))
    with pytest.raises(ShapeMismatch):
        contract(x, y, (0,), (0,))
    with pytest.raises(InvalidAxis):
        contract(x, y, (0, 0), (0, 1))
    with pytest.raises(InvalidAxis):
        contract(x, y, (2,), (0,))
    with pytest.raises(InvalidAxis):
        contract(x, y, (0, 1), (1,))


# ------------------------------------------------------------- index map


def test_index_map_2x2():
    im = build_index_map((2, 2))
    assert [im.row(m) for m in range(4)] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_index_map_single_mode():
    im = build_index_map((3,))
    assert [im.row(m) for m in range(3)] == [(0,), (1,), (2,)]


def test_index_map_round_trip_2x3x2():
    im = build_index_map((2, 3, 2))
    rows = [im.row(m) for m in range(12)]
    assert len(set(rows)) == 12
    for m in range(12):
        assert im.linearize(rows[m]) == m


@given(small_shapes)
@settings(max_examples=40, deadline=None)
def test_index_map_is_bijection(dims):
    im = build_index_map(dims)
    count = int(np.prod(dims))
    rows = {im.row(m) for m in range(count)}
    assert len(rows) == count
    box = set(itertools.product(*(range(d) for d in dims)))
    assert rows == box


def test_index_map_exhaustive_large():
    # coverage + round trip at the 1e5-element scale
    im = build_index_map((50, 40, 50))
    rows = im.rows
    assert rows.shape == (100000, 3)
    seen = {tuple(r) for r in rows.tolist()}
    assert len(seen) == 100000
    strides = (40 * 50, 50, 1)
    lin = rows @ np.array(strides)
    assert np.array_equal(lin, np.arange(100000))


def test_index_map_matches_storage_order():
    x = seeded((2, 3, 2), 77)
    m = unfold(x, 1)
    rows_n = build_index_map((2,))
    rows_m = build_index_map((3, 2))
    for n in range(2):
        for k in range(6):
            idx = rows_n.row(n) + rows_m.row(k)
            assert m.data[n, k] == x.data[idx]


def test_index_map_linearize_validation():
    im = build_index_map((2, 3))
    with pytest.raises(ValueError):
        im.linearize((0,))
    with pytest.raises(ValueError):
        im.linearize((0, 3))


# ---------------------------------------------------------- unfold / fold


def test_unfold_order_2_is_identity():
    x = seeded((2, 3), 8)
    m = unfold(x, 1)
    assert np.array_equal(m.data, x.data)


def test_unfold_of_outer_is_rank_one():
    u = seeded((2, 2), 9)
    v = seeded((3,), 10)
    z = outer(u, v)
    m = unfold(z, 2)
    expected = np.multiply.outer(u.values, v.values)
    assert np.array_equal(m.data, expected)


def test_unfold_fold_round_trip_bit_exact():
    x = seeded((2, 3, 4), 13)
    for split in (1, 2):
        back = fold(unfold(x, split), x.shape, split)
        assert np.array_equal(back.data, x.data)


def test_unfold_fold_errors():
    x = seeded((2, 3, 4), 14)
    with pytest.raises(InvalidSplit):
        unfold(x, 0)
    with pytest.raises(InvalidSplit):
        unfold(x, 3)
    with pytest.raises(ShapeMismatch):
        fold(unfold(x, 1), (2, 3, 5), 1)


@given(small_shapes, st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_unfold_fold_property(dims, seed):
    if len(dims) < 2:
        return
    x = random_tensor(dims, seed)
    for split in range(1, len(dims)):
        back = fold(unfold(x, split), x.shape, split)
        assert np.array_equal(back.data, x.data)


# --------------------------------------------------------- random tensor


def test_random_tensor_deterministic():
    a = random_tensor((4, 5), 123)
    b = random_tensor((4, 5), 123)
    assert np.array_equal(a.data, b.data)


def test_random_tensor_seeds_differ():
    a = random_tensor((4, 5), 123)
    b = random_tensor((4, 5), 124)
    assert not np.array_equal(a.data, b.data)


def test_random_tensor_frozen_regression_values():
    # Captured at first build; guards the PCG64 stream discipline.
    t = random_tensor((2, 3), 1)
    assert t.values.tolist() == [
        0.023643249400513433,
        0.9009273926518706,
        -0.7116807745607325,
        0.8972988942744877,
        -0.3763370959790291,
        -0.1533471020548487,
    ]


def test_random_tensor_16_16_3():
    t = random_tensor((16, 16, 3), 42)
    assert t.size == 768
    assert norm(t) > 0.0
    assert norm(t) == pytest.approx(16.083853667053912, rel=1e-15)
    assert t.values.min() >= -1.0
    assert t.values.max() < 1.0


# ----------------------------------------------------------- arithmetic


def test_tensor_arithmetic_shape_checks():
    x = seeded((2, 2), 1)
    y = seeded((4,), 2)
    with pytest.raises(ShapeMismatch):
        x + y
    with pytest.raises(ShapeMismatch):
        x - y
    z = 2.0 * x - x * 0.5
    assert np.allclose(z.data, 1.5 * x.data)
