"""Tensor storage, norm, unfolding and contraction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tenspec import DenseTensor, contract, norm, random_tensor, unfold
from tenspec.errors import InvalidAxis, InvalidSplit, ShapeMismatch

small_shapes = st.lists(st.integers(1, 4), min_size=1, max_size=4).map(tuple)


def seeded(dims, seed):
    return random_tensor(dims, seed)


# ---------------------------------------------------------------- shapes


def test_shape_rejects_bad_extents():
    with pytest.raises(ValueError):
        random_tensor((), 0)
    with pytest.raises(ValueError):
        random_tensor((3, 0), 0)
    with pytest.raises(ValueError):
        DenseTensor(np.zeros((3, 0)))
    with pytest.raises(OverflowError):
        random_tensor((2**62, 2**62), 0)


def test_tensor_rejects_non_finite():
    with pytest.raises(ValueError):
        DenseTensor([1.0, float("nan")])
    with pytest.raises(ValueError):
        DenseTensor([float("inf")])


def test_scalar_input_becomes_shape_1():
    t = DenseTensor(5.0)
    assert t.dims == (1,)
    assert t.values[0] == 5.0


# ------------------------------------------------------------------ norm


def test_norm_cases():
    assert norm(DenseTensor(np.zeros((3, 2, 5)))) == 0.0
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
        assert norm(DenseTensor(values)) == math.sqrt(float(np.einsum("i,i->", values, values)))
    for k in (-600, 600):
        assert norm(DenseTensor(np.ldexp(x.data, k))) == math.ldexp(norm(x), k)


def scaled_norm(values):
    # The scaled route alone: squares summed on a copy scaled to max|x| < 1,
    # by einsum, which sums in one order at any BLAS thread count.
    exponent = math.frexp(float(np.abs(values).max()))[1]
    scaled = np.ldexp(values, -exponent)
    return math.ldexp(math.sqrt(float(np.einsum("i,i->", scaled, scaled))), exponent)


@pytest.mark.parametrize("k", [0, -500, 500])
def test_norm_equals_the_scaled_route_bit_for_bit(k):
    # The direct sum of squares is taken when it is safely normal, which it
    # is at k = 0 and 500; either way the bits are the scaled route's.
    for seed, dims in enumerate([(7,), (6, 5, 4), (64, 32, 32), (3, 1000)]):
        values = np.ldexp(seeded(dims, 40 + seed).data, k)
        assert norm(DenseTensor(values)) == scaled_norm(values.reshape(-1)), (dims, k)


# -------------------------------------------------------------- contract


def test_outer_then_full_contraction_identity():
    # Contracting every mode of an outer product with itself multiplies the
    # factors' sums of squares.
    for seed in range(10):
        x = seeded((2, 3), 3 * seed)
        y = seeded((4,), 3 * seed + 1)
        z = DenseTensor(np.multiply.outer(x.data, y.data))
        lhs = contract(z, z, (0, 1, 2), (0, 1, 2)).values[0]
        rhs = np.dot(x.values, x.values) * np.dot(y.values, y.values)
        assert lhs == pytest.approx(rhs, rel=1e-10)


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
    assert out.values[0] == 4.0 == np.dot(x.values, x.values)


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
        lhs = contract(DenseTensor(a * x1.data + b * x2.data), y, (1,), (0,))
        rhs = a * contract(x1, y, (1,), (0,)).data + b * contract(x2, y, (1,), (0,)).data
        assert np.allclose(lhs.data, rhs, rtol=1e-10, atol=1e-14)


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


# ---------------------------------------------------------------- unfold


def test_unfold_order_2_is_identity():
    x = seeded((2, 3), 8)
    m = unfold(x, 1)
    assert np.array_equal(m.data, x.data)


def test_unfold_of_outer_is_rank_one():
    u = seeded((2, 2), 9)
    v = seeded((3,), 10)
    z = DenseTensor(np.multiply.outer(u.data, v.data))
    m = unfold(z, 2)
    expected = np.multiply.outer(u.values, v.values)
    assert np.array_equal(m.data, expected)


def test_unfold_fold_round_trip_bit_exact():
    # Unfolding is the row-major reshape of the same values, bit for bit.
    x = seeded((2, 3, 4), 13)
    for split, rows in ((1, 2), (2, 6)):
        m = unfold(x, split)
        assert np.array_equal(m.data, x.data.reshape(rows, -1))
        assert np.array_equal(m.data.reshape(x.dims), x.data)


def test_unfold_fold_errors():
    x = seeded((2, 3, 4), 14)
    with pytest.raises(InvalidSplit):
        unfold(x, 0)
    with pytest.raises(InvalidSplit):
        unfold(x, 3)


@given(small_shapes, st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_unfold_fold_property(dims, seed):
    if len(dims) < 2:
        return
    x = random_tensor(dims, seed)
    for split in range(1, len(dims)):
        m = unfold(x, split)
        assert np.array_equal(m.data, x.data.reshape(int(np.prod(dims[:split])), -1))
        assert np.array_equal(m.data.reshape(dims), x.data)


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
    assert t.data.size == 768
    assert norm(t) > 0.0
    assert norm(t) == pytest.approx(16.083853667053912, rel=1e-15)
    assert t.values.min() >= -1.0
    assert t.values.max() < 1.0


# ----------------------------------------------------------- arithmetic


def test_tensor_arithmetic_shape_checks():
    x = seeded((2, 2), 1)
    y = seeded((4,), 2)
    with pytest.raises(ShapeMismatch):
        x - y
    z = DenseTensor(2.0 * x.data) - DenseTensor(x.data * 0.5)
    assert np.allclose(z.data, 1.5 * x.data)
