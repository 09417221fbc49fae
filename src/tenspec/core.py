"""Dense real tensors with row-major linearization and contraction primitives.

Every value in the library is a :class:`DenseTensor`: an order-d array of
64-bit floats stored contiguously with the last index varying fastest.  The
same enumeration order drives :class:`IndexMap`, so unfolding a mode group is
a pure reinterpretation of the storage, never a permutation.
"""

import math
import string

import numpy as np

from .errors import InvalidAxis, InvalidSplit, ShapeMismatch

# Largest element count the platform can address.
MAX_ELEMENT_COUNT = np.iinfo(np.intp).max

_EINSUM_LETTERS = string.ascii_lowercase + string.ascii_uppercase


class Shape:
    """Mode extents (I_1, ..., I_d) of an order-d tensor. Immutable."""

    __slots__ = ("dims", "element_count")

    def __init__(self, dims):
        dims = tuple(int(d) for d in dims)
        if not dims:
            raise ValueError("a shape needs at least one mode")
        if any(d < 1 for d in dims):
            raise ValueError(f"extents must be >= 1, got {dims}")
        count = 1
        for d in dims:
            count *= d
            if count > MAX_ELEMENT_COUNT:
                raise OverflowError(
                    f"element count of shape {dims} exceeds addressing limits"
                )
        self.dims = dims
        self.element_count = count

    @property
    def order(self):
        return len(self.dims)

    def __len__(self):
        return len(self.dims)

    def __iter__(self):
        return iter(self.dims)

    def __getitem__(self, k):
        return self.dims[k]

    def __eq__(self, other):
        if isinstance(other, Shape):
            return self.dims == other.dims
        if isinstance(other, tuple):
            return self.dims == other
        return NotImplemented

    def __hash__(self):
        return hash(self.dims)

    def __repr__(self):
        return f"Shape{self.dims}"


def as_shape(obj):
    """Coerce a Shape or an iterable of extents into a Shape."""
    if isinstance(obj, Shape):
        return obj
    return Shape(obj)


class DenseTensor:
    """Order-d real tensor backed by a contiguous row-major float64 array.

    Construction from external data validates that every entry is finite;
    internal operations pass ``check_finite=False`` because their inputs are
    already vetted.  Instances are treated as immutable: operations return
    new tensors and never write to their arguments.
    """

    __slots__ = ("data",)

    def __init__(self, data, check_finite=True):
        arr = np.ascontiguousarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        Shape(arr.shape)  # validates extents and addressing
        if check_finite and not np.isfinite(arr).all():
            raise ValueError("tensor values must be finite")
        self.data = arr

    @classmethod
    def zeros(cls, shape):
        return cls(np.zeros(as_shape(shape).dims), check_finite=False)

    @property
    def shape(self):
        return Shape(self.data.shape)

    @property
    def dims(self):
        return self.data.shape

    @property
    def order(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def values(self):
        """Flat view of the storage, row-major (last index fastest)."""
        return self.data.reshape(-1)

    def __getitem__(self, multi_index):
        return float(self.data[tuple(multi_index)])

    def __add__(self, other):
        _require_same_shape(self, other, "add")
        return DenseTensor(self.data + other.data, check_finite=False)

    def __sub__(self, other):
        _require_same_shape(self, other, "subtract")
        return DenseTensor(self.data - other.data, check_finite=False)

    def __mul__(self, scalar):
        return DenseTensor(self.data * float(scalar), check_finite=False)

    __rmul__ = __mul__

    def __neg__(self):
        return DenseTensor(-self.data, check_finite=False)

    def __repr__(self):
        return f"DenseTensor(shape={self.dims}, norm={norm(self):.6g})"


def _require_same_shape(x, y, what):
    if x.dims != y.dims:
        raise ShapeMismatch(f"cannot {what} tensors of shapes {x.dims} and {y.dims}")


class IndexMap:
    """Bijection between the multi-indices of a shape and linear indices.

    ``rows[m]`` is the zero-based multi-index assigned to linear index m.
    Enumeration is row-major lexicographic (last coordinate fastest), the
    order in which :class:`DenseTensor` stores its values.
    """

    __slots__ = ("shape", "rows", "_strides")

    def __init__(self, shape, rows):
        self.shape = as_shape(shape)
        self.rows = np.asarray(rows, dtype=np.intp)
        strides = [1] * self.shape.order
        for k in range(self.shape.order - 2, -1, -1):
            strides[k] = strides[k + 1] * self.shape.dims[k + 1]
        self._strides = tuple(strides)

    def __len__(self):
        return self.shape.element_count

    def row(self, m):
        """Multi-index mapped to linear index m."""
        return tuple(int(v) for v in self.rows[m])

    def linearize(self, multi_index):
        """Linear index of a multi-index; inverse of :meth:`row`."""
        coords = tuple(int(c) for c in multi_index)
        if len(coords) != self.shape.order:
            raise ValueError(
                f"multi-index length {len(coords)} != order {self.shape.order}"
            )
        m = 0
        for c, extent, stride in zip(coords, self.shape.dims, self._strides):
            if not 0 <= c < extent:
                raise ValueError(f"coordinate {c} outside [0, {extent - 1}]")
            m += c * stride
        return m


def build_index_map(shape):
    """Enumerate all multi-indices of ``shape`` in storage order."""
    shape = as_shape(shape)
    lin = np.arange(shape.element_count, dtype=np.intp)
    rows = np.stack(np.unravel_index(lin, shape.dims), axis=1)
    return IndexMap(shape, rows)


def inner(x, y):
    """Inner product: the sum of elementwise products over all positions."""
    _require_same_shape(x, y, "take the inner product of")
    return float(np.dot(x.values, y.values))


def norm(x):
    """Frobenius-style tensor norm, sqrt(inner(x, x)).

    Like LAPACK's dnrm2 the squares are summed on a copy scaled by a power
    of two to max|x| < 1, so the sum neither overflows nor underflows: any
    finite tensor gets a finite norm (unless the norm itself exceeds the
    float range) and a nonzero one a nonzero norm.  Power-of-two scaling is
    exact, so wherever the squares are normal floats the result is that of
    the unscaled formula bit for bit.
    """
    values = x.values
    exponent = math.frexp(float(np.abs(values).max()))[1]
    scaled = np.ldexp(values, -exponent)
    return math.ldexp(math.sqrt(float(np.dot(scaled, scaled))), exponent)


def relative_error(reference, candidate):
    """Relative Frobenius error ||reference - candidate|| / ||reference||.

    Against an all-zero reference (the only one whose norm is 0) 0/0 counts
    as 0 and any other error as inf.
    """
    scale, diff = norm(reference), norm(reference - candidate)
    if scale > 0.0:
        return diff / scale
    return 0.0 if diff == 0.0 else math.inf


def outer(x, y):
    """Outer product; result modes are x's modes followed by y's modes."""
    if x.size * y.size > MAX_ELEMENT_COUNT:
        raise OverflowError(
            f"outer product of {x.size} x {y.size} elements exceeds addressing limits"
        )
    return DenseTensor(np.multiply.outer(x.data, y.data), check_finite=False)


def _check_axes(t, axes, label):
    axes = tuple(int(a) for a in axes)
    seen = set()
    for a in axes:
        if not 0 <= a < t.order:
            raise InvalidAxis(f"{label} position {a} out of range for order {t.order}")
        if a in seen:
            raise InvalidAxis(f"{label} position {a} repeated")
        seen.add(a)
    return axes


def contract(x, y, axes_x, axes_y):
    """Contract x and y over paired mode positions.

    ``axes_x[t]`` of x is summed against ``axes_y[t]`` of y; the paired
    extents must match.  The result keeps x's free modes (in order) followed
    by y's free modes.  Contracting every mode of both yields a shape-(1,)
    tensor holding the scalar, which equals ``inner`` for equal shapes.

    Summation runs in a fixed stride order (no intermediate transposes), so
    results are bit-reproducible on a given platform.
    """
    axes_x = _check_axes(x, axes_x, "axes_x")
    axes_y = _check_axes(y, axes_y, "axes_y")
    if len(axes_x) != len(axes_y):
        raise InvalidAxis(
            f"axis lists must pair up, got {len(axes_x)} vs {len(axes_y)}"
        )
    for ax, ay in zip(axes_x, axes_y):
        if x.dims[ax] != y.dims[ay]:
            raise ShapeMismatch(
                f"contracted extents differ: x mode {ax} has {x.dims[ax]}, "
                f"y mode {ay} has {y.dims[ay]}"
            )
    n_letters = x.order + y.order - len(axes_x)
    if n_letters > len(_EINSUM_LETTERS):
        raise InvalidAxis("too many distinct modes for contraction")
    sub_x = [_EINSUM_LETTERS[k] for k in range(x.order)]
    shared = {ay: sub_x[ax] for ax, ay in zip(axes_x, axes_y)}
    sub_y = []
    nxt = x.order
    for pos in range(y.order):
        if pos in shared:
            sub_y.append(shared[pos])
        else:
            sub_y.append(_EINSUM_LETTERS[nxt])
            nxt += 1
    out = [sub_x[k] for k in range(x.order) if k not in axes_x]
    out += [sub_y[pos] for pos in range(y.order) if pos not in shared]
    expr = f"{''.join(sub_x)},{''.join(sub_y)}->{''.join(out)}"
    result = np.einsum(expr, x.data, y.data)
    return DenseTensor(result, check_finite=False)


def unfold(x, split):
    """Reinterpret x as the (N x M) matrix over its first ``split`` modes.

    N is the product of the first ``split`` extents and M the product of the
    rest; entry (n, m) is the value whose multi-index concatenates row n of
    the leading group's IndexMap with row m of the trailing group's.  With
    row-major storage this is a zero-copy reshape, so ``fold`` restores the
    original tensor bit-exactly.
    """
    if not 1 <= split <= x.order - 1:
        raise InvalidSplit(f"split {split} not in [1, {x.order - 1}]")
    n = int(np.prod(x.dims[:split]))
    m = int(np.prod(x.dims[split:]))
    return DenseTensor(x.data.reshape(n, m), check_finite=False)


def fold(matrix, shape, split):
    """Inverse of :func:`unfold`: reshape an (N x M) matrix back to ``shape``."""
    shape = as_shape(shape)
    if not 1 <= split <= shape.order - 1:
        raise InvalidSplit(f"split {split} not in [1, {shape.order - 1}]")
    if matrix.order != 2:
        raise ShapeMismatch(f"expected an order-2 tensor, got order {matrix.order}")
    n = int(np.prod(shape.dims[:split]))
    m = int(np.prod(shape.dims[split:]))
    if matrix.dims != (n, m):
        raise ShapeMismatch(
            f"matrix shape {matrix.dims} does not match split {split} of {shape.dims}"
        )
    return DenseTensor(matrix.data.reshape(shape.dims), check_finite=False)


def random_tensor(shape, seed):
    """Seeded random tensor with entries i.i.d. uniform on [-1, 1).

    The generator is numpy's PCG64; one double is drawn per element in
    storage order, so a given (shape, seed) pair reproduces bit-identical
    values on any platform with the same numpy generation code.
    """
    shape = as_shape(shape)
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    vals = rng.random(shape.element_count) * 2.0 - 1.0
    return DenseTensor(vals.reshape(shape.dims), check_finite=False)
