"""Dense real tensors with row-major linearization, their norm and contraction.

Every value in the library is a :class:`DenseTensor`: an order-d array of
64-bit floats stored contiguously with the last index varying fastest, so
unfolding a mode group is a pure reinterpretation of the storage, never a
permutation.  A shape is a plain tuple of extents, a tensor's ``dims``.
"""

import math
import operator
import string

import numpy as np

from .errors import InvalidAxis, InvalidSplit, ShapeMismatch

# Largest element count the platform can address.
MAX_ELEMENT_COUNT = np.iinfo(np.intp).max
# The smallest normal float, 2^-1022, over the unit round-off 2^-53: a
# square that underflowed lies under half an ulp of a sum this large, so it
# cannot decide a norm whose sum of squares reaches it.
_SAFE_SUM = 2.0**-969

_EINSUM_LETTERS = string.ascii_lowercase + string.ascii_uppercase


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
        _dims(arr.shape)
        if check_finite and not np.isfinite(arr).all():
            raise ValueError("tensor values must be finite")
        self.data = arr

    @property
    def dims(self):
        return self.data.shape

    @property
    def order(self):
        return self.data.ndim

    @property
    def values(self):
        """Flat view of the storage, row-major (last index fastest)."""
        return self.data.reshape(-1)

    def __sub__(self, other):
        if self.dims != other.dims:
            raise ShapeMismatch(
                f"cannot subtract tensors of shapes {self.dims} and {other.dims}"
            )
        return DenseTensor(self.data - other.data, check_finite=False)


def _integer(value, error, what):
    # `value` as an int; `error` unless it is an integer other than a bool.
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{what} {value!r} is not an integer")


def _dims(extents):
    # The extents of a tensor as a tuple of ints: at least one mode, each an
    # integer >= 1 (ValueError), their product addressable (OverflowError).
    dims = tuple(_integer(d, ValueError, "extent") for d in extents)
    if not dims:
        raise ValueError("a shape needs at least one mode")
    if min(dims) < 1:
        raise ValueError(f"extents must be >= 1, got {dims}")
    if math.prod(dims) > MAX_ELEMENT_COUNT:
        raise OverflowError(f"element count of shape {dims} exceeds addressing limits")
    return dims


def norm(x):
    """Frobenius-style tensor norm: the square root of the sum of squares.

    A finite sum of squares of at least ``_SAFE_SUM`` gives the norm
    directly.  Any other is summed again, like LAPACK's dnrm2, on a copy
    scaled by a power of two to max|x| < 1, so the sum neither overflows nor
    underflows: any finite tensor gets a finite norm (unless the norm itself
    exceeds the float range) and a nonzero one a nonzero norm.
    Power-of-two scaling is exact, so wherever the squares are normal floats
    both routes give the same bits.
    """
    values = x.values
    # einsum, not np.dot: BLAS ddot splits a sum of more than 10,000 values
    # across threads, so its bits depend on the BLAS thread count.
    with np.errstate(over="ignore"):
        total = float(np.einsum("i,i->", values, values))
    if _SAFE_SUM <= total < math.inf:
        return math.sqrt(total)
    exponent = math.frexp(float(np.abs(values).max()))[1]
    scaled = np.ldexp(values, -exponent)
    return math.ldexp(math.sqrt(float(np.einsum("i,i->", scaled, scaled))), exponent)


def relative_error(reference, candidate):
    """Relative Frobenius error ||reference - candidate|| / ||reference||.

    Against an all-zero reference (the only one whose norm is 0) 0/0 counts
    as 0 and any other error as inf.
    """
    scale, diff = norm(reference), norm(reference - candidate)
    if scale > 0.0:
        return diff / scale
    return 0.0 if diff == 0.0 else math.inf


def _check_axes(t, axes, label):
    axes = tuple(_integer(a, InvalidAxis, f"{label} position") for a in axes)
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
    tensor holding the scalar: for equal shapes, the sum of the elementwise
    products.

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
    rest; entry (n, m) is the value whose multi-index concatenates the n-th
    multi-index of the leading modes with the m-th of the trailing ones,
    each group enumerated in storage order (last index fastest).  With
    row-major storage this is a zero-copy reshape of the same values.
    """
    split = _integer(split, InvalidSplit, "split")
    if not 1 <= split <= x.order - 1:
        raise InvalidSplit(f"split {split} not in [1, {x.order - 1}]")
    n = int(np.prod(x.dims[:split]))
    m = int(np.prod(x.dims[split:]))
    return DenseTensor(x.data.reshape(n, m), check_finite=False)


def random_tensor(shape, seed):
    """Seeded random tensor with entries i.i.d. uniform on [-1, 1).

    The generator is numpy's PCG64; one double is drawn per element in
    storage order, so a given (shape, seed) pair reproduces bit-identical
    values on any platform with the same numpy generation code.  The seed
    must be an integer (ValueError otherwise).
    """
    dims = _dims(shape)
    rng = np.random.Generator(np.random.PCG64(_integer(seed, ValueError, "seed")))
    vals = rng.random(math.prod(dims)) * 2.0 - 1.0
    return DenseTensor(vals.reshape(dims), check_finite=False)
