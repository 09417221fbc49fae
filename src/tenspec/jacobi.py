"""Symmetric eigendecomposition by Jacobi rotations, one- or two-sided.

Self-contained on purpose: rotation parameters, sweep control, ordering,
the Cholesky factorization and sign fixing are all implemented here, and no
library eigensolver or factorization is called; numpy supplies elementwise
arithmetic and BLAS matrix products only.

The kernel is a parallel-order Jacobi sweep in odd-even order (Brent & Luk
1985; convergence: Luk & Park 1989).  An odd order is padded by one zero
index (the bye), and rounds alternate between the pairs (0, 1), (2, 3), ...
and (1, 2), (3, 4), ....  Each rotation adds a quarter turn to the Jacobi
angle, so its two indices trade places: a sweep's m rounds form the odd-even
transposition network, which meets every pair once and leaves the order
reversed, and nothing is gathered.  Viewing each row as complex128 numbers
x_p + i*x_q, a round's column rotations are one multiply by
i e^(i theta) = sqrt(z / |z|), z = -(|d| + tiny) + 2i apq sign(d),
d = app - aqq, with z's parts divided by |z| as reals (numpy's complex /
real division multiplies by a rounded reciprocal), so a zero pivot, the
bye's included, gets exactly +-i: an exact signed swap.  Every pair is
rotated; the kernel has no skip test.

Every array a kernel rotates is the leading rows * m floats of a buffer
with two spare zeros after it, so both parities read it as one contiguous
(rows x m/2) complex view: the even rounds from the buffer's first float,
the odd rounds from its second.  The odd view's last column holds no pair:
it joins each row's last entry to the next row's first (the last row's to
the first spare zero).  Its rotation is exactly 1 + 0i, set once, and the
odd rounds compute rotations and zero pivots for their m/2 - 1 real pairs
only.  So no round works on a view that starts inside a row, which numpy
copies at every call, and every round writes into buffers made before the
first sweep.

Which path runs is decided by the input.  A positive definite matrix of
order up to ``SINGLE_BLOCK_MAX`` takes the one-sided path (implicit
Cholesky Jacobi: Veselic & Hari 1989; preconditioned by the pivoted
factor: Drmac & Veselic 2008; more accurate than two-sided Jacobi on such
matrices: Demmel & Veselic 1992).  The library's own pivoted Cholesky loop
gives X with X X^T = a, refused unless every pivot exceeds n * eps times
the first, and the kernel rotates X's columns: for each pair, one square
and one column sum of the complex view give d + 2i apq of X^T X, and the
same multiply as above rotates the pair.  There is no transpose, no pivot
zeroing and no accumulated eigenvector matrix: the normalized columns are
the eigenvectors, and their Rayleigh quotients the eigenvalues.  Sweeps
stop when no two columns have a cosine above ``CONVERGENCE_TOL``, measured
from one product X^T X before every sweep, whose off-diagonal mass is
reported.

Every other matrix (indefinite, semidefinite or larger) takes the
two-sided path.  The kernel multiplies the pair columns, copies the
transpose into the other of two ping-pong buffers, where the same multiply
rotates the rows, and zeros the pivots; sweeps stop when the off-diagonal
mass falls below ``CONVERGENCE_TOL * ||a||_F``.  Up to ``SINGLE_BLOCK_MAX``
the kernel sweeps the whole matrix.  Larger matrices are padded with byes
and cut into an even count of equal index blocks about ``BLOCK_WIDTH`` wide,
met in the same odd-even order (block Jacobi; Bischof 1989, Golub & Van
Loan section 8.5): a round's block pairs are adjacent slices of the
diagonal, each pair's principal submatrix gets one kernel sweep, and the
accumulated rotation reaches the whole matrix and the eigenvectors as
matrix products.  That sweep reverses the pair, so its blocks trade places,
and a block sweep leaves the whole order reversed just as a kernel sweep
does.  On every path the reversal left by an odd sweep count is undone
once, at the end.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotSorted, NotSymmetric

SYMMETRY_TOL = 1e-10
# Two-sided sweeps stop once the off-diagonal Frobenius mass is below this
# share of ||a||_F, one-sided sweeps once no two columns of the factor have
# a cosine above it.  What is left over becomes the error of every
# eigenvector, and of each factor mapped through 1/sigma from them, so the
# target sits near round-off: at 1e-12 the last sweep often landed between
# 1e-13 and 1e-12, costing up to a digit of orthogonality and
# reconstruction.  Convergence is quadratic, so 1e-14 costs one sweep at
# most (12 -> 13 block sweeps at n = 768).
CONVERGENCE_TOL = 1e-14
MAX_SWEEPS = 50
RANK_TOL = 1e-10

# Up to this order the kernel sweeps the whole matrix; above it, pairs of
# equal blocks of about BLOCK_WIDTH indices are.  On the ladder's matrices
# (one solve each, 2-vCPU VM, OpenBLAS) the whole matrix against block pairs
# took 0.12 against 0.16 s at n = 128, 0.34 against 0.35 s at n = 192 and
# 0.90 against 0.78 s at n = 256, where the pairs left orthogonality at
# 2.0e-14 against 1.1e-14.  So the cut stays at 256: below it the pairs
# are no faster, and at 256 they save an eighth of the time for a third of
# a digit.  BLOCK_WIDTH was tuned at n = 768 (BENCH_eig.json,
# block_width_probe) and is kept.  The one-sided path stops at the same
# order: unblocked, it took 0.66 against 0.98 s on a Gaussian Gram at
# n = 300, 3.74 against 3.93 s at n = 512, and 14.7 against 10.9 s on
# exp1's operator at n = 768 (one solve each, same VM).
SINGLE_BLOCK_MAX = 256
BLOCK_WIDTH = 48
_TINY = np.finfo(np.float64).tiny
_EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
class EigenResult:
    """Full spectrum of a symmetric matrix, sorted non-increasing.

    ``vectors[:, p]`` is the orthonormal eigenvector paired with
    ``eigenvalues[p]``; ``rank`` counts eigenvalues above the relative rank
    threshold (the spectrum itself is never truncated here).  ``sweeps``
    counts the Jacobi sweeps taken and ``off_norm`` is the off-diagonal
    Frobenius mass they left, on the scale of the input: that of X^T X, for
    the Cholesky factor X, on the one-sided path, and that of the rotated
    matrix on the two-sided one (see ``sym_eig``).
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    rank: int
    sweeps: int
    off_norm: float


def asymmetry(a):
    """max|a - a^T| of a square matrix and its bound ``SYMMETRY_TOL * max|a|``."""
    scale = float(np.abs(a).max(initial=0.0))
    return float(np.abs(a - a.T).max(initial=0.0)), SYMMETRY_TOL * scale


def check_symmetric(a):
    """Validate that ``a`` is square, finite and symmetric within ``SYMMETRY_TOL``.

    Returns the matrix as a float64 array; raises NotSymmetric otherwise.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NotSymmetric("matrix has non-finite entries")
    asym, limit = asymmetry(a)
    if asym > limit:
        raise NotSymmetric(
            f"asymmetry {asym:.3e} exceeds {SYMMETRY_TOL:.1e} * max|a| = {limit:.3e}", asym
        )
    return a


def _off_diagonal_norm(w):
    # Summed from the off-diagonal entries themselves; subtracting the
    # diagonal mass from the total would cancel catastrophically once the
    # matrix is nearly diagonal.
    off = w.copy()
    np.fill_diagonal(off, 0.0)
    return math.sqrt(float((off * off).sum()))


def _padded(x, rows, cols):
    # Zeros (rows x cols) with x in the top-left corner (the rest are byes),
    # laid out as the leading rows * cols floats of a buffer with two spare
    # zeros after them.  Every array a kernel rotates comes from here, so
    # that both parities of a round view it as one contiguous complex array
    # (see _pairs): the odd view ends on the first spare zero, and the second
    # keeps the buffer a whole number of complex numbers.  They must be
    # finite, since the turn by 1 multiplies the first by 0.
    flat = np.zeros(rows * cols + 2)
    padded = flat[: rows * cols].reshape(rows, cols)
    padded[: x.shape[0], : x.shape[1]] = x
    return padded


def _pairs(x, first):
    # The pairs (first, first + 1), (first + 2, first + 3), ... of every row
    # of x (from _padded, cols even) as one contiguous (rows x cols/2)
    # complex128 view of its buffer from offset `first`.  At first = 1 the
    # last column holds no pair: it joins each row's last entry to the next
    # row's first (the last row's to the first spare zero), and the kernels
    # turn it by exactly 1, which moves no value (a zero's sign at most).
    return x.base[first : first + x.size].view(np.complex128).reshape(len(x), -1)


def _turns(m):
    # For each parity `first`: its count k of real pairs, the buffer z of
    # their rotations as real pairs, the same as complex numbers, and the
    # m / 2 numbers that turn its view (_pairs).  Each parity has its own
    # buffer; the odd one's last number, for the wrapping column, is set to
    # exactly 1 + 0i here and never written again.
    for first in (0, 1):
        k = (m - first) // 2
        parts = np.zeros((m // 2, 2))
        parts[k:, 0] = 1.0
        turns = parts.view(np.complex128)[:, 0]
        yield first, k, parts[:k], turns[:k], turns


def _half_angle(d, apq, factor, z, rotation, scratch):
    # The rotations i e^(i theta) = sqrt(z / |z|) of the pairs with pivots
    # d = app - aqq and apq, given as `factor` * apq.  z, rotation's parts as
    # real pairs, is minus the z of tan(2 theta) = 2 apq / (aqq - app), so its
    # root is +-i e^(i theta) with |theta| <= pi/4; `tiny` keeps |z| nonzero,
    # and copysign gives d = 0 the angle pi/4.  `scratch`, one float per
    # pair, holds |d|, the sign and |z| in turn, so nothing is allocated.
    np.abs(d, out=scratch)
    np.subtract(-_TINY, scratch, out=z[:, 0])
    np.copysign(factor, d, out=scratch)
    np.multiply(scratch, apq, out=z[:, 1])
    np.abs(rotation, out=scratch)
    z /= scratch[:, None]
    np.sqrt(rotation, out=rotation)


def _odd_even(w, v):
    # Returns a function that runs one kernel sweep in place: w (m x m, m
    # even) <- J^T w J and v <- v J, both from _padded.  Round r rotates the
    # pairs (f, f + 1), (f + 2, f + 3), ... with f = r % 2.  m is even, so a
    # round's parity fixes both its pairs and the buffer it reads.  The
    # columns of src, dst and v are turned through the contiguous views of
    # _pairs; an odd round turns the wrapping column by exactly 1, and
    # computes rotations and zeros pivots for its m/2 - 1 real pairs only.
    m = len(w)
    step = 2 * (m + 1)
    buffers = (w, _padded(w, m, m))
    diff, scratch = np.empty(m // 2), np.empty(m // 2)
    rounds = []
    for first, k, z, rotation, turns in _turns(m):
        src, dst = buffers[first], buffers[1 - first]
        # Flat from the first pair's (p, p): offsets 0, 1, m and m + 1 hold
        # (p, p), (p, q), (q, p) and (q, q), and each next pair is `step` on.
        a, b = (x.reshape(-1)[first * (m + 1) :] for x in (src, dst))
        rounds.append((
            a[::step][:k], a[m + 1 :: step][:k], a[1::step][:k], diff[:k],
            z, rotation, scratch[:k], turns, src, dst,
            _pairs(src, first), _pairs(dst, first),
            b[1::step][:k], b[m::step][:k], _pairs(v, first),
        ))

    def sweep():
        for _ in range(m // 2):
            for (app, aqq, apq, diff, z, rotation, tmp, turns, src, dst,
                 src_c, dst_c, upper, lower, vc) in rounds:
                np.subtract(app, aqq, out=diff)
                _half_angle(diff, apq, 2.0, z, rotation, tmp)
                np.multiply(src_c, turns, out=src_c)
                np.copyto(dst, src.T)
                np.multiply(dst_c, turns, out=dst_c)
                upper.fill(0.0)
                lower.fill(0.0)
                np.multiply(vc, turns, out=vc)

    return sweep


def _block_sweep(w, v, width):
    # Returns a function that runs one block sweep in place, in the kernel's
    # odd-even order over blocks of `width` indices (len(w) a multiple of
    # 2 * width).  Round r meets the block pairs [lo, lo + 2 * width), lo
    # stepping by 2 * width from (r % 2) * width.  A pair's principal
    # submatrix gets one kernel sweep accumulating Q, which reverses it;
    # then w <- Q^T w Q on those rows and columns (one product, whose
    # transpose gives the rows) and v <- v Q.  Of the k blocks (k even), each
    # meets the k - 1 others once and is reversed at each meeting, an odd
    # count, so, like a kernel sweep, a block sweep reverses the whole order.
    m, size = len(w), 2 * width
    identity = np.eye(size)

    def sweep():
        for r in range(m // width):
            for lo in range(r % 2 * width, m - size + 1, size):
                s = slice(lo, lo + size)
                sub = _padded(w[s, s], size, size)
                rot = _padded(identity, size, size)
                _odd_even(sub, rot)()
                cols = w[:, s] @ rot
                w[:, s] = cols
                w[s, :] = cols.T
                w[s, s] = sub
                v[:, s] = v[:, s] @ rot

    return sweep


def _pivoted_cholesky(w):
    # X (n x m, from _padded, m = n padded to even by a zero bye column) with
    # X X^T = w: column k is the Cholesky factor's, pivoted on the largest
    # remaining diagonal.  None unless every pivot exceeds n * eps times the
    # first, that is, unless w is safely positive definite.
    n = len(w)
    x = _padded(np.empty((n, 0)), n, n + n % 2)
    left = np.diagonal(w).copy()  # the remaining Schur complement's diagonal
    floor = n * _EPS * left.max()
    pivoted = np.zeros(n, dtype=bool)
    for k in range(n):
        p = int(np.argmax(left))
        if not left[p] > floor:
            return None
        root = math.sqrt(left[p])
        col = x[:, k]
        np.subtract(w[:, p], x[:, :k] @ x[p, :k], out=col)
        col /= root
        pivoted[p] = True
        col[pivoted] = 0.0
        col[p] = root
        left -= col * col
        left[pivoted] = -np.inf
    return x


def _one_sided(x):
    # Returns a function that runs one kernel sweep in place on the columns
    # of x (n x m, m even, from _padded): x <- x J, with J the rotations the
    # kernel would apply to x^T x, in the same odd-even order, so a sweep
    # leaves the columns reversed.  Each row's pair entries read as complex
    # c = x_p + i x_q, so one square and one column sum give
    # sum(c^2) = |x_p|^2 - |x_q|^2 + 2i x_p.x_q, the d and 2 apq of x^T x.
    # Both parities square, sum and turn one contiguous view of x's buffer
    # (_pairs); an odd round sums its wrapping column too but never reads
    # that sum, computes the m/2 - 1 rotations of its real pairs, and turns
    # the wrapping column by exactly 1.
    n, m = x.shape
    squares = np.empty((n, m // 2), np.complex128)
    sums = np.empty(m // 2, np.complex128)
    scratch = np.empty(m // 2)
    rounds = []
    for first, k, z, rotation, turns in _turns(m):
        rounds.append((
            _pairs(x, first), sums.real[:k], sums.imag[:k],
            z, rotation, scratch[:k], turns,
        ))

    def sweep():
        for _ in range(m // 2):
            for pairs, d, apq, z, rotation, tmp, turns in rounds:
                np.square(pairs, out=squares)
                np.add.reduce(squares, axis=0, out=sums)
                _half_angle(d, apq, 1.0, z, rotation, tmp)
                np.multiply(pairs, turns, out=pairs)

    return sweep


def _cosines(x):
    # The off-diagonal Frobenius mass of g = x^T x and the largest cosine
    # |g_pq| / sqrt(g_pp g_qq) between two columns of x.  The bye, a zero
    # column, has a zero row and column in g, which any finite scale keeps
    # at zero.  g is reused in place, so no other m x m array is made.
    g = x.T @ x
    scale = 1.0 / np.sqrt(np.maximum(np.diagonal(g), _TINY))
    np.fill_diagonal(g, 0.0)
    off = math.sqrt(float(np.vdot(g, g)))
    np.abs(g, out=g)
    g *= scale
    g *= scale[:, None]
    return off, float(g.max())


def sym_eig(a):
    """Eigendecomposition of a ``check_symmetric`` matrix via (block) Jacobi.

    A matrix of order at most ``SINGLE_BLOCK_MAX`` whose pivoted Cholesky
    factor X (X X^T = a, up to the power-of-two scaling) exists, with every
    pivot above n * eps times the first, is solved by one-sided Jacobi on
    X's columns: sweeps stop once no two columns have a cosine above
    ``CONVERGENCE_TOL``, and the eigenvectors are the normalized columns,
    the eigenvalues their Rayleigh quotients.  Any other matrix
    (indefinite, semidefinite, or larger) is swept two-sided until its
    off-diagonal Frobenius mass drops below ``CONVERGENCE_TOL * ||a||_F``;
    above ``SINGLE_BLOCK_MAX`` in odd-even order over pairs of equal blocks
    of about ``BLOCK_WIDTH`` indices, padded with zero byes.  ``sweeps``
    counts the sweeps of the path taken; ``off_norm`` is the off-diagonal
    Frobenius mass of X^T X on the one-sided path and of the swept matrix
    on the two-sided one.  The test is made before every sweep; after
    ``MAX_SWEEPS`` sweeps NoConvergence is raised, carrying that mass as
    its residual.  Eigenvalues are returned non-increasing with sign-fixed
    orthonormal eigenvector columns.
    """
    a = check_symmetric(a)
    n = a.shape[0]
    if n == 0:
        return EigenResult(np.empty(0), np.empty((0, 0)), 0, 0, 0.0)
    # The sweeps run on a copy scaled by a power of two to max|w| < 1, so
    # squaring entries for the norms can neither overflow (entries above
    # ~1e154) nor underflow (below ~1e-154).  Power-of-two scaling is exact,
    # so rotations, sweep counts and results are those of the unscaled
    # matrix.  Halving before the sum keeps the symmetrization finite too.
    exponent = math.frexp(float(np.abs(a).max()))[1]
    half = np.ldexp(a, -exponent - 1)
    w = half + half.T
    x = _pivoted_cholesky(w) if n <= SINGLE_BLOCK_MAX else None
    if x is None:
        target = CONVERGENCE_TOL * math.sqrt(float((w * w).sum()))
        width = math.ceil(n / (2 * math.ceil(n / (2 * BLOCK_WIDTH)))) if n > SINGLE_BLOCK_MAX else 1
        m = -(-n // (2 * width)) * 2 * width
        w = _padded(w, m, m)
        v = _padded(np.eye(n), n, m)
        sweep = _block_sweep(w, v, width) if width > 1 else _odd_even(w, v)

        def measure():
            off = _off_diagonal_norm(w)
            return off, off <= target
    else:
        v = x
        sweep = _one_sided(x)

        def measure():
            off, cosine = _cosines(x)
            return off, cosine <= CONVERGENCE_TOL

    off, converged = measure()
    sweeps = 0
    while not converged:
        if sweeps >= MAX_SWEEPS:
            off = math.ldexp(off, exponent)
            raise NoConvergence(
                f"Jacobi sweeps exhausted: off-diagonal {off:.3e} left after "
                f"{MAX_SWEEPS} sweeps",
                residual=off,
            )
        sweep()
        sweeps += 1
        off, converged = measure()
    # Undone, the reversal left by an odd sweep count puts the byes back
    # past index n, unread.
    undo = slice(None, None, -1 if sweeps % 2 else 1)
    v = v[:, undo][:, :n]
    if x is None:
        eigenvalues = np.diagonal(w)[undo][:n]
    else:
        # Rayleigh quotients u^T w u, not squared column norms: an exact
        # input stays exact (squared norms give 1 + eps for the identity).
        v = v / np.sqrt((v * v).sum(axis=0))
        eigenvalues = (v * (w @ v)).sum(axis=0)
    eigenvalues = np.ldexp(eigenvalues, exponent)
    order = np.argsort(-eigenvalues, kind="stable")
    eigenvalues = eigenvalues[order]
    vectors = np.ascontiguousarray(v[:, order])
    _fix_signs(vectors)
    return EigenResult(
        eigenvalues,
        vectors,
        numerical_rank(eigenvalues),
        sweeps,
        math.ldexp(off, exponent),
    )


def _fix_signs(vectors):
    # Largest-magnitude entry of each column made positive; argmax takes the
    # lowest index on ties, so the convention is reproducible.  The flip is
    # one product of the whole array with a row of signs (exact, and faster
    # than gathering the flagged columns at n = 768), never a ufunc with
    # out= aliasing a strided column view: those miscompute on some numpy
    # builds (seen with np.negative at 64-byte strides on numpy 2.2).
    peaks = np.argmax(np.abs(vectors), axis=0)
    vectors *= np.where(vectors[peaks, np.arange(vectors.shape[1])] < 0.0, -1.0, 1.0)
    # The kernel's quarter turns make -0.0 out of exact zeros; adding +0.0
    # turns each into +0.0, so vectors and the files written from them are
    # canonical.
    vectors += 0.0


def numerical_rank(eigenvalues):
    """Count eigenvalues above ``RANK_TOL`` relative to the largest.

    The sequence must be finite and non-increasing (NotSorted otherwise).
    A spectrum whose largest value is not positive has rank 0.
    """
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if lam.ndim != 1:
        raise NotSorted(f"expected a 1-d spectrum, got shape {lam.shape}")
    bad = np.flatnonzero(~np.isfinite(lam))
    if bad.size:
        raise NotSorted(f"spectrum entry {bad[0]} is {lam[bad[0]]}, not finite")
    if np.any(lam[:-1] < lam[1:]):
        raise NotSorted("spectrum is not sorted non-increasing")
    # A largest value that is not positive has none above its RANK_TOL share.
    return int(np.count_nonzero(lam > RANK_TOL * lam[0])) if lam.size else 0
