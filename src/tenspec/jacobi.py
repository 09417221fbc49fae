"""Symmetric eigendecomposition of non-negative definite matrices by one-sided Jacobi.

Self-contained on purpose: rotation parameters, sweep control, ordering,
the Cholesky factorization and sign fixing are all implemented here, and no
library eigensolver or factorization is called; numpy supplies elementwise
arithmetic and BLAS matrix products only.

Every matrix tenspec diagonalizes is non-negative definite by construction
(an SA-NND operator, or the Gram of an unfolding), so one kernel serves:
implicit Cholesky Jacobi (Veselic & Hari 1989; preconditioned by the
pivoted factor: Drmac & Veselic 2008; more accurate than two-sided Jacobi
on such matrices: Demmel & Veselic 1992).  The library's own pivoted
Cholesky loop gives X (n x k) with X X^T = a - S, stopping at the first
pivot not above min(n * eps, ``RANK_TOL`` / n) times a's largest diagonal
entry: k = n for a safely positive definite matrix, and S is the Schur
complement left at a stop.  A non-negative definite S there has ||S||_F at
most n times its largest diagonal entry (Higham 1990), so at most
``RANK_TOL`` times a's; a matrix whose S is above that bound is refused as
indefinite (NotNND).  By Weyl, lambda_min(a) >= -||S||_F, so an accepted
matrix has no eigenvalue below -``RANK_TOL`` * lambda_1.  The kernel
rotates X's columns, with no transpose, no pivot zeroing and no
accumulated eigenvector matrix: the normalized columns are the
eigenvectors, their Rayleigh quotients the eigenvalues, and the n - k
eigenvalues past the stop are 0.  Sweeps stop when no two columns have a
cosine above ``CONVERGENCE_TOL``, measured from one product X^T X before
every sweep, whose off-diagonal mass is reported.

The kernel is a parallel-order Jacobi sweep in odd-even order (Brent & Luk
1985; convergence: Luk & Park 1989).  An odd column count is padded by one
zero column (the bye), and rounds alternate between the pairs (0, 1),
(2, 3), ... and (1, 2), (3, 4), ....  Each rotation adds a quarter turn to
the Jacobi angle, so its two columns trade places: a sweep's m rounds form
the odd-even transposition network, which meets every pair once and leaves
the order reversed, and nothing is gathered.  Viewing each row as complex128
numbers c = x_p + i*x_q, one square and one column sum give
sum(c^2) = d + 2i apq of X^T X; the column sum is one BLAS matrix-vector
product, a row of ones times the squares' real view, which sums each column
in one order whatever the BLAS thread count.  A round's rotations are one
multiply by i e^(i theta) = sqrt(z / |z|), z = -(|d| + tiny) + 2i apq sign(d),
with z's parts divided by |z| as reals (numpy's complex / real division
multiplies by a rounded reciprocal), so a zero pivot, the bye's included,
gets exactly +-i: an exact signed swap.  Every pair is rotated; the kernel
has no skip test.

Every array the kernel rotates is the leading rows * m floats of a buffer
with two spare zeros after it, so both parities read it as one contiguous
(rows x m/2) complex view: the even rounds from the buffer's first float,
the odd rounds from its second.  The odd view's last column holds no pair:
it joins each row's last entry to the next row's first (the last row's to
the first spare zero).  Its rotation is exactly 1 + 0i, set once, and the
odd rounds compute rotations for their m/2 - 1 real pairs only.  So no
round works on a view that starts inside a row, which numpy copies at every
call, and every round writes into buffers, through views, made once per
solve, before the first sweep.

A factor of more than ``SINGLE_BLOCK_MAX`` columns is padded with byes and
cut into an even count of equal column blocks about ``BLOCK_WIDTH`` wide,
met in the same odd-even order (block Jacobi: Bischof 1989; block one-sided
Jacobi: Hari, Singer & Singer 2010).  For a pair's columns X_s, Y^T is the
pivoted Cholesky factor of X_s^T X_s, stopped at its floor, so Y has at
most 2 * ``BLOCK_WIDTH`` rows whatever n is; the kernel sweeps Y's columns
once, carrying the rotation J, and X_s <- X_s J is one matrix product.
That sweep reverses the pair, so its blocks trade places, and a block sweep
leaves the whole order reversed just as a kernel sweep does.  On either
path the reversal left by an odd sweep count is undone once, at the end.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotNND, NotSorted, NotSymmetric

SYMMETRY_TOL = 1e-10
# Sweeps stop once no two columns of the factor have a cosine above this.
# What is left over becomes the error of every eigenvector, and of each
# factor mapped through 1/sigma from them, so the target sits near
# round-off: at 1e-12 the last sweep often landed between 1e-13 and 1e-12,
# costing up to a digit of orthogonality and reconstruction.  Convergence is
# quadratic, so 1e-14 costs one sweep at most.
CONVERGENCE_TOL = 1e-14
MAX_SWEEPS = 50
RANK_TOL = 1e-10

# Up to this many columns the kernel sweeps the whole factor; above it,
# pairs of equal blocks of about BLOCK_WIDTH columns are.  On Gaussian Grams
# the whole factor against block pairs took 1.07 against 1.28 s at n = 400,
# 1.43 against 1.37 s at 448, 1.99 against 1.57 s at 480 and 2.43 against
# 2.12 s at 512 (medians of three solves alternating, 2-vCPU VM;
# BENCH_eig.json, blas_column_sum), so the cut stays where the two paths
# are within 5% of each other.  On exp1's operator (n = 768) block widths
# of 32, 48, 64 and 96 took 6.6, 5.5, 5.4 and 5.4 s (two solves each), so
# the width stays at 48.
SINGLE_BLOCK_MAX = 448
BLOCK_WIDTH = 48
_TINY = np.finfo(np.float64).tiny
_EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
class EigenResult:
    """Full spectrum of a non-negative definite matrix, sorted non-increasing.

    ``eigenvalues`` holds all n; ``vectors[:, p]`` is the orthonormal
    eigenvector paired with ``eigenvalues[p]`` for the k columns of the
    pivoted Cholesky factor (k = n for a positive definite matrix), and the
    n - k eigenvalues past them are exactly 0.0, with no vector.  ``rank``
    counts eigenvalues above the relative rank threshold (the spectrum itself
    is never truncated here).  ``sweeps`` counts the Jacobi sweeps taken and
    ``off_norm`` is the off-diagonal Frobenius mass of X^T X they left, for
    the factor X, on the scale of the input (see ``sym_eig``).
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


def _padded(x, rows, cols):
    # Zeros (rows x cols) with x in the top-left corner (the rest are byes),
    # laid out as the leading rows * cols floats of a buffer with two spare
    # zeros after them.  Every array the kernel rotates comes from here, so
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
    # row's first (the last row's to the first spare zero), and the kernel
    # turns it by exactly 1, which moves no value (a zero's sign at most).
    return x.base[first : first + x.size].view(np.complex128).reshape(x.shape[0], x.shape[1] // 2)


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


def _half_angle(d, apq, parts, rotation):
    # Returns a function that sets the rotations i e^(i theta) = sqrt(z / |z|)
    # of the pairs with pivots d = app - aqq and 2 apq, in place, from the
    # values those arrays hold when it is called.  z, rotation's parts as
    # real pairs, is minus the z of tan(2 theta) = 2 apq / (aqq - app), so
    # its root is +-i e^(i theta) with |theta| <= pi/4; `tiny` keeps |z|
    # nonzero, and copysign gives d = 0 the angle pi/4.  Its views and
    # `scratch`, one float per pair, which holds |d|, the sign and |z| in
    # turn, are made here once, so a call allocates nothing.
    re, im = parts[:, 0], parts[:, 1]
    scratch = np.empty(len(d))
    column = scratch[:, None]

    def turn():
        np.abs(d, out=scratch)
        np.subtract(-_TINY, scratch, out=re)
        np.copysign(1.0, d, out=scratch)
        np.multiply(scratch, apq, out=im)
        np.abs(rotation, out=scratch)
        np.divide(parts, column, out=parts)
        np.sqrt(rotation, out=rotation)

    return turn


def _pivoted_cholesky(w):
    # X (n x m, from _padded, m = k padded to even by a zero bye column) with
    # X X^T = w - S: column j is the Cholesky factor's, pivoted on the largest
    # remaining diagonal.  It stops at the first pivot not above min(n eps,
    # RANK_TOL / n) max diag(w) (n eps up to n = 671), where a non-negative
    # definite Schur complement S has ||S||_F <= n max diag(S) <= RANK_TOL
    # max diag(w) (Higham 1990); S is formed there once, and NotNND raised if
    # ||S||_F is above that.  k = n when w is safely positive definite.
    n = len(w)
    x = _padded(np.empty((n, 0)), n, n + n % 2)
    left = np.diagonal(w).copy()  # the remaining Schur complement's diagonal
    top = float(left.max())
    floor = min(n * _EPS, RANK_TOL / n) * top
    pivoted = np.zeros(n, dtype=bool)
    for k in range(n):
        p = int(np.argmax(left))
        if not left[p] > floor:
            break
        root = math.sqrt(left[p])
        col = x[:, k]
        np.subtract(w[:, p], x[:, :k] @ x[p, :k], out=col)
        col /= root
        pivoted[p] = True
        col[pivoted] = 0.0
        col[p] = root
        left -= col * col
        left[pivoted] = -np.inf
    else:
        return x
    rest = np.flatnonzero(~pivoted)
    s = w[np.ix_(rest, rest)] - x[rest, :k] @ x[rest, :k].T
    schur = math.sqrt(float(np.einsum("ij,ij->", s, s)))  # as in core.norm
    if schur > RANK_TOL * top:
        raise NotNND(
            f"pivoted Cholesky left a Schur complement of norm "
            f"{schur / top if top > 0.0 else math.inf:.3e} times the largest "
            f"diagonal entry, above {RANK_TOL:.1e}; the matrix is not "
            "non-negative definite"
        )
    return _padded(x[:, :k], n, k + k % 2)


def _one_sided(x, carry=None):
    # Returns a function that runs one kernel sweep in place on the columns
    # of x (n x m, m even, from _padded): x <- x J, with J the rotations that
    # make x^T x diagonal, in odd-even order, so a sweep leaves the columns
    # reversed; `carry` (from _padded, m columns), if given, gets the same
    # turns, carry <- carry J.  Each row's pair entries read as complex
    # c = x_p + i x_q, so one square and one column sum give
    # sum(c^2) = |x_p|^2 - |x_q|^2 + 2i x_p.x_q, the d and 2 apq of x^T x.
    # The column sum is one BLAS product of a row of ones with the squares'
    # real view (gemv: each sum in one fixed order, the same at any BLAS
    # thread count).  Both parities square, sum and turn one contiguous view
    # of x's buffer (_pairs); an odd round sums its wrapping column too but
    # never reads that sum, computes the m/2 - 1 rotations of its real
    # pairs, and turns the wrapping column by exactly 1.  Every view a round
    # reads is made here, once per solve.
    n, m = x.shape
    squares = np.empty((n, m // 2), np.complex128)
    sums = np.empty(m // 2, np.complex128)
    real_squares, real_sums = squares.view(np.float64), sums.view(np.float64)
    ones = np.ones(n)
    rounds = []
    for first, k, z, rotation, turns in _turns(m):
        rounds.append((
            _pairs(x, first), _half_angle(sums.real[:k], sums.imag[:k], z, rotation),
            turns, None if carry is None else _pairs(carry, first),
        ))

    def sweep():
        for _ in range(m // 2):
            for pairs, half_angle, turns, carried in rounds:
                np.square(pairs, out=squares)
                np.matmul(ones, real_squares, out=real_sums)
                half_angle()
                np.multiply(pairs, turns, out=pairs)
                if carried is not None:
                    np.multiply(carried, turns, out=carried)

    return sweep


def _block_one_sided(x, width):
    # Returns a function that runs one block sweep in place on the columns
    # of x (n x m, from _padded, m a multiple of 2 * width), in the kernel's
    # odd-even order over blocks of `width` columns: round r meets the block
    # pairs [lo, lo + 2 * width), lo stepping by 2 * width from
    # (r % 2) * width.  For a pair's columns X_s, the kernel sweeps Y once,
    # Y^T the pivoted Cholesky factor of X_s^T X_s (a zero bye only stops it
    # sooner), carrying J, and X_s <- X_s J.  That sweep reverses the pair.
    # Of the m / width blocks (an even count), each meets the others once
    # and is reversed at each meeting, an odd count, so, like a kernel
    # sweep, a block sweep reverses the whole order.
    m, size = x.shape[1], 2 * width
    identity = np.eye(size)

    def sweep():
        for r in range(m // width):
            for lo in range(r % 2 * width, m - size + 1, size):
                s = slice(lo, lo + size)
                factor = _pivoted_cholesky(x[:, s].T @ x[:, s])
                y = _padded(factor.T, factor.shape[1], size)
                rotation = _padded(identity, size, size)
                _one_sided(y, rotation)()
                x[:, s] = x[:, s] @ rotation

    return sweep


def _cosines(x):
    # The off-diagonal Frobenius mass of g = x^T x and the largest cosine
    # |g_pq| / sqrt(g_pp g_qq) between two columns of x.  A bye, a zero
    # column, has a zero row and column in g, which any finite scale keeps
    # at zero.  g is reused in place, so no other m x m array is made.
    g = x.T @ x
    scale = 1.0 / np.sqrt(np.maximum(np.diagonal(g), _TINY))
    np.fill_diagonal(g, 0.0)
    off = math.sqrt(float(np.einsum("ij,ij->", g, g)))  # as in core.norm
    np.abs(g, out=g)
    g *= scale
    g *= scale[:, None]
    return off, float(g.max(initial=0.0))


def sym_eig(a):
    """Eigendecomposition of a non-negative definite ``check_symmetric``
    matrix by one-sided Jacobi on its pivoted Cholesky factor.

    The factor X (n x k, X X^T = a - S up to the power-of-two scaling)
    stops at the first pivot not above min(n * eps, ``RANK_TOL`` / n) times
    the largest diagonal entry of a, and NotNND is raised when the Schur
    complement S it leaves has ||S||_F above ``RANK_TOL`` times that entry,
    which no non-negative definite S below the floor has (by Weyl, no
    accepted matrix has an eigenvalue below -``RANK_TOL`` * lambda_1).  X's
    columns are swept until no two have a cosine above ``CONVERGENCE_TOL``,
    tested before every sweep; above ``SINGLE_BLOCK_MAX`` columns in
    odd-even order over pairs of equal blocks of about ``BLOCK_WIDTH``
    columns, padded with zero byes.  The eigenvectors are the normalized
    columns and the eigenvalues their Rayleigh quotients (rounding below 0
    read as 0), followed by n - k zeros: ``vectors`` is n x k.  ``off_norm``
    is the off-diagonal Frobenius mass of X^T X; after ``MAX_SWEEPS`` sweeps
    NoConvergence is raised, carrying that mass as its residual.
    Eigenvalues are returned non-increasing with sign-fixed orthonormal
    eigenvector columns.
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
    x = _pivoted_cholesky(w)
    k = int(np.count_nonzero(x.any(axis=0)))  # every column but a bye
    if k > SINGLE_BLOCK_MAX:
        width = math.ceil(k / (2 * math.ceil(k / (2 * BLOCK_WIDTH))))
        x = _padded(x[:, :k], n, -(-k // (2 * width)) * 2 * width)
        sweep = _block_one_sided(x, width)
    else:
        sweep = _one_sided(x)
    off, cosine = _cosines(x)
    sweeps = 0
    while cosine > CONVERGENCE_TOL:
        if sweeps >= MAX_SWEEPS:
            off = math.ldexp(off, exponent)
            raise NoConvergence(
                f"Jacobi sweeps exhausted: off-diagonal {off:.3e} left after "
                f"{MAX_SWEEPS} sweeps",
                residual=off,
            )
        sweep()
        sweeps += 1
        off, cosine = _cosines(x)
    # Undone, the reversal left by an odd sweep count puts the byes back
    # past index k, unread.
    v = x[:, :: -1 if sweeps % 2 else 1][:, :k]
    # Rayleigh quotients u^T w u, not squared column norms: an exact input
    # stays exact (squared norms give 1 + eps for the identity).
    v = v / np.sqrt((v * v).sum(axis=0))
    eigenvalues = np.ldexp(np.maximum((v * (w @ v)).sum(axis=0), 0.0), exponent)
    order = np.argsort(-eigenvalues, kind="stable")
    eigenvalues = np.append(eigenvalues[order], np.zeros(n - k))
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
