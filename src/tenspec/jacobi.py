"""Symmetric eigendecomposition by block Jacobi rotations.

Self-contained on purpose: rotation parameters, sweep control, ordering and
sign fixing are all implemented here, and no library eigensolver or
factorization is called; numpy supplies elementwise arithmetic and BLAS
matrix products only.

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
rotated and its pivot zeroed; the kernel has no skip test.  The transpose
is copied into the other of two ping-pong buffers, where the same multiply
rotates the rows.

Up to ``SINGLE_BLOCK_MAX`` the kernel sweeps the whole matrix, and the
reversal left by an odd sweep count is undone at the end.  Larger matrices
are cut into index blocks about ``BLOCK_WIDTH`` wide, met in round-robin
order (block Jacobi; Bischof 1989, Golub & Van Loan section 8.5): a block
pair's principal submatrix gets one kernel sweep, its reversal undone at
once so each block keeps its indices, and the accumulated rotation reaches
the whole matrix and the eigenvectors as matrix products.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotSorted, NotSymmetric

SYMMETRY_TOL = 1e-10
# Sweeps stop once the off-diagonal Frobenius mass is below this share of
# ||a||_F.  The off-diagonal mass left over becomes the error of every
# eigenvector, and of each factor mapped through 1/sigma from them, so the
# target sits near round-off: at 1e-12 the last sweep often landed between
# 1e-13 and 1e-12, costing up to a digit of orthogonality and
# reconstruction.  Convergence is quadratic, so 1e-14 costs one sweep at
# most (12 -> 13 block sweeps at n = 768).
CONVERGENCE_TOL = 1e-14
MAX_SWEEPS = 50
RANK_TOL = 1e-10

# Up to this order the kernel sweeps the whole matrix; above it, block
# pairs of about 2 * BLOCK_WIDTH indices are.  With the odd-even kernel, at
# n = 256 a single block took 0.85 s against 0.77 s in 96-wide pairs and
# kept orthogonality at 1.1e-14 against 2.0e-14.  At n = 768 (round-robin
# paired-layout kernel), 96-wide pairs ran in 22 s, 64- and 128-wide ones
# in 26 and 21 s, and 256-wide ones in 28 s (one random symmetric matrix
# each, 2-vCPU VM, OpenBLAS).
SINGLE_BLOCK_MAX = 256
BLOCK_WIDTH = 48
_TINY = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class EigenResult:
    """Full spectrum of a symmetric matrix, sorted non-increasing.

    ``vectors[:, p]`` is the orthonormal eigenvector paired with
    ``eigenvalues[p]``; ``rank`` counts eigenvalues above the relative rank
    threshold (the spectrum itself is never truncated here).  ``sweeps``
    counts the Jacobi sweeps taken and ``off_norm`` is the off-diagonal
    Frobenius mass they left, on the scale of the input.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    rank: int
    sweeps: int
    off_norm: float


def check_symmetric(a, tol=SYMMETRY_TOL):
    """Validate that ``a`` is square, finite and symmetric within ``tol``
    (relative to max|a|).

    Returns the matrix as a float64 array; raises NotSymmetric otherwise.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NotSymmetric("matrix has non-finite entries")
    scale = float(np.abs(a).max(initial=0.0))
    asym = float(np.abs(a - a.T).max(initial=0.0))
    if asym > tol * scale:
        raise NotSymmetric(
            f"asymmetry {asym:.3e} exceeds {tol:.1e} * max|a| = {tol * scale:.3e}"
        )
    return a


def _off_diagonal_norm(w):
    # Summed from the off-diagonal entries themselves; subtracting the
    # diagonal mass from the total would cancel catastrophically once the
    # matrix is nearly diagonal.
    off = w.copy()
    np.fill_diagonal(off, 0.0)
    return math.sqrt(float((off * off).sum()))


@functools.lru_cache(maxsize=8)
def _round_robin(m):
    # Round-robin tournament on 0..m-1, m even: player 0 stays put and the
    # others move one seat per round, so every pair meets exactly once in
    # the m - 1 rounds.  Returns arrays p, q of shape (rounds, m / 2) with
    # p < q.
    seats = list(range(m))
    half = m // 2
    p_rounds, q_rounds = [], []
    for _ in range(m - 1):
        pairs = [
            (min(a, b), max(a, b)) for a, b in zip(seats[:half], reversed(seats[half:]))
        ]
        p_rounds.append([a for a, _ in pairs])
        q_rounds.append([b for _, b in pairs])
        seats = [seats[0], seats[-1]] + seats[1:-1]
    return np.array(p_rounds, dtype=np.intp), np.array(q_rounds, dtype=np.intp)


def _padded(x):
    # A contiguous copy of x, an odd order padded by one zero index (the
    # bye), so that the odd-even rounds pair every index.
    n = len(x)
    padded = np.zeros((n + n % 2, n + n % 2))
    padded[:n, :n] = x
    return padded


def _odd_even(w, v):
    # Returns a function that runs one kernel sweep in place: w (m x m, m
    # even, C-contiguous) <- J^T w J and v <- v J.  Round r rotates the
    # pairs (f, f + 1), (f + 2, f + 3), ... with f = r % 2.  m is even, so a
    # round's parity fixes both its pairs and the buffer it reads.
    m = len(w)
    step = 2 * (m + 1)
    buffers = (w, np.empty_like(w))
    parts = np.empty((m // 2, 2))  # z, then the rotation, as real pairs
    rounds = []
    for first in (0, 1):
        src, dst = buffers[first], buffers[1 - first]
        k = (m - first) // 2
        pairs = slice(first, first + 2 * k)
        # Flat from the first pair's (p, p): offsets 0, 1, m and m + 1 hold
        # (p, p), (p, q), (q, p) and (q, q), and each next pair is `step` on.
        a, b = (x.reshape(-1)[first * (m + 1) :] for x in (src, dst))
        rounds.append((
            a[::step][:k], a[m + 1 :: step][:k], a[1::step][:k],
            parts[:k], parts[:k].view(np.complex128)[:, 0], src, dst,
            src[:, pairs].view(np.complex128), dst[:, pairs].view(np.complex128),
            b[1::step][:k], b[m::step][:k],
            v[:, pairs].view(np.complex128),
        ))

    def sweep():
        for _ in range(m // 2):
            for app, aqq, apq, z, rotation, src, dst, src_c, dst_c, upper, lower, vc in rounds:
                # z is minus the z of tan(2 theta) = 2 apq / (aqq - app), so
                # its root is +-i e^(i theta) with |theta| <= pi/4; `tiny`
                # keeps |z| nonzero, and copysign gives d = 0 the angle pi/4.
                d = app - aqq
                np.subtract(-_TINY, np.abs(d), out=z[:, 0])
                np.multiply(np.copysign(2.0, d), apq, out=z[:, 1])
                z /= np.abs(rotation)[:, None]
                np.sqrt(rotation, out=rotation)
                np.multiply(src_c, rotation, out=src_c)
                np.copyto(dst, src.T)
                np.multiply(dst_c, rotation, out=dst_c)
                upper.fill(0.0)
                lower.fill(0.0)
                np.multiply(vc, rotation, out=vc)

    return sweep


def _block_sweep(w, v, skip, blocks):
    # One block Jacobi sweep over the index blocks, in place.  A pair's
    # principal submatrix gets one kernel sweep accumulating Q; then
    # w <- Q^T w Q on those rows and columns (one product, whose transpose
    # gives the rows) and v <- v Q.
    for round_p, round_q in zip(*_round_robin(len(blocks))):
        for i, j in zip(round_p, round_q):
            idx = np.concatenate((blocks[i], blocks[j]))
            size = idx.size
            sub = w[np.ix_(idx, idx)]
            off = np.abs(sub)
            np.fill_diagonal(off, 0.0)
            if off.max() <= skip:
                continue
            sub = _padded(sub)
            rot = np.eye(size, len(sub))
            _odd_even(sub, rot)()
            rot = rot[:, ::-1][:, :size]
            cols = w[:, idx] @ rot
            w[:, idx] = cols
            w[idx, :] = cols.T
            w[np.ix_(idx, idx)] = sub[::-1, ::-1][:size, :size]
            v[:, idx] = v[:, idx] @ rot


def sym_eig(
    a,
    sym_tol=SYMMETRY_TOL,
    conv_tol=CONVERGENCE_TOL,
    max_sweeps=MAX_SWEEPS,
    rank_tol=RANK_TOL,
):
    """Eigendecomposition of a symmetric matrix via (block) Jacobi sweeps.

    Stops when the off-diagonal Frobenius mass drops below
    ``conv_tol * ||a||_F``, tested before every sweep; raises NoConvergence
    (carrying the residual) if it is still above after ``max_sweeps``
    sweeps.  Matrices of order above ``SINGLE_BLOCK_MAX`` are swept in
    blocks of about ``BLOCK_WIDTH`` indices.  Eigenvalues are returned
    non-increasing with sign-fixed orthonormal eigenvector columns.
    """
    a = check_symmetric(a, sym_tol)
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
    target = conv_tol * math.sqrt(float((w * w).sum()))
    single = n <= SINGLE_BLOCK_MAX
    if single:
        w = _padded(w)
        v = np.eye(n, len(w))
        sweep = _odd_even(w, v)
    else:
        count = 2 * math.ceil(n / (2 * BLOCK_WIDTH))
        blocks = np.array_split(np.arange(n), count)
        v = np.eye(n)
        # A block pair whose entries are all at or below `skip` cannot push
        # off(w) past the target even if every off-diagonal sits there.
        sweep = functools.partial(_block_sweep, w, v, target / n, blocks)
    off = _off_diagonal_norm(w)
    sweeps = 0
    while off > target:
        if sweeps >= max_sweeps:
            off, target = math.ldexp(off, exponent), math.ldexp(target, exponent)
            raise NoConvergence(
                f"Jacobi sweeps exhausted: off-diagonal {off:.3e} above "
                f"target {target:.3e} after {max_sweeps} sweeps",
                residual=off,
            )
        sweep()
        sweeps += 1
        off = _off_diagonal_norm(w)
    if single and sweeps % 2:
        # Undone, the reversal puts the bye back at index n, past all read.
        w, v = w[::-1, ::-1], v[:, ::-1]
    eigenvalues = np.ldexp(np.diagonal(w)[:n], exponent)
    order = np.argsort(-eigenvalues, kind="stable")
    eigenvalues = eigenvalues[order]
    vectors = np.ascontiguousarray(v[:, order])
    _fix_signs(vectors)
    return EigenResult(
        eigenvalues,
        vectors,
        numerical_rank(eigenvalues, rank_tol),
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


def numerical_rank(eigenvalues, rank_tol=RANK_TOL):
    """Count eigenvalues above ``rank_tol`` relative to the largest.

    The sequence must be non-increasing (NotSorted otherwise).  A spectrum
    whose largest value is not positive has rank 0.
    """
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if lam.ndim != 1:
        raise NotSorted(f"expected a 1-d spectrum, got shape {lam.shape}")
    if lam.size == 0:
        return 0
    if np.any(lam[:-1] < lam[1:]):
        raise NotSorted("spectrum is not sorted non-increasing")
    lam1 = float(lam[0])
    if lam1 <= 0.0:
        return 0
    return int(np.count_nonzero(lam > rank_tol * lam1))
