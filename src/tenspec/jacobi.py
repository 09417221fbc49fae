"""Symmetric eigendecomposition by block Jacobi rotations.

Self-contained on purpose: rotation parameters, sweep control, ordering and
sign fixing are all implemented here, and no library eigensolver or
factorization is called; numpy supplies elementwise arithmetic and BLAS
matrix products only.

The kernel is a parallel-order Jacobi sweep (Brent & Luk 1985): the index
pairs are met in round-robin tournament order, so each round rotates n/2
disjoint pairs at once.  The matrix is stored in the round's paired layout,
its indices ordered (p0, q0, p1, q1, ...), with an odd order padded by one
zero index (the bye), so that both entries of every pair sit side by side.
Viewing each row as complex128 numbers x_p + i*x_q, a round's column
rotations are then one multiply by c + i*s = e^(i theta).  That rotation is
the half-angle sqrt(z / |z|), z = |d| + 2i apq sign(d) with d = aqq - app,
normalized by dividing z's real and imaginary parts by |z| as reals (numpy's
complex / real division multiplies by a rounded reciprocal), so a zero pivot
gets exactly 1 + 0i.  Every pair of every round is rotated and its pivot
zeroed: there is no skip test inside the kernel.  A single gather transposes
the product and moves it towards the next round's layout, the same multiply
rotates the rows, and a second gather finishes the move: a few whole-array
passes per round.

Matrices of order up to ``SINGLE_BLOCK_MAX`` are swept by the kernel
directly, staying in the paired layout between sweeps.  Larger ones are cut
into index blocks about ``BLOCK_WIDTH`` wide, and each sweep meets the
blocks in the same round-robin order (block Jacobi; Bischof 1989, Golub &
Van Loan section 8.5): the principal submatrix of a block pair gets one
kernel sweep, and the rotation Q accumulated there is applied to the whole
matrix and to the eigenvectors as matrix products.
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
# pairs of about 2 * BLOCK_WIDTH indices are.  At n = 256 a single block
# keeps about 0.05 more digits of orthogonality than 96-wide pairs (1.3e-14
# against 1.5e-14) and took 1.2-1.3 s against 0.68-0.73 s.  At n = 768,
# 96-wide pairs ran in 22 s, 64- and 128-wide ones in 26 and 21 s, and
# 256-wide ones in 28 s (one random symmetric matrix each, 2-vCPU VM, OpenBLAS).
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


@functools.lru_cache(maxsize=8)
def _schedule(m):
    # The paired layouts of even order m.  Round r's layout lists its pairs
    # as (p0, q0, p1, q1, ...); `first` is round 0's, and `sigma[r]` moves
    # round r's layout to round r + 1's (position i takes position
    # sigma[r][i]); the last round's leads back to round 0's.  In
    # t = w.T[sigma[r]] pair k's pivots w[p, q] and w[q, p] sit at the flat
    # positions `pivots[r][:, k]`, found through the inverse of sigma[r].
    p, q = _round_robin(m)
    layouts = np.stack((p, q), axis=2).reshape(len(p), m)
    where = np.argsort(layouts, axis=1)
    sigma = np.take_along_axis(where, np.roll(layouts, -1, axis=0), axis=1)
    inverse = np.argsort(sigma, axis=1)
    even = np.arange(0, m, 2)
    pivots = np.stack(
        (inverse[:, 1::2] * m + even, inverse[:, 0::2] * m + even + 1), axis=1
    )
    return layouts[0], sigma, pivots


def _paired(x):
    # x (n x n) in round 0's paired layout; an odd order is padded with
    # one zero index, the bye.
    n = x.shape[0]
    first = _schedule(n + n % 2)[0]
    padded = np.zeros((first.size, first.size))
    padded[:n, :n] = x
    return padded[np.ix_(first, first)]


def _unpaired(x, n):
    # Inverse of `_paired`: natural index order, the bye dropped.
    where = np.argsort(_schedule(n + n % 2)[0])[:n]
    return x[np.ix_(where, where)]


def _parallel_sweep(w, v):
    # One parallel-order sweep, w <- J^T w J and v <- v J, each round's J
    # rotating disjoint (p, q) planes in round 0's paired layout: rotations
    # multiply the complex128 view, t = w.T[sigma] transposes (so the same
    # multiply rotates the other side) and moves rows to the next round's
    # layout, and t.T[sigma] moves the columns.  Returns (w, v) in round 0's.
    n = w.shape[0]
    step = 2 * (n + 1)
    _, sigma, pivots = _schedule(n)
    parts = np.empty((n // 2, 2))  # z, then the rotation, as real pairs
    rotation = parts.view(np.complex128)[:, 0]
    for perm, flat in zip(sigma, pivots):
        # tan(2 theta) = 2 apq / d and |theta| <= pi/4, so sweeps converge;
        # `tiny` keeps |z| nonzero and copysign gives d = 0 the angle pi/4.
        entries = w.reshape(-1)
        d = entries[n + 1 :: step] - entries[::step]
        np.add(np.abs(d), _TINY, out=parts[:, 0])
        np.multiply(np.copysign(2.0, d), entries[1::step], out=parts[:, 1])
        parts /= np.abs(rotation)[:, None]
        np.sqrt(rotation, out=rotation)
        wc = w.view(np.complex128)
        np.multiply(wc, rotation, out=wc)
        t = w.T[perm]
        tc = t.view(np.complex128)
        np.multiply(tc, rotation, out=tc)
        t.ravel()[flat] = 0.0
        w = t.T[perm]
        vc = v.view(np.complex128)
        np.multiply(vc, rotation, out=vc)
        v = np.take(v, perm, axis=1)
    return w, v


def _block_sweep(w, v, skip, blocks):
    # One block Jacobi sweep over the index blocks, in round-robin order.
    # The off-diagonal of a pair's principal submatrix is reduced by one
    # kernel sweep accumulating Q; then w <- Q^T w Q on those rows and
    # columns (one product, whose transpose gives the rows) and v <- v Q.
    for round_p, round_q in zip(*_round_robin(len(blocks))):
        for i, j in zip(round_p, round_q):
            idx = np.concatenate((blocks[i], blocks[j]))
            sub = w[np.ix_(idx, idx)]
            off = np.abs(sub)
            np.fill_diagonal(off, 0.0)
            if off.max() <= skip:
                continue
            paired = _paired(sub)
            paired, rot = _parallel_sweep(paired, np.eye(len(paired)))
            rot = _unpaired(rot, idx.size)
            cols = w[:, idx] @ rot
            w[:, idx] = cols
            w[idx, :] = cols.T
            w[np.ix_(idx, idx)] = _unpaired(paired, idx.size)
            v[:, idx] = v[:, idx] @ rot
    return w, v


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
        # The kernel keeps w in its paired layout from sweep to sweep.
        w = _paired(w)
        sweep = _parallel_sweep
    else:
        count = 2 * math.ceil(n / (2 * BLOCK_WIDTH))
        blocks = np.array_split(np.arange(n), count)
        # A block pair whose entries are all at or below `skip` cannot push
        # off(w) past the target even if every off-diagonal sits there.
        sweep = functools.partial(_block_sweep, skip=target / n, blocks=blocks)
    v = np.eye(len(w))
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
        w, v = sweep(w, v)
        sweeps += 1
        off = _off_diagonal_norm(w)
    if single:
        w, v = _unpaired(w, n), _unpaired(v, n)
    eigenvalues = np.ldexp(np.diagonal(w), exponent)
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
