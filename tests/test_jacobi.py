"""Symmetric eigensolver: examples, properties, and rank semantics."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from tenspec import (
    GroupedTensor,
    gram_operator,
    jacobi,
    numerical_rank,
    random_tensor,
    sym_eig,
    unfold,
)
from tenspec.errors import NoConvergence, NotNND, NotSorted, NotSymmetric


def random_gram(n, seed, rank=None):
    # B B^T for B (n x rank, n x n by default) with uniform entries in
    # [-1, 1): positive definite at full rank, semidefinite below it.
    rng = np.random.Generator(np.random.PCG64(seed))
    b = rng.random((n, n if rank is None else rank)) * 2.0 - 1.0
    return b @ b.T


def gram_schmidt(m):
    # Test-local orthogonalization, independent of the solver under test.
    q = np.array(m, dtype=float)
    n = q.shape[1]
    for j in range(n):
        for k in range(j):
            q[:, j] -= np.dot(q[:, k], q[:, j]) * q[:, k]
        q[:, j] /= math.sqrt(np.dot(q[:, j], q[:, j]))
    return q


def test_identity_matrix():
    res = sym_eig(np.eye(5))
    assert np.array_equal(res.eigenvalues, np.ones(5))
    assert res.rank == 5
    assert np.allclose(res.vectors.T @ res.vectors, np.eye(5), atol=1e-10)


def test_diagonal_matrix_rank():
    res = sym_eig(np.diag([3.0, 1.0, 0.0]))
    assert np.allclose(res.eigenvalues, [3.0, 1.0, 0.0], atol=1e-14)
    assert res.rank == 2
    assert (res.sweeps, res.off_norm) == (0, 0.0)


def test_construct_then_recover():
    rng = np.random.Generator(np.random.PCG64(2024))
    q = gram_schmidt(rng.random((3, 3)) * 2.0 - 1.0)
    lam = np.array([5.0, 2.0, 1e-14])
    a = (q * lam) @ q.T
    res = sym_eig(0.5 * (a + a.T))
    assert np.allclose(res.eigenvalues, lam, atol=1e-9)
    assert res.rank == 2
    # eigenvectors recovered up to sign
    for p in range(2):
        overlap = abs(np.dot(res.vectors[:, p], q[:, p]))
        assert overlap == pytest.approx(1.0, abs=1e-9)


def test_not_symmetric_raises():
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(NotSymmetric):
        sym_eig(a)
    with pytest.raises(NotSymmetric):
        sym_eig(np.ones((2, 3)))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_entries_raise(bad):
    with pytest.raises(NotSymmetric):
        sym_eig(np.array([[1.0, bad], [bad, 1.0]]))


@pytest.mark.parametrize("scale", [1e199, 1e-200])
def test_extreme_magnitudes(scale):
    # Squared entries overflow (or underflow) here; the eigenvalues must not.
    base = np.array([[10.0, 1.0], [1.0, 1.0]])
    res = sym_eig(base * scale)
    expected = (11.0 + np.array([1.0, -1.0]) * math.sqrt(85.0)) / 2.0 * scale
    assert np.allclose(res.eigenvalues, expected, rtol=1e-14, atol=0.0)
    assert np.allclose(res.vectors.T @ res.vectors, np.eye(2), atol=1e-15)


def test_no_convergence_reports_residual(monkeypatch):
    a = random_gram(6, 99)
    monkeypatch.setattr(jacobi, "MAX_SWEEPS", 0)
    with pytest.raises(NoConvergence) as exc:
        sym_eig(a)
    assert exc.value.residual is not None
    assert exc.value.residual > 0.0


def test_zero_matrix():
    # No pivot passes the floor: the factor has no column, so no vector.
    res = sym_eig(np.zeros((4, 4)))
    assert np.array_equal(res.eigenvalues, np.zeros(4))
    assert res.rank == 0
    assert res.vectors.shape == (4, 0)
    assert (res.sweeps, res.off_norm) == (0, 0.0)


def test_empty_matrix():
    res = sym_eig(np.zeros((0, 0)))
    assert res.eigenvalues.shape == (0,)
    assert res.vectors.shape == (0, 0)
    assert res.rank == 0


def test_sign_convention():
    res = sym_eig(random_gram(12, 5))
    for p in range(12):
        col = res.vectors[:, p]
        assert col[int(np.argmax(np.abs(col)))] > 0.0


def test_sign_fix_preserves_orthogonality_8x8():
    # Regression: 8-column eigenvector matrices hit a numpy build where
    # in-place ufunc negation of strided column views miscomputes; the sign
    # convention must never cost orthogonality.
    rng = np.random.Generator(np.random.PCG64(5006))
    m = rng.random((8, 8)) * 2.0 - 1.0
    a = m.T @ m
    res = sym_eig(a)
    assert np.abs(res.vectors.T @ res.vectors - np.eye(8)).max() <= 1e-10
    for p in range(8):
        col = res.vectors[:, p]
        assert col[int(np.argmax(np.abs(col)))] > 0.0
    recon = (res.vectors * res.eigenvalues) @ res.vectors.T
    assert np.abs(recon - a).max() <= 1e-10 * np.abs(a).max()


def test_sign_fix_matches_column_loop():
    # The whole-array sign flip against a per-column loop, bit for bit.  The
    # last column ties in magnitude, so argmax's lowest index decides.
    rng = np.random.Generator(np.random.PCG64(77))
    for n in (1, 8, 33):
        v = rng.random((n, n)) * 2.0 - 1.0
        v[:, -1] = np.where(np.arange(n) % 2, 1.0, -1.0)
        expected = v.copy()
        for p in range(n):
            col = expected[:, p]
            if col[int(np.argmax(np.abs(col)))] < 0.0:
                expected[:, p] = -col
        jacobi._fix_signs(v)
        assert v.tobytes() == expected.tobytes(), n


def test_degenerate_spectrum_projector():
    # Eigenvalue 2 has a 2-dimensional eigenspace spanned by e0, e1; only
    # the projector onto it is well defined, not the individual vectors.
    a = np.diag([2.0, 2.0, 1.0])
    res = sym_eig(a)
    proj = res.vectors[:, :2] @ res.vectors[:, :2].T
    expected = np.diag([1.0, 1.0, 0.0])
    assert np.allclose(proj, expected, atol=1e-10)


def assert_eigen_invariants(a, res):
    # The k vectors (k <= n, one per column of the factor) are orthonormal
    # and pair with the leading eigenvalues; the n - k past them are zero.
    lam, v = res.eigenvalues, res.vectors
    k = v.shape[1]
    assert np.all(lam[:-1] >= lam[1:]) and not lam[k:].any()
    assert np.abs(v.T @ v - np.eye(k)).max(initial=0.0) <= 1e-10
    scale = max(1.0, abs(float(lam[0])))
    resid = a @ v - v * lam[:k]
    assert np.sqrt((resid * resid).sum(axis=0)).max(initial=0.0) <= 1e-8 * scale
    recon = (v * lam[:k]) @ v.T
    assert np.linalg.norm(recon - a) <= 1e-8 * np.linalg.norm(a)


def test_invariants_on_seeded_matrices():
    # Every other order gets a semidefinite Gram, of rank n // 3.
    rng = np.random.Generator(np.random.PCG64(7))
    sizes = rng.integers(2, 201, size=100)
    for i, n in enumerate(sizes):
        rank = int(n) // 3 if i % 2 else None
        a = random_gram(int(n), 1000 + i, rank)
        res = sym_eig(a)
        assert res.vectors.shape[1] == (n if rank is None else rank), (n, rank)
        assert_eigen_invariants(a, res)


@pytest.fixture
def block_path(monkeypatch):
    # Above SINGLE_BLOCK_MAX columns the solver sweeps in block pairs.  The
    # cut is a speed setting, read at each call: lowered to 256 here, it
    # sends orders that solve in about a second down the block path.
    monkeypatch.setattr(jacobi, "SINGLE_BLOCK_MAX", 256)


@pytest.mark.parametrize("n", [257, 300, 333])
def test_invariants_on_block_path(n, block_path):
    # The seeded cases above never take the block path.  Each order needs
    # byes (1, 4 and 3) to fill its blocks, and 257 is the first order past
    # the lowered cut.
    assert n > jacobi.SINGLE_BLOCK_MAX
    a = random_gram(n, 4242)
    res = sym_eig(a)
    assert_eigen_invariants(a, res)
    for p in range(n):
        col = res.vectors[:, p]
        assert col[int(np.argmax(np.abs(col)))] > 0.0


def test_semidefinite_on_block_path(block_path):
    # A Gram of rank 280 at n = 300: its factor's 280 columns, above the
    # lowered cut, are swept in block pairs, and the 20 eigenvalues past them
    # are zero.
    a = random_gram(300, 4244, rank=280)
    res = sym_eig(a)
    assert res.vectors.shape == (300, 280) and res.rank == 280
    assert_eigen_invariants(a, res)


def test_no_convergence_on_block_path(monkeypatch, block_path):
    a = random_gram(300, 4243)
    monkeypatch.setattr(jacobi, "MAX_SWEEPS", 0)
    with pytest.raises(NoConvergence) as exc:
        sym_eig(a)
    start = exc.value.residual
    assert start is not None and start > 0.0
    monkeypatch.setattr(jacobi, "MAX_SWEEPS", 1)
    with pytest.raises(NoConvergence) as exc:
        sym_eig(a)
    assert 0.0 < exc.value.residual < start


def operator_matrix(group, seed):
    # The SA-NND operator of an order-6 tensor, unfolded as
    # decompose_sa_nnd and the benchmark's `operator` workload build it.
    source = GroupedTensor(random_tensor(group + group, seed), (3, 3))
    return unfold(gram_operator(source, side="right").tensor, 3).data


def sweep_cases():
    # The `operator` inputs of seed 1 (n = 48, 72, 96), a Gram of odd order,
    # a semidefinite Gram of odd order and odd rank, and two Grams past 256
    # (257 and 300), which the block path pads with byes (by one and four).
    # The last two pin the sweep counts of both paths: unblocked, then in
    # block pairs.
    seeds = [int(s) for s in np.random.default_rng(1).integers(0, 2**31, size=3)]
    groups = ((8, 2, 3), (8, 3, 3), (8, 4, 3))
    cases = [(operator_matrix(g, s), (count,)) for g, s, count in zip(groups, seeds, (7, 7, 8))]
    cases += [(random_gram(45, 11), (6,)), (random_gram(97, 14, rank=33), (7,))]
    cases += [(random_gram(257, 16), (9, 8)), (random_gram(300, 4242), (9, 8))]
    return cases


def test_sweep_counts_pinned(monkeypatch):
    cuts = (jacobi.SINGLE_BLOCK_MAX, 256)
    for a, counts in sweep_cases():
        for count, cut in zip(counts, cuts):
            monkeypatch.setattr(jacobi, "SINGLE_BLOCK_MAX", cut)
            res = sym_eig(a)
            assert res.sweeps == count, (len(a), cut)
            assert 0.0 < res.off_norm <= jacobi.CONVERGENCE_TOL * np.linalg.norm(a)


def kernel_sweep(x, m, width=None):
    # One sweep of x's columns, padded with byes to m, in the order the
    # sweep leaves: a kernel sweep carrying the identity (returned too), or
    # with `width` a block sweep.
    x = jacobi._padded(x, len(x), m)
    if width is not None:
        jacobi._block_one_sided(x, width)()
        return x, None
    carry = jacobi._padded(np.eye(m), m, m)
    jacobi._one_sided(x, carry)()
    return x, carry


def assert_meets_every_pair_and_reverses_the_order(n, m, width=None):
    # Orthogonal columns of distinct norms: every rotation is an exact
    # signed swap, so one sweep moves column i to m - 1 - i, byes included.
    # Columns p and q made to overlap alone are rotated apart when they
    # meet, and every other pair still swaps exactly, so the largest cosine
    # left is round-off (it starts near 0.05): each pair is met.
    lam = np.arange(1.0, n + 1.0)
    x, carry = kernel_sweep(np.diag(lam), m, width)
    full = np.zeros((n, m))
    full[:, :n] = np.diag(lam)
    assert np.array_equal(np.abs(x), full[:, ::-1])
    assert carry is None or np.array_equal(np.abs(carry), np.eye(m)[:, ::-1])
    for p, q in itertools.combinations(range(n), 2):
        a = np.diag(lam)
        a[p, q] = 0.5
        x, _ = kernel_sweep(a, m, width)
        assert jacobi._cosines(x)[1] <= jacobi._EPS, (p, q)


@pytest.mark.parametrize("n", [8, 9])
def test_sweep_leaves_diagonal_matrix_bit_exact(n):
    # Orthogonal columns give zero pivots, the bye's included at odd n, so
    # every rotation must be exactly +-i, a signed swap: with its reversed
    # order undone, one kernel sweep leaves the columns as they were up to
    # sign and turns the identity it carries into diag(+-1).
    d = np.diag(np.linspace(0.9, 0.1, n) ** 3)
    x, carry = kernel_sweep(d, n + n % 2)
    x, carry = x[:, ::-1][:, :n], carry[:, ::-1][:n, :n]
    assert np.abs(x).tobytes() == d.tobytes()
    assert np.abs(carry).tobytes() == np.eye(n).tobytes()
    assert np.array_equal(carry, np.diag(np.diagonal(carry)))


@pytest.mark.parametrize("n", [8, 9])
def test_sweep_meets_every_pair_and_reverses_the_order(n):
    # The m(m - 1)/2 rotations of a sweep leave no room for a second meeting.
    assert_meets_every_pair_and_reverses_the_order(n, n + n % 2)


def reference_turn(d, apq):
    # One pair's rotation from its pivots, through the kernel's own formula.
    parts = np.empty((1, 2))
    rotation = parts.view(np.complex128)[:, 0]
    jacobi._half_angle(np.array([d]), np.array([apq]), parts, rotation)()
    return rotation[0]


def pair_column(x, p):
    # Columns p and p + 1 of x as complex numbers x_p + i x_q.
    c = np.empty(len(x), np.complex128)
    c.real, c.imag = x[:, p], x[:, p + 1]
    return c


def turn_columns(x, p, rotation):
    c = pair_column(x, p) * rotation
    x[:, p], x[:, p + 1] = c.real, c.imag


def reference_one_sided(x):
    # One sweep of the one-sided kernel with the turns written pair by pair.
    # Each round's d and 2 apq are the column sums of the squares of its
    # pairs x_p + i x_q, all summed in one product with a row of ones, as
    # the kernel sums them (a product per pair rounds differently); an odd
    # round's last column holds no pair, and its sum is not read.
    x = x.copy()
    n, m = x.shape
    ones = np.ones(n)
    for r in range(m):
        pairs = range(r % 2, m - 1, 2)
        squares = np.zeros((n, m // 2), np.complex128)
        for j, p in enumerate(pairs):
            squares[:, j] = np.square(pair_column(x, p))
        sums = (ones @ squares.view(np.float64)).view(np.complex128)
        for s, p in zip(sums, pairs):
            turn_columns(x, p, reference_turn(s.real, s.imag))
    return x


@pytest.mark.parametrize("n", [8, 9, 33])
def test_sweeps_match_pair_by_pair_reference(n):
    # The kernel rotates each parity's pairs through one contiguous complex
    # view of the array's buffer; the odd view's last column joins each
    # row's last entry to the next row's first, and must be turned by
    # exactly 1.  Against a sweep written pair by pair, every entry agrees
    # bit for bit, except that at odd n the turn by 1 may make a -0.0 of the
    # bye (index 0 once the sweep has reversed the order) into +0.0.
    m = n + n % 2
    rng = np.random.Generator(np.random.PCG64(n))
    x = jacobi._padded(rng.standard_normal((n, n)), n, m)
    expected = reference_one_sided(x)
    jacobi._one_sided(x)()
    assert np.array_equal(x, expected)
    real = slice(m - n, None)
    assert x[:, real].tobytes() == expected[:, real].tobytes()


@pytest.mark.parametrize("n", [8, 33])
def test_carry_gets_the_sweeps_rotation(n):
    # The carried array turns by the same rotations: after one sweep x is
    # x0 times the carry, to round-off, and x itself has the bits of a sweep
    # that carries nothing.
    m = n + n % 2
    x0 = jacobi._padded(np.random.Generator(np.random.PCG64(n)).standard_normal((n, n)), n, m)
    x = jacobi._padded(x0, n, m)
    carry = jacobi._padded(np.eye(m), m, m)
    jacobi._one_sided(x, carry)()
    assert np.abs(x - x0 @ carry).max() <= 1e-14 * np.abs(x0).max()
    alone = jacobi._padded(x0, n, m)
    jacobi._one_sided(alone)()
    assert alone.tobytes() == x.tobytes()


def test_warm_one_sided_sweep_allocates_at_most_one_copy():
    # Every round works in buffers made before the first sweep, so a warm
    # sweep allocates only numpy's one temporary copy of the array for the
    # in-place broadcast multiply.  A pair view that starts one float into
    # each row is copied at every call: with such odd rounds the peak is
    # about three times the array.
    a = graded_definite(96, 7, decades=4)
    x = jacobi._pivoted_cholesky(a)
    sweep = jacobi._one_sided(x)
    sweep()
    tracemalloc.start()
    try:
        sweep()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * x.nbytes


@pytest.mark.parametrize("n, width", [(8, 2), (9, 2), (11, 3)])
def test_block_sweep_meets_every_pair_and_reverses_the_order(n, width):
    # As for the kernel, whether p and q lie in one block or two.
    assert_meets_every_pair_and_reverses_the_order(n, -(-n // (2 * width)) * 2 * width, width)


@pytest.mark.parametrize("n, seed, parity", [(9, 1, 1), (9, 0, 0), (10, 0, 1), (10, 7, 0)])
def test_solves_after_odd_and_even_sweep_counts(n, seed, parity):
    # A kernel sweep reverses the column order, so sym_eig undoes it after
    # an odd count; at odd n the bye must then be back past the last column.
    a = random_gram(n, seed)
    res = sym_eig(a)
    assert res.sweeps % 2 == parity
    assert_eigen_invariants(a, res)
    recon = (res.vectors * res.eigenvalues) @ res.vectors.T
    assert np.abs(recon - a).max() <= 1e-14 * np.abs(a).max()


def test_block_diagonal_solved_bit_exactly():
    # Three positive definite 2 x 2 blocks and three 1 x 1 ones, order 9,
    # indices scrambled (each block's kept in order, so its p and q are
    # those of the block alone).  Factor columns of different blocks stay
    # exactly orthogonal, so each block's pair is rotated as if alone, once,
    # and the spectrum and vectors are the blocks' own bit for bit.  Each
    # 2 x 2 block has max entry 1, like the whole matrix, so all solves scale
    # alike.
    corners = ((1.0, 0.6, 0.5), (0.8, 0.3, 1.0), (1.0, -0.45, 0.25))
    blocks = [np.array([[x, b], [b, y]]) for x, b, y in corners]
    singles = [0.7, 0.35, 0.05]
    order = np.random.Generator(np.random.PCG64(9)).permutation(9)
    a = np.zeros((9, 9))
    spots = [np.sort(order[k : k + 2]) for k in (0, 2, 4)]
    for spot, block in zip(spots, blocks):
        a[np.ix_(spot, spot)] = block
    for k, value in zip(order[6:], singles):
        a[k, k] = value
    res = sym_eig(a)
    expected = {float(x): np.eye(9)[:, k] for k, x in zip(order[6:], singles)}
    offs = []
    for spot, block in zip(spots, blocks):
        alone = sym_eig(block)
        offs.append(alone.off_norm)
        for lam, vec in zip(alone.eigenvalues, alone.vectors.T):
            full = np.zeros(9)
            full[spot] = vec
            expected[float(lam)] = full
    assert res.sweeps == 1
    assert res.off_norm == pytest.approx(math.hypot(*offs), rel=1e-12)
    lams = sorted(expected, reverse=True)
    assert res.eigenvalues.tolist() == lams
    assert res.vectors.tobytes() == np.stack([expected[x] for x in lams], axis=1).tobytes()


def test_orthonormality_at_n96():
    # A seeded n = 96 Gaussian Gram is positive definite: its eigenvectors
    # are orthonormal to 1.3e-15.  The two-sided half-angle kernel left
    # 8.4e-15 on it, and cosine-sine rotations with a skip mask 2.7e-14.  A
    # Gram of rank 32 keeps its 32 vectors to the same bound.
    g = np.random.Generator(np.random.PCG64(96)).standard_normal((96, 96))
    for a in (g @ g.T, g[:, :32] @ g[:, :32].T):
        v = sym_eig(a).vectors
        assert np.abs(v.T @ v - np.eye(v.shape[1])).max() <= 1.2e-14


def graded_definite(n, seed, decades=12):
    # Q diag(1 ... 10^-decades) Q^T with Q orthonormalized from a seeded
    # Gaussian: positive definite with condition number 10^decades.
    q = gram_schmidt(np.random.Generator(np.random.PCG64(seed)).standard_normal((n, n)))
    a = (q * np.logspace(0, -decades, n)) @ q.T
    return 0.5 * (a + a.T)


@pytest.mark.parametrize("n", [33, 48])
def test_graded_definite_orthonormal_to_round_off(n):
    # One-sided Jacobi on the pivoted Cholesky factor: 7 sweeps and
    # orthonormality of 4.4e-16 to 8.9e-16 on these inputs, where the
    # two-sided kernel took 12 to 14 sweeps and left 3.0e-15 to 6.0e-15.  At
    # n = 33 the bye column pads the factor.
    for seed in (0, 1):
        a = graded_definite(n, seed)
        res = sym_eig(a)
        v = res.vectors
        assert np.abs(v.T @ v - np.eye(n)).max() <= 1.5e-15, seed
        assert_eigen_invariants(a, res)


def test_definite_identity_is_exact():
    # Rayleigh quotients, not squared column norms, give the eigenvalues.
    res = sym_eig(np.eye(7))
    assert res.eigenvalues.tobytes() == np.ones(7).tobytes()
    assert res.vectors.tobytes() == np.eye(7).tobytes()
    assert (res.sweeps, res.off_norm) == (0, 0.0)


def test_no_convergence_on_definite_path(monkeypatch):
    # The residual on the one-sided path is the off-diagonal mass of
    # X^T X, which a sweep must shrink.
    a = graded_definite(20, 5)
    assert jacobi._pivoted_cholesky(a).shape == (20, 20)
    monkeypatch.setattr(jacobi, "MAX_SWEEPS", 0)
    with pytest.raises(NoConvergence) as exc:
        sym_eig(a)
    start = exc.value.residual
    assert start is not None and start > 0.0
    monkeypatch.setattr(jacobi, "MAX_SWEEPS", 1)
    with pytest.raises(NoConvergence) as exc:
        sym_eig(a)
    assert 0.0 < exc.value.residual < start


def test_pivoted_cholesky_factors_definite_matrices_only():
    # Only a definite matrix gets its whole factor; on a semidefinite one
    # the loop stops at its pivot floor with the columns it built (padded by
    # a bye to an even count), and the Schur complement left holds the rest;
    # an indefinite one whose Schur complement is too large is refused.
    a = graded_definite(9, 3, decades=6)
    x = jacobi._pivoted_cholesky(a)
    assert x.shape == (9, 10) and not x[:, 9].any()
    assert np.abs(x @ x.T - a).max() <= 1e-15
    g = np.random.Generator(np.random.PCG64(4)).standard_normal((6, 3))
    x = jacobi._pivoted_cholesky(g @ g.T)
    assert x.shape == (6, 4) and not x[:, 3].any()
    assert np.abs(x @ x.T - g @ g.T).max() <= 1e-14 * np.abs(g @ g.T).max()
    x = jacobi._pivoted_cholesky(np.diag([1.0, 0.25, -1e-12]))
    assert x.shape == (3, 2)
    assert np.array_equal(np.diag([1.0, 0.25, -1e-12]) - x @ x.T, np.diag([0.0, 0.0, -1e-12]))
    with pytest.raises(NotNND):
        jacobi._pivoted_cholesky(np.diag([1.0, 0.25, -1e-3]))


def test_semidefinite_schur_complement_spread_below_the_floor_is_factored():
    # e1 e1^T + c 1 1^T with c = 0.9 n eps: every pivot after the first is
    # below n eps, yet a Schur complement left there, about c 1 1^T, would
    # have norm (n - 1) c = 2.0e-10 > RANK_TOL.  Above n = 671 the floor is
    # RANK_TOL / n = 1e-13 < c, so the loop takes the second pivot, and the
    # matrix is accepted with rank 2 and its second eigenvalue (n - 1) c.
    n = 1000
    c = 0.9 * n * np.finfo(np.float64).eps
    a = np.full((n, n), c)
    a[0, 0] += 1.0
    res = sym_eig(a)
    assert res.rank == 2 and res.vectors.shape == (n, 2)
    assert res.eigenvalues[1] == pytest.approx((n - 1) * c, rel=1e-6)
    assert_eigen_invariants(a, res)


@pytest.mark.parametrize("factor, k", [(0.9, 1), (1.1, 2)])
def test_floor_above_671_is_rank_tol_over_n(factor, k):
    # e1 e1^T + c 1 1^T at n = 1000, c = factor * RANK_TOL / n, on either
    # side of the floor RANK_TOL / n: below it, the loop stops after one
    # pivot and the Schur complement, of norm (n - 1) c = 9.0e-11, is
    # accepted with 0 for every eigenvalue past it; above it, the loop
    # takes a second pivot, for the eigenvalue (n - 1) c = 1.1e-10.
    n = 1000
    c = factor * jacobi.RANK_TOL / n
    a = np.full((n, n), c)
    a[0, 0] += 1.0
    res = sym_eig(a)
    assert res.vectors.shape == (n, k) and res.rank == k
    assert not res.eigenvalues[k:].any()
    if k == 2:
        assert res.eigenvalues[1] == pytest.approx((n - 1) * c, rel=1e-6)
    assert_eigen_invariants(a, res)


def test_graded_pivots_straddling_n_eps_stop_at_the_first_below_it():
    # Up to n = 671 the floor is n eps times the largest diagonal entry.  A
    # graded D C D (C well conditioned, D from 1 to 1e-9) has pivots from
    # about 1 to 1e-18; a test-local right-looking pivoted Cholesky counts
    # those above the floor, none within 1% of it, and the factor has as
    # many columns.
    n = 500
    rng = np.random.Generator(np.random.PCG64(11))
    b = rng.standard_normal((n, n))
    d = rng.permutation(np.logspace(0, -9, n))
    a = d[:, None] * (b @ b.T / n + np.eye(n)) * d
    floor = n * np.finfo(np.float64).eps * np.diagonal(a).max()
    s, pivots = a.copy(), []
    for _ in range(n):
        p = int(np.argmax(np.diagonal(s)))
        pivots.append(s[p, p])
        if not s[p, p] > floor:
            break
        s -= np.outer(s[:, p], s[p]) / s[p, p]
        s[p], s[:, p] = 0.0, 0.0
    ratios = np.array(pivots) / floor
    k = int(np.count_nonzero(ratios > 1.0))
    assert 0 < k < n and np.abs(np.log(ratios)).min() > 0.01
    res = sym_eig(a)
    assert res.vectors.shape == (n, k) and not res.eigenvalues[k:].any()


@pytest.mark.parametrize("n", [24, 25])
def test_semidefinite_gram_gives_one_vector_per_factor_column(n):
    # A Gram of rank n // 3 stops the factor after n // 3 columns: the
    # kernel sweeps those, so there are n // 3 vectors, and the eigenvalues
    # past them are exactly zero.
    g = np.random.Generator(np.random.PCG64(n)).standard_normal((n, n // 3))
    a = g @ g.T
    res = sym_eig(a)
    assert res.vectors.shape == (n, n // 3) and res.rank == n // 3
    assert not res.eigenvalues[n // 3 :].any()
    assert_eigen_invariants(a, res)


@pytest.mark.parametrize(
    "a, eigenvalues",
    [(np.diag([1.0, -1e-12]), [1.0, 0.0]), (np.diag([2.0, 0.0, 1.0]), [2.0, 1.0, 0.0])],
)
def test_nnd_within_the_schur_bound_is_accepted(a, eigenvalues):
    # ||S||_F = 1e-12 and 0, at most RANK_TOL * max diag = 1e-10 and 2e-10:
    # accepted, with one vector per pivot and 0 for the eigenvalue past them.
    res = sym_eig(a)
    assert res.eigenvalues.tolist() == eigenvalues
    assert res.vectors.shape == (len(a), len(a) - 1)


@pytest.mark.parametrize(
    "a",
    [np.diag([1.0, -1e-9]), np.diag([3.0, -1.0, 2.0]), np.array([[1.0, 2.0], [2.0, 1.0]]),
     -np.eye(3), np.diag(np.r_[1.0, -2e-9, np.zeros(998)]),
     np.diag(np.eye(1000)[0]) + 1e-12 * (1.0 - np.eye(1000))],
)
def test_indefinite_is_refused(a):
    # ||S||_F above RANK_TOL * max diag(a) where the loop stops: 1e-9
    # against 1e-10, 1 against 3e-10, 3 against 1e-10, anything against a
    # negative diagonal, and at n = 1000, where the floor is RANK_TOL / n,
    # 2e-9 and 9.985e-10 (the indefinite 1e-12 (1 1^T - I) left after e1).
    with pytest.raises(NotNND, match="Schur complement of norm"):
        sym_eig(a)


def test_trace_preserved():
    for seed in range(10):
        a = random_gram(30, seed)
        res = sym_eig(a)
        tr = float(np.trace(a))
        assert res.eigenvalues.sum() == pytest.approx(tr, abs=1e-9 * max(1.0, abs(tr)))


def test_scaling_invariance():
    a = random_gram(20, 321)
    base = sym_eig(a)
    scaled = sym_eig(4.0 * a)
    top = np.abs(base.eigenvalues).max()
    assert np.abs(scaled.eigenvalues - 4.0 * base.eigenvalues).max() <= 1e-10 * 4.0 * top
    assert scaled.rank == base.rank


# -------------------------------------------------------- numerical rank


def test_numerical_rank_threshold():
    assert numerical_rank([4.0, 2.0, 1e-16]) == 2


def test_numerical_rank_zero_spectrum():
    assert numerical_rank([0.0, 0.0, 0.0]) == 0
    assert numerical_rank([-1.0, -2.0]) == 0
    assert numerical_rank([]) == 0


def test_numerical_rank_of_dependent_vectors():
    # Three vectors spanning a plane; gram built with flat loops.
    vecs = [
        [1.0, 0.0, 0.0, 2.0],
        [0.0, 1.0, 0.0, -1.0],
        [2.0, 3.0, 0.0, 1.0],  # = 2*v0 + 3*v1
    ]
    g = [[sum(a * b for a, b in zip(u, w)) for w in vecs] for u in vecs]
    res = sym_eig(np.array(g))
    assert res.rank == 2
    assert numerical_rank(res.eigenvalues) == 2


def test_numerical_rank_not_sorted():
    with pytest.raises(NotSorted):
        numerical_rank([1.0, 2.0])


@pytest.mark.parametrize(
    "spectrum, entry",
    [([1.0, math.nan], 1), ([math.nan, 1.0], 0), ([math.inf, 1.0], 0), ([2.0, 1.0, -math.inf], 2)],
)
def test_numerical_rank_refuses_non_finite(spectrum, entry):
    # A NaN compares false either way, so it passed the order check and read
    # rank 1 after a finite top value and rank 0 in front of one.
    with pytest.raises(NotSorted, match=f"spectrum entry {entry} is .*, not finite"):
        numerical_rank(spectrum)
