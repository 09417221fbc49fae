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
from tenspec.errors import NoConvergence, NotSorted, NotSymmetric


def random_symmetric(n, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    m = rng.random((n, n)) * 2.0 - 1.0
    return 0.5 * (m + m.T)


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
    a = random_symmetric(6, 99)
    monkeypatch.setattr(jacobi, "MAX_SWEEPS", 0)
    with pytest.raises(NoConvergence) as exc:
        sym_eig(a)
    assert exc.value.residual is not None
    assert exc.value.residual > 0.0


def test_zero_matrix():
    res = sym_eig(np.zeros((4, 4)))
    assert np.array_equal(res.eigenvalues, np.zeros(4))
    assert res.rank == 0


def test_empty_matrix():
    res = sym_eig(np.zeros((0, 0)))
    assert res.eigenvalues.shape == (0,)
    assert res.vectors.shape == (0, 0)
    assert res.rank == 0


def test_sign_convention():
    res = sym_eig(random_symmetric(12, 5))
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
    lam, v = res.eigenvalues, res.vectors
    n = a.shape[0]
    assert np.all(lam[:-1] >= lam[1:])
    assert np.abs(v.T @ v - np.eye(n)).max() <= 1e-10
    scale = max(1.0, abs(float(lam[0])))
    resid = a @ v - v * lam
    assert np.sqrt((resid * resid).sum(axis=0)).max() <= 1e-8 * scale
    recon = (v * lam) @ v.T
    assert np.linalg.norm(recon - a) <= 1e-8 * np.linalg.norm(a)


def test_invariants_on_seeded_matrices():
    rng = np.random.Generator(np.random.PCG64(7))
    sizes = rng.integers(2, 201, size=100)
    for i, n in enumerate(sizes):
        a = random_symmetric(int(n), 1000 + i)
        assert_eigen_invariants(a, sym_eig(a))


@pytest.mark.parametrize("n", [257, 300, 333])
def test_invariants_on_block_path(n):
    # Above SINGLE_BLOCK_MAX the solver sweeps in block pairs; the seeded
    # cases above never get there.  Each order needs byes (1, 4 and 3) to
    # fill its blocks, and 257 is the first order past the cut.
    assert n > jacobi.SINGLE_BLOCK_MAX
    a = random_symmetric(n, 4242)
    res = sym_eig(a)
    assert_eigen_invariants(a, res)
    for p in range(n):
        col = res.vectors[:, p]
        assert col[int(np.argmax(np.abs(col)))] > 0.0


def test_no_convergence_on_block_path(monkeypatch):
    a = random_symmetric(300, 4243)
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
    # The `operator` inputs of seed 1 (n = 48, 72, 96), two odd orders, and
    # two block-path orders padded with byes (257 by one, 300 by four).  The
    # operators are positive definite and take the one-sided path (two-sided,
    # they took 8, 9 and 10 sweeps); the random matrices are indefinite, and
    # each count is the one the two-sided odd-even kernel takes.  The
    # round-robin kernel before it took the same except at n = 45 (7).
    seeds = [int(s) for s in np.random.default_rng(1).integers(0, 2**31, size=3)]
    groups = ((8, 2, 3), (8, 3, 3), (8, 4, 3))
    cases = [(operator_matrix(g, s), count) for g, s, count in zip(groups, seeds, (7, 7, 8))]
    cases += [(random_symmetric(45, 11), 8), (random_symmetric(97, 14), 8)]
    cases += [(random_symmetric(257, 16), 9), (random_symmetric(300, 4242), 9)]
    return cases


def test_sweep_counts_pinned():
    for a, count in sweep_cases():
        res = sym_eig(a)
        assert res.sweeps == count, len(a)
        assert 0.0 < res.off_norm <= jacobi.CONVERGENCE_TOL * np.linalg.norm(a)


def kernel_sweep(a, n):
    # One kernel sweep of a (order n, padded with the bye at odd n) and of
    # the identity, in the order the sweep leaves.
    m = n + n % 2
    w = jacobi._padded(a, m, m)
    v = jacobi._padded(np.eye(m), m, m)
    jacobi._odd_even(w, v)()
    return w, v


@pytest.mark.parametrize("n", [8, 9])
def test_sweep_leaves_diagonal_matrix_bit_exact(n):
    # Every pivot is zero, the bye's included at odd n, so every rotation
    # must be exactly +-i, a signed swap: with its reversed order undone,
    # one kernel sweep leaves the matrix as it was and turns the identity
    # into diag(+-1).
    d = np.diag(np.linspace(0.9, -0.7, n) ** 3)
    w, v = kernel_sweep(d, n)
    w, v = w[::-1, ::-1][:n, :n], v[:, ::-1][:n, :n]
    assert w.tobytes() == d.tobytes()
    assert np.abs(v).tobytes() == np.eye(n).tobytes()
    assert np.array_equal(v, np.diag(np.diagonal(v)))


@pytest.mark.parametrize("n", [8, 9])
def test_sweep_meets_every_pair_and_reverses_the_order(n):
    # Uncoupled, every rotation is an exact signed swap, so one sweep moves
    # index i to m - 1 - i, the bye included: each pair has crossed, and the
    # m(m - 1)/2 rotations of a sweep leave no room for a second meeting.
    m = n + n % 2
    lam = np.arange(1.0, n + 1.0)
    w, v = kernel_sweep(np.diag(lam), n)
    assert np.array_equal(w, np.diag(np.append(lam, np.zeros(m - n))[::-1]))
    assert np.array_equal(np.abs(v), np.eye(m)[:, ::-1])
    # Coupling p and q alone: the pivot is zeroed when they meet, and every
    # other rotation swaps exactly, so nothing off the diagonal is left.
    for p, q in itertools.combinations(range(n), 2):
        a = np.diag(lam)
        a[p, q] = a[q, p] = 0.5
        w, _ = kernel_sweep(a, n)
        assert np.count_nonzero(w - np.diag(np.diagonal(w))) == 0, (p, q)


def block_sweep(a, width):
    # One block sweep of a, padded with byes to a multiple of 2 * width, and
    # of the identity, in the order the sweep leaves.
    m = -(-len(a) // (2 * width)) * 2 * width
    w = jacobi._padded(a, m, m)
    v = jacobi._padded(np.eye(m), m, m)
    jacobi._block_sweep(w, v, width)()
    return w, v


def reference_turn(d, apq, factor):
    # One pair's rotation from its pivots, through the kernels' own formula.
    parts = np.empty((1, 2))
    rotation = parts.view(np.complex128)[:, 0]
    jacobi._half_angle(np.array([d]), np.array([apq]), factor, parts, rotation, np.empty(1))
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
    # One sweep of the one-sided kernel written pair by pair: each pair's d
    # and 2 apq are the row-by-row sum of the squares of x_p + i x_q.
    x = x.copy()
    m = x.shape[1]
    for r in range(m):
        for p in range(r % 2, m - 1, 2):
            c = pair_column(x, p)
            s = 0j
            for square in c * c:
                s = s + square
            turn_columns(x, p, reference_turn(s.real, s.imag, 1.0))
    return x


def reference_odd_even(w, v):
    # One sweep of the two-sided kernel written pair by pair: each round's
    # rotations come from its pivots, then turn the pair columns, the pair
    # rows (as columns of the transpose) and v's pair columns, and the
    # pivots are set to zero.
    w, v = w.copy(), v.copy()
    m = len(w)
    for r in range(m):
        pairs = range(r % 2, m - 1, 2)
        turns = [reference_turn(w[p, p] - w[p + 1, p + 1], w[p, p + 1], 2.0) for p in pairs]
        for p, rotation in zip(pairs, turns):
            turn_columns(w, p, rotation)
        w = w.T.copy()
        for p, rotation in zip(pairs, turns):
            turn_columns(w, p, rotation)
            w[p, p + 1] = w[p + 1, p] = 0.0
            turn_columns(v, p, rotation)
    return w, v


@pytest.mark.parametrize("n", [8, 9, 33])
def test_sweeps_match_pair_by_pair_reference(n):
    # Both kernels rotate each parity's pairs through one contiguous complex
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
    w = jacobi._padded(random_symmetric(n, n), m, m)
    v = jacobi._padded(np.eye(m), m, m)
    expected_w, expected_v = reference_odd_even(w, v)
    jacobi._odd_even(w, v)()
    for got, want in ((x, expected), (w, expected_w), (v, expected_v)):
        assert np.array_equal(got, want)
    real = slice(m - n, None)
    assert x[:, real].tobytes() == expected[:, real].tobytes()
    assert w[real, real].tobytes() == expected_w[real, real].tobytes()
    assert v[:, real].tobytes() == expected_v[:, real].tobytes()


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
    # As for the kernel: uncoupled, one block sweep moves index i to
    # m - 1 - i, byes included, and p and q coupled alone are always met,
    # whether in one block or two.
    lam = np.arange(1.0, n + 1.0)
    w, v = block_sweep(np.diag(lam), width)
    m = len(w)
    assert np.array_equal(w, np.diag(np.append(lam, np.zeros(m - n))[::-1]))
    assert np.array_equal(np.abs(v), np.eye(m)[:, ::-1])
    for p, q in itertools.combinations(range(n), 2):
        a = np.diag(lam)
        a[p, q] = a[q, p] = 0.5
        w, _ = block_sweep(a, width)
        assert np.count_nonzero(w - np.diag(np.diagonal(w))) == 0, (p, q)


@pytest.mark.parametrize("n, seed, parity", [(9, 0, 1), (9, 1, 0), (10, 2, 1), (10, 0, 0)])
def test_solves_after_odd_and_even_sweep_counts(n, seed, parity):
    # A kernel sweep reverses the index order, so sym_eig undoes it after an
    # odd count; at odd n the bye must then be back past the last index.
    a = random_symmetric(n, seed)
    res = sym_eig(a)
    assert res.sweeps % 2 == parity
    assert_eigen_invariants(a, res)
    recon = (res.vectors * res.eigenvalues) @ res.vectors.T
    assert np.abs(recon - a).max() <= 1e-14 * np.abs(a).max()


def test_block_diagonal_solved_bit_exactly():
    # Three 2 x 2 blocks and three 1 x 1 ones, order 9, indices scrambled
    # (each block's kept in order, so its p and q are those of the block
    # alone).  Pivots outside the blocks stay exactly zero, so each block is
    # rotated as if alone, once, and the spectrum and vectors are the
    # blocks' own bit for bit.  Each 2 x 2 block has max entry 1, like the
    # whole matrix, so all solves scale alike.
    corners = ((0.3, -0.6), (0.8, 0.1), (-0.2, 0.45))
    blocks = [np.array([[x, 1.0], [1.0, y]]) for x, y in corners]
    singles = [0.7, -0.35, 0.05]
    order = np.random.Generator(np.random.PCG64(9)).permutation(9)
    a = np.zeros((9, 9))
    spots = [np.sort(order[k : k + 2]) for k in (0, 2, 4)]
    for spot, block in zip(spots, blocks):
        a[np.ix_(spot, spot)] = block
    for k, value in zip(order[6:], singles):
        a[k, k] = value
    res = sym_eig(a)
    assert (res.sweeps, res.off_norm) == (1, 0.0)
    expected = {float(x): np.eye(9)[:, k] for k, x in zip(order[6:], singles)}
    for spot, block in zip(spots, blocks):
        alone = sym_eig(block)
        for lam, vec in zip(alone.eigenvalues, alone.vectors.T):
            full = np.zeros(9)
            full[spot] = vec
            expected[float(lam)] = full
    lams = sorted(expected, reverse=True)
    assert res.eigenvalues.tolist() == lams
    assert res.vectors.tobytes() == np.stack([expected[x] for x in lams], axis=1).tobytes()


def test_orthonormality_at_n96():
    # A seeded n = 96 Gaussian Gram is positive definite, so it takes the
    # one-sided path: its eigenvectors are orthonormal to 1.3e-15.  The
    # two-sided half-angle kernel left 8.4e-15 on it, and cosine-sine
    # rotations with a skip mask 2.7e-14.  The indefinite matrix keeps the
    # two-sided kernel to the same bound (5.8e-15).
    g = np.random.Generator(np.random.PCG64(96)).standard_normal((96, 96))
    for a in (g @ g.T, random_symmetric(96, 96)):
        v = sym_eig(a).vectors
        assert np.abs(v.T @ v - np.eye(96)).max() <= 1.2e-14


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
    assert jacobi._pivoted_cholesky(a) is not None
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
    a = graded_definite(9, 3, decades=6)
    x = jacobi._pivoted_cholesky(a)
    assert x.shape == (9, 10) and not x[:, 9].any()
    assert np.abs(x @ x.T - a).max() <= 1e-15
    # Semidefinite (a Gram of rank 2) and indefinite: no factor.
    g = np.random.Generator(np.random.PCG64(4)).standard_normal((6, 2))
    assert jacobi._pivoted_cholesky(g @ g.T) is None
    assert jacobi._pivoted_cholesky(np.diag([1.0, 0.5, -1e-3])) is None


@pytest.mark.parametrize("n", [24, 25])
def test_rank_deficient_and_indefinite_take_the_two_sided_path(n, monkeypatch):
    # Neither has a Cholesky factor, so neither may reach the one-sided
    # kernel; each still gets a full orthonormal basis.
    def refuse(x):
        raise AssertionError("one-sided kernel reached")

    monkeypatch.setattr(jacobi, "_one_sided", refuse)
    g = np.random.Generator(np.random.PCG64(n)).standard_normal((n, n // 3))
    for a in (g @ g.T, random_symmetric(n, n)):
        res = sym_eig(a)
        assert res.vectors.shape == (n, n)
        assert_eigen_invariants(a, res)
    assert sym_eig(g @ g.T).rank == n // 3


def test_trace_preserved():
    for seed in range(10):
        a = random_symmetric(30, seed)
        res = sym_eig(a)
        tr = float(np.trace(a))
        assert res.eigenvalues.sum() == pytest.approx(tr, abs=1e-9 * max(1.0, abs(tr)))


def test_scaling_invariance():
    a = random_symmetric(20, 321)
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
