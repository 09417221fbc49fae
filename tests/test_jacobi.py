"""Symmetric eigensolver: examples, properties, and rank semantics."""

import itertools
import math

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


def test_no_convergence_reports_residual():
    a = random_symmetric(6, 99)
    with pytest.raises(NoConvergence) as exc:
        sym_eig(a, max_sweeps=0)
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


def test_invariants_on_block_path():
    # Above SINGLE_BLOCK_MAX the solver sweeps in block pairs; the seeded
    # cases above never get there.
    n = 300
    assert n > jacobi.SINGLE_BLOCK_MAX
    a = random_symmetric(n, 4242)
    res = sym_eig(a)
    assert_eigen_invariants(a, res)
    for p in range(n):
        col = res.vectors[:, p]
        assert col[int(np.argmax(np.abs(col)))] > 0.0


def test_no_convergence_on_block_path():
    a = random_symmetric(300, 4243)
    with pytest.raises(NoConvergence) as exc:
        sym_eig(a, max_sweeps=0)
    start = exc.value.residual
    assert start is not None and start > 0.0
    with pytest.raises(NoConvergence) as exc:
        sym_eig(a, max_sweeps=1)
    assert 0.0 < exc.value.residual < start


def operator_matrix(group, seed):
    # The SA-NND operator of an order-6 tensor, unfolded as
    # decompose_sa_nnd and the benchmark's `operator` workload build it.
    source = GroupedTensor(random_tensor(group + group, seed), (3, 3))
    return unfold(gram_operator(source, side="right").tensor, 3).data


def sweep_cases():
    # The `operator` inputs of seed 1 (n = 48, 72, 96), two odd orders, and
    # the block path.  Each count is the one the odd-even kernel takes; the
    # round-robin kernel before it took the same except at n = 45 (7).
    seeds = [int(s) for s in np.random.default_rng(1).integers(0, 2**31, size=3)]
    groups = ((8, 2, 3), (8, 3, 3), (8, 4, 3))
    cases = [(operator_matrix(g, s), count) for g, s, count in zip(groups, seeds, (8, 9, 10))]
    cases += [(random_symmetric(45, 11), 8), (random_symmetric(97, 14), 8)]
    cases.append((random_symmetric(300, 4242), 9))
    return cases


def test_sweep_counts_pinned():
    for a, count in sweep_cases():
        res = sym_eig(a)
        assert res.sweeps == count, len(a)
        assert 0.0 < res.off_norm <= jacobi.CONVERGENCE_TOL * np.linalg.norm(a)


def kernel_sweep(a, n):
    # One kernel sweep of a (order n, padded with the bye at odd n) and of
    # the identity, in the order the sweep leaves.
    w = jacobi._padded(a)
    v = np.eye(len(w))
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
    # Half-angle rotations normalized by real division: on a seeded n = 96
    # Gaussian Gram the eigenvectors are orthonormal to 8.4e-15, where
    # cosine-sine rotations with a skip mask leave 2.7e-14.
    g = np.random.Generator(np.random.PCG64(96)).standard_normal((96, 96))
    v = sym_eig(g @ g.T).vectors
    assert np.abs(v.T @ v - np.eye(96)).max() <= 1.2e-14


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
    assert numerical_rank([4.0, 2.0, 1e-16], rank_tol=1e-12) == 2


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
