"""Symmetric eigensolver: examples, properties, and rank semantics."""

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
    # the block path.  Each count is the one the solver took when its
    # rounds were still fancy-index row and column updates.
    seeds = [int(s) for s in np.random.default_rng(1).integers(0, 2**31, size=3)]
    groups = ((8, 2, 3), (8, 3, 3), (8, 4, 3))
    cases = [(operator_matrix(g, s), count) for g, s, count in zip(groups, seeds, (8, 9, 10))]
    cases += [(random_symmetric(45, 11), 7), (random_symmetric(97, 14), 8)]
    cases.append((random_symmetric(300, 4242), 9))
    return cases


def test_sweep_counts_pinned():
    for a, count in sweep_cases():
        res = sym_eig(a)
        assert res.sweeps == count, len(a)
        assert 0.0 < res.off_norm <= jacobi.CONVERGENCE_TOL * np.linalg.norm(a)


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
