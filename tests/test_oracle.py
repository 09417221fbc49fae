"""Brute-force references and cross-implementation agreement."""

import dataclasses

import numpy as np
import pytest

import tenspec
from tenspec import (
    DenseTensor,
    GroupedTensor,
    OperatorDecomposition,
    TransformDecomposition,
    TripleDecomposition,
    contract,
    decompose_sa_nnd,
    decompose_transform,
    decompose_triple,
    gram_operator,
    matricized_singulars,
    random_tensor,
    verify_decomposition,
)
from tenspec import decompose, oracle

from helpers import unit


# --------------------------------------------------- matricized singulars


def test_singulars_of_identity():
    a = GroupedTensor(DenseTensor(np.eye(3)), (1, 1))
    assert np.allclose(matricized_singulars(a), [1.0, 1.0, 1.0], atol=1e-12)


def test_singulars_of_rank_deficient_diagonal():
    a = GroupedTensor(DenseTensor(np.diag([2.0, 0.0])), (1, 1))
    sig = matricized_singulars(a)
    assert sig.shape == (1,)
    assert sig[0] == pytest.approx(2.0, rel=1e-13)


def test_singulars_of_zero():
    a = GroupedTensor(DenseTensor(np.zeros((2, 3))), (1, 1))
    assert matricized_singulars(a).size == 0


def test_singulars_match_transform_path():
    a = GroupedTensor(random_tensor((4, 2, 2), 40), (1, 2))
    dec = decompose_transform(a)
    ref = matricized_singulars(a)
    assert len(ref) == len(dec.singulars)
    assert np.abs(ref - dec.singulars).max() <= 1e-8 * ref[0]


def test_singulars_against_wide_matrix():
    rng = np.random.Generator(np.random.PCG64(41))
    m = rng.random((3, 7)) * 2.0 - 1.0
    sig = matricized_singulars(GroupedTensor(DenseTensor(m), (1, 1)))
    ref = np.linalg.svd(m, compute_uv=False)
    assert len(sig) == 3
    assert np.abs(sig - ref[: len(sig)]).max() <= 1e-10 * ref[0]


# -------------------------------------------------------------- contract


def test_naive_contract_agrees_with_contract():
    cases = [
        ((3, 4), (4, 5), (1,), (0,)),
        ((2, 3, 4), (4, 5, 3), (2, 1), (0, 2)),
        ((2, 2, 2), (2, 2), (0, 2), (1, 0)),
        ((5,), (5,), (0,), (0,)),
    ]
    for seed, (dx, dy, ax, ay) in enumerate(cases):
        x = random_tensor(dx, 100 + seed)
        y = random_tensor(dy, 200 + seed)
        fast = contract(x, y, ax, ay)
        # A full contraction is a shape-(1,) tensor, tensordot's a scalar.
        ref = np.atleast_1d(np.tensordot(x.data, y.data, axes=(ax, ay)))
        assert fast.dims == ref.shape
        scale = np.abs(ref).max()
        assert np.abs(fast.data - ref).max() <= 1e-12 * max(scale, 1e-300)


# ----------------------------------------------------- verify_decomposition


def test_verify_rank_one_passes():
    u = unit((3,), 43)
    v = unit((2, 2), 44)
    a = GroupedTensor(DenseTensor(4.0 * np.multiply.outer(u.data, v.data)), (1, 2))
    report = verify_decomposition(a, decompose_transform(a))
    assert report.passed
    assert report.max_singular_deviation <= 1e-10
    assert report.max_reconstruction_error <= 1e-10


def test_verify_detects_corrupted_weight():
    a = GroupedTensor(random_tensor((4, 3), 45), (1, 1))
    dec = decompose_transform(a)
    bad = dec.singulars.copy()
    bad[0] *= 1.1
    corrupted = dataclasses.replace(dec, singulars=bad)
    report = verify_decomposition(a, corrupted)
    assert not report.passed
    assert report.max_singular_deviation > 1e-3


def test_verify_operator_decomposition():
    src = GroupedTensor(random_tensor((2, 3, 2, 3), 46), (2, 2))
    a = gram_operator(src, side="right")
    report = verify_decomposition(a, decompose_sa_nnd(a))
    assert report.passed
    assert len(report.singulars_reference) > 0


def test_verify_triple_uses_reconstruction_only():
    a = GroupedTensor(random_tensor((3, 3, 2), 47), (1, 1, 1))
    report = verify_decomposition(a, decompose_triple(a))
    assert report.passed
    assert report.singulars_reference.size == 0
    assert report.max_singular_deviation == 0.0


def test_verify_experiment2_scale():
    a = GroupedTensor(random_tensor((64, 8, 4), 48), (1, 2))
    report = verify_decomposition(a, decompose_transform(a))
    assert report.passed


# ---------------------------------------------------- replay_reconstruction


def term_loop(decomposition):
    # The decomposition's sum with one explicit outer product per term.
    weights, families = decomposition.terms()
    total = np.zeros(tuple(rows.shape[1] for rows, _, _ in families))
    for m, weight in enumerate(weights):
        term = np.array(weight)
        for rows, index, _ in families:
            term = np.multiply.outer(term, rows[index[m]])
        total += term
    return total.reshape(decompose.reconstructed_dims(decomposition))


def assert_replays(decomposition):
    expected = term_loop(decomposition)
    got = oracle.replay_reconstruction(decomposition).data
    assert got.shape == expected.shape
    assert np.abs(got - expected).max() <= 1e-14 * np.linalg.norm(expected)


def random_record(kind, count, seed):
    # `count` terms with random factor rows (the replay assumes no
    # orthonormality).  A triple's 3 U rows and 4 Z rows pair up in
    # lexicographic order, as decompose_triple's do.
    rng = np.random.default_rng(seed)
    weights = rng.random(count) + 0.5
    if kind == "op":
        vectors = rng.standard_normal((count, 6))
        return OperatorDecomposition(weights, vectors, (2, 3), spectrum=weights)
    if kind == "transform":
        u, v = rng.standard_normal((count, 3)), rng.standard_normal((count, 8))
        return TransformDecomposition(
            weights, u, v, (3,), (2, 4), spectrum=weights
        )
    pairs = np.array([(p, s) for p in range(3) for s in range(4)])[:count]
    u, z = rng.standard_normal((3, 3)), rng.standard_normal((4, 4))
    w = rng.standard_normal((count, 6))
    shapes = ((3,), (4,), (2, 3))
    return TripleDecomposition(weights, pairs, u, z, w, shapes)


@pytest.mark.parametrize("kind", ["op", "transform", "triple"])
def test_replay_matches_term_loop_across_block_edges(monkeypatch, kind):
    # Blocks of 4 terms: counts on both sides of one and two block edges.
    rest = {"op": 6, "transform": 8, "triple": 24}[kind]
    monkeypatch.setattr(oracle, "REPLAY_BUDGET", 4 * rest)
    for count in (1, 3, 4, 5, 9):
        assert_replays(random_record(kind, count, seed=count))


def test_replay_matches_term_loop_at_default_block():
    # Z x W rows of 32 x 64 entries: blocks of 64 terms at the default budget.
    rest = 32 * 64
    block = oracle.REPLAY_BUDGET // rest
    rng = np.random.default_rng(71)
    for count in (block - 1, block, block + 1):
        pairs = np.stack([np.arange(count) % 2, np.arange(count) // 2], axis=1)
        dec = TripleDecomposition(
            rng.random(count),
            pairs,
            rng.standard_normal((2, 2)),
            rng.standard_normal((count // 2 + 1, 32)),
            rng.standard_normal((count, 64)),
            ((2,), (32,), (64,)),
        )
        assert_replays(dec)


def test_replay_of_truncated_and_shuffled_triples():
    a = GroupedTensor(random_tensor((4, 3, 5), 72), (1, 1, 1))
    dec = decompose_triple(a)
    # A kept prefix leaves some U and Z rows unused.
    for keep in (1, 5, dec.count - 1):
        assert_replays(
            TripleDecomposition(
                dec.weights[:keep], dec.pair_map[:keep], dec.u, dec.z,
                dec.w[:keep], dec.shapes,
            )
        )
    # Components in any order, some (p, s) pairs and W rows repeated.
    rng = np.random.default_rng(73)
    order = np.concatenate([rng.permutation(dec.count), rng.choice(dec.count, 7)])
    assert_replays(
        TripleDecomposition(
            dec.weights[order], dec.pair_map[order], dec.u, dec.z,
            dec.w[order], dec.shapes,
        )
    )


def test_oracle_is_independent_of_the_main_path(monkeypatch):
    # verify must not reach the grouped sums that it is meant to check.
    op_src = GroupedTensor(random_tensor((2, 3, 2, 3), 74), (2, 2))
    op = gram_operator(op_src, side="right")
    transform = GroupedTensor(random_tensor((5, 2, 3), 75), (1, 2))
    triple = GroupedTensor(random_tensor((4, 3, 2), 76), (1, 1, 1))
    cases = [
        (op, decompose_sa_nnd(op)),
        (transform, decompose_transform(transform)),
        (triple, decompose_triple(triple)),
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called the main path")

    for name in ("_sum_terms", "reconstruct"):
        monkeypatch.setattr(decompose, name, refuse)
    monkeypatch.setattr(tenspec, "reconstruct", refuse)
    for a, dec in cases:
        assert verify_decomposition(a, dec).passed
