"""Eigendecomposition routes, gap rule, embeddings, and both objectives."""

import numpy as np
import pytest

from modembed import (
    EigenPairs,
    Embedding,
    NumericalError,
    edge_sampling,
    frobenius_objective,
    modularity_matrix,
    planted_partition,
    reconstruct,
    select_dimension,
    spectral_embedding,
    top_k_eigen,
    weighted_distance_objective,
)

from helpers import (
    barbell,
    cycle4,
    largest_principal_angle,
    path3,
    random_connected_graph,
    random_orthonormal,
    triangle,
)


def _q(g):
    return modularity_matrix(edge_sampling(g))


def test_triangle_spectrum_and_top_vector():
    pairs = top_k_eigen(_q(triangle()).q, 3)
    np.testing.assert_allclose(pairs.values, [0.0, -1 / 6, -1 / 6], rtol=0, atol=1e-15)
    np.testing.assert_allclose(pairs.vectors[:, 0], np.ones(3) / np.sqrt(3), atol=1e-12)


def test_cycle4_spectrum():
    pairs = top_k_eigen(_q(cycle4()).q, 4)
    np.testing.assert_allclose(pairs.values, [0.0, 0.0, 0.0, -0.25], rtol=0, atol=1e-15)


def test_identity_matrix_top_two():
    pairs = top_k_eigen(np.eye(4), 2)
    np.testing.assert_allclose(pairs.values, [1.0, 1.0], rtol=0, atol=0)


def test_top_k_eigen_validates_k():
    q = _q(triangle()).q
    for bad in (0, -1, 4):
        with pytest.raises(ValueError):
            top_k_eigen(q, bad)


def test_residual_contract_holds():
    g = random_connected_graph(np.random.default_rng(12), 40)
    q = _q(g).q
    pairs = top_k_eigen(q, 6)
    scale = max(1.0, np.abs(q).sum(axis=1).max())
    for lam, vec in zip(pairs.values, pairs.vectors.T):
        assert np.linalg.norm(q @ vec - lam * vec) <= 1e-8 * scale


def test_eigenpairs_validation():
    v = np.eye(2)
    with pytest.raises(ValueError):
        EigenPairs(np.array([0.1, 0.5]), v)  # not descending
    skew = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        EigenPairs(np.array([0.5, 0.1]), skew)  # not orthonormal


def test_power_route_matches_dense_on_random_matrix():
    rng = np.random.default_rng(77)
    m = rng.standard_normal((30, 30))
    m = 0.5 * (m + m.T)
    dense = top_k_eigen(m, 5, method="dense")
    power = top_k_eigen(m, 5, method="power")
    np.testing.assert_allclose(power.values, dense.values, rtol=0, atol=1e-9)
    for j in range(5):
        angle = largest_principal_angle(
            power.vectors[:, j : j + 1], dense.vectors[:, j : j + 1]
        )
        assert angle <= 1e-6


def test_power_route_handles_degenerate_pair():
    """K3 has an exactly repeated eigenvalue; eigenvalues must match and the
    two-dimensional eigenspace must agree as a subspace."""
    q = _q(triangle()).q
    dense = top_k_eigen(q, 3, method="dense")
    power = top_k_eigen(q, 3, method="power")
    np.testing.assert_allclose(power.values, dense.values, rtol=0, atol=1e-9)
    angle = largest_principal_angle(power.vectors[:, 1:3], dense.vectors[:, 1:3])
    assert angle <= 1e-6


def test_power_route_reports_non_convergence():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((50, 50))
    m = 0.5 * (m + m.T)
    with pytest.raises(NumericalError):
        top_k_eigen(m, 2, method="power", max_iter=3)


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        top_k_eigen(np.eye(2), 1, method="lanczos")


def test_determinism_bit_identical():
    g = random_connected_graph(np.random.default_rng(19), 35)
    q = _q(g).q
    first = top_k_eigen(q, 4)
    second = top_k_eigen(q, 4)
    assert np.array_equal(first.values, second.values)
    assert np.array_equal(first.vectors, second.vectors)
    p1 = top_k_eigen(q, 4, method="power")
    p2 = top_k_eigen(q, 4, method="power")
    assert np.array_equal(p1.vectors, p2.vectors)


def test_select_dimension_cases():
    assert select_dimension([0.5, 0.48, 0.1, 0.05], 4) == 2
    assert select_dimension([1.0, 0.2, 0.1], 3) == 1
    assert select_dimension([-0.1, -0.2], 2) == 1  # no positive value: fallback
    assert select_dimension([0.5, 0.3, 0.1], 3) == 1  # tie: smallest index wins
    assert select_dimension([0.5, 0.48, 0.1, 0.05], 2) == 1  # k_max caps the range


def test_select_dimension_skips_nonpositive_candidates():
    # index 1 has a tiny gap; index 2 has the largest gap but lambda_2 <= 0
    assert select_dimension([0.5, -0.01, -0.9], 3) == 1


def test_select_dimension_errors():
    with pytest.raises(ValueError):
        select_dimension([0.5], 3)
    with pytest.raises(ValueError):
        select_dimension([0.5, 0.1], 0)


def test_embedding_triangle_top_one():
    emb = spectral_embedding(_q(triangle()), 1)
    np.testing.assert_allclose(emb.h[:, 0], np.ones(3) / np.sqrt(3), atol=1e-12)


def test_embedding_barbell_leading_column_separates_triangles():
    emb = spectral_embedding(_q(barbell()), 2)
    lead = emb.h[:, 0]
    assert np.all(np.sign(lead[:3]) == np.sign(lead[0]))
    assert np.all(np.sign(lead[3:]) == -np.sign(lead[0]))
    # and the pair spans the same space as an independent full decomposition
    values, vectors = np.linalg.eigh(_q(barbell()).q)
    oracle = vectors[:, np.argsort(values)[::-1][:2]]
    assert largest_principal_angle(emb.h, oracle) <= 1e-8


def test_embedding_full_basis_traces_q():
    g = random_connected_graph(np.random.default_rng(23), 20)
    q = _q(g)
    emb = spectral_embedding(q, 20)
    assert np.trace(emb.h.T @ q.q @ emb.h) == pytest.approx(np.trace(q.q), abs=1e-8)


def test_embedding_objective_is_sum_of_top_eigenvalues():
    g = random_connected_graph(np.random.default_rng(29), 30)
    q = _q(g)
    for k in (1, 3, 7):
        emb = spectral_embedding(q, k)
        expected = np.sort(np.linalg.eigvalsh(q.q))[::-1][:k].sum()
        assert np.trace(emb.h.T @ q.q @ emb.h) == pytest.approx(expected, abs=1e-8)


def test_weighted_distance_constant_rows_is_zero():
    q = _q(path3())
    h = np.ones((3, 2)) * 0.7
    assert weighted_distance_objective(q, h) == pytest.approx(0.0, abs=1e-12)


def test_weighted_distance_matches_direct_loop():
    rng = np.random.default_rng(31)
    g = random_connected_graph(rng, 12)
    q = _q(g)
    h = rng.standard_normal((12, 3))
    direct = 0.0
    for u in range(12):
        for w in range(12):
            diff = h[u] - h[w]
            direct += q.q[u, w] * float(diff @ diff)
    assert weighted_distance_objective(q, h) == pytest.approx(direct, abs=1e-10)


def test_weighted_distance_identity_for_orthonormal():
    rng = np.random.default_rng(37)
    g = random_connected_graph(rng, 15)
    q = _q(g)
    h = random_orthonormal(rng, 15, 4)
    expected = -2.0 * np.trace(h.T @ q.q @ h)
    assert weighted_distance_objective(q, h) == pytest.approx(expected, abs=1e-10)


def test_weighted_distance_path_top_vector():
    q = _q(path3())
    emb = spectral_embedding(q, 1)
    lam1 = np.sort(np.linalg.eigvalsh(q.q))[::-1][0]
    assert weighted_distance_objective(q, emb.h) == pytest.approx(-2 * lam1, abs=1e-8)


def test_frobenius_expansion_identity():
    rng = np.random.default_rng(41)
    g = random_connected_graph(rng, 18)
    q = _q(g)
    h = random_orthonormal(rng, 18, 5)
    expected = (
        np.linalg.norm(q.q) ** 2 - 2.0 * np.trace(h.T @ q.q @ h) + 5.0
    )
    assert frobenius_objective(q, h) == pytest.approx(expected, abs=1e-10)
    direct = np.linalg.norm(q.q - h @ h.T) ** 2
    assert frobenius_objective(q, h) == pytest.approx(direct, abs=1e-10)


def test_frobenius_zero_matrix_unit_vector():
    h = np.array([[0.6], [0.8]])
    assert frobenius_objective(np.zeros((2, 2)), h) == pytest.approx(1.0, abs=1e-12)


def test_frobenius_eigenvector_beats_random_unit_vectors():
    q = _q(path3())
    best = frobenius_objective(q, spectral_embedding(q, 1).h)
    rng = np.random.default_rng(43)
    for _ in range(10):
        v = rng.standard_normal((3, 1))
        v /= np.linalg.norm(v)
        assert best < frobenius_objective(q, v)


def test_reconstruct_goldens():
    h = Embedding(np.ones((2, 1)) / np.sqrt(2))
    np.testing.assert_allclose(reconstruct(h), [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)
    g = random_connected_graph(np.random.default_rng(47), 9)
    emb = spectral_embedding(_q(g), 9)
    np.testing.assert_allclose(reconstruct(emb), np.eye(9), rtol=0, atol=1e-12)


def test_reconstruct_barbell_within_triangle_positive():
    emb = spectral_embedding(_q(barbell()), 2)
    rebuilt = reconstruct(emb)
    for group in ([0, 1, 2], [3, 4, 5]):
        for i in group:
            for j in group:
                if i != j:
                    assert rebuilt[i, j] > 0


def test_embedding_mode_validation():
    with pytest.raises(ValueError):
        Embedding(np.ones((3, 2)))  # columns not orthonormal


def _edge_case_matrix(kind, n):
    rng = np.random.default_rng(n)
    g = rng.standard_normal((n, n))
    g = 0.5 * (g + g.T)
    v = rng.standard_normal(n)
    return {
        "zero": np.zeros((n, n)),
        "identity": np.eye(n),
        "rank1": np.outer(v, v),
        "gaussian": g,
        "tiny": 1e-6 * g,
    }[kind]


@pytest.mark.parametrize("kind", ["zero", "identity", "rank1", "gaussian", "tiny"])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 13, 20, 40])
def test_power_route_edge_cases(n, kind):
    """Exact invariant subspaces (zero, identity, rank one) must end the
    Krylov extension instead of filling the basis with roundoff."""
    m = _edge_case_matrix(kind, n)
    scale = max(1.0, np.abs(m).sum(axis=1).max())
    dense = np.linalg.eigvalsh(m)[::-1]
    for k in sorted({1, min(n, 3), n}):
        pairs = top_k_eigen(m, k, method="power")
        np.testing.assert_allclose(pairs.values, dense[:k], rtol=0, atol=1e-8)
        residuals = np.linalg.norm(m @ pairs.vectors - pairs.vectors * pairs.values, axis=0)
        assert residuals.max() <= 1e-8 * scale


def test_power_route_converges_on_planted_partition_within_500_products():
    g, _ = planted_partition(8, 50, 0.3, 0.01, seed=0, ensure_connected=True)
    q = _q(g).q
    power = top_k_eigen(q, 8, method="power", max_iter=500)
    dense = top_k_eigen(q, 8)
    np.testing.assert_allclose(power.values, dense.values, rtol=0, atol=1e-8)
