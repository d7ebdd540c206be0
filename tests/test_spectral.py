"""Eigendecomposition routes, gap rule, embeddings, and both objectives."""

from pathlib import Path

import numpy as np
import pytest

from modembed import (
    EigenPairs,
    Embedding,
    CovarianceOperator,
    Graph,
    NumericalError,
    edge_sampling,
    eigenmap_embedding,
    eigenvalues,
    exp_distance_sampling,
    frobenius_objective,
    load_edge_list,
    modularity_matrix,
    planted_partition,
    random_walk_sampling,
    reconstruct,
    resistance_distance,
    select_dimension,
    spectral_embedding,
    top_k_eigen,
    weighted_distance_objective,
)
from modembed import spectral
from modembed.cli import main

from helpers import (
    barbell,
    cycle4,
    lanczos_pairs,
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
    dense = top_k_eigen(m, 5)
    power = lanczos_pairs(m, 5)
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
    dense = top_k_eigen(q, 3)
    power = lanczos_pairs(q, 3)
    np.testing.assert_allclose(power.values, dense.values, rtol=0, atol=1e-9)
    angle = largest_principal_angle(power.vectors[:, 1:3], dense.vectors[:, 1:3])
    assert angle <= 1e-6


def test_power_route_reports_non_convergence(monkeypatch):
    rng = np.random.default_rng(3)
    m = rng.standard_normal((50, 50))
    m = 0.5 * (m + m.T)
    monkeypatch.setattr(spectral, "_MAX_RESTARTS", 3)
    with pytest.raises(NumericalError, match="did not converge"):
        spectral._lanczos(m, 2, spectral.LanczosState(50))


def test_power_route_converges_on_a_long_cycle():
    """The leading spectrum of a 3000-node cycle crowds together: its
    edge covariance has the pairs cos(2 pi j / n) / n, j = 1, 1, 2, 2, ...,
    each double and the next one only O(1 / n^3) below. krylov_pays(16, n)
    holds, and the iteration converges: no dense Q is formed."""
    n = 3000
    g = Graph.from_edges([(i, (i + 1) % n, 1.0) for i in range(n)])
    op = CovarianceOperator(g)
    pairs = top_k_eigen(op, 16)
    assert "q" not in vars(op)
    j = np.repeat(np.arange(1, 9), 2)
    np.testing.assert_allclose(pairs.values, np.cos(2 * np.pi * j / n) / n, rtol=0, atol=1e-12)


def test_power_route_restarts_are_seeded():
    """The top of a star's covariance is a 598-fold zero eigenvalue, so
    the Lanczos iteration draws fresh start vectors; they come from the
    fixed seed, two calls give the same bytes, with no dense Q, and the
    values are the dense solve's."""
    g = Graph.from_edges([(0, i, 1.0) for i in range(1, 600)])
    op = CovarianceOperator(g)
    first = top_k_eigen(op, 2)
    second = top_k_eigen(op, 2)
    assert "q" not in vars(op)
    assert first.vectors.tobytes() == second.vectors.tobytes()
    np.testing.assert_allclose(first.values, top_k_eigen(op.q, 2).values, rtol=0, atol=1e-12)


def test_a_grown_lanczos_state_stays_orthonormal_on_a_star():
    """On a 2600-node star every Lanczos step closes the Krylov space on
    the (n - 1)-fold zero top eigenvalue, the last step of rung 8 too, so
    the residual row rung 16 grows from is a fresh draw: the state's rows
    stay orthonormal, nothing settles, no dense Q is formed, and the top
    pairs read off the state are zeros."""
    op = CovarianceOperator(Graph.from_edges([(0, i, 1.0) for i in range(1, 2600)]))
    top, state = spectral.top_spectrum(op)
    assert top is None and "q" not in vars(op) and state.basis.shape == (34, 2600)
    assert np.abs(state.basis @ state.basis.T - np.eye(34)).max() <= 1e-10
    pairs = top_k_eigen(op, 2, state)
    assert np.abs(pairs.values).max() <= 1e-12 * op.norm_bound and "q" not in vars(op)


class _Counted:
    """An operator that counts its products."""

    def __init__(self, op):
        self.op, self.n, self.norm_bound, self.products = op, op.n, op.norm_bound, 0

    def __matmul__(self, x):
        self.products += 1
        return self.op @ x


def test_lanczos_products_stay_within_arpacks():
    """16 pairs of the 3200-node planted graph's edge covariance take at
    most 300 products: 258 measured, where ARPACK took 265."""
    g, _ = planted_partition(16, 200, 0.1, 0.002, seed=0)
    op = _Counted(CovarianceOperator(g))
    spectral._lanczos(op, 16, spectral.LanczosState(g.n))
    assert op.products <= 300


@pytest.mark.parametrize(("blocks", "size", "length", "k"),
                         [(8, 200, 1, 7), (8, 200, 3, 7), (16, 100, 1, 15), (10, 150, 2, 9)])
def test_lanczos_matches_the_dense_spectrum(blocks, size, length, k):
    """On planted graphs above 1440 nodes, edge and walk covariances, the
    Lanczos values lie within 1e-12 norm_bound of eigvalsh's, and the
    spanned subspace has every principal cosine against eigh's at least
    1 - 1e-10 (k ends at a community gap)."""
    g, _ = planted_partition(blocks, size, 0.1, 0.002, seed=1, ensure_connected=True)
    op = CovarianceOperator(g, length)
    values, vectors = spectral._lanczos(op, k, spectral.LanczosState(g.n))
    assert np.abs(values - np.linalg.eigvalsh(op.q)[::-1][:k]).max() <= 1e-12 * op.norm_bound
    top = np.linalg.eigh(op.q)[1][:, ::-1][:, :k]
    assert np.linalg.svd(vectors.T @ top, compute_uv=False).min() >= 1 - 1e-10


def _record_lanczos(monkeypatch):
    """Replace spectral._lanczos with a pass-through that logs each k."""
    calls, solve = [], spectral._lanczos
    monkeypatch.setattr(spectral, "_lanczos",
                        lambda m, k, state: calls.append(k) or solve(m, k, state))
    return calls


@pytest.fixture(scope="module")
def planted_600():
    """Three blocks of 200, where krylov_pays(2, n) holds."""
    g, _ = planted_partition(3, 200, 0.2, 0.005, seed=0, ensure_connected=True)
    assert spectral.krylov_pays(2, g.n)
    return _q(g)


def test_covariance_above_the_threshold_takes_the_lanczos_route(planted_600, monkeypatch):
    """top_k_eigen and spectral_embedding on a ModularityMatrix where
    krylov_pays(k, n) holds run the Lanczos iteration; the pairs meet the
    residual contract and match the dense oracle's values."""
    q = planted_600
    calls = _record_lanczos(monkeypatch)
    pairs = top_k_eigen(q, 2)
    emb = spectral_embedding(q, 2)
    assert calls == [2, 2]
    assert emb.h.tobytes() == pairs.vectors.tobytes()
    bound = 1e-8 * max(1.0, q.norm_bound)
    residuals = np.linalg.norm(q.q @ pairs.vectors - pairs.vectors * pairs.values, axis=0)
    assert residuals.max() <= bound
    np.testing.assert_allclose(pairs.values, top_k_eigen(q.q, 2).values, rtol=0, atol=bound)


def test_arrays_and_eigenmaps_stay_dense(planted_600, monkeypatch):
    """A bare array is the dense oracle whatever its size, and so is the
    Laplacian eigenmap's -L, here of a 720-node path, where
    krylov_pays(3, n) holds: neither runs the Lanczos iteration."""
    calls = _record_lanczos(monkeypatch)
    top_k_eigen(planted_600.q, 2)
    n = 720
    assert spectral.krylov_pays(3, n)
    eigenmap_embedding(Graph.from_edges([(i, i + 1, 1.0) for i in range(n - 1)]), 2)
    assert calls == []


@pytest.mark.parametrize("failure", ["budget", "residual"])
def test_failed_lanczos_gives_the_dense_bytes(failure, monkeypatch):
    """The edge covariance of a 600-node path, where krylov_pays(2, n)
    holds: when the iteration gives up after one restart, or returns
    pairs that miss the residual contract, top_k_eigen returns exactly
    the dense route's bytes."""
    g = Graph.from_edges([(i, i + 1, 1.0) for i in range(599)])
    dense = top_k_eigen(CovarianceOperator(g).q, 2)
    outcomes, solve = [], spectral._lanczos

    def record(m, k, state):
        try:
            values, vectors = solve(m, k, state)
        except NumericalError:
            outcomes.append("gave up")
            raise
        outcomes.append("returned")
        return values + (1e-6 if failure == "residual" else 0.0), vectors

    monkeypatch.setattr(spectral, "_lanczos", record)
    if failure == "budget":
        monkeypatch.setattr(spectral, "_MAX_RESTARTS", 1)
    pairs = top_k_eigen(CovarianceOperator(g), 2)
    assert outcomes == ["gave up" if failure == "budget" else "returned"]
    assert pairs.values.tobytes() == dense.values.tobytes()
    assert pairs.vectors.tobytes() == dense.vectors.tobytes()


def test_checked_covariances_skip_the_symmetry_check(monkeypatch):
    """A ModularityMatrix was checked when it was built and the operator
    is symmetric by construction, so only raw arrays are checked again;
    the dense result is the same bytes either way, and the Lanczos route
    (made to pay here) checks neither covariance."""
    g = random_connected_graph(np.random.default_rng(23), 30)
    q = _q(g)
    raw = top_k_eigen(q.q, 3)

    def refuse(m):
        raise AssertionError("symmetry checked again")

    monkeypatch.setattr(spectral, "_check_symmetric", refuse)
    checked = top_k_eigen(q, 3)
    assert checked.vectors.tobytes() == raw.vectors.tobytes()
    calls = _record_lanczos(monkeypatch)
    monkeypatch.setattr(spectral, "krylov_pays", lambda k, n: True)
    top_k_eigen(q, 3)
    top_k_eigen(CovarianceOperator(g), 3)
    assert calls == [3, 3]
    with pytest.raises(AssertionError, match="checked again"):
        top_k_eigen(q.q, 3)


def test_determinism_bit_identical():
    g = random_connected_graph(np.random.default_rng(19), 35)
    q = _q(g).q
    first = top_k_eigen(q, 4)
    second = top_k_eigen(q, 4)
    assert np.array_equal(first.values, second.values)
    assert np.array_equal(first.vectors, second.vectors)
    p1 = lanczos_pairs(q, 4)
    p2 = lanczos_pairs(q, 4)
    assert np.array_equal(p1.vectors, p2.vectors)


def test_select_dimension_cases():
    assert select_dimension([0.5, 0.48, 0.1, 0.05]) == 2
    assert select_dimension([1.0, 0.2, 0.1]) == 1
    assert select_dimension([-0.1, -0.2]) == 1  # no positive value: fallback
    assert select_dimension([0.5, 0.3, 0.1]) == 1  # tie: smallest index wins


def test_select_dimension_skips_nonpositive_candidates():
    # index 1 has a tiny gap; index 2 has the largest gap but lambda_2 <= 0
    assert select_dimension([0.5, -0.01, -0.9]) == 1


def test_select_dimension_ignores_roundoff_above_zero():
    """Every Q has an exact zero eigenvalue. On the path a-b-c eigvalsh
    returns it as 1.45e-17 and 3.4e-19; neither counts as positive, since
    both lie below n eps max|lambda|. A value above that floor does."""
    assert select_dimension([1.45e-17, 3.4e-19, -0.375]) == 1
    assert select_dimension([1e-3, 1e-14, -1.0]) == 2


def _select_dimension_loop(values):
    """The scalar loop that select_dimension vectorizes, as its reference."""
    floor = len(values) * np.finfo(float).eps * np.abs(values).max()
    best_k, best_gap = 1, -np.inf
    for k in range(1, len(values)):
        if values[k - 1] > floor and values[k - 1] - values[k] > best_gap:
            best_k, best_gap = k, values[k - 1] - values[k]
    return best_k


def test_select_dimension_matches_the_scalar_loop():
    """Ties (rounded values) and values within roundoff of zero."""
    rng = np.random.default_rng(41)
    for _ in range(500):
        n = int(rng.integers(2, 12))
        values = np.round(rng.standard_normal(n), int(rng.integers(0, 3)))
        values[rng.integers(n)] = rng.choice([0.0, 1e-17, -1e-17, 3e-16])
        values = np.sort(values)[::-1]
        assert select_dimension(values) == _select_dimension_loop(values)


def test_select_dimension_errors():
    with pytest.raises(ValueError):
        select_dimension([0.5])


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
    """Exact invariant subspaces (identity, rank one) make the Lanczos
    iteration draw fresh start vectors; the zero matrix and k == n, which
    leave it nothing to do, are solved densely. lanczos_pairs asserts
    the residual contract."""
    m = _edge_case_matrix(kind, n)
    dense = np.linalg.eigvalsh(m)[::-1]
    for k in sorted({1, min(n, 3), n}):
        pairs = lanczos_pairs(m, k)
        np.testing.assert_allclose(pairs.values, dense[:k], rtol=0, atol=1e-8)


def test_power_route_converges_on_planted_partition_within_500_products(monkeypatch):
    g, _ = planted_partition(8, 50, 0.3, 0.01, seed=0, ensure_connected=True)
    q = _q(g).q
    monkeypatch.setattr(spectral, "_MAX_RESTARTS", 500)
    power = lanczos_pairs(q, 8)
    dense = top_k_eigen(q, 8)
    np.testing.assert_allclose(power.values, dense.values, rtol=0, atol=1e-8)


KARATE = Path(__file__).resolve().parent / "data" / "karate.txt"


def _karate():
    with open(KARATE) as fh:
        return load_edge_list(fh)


def _covariance(g, sampler):
    if sampler == "edge":
        return CovarianceOperator(g)
    if sampler == "walk:3":
        return CovarianceOperator(g, 3)
    return modularity_matrix(exp_distance_sampling(resistance_distance(g)))


@pytest.mark.parametrize("sampler", ["edge", "walk:3", "expdist"])
@pytest.mark.parametrize("graph", ["karate", "planted"])
def test_eigenvalues_match_the_eigenpair_spectrum(graph, sampler):
    """The values-only solve gives the whole spectrum the eigenpair
    solve does, to 1e-16 on the residual contract's scale max(1, ||Q||)."""
    if graph == "karate":
        g = _karate()
    else:
        g, _ = planted_partition(3, 20, 0.6, 0.05, seed=0)
    q = _covariance(g, sampler)
    bound = 1e-16 * max(1.0, q.norm_bound)
    np.testing.assert_allclose(eigenvalues(q), top_k_eigen(q, q.n).values, rtol=0, atol=bound)


@pytest.mark.parametrize("kind", ["zero", "identity", "rank1", "gaussian", "tiny"])
@pytest.mark.parametrize("n", [1, 2, 13])
def test_eigenvalues_of_edge_case_matrices(n, kind):
    m = _edge_case_matrix(kind, n)
    np.testing.assert_array_equal(eigenvalues(m), np.linalg.eigvalsh(m)[::-1])


def test_eigenvalues_check_symmetry():
    with pytest.raises(ValueError, match="symmetric"):
        eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("kept", ["trace", "nothing"])
def test_eigenvalues_reject_a_perturbed_spectrum(tmp_path, monkeypatch, kept):
    """A value moved by 1e-9 ||Q||_F misses the trace identity; moving
    two values in opposite directions keeps the trace but misses the
    squared norm. Either raises, and the spectrum command exits 3."""
    exact = np.linalg.eigvalsh

    def perturbed(m):
        values = exact(m).copy()
        delta = 1e-9 * np.linalg.norm(m)
        values[-1] += delta
        if kept == "trace":
            values[0] -= delta
        return values

    monkeypatch.setattr(np.linalg, "eigvalsh", perturbed)
    with pytest.raises(NumericalError, match="squared norm"):
        eigenvalues(CovarianceOperator(_karate()))
    assert main(["spectrum", str(KARATE), "--output", str(tmp_path / "spec.tsv")]) == 3


# ===================================================================
# Early stop for --dim auto: the top of the spectrum and Q's zero eigenvalue
# ===================================================================


@pytest.fixture(scope="module")
def planted_1440():
    """Eight blocks of 180: the smallest n where krylov_pays(8, n) holds."""
    return planted_partition(8, 180, 0.1, 0.002, seed=0, ensure_connected=True)[0]


@pytest.mark.parametrize(
    ("length", "exact"),
    [(2, False), (3, False), (5, False), (8, False), (3, True), (2, True), (4, True),
     (None, False)],
    ids=["2-False", "3-False", "5-False", "8-False", "3-True", "2-True", "4-True", "edge"],
)
def test_top_spectrum_settles_the_dense_dimension(planted_1440, length, exact):
    """On edge and walk covariances the best gap among the top 8 values
    beats lambda_8 + n eps ||Q||, and those 8 values alone pick the dense
    k. Against the dense oracle, top_k_eigen of the sampled graph's Q,
    the leading k pairs meet the residual contract and span its subspace:
    every principal cosine is at least 1 - 1e-8."""
    g = planted_1440
    q = CovarianceOperator(g) if length is None else CovarianceOperator(g, length, exact_length=exact)
    top, _ = spectral.top_spectrum(q)
    assert "q" not in vars(q)  # no dense Q was formed
    k = select_dimension(top.values)
    assert top.values.shape == (8,) and k == select_dimension(eigenvalues(q))
    sampled = (edge_sampling(g) if length is None
               else random_walk_sampling(g, length, exact_length=exact))
    dense = modularity_matrix(sampled).q
    oracle = top_k_eigen(dense, k)
    values, vectors = top.values[:k], top.vectors[:, :k]
    bound = 1e-8 * max(1.0, np.abs(dense).sum(axis=1).max())
    assert np.linalg.norm(dense @ vectors - vectors * values, axis=0).max() <= bound
    np.testing.assert_allclose(values, oracle.values, rtol=0, atol=bound)
    assert np.linalg.svd(vectors.T @ oracle.vectors, compute_uv=False).min() >= 1 - 1e-8


def _stub_dense_spectrum(monkeypatch):
    """Replace spectral.eigenvalues with a stub that records each argument,
    and return that list: top_spectrum must leave it empty."""
    reads = []
    monkeypatch.setattr(spectral, "eigenvalues", reads.append)
    return reads


@pytest.mark.parametrize("case", ["cycle-edge", "cycle-walk:3", "small"])
def test_top_spectrum_gives_up(case, monkeypatch):
    """A cycle has no community gap: its best gap among the top 8 stays
    below lambda_8, and n = 1500 allows no j = 16. Below 1440 nodes no
    j = 8 pays. Each returns None and reads no dense spectrum."""
    if case == "small":
        small, _ = planted_partition(8, 179, 0.1, 0.002, seed=0, ensure_connected=True)
        q = CovarianceOperator(small, 3)
    else:
        g = Graph.from_edges([(i, (i + 1) % 1500, 1.0) for i in range(1500)])
        q = CovarianceOperator(g) if case == "cycle-edge" else CovarianceOperator(g, 3)
    reads = _stub_dense_spectrum(monkeypatch)
    assert spectral.top_spectrum(q)[0] is None and reads == [] and "q" not in vars(q)


def test_top_spectrum_solves_once_per_j(planted_1440, monkeypatch):
    """One Lanczos solve per j and no solve for the bottom of the
    spectrum: walk:3 settles at j = 8 after a single call, with no dense
    Q."""
    calls = _record_lanczos(monkeypatch)
    q = CovarianceOperator(planted_1440, 3)
    spectral.top_spectrum(q)
    assert calls == [8] and "q" not in vars(q)


class _PlantedSpectrum:
    """Q = H diag(values) H for the Householder reflection H swapping e_1
    and 1/sqrt(n), so values[0] must be 0 and Q 1 = 0; its norm bound is
    max|values|. Q's product takes a vector or a block of columns, and
    the eigenvector of values[i] is column i of H."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.n = self.values.size
        self.norm_bound = float(np.abs(self.values).max())
        self.u = -np.full(self.n, 1 / np.sqrt(self.n))
        self.u[0] += 1.0
        self.u /= np.linalg.norm(self.u)

    def _reflect(self, x):
        return x - 2.0 * np.multiply.outer(self.u, self.u @ x)

    def __matmul__(self, x):
        return self._reflect((self.values * self._reflect(x).T).T)

    def vectors(self, columns):
        """The eigenvectors of values[columns], as columns."""
        return self._reflect(np.eye(self.n)[:, columns])


def _planted_top(lambda_8, lambda_min):
    """Top values 1, .98, .96, .5, .49, .48, .47, lambda_8 over a bulk in
    [-0.02, 0.3] and lambda_min, on n = 1440, which allows no j = 16."""
    top = [1.0, 0.98, 0.96, 0.5, 0.49, 0.48, 0.47, lambda_8]
    bulk = np.linspace(0.3, -0.02, 1440 - 10)
    q = _PlantedSpectrum(np.concatenate([[0.0], top, bulk, [lambda_min]]))
    assert np.abs(q @ np.ones(q.n)).max() <= 1e-14
    block = q @ q.vectors(slice(1, 9))
    assert np.abs(block - q.vectors(slice(1, 9)) * top).max() <= 1e-14
    return q, top


def _check_planted_pairs(q, pairs, top):
    """The pairs are the planted top 8: values within 1e-12, and vectors
    whose principal cosines with the planted ones are at least 1 - 1e-8."""
    np.testing.assert_allclose(pairs.values, top, rtol=0, atol=1e-12)
    cosines = np.linalg.svd(pairs.vectors.T @ q.vectors(slice(1, 9)), compute_uv=False)
    assert cosines.min() >= 1 - 1e-8


@pytest.mark.parametrize("margin", [1e-6, -1e-6])
def test_top_spectrum_closes_exactly_when_the_gap_beats_the_bound(margin, monkeypatch):
    """The best top gap, 0.46, is at k = 3. With lambda_8 = 0.46 - tau -
    margin, tau = n eps ||Q||, the gap beats lambda_8 + tau for a positive
    margin only; otherwise nothing settles. Neither reads the dense
    spectrum."""
    tau = 1440 * np.finfo(float).eps * 1.0
    q, top = _planted_top(0.46 - tau - margin, -0.04)
    reads = _stub_dense_spectrum(monkeypatch)
    pairs, _ = spectral.top_spectrum(q)
    assert reads == []
    if margin < 0:
        assert pairs is None
        return
    _check_planted_pairs(q, pairs, top)
    assert select_dimension(pairs.values) == 3


def test_top_spectrum_ignores_the_negative_spectrum():
    """lambda_min = -5 lies further below zero than lambda_1 = 1 lies
    above it, which a lower bound on lambda_min could not settle; the
    zero eigenvalue does, with the dense k."""
    q, top = _planted_top(0.42, -5.0)
    pairs, _ = spectral.top_spectrum(q)
    _check_planted_pairs(q, pairs, top)
    assert select_dimension(pairs.values) == select_dimension(np.sort(q.values)[::-1]) == 3


def test_top_spectrum_grows_one_solve_from_j_8_to_16(monkeypatch):
    """On n = 2600, where j = 16 pays, 15 values from 1 down to 0.93 over
    lambda_16 = 0.3 and a bulk in [-0.02, 0.25]: the top 8 values settle
    nothing, the top 16 settle the dense k = 15. The 16 pairs are the
    planted ones, within 1e-12 and principal cosines 1 - 1e-8, and rung 16,
    which goes on from rung 8's Lanczos state, takes fewer products than
    a fresh solve for 16 pairs."""
    top = np.append(np.linspace(1.0, 0.93, 15), 0.3)
    q = _PlantedSpectrum(np.concatenate([[0.0], top, np.linspace(0.25, -0.02, 2600 - 17)]))
    rungs, solve = [], spectral._lanczos

    def record(m, k, state):
        before = state.products
        pairs = solve(m, k, state)
        rungs.append((k, state.products - before))
        return pairs

    monkeypatch.setattr(spectral, "_lanczos", record)
    pairs, state = spectral.top_spectrum(q)
    np.testing.assert_allclose(pairs.values, top, rtol=0, atol=1e-12)
    cosines = np.linalg.svd(pairs.vectors.T @ q.vectors(slice(1, 17)), compute_uv=False)
    assert cosines.min() >= 1 - 1e-8
    assert select_dimension(pairs.values) == select_dimension(np.sort(q.values)[::-1]) == 15
    fresh = spectral.LanczosState(q.n)
    solve(q, 16, fresh)
    assert [k for k, _ in rungs] == [8, 16] and sum(p for _, p in rungs) == state.products
    assert rungs[1][1] < fresh.products


def test_top_spectrum_needs_lambda_j_above_the_allowance(monkeypatch):
    """With five positive values the top 8 reach the zero eigenvalue and
    the negative bulk, so lambda_8 <= tau, and n = 1440 allows no j = 16.
    Nothing settles, and no dense spectrum is read."""
    top = [1.0, 0.98, 0.96, 0.5, 0.49]
    q = _PlantedSpectrum(np.concatenate([[0.0], top, np.linspace(-0.001, -0.3, 1440 - 6)]))
    reads = _stub_dense_spectrum(monkeypatch)
    assert spectral.top_spectrum(q)[0] is None and reads == []


def test_completion_breaks_ties_towards_the_smallest_k(monkeypatch):
    """Dyadic values and tau = n eps ||Q|| on n = 2048, so every
    comparison is exact: gaps of 2 at k = 1 and k = 4 tie and k = 1 wins;
    a tau that makes lambda_8 + tau equal to the best gap settles
    nothing, since a later gap could tie it. The stubbed solve returns
    the planted pairs, which pass the residual contract unchanged."""
    top = np.array([6.0, 4.0, 3.75, 3.5, 1.5, 1.375, 1.25, 1.125])
    q = _PlantedSpectrum(np.concatenate([[0.0], top, np.linspace(1.0, -1.0, 2048 - 9)]))
    monkeypatch.setattr(spectral, "_lanczos", lambda *args: (top, q.vectors(slice(1, 9))))
    unit = 2048 * np.finfo(float).eps  # tau per unit of norm_bound, 2**-41
    q.norm_bound = 0.75 / unit  # a loose bound on ||Q||_inf is still a bound
    pairs, _ = spectral.top_spectrum(q)
    assert pairs.values.tobytes() == top.tobytes()
    assert select_dimension(pairs.values) == 1
    reads = _stub_dense_spectrum(monkeypatch)
    q.norm_bound = 0.875 / unit
    assert spectral.top_spectrum(q)[0] is None and reads == []
