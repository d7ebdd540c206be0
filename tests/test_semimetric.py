"""Semi-metric/cohesion duality, Laplacian pseudo-inverse, resistance,
eigenmaps, and the PCA bridge."""

from itertools import combinations

import numpy as np
import pytest

from modembed import (
    CohesionMatrix,
    DataMatrix,
    EigenPairs,
    Embedding,
    FormatError,
    Graph,
    ModularityMatrix,
    SampledGraph,
    SemiMetric,
    StochasticEmbedding,
    edge_sampling,
    eigenmap_embedding,
    eigenvalues,
    exp_distance_sampling,
    half_sq_euclidean,
    induce_cohesion,
    induce_metric,
    laplacian,
    laplacian_pinv,
    load_points,
    modularity_matrix,
    pca_embedding,
    resistance_distance,
    select_dimension,
    semimetric,
    softmax_cluster,
    top_k_eigen,
)
from helpers import (
    cycle4,
    largest_principal_angle,
    path3,
    path4,
    random_connected_graph,
    random_semimetric,
    triangle,
)


def test_semimetric_axiom_validation():
    with pytest.raises(ValueError):
        SemiMetric(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError):
        SemiMetric(np.array([[0.5, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        SemiMetric(np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_cohesion_axiom_validation():
    with pytest.raises(ValueError):
        CohesionMatrix(np.array([[1.0, 1.0], [1.0, 1.0]]))  # row sums not zero
    with pytest.raises(ValueError):
        CohesionMatrix(np.array([[-1.0, 1.0], [1.0, -1.0]]))  # dominance violated


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_cohesion_row_sum_check_is_relative(scale):
    """Row sums may be off by roundoff at the matrix's own scale, but not
    by 1e-6 of it, whatever that scale is."""
    gamma = laplacian_pinv(triangle()).gamma * scale
    CohesionMatrix(gamma)
    off = gamma.copy()
    off[0, 0] += 1e-6 * np.abs(gamma).max()
    with pytest.raises(ValueError, match="zero-row-sum"):
        CohesionMatrix(off)


def test_induce_cohesion_golden():
    d = SemiMetric(np.array([[0.0, 2.0], [2.0, 0.0]]))
    np.testing.assert_allclose(
        induce_cohesion(d).gamma, [[1.0, -1.0], [-1.0, 1.0]], rtol=0, atol=1e-15
    )


def test_induce_cohesion_null_metric():
    d = SemiMetric(np.zeros((4, 4)))
    np.testing.assert_array_equal(induce_cohesion(d).gamma, np.zeros((4, 4)))


def test_induce_metric_golden():
    g = CohesionMatrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    np.testing.assert_allclose(
        induce_metric(g).d, [[0.0, 2.0], [2.0, 0.0]], rtol=0, atol=1e-15
    )


def test_duality_round_trip():
    rng = np.random.default_rng(53)
    for _ in range(20):
        n = int(rng.integers(2, 50))
        d = random_semimetric(rng, n, scale=5.0)
        back = induce_metric(induce_cohesion(SemiMetric(d))).d
        np.testing.assert_allclose(back, d, rtol=0, atol=1e-12)


def test_cohesion_need_not_be_positive_semidefinite():
    """A valid semi-metric can induce a cohesion matrix with a clearly
    negative eigenvalue, so cohesion is weaker than a Gram matrix."""
    d = SemiMetric(np.array([[0.0, 1.0, 9.0], [1.0, 0.0, 1.0], [9.0, 1.0, 0.0]]))
    gamma = induce_cohesion(d)
    assert np.linalg.eigvalsh(gamma.gamma).min() < -0.5


def test_laplacian_pinv_single_edge():
    g = Graph.from_edges([(0, 1, 1.0)])
    np.testing.assert_allclose(
        laplacian_pinv(g).gamma, [[0.25, -0.25], [-0.25, 0.25]], rtol=0, atol=1e-12
    )


def test_laplacian_pinv_lone_node():
    g = Graph(n=1, edges=np.zeros((0, 2), dtype=int), weights=np.zeros(0))
    assert laplacian_pinv(g).gamma.tolist() == [[0.0]]


def test_laplacian_pinv_triangle():
    expected = (np.eye(3) - np.full((3, 3), 1 / 3)) / 3.0
    np.testing.assert_allclose(laplacian_pinv(triangle()).gamma, expected, atol=1e-12)


def test_laplacian_pinv_identities():
    rng = np.random.default_rng(59)
    for _ in range(5):
        g = random_connected_graph(rng, int(rng.integers(3, 60)), weighted=True)
        lap = laplacian(g)
        gamma = laplacian_pinv(g).gamma
        assert np.abs(gamma.sum(axis=1)).max() <= 1e-10
        np.testing.assert_allclose(gamma @ lap @ gamma, gamma, rtol=0, atol=1e-9)
        np.testing.assert_allclose(lap @ gamma @ lap, lap, rtol=0, atol=1e-9)


def test_laplacian_pinv_requires_connected():
    with pytest.raises(ValueError):
        laplacian_pinv(Graph.from_edges([(0, 1, 1.0), (2, 3, 1.0)]))


def test_resistance_goldens():
    single = resistance_distance(Graph.from_edges([(0, 1, 1.0)])).d
    assert single[0, 1] == pytest.approx(1.0, abs=1e-10)
    r3 = resistance_distance(path3()).d
    assert r3[0, 1] == pytest.approx(1.0, abs=1e-10)
    assert r3[1, 2] == pytest.approx(1.0, abs=1e-10)
    assert r3[0, 2] == pytest.approx(2.0, abs=1e-10)
    rk = resistance_distance(triangle()).d
    for u in range(3):
        for w in range(3):
            if u != w:
                assert rk[u, w] == pytest.approx(2 / 3, abs=1e-10)


def test_resistance_series_and_parallel():
    r4 = resistance_distance(path4()).d
    assert r4[0, 3] == pytest.approx(3.0, abs=1e-10)  # three unit resistors in series
    rc = resistance_distance(cycle4()).d
    assert rc[0, 1] == pytest.approx(0.75, abs=1e-10)  # 1 parallel to 3
    assert rc[0, 2] == pytest.approx(1.0, abs=1e-10)  # 2 parallel to 2


def test_resistance_matches_spectral_form():
    g = random_connected_graph(np.random.default_rng(61), 25, weighted=True)
    r = resistance_distance(g).d
    values, vectors = np.linalg.eigh(laplacian(g))
    expected = np.zeros((g.n, g.n))
    for beta, z in zip(values[1:], vectors.T[1:]):
        expected += np.subtract.outer(z, z) ** 2 / beta
    np.testing.assert_allclose(r, expected, rtol=0, atol=1e-10)


def test_resistance_cohesion_is_twice_pinv():
    g = random_connected_graph(np.random.default_rng(67), 30)
    gamma = induce_cohesion(resistance_distance(g)).gamma
    np.testing.assert_allclose(gamma, 2.0 * laplacian_pinv(g).gamma, rtol=0, atol=1e-9)


@pytest.mark.parametrize("n", [100, 500, 1000, 1700])
def test_resistance_of_long_path(n):
    """n - 1 unit resistors in series. The entries of L+ grow like n, so
    their roundoff does too; the cohesion check scales with them."""
    r = resistance_distance(Graph.from_edges([(u, u + 1, 1.0) for u in range(n - 1)])).d
    assert r[0, n - 1] == pytest.approx(n - 1, rel=1e-9)


@pytest.mark.parametrize(
    "edges, pair, expected",
    [
        ([(0, 1, 1e8)], (0, 1), 1e-8),
        ([(u, u + 1, 1e6) for u in range(99)], (0, 99), 99e-6),
    ],
    ids=["edge-1e8", "path100-1e6"],
)
def test_resistance_under_large_weights(edges, pair, expected):
    """The pseudo-inverse's shift follows the scale of L, so heavy edges
    neither break the zero-row-sum check nor cost relative accuracy."""
    r = resistance_distance(Graph.from_edges(edges)).d
    assert r[pair] == pytest.approx(expected, rel=1e-9)


def test_resistance_under_small_weights():
    """Light edges give large L+ entries, and the row-sum check scales
    with them: a triangle whose edges all weigh 1e-6 has R = 2/3 * 1e6."""
    r = resistance_distance(Graph.from_edges([(0, 1, 1e-6), (1, 2, 1e-6), (0, 2, 1e-6)])).d
    np.testing.assert_allclose(r[np.triu_indices(3, 1)], 2 / 3 * 1e6, rtol=1e-12)


def test_resistance_on_a_tree_with_weights_across_four_decades():
    """On a tree, R between neighbours is the inverse edge weight. L is
    ill-conditioned here; centering L+ by its computed row means keeps
    its row sums at summation roundoff all the same."""
    edges = [(0, 1), (0, 2), (0, 6), (1, 3), (1, 4), (1, 5), (1, 8), (2, 7), (7, 9)]
    weights = [0.01171875, 0.01171875, 0.25, 0.01171875, 1.0, 1.0, 2.0, 9.0, 88.5]
    g = Graph.from_edges([(u, w, x) for (u, w), x in zip(edges, weights)])
    r = resistance_distance(g).d
    np.testing.assert_allclose([r[e] for e in edges], 1 / np.array(weights), rtol=1e-10)


def test_resistance_of_long_cycle():
    """Arcs of k and n - k unit resistors in parallel: k(n - k)/n."""
    n = 400
    r = resistance_distance(Graph.from_edges([(u, (u + 1) % n, 1.0) for u in range(n)])).d
    k = np.arange(n)
    np.testing.assert_allclose(r[0], k * (n - k) / n, rtol=0, atol=1e-9)


def test_resistance_of_barbell():
    """Two 20-cliques joined through a 30-node path (networkx's
    barbell_graph(20, 30)): 31 bridge edges in series, and 2/20 between
    two clique members."""
    edges = list(combinations(range(20), 2)) + list(combinations(range(50, 70), 2))
    edges += [(u, u + 1) for u in range(19, 50)]
    r = resistance_distance(Graph.from_edges([(u, w, 1.0) for u, w in edges])).d
    assert r.shape == (70, 70)
    assert r[0, 1] == pytest.approx(0.1, abs=1e-10)
    assert r[19, 50] == pytest.approx(31.0, abs=1e-10)
    assert r[0, 69] == pytest.approx(31.2, abs=1e-10)


def test_eigenmap_goldens():
    single = eigenmap_embedding(Graph.from_edges([(0, 1, 1.0)]), 1)
    np.testing.assert_allclose(single.h[:, 0], [1 / np.sqrt(2), -1 / np.sqrt(2)], atol=1e-12)
    p3 = eigenmap_embedding(path3(), 1)
    np.testing.assert_allclose(p3.h[:, 0], [1 / np.sqrt(2), 0.0, -1 / np.sqrt(2)], atol=1e-12)


def test_eigenmap_columns_orthogonal_to_ones():
    g = random_connected_graph(np.random.default_rng(71), 20)
    emb = eigenmap_embedding(g, 4)
    assert np.abs(emb.h.sum(axis=0)).max() <= 1e-10


def test_eigenmap_bounds_and_connectivity():
    with pytest.raises(ValueError):
        eigenmap_embedding(path3(), 0)
    with pytest.raises(ValueError):
        eigenmap_embedding(path3(), 3)
    with pytest.raises(ValueError):
        eigenmap_embedding(Graph.from_edges([(0, 1, 1.0), (2, 3, 1.0)]), 1)


def test_laplacian_bridges_cache_no_dense_adjacency():
    """Resistance distances and eigenmaps read the Laplacian, which is
    built from the edges, so the graph keeps no n x n array."""
    g = random_connected_graph(np.random.default_rng(13), 30, weighted=True)
    resistance_distance(g)
    eigenmap_embedding(g, 3)
    assert "adjacency" not in g.__dict__


def test_eigenmap_spans_top_pinv_eigenspace():
    g = random_connected_graph(np.random.default_rng(73), 15)
    emb = eigenmap_embedding(g, 3)
    gamma = laplacian_pinv(g).gamma
    values, vectors = np.linalg.eigh(gamma)
    top = vectors[:, np.argsort(values)[::-1][:3]]
    assert largest_principal_angle(emb.h, top) <= 1e-6


def test_half_sq_euclidean_golden():
    x = DataMatrix(np.array([[-1.0, 0.0], [1.0, 0.0]]))
    d = half_sq_euclidean(x)
    np.testing.assert_allclose(d.d, [[0.0, 2.0], [2.0, 0.0]], rtol=0, atol=1e-12)
    gamma = induce_cohesion(d).gamma
    np.testing.assert_allclose(gamma, [[1.0, -1.0], [-1.0, 1.0]], rtol=0, atol=1e-12)


def test_half_sq_euclidean_duplicate_rows():
    x = DataMatrix(np.array([[2.0, 3.0], [2.0, 3.0], [0.0, 0.0]]))
    assert half_sq_euclidean(x).d[0, 1] == 0.0


def test_cohesion_of_half_sq_euclidean_is_centered_gram():
    rng = np.random.default_rng(79)
    x = rng.standard_normal((12, 4))
    centered = x - x.mean(axis=0)
    gamma = induce_cohesion(half_sq_euclidean(DataMatrix(x))).gamma
    np.testing.assert_allclose(gamma, centered @ centered.T, rtol=0, atol=1e-10)


def test_pca_golden_two_points():
    emb, scales = pca_embedding(DataMatrix(np.array([[-1.0, 0.0], [1.0, 0.0]])), 1)
    assert scales[0] == pytest.approx(np.sqrt(2.0), abs=1e-12)
    scores = emb.h * scales
    np.testing.assert_allclose(np.abs(scores[:, 0]), [1.0, 1.0], atol=1e-12)
    assert scores[0, 0] * scores[1, 0] < 0


def test_pca_identical_rows_degenerates_gracefully():
    emb, scales = pca_embedding(DataMatrix(np.array([[1.0, 2.0], [1.0, 2.0]])), 1)
    assert scales[0] == pytest.approx(0.0, abs=1e-12)
    assert emb.h.shape == (2, 1)


def test_pca_matches_svd_oracle():
    rng = np.random.default_rng(83)
    x = rng.standard_normal((20, 3))
    emb, scales = pca_embedding(DataMatrix(x), 3)
    scores = emb.h * scales
    centered = x - x.mean(axis=0)
    u, s, _ = np.linalg.svd(centered, full_matrices=False)
    oracle = u[:, :3] * s[:3]
    for j in range(3):
        col = scores[:, j]
        ref = oracle[:, j]
        assert min(np.abs(col - ref).max(), np.abs(col + ref).max()) <= 1e-8


def test_pca_accepts_large_scale_points():
    """Points of magnitude ~100 and K above the column count: the 37
    scales past the rank of 40 points in 3 dimensions are zero, and the
    40 columns are the full set of left singular vectors."""
    x = np.random.default_rng(0).standard_normal((40, 3)) * 100
    emb, scales = pca_embedding(DataMatrix(x), 40)
    assert emb.h.shape == (40, 40)
    np.testing.assert_allclose(scales[3:], 0.0, atol=1e-6 * scales[0])


def _refuse(*args, **kwargs):
    raise AssertionError("an eigendecomposition ran")


@pytest.mark.parametrize("k", [2, 5, 7])
def test_pca_runs_no_eigendecomposition(monkeypatch, k):
    """A thin SVD, or the full U for K above the column count 5: its
    scales are the square roots of the centered Gram eigenvalues, zero
    past the rank, without eigh or top_k_eigen running."""
    x = np.random.default_rng(7).standard_normal((7, 5))
    centered = x - x.mean(axis=0)
    gram_values = np.linalg.eigvalsh(centered @ centered.T)[::-1]
    monkeypatch.setattr(semimetric, "top_k_eigen", _refuse)
    monkeypatch.setattr(np.linalg, "eigh", _refuse)
    emb, scales = pca_embedding(DataMatrix(x), k)
    assert emb.h.shape == (7, k)
    np.testing.assert_allclose(scales**2, np.maximum(gram_values[:k], 0), rtol=0, atol=1e-12)
    assert np.all(scales[5:] == 0.0)
    np.testing.assert_allclose(centered @ centered.T @ emb.h, emb.h * scales**2, atol=1e-12)


def test_small_theta_sampling_recovers_cohesion_direction():
    """First-order link: off-diagonal entries of Q_theta/(-theta) are
    proportional to the induced cohesion matrix for tiny theta."""
    rng = np.random.default_rng(89)
    d = random_semimetric(rng, 12, scale=3.0)
    gamma = induce_cohesion(SemiMetric(d)).gamma
    q = modularity_matrix(exp_distance_sampling(SemiMetric(d), theta=-1e-6)).q
    off = ~np.eye(12, dtype=bool)
    mask = off & (np.abs(gamma) > 1e-6)
    ratios = (q[mask] / -1e-6) / gamma[mask]
    spread = (ratios.max() - ratios.min()) / abs(np.median(ratios))
    assert spread <= 1e-3


def test_load_points_formats(tmp_path):
    tsv = tmp_path / "points.tsv"
    tsv.write_text("# comment\n1.0 2.0\n3.0 4.0\n")
    data, names = load_points(tsv)
    np.testing.assert_array_equal(data.x, [[1.0, 2.0], [3.0, 4.0]])
    assert names == ["0", "1"]

    csv = tmp_path / "points.csv"
    csv.write_text("a,1.0,2.0\nb,3.0,4.0\n")
    data, names = load_points(csv, id_column=True)
    np.testing.assert_array_equal(data.x, [[1.0, 2.0], [3.0, 4.0]])
    assert names == ["a", "b"]


def test_load_points_errors(tmp_path):
    ragged = tmp_path / "ragged.tsv"
    ragged.write_text("1.0 2.0\n3.0\n")
    with pytest.raises(FormatError, match="line 2"):
        load_points(ragged)
    empty = tmp_path / "empty.tsv"
    empty.write_text("# nothing\n")
    with pytest.raises(FormatError):
        load_points(empty)
    bad = tmp_path / "bad.tsv"
    bad.write_text("1.0 fish\n")
    with pytest.raises(FormatError):
        load_points(bad)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize(
    "build",
    [
        lambda a: SampledGraph(a),
        ModularityMatrix,
        SemiMetric,
        CohesionMatrix,
        DataMatrix,
        Embedding,
        lambda a: StochasticEmbedding(a, 1.0, 0, [], False),
        lambda a: EigenPairs(a[0], np.eye(3)),
        lambda a: top_k_eigen(a, 1),
        lambda a: select_dimension(a[0], 3),
    ],
    ids=["SampledGraph", "ModularityMatrix", "SemiMetric", "CohesionMatrix", "DataMatrix",
         "Embedding", "StochasticEmbedding", "EigenPairs", "top_k_eigen", "select_dimension"],
)
def test_constructors_reject_non_finite(build, value):
    with pytest.raises(ValueError):
        build(np.full((3, 3), value))


_SEMI = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
# Each caller of spectral._check_symmetric, with a clean input it accepts.
_GATED = {
    "ModularityMatrix": (ModularityMatrix, lambda: modularity_matrix(edge_sampling(path3())).q),
    "SampledGraph": (SampledGraph, lambda: edge_sampling(path3()).p),
    "SemiMetric": (SemiMetric, lambda: _SEMI),
    "CohesionMatrix": (CohesionMatrix, lambda: induce_cohesion(_SEMI).gamma),
    "top_k_eigen": (lambda m: top_k_eigen(m, 1), lambda: _SEMI),
    "eigenvalues": (eigenvalues, lambda: _SEMI),
    "softmax_cluster": (lambda m: softmax_cluster(m, 2, max_sweeps=3), lambda: _SEMI),
}


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("defect", ["nan", "non-square", "asymmetric"])
@pytest.mark.parametrize("caller", sorted(_GATED))
def test_one_gate_rejects_what_is_not_a_symmetric_matrix(caller, defect):
    """Every consumer of a raw matrix checks it with the same gate: a NaN
    pair, a dropped column and an asymmetry of 1e-11, above every
    caller's tolerance, each raise the gate's own message."""
    build, clean = _GATED[caller]
    build(clean())
    m = np.array(clean())
    if defect == "nan":
        m[0, 1] = m[1, 0] = np.nan
    elif defect == "non-square":
        m = m[:, :-1]
    else:
        m[0, 1] += 1e-11
    message = "must be square" if defect == "non-square" else "must be finite and symmetric"
    with pytest.raises(ValueError, match=message):
        build(m)


def test_each_type_keeps_its_symmetry_tolerance():
    """An asymmetry of 5e-13 is within a semi-metric's 1e-12 and beyond Q's 1e-14."""
    d = _SEMI.copy()
    d[0, 1] += 5e-13
    SemiMetric(d)
    q = modularity_matrix(edge_sampling(path3())).q.copy()
    q[0, 1] += 5e-13
    with pytest.raises(ValueError, match="q must be finite and symmetric"):
        ModularityMatrix(q)
