"""Modularity matrices, set covariance, partition and normalized scores."""

import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from modembed import (
    CovarianceOperator,
    Graph,
    ModularityMatrix,
    Partition,
    edge_sampling,
    is_community,
    load_edge_list,
    modularity_matrix,
    normalized_modularity,
    partition_modularity,
    planted_partition,
    random_walk_sampling,
    set_covariance,
    spectral,
    top_k_eigen,
)
from modembed.graph import CSR, csr_adjacency
from modembed.modularity import _HEAD, _SparseProduct, _scipy_csr

from helpers import (
    barbell,
    path3,
    random_connected_graph,
    set_partitions,
    triangle,
)

PATH3_Q = np.array(
    [
        [-1 / 16, 1 / 8, -1 / 16],
        [1 / 8, -1 / 4, 1 / 8],
        [-1 / 16, 1 / 8, -1 / 16],
    ]
)


def test_triangle_entries():
    q = modularity_matrix(edge_sampling(triangle())).q
    np.testing.assert_allclose(np.diag(q), [-1 / 9] * 3, rtol=0, atol=1e-16)
    assert q[0, 1] == pytest.approx(1 / 18, abs=1e-16)


def test_path_matrix_golden():
    q = modularity_matrix(edge_sampling(path3())).q
    np.testing.assert_allclose(q, PATH3_Q, rtol=0, atol=1e-16)


def test_walk_two_on_path_is_zero_matrix():
    q = modularity_matrix(random_walk_sampling(path3(), 2)).q
    assert np.abs(q).max() <= 1e-15


def test_newman_formula_equivalence():
    rng = np.random.default_rng(11)
    for _ in range(5):
        g = random_connected_graph(rng, int(rng.integers(2, 80)), weighted=True)
        q = modularity_matrix(edge_sampling(g)).q
        two_m = g.total_weight
        newman = g.adjacency / two_m - np.outer(g.degrees, g.degrees) / two_m**2
        np.testing.assert_allclose(q, newman, rtol=0, atol=1e-12)


def test_zero_row_sums_and_symmetry():
    g = random_connected_graph(np.random.default_rng(4), 50)
    q = modularity_matrix(edge_sampling(g)).q
    assert np.abs(q.sum(axis=1)).max() <= 1e-12
    assert np.abs(q.sum(axis=0)).max() <= 1e-12
    assert np.abs(q - q.T).max() <= 1e-14


def test_set_covariance_goldens():
    q3 = modularity_matrix(edge_sampling(path3()))
    assert set_covariance(q3, range(3), range(3)) == pytest.approx(0.0, abs=1e-12)
    assert set_covariance(q3, [0, 1], [0, 1]) == pytest.approx(-1 / 16, abs=1e-15)
    qk = modularity_matrix(edge_sampling(triangle()))
    assert set_covariance(qk, [0, 1], [0, 1]) == pytest.approx(-1 / 9, abs=1e-15)


def test_set_covariance_validates_indices():
    q = modularity_matrix(edge_sampling(path3()))
    with pytest.raises(ValueError):
        set_covariance(q, [0, 3], [1])
    with pytest.raises(ValueError):
        set_covariance(q, [0, 0], [1])


def test_is_community():
    q = modularity_matrix(edge_sampling(barbell()))
    assert is_community(q, [0, 1, 2])
    assert not is_community(q, [0, 5])


def test_partition_modularity_goldens():
    q = modularity_matrix(edge_sampling(path3()))
    assert partition_modularity(q, Partition([0, 0, 0])) == pytest.approx(0.0, abs=1e-12)
    assert partition_modularity(q, Partition([0, 0, 1])) == pytest.approx(-1 / 8, abs=1e-15)
    assert partition_modularity(q, Partition([0, 1, 2])) == pytest.approx(-3 / 8, abs=1e-15)


def test_partition_modularity_matches_indicator_trace():
    rng = np.random.default_rng(8)
    g = random_connected_graph(rng, 25)
    q = modularity_matrix(edge_sampling(g))
    labels = rng.integers(0, 4, size=25)
    labels[:4] = np.arange(4)
    h = np.zeros((25, 4))
    h[np.arange(25), labels] = 1.0
    expected = float(np.trace(h.T @ q.q @ h))
    assert partition_modularity(q, Partition(labels)) == pytest.approx(expected, abs=1e-14)


def test_normalized_modularity_golden():
    q = modularity_matrix(edge_sampling(path3()))
    assert normalized_modularity(q, Partition([0, 0, 1])) == pytest.approx(
        -3 / 32, abs=1e-15
    )


def test_normalized_modularity_rejects_empty_cluster():
    q = modularity_matrix(edge_sampling(path3()))
    with pytest.raises(ValueError):
        normalized_modularity(q, Partition([0, 0, 2], k=3))


def test_rayleigh_ritz_bound_exhaustive():
    """Normalized modularity of every partition stays below the sum of the
    top-K eigenvalues, K being the number of clusters used."""
    g = random_connected_graph(np.random.default_rng(21), 6, extra=0.4)
    q = modularity_matrix(edge_sampling(g))
    values = top_k_eigen(q.q, 6).values
    prefix = np.cumsum(values)
    for labels in set_partitions(6):
        k = max(labels) + 1
        score = normalized_modularity(q, Partition(labels))
        assert score <= prefix[k - 1] + 1e-10


def test_partition_validation():
    p = Partition([1, 0, 1])
    assert p.k == 2
    assert [list(m) for m in p.members] == [[1], [0, 2]]
    with pytest.raises(ValueError):
        Partition([0, 2], k=2)
    with pytest.raises(ValueError):
        Partition([-1, 0])


def test_modularity_matrix_validation():
    with pytest.raises(ValueError):
        ModularityMatrix(np.array([[0.1, 0.0], [0.0, -0.1]]))
    with pytest.raises(ValueError):
        ModularityMatrix(np.array([[0.0, 0.1], [-0.1, 0.0]]))


_FIXTURES = {
    "karate": lambda: load_edge_list((Path(__file__).parent / "data" / "karate.txt").read_text()),
    "barbell": barbell,
    "planted": lambda: planted_partition(3, 15, 0.6, 0.05, seed=2, ensure_connected=True)[0],
    "weighted": lambda: random_connected_graph(np.random.default_rng(5), 40, weighted=True),
}
_SAMPLERS = {
    "edge": (edge_sampling, CovarianceOperator),
    **{
        f"walk:{length}{'-exact' if exact else ''}": (
            lambda g, length=length, exact=exact: random_walk_sampling(g, length, exact),
            lambda g, length=length, exact=exact: CovarianceOperator(g, length, exact),
        )
        for length in (1, 3, 16)
        for exact in (False, True)
    },
}


@pytest.mark.parametrize("sampler", sorted(_SAMPLERS))
@pytest.mark.parametrize("fixture", sorted(_FIXTURES))
def test_operator_matches_dense_product(fixture, sampler):
    """The matrix-free Q agrees with the dense one on blocks and vectors.

    The error is measured against the scale of the product,
    norm_bound * max|X| >= |QX|, rather than against |QX| itself: for
    long exact-length walks Q nearly cancels to zero, and the roundoff
    left by cancelling terms of size p_u is then large relative to QX.
    """
    g = _FIXTURES[fixture]()
    sample, operator = _SAMPLERS[sampler]
    q, op = modularity_matrix(sample(g)), operator(g)
    x = np.random.default_rng(11).standard_normal((g.n, 6))
    scale = op.norm_bound * np.abs(x).max()
    assert np.abs(op @ x - q.q @ x).max() <= 1e-12 * scale
    assert (op @ x[:, 0]).shape == (g.n,)
    np.testing.assert_array_equal(op @ x[:, 0], (op @ x[:, :1])[:, 0])
    assert q.norm_bound <= op.norm_bound <= 1.0
    assert op.n == q.n
    np.testing.assert_array_equal(op.q, op.q.T)
    assert np.abs(op.q - q.q).max() <= 1e-12 * op.norm_bound
    if op.length == 1:  # q read off A has the bits of the product with the identity
        np.testing.assert_array_equal(op.q, op @ np.eye(g.n))


def test_operator_eigenpairs_match_dense(monkeypatch):
    """The Krylov route on the operator (made to pay here) finds the
    dense top pairs and builds no dense adjacency, nor a dense Q."""
    g, _ = planted_partition(4, 30, 0.3, 0.01, seed=1, ensure_connected=True)
    twin = Graph(g.n, g.edges, g.weights)
    dense = top_k_eigen(modularity_matrix(edge_sampling(twin)), 3)
    monkeypatch.setattr(spectral, "krylov_pays", lambda k, n: True)
    op = CovarianceOperator(g)
    pairs = top_k_eigen(op, 3)
    assert "q" not in vars(op)
    np.testing.assert_allclose(pairs.values, dense.values, rtol=0, atol=1e-12)
    assert np.abs(np.abs(pairs.vectors.T @ dense.vectors) - np.eye(3)).max() <= 1e-6
    assert "adjacency" not in g.__dict__


def test_numpy_product_is_scipys_on_a_row_without_entries():
    """A row with no entries comes out as zeros, and the rest of the
    product keeps scipy's bits: the karate club's CSR with one node
    appended that has no edges."""
    a = csr_adjacency(load_edge_list((Path(__file__).parent / "data" / "karate.txt").read_text()))
    n = a.indptr.size
    padded = CSR(np.append(a.indptr, a.indptr[-1]), a.indices, a.data)
    x = np.random.default_rng(4).standard_normal((n, 3))
    want = csr_matrix((a.data, a.indices, padded.indptr), shape=(n, n)) @ x
    got = _SparseProduct(padded)(x)
    assert got.tobytes() == want.tobytes() and not got[-1].any()


def test_numpy_product_is_scipys_past_the_head():
    """Rows longer than the summed head positions finish through np.add.at
    with scipy's bits, for one vector and for three columns: a hub joined
    to 300 nodes and a second one to 100 of them, over a ring with random
    weights, so the tail is hundreds of positions deep and two rows deep
    at its start."""
    rnd = random.Random(7)
    edges = {(0, v): rnd.uniform(0.1, 10) for v in range(1, 301)}
    edges |= {(1, v): rnd.uniform(0.1, 10) for v in range(101, 201)}
    edges |= {(v, v % 300 + 1): rnd.uniform(0.1, 10) for v in range(1, 301)}
    g = Graph.from_edges([(u, w, x) for (u, w), x in edges.items()])
    product = _SparseProduct(csr_adjacency(g))
    assert len(product.head) == _HEAD and 0 < product.cut < product.gather.size - 200
    x = np.random.default_rng(6).standard_normal((g.n, 3))
    a = _scipy_csr(csr_adjacency(g))
    assert product(x).tobytes() == (a @ x).tobytes()
    assert product(x[:, :1])[:, 0].tobytes() == (a @ x[:, 0]).tobytes()


def test_numpy_product_memory_grows_with_the_entries():
    """Building the product's layout and running one product on a star of
    20 000 nodes stays within a few arrays of n + nnz entries, where a
    (max degree x n) temporary would hold 4e8; and one product on a
    3200-node planted graph allocates about one float per stored entry
    beyond its output."""
    n = 20_000
    star = csr_adjacency(Graph(n, np.array([(0, v) for v in range(1, n)]), np.ones(n - 1)))
    x = np.ones((n, 1))
    tracemalloc.start()
    try:
        _SparseProduct(star)(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * (n + star.data.size) * 8
    g, _ = planted_partition(16, 200, 0.1, 0.002, seed=0)
    product, x = _SparseProduct(csr_adjacency(g)), np.ones((g.n, 1))
    tracemalloc.start()
    try:
        out = product(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * product.gather.size * 8 + out.nbytes


def test_unit_weights_are_not_stored_and_later_products_allocate_o_n():
    """On the 3200-node planted graph, whose weights are all 1.0, the
    product stores no weights, and with one weight set to 2.0 it stores
    them all; both keep scipy's bytes for one column and for four. Once a
    product has run, the next allocates its output and under two
    n-vectors: the gather scratch is the CSR's own data buffer."""
    g, _ = planted_partition(16, 200, 0.1, 0.002, seed=0)
    heavy = g.weights.copy()
    heavy[0] = 2.0
    for graph, unit in ((g, True), (Graph(g.n, g.edges, heavy), False)):
        product, a = _SparseProduct(csr_adjacency(graph)), _scipy_csr(csr_adjacency(graph))
        assert (product.data is None) == unit
        for k in (1, 4):
            x = np.random.default_rng(k).standard_normal((g.n, k))
            assert product(x).tobytes() == (a @ x).tobytes()
        tracemalloc.start()
        try:
            out = product(x[:, :1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 2 * g.n * 8


def test_edge_operator_holds_its_product_layout_alone():
    """After a first product, a fresh edge operator on a 3200-node planted
    graph holds its product's layout, 16 bytes per stored entry, plus
    O(n): no CSR of the adjacency is kept beside it, on the operator or
    on the graph."""
    g, _ = planted_partition(16, 200, 0.1, 0.002, seed=0)
    x = np.ones((g.n, 1))
    tracemalloc.start()
    try:
        op = CovarianceOperator(g)
        out = op @ x
        held = tracemalloc.get_traced_memory()[0] - out.nbytes
    finally:
        tracemalloc.stop()
    assert op._adjacency.gather.size == 2 * g.edge_count
    assert held <= 20 * op._adjacency.gather.size + 8 * g.n * 8


def test_walk_operator_products_are_scipys():
    """Every walk step of the walk:3 operator's product has scipy's bits:
    the same recurrence run through scipy's products gives the same bytes,
    for one vector and for several."""
    g, _ = planted_partition(4, 60, 0.2, 0.01, seed=3, ensure_connected=True)
    op, c = CovarianceOperator(g, 3), csr_adjacency(g)
    a = csr_matrix((c.data, c.indices, c.indptr), shape=(g.n, g.n))
    x = np.random.default_rng(5).standard_normal((g.n, 4))
    for block in (x, x[:, :1]):
        want = op._apply(a @ block, op.p_u @ block, lambda y: a @ y)
        assert (op @ block).tobytes() == want.tobytes()
    assert (op @ x[:, 0]).tobytes() == (op @ x[:, :1])[:, 0].tobytes()


def test_operator_q_holds_one_dense_array_at_its_peak():
    """Forming the edge operator's dense q subtracts p_u p_u^T in row
    blocks, in place: the peak stays within a quarter of one n x n array
    above q itself."""
    g, _ = planted_partition(5, 100, 0.1, 0.01, seed=0)
    op = CovarianceOperator(g)
    op.p_u  # the cached input q reads besides the edge arrays, outside the measurement
    tracemalloc.start()
    try:
        op.q
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * g.n**2 * 8


def test_operator_validation():
    """The operators reject what their samplers reject, and no more."""
    two_parts = Graph.from_edges([(0, 1, 1.0), (2, 3, 1.0)])
    assert np.abs(CovarianceOperator(two_parts) @ np.ones(4)).max() <= 1e-12
    with pytest.raises(ValueError, match="connected"):
        CovarianceOperator(two_parts, 2)
    with pytest.raises(ValueError, match="walk length"):
        CovarianceOperator(triangle(), 17)
    lone = Graph(n=1, edges=np.zeros((0, 2), dtype=int), weights=np.zeros(0))
    with pytest.raises(ValueError, match="at least one edge"):
        CovarianceOperator(lone)
    g = barbell()
    dense = top_k_eigen(modularity_matrix(edge_sampling(g)), 3)
    on_operator = top_k_eigen(CovarianceOperator(g), 3)
    np.testing.assert_allclose(on_operator.values, dense.values, rtol=0, atol=1e-12)
