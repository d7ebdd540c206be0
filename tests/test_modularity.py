"""Modularity matrices, set covariance, partition and normalized scores."""

import numpy as np
import pytest

from modembed import (
    ModularityMatrix,
    Partition,
    edge_sampling,
    is_community,
    modularity_matrix,
    normalized_modularity,
    partition_modularity,
    random_walk_sampling,
    set_covariance,
    top_k_eigen,
)

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

