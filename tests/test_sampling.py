"""Sampling distributions: edge, random walk mixture, exponential distance."""

import tracemalloc

import numpy as np
import pytest

from modembed import (
    Graph,
    NumericalError,
    SampledGraph,
    SemiMetric,
    edge_sampling,
    exp_distance_sampling,
    modularity_matrix,
    planted_partition,
    random_walk_sampling,
    resistance_distance,
)

from helpers import path3, random_connected_graph, random_semimetric, triangle


def test_edge_sampling_triangle():
    s = edge_sampling(triangle())
    expected = np.full((3, 3), 1.0 / 6.0)
    np.fill_diagonal(expected, 0.0)
    np.testing.assert_allclose(s.p, expected, rtol=0, atol=1e-16)
    np.testing.assert_allclose(s.p_u, [1 / 3] * 3, rtol=0, atol=1e-16)


def test_edge_sampling_path_marginals():
    s = edge_sampling(path3())
    np.testing.assert_allclose(s.p_u, [0.25, 0.5, 0.25], rtol=0, atol=0)
    assert s.p[0, 2] == 0.0
    assert s.p[0, 1] == 0.25


def test_edge_sampling_single_edge():
    s = edge_sampling(Graph.from_edges([(0, 1, 1.0)]))
    np.testing.assert_array_equal(s.p, [[0.0, 0.5], [0.5, 0.0]])


def test_edge_sampling_needs_an_edge():
    with pytest.raises(ValueError):
        edge_sampling(Graph.from_edges([], n=1))


@pytest.mark.parametrize(
    "sample", [edge_sampling, lambda g: random_walk_sampling(g, 3, exact_length=True)],
    ids=["edge", "walk"],
)
def test_samplers_cache_no_dense_adjacency(sample):
    """Each sampler scatters an adjacency of its own, which no graph keeps."""
    g = random_connected_graph(np.random.default_rng(5), 30, weighted=True)
    sample(g)
    assert "adjacency" not in g.__dict__


def test_walk_length_one_equals_edge_sampling():
    g = random_connected_graph(np.random.default_rng(0), 17, weighted=True)
    np.testing.assert_allclose(
        random_walk_sampling(g, 1).p, edge_sampling(g).p, rtol=0, atol=1e-15
    )


def test_walk_two_on_path_gives_outer_product():
    s = random_walk_sampling(path3(), 2)
    pi = np.array([0.25, 0.5, 0.25])
    np.testing.assert_allclose(s.p, np.outer(pi, pi), rtol=0, atol=1e-15)
    q = modularity_matrix(s)
    assert np.abs(q.q).max() <= 1e-15


def test_walk_marginals_are_stationary():
    rng = np.random.default_rng(3)
    g = random_connected_graph(rng, 23, weighted=True)
    d = g.degrees
    for length in (1, 2, 5, 16):
        s = random_walk_sampling(g, length)
        np.testing.assert_allclose(s.p_u, d / d.sum(), rtol=0, atol=1e-12)


def test_walk_mixture_is_symmetric_before_symmetrization():
    """diag(pi) P^t is symmetric on its own for undirected graphs, so the
    final symmetrization must be a numerical no-op."""
    rng = np.random.default_rng(9)
    g = random_connected_graph(rng, 19, weighted=True)
    d = g.degrees
    pi = d / d.sum()
    trans = g.adjacency / d[:, None]
    power = np.eye(g.n)
    mix = np.zeros((g.n, g.n))
    for _ in range(4):
        power = power @ trans
        mix += np.diag(pi) @ power
    mix /= 4.0
    assert np.abs(mix - mix.T).max() <= 1e-14
    np.testing.assert_allclose(random_walk_sampling(g, 4).p, mix, rtol=0, atol=1e-14)


def test_walk_rejects_bad_length_and_disconnected():
    g = path3()
    for bad in (0, -1, 17):
        with pytest.raises(ValueError):
            random_walk_sampling(g, bad)
    two = Graph.from_edges([(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(ValueError):
        random_walk_sampling(two, 2)


def test_one_step_walks_need_no_connected_graph():
    """One step from stationarity is an edge draw, on any graph with an edge."""
    two_triangles = Graph.from_edges(
        [(u, w, 1.0) for u, w in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]])
    p = random_walk_sampling(two_triangles, 1).p
    assert p.tobytes() == edge_sampling(two_triangles).p.tobytes()
    with pytest.raises(ValueError, match="connected"):
        random_walk_sampling(two_triangles, 2)


def test_exact_length_mode():
    g = random_connected_graph(np.random.default_rng(5), 12)
    np.testing.assert_array_equal(
        random_walk_sampling(g, 1, exact_length=True).p, random_walk_sampling(g, 1).p
    )
    mix = random_walk_sampling(g, 3).p
    exact = random_walk_sampling(g, 3, exact_length=True).p
    assert np.abs(mix - exact).max() > 1e-6
    assert abs(exact.sum() - 1.0) <= 1e-12


def test_walk_matches_monte_carlo_oracle():
    """One million simulated walks reproduce the mixture entrywise within
    three standard errors (start node drawn from the stationary law, walk
    length drawn uniformly from 1..L)."""
    g = Graph.from_edges(
        [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (0, 2, 1.0), (1, 4, 1.0)]
    )
    length = 3
    s = random_walk_sampling(g, length)
    deg = g.degrees
    pi = deg / deg.sum()
    cum = np.cumsum(g.adjacency / deg[:, None], axis=1)
    rng = np.random.default_rng(2024)
    n_walks = 1_000_000
    start = rng.choice(g.n, size=n_walks, p=pi)
    steps = rng.integers(1, length + 1, size=n_walks)
    current = start.copy()
    for t in range(1, length + 1):
        active = steps >= t
        r = rng.random(int(active.sum()))
        nxt = (r[:, None] > cum[current[active]]).sum(axis=1)
        current[active] = np.minimum(nxt, g.n - 1)
    counts = np.zeros((g.n, g.n))
    np.add.at(counts, (start, current), 1.0)
    emp = counts / n_walks
    se = np.sqrt(s.p * (1.0 - s.p) / n_walks)
    assert np.all(np.abs(emp - s.p) <= 3.0 * se + 1e-12)


def test_expdist_golden_two_points():
    d = SemiMetric(np.array([[0.0, 2.0], [2.0, 0.0]]))
    s = exp_distance_sampling(d, theta=-np.log(2.0))
    np.testing.assert_allclose(s.p, [[0.4, 0.1], [0.1, 0.4]], rtol=0, atol=1e-15)


def test_expdist_theta_zero_is_uniform():
    d = SemiMetric(random_semimetric(np.random.default_rng(1), 3))
    s = exp_distance_sampling(d, theta=0.0)
    np.testing.assert_allclose(s.p, np.full((3, 3), 1 / 9), rtol=0, atol=1e-15)
    assert np.abs(modularity_matrix(s).q).max() <= 1e-15


def test_expdist_default_theta_is_gentle():
    rng = np.random.default_rng(2)
    d = random_semimetric(rng, 6, scale=40.0)
    s = exp_distance_sampling(SemiMetric(d))
    assert abs(s.p.sum() - 1.0) <= 1e-12
    # default theta = -1e-3 / max d keeps the distribution near uniform
    assert np.abs(s.p - 1.0 / 36).max() <= 1e-4


def test_expdist_of_a_nearly_symmetric_semimetric_is_a_sampled_graph():
    """SemiMetric accepts d 5e-13 off symmetric and keeps it exactly
    symmetric, so p passes its own 1e-14 gate: with the default theta, p
    is near 0.25, and the input's gap scaled by p |theta| would be 1.25e-13."""
    d = np.array([[0.0, 1e-3], [1e-3 + 5e-13, 0.0]])
    p = exp_distance_sampling(SemiMetric(d)).p
    assert p[0, 1] == p[1, 0]
    np.testing.assert_allclose(p, [[0.250125, 0.249875], [0.249875, 0.250125]], rtol=1e-6)


def test_expdist_overflow_guard():
    d = SemiMetric(np.array([[0.0, 10.0], [10.0, 0.0]]))
    with pytest.raises(NumericalError):
        exp_distance_sampling(d, theta=-80.0)


@pytest.mark.filterwarnings("error")
def test_expdist_positive_theta_at_the_range_edge_keeps_its_mass():
    """On a 200-node star the leaves lie 2 apart, so theta = 349.9 puts
    the largest exponent at 699.8, inside the range; exp of it summed
    over the leaf pairs would overflow the normalizer, which is why the
    exponents are shifted down by theta * max d first."""
    d = resistance_distance(Graph.from_edges([(0, i, 1.0) for i in range(1, 200)]))
    s = exp_distance_sampling(d, theta=349.9)
    assert isinstance(s, SampledGraph)
    assert abs(s.p_u.sum() - 1.0) <= 1e-12
    # Nearly all of the mass is spread evenly over the ordered pairs of distinct leaves.
    np.testing.assert_allclose(s.p[1, 2], 1.0 / (199 * 198), rtol=1e-9)


def test_sampled_graph_rejects_bad_mass_or_sign():
    with pytest.raises(ValueError, match=r"^total mass 1\.2 is not 1$"):
        SampledGraph(np.full((2, 2), 0.3))
    with pytest.raises(ValueError, match="nonnegative"):
        SampledGraph(np.array([[0.7, -0.1], [-0.1, 0.5]]))


def test_edge_sampling_holds_one_dense_array_at_its_peak():
    """The dense scatter is divided in place and validated as it is, since
    it is exactly symmetric: at n = 600 the peak stays within a tenth of
    one n x n array above p itself."""
    g, _ = planted_partition(4, 150, 0.1, 0.01, seed=0)
    g.degrees  # cached on the graph, outside the measurement
    tracemalloc.start()
    try:
        s = edge_sampling(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.p.tobytes() == (g.adjacency / g.total_weight).tobytes()
    assert peak <= 1.1 * g.n**2 * 8


def test_marginal_is_derived_from_p():
    with pytest.raises(TypeError):
        SampledGraph(np.full((2, 2), 0.25), np.array([0.9, -3.0]))
    s = SampledGraph(np.array([[0.1, 0.2], [0.2, 0.5]]))
    assert np.array_equal(s.p_u, s.p.sum(axis=1))


@pytest.mark.parametrize("seed", range(5))
def test_sampler_invariants(seed):
    rng = np.random.default_rng(100 + seed)
    g = random_connected_graph(rng, int(rng.integers(3, 60)), weighted=bool(seed % 2))
    sampled = [edge_sampling(g), random_walk_sampling(g, 1 + seed % 16)]
    if seed % 2 == 0:
        sampled.append(exp_distance_sampling(resistance_distance(g)))
    for s in sampled:
        assert abs(s.p.sum() - 1.0) <= 1e-12
        assert np.abs(s.p - s.p.T).max() <= 1e-14
        np.testing.assert_allclose(s.p.sum(axis=1), s.p_u, rtol=0, atol=1e-12)
