"""Property test: sampler invariants on small random connected graphs."""

import numpy as np
import pytest

from modembed import (
    Graph,
    edge_sampling,
    exp_distance_sampling,
    modularity_matrix,
    random_walk_sampling,
    resistance_distance,
)
from modembed.sampling import MAX_WALK_LENGTH

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def _connected_graphs(draw):
    """A random spanning tree plus random chords, with random weights."""
    n = draw(st.integers(2, 10))
    pairs = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs |= set(draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                               .filter(lambda e: e[0] < e[1]), max_size=2 * n)))
    weights = draw(st.lists(st.floats(1e-2, 1e2), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges([(u, w, x) for (u, w), x in zip(sorted(pairs), weights)], n=n)


_SAMPLERS = {
    "edge": lambda g, length, exact: edge_sampling(g),
    "walk": lambda g, length, exact: random_walk_sampling(g, length, exact_length=exact),
    "expdist": lambda g, length, exact: exp_distance_sampling(resistance_distance(g)),
}


@pytest.mark.parametrize("sampler", sorted(_SAMPLERS))
@hypothesis.given(
    g=_connected_graphs(),
    length=st.integers(1, MAX_WALK_LENGTH),
    exact=st.booleans(),
)
def test_sampler_mass_symmetry_and_zero_row_sums(sampler, g, length, exact):
    s = _SAMPLERS[sampler](g, length, exact)
    assert abs(s.p.sum() - 1.0) <= 1e-12
    assert s.p.tobytes() == s.p.T.tobytes()
    assert np.abs(modularity_matrix(s).q.sum(axis=1)).max() <= 1e-12
