"""Row-blocked kernels on matrices of more than one block.

A block holds about 128 kB of rows (``spectral._row_blocks``), so
karate (34 nodes) is a single block. The symmetrize property draws n
from 1..300; every other test uses n >= 240, several blocks with a
ragged last one.
"""

import tracemalloc

import numpy as np
import pytest

from modembed import (
    CohesionMatrix,
    Graph,
    ModularityMatrix,
    SampledGraph,
    SemiMetric,
    exp_distance_sampling,
    induce_metric,
    laplacian,
    laplacian_pinv,
    modularity_matrix,
    planted_partition,
    resistance_distance,
)
from modembed.spectral import _check_symmetric, _row_blocks, _symmetrize

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
def test_symmetrize_is_bit_equal_to_the_whole_array_formula(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-300, 300, (n, n))
    m[rng.random((n, n)) < 0.05] = -0.0
    assert _symmetrize(m.copy()).tobytes() == (0.5 * (m + m.T)).tobytes()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("defect", ["nan", "inf", "asymmetric"])
@pytest.mark.parametrize("where", ["first", "last"])
def test_gate_sees_a_defect_in_one_block_only(defect, where):
    """The pair (u, w) lies inside the first block or inside the ragged
    last one, so one block alone holds both of its entries."""
    n = 300
    blocks = _row_blocks(n, n)
    assert len(blocks) > 2 and n % (blocks[0].stop - blocks[0].start)
    u, w = (3, 7) if where == "first" else (n - 7, n - 3)
    m = np.random.default_rng(n).standard_normal((n, n))
    m += m.T
    _check_symmetric(m)
    if defect == "asymmetric":
        m[u, w] += 1e-11
    else:
        m[u, w] = m[w, u] = np.nan if defect == "nan" else np.inf
    with pytest.raises(ValueError, match="must be finite and symmetric"):
        _check_symmetric(m)


_N = 600  # 4 x 150 nodes: 22 full blocks of 27 rows and a ragged one of 6


def _peak(f, *args):
    """Peak traced memory of f(*args), in units of one n x n float array."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        f(*args)
        return (tracemalloc.get_traced_memory()[1] - base) / (_N * _N * 8)
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def chain():
    g, _ = planted_partition(4, 150, 0.1, 0.01, seed=0, ensure_connected=True)
    assert g.n == _N
    gamma = laplacian_pinv(g)
    r = resistance_distance(g)
    s = exp_distance_sampling(r)
    return g, gamma, r, s, modularity_matrix(s)


def test_expdist_stages_hold_at_most_two_arrays(chain):
    """laplacian_pinv keeps L and its inverse, the later stages only their
    output; each adds at most a few 128 kB blocks (numpy's own ufunc
    buffers included). np.linalg.inv's LAPACK buffers are not traced."""
    g, gamma, r, s, _ = chain
    assert _peak(laplacian_pinv, g) <= 2.1
    assert _peak(resistance_distance, g) <= 2.1
    assert _peak(induce_metric, gamma) <= 1.1
    assert _peak(exp_distance_sampling, r) <= 1.1
    assert _peak(modularity_matrix, s) <= 1.1


def test_validators_allocate_no_square_temporary(chain):
    _, gamma, r, s, q = chain
    for build, m in [(CohesionMatrix, gamma.gamma), (SemiMetric, r.d),
                     (SampledGraph, s.p), (ModularityMatrix, q.q)]:
        assert _peak(build, m) <= 0.1, build.__name__


def _reference_q(g):
    """The chain's out-of-place formulas, before it ran in place."""
    lap = laplacian(g)
    s = float(np.trace(lap)) / g.n or 1.0
    x = np.linalg.inv(lap + s / g.n)
    x = 0.5 * (x + x.T)
    r = x.mean(axis=1)
    x -= r[:, None] + r[None, :]
    x += r.mean()
    diag = np.diag(x)
    d = 0.5 * (diag[:, None] + diag[None, :]) - x
    d = np.maximum(d, 0.0)
    np.fill_diagonal(d, 0.0)
    d = 2.0 * (0.5 * (d + d.T))
    weights = np.exp(-1e-3 / float(d.max()) * d)
    p = weights / weights.sum()
    p = 0.5 * (p + p.T)
    p_u = p.sum(axis=1)
    return p - np.outer(p_u, p_u)


def _four_decade_tree(n=240):
    rng = np.random.default_rng(4)
    return Graph.from_edges([(int(rng.integers(0, v)), v, float(10.0 ** rng.uniform(-2, 2)))
                             for v in range(1, n)])


@pytest.mark.parametrize("build", [
    lambda: planted_partition(3, 100, 0.1, 0.01, seed=0, ensure_connected=True)[0],
    _four_decade_tree,
], ids=["planted300", "tree-four-decades"])
def test_in_place_chain_is_bit_equal_to_the_out_of_place_one(build):
    g = build()
    assert len(_row_blocks(g.n, g.n)) > 2
    q = modularity_matrix(exp_distance_sampling(resistance_distance(g))).q
    assert q.tobytes() == _reference_q(g).tobytes()
