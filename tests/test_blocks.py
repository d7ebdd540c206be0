"""Row-blocked kernels on matrices of more than one block.

A block holds about 128 kB of rows (``spectral._row_blocks``), so
karate (34 nodes) is a single block. The symmetrize property draws n
from 1..300; every other test uses n >= 240, several blocks with a
ragged last one.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from modembed import (
    CohesionMatrix,
    CovarianceOperator,
    Graph,
    ModularityMatrix,
    SampledGraph,
    SemiMetric,
    exp_distance_sampling,
    half_sq_euclidean,
    induce_cohesion,
    induce_metric,
    laplacian,
    laplacian_pinv,
    modularity_matrix,
    planted_partition,
    resistance_distance,
)
from modembed.semimetric import _inverse_cholesky
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


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize(
    "u, w, value",
    [
        (5, 200, 1e-11),  # above the diagonal in the off-diagonal tile (0, 3)
        (200, 5, 1e-11),  # its mirror, read through the transpose
        (127, 128, 1e-11),  # across the edge of the second and third tiles
        (290, 40, 1e-11),  # in the ragged last tile row
        (150, 150, np.nan),  # on the diagonal
        (10, 290, np.inf),  # set in both entries of the pair
    ],
)
def test_tiled_gate_sees_each_pair(u, w, value):
    """At n = 300 the tiles are four of 64 rows and a ragged one of 44; the
    gate reads every pair once, in a tile on or above the diagonal."""
    n = 300
    m = np.random.default_rng(n).standard_normal((n, n))
    m += m.T
    _check_symmetric(m)
    if np.isfinite(value):
        m[u, w] += value
    else:
        m[u, w] = m[w, u] = value
    with pytest.raises(ValueError, match="must be finite and symmetric"):
        _check_symmetric(m)


@pytest.mark.parametrize("u, w", [(5, 200), (200, 5), (127, 128), (20, 10), (290, 40)])
def test_gate_returns_an_exactly_symmetric_copy(u, w):
    """A pair off by less than the tolerance is averaged, with the bits of
    a whole-array symmetrizing pass, into a copy; the input keeps its bits,
    and an exactly symmetric input comes back as it is."""
    n = 300
    m = np.random.default_rng(n).standard_normal((n, n))
    m += m.T
    assert _check_symmetric(m) is m
    m[u, w] += 5e-13
    before = m.copy()
    out = _check_symmetric(m)
    assert out is not m and m.tobytes() == before.tobytes()
    assert out.tobytes() == _symmetrize(before).tobytes()


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
def test_tiled_gate_matches_the_whole_array_test(n, seed):
    """The gate passes exactly when max |m - m^T| <= tol, near the bound."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    m += m.T
    m[rng.integers(n), rng.integers(n)] += rng.choice([0.5e-12, 1e-12, 2e-12])
    try:
        _check_symmetric(m)
        passed = True
    except ValueError:
        passed = False
    assert passed == (np.max(np.abs(m - m.T)) <= 1e-12)


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
    """laplacian_pinv keeps L, overwritten by its inverse Cholesky factor,
    and the inverse, the later stages only their output; each adds at
    most a few 128 kB blocks (numpy's own ufunc buffers included). The
    LAPACK leaves' own buffers are not traced; the RSS test below sees them."""
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
    y = _inverse_cholesky(lap + s / g.n)
    x = y.T @ y
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


@pytest.mark.parametrize("build", [
    lambda: planted_partition(3, 100, 0.1, 0.01, seed=0, ensure_connected=True)[0],
    lambda: planted_partition(4, 300, 0.1, 0.002, seed=0, ensure_connected=True)[0],
], ids=["planted300", "planted1200"])
def test_inverse_cholesky_agrees_with_lapack_inv(build):
    """Y^T Y, with Y the in-place inverse Cholesky factor of the shifted
    Laplacian, is LAPACK's inverse to within 1e-13 of its largest entry."""
    g = build()
    lap = laplacian(g)
    lap += float(np.trace(lap)) / g.n / g.n
    x = np.linalg.inv(lap)
    y = _inverse_cholesky(lap)
    assert np.abs(y.T @ y - x).max() <= 1e-13 * np.abs(x).max()


@pytest.mark.parametrize("build", [
    lambda: Graph.from_edges([(i, i + 1, 1.0) for i in range(299)]),
    lambda: Graph.from_edges([(i, (i + 1) % 300, 1.0) for i in range(300)]),
    lambda: planted_partition(3, 100, 0.1, 0.01, seed=0, ensure_connected=True)[0],
], ids=["path300", "cycle300", "planted300"])
def test_pseudo_inverse_gram_product_is_exactly_symmetric(build):
    """numpy forms Y^T Y from one triangle and mirrors it, so L+ needs no
    symmetrizing pass, and its centering keeps it exactly symmetric. So
    does the arithmetic of each later stage of the distance chain, and
    the induced diagonal, 0.5 * (x + x) - x, is exactly +0.0."""
    g = build()
    lap = laplacian(g)
    lap += float(np.trace(lap)) / g.n / g.n
    y = _inverse_cholesky(lap)
    x = y.T @ y
    assert np.array_equal(x, x.T)
    gamma = laplacian_pinv(g)
    _assert_exactly_symmetric(gamma.gamma)
    d = induce_metric(gamma)
    assert np.diag(d.d).tobytes() == np.zeros(g.n).tobytes()
    for m in (d.d, exp_distance_sampling(d).p, induce_cohesion(d).gamma):
        _assert_exactly_symmetric(m)


def _assert_exactly_symmetric(m):
    """m is its own transpose, so a symmetrizing pass would keep its bits."""
    assert np.array_equal(m, m.T)
    assert m.tobytes() == _symmetrize(m.copy()).tobytes()


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_half_sq_euclidean_is_exactly_symmetric(layout):
    """numpy forms the Gram product from one triangle, for data in C or
    Fortran order and for a strided view, which is copied to C order."""
    x = np.random.default_rng(0).standard_normal((_N, 32))
    x = {"C": x, "F": np.asfortranarray(x), "strided": x[:, ::2]}[layout]
    _assert_exactly_symmetric(half_sq_euclidean(x).d)


def test_tree_edge_resistance_is_the_inverse_weight():
    """On a tree each edge is the only path between its ends, so its
    resistance is 1/w exactly, with weights over four decades."""
    g = _four_decade_tree()
    u, w = g.edges.T
    np.testing.assert_allclose(resistance_distance(g).d[u, w], 1.0 / g.weights, rtol=1e-9)


# VmHWM, not ru_maxrss: a spawned process's ru_maxrss starts at the
# resident size of the process that spawned it, here the test runner.
_RSS_CHILD = """
from modembed import laplacian_pinv, planted_partition
def peak_kb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
g, _ = planted_partition(8, 250, 0.05, 0.002, seed=0, ensure_connected=True)
before = peak_kb()
laplacian_pinv(g)
print((peak_kb() - before) * 1024 / (g.n * g.n * 8))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_laplacian_pinv_grows_peak_rss_by_at_most_two_and_a_half_arrays():
    """Peak RSS sees what tracemalloc does not, LAPACK's and BLAS's own
    buffers: on 2000 nodes, in a fresh process, laplacian_pinv adds at
    most 2.5 n x n arrays to it (L, then its inverse, and the quarter-size
    products of the factorization)."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", _RSS_CHILD], env=env, check=True,
                          capture_output=True, text=True, timeout=300)
    assert float(done.stdout) <= 2.5


def _reference_half_sq(pts):
    """half_sq_euclidean's whole-array formula, before it ran in row blocks."""
    sq = (pts * pts).sum(axis=1)
    d = 0.5 * (sq[:, None] + sq[None, :] - 2.0 * (pts @ pts.T))
    d = np.maximum(d, 0.0)
    np.fill_diagonal(d, 0.0)
    return 0.5 * (d + d.T)


@pytest.mark.parametrize("seed", range(3))
def test_half_sq_euclidean_is_bit_equal_and_holds_one_array(seed):
    """Written over the Gram matrix a row block at a time, the distances
    keep the whole-array formula's bits, at scales from 1e-5 to 1e5, and
    the peak is that one n x n array plus a few blocks."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((_N, 16)) * 10.0 ** rng.uniform(-5, 5, (_N, 1))
    assert half_sq_euclidean(pts).d.tobytes() == _reference_half_sq(pts).tobytes()
    assert _peak(half_sq_euclidean, pts) <= 1.1


@pytest.mark.parametrize("exact", [False, True], ids=["mixture", "exact"])
def test_walk_q_is_symmetrized_in_place_to_the_same_bits(exact):
    """The walk operator's dense q averages its walk products with their
    transpose block by block, with the bits of 0.5 * (q + q^T)."""
    g, _ = planted_partition(3, 100, 0.1, 0.01, seed=0, ensure_connected=True)
    op = CovarianceOperator(g, 3, exact_length=exact)
    a = np.zeros((g.n, g.n))
    u, w = g.edges.T
    a[u, w] = a[w, u] = g.weights
    walks = op._apply(a, op.p_u)
    assert np.abs(walks - walks.T).max() > 0  # there is roundoff to average away
    assert op.q.tobytes() == (0.5 * (walks + walks.T)).tobytes()


@pytest.mark.parametrize("exact", [False, True], ids=["mixture", "exact"])
def test_walk_q_holds_at_most_three_arrays(exact):
    """Each walk step of the dense q is scaled by the degrees and added
    into the sum in place: A, the step and its product are the most held
    at once, for the mixture and the exact form alike."""
    pytest.importorskip("scipy.sparse")  # imported by q, outside the measurement
    g, _ = planted_partition(4, 150, 0.1, 0.01, seed=0, ensure_connected=True)
    op = CovarianceOperator(g, 3, exact_length=exact)
    assert _peak(lambda: op.q) <= 3.2
