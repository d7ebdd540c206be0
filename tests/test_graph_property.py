"""Property tests: edge-list parsing, Graph's duplicate check and its CSR adjacency
against plain references."""

import re

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from modembed import CovarianceOperator, FormatError, Graph, load_edge_list
from modembed.graph import csr_adjacency
from modembed.modularity import _scipy_csr

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_EDGE = st.tuples(
    st.integers(0, 7),
    st.integers(0, 7),
    st.one_of(st.none(), st.floats(1e-3, 1e3)),
).filter(lambda e: e[0] != e[1])


def _reference(edges):
    """ids in first-appearance order, the dict-merged pairs in (u, w) order, their weights."""
    index: dict[str, int] = {}
    merged: dict[tuple[int, int], float] = {}
    for src, dst, weight in edges:
        for token in (src, dst):
            index.setdefault(token, len(index))
        key = tuple(sorted((index[src], index[dst])))
        merged[key] = merged.get(key, 0.0) + (1.0 if weight is None else weight)
    pairs = sorted(merged)
    return (
        tuple(index),
        np.array(pairs, dtype=np.int64).reshape(-1, 2),
        np.array([merged[key] for key in pairs], dtype=float),
    )


# One edge with the noise around it: whether its reversed repeat follows, whether it
# carries an inline comment, and a comment or blank line before it.
_NOISY_EDGE = st.tuples(
    _EDGE,
    st.booleans(),
    st.booleans(),
    st.sampled_from(["", "# a comment\n", "\n", "   \t\n", "  # indented comment\n"]),
)


@hypothesis.given(st.lists(_NOISY_EDGE, max_size=40))
def test_load_edge_list_matches_dict_merge(raw):
    edges, text = [], ""
    for (u, w, weight), repeat, inline, before in raw:
        rows = [(f"n{u}", f"n{w}", weight)] + ([(f"n{w}", f"n{u}", weight)] if repeat else [])
        for src, dst, x in rows:
            edges.append((src, dst, x))
            field = "" if x is None else f" {x!r}"
            text += f"{before}  {src}\t{dst}{field}{' # inline' if inline else ''}\n"
    g = load_edge_list(text)
    ids, pairs, weights = _reference(edges)
    a = np.zeros((len(ids), len(ids)))
    degrees = np.zeros(len(ids))
    for (u, w), weight in zip(pairs.tolist(), weights):
        a[u, w] = a[w, u] = weight
        degrees[u] += weight
        degrees[w] += weight
    assert g.ids == ids
    assert g.edges.tobytes() == pairs.tobytes()
    assert g.weights.tobytes() == weights.tobytes()
    assert g.adjacency.tobytes() == a.tobytes()
    assert g.degrees.tobytes() == degrees.tobytes()


def _first_duplicate(rows):
    """The reference: the smallest repeated (u, w) row, by a 2-D np.unique."""
    pairs, counts = np.unique(rows, axis=0, return_counts=True)
    return tuple(pairs[np.argmax(counts > 1)].tolist())


@hypothesis.given(
    st.sampled_from([12, 2**31 + 7, 3_000_000_000]),
    st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), min_size=1, max_size=30),
    st.integers(1, 4),
    st.randoms(use_true_random=False),
)
def test_duplicate_rows_report_the_smallest_repeated_pair(n, raw, repeats, rnd):
    # Endpoints sit at the top of the index range, where u·n + w is largest.
    pairs = sorted({(n - 12 + min(u, w), n - 12 + max(u, w)) for u, w in raw if u != w})
    hypothesis.assume(pairs)
    rows = pairs + [rnd.choice(pairs) for _ in range(repeats)]
    rnd.shuffle(rows)
    rows = np.array(rows, dtype=np.int64)
    # ids as a range: a tuple of 2³¹ names would not fit in memory.
    with pytest.raises(ValueError, match=re.escape(f"duplicate edge {_first_duplicate(rows)}")):
        Graph(n, rows, np.ones(len(rows)), ids=range(n))


_GOOD_LINES = ["a b", "b c 2.5", "# comment", "", "c a  # trailing"]
_BAD_LINES = ["a", "a b c d", "a b x", "a b 0", "a b -1", "a a", "b c nan"]


@hypothesis.given(
    st.lists(st.one_of(st.sampled_from(_GOOD_LINES), st.sampled_from(_BAD_LINES)), max_size=30)
)
def test_several_bad_lines_name_the_first(lines):
    first = next((i for i, line in enumerate(lines, start=1) if line in _BAD_LINES), None)
    hypothesis.assume(first is not None)
    with pytest.raises(FormatError, match=f"^line {first}: "):
        load_edge_list("\n".join(lines))


@hypothesis.given(
    st.integers(2, 12),
    st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11), st.floats(1e-3, 1e3))),
    st.randoms(use_true_random=False),
)
def test_csr_is_scipys_csr_of_the_symmetric_pairs(n, raw, rnd):
    """csr_adjacency(g) has the bits and dtypes of scipy's CSR built from
    both orientations of every edge, whatever order the edges come in, and
    the walk covariance's scipy wrapper shares its arrays."""
    merged = {(v - 1, v): 1.0 for v in range(1, n)}  # a path: no node is isolated
    for u, w, x in raw:
        if u != w and max(u, w) < n:
            merged[min(u, w), max(u, w)] = x
    pairs = list(merged.items())
    rnd.shuffle(pairs)
    edges = np.array([pair for pair, _ in pairs], dtype=np.int64)
    weights = np.array([x for _, x in pairs])
    g = Graph(n, edges, weights)
    u, w = edges.T
    want = csr_matrix(
        (np.concatenate([weights, weights]), (np.concatenate([u, w]), np.concatenate([w, u]))),
        shape=(n, n),
    )
    c = csr_adjacency(g)
    wrapped = _scipy_csr(c)
    for name in ("indptr", "indices", "data"):
        got, ref = getattr(c, name), getattr(want, name)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        assert np.shares_memory(getattr(wrapped, name), got)


@hypothesis.given(
    st.integers(2, 12),
    st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11), st.floats(1e-3, 1e3))),
    st.integers(1, 4),
    st.randoms(use_true_random=False),
)
def test_numpy_product_is_scipys_product(n, raw, k, rnd):
    """The operator's numpy product A x has the bits of scipy's, for a
    vector and for n x k columns."""
    merged = {(v - 1, v): 1.0 for v in range(1, n)}
    for u, w, x in raw:
        if u != w and max(u, w) < n:
            merged[min(u, w), max(u, w)] = x
    edges = np.array(list(merged), dtype=np.int64)
    g = Graph(n, edges, np.array(list(merged.values())))
    x = np.array([rnd.uniform(-1e3, 1e3) for _ in range(n * k)]).reshape(n, k)
    product = CovarianceOperator(g)._adjacency
    c = csr_adjacency(g)
    a = csr_matrix((c.data, c.indices, c.indptr), shape=(n, n))
    assert product(x).tobytes() == (a @ x).tobytes()
    assert product(x[:, :1])[:, 0].tobytes() == (a @ x[:, 0]).tobytes()
