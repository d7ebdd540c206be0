"""Graph construction, edge-list parsing, Laplacian, connectivity."""

import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from modembed import (
    FormatError,
    Graph,
    is_connected,
    laplacian,
    load_edge_list,
)

from helpers import path3, random_connected_graph, triangle


def _triples(g):
    return tuple(zip(*g.edges.T.tolist(), g.weights.tolist()))


def test_parse_two_edges():
    g = load_edge_list("a b\nb c")
    assert g.n == 3
    assert _triples(g) == ((0, 1, 1.0), (1, 2, 1.0))
    assert g.ids == ("a", "b", "c")


def test_parse_merges_duplicate_edges():
    g = load_edge_list("a b 2\na b 3")
    assert _triples(g) == ((0, 1, 5.0),)


def test_parse_rejects_self_loop():
    with pytest.raises(FormatError):
        load_edge_list("a a")


@pytest.mark.parametrize("text", ["a", "a b c d", "a b x", "a b 0", "a b -1"])
def test_parse_rejects_malformed_lines(text):
    with pytest.raises(FormatError):
        load_edge_list(text)


def test_parse_reports_line_number():
    with pytest.raises(FormatError, match="line 3"):
        load_edge_list("# comment\na b\nc c")


@pytest.mark.parametrize("text", ["a b\nc\n", "a b\nc d e f\n", "a b\r\nc\r\n"])
def test_parse_error_quotes_a_file_line_as_the_string_line(tmp_path, text):
    """A line read from a file is quoted without its line break, as the
    same text passed as a string is."""
    path = tmp_path / "bad.txt"
    path.write_bytes(text.encode())
    with pytest.raises(FormatError) as info:
        load_edge_list(text)
    expected = str(info.value)
    assert "\\n" not in expected and "\\r" not in expected
    for newline in (None, ""):  # universal newlines, and line breaks kept as written
        with open(path, newline=newline) as fh, pytest.raises(FormatError) as info:
            load_edge_list(fh)
        assert str(info.value) == expected


def test_comments_and_blank_lines_ignored():
    g = load_edge_list("# header\n\na b 1.5\nb c\n")
    assert _triples(g) == ((0, 1, 1.5), (1, 2, 1.0))


def test_ids_interned_in_first_appearance_order():
    g = load_edge_list("z y\ny x")
    assert g.ids == ("z", "y", "x")
    assert g.index_of("x") == 2
    with pytest.raises(KeyError):
        g.index_of("w")


def test_from_edges_canonical_order():
    g = Graph.from_edges([(2, 1, 1.0), (1, 0, 2.0)])
    assert _triples(g) == ((0, 1, 2.0), (1, 2, 1.0))


def test_from_edges_merges_reversed_duplicates():
    g = Graph.from_edges([(0, 1, 1.5), (1, 0, 2.5)])
    assert _triples(g) == ((0, 1, 4.0),)


def test_duplicate_edge_raises_before_default_ids_are_built():
    """The ten million default id strings would take hundreds of MB; a
    duplicate edge is reported without building them."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape("duplicate edge (0, 5)")):
            Graph(10**7, [[0, 5], [1, 2], [0, 5]], [1.0] * 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_default_ids_are_the_indices():
    assert Graph(3, [[0, 1], [1, 2]], [1.0, 1.0]).ids == ("0", "1", "2")
    with pytest.raises(ValueError, match="one entry per node"):
        Graph(3, [[0, 1], [1, 2]], [1.0, 1.0], ids=("a", "b"))


def test_isolated_node_rejected():
    with pytest.raises(ValueError):
        Graph.from_edges([(0, 1, 1.0)], n=3)


def test_single_node_graph_allowed():
    g = Graph.from_edges([], n=1)
    assert g.n == 1
    assert _triples(g) == ()


def test_adjacency_and_degrees():
    g = triangle()
    a = g.adjacency
    assert np.array_equal(a, a.T)
    np.testing.assert_array_equal(g.degrees, [2.0, 2.0, 2.0])
    assert g.edge_count == 3
    assert g.total_weight == 6.0  # total degree, twice the edge-weight sum


def test_adjacency_is_read_only():
    with pytest.raises(ValueError):
        triangle().adjacency[0, 1] = 9.0


def test_laplacian_single_edge():
    g = Graph.from_edges([(0, 1, 1.0)])
    np.testing.assert_array_equal(laplacian(g), [[1.0, -1.0], [-1.0, 1.0]])


def test_laplacian_path():
    expected = [[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]]
    np.testing.assert_array_equal(laplacian(path3()), expected)


def test_laplacian_triangle():
    lap = laplacian(triangle())
    np.testing.assert_array_equal(np.diag(lap), [2.0, 2.0, 2.0])
    assert lap[0, 1] == -1.0


def test_laplacian_is_bitwise_degree_minus_adjacency():
    """Built from the edge arrays, L has the bits of diag(A 1) - A and
    leaves no dense adjacency cached on the graph."""
    karate = load_edge_list((Path(__file__).parent / "data" / "karate.txt").read_text())
    weighted = random_connected_graph(np.random.default_rng(3), 50, weighted=True)
    for g in (path3(), triangle(), karate, weighted):
        lap = laplacian(g)
        assert "adjacency" not in g.__dict__
        a = g.adjacency
        assert lap.tobytes() == (np.diag(a.sum(axis=1)) - a).tobytes()


def test_laplacian_rows_sum_to_zero():
    rng = np.random.default_rng(7)
    for _ in range(5):
        g = random_connected_graph(rng, int(rng.integers(2, 40)), weighted=True)
        assert np.abs(laplacian(g).sum(axis=1)).max() <= 1e-12


def test_connectivity():
    assert is_connected(path3())
    assert not is_connected(Graph.from_edges([(0, 1, 1.0), (2, 3, 1.0)]))
    assert is_connected(Graph.from_edges([], n=1))


def _bfs_connected(a):
    seen, stack = {0}, [0]
    while stack:
        for w in np.flatnonzero(a[stack.pop()]):
            if int(w) not in seen:
                seen.add(int(w))
                stack.append(int(w))
    return len(seen) == a.shape[0]


def test_is_connected_matches_bfs_reference():
    rng = np.random.default_rng(23)
    for _ in range(60):
        sizes = rng.integers(2, 9, size=rng.integers(1, 6))
        n = int(sizes.sum())
        perm = rng.permutation(n)
        edges, start = [], 0
        for size in sizes:
            part = random_connected_graph(rng, int(size))
            for u, w in np.argwhere(np.triu(part.adjacency)):
                edges.append((perm[start + u], perm[start + w], 1.0))
            start += size
        for _ in range(int(rng.integers(0, sizes.size))):
            u, w = rng.choice(n, size=2, replace=False)
            edges.append((u, w, 1.0))
        g = Graph.from_edges(edges, n=n)
        assert is_connected(g) == _bfs_connected(g.adjacency)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Graph.from_edges([(0, 1.7, 1.0), (1, 2, 1.0)]),
        lambda: Graph.from_edges([(0, 1, 1.0), (np.nan, 2, 1.0)]),
        lambda: Graph(2, [[0, 1.5]], [1.0]),
        lambda: Graph(3, np.array([[0.0, 1.0], [1.0, np.inf]]), [1.0, 1.0]),
    ],
    ids=["from_edges", "from_edges-nan", "init", "init-inf"],
)
def test_non_integer_endpoints_rejected(build):
    with pytest.raises(ValueError, match="non-integer endpoint"):
        build()


@pytest.mark.parametrize("far", [1e20, -1e20, 2.0**63])
def test_float_endpoints_beyond_int64_rejected(far):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"({far:g}, 0) has an out-of-range endpoint")):
            Graph.from_edges([(far, 0, 1.0)])


_PATH10 = [(i, i + 1, 1.0) for i in range(9)]


@pytest.mark.parametrize(
    "edges, n, first",
    [
        ([(5, 0, 1.0), (-1, 0, 1.0), (-3, 2, 1.0)], 6, (-3, 2)),
        ([(-1, -2, 1.0), (-5, 0, 1.0)], None, (-5, 0)),
        ([(0, 1, 1.0), (7, 2, 1.0), (9, 1, 1.0)], 5, (1, 9)),
        # Past the pair key's range: 5·(2⁶² + 1) + 2⁶² wraps onto the key of (2, 3).
        (_PATH10 + [(5, 2**62, 1.0)], 10, (5, 2**62)),
        ([(0, 1, 1.0), (1, 2, 1.0), (5, 2**40, 1.0)], 3, (5, 2**40)),
    ],
    ids=["negative", "negative-no-n", "above-n", "key-would-wrap", "far-above-n"],
)
def test_out_of_range_endpoints_name_the_first_pair(edges, n, first):
    with pytest.raises(ValueError, match=re.escape(f"edge {first} has an out-of-range endpoint")):
        Graph.from_edges(edges, n=n)


def test_whole_float_endpoints_accepted():
    g = Graph(3, np.array([[0.0, 1.0], [1.0, 2.0]]), [1.0, 2.0])
    assert g.edges.dtype == np.int64
    assert _triples(g) == ((0, 1, 1.0), (1, 2, 2.0))


@pytest.mark.parametrize(
    "build",
    [
        lambda: Graph.from_edges([(0, 1, np.inf), (1, 2, 1.0)]),
        lambda: Graph(3, [[0, 1], [1, 2]], [1.0, np.inf]),
        lambda: Graph.from_edges([(0, 1, 1e308), (1, 0, 1e308)]),
        lambda: load_edge_list("a b 1e308\nb a 1e308\nb c 1\n"),
    ],
    ids=["from_edges", "init", "merged-overflow", "load_edge_list-merged-overflow"],
)
def test_infinite_weight_rejected(build):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite or non-positive weight"):
            build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: Graph.from_edges([(0, 1, 1e308), (1, 2, 1e308)]),
        lambda: Graph(3, [[0, 1], [1, 2]], [1e308, 1e308]),
        lambda: load_edge_list("a b 1e308\nb c 1e308\n"),
        # Every degree is finite here; only their sum overflows.
        lambda: load_edge_list("a b 1e308\nc d 1e308\nb c 1\n"),
    ],
    ids=["from_edges", "init", "load_edge_list", "load_edge_list-finite-degrees"],
)
def test_overflowing_total_weight_rejected_without_a_warning(build):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="total weight overflows"):
            build()


def test_large_finite_total_weight_accepted():
    g = load_edge_list("a b 4e307\nb c 4e307\n")
    assert g.total_weight == 1.6e308


def test_davis_fixture_loads_in_first_appearance_order():
    text = (Path(__file__).parent / "data" / "davis.txt").read_text()
    g = load_edge_list(text)
    tokens = [t for line in text.splitlines() if not line.startswith("#") for t in line.split()]
    assert (g.n, g.edge_count) == (32, 89)
    assert g.ids == tuple(dict.fromkeys(tokens))
    event = np.array([re.fullmatch(r"E\d+", name) is not None for name in g.ids])
    assert event.sum() == 14
    assert (event[g.edges[:, 0]] != event[g.edges[:, 1]]).all()
    assert (g.weights == 1.0).all()
