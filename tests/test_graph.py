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
    planted_partition,
)
from modembed.graph import csr_adjacency

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


def _graph_or_error(source):
    try:
        g = load_edge_list(source)
    except FormatError as exc:
        return str(exc)
    return g.edges.tobytes(), g.weights.tobytes(), g.ids


@pytest.mark.parametrize(
    "text",
    [
        "a b\x0cc d\ne f\n",
        "a b\x1cc d\x1dx y\x1ee f\n",
        "a b\x85c d\u2028e f\n",
        "a b\x0bc d\n",
        "a b\rc d\r\ne f\n",
        "a b 2\r\nb c\rc\n",
    ],
    ids=["form-feed", "separators", "nel-ls", "vertical-tab", "cr-crlf", "error-line"],
)
def test_string_parses_as_the_same_bytes_in_a_file(tmp_path, text):
    """A string breaks lines where a file opened in text mode does, at
    \\n, \\r and \\r\\n alone, so both give the same graph or the same
    error with the same line number."""
    path = tmp_path / "edges.txt"
    path.write_bytes(text.encode())
    with open(path, encoding="utf-8") as fh:
        from_file = _graph_or_error(fh)
    assert _graph_or_error(text) == from_file


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


def test_loaded_merge_is_bit_equal_to_from_edges_and_input_order_sums():
    """Repeated pairs, in both orientations and with weights over sixteen
    decades, sum in input order: load_edge_list, from_edges and a
    left-to-right reference agree to the bit."""
    rng = np.random.default_rng(11)
    n, lines = 40, 4000
    u = rng.integers(0, n, lines)
    w = (u + rng.integers(1, n, lines)) % n
    x = 10.0 ** rng.uniform(-8, 8, lines)
    triples = list(zip(u.tolist(), w.tolist(), x.tolist()))
    names = [f"n{i}" for i in rng.permutation(n)]
    g = load_edge_list("".join(f"{names[a]} {names[b]} {c!r}\n" for a, b, c in triples))
    index = {name: i for i, name in enumerate(g.ids)}
    relabeled = [(index[names[a]], index[names[b]], c) for a, b, c in triples]
    h = Graph.from_edges(relabeled, n=g.n, ids=g.ids)
    sums: dict[tuple[int, int], float] = {}
    for a, b, c in relabeled:
        key = (min(a, b), max(a, b))
        sums[key] = sums.get(key, 0.0) + c
    assert g.edge_count < lines  # the draw repeats pairs
    assert g.ids == h.ids
    assert g.edges.tobytes() == h.edges.tobytes() == np.array(sorted(sums)).tobytes()
    expected = np.array([sums[key] for key in sorted(sums)])
    assert g.weights.tobytes() == h.weights.tobytes() == expected.tobytes()


def test_load_edge_list_peak_memory_per_edge(tmp_path):
    """The parser keeps flat index and weight buffers, not an object per
    line: loading 100k lines peaks at most 140 heap bytes per edge."""
    n, lines = 10_000, 100_000
    rng = np.random.default_rng(5)
    u = rng.integers(0, n, lines - n)
    chords = zip(u.tolist(), ((u + rng.integers(1, n, u.size)) % n).tolist())
    path = tmp_path / "big.txt"
    with open(path, "w") as fh:
        fh.writelines(f"v{i} v{(i + 1) % n}\n" for i in range(n))
        fh.writelines(f"v{a} v{b} 2.5\n" for a, b in chords)
    tracemalloc.start()
    try:
        with open(path) as fh:
            g = load_edge_list(fh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n == n and g.edge_count > 0.99 * lines
    assert peak / g.edge_count <= 140


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


def _weighted_planted(shuffled):
    """A 1500-node planted graph, m = 14 990 >= 8n, with weights drawn in
    [0.5, 2) and its pairs in Graph's sorted order or a random one."""
    g, _ = planted_partition(6, 250, 0.06, 0.004, seed=0)
    rng = np.random.default_rng(1)
    order = rng.permutation(g.edge_count) if shuffled else np.arange(g.edge_count)
    return Graph(g.n, g.edges[order], rng.uniform(0.5, 2.0, g.edge_count))


@pytest.mark.parametrize("shuffled", [False, True], ids=["sorted", "shuffled"])
def test_csr_is_scipys_canonical_csr_at_1500_nodes(shuffled):
    """csr_adjacency has the bytes and dtypes of scipy's CSR of both
    orientations of every pair, whatever order the pairs come in."""
    csr_matrix = pytest.importorskip("scipy.sparse").csr_matrix
    g = _weighted_planted(shuffled)
    u, w = g.edges.T
    want = csr_matrix((np.tile(g.weights, 2), (np.concatenate([u, w]), np.concatenate([w, u]))),
                      shape=(g.n, g.n))
    got = csr_adjacency(g)
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_csr_build_peaks_below_eight_words_per_pair():
    """Rows are filled in place, with no sort of all 2m entries: on
    shuffled pairs the build's heap peak, 3 words per pair of output
    included, stays within 8 words (8 bytes each) per pair; a 2m-entry
    lexsort reads 11."""
    g = _weighted_planted(shuffled=True)
    tracemalloc.start()
    try:
        csr = csr_adjacency(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert csr.indptr[-1] == 2 * g.edge_count >= 16 * g.n
    assert peak <= 8 * 8 * g.edge_count
