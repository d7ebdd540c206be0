"""Property test: edge-list parsing against a plain-Python reference."""

import numpy as np
import pytest

from modembed import load_edge_list

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_EDGE = st.tuples(
    st.integers(0, 7),
    st.integers(0, 7),
    st.one_of(st.none(), st.floats(1e-3, 1e3)),
).filter(lambda e: e[0] != e[1])


def _reference(edges):
    """ids in first-appearance order, and the dict-merged dense adjacency."""
    index: dict[str, int] = {}
    merged: dict[tuple[int, int], float] = {}
    for src, dst, weight in edges:
        for token in (src, dst):
            index.setdefault(token, len(index))
        key = tuple(sorted((index[src], index[dst])))
        merged[key] = merged.get(key, 0.0) + (1.0 if weight is None else weight)
    a = np.zeros((len(index), len(index)))
    degrees = np.zeros(len(index))
    for (u, w), weight in sorted(merged.items()):
        a[u, w] = a[w, u] = weight
        degrees[u] += weight
        degrees[w] += weight
    return tuple(index), a, degrees, len(merged)


@hypothesis.given(st.lists(_EDGE, max_size=40))
def test_load_edge_list_matches_dict_merge(raw):
    edges = [(f"n{u}", f"n{w}", weight) for u, w, weight in raw]
    text = "".join(
        f"{src} {dst}\n" if weight is None else f"{src} {dst} {weight!r}\n"
        for src, dst, weight in edges
    )
    g = load_edge_list(text)
    ids, a, degrees, count = _reference(edges)
    assert g.ids == ids
    assert g.edge_count == count
    assert g.adjacency.tobytes() == a.tobytes()
    assert g.degrees.tobytes() == degrees.tobytes()
