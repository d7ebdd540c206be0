"""Undirected weighted graphs with contiguous integer node indices.

A ``Graph`` stores its edges as two read-only arrays: ``edges``, the
(m, 2) canonical pairs u < w with no pair repeated, and ``weights``,
one positive weight per pair. The dense adjacency matrix and the degree
vector are derived from them on first use; at the supported scale (a
few thousand nodes) the dense adjacency is what the samplers consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import FormatError


# Arrays have no truth value, so fields cannot be compared: equality is identity.
@dataclass(frozen=True, eq=False)
class Graph:
    """A simple undirected graph with positive edge weights.

    Nodes are indexed 0..n-1. Row i of ``edges`` is the pair
    (u, w) with u < w that carries weight ``weights[i]``; each pair
    appears once. ``ids`` maps each index back to the external
    identifier it was loaded under.
    """

    n: int
    edges: np.ndarray
    weights: np.ndarray
    ids: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("node count must be nonnegative")
        if not self.ids:
            object.__setattr__(self, "ids", tuple(str(i) for i in range(self.n)))
        if len(self.ids) != self.n:
            raise ValueError("ids must have one entry per node")
        edges = _endpoints(self.edges)
        weights = np.array(self.weights, dtype=float)
        if weights.shape != (edges.shape[0],):
            raise ValueError("weights must hold one entry per edge")
        u, w = edges.T
        for bad, problem in (
            (((edges < 0) | (edges >= self.n)).any(axis=1), "has an out-of-range endpoint"),
            (u == w, "is a self-loop"),
            (u > w, "is not in canonical order"),
            (~(np.isfinite(weights) & (weights > 0)), "has a non-finite or non-positive weight"),
        ):
            if bad.any():
                i = int(np.argmax(bad))
                raise ValueError(f"edge ({u[i]}, {w[i]}) {problem}")
        pairs, counts = np.unique(edges, axis=0, return_counts=True)
        if (counts > 1).any():
            raise ValueError(f"duplicate edge {tuple(pairs[np.argmax(counts > 1)].tolist())}")
        isolated = np.flatnonzero(np.bincount(edges.ravel(), minlength=self.n) == 0)
        if self.n >= 2 and isolated.size:
            raise ValueError(
                "isolated nodes are not supported: "
                + ", ".join(str(i) for i in isolated[:10])
            )
        edges.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[int, int, float]],
        n: int | None = None,
        ids: Iterable[str] | None = None,
    ) -> "Graph":
        """Build a graph from (u, w, weight) triples, merging duplicate pairs.

        Parallel entries for the same unordered pair have their weights
        summed in input order. ``n`` defaults to one past the largest
        endpoint index.
        """
        table = np.array(list(edges) or np.empty((0, 3)), dtype=float)
        if table.ndim != 2 or table.shape[1] != 3:
            raise ValueError("edges must be (u, w, weight) triples")
        ends = _endpoints(table[:, :2])
        pairs, inverse = np.unique(np.sort(ends, axis=1), axis=0, return_inverse=True)
        weights = np.zeros(pairs.shape[0])
        np.add.at(weights, inverse.ravel(), table[:, 2])
        if n is None:
            n = int(ends.max(initial=-1)) + 1
        return cls(n, pairs, weights, tuple(ids) if ids is not None else ())

    @property
    def edge_count(self) -> int:
        return self.edges.shape[0]

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Dense symmetric adjacency matrix (bit-exact A[u, w] == A[w, u])."""
        a = np.zeros((self.n, self.n))
        u, w = self.edges.T
        a[u, w] = a[w, u] = self.weights
        a.setflags(write=False)
        return a

    @cached_property
    def degrees(self) -> np.ndarray:
        """Weighted degree of every node, summed in edge order."""
        d = np.zeros(self.n)
        np.add.at(d, self.edges.ravel(), np.repeat(self.weights, 2))
        d.setflags(write=False)
        return d

    @property
    def total_weight(self) -> float:
        """Total degree, i.e. twice the sum of edge weights."""
        return float(self.degrees.sum())

    def index_of(self, external_id: str) -> int:
        return self._index[external_id]

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.ids)}


def _endpoints(ends) -> np.ndarray:
    """Endpoint pairs as a new (m, 2) int64 array.

    Raises ValueError on a value that is not a whole number, rather than
    truncating it, and on one beyond the int64 range, rather than
    wrapping it.
    """
    ends = np.asarray(ends)
    if ends.dtype.kind not in "biu":
        ends = ends.astype(float).reshape(-1, 2)
        whole = (np.isfinite(ends) & (ends == np.trunc(ends))).all(axis=1)
        if not whole.all():
            u, w = ends[np.argmin(whole)]
            raise ValueError(f"edge ({u:g}, {w:g}) has a non-integer endpoint")
        big = (np.abs(ends) >= 2.0**63).any(axis=1)
        if big.any():
            u, w = ends[np.argmax(big)]
            raise ValueError(f"edge ({u:g}, {w:g}) has an out-of-range endpoint")
    return ends.astype(np.int64).reshape(-1, 2)


def load_edge_list(lines: Iterable[str] | str) -> Graph:
    """Parse a whitespace-separated edge list into a :class:`Graph`.

    Each non-blank line reads ``<src> <dst> [weight]`` with the weight
    defaulting to 1. ``#`` starts a comment that runs to the end of the
    line. Node identifiers are arbitrary tokens and are assigned indices
    in order of first appearance. Repeated pairs (either orientation)
    have their weights summed.

    Raises
    ------
    FormatError
        On a line with the wrong token count, an unparsable or
        non-positive weight, or a self-loop.
    """
    if isinstance(lines, str):
        lines = lines.splitlines()
    ids: list[str] = []
    index: dict[str, int] = {}

    def intern(token: str) -> int:
        if token not in index:
            index[token] = len(ids)
            ids.append(token)
        return index[token]

    edges: list[tuple[int, int, float]] = []
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        tokens = text.split()
        if len(tokens) < 2:
            raise FormatError(f"line {lineno}: expected '<src> <dst> [weight]', got {raw!r}")
        if len(tokens) > 3:
            raise FormatError(f"line {lineno}: too many fields in {raw!r}")
        src, dst = tokens[0], tokens[1]
        if src == dst:
            raise FormatError(f"line {lineno}: self-loop on node {src!r}")
        weight = 1.0
        if len(tokens) == 3:
            try:
                weight = float(tokens[2])
            except ValueError:
                raise FormatError(f"line {lineno}: bad weight {tokens[2]!r}") from None
            if not np.isfinite(weight) or weight <= 0:
                raise FormatError(f"line {lineno}: weight must be positive, got {tokens[2]}")
        edges.append((intern(src), intern(dst), weight))
    return Graph.from_edges(edges, n=len(ids), ids=ids)


def laplacian(g: Graph) -> np.ndarray:
    """Combinatorial Laplacian D - A.

    Row sums vanish exactly for integer weights and to within roundoff
    otherwise, because the diagonal is built from the same row sums it
    cancels against.
    """
    a = g.adjacency
    return np.diag(a.sum(axis=1)) - a


def connected_components(edges: np.ndarray, n: int) -> np.ndarray:
    """Component index of every node, components numbered by smallest member.

    ``edges`` is an (m, 2) array of node pairs. Each round hooks the
    larger of two roots joined by an edge onto the smaller one, then
    jumps pointers until every node points at its root, so a root is
    always the smallest member of its tree.
    """
    parent = np.arange(n)
    u, w = edges.T
    while True:
        while not np.array_equal(parent, parent[parent]):
            parent = parent[parent]
        ru, rw = parent[u], parent[w]
        if np.array_equal(ru, rw):
            return np.unique(parent, return_inverse=True)[1]
        np.minimum.at(parent, np.maximum(ru, rw), np.minimum(ru, rw))


def is_connected(g: Graph) -> bool:
    """Whether g has a single connected component. Trivially true for n <= 1."""
    return g.n <= 1 or not connected_components(g.edges, g.n).any()
