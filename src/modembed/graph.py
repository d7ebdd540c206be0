"""Undirected weighted graphs with contiguous integer node indices.

Graphs are small enough at the supported scale (a few thousand nodes) to
keep a dense adjacency matrix around, and every routine in this package
leans on that: no sparse formats, no incremental updates. A ``Graph`` is
read-only once built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import FormatError


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph with positive edge weights.

    Nodes are indexed 0..n-1. Edges are stored once in canonical
    (u < w) order with duplicates already merged. ``ids`` maps each
    index back to the external identifier it was loaded under.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]
    ids: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("node count must be nonnegative")
        if not self.ids:
            object.__setattr__(self, "ids", tuple(str(i) for i in range(self.n)))
        if len(self.ids) != self.n:
            raise ValueError("ids must have one entry per node")
        seen = set()
        touched = np.zeros(self.n, dtype=bool)
        for u, w, weight in self.edges:
            if not (0 <= u < self.n and 0 <= w < self.n):
                raise ValueError(f"edge ({u}, {w}) has an out-of-range endpoint")
            if u == w:
                raise ValueError(f"self-loop at node {u} is not allowed")
            if u > w:
                raise ValueError(f"edge ({u}, {w}) is not in canonical order")
            if weight <= 0:
                raise ValueError(f"edge ({u}, {w}) has non-positive weight {weight}")
            if (u, w) in seen:
                raise ValueError(f"duplicate edge ({u}, {w})")
            seen.add((u, w))
            touched[u] = touched[w] = True
        if self.n >= 2 and not touched.all():
            isolated = np.flatnonzero(~touched)
            raise ValueError(
                "isolated nodes are not supported: "
                + ", ".join(str(i) for i in isolated[:10])
            )

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[int, int, float]],
        n: int | None = None,
        ids: Iterable[str] | None = None,
    ) -> "Graph":
        """Build a graph from an edge iterable, merging duplicate pairs.

        Parallel entries for the same unordered pair have their weights
        summed. ``n`` defaults to one past the largest endpoint index.
        """
        merged: dict[tuple[int, int], float] = {}
        top = -1
        for u, w, weight in edges:
            u, w = int(u), int(w)
            if u == w:
                raise ValueError(f"self-loop at node {u} is not allowed")
            key = (u, w) if u < w else (w, u)
            merged[key] = merged.get(key, 0.0) + float(weight)
            top = max(top, u, w)
        if n is None:
            n = top + 1
        canonical = tuple(
            (u, w, weight) for (u, w), weight in sorted(merged.items())
        )
        return cls(n=n, edges=canonical, ids=tuple(ids) if ids is not None else ())

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Dense symmetric adjacency matrix (bit-exact A[u, w] == A[w, u])."""
        a = np.zeros((self.n, self.n))
        for u, w, weight in self.edges:
            a[u, w] = weight
            a[w, u] = weight
        a.setflags(write=False)
        return a

    @cached_property
    def degrees(self) -> np.ndarray:
        """Weighted degree of every node."""
        d = np.zeros(self.n)
        for u, w, weight in self.edges:
            d[u] += weight
            d[w] += weight
        d.setflags(write=False)
        return d

    @property
    def total_weight(self) -> float:
        """Total degree, i.e. twice the sum of edge weights."""
        return float(self.degrees.sum())

    @cached_property
    def _neighbors(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, w, _ in self.edges:
            nbrs[u].append(w)
            nbrs[w].append(u)
        return tuple(tuple(v) for v in nbrs)

    def index_of(self, external_id: str) -> int:
        return self._index[external_id]

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.ids)}


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


def is_connected(g: Graph) -> bool:
    """Breadth-first connectivity check. Trivially true for n <= 1."""
    if g.n <= 1:
        return True
    seen = np.zeros(g.n, dtype=bool)
    stack = [0]
    seen[0] = True
    count = 1
    nbrs = g._neighbors
    while stack:
        u = stack.pop()
        for w in nbrs[u]:
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count == g.n

