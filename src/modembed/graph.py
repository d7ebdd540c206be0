"""Undirected weighted graphs with contiguous integer node indices.

A ``Graph`` stores its edges as two read-only arrays: ``edges``, the
(m, 2) canonical pairs u < w with no pair repeated, and ``weights``,
one positive weight per pair; the degrees are derived on first use.
:func:`csr_adjacency` builds new compressed sparse rows from them, which
the covariance operator and the softmax ascent each keep in their own
form, and :func:`dense_adjacency` a new n x n array, which the samplers,
the dense ``q`` and :func:`laplacian` start from; neither caches on the
graph. ``Graph.adjacency`` keeps a read-only dense copy.
"""

from __future__ import annotations

import io
import math
from array import array
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import FormatError

# The symmetric adjacency as compressed sparse rows: row u's neighbours are
# indices[indptr[u]:indptr[u + 1]], ascending, with their weights in data.
CSR = namedtuple("CSR", "indptr indices data")


# Arrays have no truth value, so fields cannot be compared: equality is identity.
@dataclass(frozen=True, eq=False)
class Graph:
    """A simple undirected graph with positive edge weights.

    Nodes are indexed 0..n-1. Row i of ``edges`` is the pair
    (u, w) with u < w that carries weight ``weights[i]``; each pair
    appears once, and the weighted degrees sum to a finite total.
    ``ids`` maps each index back to the external identifier it was
    loaded under.
    """

    n: int
    edges: np.ndarray
    weights: np.ndarray
    ids: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("node count must be nonnegative")
        if self.ids and len(self.ids) != self.n:
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
        # u·n + w orders pairs as (u, w) do and is injective while n² < 2⁶³ (n < 3.03e9).
        keys = u * self.n + w
        keys.sort()
        repeated = keys[1:] == keys[:-1]
        if repeated.any():
            raise ValueError(f"duplicate edge {divmod(int(keys[np.argmax(repeated)]), self.n)}")
        del keys, repeated
        for name, values in (("edges", edges), ("weights", weights)):
            values.setflags(write=False)
            object.__setattr__(self, name, values)
        with np.errstate(over="ignore"):  # an overflowing degree sum is rejected, not warned
            isolated, total = np.flatnonzero(self.degrees == 0), self.total_weight
        if self.n >= 2 and isolated.size:
            shown = ", ".join(map(str, isolated[:10]))
            raise ValueError(f"isolated nodes are not supported: {shown}")
        if not np.isfinite(total):
            raise ValueError("total weight overflows: the weighted degrees sum past 1.8e308")
        if not self.ids:  # last, so a bad edge table fails before n strings are built
            object.__setattr__(self, "ids", tuple(str(i) for i in range(self.n)))

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
        n = int(ends.max(initial=-1)) + 1 if n is None else n
        ids = tuple(ids) if ids is not None else ()
        ends, weights = merge_edges(ends, table[:, 2], n)
        del table  # Graph copies what it keeps: hold no more
        return cls(n, ends, weights, ids)

    @property
    def edge_count(self) -> int:
        return self.edges.shape[0]

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Read-only :func:`dense_adjacency`, kept for as long as the graph."""
        a = dense_adjacency(self)
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


def merge_edges(
    ends: np.ndarray, weights: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct unordered pairs of ``ends`` in canonical order, with
    the weights of each pair's entries summed in input order.

    ``ends`` is an (m, 2) int64 array, and each row is sorted in place.
    The result holds each pair once as (u, w) with u < w, ordered as
    (u, w) are, which is what :class:`Graph` keeps.
    """
    ends.sort(axis=1)
    low, top = min(int(ends.min(initial=0)), 0), int(ends.max(initial=-1)) + 1
    span = max(n, top) - low
    # lo·span + hi over endpoints shifted to start at 0 orders pairs as (lo, hi) and is
    # injective while span² ≤ 2⁶³ (n < 3.03e9); past that, Graph checks them unmerged.
    if span * span > 2**63:
        order = np.lexsort(ends.T[::-1])
        return ends[order], weights[order]
    key = (ends[:, 0] - low) * span + ends[:, 1] - low
    # A stable order keeps each pair's entries in input order, and bincount adds them
    # in the order it reads them.
    order = np.argsort(key, kind="stable")
    key.sort()
    first = np.empty(key.size, dtype=bool)  # an empty list has no first entry
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    group = np.cumsum(first, out=key)  # the sorted keys' buffer, no longer read
    group -= 1
    return ends[order[first]], np.bincount(group, weights=weights[order])


def load_edge_list(lines: Iterable[str] | str) -> Graph:
    """Parse a whitespace-separated edge list into a :class:`Graph`.

    Each non-blank line reads ``<src> <dst> [weight]`` with the weight
    defaulting to 1. ``#`` starts a comment that runs to the end of the
    line. Node identifiers are arbitrary tokens and are assigned indices
    in order of first appearance. Repeated pairs (either orientation)
    have their weights summed; an overflowing total is a ValueError.
    A string is split into lines as a file opened in text mode is: at
    ``\\n``, ``\\r`` and ``\\r\\n`` only.

    Raises
    ------
    FormatError
        On a line with the wrong token count, an unparsable or
        non-positive weight, or a self-loop.
    """
    lines = io.StringIO(lines, newline=None) if isinstance(lines, str) else lines
    ids: dict[str, int] = {}  # index of each token, in first-appearance order
    ends, weights = array("q"), array("d")  # flat endpoint indices and one weight per line
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if not 2 <= len(tokens) <= 3:
            line = raw.rstrip("\r\n")  # quoted as in a string input: no line break
            if len(tokens) < 2:
                raise FormatError(f"line {lineno}: expected '<src> <dst> [weight]', got {line!r}")
            raise FormatError(f"line {lineno}: too many fields in {line!r}")
        src, dst = tokens[0], tokens[1]
        if src == dst:
            raise FormatError(f"line {lineno}: self-loop on node {src!r}")
        weight = 1.0
        if len(tokens) == 3:
            try:
                weight = float(tokens[2])
            except ValueError:
                raise FormatError(f"line {lineno}: bad weight {tokens[2]!r}") from None
            if not math.isfinite(weight) or weight <= 0:
                raise FormatError(f"line {lineno}: weight must be positive, got {tokens[2]}")
        ends.append(ids.setdefault(src, len(ids)))
        ends.append(ids.setdefault(dst, len(ids)))
        weights.append(weight)
    # Rebinding drops the line buffers before Graph copies the merged pairs.
    ends, weights = merge_edges(
        np.frombuffer(ends, dtype=np.int64).reshape(-1, 2), np.frombuffer(weights), len(ids)
    )
    return Graph(len(ids), ends, weights, tuple(ids))


def csr_adjacency(g: Graph) -> CSR:
    """New compressed sparse rows of the symmetric adjacency, built
    without the dense one: the canonical CSR of both orientations of
    every pair, each row's columns in ascending order, with int32 indices
    while n and 2m fit and int64 past that; nothing is cached on g."""
    u, w = g.edges.T
    rows, cols = np.concatenate([u, w]), np.concatenate([w, u])
    order = np.lexsort((cols, rows))
    index = np.int32 if max(g.n, rows.size) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(g.n + 1, dtype=index)
    np.cumsum(np.bincount(rows, minlength=g.n), out=indptr[1:])
    return CSR(indptr, cols[order].astype(index), np.concatenate([g.weights] * 2)[order])


def dense_adjacency(g: Graph) -> np.ndarray:
    """A new dense symmetric adjacency matrix, scattered from the edge
    arrays (bit-exact A[u, w] == A[w, u]); nothing is cached on g."""
    a = np.zeros((g.n, g.n))
    u, w = g.edges.T
    a[u, w] = a[w, u] = g.weights
    return a


def laplacian(g: Graph) -> np.ndarray:
    """Combinatorial Laplacian D - A, built from the edge arrays.

    Row sums vanish exactly for integer weights and to within roundoff
    otherwise, because the diagonal is built from the same row sums it
    cancels against. Negation commutes with rounding, and 0 - A keeps
    the zeros off the edges +0.0, so the bits are those of diag(A 1) - A,
    without reading or caching ``g.adjacency``.
    """
    lap = dense_adjacency(g)
    np.subtract(0.0, lap, out=lap)
    np.fill_diagonal(lap, -lap.sum(axis=1))
    return lap


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
