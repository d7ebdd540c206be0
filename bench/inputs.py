"""Seeded planted-partition inputs for the benchmark.

The graphs are drawn by the benchmark's own numpy code, not by
``modembed.evaluate.planted_partition``, so a change to the library
cannot change what the benchmark feeds it. The same family and seed
always give byte-identical files.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Family:
    """Equal-size blocks with one edge density inside and one across."""

    name: str
    blocks: int
    block_size: int
    p_in: float
    p_out: float

    @property
    def n(self) -> int:
        return self.blocks * self.block_size


P16 = Family("P16", blocks=16, block_size=200, p_in=0.1, p_out=0.002)
P8 = Family("P8", blocks=8, block_size=250, p_in=0.05, p_out=0.002)


@dataclass(frozen=True)
class GraphInput:
    """A generated graph in the benchmark's own node order.

    ``edges`` holds each undirected edge once as (u, w) with u < w in
    internal indices; ``ext_ids[u]`` is the token node u carries in the
    files, and ``labels[u]`` its block.
    """

    family: Family
    seed: int
    edges: np.ndarray
    labels: np.ndarray
    ext_ids: np.ndarray
    edge_text: bytes
    label_text: bytes

    @property
    def n(self) -> int:
        return self.family.n

    @property
    def m(self) -> int:
        return int(self.edges.shape[0])

    def index_of(self, tokens: list[str]) -> np.ndarray:
        """Internal indices of external id tokens; KeyError on an unknown token."""
        lookup = {str(e): u for u, e in enumerate(self.ext_ids)}
        return np.array([lookup[t] for t in tokens], dtype=int)


def planted_graph(family: Family, seed: int) -> GraphInput:
    """Draw a planted partition of ``family`` from ``seed``.

    A path through all nodes in index order is added to the random
    edges, so the graph is connected by construction: the walk sampler
    and the resistance distance reject disconnected graphs. Node ids,
    line order and edge orientation are then shuffled so the files do
    not reveal the construction order.
    """
    rng = np.random.default_rng([seed, zlib.crc32(family.name.encode())])
    n, size = family.n, family.block_size
    parts = []
    for bi in range(family.blocks):
        for bj in range(bi, family.blocks):
            hit = rng.random((size, size)) < (family.p_in if bi == bj else family.p_out)
            if bi == bj:
                hit = np.triu(hit, k=1)
            r, c = np.nonzero(hit)
            parts.append(np.column_stack([r + bi * size, c + bj * size]))
    path = np.column_stack([np.arange(n - 1), np.arange(1, n)])
    edges = np.unique(np.vstack(parts + [path]), axis=0)
    labels = np.repeat(np.arange(family.blocks), size)

    ext_ids = rng.permutation(n)
    order = rng.permutation(edges.shape[0])
    flip = rng.random(edges.shape[0]) < 0.5
    lines = ext_ids[edges[order]]
    lines[flip] = lines[flip][:, ::-1]
    edge_text = "".join(f"{a} {b}\n" for a, b in lines.tolist()).encode()
    by_id = np.argsort(ext_ids)
    label_text = "".join(f"{ext_ids[u]} b{labels[u]:02d}\n" for u in by_id.tolist()).encode()
    return GraphInput(family, seed, edges, labels, ext_ids, edge_text, label_text)
