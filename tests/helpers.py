"""Shared test utilities: seeded graphs, orthonormal frames, partitions."""

from __future__ import annotations

from itertools import combinations

import numpy as np

from modembed import EigenPairs, Graph, spectral, top_k_eigen


def random_connected_graph(rng, n, extra=0.15, weighted=False):
    """Random spanning tree plus Bernoulli chords; connected by construction."""
    weight = {}
    for v in range(1, n):
        u = int(rng.integers(0, v))
        weight[(u, v)] = 1.0
    for u, v in combinations(range(n), 2):
        if (u, v) not in weight and rng.random() < extra:
            weight[(u, v)] = 1.0
    if weighted:
        for key in weight:
            weight[key] = float(rng.uniform(0.5, 2.0))
    return Graph.from_edges([(u, v, w) for (u, v), w in weight.items()], n=n)


def random_orthonormal(rng, n, k):
    q, r = np.linalg.qr(rng.standard_normal((n, k)))
    signs = np.sign(np.diag(r))
    return q * np.where(signs == 0, 1.0, signs)


def largest_principal_angle(a, b):
    """Largest principal angle in radians between two column spans."""
    s = np.linalg.svd(a.T @ b, compute_uv=False)
    return float(np.arccos(np.clip(s.min(), -1.0, 1.0)))


def lanczos_pairs(m, k):
    """The top k pairs of a symmetric array by the Lanczos iteration,
    which top_k_eigen never runs on an array, with top_k_eigen's signs.
    k == n and the zero matrix leave the iteration nothing to do and are
    solved densely. Asserts the residual contract ||m v - lambda v|| <=
    1e-8 max(1, ||m||_inf) on every pair."""
    n = m.shape[0]
    if k < n and np.abs(m).max() > 0:
        values, vectors = spectral._lanczos(m, n, k)
        pairs = EigenPairs(values, spectral._fix_signs(vectors))
    else:
        pairs = top_k_eigen(m, k)
    residuals = np.linalg.norm(m @ pairs.vectors - pairs.vectors * pairs.values, axis=0)
    assert residuals.max() <= 1e-8 * max(1.0, np.abs(m).sum(axis=1).max())
    return pairs


def set_partitions(n):
    """Every partition of range(n), as label tuples in restricted growth form."""

    def grow(u, labels, used):
        if u == n:
            yield tuple(labels)
            return
        for c in range(used + 1):
            labels.append(c)
            yield from grow(u + 1, labels, max(used, c + 1))
            labels.pop()

    yield from grow(0, [], 0)


def random_semimetric(rng, n, scale=1.0):
    m = rng.uniform(0.1, scale, size=(n, n))
    d = 0.5 * (m + m.T)
    np.fill_diagonal(d, 0.0)
    return d


def random_zero_diag_symmetric(rng, n, scale=None):
    m = rng.standard_normal((n, n))
    q = 0.5 * (m + m.T) * (scale if scale is not None else 1.0 / n**2)
    np.fill_diagonal(q, 0.0)
    return q


def triangle():
    return Graph.from_edges([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])


def path3():
    return Graph.from_edges([(0, 1, 1.0), (1, 2, 1.0)])


def path4():
    return Graph.from_edges([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])


def cycle4():
    return Graph.from_edges([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])


def barbell():
    """Two triangles joined by a single bridge edge between nodes 2 and 3."""
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)]
    return Graph.from_edges([(u, v, 1.0) for u, v in edges])
