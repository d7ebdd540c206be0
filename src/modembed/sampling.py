"""Bivariate node-pair distributions obtained by sampling a graph.

Every sampler returns the same thing: a joint probability p(u, w) over
ordered node pairs together with its marginals. Edge sampling weights
pairs by edge weight, random-walk sampling by co-occurrence on short
stationary walks, and distance sampling by exponentially decayed
dissimilarity. All three produce symmetric distributions, which is what
the downstream modularity machinery assumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .graph import Graph, dense_adjacency, is_connected
from .semimetric import SemiMetric
from .spectral import _check_symmetric, _symmetrize

_MASS_TOL = 1e-12
_EXP_RANGE = 700.0

MAX_WALK_LENGTH = 16


@dataclass(frozen=True)
class SampledGraph:
    """Joint distribution over ordered node pairs with its marginal.

    The marginal ``p_u`` is derived from ``p`` as its row sums, which
    are its column sums too because ``p`` is symmetric.
    """

    p: np.ndarray
    p_u: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        p = _check_symmetric(self.p, 1e-14, "p")
        if p.size == 0:
            raise ValueError("p must be non-empty")
        if not p.min() >= 0:
            raise ValueError("probabilities must be finite and nonnegative")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "p_u", p.sum(axis=1))
        if not abs(self.p_u.sum() - 1.0) <= _MASS_TOL:
            raise ValueError(f"total mass {float(self.p_u.sum())!r} is not 1")

    @property
    def n(self) -> int:
        return self.p.shape[0]


def edge_sampling(g: Graph) -> SampledGraph:
    """Pick an edge with probability proportional to its weight, then an
    ordered orientation uniformly: p(u, w) = A(u, w) / (2m).

    The marginals are the degree distribution d_u / (2m).
    """
    if g.edge_count == 0:
        raise ValueError("edge sampling requires at least one edge")
    p = dense_adjacency(g)  # exactly symmetric, so it needs no symmetrizing
    return SampledGraph(np.divide(p, g.total_weight, out=p))


def random_walk_sampling(g: Graph, length: int, exact_length: bool = False) -> SampledGraph:
    """Endpoints of short random walks started from stationarity.

    A walk length t is drawn uniformly from 1..length, a start node
    from the stationary distribution pi = d / (2m), and p(u, w) is the
    probability of the walk starting at u and ending at w, symmetrized:

        p = sym((1/length) * sum_t diag(pi) P^t)

    With ``exact_length`` the mixture is replaced by the single term
    t = length. Reversibility makes each term symmetric already; the
    explicit symmetrization only mops up roundoff.
    """
    check_walkable(g, length)
    d = g.degrees
    p_step = dense_adjacency(g) / d[:, None]
    pi = d / g.total_weight
    walk = pi[:, None] * p_step
    if exact_length:
        for _ in range(length - 1):
            walk = walk @ p_step
        mix = walk
    else:
        mix = walk.copy()
        for _ in range(length - 1):
            walk = walk @ p_step
            mix += walk
        mix /= length
    return SampledGraph(_symmetrize(mix))


def check_walkable(g: Graph, length: int) -> None:
    """Reject what random-walk sampling cannot start from: a graph with
    no edges, a length outside 1..MAX_WALK_LENGTH, or a disconnected graph
    for more than one step (one step from stationarity is an edge draw)."""
    if g.edge_count == 0:
        raise ValueError("random-walk sampling requires at least one edge")
    if not 1 <= length <= MAX_WALK_LENGTH:
        raise ValueError(f"walk length must be in 1..{MAX_WALK_LENGTH}, got {length}")
    if length > 1 and not is_connected(g):
        raise ValueError("random-walk sampling requires a connected graph")


def exp_distance_sampling(d: SemiMetric, theta: float | None = None) -> SampledGraph:
    """Boltzmann weighting of a semi-metric: p(u, w) = exp(theta d(u, w)) / Z.

    ``theta`` defaults to -1e-3 divided by the largest dissimilarity, a gentle decay that
    keeps every pair in play. Exponents beyond the double-precision range are rejected.
    SemiMetric keeps d exactly symmetric, and p, elementwise in d, is too.
    """
    m = d.d
    if m.size == 0:
        raise ValueError("distance sampling requires at least one node")
    dmax = float(m.max())
    if theta is None:
        theta = -1e-3 / dmax if dmax > 0 else 0.0
    if abs(theta) * dmax > _EXP_RANGE:
        raise NumericalError(
            f"|theta| * max distance = {abs(theta) * dmax:.3g} exceeds the "
            f"exponential range ({_EXP_RANGE:g})"
        )
    w = np.multiply(theta, m)  # the one n x n array: exp and normalize in place
    if theta > 0:  # shift the largest exponent to 0, so Z cannot overflow
        w -= theta * dmax
    np.exp(w, out=w)
    w /= w.sum()
    return SampledGraph(w)
