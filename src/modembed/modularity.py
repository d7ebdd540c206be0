"""Generalized modularity matrices and partition scores.

The covariance q(u, w) = p(u, w) - p_u(u) p_u(w) of a sampled graph
measures how much more often a pair co-occurs than independent draws
from the marginals would suggest. Summed over blocks of a partition it
generalizes Newman's modularity, which is the special case of edge
sampling.

Q comes in two forms with the same interface (``n``, ``Q @ X``, an
upper bound ``norm_bound`` on the largest absolute row sum and the
dense matrix ``q``): the :class:`ModularityMatrix` of any sampled
graph, which is the oracle, and the :class:`CovarianceOperator` of the
edge and walk samplers, which touches only the graph's edges and
degrees and forms its ``q`` only when a caller reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .graph import Graph
from .sampling import SampledGraph, check_walkable
from .spectral import _check_symmetric, _norm_inf, _row_blocks


@dataclass(frozen=True)
class ModularityMatrix:
    """Symmetric covariance matrix with zero row and column sums."""

    q: np.ndarray

    def __post_init__(self) -> None:
        q = _check_symmetric(self.q, 1e-14, "q")
        if q.size == 0:
            raise ValueError("q must be non-empty")
        if not np.max(np.abs(q.sum(axis=1))) <= 1e-12:
            raise ValueError("rows of q must sum to zero")
        if not max(q.max(), -q.min()) <= 1.0 + 1e-15:
            raise ValueError("entries of q must lie in [-1, 1]")
        object.__setattr__(self, "q", q)

    @property
    def n(self) -> int:
        return self.q.shape[0]

    @property
    def norm_bound(self) -> float:
        """The largest absolute row sum, computed exactly."""
        return _norm_inf(self.q)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.q @ x


# The graph has no value equality (see Graph), so neither has the operator.
@dataclass(frozen=True, eq=False)
class CovarianceOperator:
    """Matrix-free Q of walks of ``length`` steps from stationarity on g.

    With A the adjacency, D the degrees, 2m their total and
    p_u = D1/2m the stationary distribution,

        QX = (1/L) sum_{t=1..L} (1/2m) (A D^-1)^(t-1) AX - p_u (p_u^T X),

    or only the t = L term with ``exact_length``. L = 1, the default, is
    the Q of :func:`~modembed.sampling.edge_sampling`, Newman's
    sparse-plus-rank-one modularity AX/2m - p_u (p_u^T X) (Newman 2006);
    the walk mixture is the co-occurrence matrix NetMF factorizes (Qiu
    et al. 2018). The graph must pass the checks of
    :func:`~modembed.sampling.random_walk_sampling`, connectivity only
    for L > 1. Each product costs L sparse products, O(L m) per column, and
    loads scipy; no n x n array is formed until ``q`` is read, and the
    edge form's ``q`` and row-sum check run none.
    Symmetry holds by construction, and every row sum is at most
    2 max p_u in absolute value, which is ``norm_bound``.
    """

    graph: Graph
    length: int = 1
    exact_length: bool = False

    def __post_init__(self) -> None:
        check_walkable(self.graph, self.length)
        a_1 = self.graph.degrees[:, None] + 0.0  # A1, a copy: the edge form needs no product
        if not np.max(np.abs(self._apply(a_1, self.p_u.sum(keepdims=True)))) <= 1e-12:
            raise ValueError("rows of q must sum to zero")

    @property
    def n(self) -> int:
        return self.graph.n

    @cached_property
    def p_u(self) -> np.ndarray:
        return self.graph.degrees / self.graph.total_weight

    @property
    def norm_bound(self) -> float:
        return 2.0 * float(self.p_u.max())

    @cached_property
    def q(self) -> np.ndarray:
        """Dense Q, formed on first use from the edge arrays, not from A
        times the identity; averaging with Q^T drops walk-product roundoff."""
        a = np.zeros((self.n, self.n))
        u, w = self.graph.edges.T
        a[u, w] = a[w, u] = self.graph.weights
        q = self._apply(a, self.p_u)
        if self.length > 1:  # A / 2m - p_u p_u^T alone is exactly symmetric
            q += q.T
            q *= 0.5
        return q

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        block = x.reshape(self.n, -1)
        q_x = self._apply(self.graph.sparse_adjacency @ block, self.p_u @ block)
        return q_x.reshape(x.shape)

    def _apply(self, a_x: np.ndarray, pu_x: np.ndarray) -> np.ndarray:
        """QX from AX and p_u^T X; overwrites ``a_x`` when L = 1."""
        g = self.graph
        step = total = a_x
        for _ in range(self.length - 1):
            step = g.sparse_adjacency @ (step / g.degrees[:, None])
            total = step if self.exact_length else total + step
        total /= (1 if self.exact_length else self.length) * g.total_weight
        for b in _row_blocks(self.n, pu_x.size):  # no n x n temporary
            total[b] -= np.outer(self.p_u[b], pu_x)
        return total


@dataclass(frozen=True)
class Partition:
    """Cluster assignment into indices 0..k-1.

    ``k`` defaults to one past the largest used index. Interior indices
    may be empty (hard assignments of a clustering can skip a cluster);
    operations that cannot tolerate empty clusters say so.
    """

    assignment: np.ndarray
    k: int | None = None

    def __post_init__(self) -> None:
        a = np.asarray(self.assignment, dtype=int)
        if a.ndim != 1 or a.size == 0:
            raise ValueError("assignment must be a non-empty 1-d array")
        if a.min() < 0:
            raise ValueError("cluster indices must be nonnegative")
        k = int(a.max()) + 1 if self.k is None else int(self.k)
        if a.max() >= k:
            raise ValueError(f"cluster index {a.max()} out of range for k={k}")
        object.__setattr__(self, "assignment", a)
        object.__setattr__(self, "k", k)

    @property
    def n(self) -> int:
        return self.assignment.size

    @cached_property
    def members(self) -> tuple[np.ndarray, ...]:
        return tuple(np.flatnonzero(self.assignment == c) for c in range(self.k))


def modularity_matrix(s: SampledGraph) -> ModularityMatrix:
    """Covariance of the sampled pair distribution against its marginals, in row blocks."""
    q = np.empty(s.p.shape)
    for b in _row_blocks(*q.shape):
        np.subtract(s.p[b], np.multiply(s.p_u[b, None], s.p_u, out=q[b]), out=q[b])
    return ModularityMatrix(q)


def set_covariance(
    q: ModularityMatrix, s1: Sequence[int] | np.ndarray, s2: Sequence[int] | np.ndarray
) -> float:
    """Total covariance between two node sets, sum over S1 x S2 of q(u, w)."""
    s1 = _check_indices(q.n, s1)
    s2 = _check_indices(q.n, s2)
    return float(q.q[np.ix_(s1, s2)].sum())


def is_community(q: ModularityMatrix, s: Sequence[int] | np.ndarray) -> bool:
    """A set is a community when its self-covariance is nonnegative."""
    return set_covariance(q, s, s) >= 0.0


def partition_modularity(q: ModularityMatrix, partition: Partition) -> float:
    """Sum of within-cluster covariances over all clusters."""
    _check_partition_size(q, partition)
    return float(
        sum(q.q[np.ix_(m, m)].sum() for m in partition.members if m.size)
    )


def normalized_modularity(q: ModularityMatrix, partition: Partition) -> float:
    """Within-cluster covariances, each normalized by cluster size.

    Bounded above by the sum of the K largest eigenvalues of q; empty
    clusters are rejected because their normalization is undefined.
    """
    _check_partition_size(q, partition)
    total = 0.0
    for c, m in enumerate(partition.members):
        if m.size == 0:
            raise ValueError(f"cluster {c} is empty")
        total += q.q[np.ix_(m, m)].sum() / m.size
    return float(total)


def _check_indices(n: int, s: Sequence[int] | np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=int)
    if s.ndim != 1:
        raise ValueError("node sets must be 1-d index collections")
    if s.size and (s.min() < 0 or s.max() >= n):
        raise ValueError(f"node index out of range 0..{n - 1}")
    if np.unique(s).size != s.size:
        raise ValueError("node sets must not contain duplicates")
    return s


def _check_partition_size(q: ModularityMatrix, partition: Partition) -> None:
    if partition.n != q.n:
        raise ValueError(
            f"partition covers {partition.n} nodes but q has {q.n}"
        )
