"""Generalized modularity matrices and partition scores.

The covariance q(u, w) = p(u, w) - p_u(u) p_u(w) of a sampled graph
measures how much more often a pair co-occurs than independent draws
from the marginals would suggest. Summed over blocks of a partition it
generalizes Newman's modularity, which is the special case of edge
sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .sampling import SampledGraph


@dataclass(frozen=True)
class ModularityMatrix:
    """Symmetric covariance matrix with zero row and column sums."""

    q: np.ndarray

    def __post_init__(self) -> None:
        q = np.asarray(self.q, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1] or q.size == 0:
            raise ValueError("q must be a non-empty square matrix")
        if np.max(np.abs(q - q.T)) > 1e-14:
            raise ValueError("q must be symmetric")
        if np.max(np.abs(q.sum(axis=1))) > 1e-12:
            raise ValueError("rows of q must sum to zero")
        if np.max(np.abs(q)) > 1.0 + 1e-15:
            raise ValueError("entries of q must lie in [-1, 1]")
        object.__setattr__(self, "q", q)

    @property
    def n(self) -> int:
        return self.q.shape[0]


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
    """Covariance of the sampled pair distribution against its marginals."""
    return ModularityMatrix(s.p - np.outer(s.p_u, s.p_u))


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
