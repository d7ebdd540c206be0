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

from .graph import CSR, Graph, csr_adjacency, dense_adjacency
from .sampling import SampledGraph, check_walkable
from .spectral import _check_symmetric, _norm_inf, _row_blocks, _symmetrize


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
    for L > 1. Each product costs L sparse products, O(L m) per column, in
    numpy alone; no n x n array is formed until ``q`` is read, and the
    edge form's ``q`` and row-sum check run none. Only the walk forms'
    ``q`` loads scipy, for its products with n columns.
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
        a = dense_adjacency(self.graph)
        if self.length == 1:  # A / 2m - p_u p_u^T is symmetric and takes no product
            return self._apply(a, self.p_u)
        sparse = _scipy_csr(csr_adjacency(self.graph))
        return _symmetrize(self._apply(a, self.p_u, lambda x: sparse @ x))

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        block = x.reshape(self.n, -1)
        q_x = self._apply(self._adjacency(block), self.p_u @ block)
        return q_x.reshape(x.shape)

    @cached_property
    def _adjacency(self) -> _SparseProduct:
        return _SparseProduct(csr_adjacency(self.graph))

    def _apply(self, a_x: np.ndarray, pu_x: np.ndarray, product=None) -> np.ndarray:
        """QX from AX and p_u^T X, with ``product`` (default ``_adjacency``)
        for the walk steps; overwrites ``a_x``. Each step is scaled and
        summed in place, but the mixture scales a copy of its first term AX:
        at most three arrays of X's shape are alive at once, ``a_x`` one."""
        g, d = self.graph, self.graph.degrees[:, None]
        step = total = a_x
        for _ in range(self.length - 1):
            keep = step is total and not self.exact_length  # the mixture's first term
            step = (product or self._adjacency)(step / d if keep else np.divide(step, d, out=step))
            total = step if self.exact_length else np.add(total, step, out=total)
        total /= (1 if self.exact_length else self.length) * g.total_weight
        for b in _row_blocks(self.n, pu_x.size):  # no n x n temporary
            total[b] -= np.outer(self.p_u[b], pu_x)
        return total


def _scipy_csr(a: CSR):
    """``a`` as a scipy CSR matrix over its own buffers, not a copy: pass
    a fresh :func:`~modembed.graph.csr_adjacency`. Its products have the
    bits of :class:`_SparseProduct` and run several times faster on n
    columns; scipy is imported here, so only a walk's dense q loads it."""
    from scipy.sparse import csr_matrix

    n = a.indptr.size - 1
    return csr_matrix((a.data, a.indices, a.indptr), shape=(n, n), copy=False)


# Positions summed slice by slice; the entries past them, where few rows are still live, go
# through np.add.at. One BLAS thread, best of 40-300 products: any cut from 32 to 96 costs the
# same within noise on the 3200-node benchmark graph (max degree 49, 0.16-0.18 ms) and on a
# 100k-node preferential-attachment graph (max degree 1129, 2.1-2.3 ms); a cut of 16 costs
# 0.19 ms on the first, and no cut 3.3 ms on the second.
_HEAD = 64


class _SparseProduct:
    """X -> AX for an n x k X, with the bits of scipy's CSR product.

    Rows are ordered by descending degree (a stable sort), and the
    entries are stored by their position within the row, then by row:
    position t holds the t-th entry of each of the ``live[t]`` rows that
    have more than t entries, which are the leading rows. A product
    gathers X once, multiplies by the weights in place, adds position
    t's slice onto the first ``live[t]`` rows for the first ``_HEAD``
    positions, and the rest through ``np.add.at``, which adds in
    sequence. So every row sums its entries from zero in CSR order, as
    scipy's csr_matvec(s) does. Built in O(n + nnz) time and memory.

    It consumes its CSR: pass a fresh :func:`~modembed.graph.csr_adjacency`,
    as :func:`_scipy_csr` requires. Once the weights are copied into the
    layout, the CSR's ``data`` buffer is every product's gather scratch,
    so a product allocates only its output and O(n). When every weight is
    1.0 no weights are stored (``data`` is None) and none multiplied:
    x * 1.0 is x, bit for bit.
    """

    def __init__(self, a: CSR) -> None:
        n = a.indptr.size - 1
        degrees = np.diff(a.indptr)
        self.order = np.argsort(-degrees, kind="stable")
        live = n - np.cumsum(np.bincount(degrees, minlength=1))[:-1]  # rows with > t entries
        ends = np.cumsum(live, dtype=np.intp)
        self.head = list(zip(live[:_HEAD].tolist(), ends[:_HEAD].tolist()))
        self.cut = self.head[-1][1] if self.head else 0
        size = int(a.indptr[-1])
        self.gather = np.empty(size, dtype=np.intp)
        self.data = None if np.all(a.data == 1.0) else np.empty(size)
        self.tail_rows = np.empty(size - self.cut, dtype=np.intp)
        rank, first = np.arange(n), a.indptr[self.order]
        for t in range(live.size):  # no (max degree x n) temporary
            k, e = int(live[t]), int(ends[t])
            entries = first[:k] + t
            self.gather[e - k:e] = a.indices[entries]
            if self.data is not None:
                self.data[e - k:e] = a.data[entries]
            if t >= _HEAD:
                self.tail_rows[e - k - self.cut:e - self.cut] = rank[:k]
        self.terms = a.data  # read above; from here on the scratch of every product

    def __call__(self, x: np.ndarray) -> np.ndarray:
        out, terms = np.empty(x.shape), self.terms
        for column, result in zip(x.T, out.T):
            np.take(column, self.gather, out=terms, mode="clip")  # "raise" would buffer a copy
            if self.data is not None:
                terms *= self.data
            sums = np.zeros(x.shape[0])
            for k, e in self.head:
                sums[:k] += terms[e - k:e]
            np.add.at(sums, self.tail_rows, terms[self.cut:])
            result[self.order] = sums
        return out


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
    if np.any(np.diff(np.sort(s)) == 0):  # not np.unique, whose first call loads numpy.ma
        raise ValueError("node sets must not contain duplicates")
    return s


def _check_partition_size(q: ModularityMatrix, partition: Partition) -> None:
    if partition.n != q.n:
        raise ValueError(
            f"partition covers {partition.n} nodes but q has {q.n}"
        )
