"""Softmax clustering on a modularity-style similarity matrix.

Each node carries a probability row over K clusters. Nodes are visited
in index order and re-weighted multiplicatively by the exponential of
their covariance-weighted cluster affinities; every single-node update
is guaranteed not to decrease the clustering objective, so the sweep
sequence climbs monotonically to a local optimum. Clamping some rows to
one-hot labels turns the same loop into a semi-supervised classifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .modularity import Partition
from .spectral import Embedding

LabelSet = Mapping[int, int]

_ROW_TOL = 1e-12


@dataclass(frozen=True)
class StochasticEmbedding:
    """Row-stochastic soft assignment with its optimization trace.

    ``history`` holds the objective at initialization and after each
    sweep; ``converged`` records whether the gain threshold was reached
    before the sweep budget ran out.
    """

    h: np.ndarray
    theta: float
    sweeps: int
    history: np.ndarray
    converged: bool

    def __post_init__(self) -> None:
        h = np.asarray(self.h, dtype=float)
        if h.ndim != 2 or h.size == 0:
            raise ValueError("h must be a non-empty 2-d array")
        if not (h.min() >= 0 and np.max(np.abs(h.sum(axis=1) - 1.0)) <= _ROW_TOL):
            raise ValueError("rows of h must be probability distributions")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "history", np.asarray(self.history, dtype=float))

    @property
    def n(self) -> int:
        return self.h.shape[0]

    @property
    def k(self) -> int:
        return self.h.shape[1]


def zero_diagonal(q: np.ndarray) -> np.ndarray:
    """Copy of q with the self-pair terms removed."""
    out = np.array(q, dtype=float, copy=True)
    np.fill_diagonal(out, 0.0)
    return out


def softmax_objective(q: np.ndarray, h: np.ndarray) -> float:
    """Clustering objective sum_k sum_{u != w} q(u, w) h(u, k) h(w, k).

    Requires the diagonal of q to be zeroed so the u = w terms drop out.
    """
    q = np.asarray(q, dtype=float)
    if np.max(np.abs(np.diag(q))) != 0.0:
        raise ValueError("objective requires a zero-diagonal q")
    h = np.asarray(h, dtype=float)
    return float(np.sum(h * (q @ h)))


def update_node(q: np.ndarray, h: np.ndarray, u: int, theta: float) -> None:
    """Re-weight node u's row in place by its cluster affinities.

    z_k = sum_{w != u} q(w, u) h(w, k); the row becomes
    h(u, :) * exp(theta * z) renormalized. The largest z over the row's
    support is subtracted before exponentiation, which changes nothing
    in exact arithmetic and keeps the exponentials in range (support
    only, so coordinates already at zero cannot drag in an overflowing
    exponent).
    """
    z = h.T @ q[:, u]
    row = h[u]
    support = row > 0
    shifted = theta * (z[support] - z[support].max())
    new = np.zeros_like(row)
    new[support] = row[support] * np.exp(shifted)
    h[u] = new / new.sum()


def softmax_sweep(
    q: np.ndarray,
    h: np.ndarray,
    theta: float,
    clamped: np.ndarray | None = None,
) -> np.ndarray:
    """One full pass of in-place node updates in ascending index order.

    Rows flagged in ``clamped`` are skipped untouched. Each update sees
    the rows already rewritten earlier in the same sweep.
    """
    n = h.shape[0]
    for u in range(n):
        if clamped is not None and clamped[u]:
            continue
        update_node(q, h, u, theta)
    return h


def _perturbed_uniform(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    h = 1.0 + 0.1 * rng.uniform(-1.0, 1.0, size=(n, k))
    return h / h.sum(axis=1, keepdims=True)


def _run_sweeps(
    q: np.ndarray,
    h: np.ndarray,
    theta: float,
    max_sweeps: int,
    tol: float,
    clamped: np.ndarray,
) -> StochasticEmbedding:
    history = [softmax_objective(q, h)]
    converged = False
    sweeps = 0
    for _ in range(max_sweeps):
        softmax_sweep(q, h, theta, clamped)
        sweeps += 1
        obj = softmax_objective(q, h)
        history.append(obj)
        if obj - history[-2] < tol * max(1.0, abs(obj)):
            converged = True
            break
    return StochasticEmbedding(
        h=h, theta=theta, sweeps=sweeps, history=np.array(history), converged=converged
    )


def _prepare(q: np.ndarray, normalize: bool) -> np.ndarray:
    q0 = zero_diagonal(q)
    if normalize:
        top = np.max(np.abs(q0))
        if top > 0:
            q0 = q0 / top
    return q0


def softmax_cluster(
    q: np.ndarray,
    k: int,
    theta: float | None = None,
    seed: int = 0,
    max_sweeps: int = 1000,
    tol: float = 1e-12,
    normalize: bool = False,
) -> StochasticEmbedding:
    """Softly cluster nodes into 2 <= k <= n groups.

    This is :func:`softmax_classify` with no labeled nodes; the other
    parameters mean the same there.
    """
    n = np.shape(q)[0]
    if k < 2:
        raise ValueError("clustering needs at least two clusters")
    if k > n:
        raise ValueError(f"cannot split {n} nodes into {k} clusters")
    return softmax_classify(
        q, {}, k, theta=theta, seed=seed, max_sweeps=max_sweeps, tol=tol, normalize=normalize
    )


def softmax_classify(
    q: np.ndarray,
    labels: LabelSet,
    k: int,
    theta: float | None = None,
    seed: int = 0,
    max_sweeps: int = 1000,
    tol: float = 1e-12,
    normalize: bool = False,
) -> StochasticEmbedding:
    """Label-clamped softmax ascent: labeled rows stay one-hot, the rest move.

    Parameters
    ----------
    q : (n, n) array
        Symmetric similarity matrix; its diagonal is ignored.
    labels : mapping
        Partial map from node index to class index below k; may be empty.
    k : int
        Number of classes, k >= 2.
    theta : float, optional
        Inverse temperature; defaults to n**2, matching the natural
        1/n**2 scale of modularity entries.
    seed : int
        Seed for the perturbed-uniform initialization.
    max_sweeps, tol : int, float
        Stop after a sweep whose objective gain falls below
        tol * max(1, |objective|), or after max_sweeps sweeps.
    normalize : bool
        Pre-scale q by 1 / max |q| first.
    """
    q = np.asarray(q, dtype=float)
    n = q.shape[0]
    if k < 2:
        raise ValueError("classification needs at least two classes")
    q0 = _prepare(q, normalize)
    if theta is None:
        theta = float(n * n)
    if theta <= 0:
        raise ValueError("theta must be positive")
    clamped = np.zeros(n, dtype=bool)
    rng = np.random.default_rng(seed)
    h = _perturbed_uniform(n, k, rng)
    for node, cls in labels.items():
        if not 0 <= node < n:
            raise ValueError(f"labeled node {node} out of range")
        if not 0 <= cls < k:
            raise ValueError(f"label {cls} out of range for k={k}")
        h[node] = 0.0
        h[node, cls] = 1.0
        clamped[node] = True
    return _run_sweeps(q0, h, theta, max_sweeps, tol, clamped)


def hard_assign(embedding: StochasticEmbedding | Embedding | np.ndarray) -> Partition:
    """Collapse soft rows to their most probable cluster.

    Ties break toward the smallest cluster index. The partition keeps
    the original k even if some clusters end up empty.
    """
    if isinstance(embedding, (StochasticEmbedding, Embedding)):
        h = embedding.h
    else:
        h = np.asarray(embedding, dtype=float)
    return Partition(assignment=np.argmax(h, axis=1), k=h.shape[1])

