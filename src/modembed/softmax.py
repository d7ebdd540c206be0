"""Softmax clustering on a modularity-style similarity matrix.

Nodes are visited in ascending index order; node u's probability row
over K clusters is re-weighted by exp(theta z_u), with affinities
z_u = sum_{w != u} q(u, w) h_w, and renormalized. No update lowers the
objective, and clamping rows to one-hot labels makes the same ascent a
semi-supervised classifier. Q is read as B + L R^T, with the self pair
subtracted rather than zeroed in a copy: B dense (not copied), the edge
covariance's sparse A/2m with L = -p_u and R = p_u, or an embedding H
with L = R = H and no B. G = R^T h is kept current as rows change, like
Louvain's community degree sums (Blondel et al. 2008). As Louvain stops
revisiting nodes that cannot move, a sweep skips every row with a single
positive entry: the update maps it to itself, and a row's support never
grows back. Labeled rows are such one-hot rows from the start.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .graph import csr_adjacency
from .modularity import CovarianceOperator, ModularityMatrix, Partition
from .spectral import Embedding, _check_symmetric, _row_blocks, _uniforms

LabelSet = Mapping[int, int]
Similarity = np.ndarray | ModularityMatrix | CovarianceOperator | Embedding

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


# Q = scale (b + left right^T), its diagonal scale diag; b a graph.CSR, an array or None.
_Form = namedtuple("_Form", "b left right diag scale", defaults=(1.0,))


def _form(q: Similarity, normalize: bool = False) -> _Form:
    """q as sparse plus rank one (edge), rank k (H: Q = HH^T) or dense,
    scaled by 1 / max |q(u, w)| over u != w with ``normalize``."""
    if isinstance(q, Embedding):
        f = _Form(None, q.h, q.h, np.einsum("ij,ij->i", q.h, q.h))
    elif isinstance(q, CovarianceOperator) and q.length == 1:
        a, p = csr_adjacency(q.graph), q.p_u
        np.divide(a.data, q.graph.total_weight, out=a.data)  # A/2m in the fresh CSR's own data
        f = _Form(a, -p[:, None], p[:, None], -p * p)
    else:
        b = q.q if hasattr(q, "q") else _check_symmetric(q)
        f = _Form(b, None, None, np.diag(b))
    top = _off_diagonal_max(f) if normalize else 0.0
    return f._replace(scale=1.0 / top) if top > 0 else f


def _off_diagonal_max(f: _Form) -> float:
    """max |q(u, w)| over u != w: in row blocks, or for the edge form over
    its edges and the largest p_u p_w of a non-adjacent pair, scanning nodes
    by descending degree. The rank-k form's blocks H[b] @ H.T round by their
    height, which n alone sets, and need not have the bits of H @ H.T."""
    n, a = f.diag.size, f.b
    if f.left is None or a is None:
        top = 0.0
        for b in _row_blocks(n, n):
            block = np.abs(a[b] if f.left is None else f.left[b] @ f.right.T)
            np.fill_diagonal(block[:, b.start:], 0.0)
            top = max(top, float(block.max()))
        return top
    p = f.right[:, 0]
    top = float(np.max(np.abs(a.data - np.repeat(p, np.diff(a.indptr)) * p[a.indices]), initial=0))
    order = np.argsort(-p, kind="stable").tolist()
    for u in order:
        if p[u] * p[order[0]] <= top:
            break
        near = set(a.indices[a.indptr[u]:a.indptr[u + 1]].tolist()) | {u}
        w = next((w for w in order if w not in near), None)
        if w is not None:
            top = max(top, float(p[u] * p[w]))
    return top


def softmax_objective(q: np.ndarray, h: np.ndarray) -> float:
    """Clustering objective sum_k sum_{u != w} q(u, w) h(u, k) h(w, k).

    A dense q must have a zero diagonal; a form subtracts its diagonal terms.
    """
    h = np.asarray(h, dtype=float)
    if isinstance(q, _Form):
        obj = _quadratic(q.b, h)
        if q.left is not None:
            obj += np.sum((q.left.T @ h) * (q.right.T @ h))
        return float(q.scale * (obj - np.sum(q.diag * np.einsum("ij,ij->i", h, h))))
    q = np.asarray(q, dtype=float)
    if np.max(np.abs(np.diag(q))) != 0.0:
        raise ValueError("objective requires a zero-diagonal q")
    return float(np.sum(h * (q @ h)))


def update_node(q: np.ndarray, h: np.ndarray, u: int, theta: float) -> None:
    """Re-weight node u's row in place by z = sum_{w != u} q(u, w) h(w, :)."""
    _reweight(h, u, q[u] @ h - q[u, u] * h[u], theta)


def _reweight(h: np.ndarray, u: int, z: np.ndarray, theta: float) -> None:
    """Row u becomes h(u, :) exp(theta z), renormalized; max z on its support
    is subtracted first, so no exponent overflows."""
    row = h[u]
    support = row > 0
    if support.all():  # the same arithmetic without the mask, so the same bits
        new = row * np.exp(theta * (z - z.max()))
    else:
        new = np.zeros_like(row)
        new[support] = row[support] * np.exp(theta * (z[support] - z[support].max()))
    h[u] = new / new.sum()


def _row_product(b):
    """u, h -> B[u] h for the three kinds of B."""
    if b is None:
        return lambda u, h: 0.0
    if isinstance(b, np.ndarray):
        return lambda u, h: b[u] @ h
    ptr, idx, val = b.indptr.tolist(), b.indices, b.data
    return lambda u, h: val[ptr[u]:ptr[u + 1]] @ h[idx[ptr[u]:ptr[u + 1]]]


def _quadratic(b, h: np.ndarray) -> float:
    """sum_u h_u . (B h)_u for the three kinds of B. A CSR B is summed over
    its entries, one dot of 4096 weights with their pairs' h_u . h_w at a
    time, rows found in indptr; the pairs are gathered 512 at a time, so
    no (nnz, K) gather is held, nor a (4096, K) one."""
    if b is None or isinstance(b, np.ndarray):
        return 0.0 if b is None else float(np.sum(h * (b @ h)))
    total, pair = 0.0, np.empty(4096)
    for s in range(0, b.data.size, 4096):
        e = np.arange(s, min(s + 4096, b.data.size))
        rows = np.searchsorted(b.indptr, e, "right") - 1
        for i in range(0, e.size, 512):
            c = slice(i, min(i + 512, e.size))
            np.einsum("ij,ij->i", h[rows[c]], h[b.indices[e[c]]], out=pair[c])
        total += b.data[e] @ pair[:e.size]
    return total


def softmax_sweep(q: np.ndarray, h: np.ndarray, theta: float) -> np.ndarray:
    """One full pass of in-place node updates in ascending index order.

    Rows with a single positive entry, labeled rows among them, are fixed
    points of the update and are skipped; the live rows are chosen once,
    at the start of the sweep. Each update sees the rows already
    rewritten earlier in the same sweep.
    """
    f = q if isinstance(q, _Form) else _form(q)
    row, theta = _row_product(f.b), theta * f.scale
    g = None if f.left is None else f.right.T @ h
    live = (h > 0).sum(axis=1) > 1
    for u in np.flatnonzero(live).tolist():
        old, z = h[u].copy(), row(u, h) - f.diag[u] * h[u]
        _reweight(h, u, z if g is None else z + f.left[u] @ g, theta)
        if g is not None:
            g += f.right[u][:, None] * (h[u] - old)
    return h


def _perturbed_uniform(n: int, k: int, seed: int) -> np.ndarray:
    """Rows of 1 + 0.1 v, v uniform on [-1, 1) from ``_uniforms(seed)``, normalized."""
    h = 1.0 + 0.1 * (2.0 * _uniforms(seed, n * k).reshape(n, k) - 1.0)
    return h / h.sum(axis=1, keepdims=True)


def _run_sweeps(
    q: _Form,
    h: np.ndarray,
    theta: float,
    max_sweeps: int,
    tol: float,
) -> StochasticEmbedding:
    history = [softmax_objective(q, h)]
    converged = False
    sweeps = 0
    for _ in range(max_sweeps):
        moved = bool(np.any((h > 0).sum(axis=1) > 1))  # a sweep with no live row changes no h
        softmax_sweep(q, h, theta)
        sweeps += 1
        obj = softmax_objective(q, h) if moved else history[-1]
        history.append(obj)
        if obj - history[-2] < tol * max(1.0, abs(obj)):
            converged = True
            break
    return StochasticEmbedding(
        h=h, theta=theta, sweeps=sweeps, history=np.array(history), converged=converged
    )


def softmax_cluster(
    q: Similarity,
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
    n = getattr(q, "n", None) or np.shape(q)[0]
    if k < 2:
        raise ValueError("clustering needs at least two clusters")
    if k > n:
        raise ValueError(f"cannot split {n} nodes into {k} clusters")
    return softmax_classify(
        q, {}, k, theta=theta, seed=seed, max_sweeps=max_sweeps, tol=tol, normalize=normalize
    )


def softmax_classify(
    q: Similarity,
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
    q : (n, n) array, ModularityMatrix, CovarianceOperator or Embedding H
        Symmetric similarity matrix (HH^T for H); its diagonal is ignored.
    labels : mapping
        Partial map from node index to class index below k; may be empty.
    k : int
        Number of classes, k >= 2.
    theta : float, optional
        Inverse temperature; defaults to n**2, matching the natural
        1/n**2 scale of modularity entries.
    seed : int
        Nonnegative seed for the perturbed-uniform initialization.
    max_sweeps, tol : int, float
        Stop after a sweep whose objective gain falls below
        tol * max(1, |objective|), or after max_sweeps sweeps. tol = 0
        stops at the first negative gain, which near a fixed point is
        roundoff: on the karate club's dense edge Q (k = 3, seed 1) the
        ascent stops after 92 sweeps on a gain of -5.6e-17.
    normalize : bool
        Pre-scale q by 1 / max |q(u, w)| over u != w first.
    """
    if k < 2:
        raise ValueError("classification needs at least two classes")
    form = _form(q, normalize)
    n = form.diag.size
    if theta is None:
        theta = float(n * n)
    if theta <= 0:
        raise ValueError("theta must be positive")
    h = _perturbed_uniform(n, k, seed)
    for node, cls in labels.items():
        if not 0 <= node < n:
            raise ValueError(f"labeled node {node} out of range")
        if not 0 <= cls < k:
            raise ValueError(f"label {cls} out of range for k={k}")
        h[node] = 0.0
        h[node, cls] = 1.0
    return _run_sweeps(form, h, theta, max_sweeps, tol)


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

