"""Eigensolvers, spectral embeddings, and the objectives they optimize.

The embedding of a graph is read off the top eigenvectors of its
modularity matrix. Two solver routes are provided: a dense LAPACK
decomposition (the default of ``top_k_eigen``, exact, and the faster
route for whole spectra and small matrices) and a thick-restarted block
Krylov iteration that touches the matrix only through block products,
which is faster for a few leading pairs of a large matrix
(``krylov_pays`` says when). Both routes meet the same residual
contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import NumericalError

if TYPE_CHECKING:
    from .modularity import ModularityMatrix

_SIGN_TOL = 1e-12
_RESIDUAL_BOUND = 1e-8
_ORTHO_TOL = 1e-10
_KRYLOV_BLOCKS = 8
_RANK_DROP = 1e-10


# ===================================================================
# Result types
# ===================================================================


@dataclass(frozen=True)
class EigenPairs:
    """Top eigenpairs of a symmetric matrix, eigenvalues descending.

    Columns of ``vectors`` are orthonormal and each has its first
    component larger than 1e-12 in absolute value made positive, so
    repeated runs produce identical output.
    """

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        vectors = np.asarray(self.vectors, dtype=float)
        if vectors.ndim != 2 or values.ndim != 1 or vectors.shape[1] != values.shape[0]:
            raise ValueError("vectors must be (n, k) with one column per eigenvalue")
        if not np.all(np.diff(values) <= 1e-12):
            raise ValueError("eigenvalues must be finite and sorted in descending order")
        gram = vectors.T @ vectors
        if not np.max(np.abs(gram - np.eye(vectors.shape[1]))) <= _ORTHO_TOL:
            raise ValueError("eigenvector columns are not orthonormal")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "vectors", vectors)


@dataclass(frozen=True)
class Embedding:
    """Node coordinates with orthonormal columns, one row per node.

    Soft cluster assignments, whose rows are probability vectors, are
    :class:`~modembed.softmax.StochasticEmbedding` instead.
    """

    h: np.ndarray

    def __post_init__(self) -> None:
        h = np.asarray(self.h, dtype=float)
        if h.ndim != 2:
            raise ValueError("embedding must be a 2-d array")
        gram = h.T @ h
        if not np.max(np.abs(gram - np.eye(h.shape[1]))) <= _ORTHO_TOL:
            raise ValueError("spectral embedding columns must be orthonormal")
        object.__setattr__(self, "h", h)

    @property
    def n(self) -> int:
        return self.h.shape[0]

    @property
    def k(self) -> int:
        return self.h.shape[1]


# ===================================================================
# Eigensolver
# ===================================================================


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its first component above 1e-12 is positive."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nonzero = np.flatnonzero(np.abs(col) > _SIGN_TOL)
        if nonzero.size and col[nonzero[0]] < 0:
            out[:, j] = -col
    return out


def _check_symmetric(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if m.size and not np.max(np.abs(m - m.T)) <= 1e-12:
        raise ValueError("matrix must be finite and symmetric")
    return m


def _dense_top_k(m: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    values, vectors = np.linalg.eigh(m)
    order = np.arange(m.shape[0] - 1, m.shape[0] - 1 - k, -1)
    return values[order], vectors[:, order]


def _power_top_k(
    m: np.ndarray, k: int, bound: float, max_iter: int
) -> tuple[np.ndarray, np.ndarray]:
    """Thick-restarted block Krylov iteration with Rayleigh-Ritz extraction.

    A fixed-seed block two columns wider than requested is extended by
    up to ``_KRYLOV_BLOCKS`` orthonormalized blocks m X, m^2 X, ...; the
    guard columns absorb leakage across the block boundary when
    eigenvalues cluster. The projected problem is solved by ``eigh``
    and the iteration restarts from the leading Ritz vectors, whose
    images under m come free from the images of the basis. A new
    direction whose norm after projection is below ``_RANK_DROP`` of
    its unprojected product is dropped, so an invariant subspace ends
    the extension instead of feeding roundoff into the basis. m is
    touched only through block products, and ``max_iter`` caps their
    number. The iteration stops once every wanted Ritz residual is at
    most ``bound``.
    """
    n = m.shape[0]
    rng = np.random.default_rng(0x5EED)
    x = np.linalg.qr(rng.standard_normal((n, min(n, k + 2))))[0]
    mx = m @ x
    products = 1
    while True:
        basis, images = [x], [mx]
        while products < max_iter and len(basis) <= _KRYLOV_BLOCKS:
            v, t = np.hstack(basis), images[-1]
            u, s, _ = np.linalg.svd(t - v @ (v.T @ t), full_matrices=False)
            u = u[:, s > _RANK_DROP * np.linalg.norm(t)]
            if not u.shape[1]:
                break
            # Directions just above the drop threshold lost orthogonality
            # to cancellation; one more projection restores it.
            u = np.linalg.qr(u - v @ (v.T @ u))[0]
            basis.append(u)
            images.append(m @ u)
            products += 1
        v, mv = np.hstack(basis), np.hstack(images)
        h = v.T @ mv
        theta, c = np.linalg.eigh(0.5 * (h + h.T))
        theta, c = theta[::-1][: x.shape[1]], c[:, ::-1][:, : x.shape[1]]
        x, mx = v @ c, mv @ c
        worst = float(np.linalg.norm(mx - x * theta, axis=0)[:k].max())
        if worst <= bound:
            return theta[:k], x[:, :k]
        if products >= max_iter or len(basis) == 1:
            raise NumericalError(
                f"block Krylov iteration did not converge: residual {worst:.3e} "
                f"after {products} block products"
            )


def krylov_pays(k: int, n: int) -> bool:
    """Whether the block Krylov route should beat the dense one for k of n pairs.

    The Krylov cost relative to a dense decomposition grows with the
    ratio of its basis width, (k + 2) * (_KRYLOV_BLOCKS + 1) columns, to
    n, and with how slowly the spectrum separates past the k-th pair.
    On planted partitions of 45 to 3200 nodes the route won whenever
    that width was at most n / 16 (0.06 to 0.96 of the dense time) and
    lost at some widths above n / 13; on lattices, whose leading
    eigenvalues crowd together, it can still lose by half within that
    bound.
    """
    return 16 * (k + 2) * (_KRYLOV_BLOCKS + 1) <= n


def top_k_eigen(
    m: np.ndarray,
    k: int,
    tol: float = 1e-10,
    max_iter: int = 10000,
    method: str = "dense",
) -> EigenPairs:
    """Compute the K algebraically largest eigenpairs of a symmetric matrix.

    Parameters
    ----------
    m : (n, n) array
        Symmetric input (asymmetry beyond 1e-12 is rejected).
    k : int
        Number of pairs, 1 <= k <= n.
    tol : float
        Residual tolerance for the iterative route, relative to
        max(1, inf-norm of m).
    max_iter : int
        Cap on the number of products of m with a block for the
        iterative route.
    method : str
        "dense" for a full LAPACK decomposition, "power" for a
        thick-restarted block Krylov iteration with Rayleigh-Ritz
        extraction.

    Raises
    ------
    NumericalError
        If the iterative route fails to converge, or a returned pair
        violates the residual contract.
    """
    m = _check_symmetric(m)
    n = m.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be between 1 and {n}, got {k}")
    scale = max(1.0, float(np.max(np.abs(m).sum(axis=1))))
    if method == "dense":
        values, vectors = _dense_top_k(m, k)
    elif method == "power":
        values, vectors = _power_top_k(m, k, tol * scale, max_iter)
    else:
        raise ValueError(f"unknown eigensolver method {method!r}")
    vectors = _fix_signs(vectors)
    bound = _RESIDUAL_BOUND * scale
    residuals = np.linalg.norm(m @ vectors - vectors * values, axis=0)
    if not residuals.max() <= bound:
        raise NumericalError(
            f"eigenpair residual {residuals.max():.3e} exceeds contract bound {bound:.3e}"
        )
    return EigenPairs(values=values, vectors=vectors)


def select_dimension(values: Sequence[float] | np.ndarray, k_max: int) -> int:
    """Pick an embedding dimension at the largest spectral gap.

    Scans positions k with a strictly positive k-th eigenvalue and
    returns the k maximizing values[k-1] - values[k]; ties go to the
    smallest k, and if no eigenvalue is positive the fallback is 1.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size < 2:
        raise ValueError("need at least two eigenvalues to select a dimension")
    if not np.all(np.diff(values) <= 1e-12):
        raise ValueError("eigenvalues must be finite and sorted in descending order")
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    upper = min(k_max, values.size)
    best_k = 1
    best_gap = -np.inf
    for k in range(1, upper):
        if values[k - 1] <= 0:
            continue
        gap = values[k - 1] - values[k]
        if gap > best_gap:
            best_gap = gap
            best_k = k
    return best_k


# ===================================================================
# Embeddings and objectives
# ===================================================================


def _as_matrix(q) -> np.ndarray:
    return q.q if hasattr(q, "q") else np.asarray(q, dtype=float)


def spectral_embedding(
    q: "ModularityMatrix | np.ndarray",
    k: int,
    tol: float = 1e-10,
    max_iter: int = 10000,
    method: str = "dense",
) -> Embedding:
    """Embed nodes as rows of the top-K eigenvector matrix of Q."""
    pairs = top_k_eigen(_as_matrix(q), k, tol=tol, max_iter=max_iter, method=method)
    return Embedding(h=pairs.vectors)


def weighted_distance_objective(q: "ModularityMatrix | np.ndarray", h: np.ndarray) -> float:
    """Covariance-weighted sum of squared embedding distances.

    Evaluates sum_u sum_w q(u, w) * ||h_u - h_w||^2 directly from the
    pairwise distances; the trace shortcut -2 tr(H^T Q H) is left to
    the caller (and to the tests, which check the two agree).
    """
    qm = _as_matrix(q)
    h = np.asarray(h, dtype=float)
    sq = (h * h).sum(axis=1)
    dist2 = sq[:, None] + sq[None, :] - 2.0 * (h @ h.T)
    return float((qm * dist2).sum())


def frobenius_objective(q: "ModularityMatrix | np.ndarray", h: np.ndarray) -> float:
    """Squared Frobenius error of the rank-K factorization ||Q - H H^T||^2."""
    r = _as_matrix(q) - h @ np.asarray(h, dtype=float).T
    return float((r * r).sum())


def reconstruct(embedding: Embedding) -> np.ndarray:
    """Rank-K similarity matrix H H^T recomposed from a spectral embedding."""
    return embedding.h @ embedding.h.T
