"""Eigensolvers, spectral embeddings, and the objectives they optimize.

The embedding of a graph is read off the top eigenvectors of its
modularity matrix. Two solver routes are provided: a dense LAPACK
decomposition (the default, exact and fast at the scales this package
supports) and a shifted block power iteration, kept as an
independently-implemented route that the tests play off against the
dense one. The iterative route does its own orthonormalization and
solves its small projected problems with Jacobi rotations, so none of
its numerics are delegated to a library eigensolver.
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
        if np.any(np.diff(values) > 1e-12):
            raise ValueError("eigenvalues must be sorted in descending order")
        gram = vectors.T @ vectors
        if np.max(np.abs(gram - np.eye(vectors.shape[1]))) > _ORTHO_TOL:
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
        if np.max(np.abs(gram - np.eye(h.shape[1]))) > _ORTHO_TOL:
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
    if m.size and np.max(np.abs(m - m.T)) > 1e-12:
        raise ValueError("matrix must be symmetric")
    return m


def _dense_top_k(m: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    values, vectors = np.linalg.eigh(m)
    order = np.arange(m.shape[0] - 1, m.shape[0] - 1 - k, -1)
    return values[order], vectors[:, order]


def _jacobi_eigh(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a small symmetric matrix by cyclic Jacobi.

    Plane rotations annihilate off-diagonal entries sweep by sweep;
    convergence is quadratic, so a handful of sweeps reaches machine
    precision at the block sizes used here.
    """
    a = np.array(s, dtype=float)
    n = a.shape[0]
    vectors = np.eye(n)
    if n < 2:
        return np.diag(a).copy(), vectors
    for _ in range(60):
        off = np.abs(a - np.diag(np.diag(a))).max()
        if off <= 1e-15 * max(1.0, float(np.abs(a).max())):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                if tau >= 0:
                    t = 1.0 / (tau + np.hypot(1.0, tau))
                else:
                    t = -1.0 / (-tau + np.hypot(1.0, tau))
                c = 1.0 / np.hypot(1.0, t)
                sn = t * c
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * col_p - sn * col_q
                a[:, q] = sn * col_p + c * col_q
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * row_p - sn * row_q
                a[q, :] = sn * row_p + c * row_q
                a[p, q] = a[q, p] = 0.0
                vec_p, vec_q = vectors[:, p].copy(), vectors[:, q].copy()
                vectors[:, p] = c * vec_p - sn * vec_q
                vectors[:, q] = sn * vec_p + c * vec_q
    return np.diag(a).copy(), vectors


def _orthonormalize(w: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Orthonormalize columns by modified Gram-Schmidt, two passes.

    A column that collapses onto the span of its predecessors is
    replaced with a fresh random direction so the block keeps full
    rank.
    """
    n, b = w.shape
    out = np.zeros((n, b))
    for j in range(b):
        v = w[:, j].copy()
        reference = max(float(np.linalg.norm(v)), 1e-30)
        for _ in range(2):
            for i in range(j):
                v -= (out[:, i] @ v) * out[:, i]
        norm = float(np.linalg.norm(v))
        while norm <= 1e-12 * reference:
            v = rng.standard_normal(n)
            reference = float(np.linalg.norm(v))
            for _ in range(2):
                for i in range(j):
                    v -= (out[:, i] @ v) * out[:, i]
            norm = float(np.linalg.norm(v))
        out[:, j] = v / norm
    return out


_CHECK_EVERY = 10


def _power_top_k(
    m: np.ndarray, k: int, tol: float, max_iter: int
) -> tuple[np.ndarray, np.ndarray]:
    """Shifted block power iteration with Rayleigh-Ritz extraction.

    The Gershgorin bound supplies a shift that makes the spectrum
    nonnegative, so the algebraically largest eigenvalues of the input
    dominate the shifted matrix. A block two columns wider than
    requested is iterated and reorthonormalized; the guard columns
    absorb leakage across the block boundary, which keeps the method
    stable when eigenvalues cluster. Eigenpairs are read off the
    projected block problem, and iteration stops once every requested
    pair meets the residual target against the original matrix.
    """
    n = m.shape[0]
    scale = max(1.0, float(np.max(np.abs(m).sum(axis=1))) if n else 1.0)
    radii = np.abs(m).sum(axis=1) - np.abs(np.diag(m))
    lower = float(np.min(np.diag(m) - radii)) if n else 0.0
    sigma = max(0.0, -lower)
    rng = np.random.default_rng(0x5EED)
    block = min(n, k + 2)
    v = _orthonormalize(rng.standard_normal((n, block)), rng)
    best = np.inf
    for iteration in range(1, max_iter + 1):
        t = m @ v
        if iteration % _CHECK_EVERY == 0 or iteration == max_iter:
            s = v.T @ t
            theta, c = _jacobi_eigh(0.5 * (s + s.T))
            order = np.argsort(-theta, kind="stable")[:k]
            values = theta[order]
            y = v @ c[:, order]
            residuals = np.linalg.norm(t @ c[:, order] - y * values, axis=0)
            worst = float(residuals.max())
            if worst <= tol * scale:
                return values, y
            best = min(best, worst)
        v = _orthonormalize(t + sigma * v, rng)
    raise NumericalError(
        f"power iteration did not converge: residual {best:.3e} "
        f"after {max_iter} iterations"
    )


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
        Iteration cap per eigenpair for the iterative route.
    method : str
        "dense" for a full LAPACK decomposition, "power" for shifted
        block power iteration with Rayleigh-Ritz extraction.

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
    if method == "dense":
        values, vectors = _dense_top_k(m, k)
    elif method == "power":
        values, vectors = _power_top_k(m, k, tol, max_iter)
    else:
        raise ValueError(f"unknown eigensolver method {method!r}")
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vectors = _fix_signs(vectors[:, order])
    bound = _RESIDUAL_BOUND * max(1.0, float(np.max(np.abs(m).sum(axis=1))))
    residuals = np.linalg.norm(m @ vectors - vectors * values, axis=0)
    if np.any(residuals > bound):
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
    if np.any(np.diff(values) > 1e-12):
        raise ValueError("eigenvalues must be sorted in descending order")
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
