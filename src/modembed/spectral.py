"""Eigensolvers, spectral embeddings, and the objectives they optimize.

The embedding of a graph is read off the top eigenvectors of its
modularity matrix, its dimension off the spectrum (``eigenvalues``,
no vectors). ``top_k_eigen`` picks one of two routes: a dense LAPACK
decomposition, exact and faster for small matrices, or a thick-restart
Lanczos iteration in numpy, which touches the matrix only through
matrix-vector products, is faster for a few leading pairs of a large
covariance (``krylov_pays`` says when) and also runs on the matrix-free
covariance operator. Both meet the same residual contract, and neither
imports scipy nor numpy.random.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from itertools import repeat, starmap
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .errors import NumericalError

if TYPE_CHECKING:
    from .modularity import CovarianceOperator, ModularityMatrix

    Covariance = ModularityMatrix | CovarianceOperator

_SIGN_TOL = 1e-12
_RESIDUAL_BOUND = 1e-8
_ORTHO_TOL = 1e-10
_SPECTRUM_ULPS = 16  # times n * eps: the roundoff of n-term sums
_MAX_RESTARTS = 10000  # the restart budget of every Lanczos solve


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
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "vectors", Embedding(vectors).h)


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
    """Flip each column so its first component above 1e-12 is positive.

    Exact zeros come out as +0.0 whichever way their column pointed.
    """
    out = vectors + 0.0
    for j in range(out.shape[1]):
        col = out[:, j]
        nonzero = np.flatnonzero(np.abs(col) > _SIGN_TOL)
        if nonzero.size and col[nonzero[0]] < 0:
            out[:, j] = 0.0 - col
    return out


def _row_blocks(n: int, width: int) -> list[slice]:
    """Slices of n rows; a block of an n x ``width`` array is about 128 kB."""
    rows = max(1, 2**14 // max(1, width))
    return [slice(s, s + rows) for s in range(0, n, rows)]


def _symmetrize(m: np.ndarray) -> np.ndarray:
    """Overwrite square m with (m + m^T) / 2, one triangle block at a time,
    and return it; addition commutes, so the bits are ``0.5 * (m + m.T)``'s."""
    for b in _row_blocks(*m.shape):
        t = m[b.start:, b].T.copy()  # copies, unlike ufuncs, take no iterator buffers
        t += m[b, b.start:]
        t *= 0.5
        m[b, b.start:], m[b.start:, b] = t, t.T
        del t  # before the next block's t: one block alive at a time
    return m


def _check_symmetric(m: np.ndarray, tol: float = 1e-12, name: str = "matrix") -> np.ndarray:
    """m as a float array, square and within ``tol`` of its transpose; a
    NaN or infinite entry is not. Checked a 64 x 64 tile and its mirror
    at a time, on and above the diagonal; a tile's copy and numpy's buffer
    for its subtraction come to about 64 kB."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square")
    tiles = [slice(s, s + 64) for s in range(0, m.shape[0], 64)]
    for i, b in enumerate(tiles):
        for c in tiles[i:]:
            t = m[c, b].T.copy()  # copies, unlike ufuncs, take no iterator buffers
            t -= m[b, c]
            if not np.max(np.abs(t, out=t)) <= tol:
                raise ValueError(f"{name} must be finite and symmetric")
            del t  # before the next tile's t: one tile alive at a time
    return m


def _norm_inf(m: np.ndarray) -> float:
    """The largest absolute row sum, each row summed as in the whole array."""
    return max(float(np.abs(m[b]).sum(axis=1).max()) for b in _row_blocks(*m.shape))


def _orthogonalize(basis: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Project the rows of ``basis`` out of w in place, by two passes of
    classical Gram-Schmidt; the coefficients, both passes summed."""
    h = basis @ w
    w -= h @ basis
    c = basis @ w
    w -= c @ basis
    return h + c


def _gaussians(n: int) -> Iterator[np.ndarray]:
    """Vectors of n standard normal draws, all from one stdlib generator
    seeded 0x5EED, so reruns give the same bytes. Not numpy.random, whose
    import adds about 6 MB to a process that draws nothing else."""
    rnd = random.Random(0x5EED)
    while True:
        yield np.array([rnd.gauss(0.0, 1.0) for _ in range(n)])


def _uniforms(seed: int, n: int) -> np.ndarray:
    """n uniform draws on [0, 1) from a stdlib generator seeded ``seed``,
    taken through ``random()`` alone, whose sequence Python keeps across
    releases. Like ``_gaussians``, it leaves numpy.random unloaded. A
    negative seed is a ValueError and a non-integer one a TypeError:
    ``random.Random`` would seed stream s from -s, and take floats and
    strings."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    return np.fromiter(starmap(random.Random(seed).random, repeat((), n)), float, n)


def _lanczos(m: "np.ndarray | Covariance", n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Thick-restart Lanczos iteration (Wu & Simon 2000) for the
    algebraically largest k of n pairs, 1 <= k < n.

    Values come back descending, with their vectors as columns. m is
    touched only through products with one vector. The basis holds
    ncv = min(n, max(2k + 1, 20)) rows (eigsh's default), so every
    projection is a contiguous product, and each new row is orthogonalized
    twice. A restart keeps the top k + (ncv - k) // 2 Ritz vectors, which
    makes the iteration ARPACK's implicitly restarted Lanczos with exact
    shifts (Lehoucq & Sorensen 1996) in exact arithmetic. The projected
    T holds the three-term coefficients alone, and after a restart the
    kept Ritz values with their couplings beta s: filling it with every
    Gram-Schmidt coefficient puts roundoff into the residual estimates,
    which then hover at the stopping bound. It stops when every wanted
    pair's residual |beta s_i| is at most eps max|theta|, and raises
    NumericalError after ``_MAX_RESTARTS`` restarts. The start vector,
    and a fresh vector whenever the Krylov space closes on an invariant
    subspace, are the successive draws of ``_gaussians``.
    """
    draws, eps = _gaussians(n), np.finfo(float).eps
    ncv = min(n, max(2 * k + 1, 20))
    keep = k + (ncv - k) // 2
    basis, t = np.empty((ncv + 1, n)), np.zeros((ncv, ncv))
    w = next(draws)
    basis[0] = w / np.linalg.norm(w)
    start, beta = 0, 0.0
    for _ in range(_MAX_RESTARTS):
        for i in range(start, ncv):
            w = m @ basis[i]
            if i > start:
                t[i, i - 1] = t[i - 1, i] = beta
            t[i, i] = _orthogonalize(basis[:i + 1], w)[i]
            beta = np.linalg.norm(w)
            if beta > n * eps * np.abs(t).max():
                basis[i + 1] = w / beta
                continue
            beta = 0.0  # the basis spans an invariant subspace: go on from a fresh vector
            if i + 1 < ncv:
                w = next(draws)
                _orthogonalize(basis[:i + 1], w)
                basis[i + 1] = w / np.linalg.norm(w)
        theta, s = np.linalg.eigh(t)
        theta, s = theta[::-1], s[:, ::-1]
        if np.all(np.abs(beta * s[-1, :k]) <= eps * np.abs(theta).max()):
            break
        # T becomes an arrow: the kept Ritz values, coupled to the residual direction.
        basis[:keep] = s[:, :keep].T @ basis[:ncv]
        basis[keep] = basis[ncv]
        t[:] = 0.0
        np.fill_diagonal(t[:keep, :keep], theta[:keep])
        t[keep, :keep] = t[:keep, keep] = beta * s[-1, :keep]
        start = keep
    else:
        raise NumericalError(f"Lanczos iteration did not converge in {_MAX_RESTARTS} restarts")
    return theta[:k], (s[:, :k].T @ basis[:ncv]).T


def krylov_pays(k: int, n: int) -> bool:
    """Whether the Lanczos route should beat the dense one for k of n pairs.

    ``top_k_eigen`` asks this of every covariance, for the k it is given,
    and ``top_spectrum`` of every j it tries, one solve per j, so that
    early stop never runs below 1440 nodes (j = 8). The rule,
    144 (k + 2) <= n, errs towards the dense route: the iteration already
    beats the dense solve at k = 64 of 3200 nodes, which the rule sends
    to the dense route.
    """
    return 144 * (k + 2) <= n


def _within_contract(m: "np.ndarray | Covariance", values: np.ndarray, vectors: np.ndarray,
                     bound: float) -> EigenPairs:
    """The pairs, signs fixed, if every residual ||m v - lambda v|| is at
    most ``bound``; otherwise NumericalError."""
    vectors = _fix_signs(vectors)
    residuals = np.linalg.norm(m @ vectors - vectors * values, axis=0)
    if not residuals.max() <= bound:
        raise NumericalError(
            f"eigenpair residual {residuals.max():.3e} exceeds contract bound {bound:.3e}"
        )
    return EigenPairs(values=values, vectors=vectors)


def top_k_eigen(m: "np.ndarray | Covariance", k: int) -> EigenPairs:
    """Compute the K algebraically largest eigenpairs of a symmetric matrix.

    Parameters
    ----------
    m : (n, n) array, ModularityMatrix or CovarianceOperator
        Symmetric input. An array is checked here (asymmetry beyond
        1e-12 is rejected) and always decomposed densely, so it serves
        as the dense oracle. The two covariance forms were checked, or
        are symmetric by construction, and are used as they are: they
        take the Lanczos iteration when ``krylov_pays(k, n)``, and the
        dense decomposition of their ``q``, which the operator forms on
        first use, otherwise or when the iteration fails to converge or
        misses the residual contract.
    k : int
        Number of pairs, 1 <= k <= n.

    Raises
    ------
    NumericalError
        If the dense pairs violate the residual contract
        ||m v - lambda v|| <= 1e-8 max(1, ||m||_inf).
    """
    checked = hasattr(m, "norm_bound")  # a ModularityMatrix or CovarianceOperator
    if not checked:
        m = _check_symmetric(m)
    n = m.n if checked else m.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be between 1 and {n}, got {k}")
    norm = m.norm_bound if checked else _norm_inf(m)
    bound = _RESIDUAL_BOUND * max(1.0, norm)
    if checked and krylov_pays(k, n):
        try:
            return _within_contract(m, *_lanczos(m, n, k), bound)
        except NumericalError:  # the iteration gave up or missed the contract
            pass
    m = getattr(m, "q", m)
    values, vectors = np.linalg.eigh(m)
    order = np.arange(n - 1, n - 1 - k, -1)
    return _within_contract(m, values[order], vectors[:, order], bound)


def eigenvalues(m: "np.ndarray | Covariance") -> np.ndarray:
    """All eigenvalues of a symmetric matrix, descending, and no vectors.

    A covariance is decomposed through its dense ``q``. With no residual
    to check, the values must give back the trace and the squared
    Frobenius norm, |sum lambda - tr Q| <= 16 n eps ||Q||_F and
    |sum lambda^2 - ||Q||_F^2| <= 16 n eps ||Q||_F^2, or NumericalError
    is raised.
    """
    m = m.q if hasattr(m, "norm_bound") else _check_symmetric(m)
    values = np.linalg.eigvalsh(m)[::-1]
    fro = float(np.linalg.norm(m))
    bound = _SPECTRUM_ULPS * m.shape[0] * np.finfo(float).eps * fro
    trace_err, square_err = abs(values.sum() - np.trace(m)), abs(values @ values - fro * fro)
    if not (trace_err <= bound and square_err <= bound * fro):
        raise NumericalError(f"eigenvalues miss the trace by {trace_err:.3e} "
                             f"or the squared norm by {square_err:.3e}")
    return values


def select_dimension(values: Sequence[float] | np.ndarray) -> int:
    """Pick an embedding dimension at the largest spectral gap.

    Scans positions k whose k-th eigenvalue exceeds n eps max|lambda|,
    so that no roundoff copy of Q's exact zero eigenvalue counts as
    positive, and returns the k maximizing values[k-1] - values[k]; ties
    go to the smallest k, and with no candidate the fallback is 1.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size < 2:
        raise ValueError("need at least two eigenvalues to select a dimension")
    if not np.all(np.diff(values) <= 1e-12):
        raise ValueError("eigenvalues must be finite and sorted in descending order")
    floor = values.size * np.finfo(float).eps * np.abs(values).max()
    gaps = np.where(values[:-1] > floor, values[:-1] - values[1:], -np.inf)
    return int(np.argmax(gaps)) + 1


def top_spectrum(q: "Covariance") -> np.ndarray:
    """The top of Q's spectrum, completed to n values, when that settles
    ``select_dimension(values)``; otherwise ``eigenvalues(q)``.

    The Lanczos iteration computes the top j = 8, 16, ... eigenvalues while
    ``krylov_pays(j, n)``. Q 1 = 0, so 0 is an exact eigenvalue of Q; let
    tau = n eps ||Q||_inf (``norm_bound``), which bounds select_dimension's
    floor n eps max|lambda| from above and allows for roundoff in the
    computed zero. A candidate position past j holds a value above the
    floor, so the computed zero lies further down, the value after it is
    at least that zero, hence at least -tau, and its gap is at most
    lambda_j + tau: the negative spectrum never enters. So once
    lambda_j > tau and the best gap among the top j is strictly larger
    than lambda_j + tau, no gap further down can tie it, and the top j
    padded with -tau give the k the whole spectrum gives.

    Exactly: the result equals ``select_dimension(eigenvalues(q))``
    whenever the dense solver's copy of the zero eigenvalue lies in
    [-tau, floor], the premise the floor already rests on, and the
    converged Ritz values of the Lanczos iteration are the top j.

    The dense spectrum below 1440 nodes (``krylov_pays(8, n)`` fails),
    when a solve does not converge, or when no j settles.
    """
    n, j = q.n, 8
    tau = n * np.finfo(float).eps * q.norm_bound
    try:
        while krylov_pays(j, n):
            top = _lanczos(q, n, j)[0]
            if top[-1] > tau and np.max(top[:-1] - top[1:]) > top[-1] + tau:
                return np.concatenate([top, np.full(n - j, -tau)])
            j *= 2
    except NumericalError:  # a solve did not converge: the dense spectrum decides
        pass
    return eigenvalues(q)


# ===================================================================
# Embeddings and objectives
# ===================================================================


def _as_matrix(q) -> np.ndarray:
    return q.q if hasattr(q, "q") else np.asarray(q, dtype=float)


def spectral_embedding(q: "ModularityMatrix | np.ndarray", k: int) -> Embedding:
    """Embed nodes as rows of the top-K eigenvector matrix of Q."""
    return Embedding(h=top_k_eigen(q, k).vectors)


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
