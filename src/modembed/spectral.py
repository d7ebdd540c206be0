"""Eigensolvers, spectral embeddings, and the objectives they optimize.

The embedding of a graph is read off the top eigenvectors of its
modularity matrix, its dimension off the spectrum (``eigenvalues``,
no vectors) or off the top pairs alone (``top_spectrum``), which are
then the embedding too. ``top_k_eigen`` picks one of two routes: a
dense LAPACK decomposition, exact and faster for small matrices, or a
thick-restart Lanczos iteration in numpy, which touches the matrix
only through matrix-vector products, is faster for a few leading pairs
of a large covariance (``krylov_pays`` says when) and also runs on the
matrix-free covariance operator. Both meet the same residual contract,
and neither imports scipy nor numpy.random.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from itertools import count, repeat, starmap
from typing import TYPE_CHECKING, Sequence

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
    """Overwrite square m with (m + m^T) / 2, one triangle block at a time, and return it;
    addition commutes, so the bits are ``0.5 * (m + m.T)``'s. Called only where walk products
    round asymmetrically: ``random_walk_sampling`` and the walk ``CovarianceOperator.q``."""
    for b in _row_blocks(*m.shape):
        t = m[b.start:, b].T.copy()  # copies, unlike ufuncs, take no iterator buffers
        t += m[b, b.start:]
        t *= 0.5
        m[b, b.start:], m[b.start:, b] = t, t.T
        del t  # before the next block's t: one block alive at a time
    return m


def _check_symmetric(m: np.ndarray, tol: float = 1e-12, name: str = "matrix") -> np.ndarray:
    """m as a float array, square and within ``tol`` of its transpose (a NaN or
    infinite entry is not), returned exactly symmetric: a tile pair that differs
    is averaged, with ``_symmetrize``'s bits, into a copy, and m is never written.
    Read a 64 x 64 tile and its mirror at a time, on and above the diagonal; a
    tile's copy and numpy's buffer for its subtraction come to about 64 kB."""
    m = out = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square")
    tiles = [slice(s, s + 64) for s in range(0, m.shape[0], 64)]
    for i, b in enumerate(tiles):
        for c in tiles[i:]:
            t = m[c, b].T.copy()  # copies, unlike ufuncs, take no iterator buffers
            t -= m[b, c]
            if not (gap := np.max(np.abs(t, out=t))) <= tol:
                raise ValueError(f"{name} must be finite and symmetric")
            if gap:
                out = m.copy() if out is m else out
                t = 0.5 * (m[c, b].T + m[b, c])
                out[b, c], out[c, b] = t, t.T
            del t  # before the next tile's t: one tile alive at a time
    return out


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


def _uniforms(seed: int, n: int) -> np.ndarray:
    """n uniform draws on [0, 1) from a stdlib generator seeded ``seed``,
    taken through ``random()`` alone, whose sequence Python keeps across
    releases. Every seeded draw of the library's commands comes from here:
    the Lanczos start vectors, the L+ probe, the softmax start and the
    train/test split. Not numpy.random, whose import adds about 6 MB to a
    process that draws nothing else. A negative seed is a ValueError and a
    non-integer one a TypeError: ``random.Random`` would seed stream s from
    -s, and take floats and strings."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    return np.fromiter(starmap(random.Random(seed).random, repeat((), n)), float, n)


class LanczosState:
    """A thick-restart Lanczos iteration (Wu & Simon 2000) between sweeps:
    orthonormal rows ``basis[:-1]``, m's projection T onto them as its
    eigenvalues ``theta``, descending, and eigenvectors ``s``, and the
    residual direction r = ``basis[-1]``: m maps Ritz vector i to theta_i
    times itself plus ``residuals[i]`` r. A new state is empty, r its start
    vector 2u - 1 for u = ``_uniforms(0x5EED, n)``; the i-th fresh vector,
    drawn when the Krylov space closes on an invariant subspace, comes from
    seed 0x5EED + i. It counts ``products`` with m and ``restarts``."""

    def __init__(self, n: int) -> None:
        self.draws = (2.0 * _uniforms(0x5EED + i, n) - 1.0 for i in count())
        w = next(self.draws)
        self.basis = (w / np.linalg.norm(w))[None]
        self.theta, self.s, self.residuals = np.zeros(0), np.zeros((0, 0)), np.zeros(0)
        self.products = self.restarts = 0

    def ritz(self, k: int) -> tuple[np.ndarray, np.ndarray] | None:
        """Top k Ritz values and vectors (columns) if all |residuals_i| <= eps max|theta|."""
        theta, eps = self.theta, np.finfo(float).eps
        if len(theta) < k or not np.all(np.abs(self.residuals[:k]) <= eps * np.abs(theta).max()):
            return None
        return theta[:k], (self.s[:, :k].T @ self.basis[:len(theta)]).T


def _lanczos(m: "np.ndarray | Covariance", k: int, state: LanczosState) -> tuple[np.ndarray, np.ndarray]:
    """Sweep ``state`` until ``state.ritz(k)`` gives the top k of n pairs,
    1 <= k < n, and return them; NumericalError after ``_MAX_RESTARTS`` sweeps.

    m is touched only through products with one vector. A sweep keeps
    Ritz vectors and r, coupled in an arrow T, and extends them to ncv =
    max(len(theta), min(n, max(2k + 1, 20))) rows (eigsh's default) of one
    array, each orthogonalized twice. A basis that grows, from an empty
    state or for a larger k, keeps every Ritz vector; a restart keeps the
    top k + (ncv - k) // 2: in exact arithmetic ARPACK's implicitly
    restarted Lanczos with exact shifts (Lehoucq & Sorensen 1996). Past the
    arrow T holds the three-term coefficients alone, as Gram-Schmidt's
    would put roundoff into the residual estimates."""
    n, eps = state.basis.shape[1], np.finfo(float).eps
    ncv = max(len(state.theta), min(n, max(2 * k + 1, 20)))
    for _ in range(_MAX_RESTARTS):
        p = len(state.theta)  # a restart keeps the top Ritz vectors, a growth all of them
        keep, basis = (k + (ncv - k) // 2, state.basis) if p == ncv else (p, np.empty((ncv + 1, n)))
        basis[:keep], basis[keep] = state.s[:, :keep].T @ state.basis[:p], state.basis[p]
        t = np.zeros((ncv, ncv))
        np.fill_diagonal(t[:keep, :keep], state.theta[:keep])
        t[keep, :keep] = t[:keep, keep] = state.residuals[:keep]
        for i in range(keep, ncv):
            w = m @ basis[i]
            if i > keep:
                t[i, i - 1] = t[i - 1, i] = beta
            t[i, i] = _orthogonalize(basis[:i + 1], w)[i]
            beta = np.linalg.norm(w)
            if beta > n * eps * np.abs(t).max():
                basis[i + 1] = w / beta
                continue
            beta = 0.0  # the basis spans an invariant subspace: go on from a fresh vector
            if i + 1 < n:
                w = next(state.draws)
                _orthogonalize(basis[:i + 1], w)
                basis[i + 1] = w / np.linalg.norm(w)
        theta, s = np.linalg.eigh(t)
        state.basis, state.theta, state.s = basis, theta[::-1], s[:, ::-1]
        state.residuals = beta * state.s[-1]
        state.products, state.restarts = state.products + ncv - keep, state.restarts + (p > 0)
        if (pairs := state.ritz(k)) is not None:
            return pairs
    raise NumericalError(f"Lanczos iteration did not converge in {_MAX_RESTARTS} restarts")


def krylov_pays(k: int, n: int) -> bool:
    """Whether the Lanczos route should beat the dense one for k of n pairs,
    asked by ``top_k_eigen`` of every covariance and by ``top_spectrum`` of
    every rung j, so early stop never runs below 1440 nodes (j = 8). The
    rule, 144 (k + 2) <= n, errs towards the dense route: the iteration
    already beats the dense solve at k = 64 of 3200 nodes, which it sends
    to the dense route."""
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


def top_k_eigen(m: "np.ndarray | Covariance", k: int, state: LanczosState | None = None) -> EigenPairs:
    """The k algebraically largest eigenpairs, 1 <= k <= n, of a symmetric
    (n, n) array, ModularityMatrix or CovarianceOperator m.

    An array is checked here (asymmetry beyond 1e-12 is rejected, less is
    averaged) and always decomposed densely: it is the dense oracle. The
    covariance forms, checked or symmetric by construction, are used as
    they are. They take the Lanczos iteration from ``state`` (by default
    empty; ``top_spectrum``'s top k are read off once converged) when
    ``krylov_pays(k, n)``, and the dense decomposition of their ``q``,
    formed on first use, otherwise or when the iteration fails to converge
    or misses the residual contract ||m v - lambda v|| <= 1e-8
    max(1, ||m||_inf); dense pairs that miss it raise NumericalError."""
    checked = hasattr(m, "norm_bound")  # a ModularityMatrix or CovarianceOperator
    if not checked:
        m = _check_symmetric(m)
    n = m.n if checked else m.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be between 1 and {n}, got {k}")
    norm = m.norm_bound if checked else _norm_inf(m)
    bound = _RESIDUAL_BOUND * max(1.0, norm)
    if checked and krylov_pays(k, n):
        try:  # a fresh state goes, with its basis, before the contract's block product
            pairs = state and state.ritz(k) or _lanczos(m, k, state or LanczosState(n))
            return _within_contract(m, *pairs, bound)
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


def top_spectrum(q: "Covariance") -> tuple[EigenPairs | None, LanczosState]:
    """Q's top j eigenpairs, when their values settle ``select_dimension``
    and their leading k are the embedding, else None (below 1440 nodes, when
    no j settles, or when a rung gives up or misses ``top_k_eigen``'s
    contract); and the Lanczos state, grown through rungs j = 8, 16, ...
    while ``krylov_pays(j, n)`` (else empty), which ``top_k_eigen``
    continues for the dense spectrum's k.

    Q 1 = 0, so 0 is an exact eigenvalue of Q; let tau = n eps ||Q||_inf
    (``norm_bound``), which bounds select_dimension's floor n eps
    max|lambda| from above and allows for roundoff in the computed zero. A
    candidate position past j holds a value above the floor, so the
    computed zero lies further down, the value after it is at least that
    zero, hence at least -tau, and its gap is at most lambda_j + tau: the
    negative spectrum never enters. So once lambda_j > tau and the best gap
    among the top j is strictly larger than lambda_j + tau, no gap further
    down can tie it, and the top j values, all above the floor, give the k
    the whole spectrum gives.

    Exactly: that k equals ``select_dimension(eigenvalues(q))`` whenever
    the dense solver's copy of the zero eigenvalue lies in [-tau, floor],
    the premise the floor already rests on, and the converged Ritz values
    of the Lanczos iteration are the top j.
    """
    n, j, state = q.n, 8, LanczosState(q.n)
    tau, bound = n * np.finfo(float).eps * q.norm_bound, _RESIDUAL_BOUND * max(1.0, q.norm_bound)
    try:
        while krylov_pays(j, n):
            values, vectors = _lanczos(q, j, state)
            if values[-1] > tau and np.max(values[:-1] - values[1:]) > values[-1] + tau:
                return _within_contract(q, values, vectors, bound), state
            j *= 2
    except NumericalError:  # a rung did not converge or missed the contract
        pass
    return None, state


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
