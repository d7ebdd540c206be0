"""Semi-metrics, cohesion matrices, and the bridges between them.

A semi-metric is a symmetric nonnegative dissimilarity with a zero
diagonal (the triangle inequality is not required). Double centering
turns one into a cohesion matrix, a similarity with zero row sums, and
the two representations are exactly interchangeable. Graph Laplacians
slot into the same picture: the pseudo-inverse of the Laplacian is a
cohesion matrix whose induced semi-metric is the resistance distance,
and half squared Euclidean distances induce the centered Gram matrix,
whose top eigenvectors are the principal components.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import FormatError
from .graph import Graph, is_connected, laplacian
from .spectral import Embedding, _check_symmetric, _fix_signs, _row_blocks, _symmetrize, top_k_eigen

_AXIOM_TOL = 1e-12
# Row sums of a cohesion matrix vanish to within this many times
# n * eps * max|gamma|, the roundoff of summing n entries of that size.
_ROWSUM_ULPS = 16


# ===================================================================
# Domain types
# ===================================================================


@dataclass(frozen=True)
class SemiMetric:
    """Pairwise dissimilarities: nonnegative, symmetric, zero diagonal."""

    d: np.ndarray

    def __post_init__(self) -> None:
        d = _check_symmetric(self.d, _AXIOM_TOL, "semi-metric")
        if d.size and not d.min() >= -_AXIOM_TOL:
            raise ValueError("nonnegativity violated: negative dissimilarity entry")
        if d.size and not np.max(np.abs(np.diag(d))) <= _AXIOM_TOL:
            raise ValueError("zero-diagonal axiom violated")
        object.__setattr__(self, "d", d)

    @property
    def n(self) -> int:
        return self.d.shape[0]


@dataclass(frozen=True)
class CohesionMatrix:
    """Pairwise similarities: symmetric, zero row sums, and no pair more
    cohesive with each other than with themselves."""

    gamma: np.ndarray

    def __post_init__(self) -> None:
        g = _check_symmetric(self.gamma, _AXIOM_TOL, "cohesion matrix")
        if g.size:
            rowsum_tol = _ROWSUM_ULPS * g.shape[0] * np.finfo(float).eps * max(g.max(), -g.min())
            if not np.max(np.abs(g.sum(axis=1))) <= rowsum_tol:
                raise ValueError("zero-row-sum axiom violated")
            diag = np.diag(g)
            for b in _row_blocks(*g.shape):
                t = diag[b, None] + diag[None, :]
                if not np.min(np.subtract(t, 2.0 * g[b], out=t)) >= -_AXIOM_TOL:
                    raise ValueError("self-cohesion dominance axiom violated")
                del t
        object.__setattr__(self, "gamma", g)

    @property
    def n(self) -> int:
        return self.gamma.shape[0]


@dataclass(frozen=True)
class DataMatrix:
    """Points in Euclidean space, one row per node."""

    x: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        if x.ndim != 2 or x.shape[0] == 0:
            raise ValueError("data matrix must be 2-d with at least one row")
        if not np.all(np.isfinite(x)):
            raise ValueError("data matrix entries must be finite")
        object.__setattr__(self, "x", x)

    @cached_property
    def centroid(self) -> np.ndarray:
        return self.x.mean(axis=0)


# ===================================================================
# Duality
# ===================================================================


def induce_cohesion(d: SemiMetric | np.ndarray) -> CohesionMatrix:
    """Double-center a semi-metric into its cohesion matrix.

    gamma(u, w) = rowmean_u + colmean_w - grandmean - d(u, w), which is
    the negated double centering -JdJ.
    """
    if not isinstance(d, SemiMetric):
        d = SemiMetric(np.asarray(d, dtype=float))
    m = d.d
    row = m.mean(axis=1)
    grand = float(m.mean())
    return CohesionMatrix(_symmetrize(row[:, None] + row[None, :] - grand - m))


def induce_metric(gamma: CohesionMatrix | np.ndarray) -> SemiMetric:
    """Recover the semi-metric d(u, w) = (g(u,u) + g(w,w)) / 2 - g(u, w), in row blocks."""
    if not isinstance(gamma, CohesionMatrix):
        gamma = CohesionMatrix(np.asarray(gamma, dtype=float))
    g = gamma.gamma
    diag = np.diag(g)
    d = np.empty(g.shape)
    for b in _row_blocks(*g.shape):
        r = np.add(diag[b, None], diag[None, :], out=d[b])
        r *= 0.5
        np.maximum(np.subtract(r, g[b], out=r), 0.0, out=r)
    np.fill_diagonal(d, 0.0)
    return SemiMetric(_symmetrize(d))


# ===================================================================
# Laplacian bridge
# ===================================================================


def laplacian_pinv(g: Graph) -> CohesionMatrix:
    """Moore-Penrose pseudo-inverse of the graph Laplacian.

    Connected graphs only: L^+ = (L + sJ/n)^-1 - J/(sn) for any s > 0,
    with J the all-ones matrix (Klein and Randic 1993). s is the mean
    weighted degree, so the roundoff does not grow with the weights.
    Subtracting J/(sn) is the double centering (I - J/n) X (I - J/n) of
    X = (L + sJ/n)^-1, whose row means are exactly 1/(sn); centering the
    symmetrized X by its computed row means instead leaves row sums at
    summation roundoff, however ill-conditioned L is.
    """
    if g.n == 0:
        raise ValueError("empty graph has no Laplacian pseudo-inverse")
    if not is_connected(g):
        raise ValueError("Laplacian pseudo-inverse requires a connected graph")
    lap = laplacian(g)
    s = float(np.trace(lap)) / g.n or 1.0  # a lone node has L = [0]
    lap += s / g.n
    x = _symmetrize(np.linalg.inv(lap))
    del lap  # x, the only n x n array from here on, is centred in place
    r = x.mean(axis=1)
    # r_u + r_w adds in either order to the same bits, so x stays symmetric.
    for b in _row_blocks(*x.shape):
        x[b] -= r[b, None] + r[None, :]
    x += r.mean()
    return CohesionMatrix(x)


def resistance_distance(g: Graph) -> SemiMetric:
    """Effective resistance gamma(u,u) + gamma(w,w) - 2 gamma(u,w).

    Equivalently the semi-metric induced by twice the pseudo-inverse;
    doubling the pseudo-inverse is what makes the duality close, since
    double-centering the resistance gives back 2 gamma exactly. The
    doubling overwrites the induced distances, which is exact, so the
    pseudo-inverse is validated once, at its own scale.
    """
    d = induce_metric(laplacian_pinv(g)).d  # no caller holds this array
    return SemiMetric(np.multiply(d, 2.0, out=d))


def eigenmap_embedding(g: Graph, k: int) -> Embedding:
    """Laplacian eigenmap: eigenvectors 2..K+1 of L, smallest first.

    These are the top K + 1 eigenvectors of -L less the first, the
    all-ones vector for eigenvalue 0, so columns are orthogonal to it
    (Belkin and Niyogi 2003); requires a connected graph and k <= n - 1.
    """
    if not is_connected(g):
        raise ValueError("Laplacian eigenmaps require a connected graph")
    if not 1 <= k <= g.n - 1:
        raise ValueError(f"k must be between 1 and {g.n - 1}, got {k}")
    return Embedding(h=top_k_eigen(-laplacian(g), k + 1).vectors[:, 1:])


# ===================================================================
# Euclidean data
# ===================================================================


def half_sq_euclidean(x: DataMatrix | np.ndarray) -> SemiMetric:
    """Half squared Euclidean distances between rows of the data matrix."""
    if not isinstance(x, DataMatrix):
        x = DataMatrix(np.asarray(x, dtype=float))
    pts = x.x
    sq = (pts * pts).sum(axis=1)
    d = 0.5 * (sq[:, None] + sq[None, :] - 2.0 * (pts @ pts.T))
    np.maximum(d, 0.0, out=d)
    np.fill_diagonal(d, 0.0)
    return SemiMetric(_symmetrize(d))


def pca_embedding(
    x: DataMatrix | np.ndarray, k: int
) -> tuple[Embedding, np.ndarray]:
    """Principal components through a thin SVD of the centered data.

    The top-K eigenvectors of the centered Gram matrix (X - c)(X - c)^T,
    signs fixed as in ``top_k_eigen``, are the left singular vectors of
    X - c; the column scales are the singular values, zero past the
    column count p. Scaled columns are classical PCA scores up to sign.
    Only a K above p takes the full n x n U, whose columns past p are
    null vectors of the Gram matrix.
    """
    if not isinstance(x, DataMatrix):
        x = DataMatrix(np.asarray(x, dtype=float))
    n, p = x.x.shape
    if not 1 <= k <= n:
        raise ValueError(f"k must be between 1 and {n}, got {k}")
    u, s, _ = np.linalg.svd(x.x - x.centroid, full_matrices=k > p)
    scales = np.pad(s[:k], (0, max(0, k - s.size)))
    return Embedding(h=_fix_signs(u[:, :k])), scales


def load_points(path: str | Path, id_column: bool = False) -> tuple[DataMatrix, list[str]]:
    """Read a numeric TSV/CSV data matrix, one point per row.

    The delimiter is inferred (comma if present, otherwise whitespace).
    With ``id_column`` the first field of each row is kept as the point
    identifier; otherwise rows are numbered.
    """
    rows: list[list[float]] = []
    names: list[str] = []
    width = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            fields = text.split(",") if "," in text else text.split()
            if id_column:
                if len(fields) < 2:
                    raise FormatError(f"line {lineno}: need an id and at least one coordinate")
                names.append(fields[0])
                fields = fields[1:]
            try:
                row = [float(f) for f in fields]
            except ValueError:
                raise FormatError(f"line {lineno}: non-numeric field in {raw!r}") from None
            if not np.all(np.isfinite(row)):
                raise FormatError(f"line {lineno}: non-finite field in {raw!r}")
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise FormatError(f"line {lineno}: expected {width} coordinates, got {len(row)}")
            rows.append(row)
    if not rows:
        raise FormatError("data file contains no points")
    if not id_column:
        names = [str(i) for i in range(len(rows))]
    return DataMatrix(np.array(rows)), names
