"""Semi-metrics, cohesion matrices, and the bridges between them.

A semi-metric is a symmetric nonnegative dissimilarity with a zero
diagonal (the triangle inequality is not required). Double centering
turns one into a cohesion matrix, a similarity with zero row sums, and
the two representations are exactly interchangeable. Graph Laplacians
slot into the same picture: the pseudo-inverse of the Laplacian is a
cohesion matrix whose induced semi-metric is the resistance distance,
and half squared Euclidean distances induce the centered Gram matrix
that principal component analysis diagonalizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import FormatError
from .graph import Graph, is_connected, laplacian
from .spectral import Embedding, _fix_signs

_AXIOM_TOL = 1e-12
_ROWSUM_TOL = 1e-10


# ===================================================================
# Domain types
# ===================================================================


@dataclass(frozen=True)
class SemiMetric:
    """Pairwise dissimilarities: nonnegative, symmetric, zero diagonal."""

    d: np.ndarray

    def __post_init__(self) -> None:
        d = np.asarray(self.d, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError("semi-metric must be a square matrix")
        if d.size and not d.min() >= -_AXIOM_TOL:
            raise ValueError("nonnegativity violated: negative or NaN dissimilarity entry")
        if d.size and not np.max(np.abs(np.diag(d))) <= _AXIOM_TOL:
            raise ValueError("zero-diagonal axiom violated")
        if d.size and not np.max(np.abs(d - d.T)) <= _AXIOM_TOL:
            raise ValueError("symmetry axiom violated")
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
        g = np.asarray(self.gamma, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError("cohesion matrix must be square")
        if g.size:
            if not np.max(np.abs(g - g.T)) <= _AXIOM_TOL:
                raise ValueError("symmetry axiom violated or non-finite entry")
            if not np.max(np.abs(g.sum(axis=1))) <= _ROWSUM_TOL:
                raise ValueError("zero-row-sum axiom violated")
            diag = np.diag(g)
            if not np.min(diag[:, None] + diag[None, :] - 2.0 * g) >= -_AXIOM_TOL:
                raise ValueError("self-cohesion dominance axiom violated")
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
    gamma = row[:, None] + row[None, :] - grand - m
    gamma = 0.5 * (gamma + gamma.T)
    return CohesionMatrix(gamma)


def induce_metric(gamma: CohesionMatrix | np.ndarray) -> SemiMetric:
    """Recover the semi-metric d(u, w) = (g(u,u) + g(w,w)) / 2 - g(u, w)."""
    if not isinstance(gamma, CohesionMatrix):
        gamma = CohesionMatrix(np.asarray(gamma, dtype=float))
    g = gamma.gamma
    diag = np.diag(g)
    d = 0.5 * (diag[:, None] + diag[None, :]) - g
    d = np.maximum(d, 0.0)
    np.fill_diagonal(d, 0.0)
    d = 0.5 * (d + d.T)
    return SemiMetric(d)


# ===================================================================
# Laplacian bridge
# ===================================================================


def laplacian_pinv(g: Graph) -> CohesionMatrix:
    """Moore-Penrose pseudo-inverse of the graph Laplacian.

    Connected graphs only: the single zero eigenvalue (anything below
    1e-10 times the largest) is dropped and the rest inverted.
    """
    if g.n == 0:
        raise ValueError("empty graph has no Laplacian pseudo-inverse")
    if not is_connected(g):
        raise ValueError("Laplacian pseudo-inverse requires a connected graph")
    lap = laplacian(g)
    values, vectors = np.linalg.eigh(lap)
    cutoff = 1e-10 * float(values[-1]) if values[-1] > 0 else np.inf
    keep = values > cutoff
    inv = np.zeros_like(values)
    inv[keep] = 1.0 / values[keep]
    gamma = (vectors * inv) @ vectors.T
    gamma = 0.5 * (gamma + gamma.T)
    return CohesionMatrix(gamma)


def resistance_distance(g: Graph) -> SemiMetric:
    """Effective resistance gamma(u,u) + gamma(w,w) - 2 gamma(u,w).

    Equivalently the semi-metric induced by twice the pseudo-inverse;
    doubling the pseudo-inverse is what makes the duality close, since
    double-centering the resistance gives back 2 gamma exactly.
    """
    return induce_metric(CohesionMatrix(2.0 * laplacian_pinv(g).gamma))


def eigenmap_embedding(g: Graph, k: int) -> Embedding:
    """Laplacian eigenmap: eigenvectors 2..K+1 of L, smallest first.

    The all-ones eigenvector for eigenvalue 0 is skipped, so columns
    are orthogonal to it; requires a connected graph and k <= n - 1.
    """
    if not is_connected(g):
        raise ValueError("Laplacian eigenmaps require a connected graph")
    if not 1 <= k <= g.n - 1:
        raise ValueError(f"k must be between 1 and {g.n - 1}, got {k}")
    values, vectors = np.linalg.eigh(laplacian(g))
    h = _fix_signs(vectors[:, 1 : k + 1])
    return Embedding(h=h)


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
    d = np.maximum(d, 0.0)
    np.fill_diagonal(d, 0.0)
    d = 0.5 * (d + d.T)
    return SemiMetric(d)


def pca_embedding(
    x: DataMatrix | np.ndarray, k: int
) -> tuple[Embedding, np.ndarray]:
    """Principal components via the centered Gram matrix.

    Returns the top-K unit eigenvectors of (X - c)(X - c)^T as an
    embedding together with the column scales sqrt(lambda_k); scaled
    columns reproduce classical PCA scores up to per-column sign.
    """
    if not isinstance(x, DataMatrix):
        x = DataMatrix(np.asarray(x, dtype=float))
    centered = x.x - x.centroid
    gram = centered @ centered.T
    gram = 0.5 * (gram + gram.T)
    n = gram.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be between 1 and {n}, got {k}")
    values, vectors = np.linalg.eigh(gram)
    # Roundoff in the eigenvalues grows with the scale of the Gram matrix.
    if values[0] < -1e-10 * abs(values[-1]):
        raise ValueError("centered Gram matrix is not positive semi-definite")
    order = np.arange(n - 1, n - 1 - k, -1)
    top = _fix_signs(vectors[:, order])
    scales = np.sqrt(np.maximum(values[order], 0.0))
    return Embedding(h=top), scales


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
