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

from .errors import FormatError, NumericalError
from .graph import Graph, is_connected, laplacian
from .spectral import Embedding, _check_symmetric, _fix_signs, _row_blocks, _uniforms, top_k_eigen

_AXIOM_TOL = 1e-12
# Row sums of a cohesion matrix vanish to within this many times
# n * eps * max|gamma|, the roundoff of summing n entries of that size.
_ROWSUM_ULPS = 16
# L+ must map a centred probe v back to itself, |L L+ v - v| <= this times |v|.
# Weights alternating w and 1/w along a 400-node path give 3.9e-7 at w = 1e3,
# 4.0e-5 at 1e4 and 3.9e-3 at 1e5 (0.4% off in the end-to-end resistance);
# unit paths of up to 3000 nodes give at most 2.9e-9.
_PINV_TOL = 1e-3


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

    gamma(u, w) = rowmean_u + rowmean_w - grandmean - d(u, w), the negated
    double centering -JdJ: exactly symmetric, as d is, with zero row sums.
    """
    d = d if isinstance(d, SemiMetric) else SemiMetric(d)
    m = d.d
    row = m.mean(axis=1)
    return CohesionMatrix(row[:, None] + row[None, :] - float(m.mean()) - m)


def induce_metric(gamma: CohesionMatrix | np.ndarray) -> SemiMetric:
    """Recover the semi-metric d(u, w) = (g(u,u) + g(w,w)) / 2 - g(u, w), in row
    blocks; d is exactly symmetric, as g is, and d(u, u) = 0.5 * (x + x) - x is +0.0."""
    gamma = gamma if isinstance(gamma, CohesionMatrix) else CohesionMatrix(gamma)
    g = gamma.gamma
    diag = np.diag(g)
    d = np.empty(g.shape)
    for b in _row_blocks(*g.shape):
        r = np.add(diag[b, None], diag[None, :], out=d[b])
        r *= 0.5
        np.maximum(np.subtract(r, g[b], out=r), 0.0, out=r)
    return SemiMetric(d)


# ===================================================================
# Laplacian bridge
# ===================================================================


_LEAF = 128  # rows of the blocks that LAPACK factors and inverts whole


def _inverse_cholesky(a: np.ndarray) -> np.ndarray:
    """Overwrite symmetric positive definite a with Y = C^-1, where C is
    its lower Cholesky factor (a = C C^T), and return it; a^-1 = Y^T Y.

    By halves, in a's own buffer, reading its lower triangle only: with
    Y11 the first half's inverse factor, the panel C21 = A21 Y11^T, the
    trailing half's lower triangle is downdated to A22 - C21 C21^T, and
    Y21 = -Y22 (C21 Y11) is the inverse's lower left block. Products are
    written back _LEAF rows at a time, the last bottom panel first, so it
    reads rows of C21 Y11 not yet overwritten; a leaf of at most _LEAF
    rows goes to LAPACK. The strict upper triangle is +0.0. A block that
    is not numerically positive definite raises np.linalg.LinAlgError.
    """
    n = a.shape[0]
    if n <= _LEAF:
        a[...] = np.tril(np.linalg.inv(np.linalg.cholesky(a)))
        return a
    h = n // 2
    y11, c21, a22 = a[:h, :h], a[h:, :h], a[h:, h:]
    _inverse_cholesky(y11)
    panels = [slice(s, s + _LEAF) for s in range(0, n - h, _LEAF)]
    for b in panels:
        c21[b] = c21[b] @ y11.T
        a22[b, :b.stop] -= c21[b] @ c21[:b.stop].T
    _inverse_cholesky(a22)
    for b in panels:
        c21[b] = c21[b] @ y11
    for b in reversed(panels):
        np.negative(a22[b, :b.stop] @ c21[:b.stop], out=c21[b])
    a[:h, h:] = 0.0
    return a


def _lower_gram(y: np.ndarray) -> np.ndarray:
    """Overwrite lower triangular y with Y^T Y and return it, as LAPACK's dlauum
    does: top panel of _LEAF rows first, X[b, :e] = Y[s:, b]^T Y[s:, :e] reads
    only rows of Y at or below the panel, which are not yet overwritten. Each
    panel's lower triangle is mirrored into the upper (its diagonal block as
    tril(d) + tril(d, -1)^T, whose sums commute), so X is exactly symmetric."""
    for s in range(0, y.shape[0], _LEAF):
        b = slice(s, s + _LEAF)
        y[b, :b.stop] = y[s:, b].T @ y[s:, :b.stop]
        y[:s, b] = y[b, :s].T
        np.add(np.tril(y[b, b]), np.tril(y[b, b], -1).T, out=y[b, b])
    return y


def laplacian_pinv(g: Graph) -> CohesionMatrix:
    """Moore-Penrose pseudo-inverse of the graph Laplacian.

    Connected graphs only: L^+ = (L + sJ/n)^-1 - J/(sn) for any s > 0,
    with J the all-ones matrix (Klein and Randic 1993). s is the mean
    weighted degree, so the roundoff does not grow with the weights.
    The inverse is Y^T Y, Y the inverse Cholesky factor of L + sJ/n;
    both are formed, and centred, in that matrix's own buffer, the one
    n x n array held. Subtracting J/(sn) is the double centering
    (I - J/n) X (I - J/n) of X = (L + sJ/n)^-1, whose row means are
    exactly 1/(sn); centering X by its computed row means instead
    leaves row sums at summation roundoff, however ill-conditioned L is.
    NumericalError is raised when the shifted Laplacian does not factor,
    or when L+ fails its identity L L+ v = v by more than 1e-3 |v| on the
    probe v = ``_uniforms(0x5EED, n)``, centred.
    """
    if g.n == 0:
        raise ValueError("empty graph has no Laplacian pseudo-inverse")
    if not is_connected(g):
        raise ValueError("Laplacian pseudo-inverse requires a connected graph")
    lap = laplacian(g)
    s = float(np.trace(lap)) / g.n or 1.0  # a lone node has L = [0]
    lap += s / g.n
    try:
        x = _lower_gram(_inverse_cholesky(lap))  # lap's buffer, the only n x n array
    except np.linalg.LinAlgError:
        raise NumericalError(
            "Laplacian pseudo-inverse failed: shifted Laplacian is not numerically positive definite"
        ) from None
    r = x.mean(axis=1)
    # r_u + r_w adds in either order to the same bits, so x stays symmetric.
    for b in _row_blocks(*x.shape):
        x[b] -= r[b, None] + r[None, :]
    x += r.mean()
    # An ill-conditioned L can leave x far from L+ with every block factored: probe
    # L x v = v, with L y = D y - A y from the edge arrays.
    v = _uniforms(0x5EED, g.n)
    v -= v.mean()
    y = x @ v
    u, w = g.edges.T
    res = g.degrees * y - np.bincount(u, g.weights * y[w], g.n)
    res -= np.bincount(w, g.weights * y[u], g.n) + v
    if not np.linalg.norm(res) <= _PINV_TOL * np.linalg.norm(v):
        raise NumericalError(
            f"Laplacian pseudo-inverse failed its check: |L L+ v - v| / |v| is"
            f" {np.linalg.norm(res) / np.linalg.norm(v):.1e} on a probe, above {_PINV_TOL:g};"
            " the Laplacian is too ill-conditioned"
        )
    return CohesionMatrix(x)


def resistance_distance(g: Graph) -> SemiMetric:
    """Effective resistance gamma(u,u) + gamma(w,w) - 2 gamma(u,w).

    Equivalently the semi-metric induced by twice the pseudo-inverse;
    doubling the pseudo-inverse is what makes the duality close, since
    double-centering the resistance gives back 2 gamma exactly. The exact
    doubling overwrites L+ once it is validated at its own scale, so the
    distances, twice those L+ induces to the bit, are checked once.
    """
    pinv = laplacian_pinv(g)  # no caller holds its array
    np.multiply(pinv.gamma, 2.0, out=pinv.gamma)
    return induce_metric(pinv)


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
    """Half squared Euclidean distances between rows of the data matrix,
    (|x_u|^2 + |x_w|^2 - 2 x_u . x_w) / 2, written over the Gram matrix a
    row block at a time; adding -2 x_u . x_w rounds as subtracting it does."""
    x = x if isinstance(x, DataMatrix) else DataMatrix(x)
    pts = x.x if x.x.flags.forc else x.x.copy()  # C or Fortran order, for the mirroring below
    sq = (pts * pts).sum(axis=1)
    d = pts @ pts.T  # the only n x n array; numpy mirrors one triangle, so it is exactly symmetric
    for b in _row_blocks(*d.shape):
        d[b] *= -2.0
        d[b] += sq[b, None] + sq[None, :]
        d[b] *= 0.5
    np.maximum(d, 0.0, out=d)
    np.fill_diagonal(d, 0.0)
    return SemiMetric(d)


def pca_embedding(
    x: DataMatrix | np.ndarray, k: int
) -> tuple[Embedding, np.ndarray]:
    """Principal components through a thin SVD of the centered data.

    The top-K eigenvectors of the centered Gram matrix (X - c)(X - c)^T,
    signs fixed as in ``top_k_eigen``, are the left singular vectors of
    X - c; the column scales are the singular values, zero past the
    column count p. Scaled columns are classical PCA scores up to sign.
    Only a K above p takes the full n x n U, whose columns past p are
    null vectors of the Gram matrix. Centred data, or a singular value,
    past the float range is a ValueError.
    """
    x = x if isinstance(x, DataMatrix) else DataMatrix(x)
    n, p = x.x.shape
    if not 1 <= k <= n:
        raise ValueError(f"k must be between 1 and {n}, got {k}")
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below, not warned
        centred = x.x - x.centroid
    if not np.isfinite(centred).all():
        raise ValueError("centred data overflows: a mean or value passes 1.8e308")
    u, s, _ = np.linalg.svd(centred, full_matrices=k > p)
    if not np.isfinite(s[0]):
        raise ValueError("centred data overflows: its largest singular value passes 1.8e308")
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
