"""Independent references and output checks for the benchmark commands.

Every matrix here is built by the benchmark's own numpy code from the
generated edge list, along a different route from the library's where
one exists (the resistance distance goes through a linear solve, not
an eigendecomposition), so a check cannot pass because the library and
the check share a mistake. Each ``check_*`` function parses one command
output, raises :class:`CheckError` if it is wrong, and returns the
workload's quality score.
"""

from __future__ import annotations

import numpy as np

from inputs import GraphInput

# Residual and orthonormality limits, relative to max(1, ||Q||_inf) as in
# the library's documented eigenpair contract.
RESIDUAL_BOUND = 1e-8
ORTHO_BOUND = 1e-8
# Eigenvalue agreement between two dense routes, relative to the largest
# |eigenvalue|. The expdist Q = p - p_u p_u^T cancels entries of about
# 1/n^2 down to about 1e-3 of that, so rounding in forming it already
# moves the spectrum by about 1e-10 of its radius (n = 2000).
SPECTRUM_RTOL = 1e-7


class CheckError(Exception):
    """A command output failed its correctness check."""


def adjacency(g: GraphInput) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    a[g.edges[:, 0], g.edges[:, 1]] = 1.0
    a[g.edges[:, 1], g.edges[:, 0]] = 1.0
    return a


def edge_q(g: GraphInput) -> np.ndarray:
    """Newman's modularity matrix A/2m - d d^T / (2m)^2."""
    a = adjacency(g)
    d = a.sum(axis=1)
    two_m = d.sum()
    return a / two_m - np.outer(d, d) / two_m**2


def expdist_q(g: GraphInput) -> np.ndarray:
    """Covariance of Boltzmann-weighted resistance distances.

    For a connected graph L^+ = (L + J/n)^-1 - J/n, with J the all-ones
    matrix; theta is the library's default, -1e-3 over the largest
    distance.
    """
    a = adjacency(g)
    j = np.full((g.n, g.n), 1.0 / g.n)
    lp = np.linalg.inv(np.diag(a.sum(axis=1)) - a + j) - j
    diag = np.diag(lp)
    r = np.maximum(diag[:, None] + diag[None, :] - 2.0 * lp, 0.0)
    np.fill_diagonal(r, 0.0)
    r = 0.5 * (r + r.T)
    w = np.exp((-1e-3 / r.max()) * r)
    p = w / w.sum()
    pu = p.sum(axis=1)
    return p - np.outer(pu, pu)


def modularity(g: GraphInput, assignment: np.ndarray) -> float:
    """Newman modularity sum_c [e_c / m - (D_c / 2m)^2] of a partition."""
    two_m = 2.0 * g.m
    deg = np.bincount(g.edges.ravel(), minlength=g.n).astype(float)
    cu, cw = assignment[g.edges[:, 0]], assignment[g.edges[:, 1]]
    k = int(assignment.max()) + 1
    inside = np.bincount(cu[cu == cw], minlength=k) * 2.0
    total = np.bincount(assignment, weights=deg, minlength=k)
    return float(np.sum(inside / two_m - (total / two_m) ** 2))


def select_dimension(values: np.ndarray) -> int:
    """The library's documented rule: largest gap after a positive value,
    ties to the smallest k, 1 if no value is positive."""
    best_k, best_gap = 1, -np.inf
    for k in range(1, values.size):
        if values[k - 1] > 0 and values[k - 1] - values[k] > best_gap:
            best_k, best_gap = k, values[k - 1] - values[k]
    return best_k


def _rows(text: str, header: list[str]) -> list[list[str]]:
    lines = text.splitlines()
    if not lines or lines[0].split("\t") != header:
        raise CheckError(f"expected header {header}, got {lines[:1]}")
    rows = [line.split("\t") for line in lines[1:]]
    if any(len(r) != len(header) for r in rows):
        raise CheckError("row with the wrong field count")
    return rows


def _node_order(g: GraphInput, tokens: list[str]) -> np.ndarray:
    try:
        idx = g.index_of(tokens)
    except KeyError as exc:
        raise CheckError(f"unknown node id {exc}") from None
    if idx.size != g.n or np.unique(idx).size != g.n:
        raise CheckError(f"{idx.size} rows for {g.n} nodes, or a node repeated")
    return idx


def _floats(cells) -> np.ndarray:
    try:
        out = np.array(cells, dtype=float)
    except ValueError:
        raise CheckError("non-numeric value") from None
    if not np.all(np.isfinite(out)):
        raise CheckError("non-finite value")
    return out


def check_embed(g: GraphInput, q: np.ndarray, top: np.ndarray, text: str) -> float:
    """Orthonormal columns that are eigenvectors of q for its top values.

    Returns the captured share: the sum of the columns' Rayleigh
    quotients over the sum of the reference top-k eigenvalues.
    """
    k = top.size
    rows = _rows(text, ["node"] + [f"dim_{j + 1}" for j in range(k)])
    h = np.empty((g.n, k))
    h[_node_order(g, [r[0] for r in rows])] = _floats([r[1:] for r in rows])
    if np.max(np.abs(h.T @ h - np.eye(k))) > ORTHO_BOUND:
        raise CheckError("embedding columns are not orthonormal")
    qh = q @ h
    theta = np.sum(h * qh, axis=0)
    scale = max(1.0, float(np.abs(q).sum(axis=1).max()))
    residual = float(np.linalg.norm(qh - h * theta, axis=0).max())
    if residual > RESIDUAL_BOUND * scale:
        raise CheckError(f"eigenpair residual {residual:.3e}")
    if np.max(np.abs(np.sort(theta)[::-1] - top)) > RESIDUAL_BOUND * scale:
        raise CheckError("columns are not the top eigenvectors")
    return float(theta.sum() / top.sum())


def check_spectrum(values_ref: np.ndarray, text: str) -> float:
    """All eigenvalues, descending, and the gap-selected k.

    Returns the captured share of the positive spectrum.
    """
    lines = text.splitlines()
    if len(lines) < 2 or not lines[-1].startswith("# selected_k\t"):
        raise CheckError("missing '# selected_k' trailer")
    rows = _rows("\n".join(lines[:-1]), ["k", "lambda"])
    if [r[0] for r in rows] != [str(i) for i in range(1, values_ref.size + 1)]:
        raise CheckError(f"expected {values_ref.size} numbered eigenvalues")
    values = _floats([r[1] for r in rows])
    if np.max(np.abs(values - values_ref)) > SPECTRUM_RTOL * np.abs(values_ref).max():
        raise CheckError("eigenvalues differ from the reference")
    if lines[-1].split("\t")[1] != str(select_dimension(values_ref)):
        raise CheckError(f"selected_k {lines[-1].split()[-1]} is not the largest gap")
    positive = values_ref > 0
    return float(values[positive].sum() / values_ref[positive].sum())


def check_cluster(g: GraphInput, k: int, text: str) -> float:
    """One integer cluster id in 0..k-1 per node; returns its modularity."""
    rows = _rows(text, ["node", "cluster"])
    assignment = np.empty(g.n, dtype=int)
    try:
        assignment[_node_order(g, [r[0] for r in rows])] = [int(r[1]) for r in rows]
    except ValueError:
        raise CheckError("non-integer cluster id") from None
    if assignment.min() < 0 or assignment.max() >= k:
        raise CheckError(f"cluster id outside 0..{k - 1}")
    return modularity(g, assignment)


def check_classify(g: GraphInput, train_fraction: float, text: str) -> float:
    """A complete report whose counts match the stratified split.

    Returns the reported micro-F1.
    """
    report = dict(_rows(text, ["metric", "value"]))
    keys = ["micro_f1", "macro_f1", "selected_k", "n_train", "n_holdout", "sweeps", "converged"]
    if sorted(report) != sorted(keys):
        raise CheckError(f"report rows {sorted(report)}")
    sizes = np.bincount(g.labels)
    n_train = int(sum(round(train_fraction * s) for s in sizes))
    try:
        counts = {key: int(report[key]) for key in ("selected_k", "n_train", "n_holdout", "sweeps")}
        f1 = float(report["micro_f1"]), float(report["macro_f1"])
    except ValueError:
        raise CheckError("non-numeric report value") from None
    if counts["n_train"] != n_train or counts["n_holdout"] != g.n - n_train:
        raise CheckError(f"split {counts['n_train']}/{counts['n_holdout']}, expected {n_train}")
    if not 1 <= counts["selected_k"] <= g.n or counts["sweeps"] < 1:
        raise CheckError("selected_k or sweeps out of range")
    if not all(0.0 <= f <= 1.0 for f in f1) or report["converged"] not in ("true", "false"):
        raise CheckError("F1 outside [0, 1] or a bad converged flag")
    return f1[0]
