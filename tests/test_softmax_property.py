"""Property tests: softmax sweeps never lower the objective, and a sweep
that skips one-hot rows leaves h bit for bit as the per-row reference."""

import numpy as np
import pytest

from modembed import CovarianceOperator, Embedding, softmax_classify, softmax_sweep, update_node

from helpers import random_connected_graph, random_orthonormal, random_zero_diag_symmetric

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.given(
    n=st.integers(2, 20),
    k=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([None, 1e-3, 1.0]),
    clamp=st.booleans(),
)
def test_sweeps_never_lower_the_objective(n, k, seed, scale, clamp):
    """On a random symmetric zero-diagonal q, with or without rows clamped
    to labels, every sweep keeps the objective within 1e-12 * max(1, |obj|)
    of the one before."""
    rng = np.random.default_rng(seed)
    q = random_zero_diag_symmetric(rng, n, scale)
    labeled = np.flatnonzero(rng.random(n) < 0.3) if clamp else []
    labels = {int(u): int(rng.integers(k)) for u in labeled}
    history = softmax_classify(q, labels, k, seed=seed, max_sweeps=6, tol=0.0).history
    slack = 1e-12 * np.maximum(1.0, np.abs(history[1:]))
    assert np.all(np.diff(history) >= -slack)


def _assert_monotone(q, n, k, seed, clamp):
    rng = np.random.default_rng(seed)
    labeled = np.flatnonzero(rng.random(n) < 0.3) if clamp else []
    labels = {int(u): int(rng.integers(k)) for u in labeled}
    history = softmax_classify(q, labels, k, seed=seed, max_sweeps=6, tol=0.0).history
    slack = 1e-12 * np.maximum(1.0, np.abs(history[1:]))
    assert np.all(np.diff(history) >= -slack)


@hypothesis.given(
    n=st.integers(2, 20),
    k=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
    clamp=st.booleans(),
)
def test_sweeps_never_lower_the_objective_on_the_edge_operator(n, k, seed, clamp):
    """The same on the sparse-plus-rank-one Q of a random weighted graph."""
    g = random_connected_graph(np.random.default_rng(seed), n, weighted=True)
    _assert_monotone(CovarianceOperator(g), n, k, seed, clamp)


@hypothesis.given(
    n=st.integers(2, 20),
    r=st.integers(1, 5),
    k=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
    clamp=st.booleans(),
)
def test_sweeps_never_lower_the_objective_on_an_embedding(n, r, k, seed, clamp):
    """The same on the rank-r Q = HH^T of a random orthonormal H."""
    hypothesis.assume(r <= n)
    h = random_orthonormal(np.random.default_rng(seed), n, r)
    _assert_monotone(Embedding(h=h), n, k, seed, clamp)


@hypothesis.given(
    n=st.integers(2, 20),
    k=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
    theta=st.sampled_from([1.0, 30.0, 1e3]),
)
def test_sweeps_match_update_node_on_every_unclamped_row(n, k, seed, theta):
    """From an h with some one-hot rows, clamped ones among them, at
    temperatures where more rows collapse as the sweeps go on,
    softmax_sweep leaves h bit for bit as update_node on every row in
    ascending order, one-hot or not."""
    rng = np.random.default_rng(seed)
    q = random_zero_diag_symmetric(rng, n, 1.0)
    h = rng.uniform(0.1, 1.0, size=(n, k))
    h /= h.sum(axis=1, keepdims=True)
    onehot = rng.random(n) < 0.3
    h[onehot] = np.eye(k)[rng.integers(k, size=int(onehot.sum()))]
    want = h.copy()
    for _ in range(4):
        softmax_sweep(q, h, theta)
        for u in range(n):
            update_node(q, want, u, theta)
        assert np.array_equal(h, want)
