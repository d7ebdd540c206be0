"""Softmax embedding updates: monotonicity, clamping, clustering."""

import numpy as np
import pytest

from modembed import (
    Partition,
    StochasticEmbedding,
    edge_sampling,
    hard_assign,
    modularity_matrix,
    partition_modularity,
    planted_partition,
    softmax_classify,
    softmax_cluster,
    softmax_objective,
    softmax_sweep,
    train_test_split,
    update_node,
    zero_diagonal,
)

from helpers import barbell, random_zero_diag_symmetric, set_partitions


def _barbell_q0():
    return zero_diagonal(modularity_matrix(edge_sampling(barbell())).q)


def test_objective_zero_matrix():
    h = np.full((4, 2), 0.5)
    assert softmax_objective(np.zeros((4, 4)), h) == 0.0


def test_objective_rejects_nonzero_diagonal():
    q = modularity_matrix(edge_sampling(barbell())).q
    with pytest.raises(ValueError):
        softmax_objective(q, np.full((6, 2), 0.5))


def test_objective_matches_triple_loop():
    rng = np.random.default_rng(5)
    q = _barbell_q0()
    h = rng.uniform(0.1, 1.0, size=(6, 3))
    h /= h.sum(axis=1, keepdims=True)
    direct = 0.0
    for k in range(3):
        for u in range(6):
            for w in range(6):
                direct += q[u, w] * h[u, k] * h[w, k]
    assert softmax_objective(q, h) == pytest.approx(direct, abs=1e-12)


def test_objective_of_indicator_matches_partition_modularity():
    q = modularity_matrix(edge_sampling(barbell()))
    q0 = zero_diagonal(q.q)
    labels = [0, 0, 0, 1, 1, 1]
    h = np.zeros((6, 2))
    h[np.arange(6), labels] = 1.0
    expected = partition_modularity(q, Partition(labels)) - np.trace(q.q)
    assert softmax_objective(q0, h) == pytest.approx(expected, abs=1e-14)


def test_update_node_hand_computed():
    """n=2 worked example: z = (0.3, 0.2), so the first row becomes
    (0.9 e^0.3, 0.1 e^0.2) normalized."""
    q = np.array([[0.0, 0.5], [0.5, 0.0]])
    h = np.array([[0.9, 0.1], [0.6, 0.4]])
    update_node(q, h, 0, theta=1.0)
    z = np.array([0.3, 0.2])
    oracle = np.array([0.9, 0.1]) * np.exp(z)
    oracle /= oracle.sum()
    np.testing.assert_allclose(h[0], oracle, rtol=0, atol=1e-14)
    np.testing.assert_allclose(
        h[0], [0.9086469186875981, 0.09135308131240187], rtol=0, atol=1e-15
    )
    np.testing.assert_array_equal(h[1], [0.6, 0.4])


def test_update_with_zero_row_keeps_distribution():
    q = np.zeros((3, 3))
    q[1, 2] = q[2, 1] = 0.25
    h = np.array([[0.2, 0.8], [0.5, 0.5], [0.7, 0.3]])
    before = h[0].copy()
    update_node(q, h, 0, theta=2.0)
    np.testing.assert_array_equal(h[0], before)


@pytest.mark.parametrize("theta_kind", ["small", "unit", "large"])
def test_single_update_monotonicity(theta_kind):
    rng = np.random.default_rng(hash(theta_kind) % 2**32)
    for _ in range(20):
        n = int(rng.integers(2, 31))
        k = int(rng.integers(2, 6))
        q = random_zero_diag_symmetric(rng, n)
        theta = {"small": 0.1, "unit": 1.0, "large": 10.0 * n}[theta_kind]
        h = rng.uniform(0.05, 1.0, size=(n, k))
        h /= h.sum(axis=1, keepdims=True)
        obj = softmax_objective(q, h)
        for u in range(n):
            update_node(q, h, u, theta)
            new = softmax_objective(q, h)
            assert new - obj >= -1e-12
            obj = new


def test_sweep_preserves_row_stochasticity():
    rng = np.random.default_rng(13)
    q = random_zero_diag_symmetric(rng, 20)
    h = rng.uniform(0.1, 1.0, size=(20, 4))
    h /= h.sum(axis=1, keepdims=True)
    softmax_sweep(q, h, theta=400.0)
    assert np.abs(h.sum(axis=1) - 1.0).max() <= 1e-12
    assert h.min() >= 0.0


def test_clamped_rows_are_bit_identical():
    rng = np.random.default_rng(17)
    q = random_zero_diag_symmetric(rng, 10)
    h = rng.uniform(0.1, 1.0, size=(10, 3))
    h /= h.sum(axis=1, keepdims=True)
    h[2] = [1.0, 0.0, 0.0]
    h[7] = [0.0, 0.0, 1.0]
    clamped = np.zeros(10, dtype=bool)
    clamped[[2, 7]] = True
    frozen2, frozen7 = h[2].copy(), h[7].copy()
    for _ in range(3):
        softmax_sweep(q, h, theta=100.0, clamped=clamped)
    assert np.array_equal(h[2], frozen2)
    assert np.array_equal(h[7], frozen7)


def test_cluster_zero_matrix_returns_initial_state():
    first = softmax_cluster(np.zeros((5, 5)), 3, seed=11)
    second = softmax_cluster(np.zeros((5, 5)), 3, seed=11)
    assert first.converged
    assert first.sweeps == 1
    assert np.array_equal(first.h, second.h)
    np.testing.assert_array_equal(first.history, [0.0, 0.0])
    # initialization is a perturbed uniform, not a hard assignment
    assert first.h.max() < 1.0
    assert first.h.min() > 0.0


def test_cluster_requires_two_clusters_and_positive_theta():
    q = _barbell_q0()
    with pytest.raises(ValueError):
        softmax_cluster(q, 1)
    with pytest.raises(ValueError):
        softmax_cluster(q, 2, theta=-5.0)


def test_cluster_history_monotone_and_converged():
    res = softmax_cluster(_barbell_q0(), 2, seed=3)
    assert res.converged
    gains = np.diff(res.history)
    assert gains.min() >= -1e-12


def test_cluster_max_sweeps_exhaustion_is_flagged():
    res = softmax_cluster(_barbell_q0(), 2, seed=3, max_sweeps=0)
    assert not res.converged
    assert res.sweeps == 0
    assert res.history.size == 1


def test_cluster_recovers_barbell_triangles():
    """Hard assignments match the brute-force best two-cluster partition
    (the two triangles) for every seed tried."""
    q0 = _barbell_q0()
    best_labels, best_score = None, -np.inf
    for labels in set_partitions(6):
        if max(labels) + 1 != 2:
            continue
        h = np.zeros((6, 2))
        h[np.arange(6), labels] = 1.0
        score = softmax_objective(q0, h)
        if score > best_score:
            best_labels, best_score = labels, score
    assert best_labels == (0, 0, 0, 1, 1, 1)
    for seed in range(10):
        res = softmax_cluster(q0, 2, seed=seed)
        got = hard_assign(res).assignment
        same = np.array_equal(got, best_labels)
        flipped = np.array_equal(1 - got, best_labels)
        assert same or flipped


def test_classify_all_labeled_is_constant():
    q0 = _barbell_q0()
    labels = {u: int(u >= 3) for u in range(6)}
    res = softmax_classify(q0, labels, 2, seed=9)
    expected = np.zeros((6, 2))
    expected[np.arange(6), [0, 0, 0, 1, 1, 1]] = 1.0
    assert np.array_equal(res.h, expected)
    assert np.all(res.history == res.history[0])


def test_classify_rejects_out_of_range_labels():
    q0 = _barbell_q0()
    with pytest.raises(ValueError):
        softmax_classify(q0, {0: 2}, 2)
    with pytest.raises(ValueError):
        softmax_classify(q0, {17: 0}, 2)


def test_classify_without_labels_reduces_to_cluster():
    q0 = _barbell_q0()
    a = softmax_classify(q0, {}, 2, seed=21)
    b = softmax_cluster(q0, 2, seed=21)
    assert np.array_equal(a.h, b.h)
    assert np.array_equal(a.history, b.history)


def test_classify_planted_two_blocks():
    """With 10% clamped labels, at least 95% of the unlabeled nodes land in
    their planted block (averaged over ten seeds)."""
    rates = []
    for seed in range(10):
        g, dataset = planted_partition(2, 20, 0.8, 0.05, seed=seed)
        q = modularity_matrix(edge_sampling(g)).q
        label_map, holdout = train_test_split(dataset, 0.1, seed=seed)
        res = softmax_classify(q, label_map, 2, seed=seed)
        predicted = hard_assign(res).assignment
        rates.append(float(np.mean(predicted[holdout] == dataset.labels[holdout])))
    assert np.mean(rates) >= 0.95


def test_hard_assign_rules():
    one_hot = np.eye(3)
    np.testing.assert_array_equal(hard_assign(one_hot).assignment, [0, 1, 2])
    ties = np.array([[0.5, 0.5], [0.2, 0.8]])
    np.testing.assert_array_equal(hard_assign(ties).assignment, [0, 1])
    middle = np.array([[0.2, 0.5, 0.3]])
    assert hard_assign(middle).assignment[0] == 1
    assert hard_assign(middle).k == 3


def test_stochastic_embedding_validation():
    with pytest.raises(ValueError):
        StochasticEmbedding(
            h=np.array([[0.7, 0.7]]),
            theta=1.0,
            sweeps=0,
            history=np.zeros(1),
            converged=True,
        )

