"""Softmax embedding updates: monotonicity, clamping, clustering."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from modembed import (
    CovarianceOperator,
    Embedding,
    Graph,
    LabeledDataset,
    Partition,
    StochasticEmbedding,
    edge_sampling,
    hard_assign,
    load_edge_list,
    modularity_matrix,
    partition_modularity,
    planted_partition,
    reconstruct,
    softmax_classify,
    softmax_cluster,
    softmax_objective,
    softmax_sweep,
    train_test_split,
    top_k_eigen,
    update_node,
    zero_diagonal,
)
from modembed import softmax
from modembed.softmax import _form, _off_diagonal_max

from helpers import barbell, random_connected_graph, random_zero_diag_symmetric, set_partitions


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
    """Labeled rows are one-hot, and sweeps leave one-hot rows as they are."""
    rng = np.random.default_rng(17)
    q = random_zero_diag_symmetric(rng, 10)
    h = rng.uniform(0.1, 1.0, size=(10, 3))
    h /= h.sum(axis=1, keepdims=True)
    h[2] = [1.0, 0.0, 0.0]
    h[7] = [0.0, 0.0, 1.0]
    frozen2, frozen7 = h[2].copy(), h[7].copy()
    for _ in range(3):
        softmax_sweep(q, h, theta=100.0)
    assert np.array_equal(h[2], frozen2)
    assert np.array_equal(h[7], frozen7)


@pytest.mark.parametrize("form", ["dense", "edge", "embedding"])
def test_sweep_skips_one_hot_rows(monkeypatch, form):
    """A row with one positive entry is a fixed point of the update, so a
    sweep over an all-one-hot h re-weights no row and leaves h as it was."""
    g = barbell()
    op = CovarianceOperator(g)
    q = {"dense": op.q, "edge": op, "embedding": Embedding(h=top_k_eigen(op.q, 2).vectors)}
    h = np.eye(3)[np.arange(g.n) % 3]
    before = h.copy()
    calls, reweight = [], softmax._reweight

    def counted(h, u, z, theta):
        calls.append(u)
        reweight(h, u, z, theta)

    monkeypatch.setattr(softmax, "_reweight", counted)
    softmax_sweep(q[form], h, theta=100.0)
    assert calls == []
    assert np.array_equal(h, before)


_SEEDED = {
    "cluster": lambda seed: softmax_cluster(np.zeros((4, 4)), 2, seed=seed),
    "classify": lambda seed: softmax_classify(np.zeros((4, 4)), {0: 1}, 2, seed=seed),
    "split": lambda seed: train_test_split(
        LabeledDataset(labels=np.array([0, 0, 1, 1]), n_classes=2), 0.5, seed=seed
    ),
}


@pytest.mark.parametrize("draw", _SEEDED.values(), ids=_SEEDED.keys())
@pytest.mark.parametrize("seed, error", [(-1, ValueError), (1.0, TypeError), ("1", TypeError)])
def test_seeds_are_nonnegative_integers(draw, seed, error):
    """The stdlib generator would take -s as s, a float or a string; the
    seeded library calls reject them, as numpy's generator did, and take
    numpy integers as the equal int."""
    with pytest.raises(error, match="nonnegative" if error is ValueError else None):
        draw(seed)
    a, b = draw(3), draw(np.int64(3))
    assert a[0] == b[0] if isinstance(a, tuple) else np.array_equal(a.h, b.h)


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


def test_raw_arrays_must_be_symmetric():
    """The ascent is monotone only on a symmetric q: on this directed
    3-cycle the second sweep would lower the objective from 1.5001 to 1.3546."""
    cycle = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        softmax_cluster(cycle, 2, max_sweeps=20)
    with pytest.raises(ValueError, match="symmetric"):
        softmax_classify(cycle, {0: 0}, 2)
    with pytest.raises(ValueError, match="symmetric"):
        softmax_sweep(cycle, np.full((3, 2), 0.5), theta=1.0)
    gains = np.diff(softmax_cluster(cycle + cycle.T, 2, max_sweeps=20).history)
    assert gains.min() >= -1e-12


def test_cluster_history_monotone_and_converged():
    res = softmax_cluster(_barbell_q0(), 2, seed=3)
    assert res.converged
    gains = np.diff(res.history)
    assert gains.min() >= -1e-12


@pytest.mark.parametrize("form", ["dense", "edge"])
def test_sweeps_that_move_no_row_reuse_the_objective(monkeypatch, form):
    """At theta = 1e6 every row is one-hot after two sweeps, and the six
    sweeps after them re-weight no row: the objective is evaluated 3
    times, not 9, and the history has the bytes of evaluating it after
    every sweep. tol = 0 runs on through the zero gains; a tol above 0
    stops at the first of them, as it did when the objective was evaluated."""
    g, _ = planted_partition(4, 50, 0.3, 0.01, seed=0, ensure_connected=True)
    op = CovarianceOperator(g)
    q = {"dense": op.q, "edge": op}[form]
    evaluations, objective = [], softmax.softmax_objective
    monkeypatch.setattr(softmax, "softmax_objective",
                        lambda *args: evaluations.append(1) or objective(*args))
    res = softmax_cluster(q, 4, theta=1e6, max_sweeps=8, tol=0)
    assert (res.sweeps, res.converged, len(evaluations)) == (8, False, 3)
    f, h = _form(q), softmax._perturbed_uniform(g.n, 4, 0)
    history = [objective(f, h)]
    for _ in range(8):
        softmax_sweep(f, h, 1e6)
        history.append(objective(f, h))
    assert res.history.tobytes() == np.array(history).tobytes()
    assert res.h.tobytes() == h.tobytes()
    stopped = softmax_cluster(q, 4, theta=1e6, max_sweeps=8, tol=1e-12)
    assert (stopped.sweeps, stopped.converged) == (3, True)
    assert stopped.history.tobytes() == res.history[:4].tobytes()


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



DATA = Path(__file__).resolve().parent / "data"
_GRAPHS = {
    "karate": lambda: load_edge_list((DATA / "karate.txt").read_text()),
    "barbell": barbell,
    "lesmis": lambda: load_edge_list((DATA / "lesmis.txt").read_text()),
}


def _two_hubs(leaves=6):
    """Two adjacent hubs with their own leaves: the largest p_u p_w is an
    edge's, where q(u, w) is not -p_u p_w."""
    edges = [(0, 1)] + [(hub, 2 + 2 * i + hub) for i in range(leaves) for hub in (0, 1)]
    return Graph.from_edges([(u, w, 1.0) for u, w in edges])


def test_lesmis_fixture_is_the_weighted_networkx_graph():
    g = _GRAPHS["lesmis"]()
    assert (g.n, g.edge_count) == (77, 254)
    assert g.total_weight == 2 * 820.0


@pytest.mark.parametrize("name", [*sorted(_GRAPHS), "two-hubs"])
def test_edge_scale_is_the_dense_off_diagonal_maximum(name):
    """--normalize's scale for the edge form, from its edges and its
    largest non-adjacent p_u p_w, has the bits of the dense maximum; so
    has the row-block maximum of the dense and rank-k forms."""
    op = CovarianceOperator(_GRAPHS.get(name, _two_hubs)())
    assert _off_diagonal_max(_form(op)) == np.max(np.abs(zero_diagonal(op.q)))
    assert _off_diagonal_max(_form(op.q)) == np.max(np.abs(zero_diagonal(op.q)))
    emb = Embedding(h=top_k_eigen(op.q, 2).vectors)
    dense = np.max(np.abs(zero_diagonal(reconstruct(emb))))
    assert _off_diagonal_max(_form(emb)) == pytest.approx(dense, rel=1e-15)


def test_dense_forms_read_q_without_a_copy():
    """A walk covariance's sweep reads the operator's cached q itself."""
    op = CovarianceOperator(barbell(), 3)
    assert _form(op).b is op.q
    assert _form(op.q).b is op.q


def _labels(n, k, clamp):
    rng = np.random.default_rng(n)
    return {u: int(rng.integers(k)) for u in range(0, n, 5)} if clamp else {}


@pytest.mark.parametrize(
    ("normalize", "theta_n2"),
    [(False, 1), (True, 1), (False, 100), (True, 100)],
    ids=["raw", "normalize", "raw-theta-100n2", "normalize-theta-100n2"],
)
@pytest.mark.parametrize("clamp", [False, True], ids=["free", "clamped"])
@pytest.mark.parametrize("name", sorted(_GRAPHS))
def test_forms_match_the_zero_diagonal_dense_path(name, clamp, normalize, theta_n2):
    """The edge operator, the dense q with its diagonal, the walk
    operator and an embedding H (against HH^T) give the hard assignments
    of the dense path on zero_diagonal(q), divided by its largest |q|
    under normalize, with histories within 1e-12 * max(1, |objective|),
    over a fixed number of sweeps. At theta = 100 n^2 rows collapse to
    one-hot within the run, and later sweeps skip them."""
    g = _GRAPHS[name]()
    k = 3
    labels = _labels(g.n, k, clamp)
    emb = Embedding(h=top_k_eigen(CovarianceOperator(g).q, k).vectors)
    cases = [
        (CovarianceOperator(g), CovarianceOperator(g).q),
        (CovarianceOperator(g).q, CovarianceOperator(g).q),
        (CovarianceOperator(g, 3), CovarianceOperator(g, 3).q),
        (emb, reconstruct(emb)),
    ]
    for q, dense in cases:
        # tol=-1 never stops the ascent, so both runs make ten sweeps
        run = dict(theta=theta_n2 * g.n**2, seed=7, max_sweeps=10, tol=-1.0)
        q0 = zero_diagonal(dense)
        want = softmax_classify(q0 / np.max(np.abs(q0)) if normalize else q0, labels, k, **run)
        got = softmax_classify(q, labels, k, normalize=normalize, **run)
        np.testing.assert_array_equal(hard_assign(got).assignment, hard_assign(want).assignment)
        slack = 1e-12 * np.maximum(1.0, np.abs(want.history))
        assert np.all(np.abs(got.history - want.history) <= slack)
        assert got.sweeps == want.sweeps == 10


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("normalize", [False, True], ids=["raw", "normalize"])
def test_edge_objective_matches_the_dense_one(seed, normalize):
    """The edge form's objective, summed over its CSR entries 4096 at a time
    (three blocks here, the last one partial), is the dense objective on
    zero_diagonal(q), scaled alike, to 1e-13 relative to the sum of its
    absolute terms: the terms cancel, so the sum itself can be small."""
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, 300, extra=0.1, weighted=True)
    assert 2 * 4096 < 2 * g.edge_count < 3 * 4096
    op = CovarianceOperator(g)
    form = _form(op, normalize)
    q0 = zero_diagonal(op.q) * form.scale
    for k in (2, 5):
        h = rng.dirichlet(np.ones(k), size=g.n)
        terms = np.sum(np.abs(q0) * (h @ h.T))
        assert abs(softmax_objective(form, h) - softmax_objective(q0, h)) <= 1e-13 * terms


def test_edge_objective_gathers_in_blocks():
    """On a planted graph of 3200 nodes and 41k edges, with K = 16, the
    objective's peak stays under 2 MB, far below the 2m K 8 bytes of
    gathering h at every CSR entry at once."""
    g, _ = planted_partition(16, 200, 0.1, 0.002, seed=0)
    form = _form(CovarianceOperator(g))
    h = np.random.default_rng(0).dirichlet(np.ones(16), size=g.n)
    tracemalloc.start()
    try:
        softmax_objective(form, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6 < 2 * g.edge_count * 16 * 8 / 5


def test_edge_form_holds_its_csr_alone():
    """The edge form keeps one CSR of the adjacency, its data scaled in
    place: on a fresh 3200-node planted graph it holds about 12 bytes per
    entry (int32 indices, float64 data) plus O(n), not a second copy of
    the data or a row index per entry beside a CSR cached on the graph."""
    g, _ = planted_partition(16, 200, 0.1, 0.002, seed=0)
    tracemalloc.start()
    try:
        op = CovarianceOperator(g)
        form = _form(op)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert form.b.data.size == 2 * g.edge_count
    assert held <= 13 * form.b.data.size + 8 * g.n * 8
