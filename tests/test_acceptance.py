"""Acceptance suite: one test per advertised guarantee, each at its stated
tolerance. Every test prints a single PASS line (visible with -s or -rP)
once its assertions have gone through."""

import numpy as np
import pytest

from modembed import (
    Graph,
    edge_sampling,
    eigenmap_embedding,
    exp_distance_sampling,
    frobenius_objective,
    hard_assign,
    induce_cohesion,
    laplacian_pinv,
    micro_macro_f1,
    modularity_matrix,
    normalized_modularity,
    Partition,
    pca_embedding,
    planted_partition,
    random_walk_sampling,
    reconstruct,
    resistance_distance,
    select_dimension,
    softmax_classify,
    softmax_objective,
    spectral_embedding,
    top_k_eigen,
    train_test_split,
    update_node,
    weighted_distance_objective,
    zero_diagonal,
    DataMatrix,
    SemiMetric,
)
from modembed.cli import main

from helpers import (
    barbell,
    cycle4,
    largest_principal_angle,
    path3,
    random_connected_graph,
    random_orthonormal,
    random_semimetric,
    random_zero_diag_symmetric,
    set_partitions,
    triangle,
)


def _sampled(g, i, rng):
    """Cycle through the three samplers deterministically."""
    kind = i % 3
    if kind == 0:
        return edge_sampling(g)
    if kind == 1:
        return random_walk_sampling(g, 1 + i % 16)
    return exp_distance_sampling(resistance_distance(g))


def _classify_f1(g, dataset, seed, sampler):
    """Embedding pipeline: Q, spectral embedding at the gap-selected
    dimension, recomposed covariance with zero diagonal, clamped softmax,
    hard assignment, F1 on the holdout."""
    q = modularity_matrix(sampler(g))
    pairs = top_k_eigen(q.q, q.n)
    k = select_dimension(pairs.values)
    emb = spectral_embedding(q, k)
    recomposed = zero_diagonal(reconstruct(emb))
    label_map, holdout = train_test_split(dataset, 0.1, seed=seed)
    res = softmax_classify(recomposed, label_map, dataset.n_classes, seed=seed)
    predicted = hard_assign(res).assignment
    return micro_macro_f1(dataset.labels, predicted, holdout, dataset.n_classes)


def test_01_sampler_invariants():
    """All three samplers on 50 seeded connected graphs (n <= 200): zero
    row and column sums within 1e-12, symmetry within 1e-14, entries in
    [-1, 1]."""
    rng = np.random.default_rng(1001)
    for i in range(50):
        n = int(rng.integers(2, 201))
        g = random_connected_graph(rng, n, weighted=bool(i % 2))
        q = modularity_matrix(_sampled(g, i, rng)).q
        assert np.abs(q.sum(axis=1)).max() <= 1e-12
        assert np.abs(q.sum(axis=0)).max() <= 1e-12
        assert np.abs(q - q.T).max() <= 1e-14
        assert np.abs(q).max() <= 1.0
    print("[ACCEPT 01] sampler and modularity invariants: PASS")


def test_02_newman_equivalence():
    """Edge-sampled Q equals A/(2m) - d d^T/(2m)^2 entrywise within 1e-12."""
    rng = np.random.default_rng(1002)
    for i in range(20):
        g = random_connected_graph(rng, int(rng.integers(2, 121)), weighted=bool(i % 2))
        q = modularity_matrix(edge_sampling(g)).q
        vol = g.total_weight
        newman = g.adjacency / vol - np.outer(g.degrees, g.degrees) / vol**2
        assert np.abs(q - newman).max() <= 1e-12
    print("[ACCEPT 02] Newman modularity equivalence: PASS")


def test_03_distance_objective_identity():
    """sum_q(u,w) ||h_u - h_w||^2 equals -2 tr(H^T Q H) within 1e-10 for
    100 random orthonormal frames."""
    rng = np.random.default_rng(1003)
    checked = 0
    for i in range(10):
        g = random_connected_graph(rng, int(rng.integers(4, 61)), weighted=bool(i % 2))
        q = modularity_matrix(_sampled(g, i, rng))
        for _ in range(10):
            k = int(rng.integers(1, min(9, g.n + 1)))
            h = random_orthonormal(rng, g.n, k)
            lhs = weighted_distance_objective(q, h)
            rhs = -2.0 * float(np.trace(h.T @ q.q @ h))
            assert abs(lhs - rhs) <= 1e-10
            checked += 1
    assert checked == 100
    print("[ACCEPT 03] distance-form trace identity: PASS")


def test_04_frobenius_objective_identity():
    """||Q - H H^T||_F^2 equals ||Q||_F^2 - 2 tr(H^T Q H) + K within 1e-10
    for 100 random orthonormal frames."""
    rng = np.random.default_rng(1004)
    checked = 0
    for i in range(10):
        g = random_connected_graph(rng, int(rng.integers(4, 61)), weighted=bool(i % 2))
        q = modularity_matrix(_sampled(g, i, rng))
        norm_sq = float(np.linalg.norm(q.q) ** 2)
        for _ in range(10):
            k = int(rng.integers(1, min(9, g.n + 1)))
            h = random_orthonormal(rng, g.n, k)
            lhs = frobenius_objective(q, h)
            rhs = norm_sq - 2.0 * float(np.trace(h.T @ q.q @ h)) + k
            assert abs(lhs - rhs) <= 1e-10
            checked += 1
    assert checked == 100
    print("[ACCEPT 04] Frobenius expansion identity: PASS")


def test_05_spectral_optimality():
    """The spectral embedding's trace objective equals the sum of the top-K
    eigenvalues within 1e-8 and beats 200 random orthonormal competitors
    with margin >= -1e-9."""
    rng = np.random.default_rng(1005)
    g = random_connected_graph(rng, 40, extra=0.2)
    q = modularity_matrix(edge_sampling(g))
    k = 3
    emb = spectral_embedding(q, k)
    achieved = float(np.trace(emb.h.T @ q.q @ emb.h))
    oracle = float(np.sort(np.linalg.eigvalsh(q.q))[::-1][:k].sum())
    assert abs(achieved - oracle) <= 1e-8
    for _ in range(200):
        h = random_orthonormal(rng, g.n, k)
        competitor = float(np.trace(h.T @ q.q @ h))
        assert achieved - competitor >= -1e-9
    print("[ACCEPT 05] top-K eigenvector optimality: PASS")


def test_06_normalized_modularity_bound():
    """Exhaustively over every partition of graphs with n <= 7, normalized
    modularity stays below the sum of the top-K eigenvalues plus 1e-10."""
    rng = np.random.default_rng(1006)
    graphs = [
        random_connected_graph(rng, 5, extra=0.4),
        random_connected_graph(rng, 6, extra=0.3),
        random_connected_graph(rng, 7, extra=0.3, weighted=True),
        triangle(),
        cycle4(),
    ]
    for g in graphs:
        q = modularity_matrix(edge_sampling(g))
        prefix = np.cumsum(top_k_eigen(q.q, g.n).values)
        for labels in set_partitions(g.n):
            k = max(labels) + 1
            score = normalized_modularity(q, Partition(labels))
            assert score <= prefix[k - 1] + 1e-10
    print("[ACCEPT 06] Rayleigh-Ritz partition bound: PASS")


def test_07_update_monotonicity():
    """On 100 random symmetric zero-diagonal matrices (n <= 30) and
    theta in {0.1, 1, 10n}, no single node update loses more than 1e-12
    of objective."""
    rng = np.random.default_rng(1007)
    for _ in range(100):
        n = int(rng.integers(2, 31))
        k = int(rng.integers(2, 6))
        q = random_zero_diag_symmetric(rng, n)
        for theta in (0.1, 1.0, 10.0 * n):
            h = rng.uniform(0.05, 1.0, size=(n, k))
            h /= h.sum(axis=1, keepdims=True)
            obj = softmax_objective(q, h)
            for _sweep in range(2):
                for u in range(n):
                    update_node(q, h, u, theta)
                    new = softmax_objective(q, h)
                    assert new - obj >= -1e-12
                    obj = new
    print("[ACCEPT 07] softmax update monotonicity: PASS")


def test_08_duality_round_trip():
    """Semi-metric to cohesion and back is the identity within 1e-12 on
    100 random semi-metrics."""
    rng = np.random.default_rng(1008)
    from modembed import induce_metric

    for _ in range(100):
        n = int(rng.integers(2, 51))
        d = random_semimetric(rng, n, scale=4.0)
        back = induce_metric(induce_cohesion(SemiMetric(d))).d
        assert np.abs(back - d).max() <= 1e-12
    print("[ACCEPT 08] metric-cohesion duality round trip: PASS")


def test_09_small_theta_proportionality():
    """At theta = -1e-6 the off-diagonal of Q_theta/(-theta) is proportional
    to the induced cohesion matrix with relative ratio spread <= 1e-3."""
    rng = np.random.default_rng(1009)
    for _ in range(10):
        n = int(rng.integers(4, 21))
        d = random_semimetric(rng, n, scale=3.0)
        gamma = induce_cohesion(SemiMetric(d)).gamma
        q = modularity_matrix(exp_distance_sampling(SemiMetric(d), theta=-1e-6)).q
        off = ~np.eye(n, dtype=bool)
        mask = off & (np.abs(gamma) > 1e-6)
        assert mask.sum() > 0
        ratios = (q[mask] / 1e-6) / gamma[mask]
        spread = (ratios.max() - ratios.min()) / abs(np.median(ratios))
        assert spread <= 1e-3
    print("[ACCEPT 09] small-theta cohesion link: PASS")


def test_10_eigenmap_equivalence():
    """On 20 random connected graphs with simple relevant spectrum
    (n <= 100), the Laplacian eigenmap spans the top-K eigenspace of the
    Laplacian pseudo-inverse within principal angle 1e-6."""
    rng = np.random.default_rng(1010)
    accepted = 0
    while accepted < 20:
        n = int(rng.integers(8, 101))
        k = int(rng.integers(1, 6))
        g = random_connected_graph(rng, n, extra=0.1)
        gamma = laplacian_pinv(g).gamma
        values, vectors = np.linalg.eigh(gamma)
        order = np.argsort(values)[::-1]
        # need a clear spectral gap after position k for a well-defined span
        if values[order[k - 1]] - values[order[k]] < 1e-8:
            continue
        top = vectors[:, order[:k]]
        emb = eigenmap_embedding(g, k)
        assert largest_principal_angle(emb.h, top) <= 1e-6
        accepted += 1
    print("[ACCEPT 10] Laplacian eigenmap equivalence: PASS")


def test_11_resistance_goldens():
    """Effective resistance: single edge 1, path of three nodes (1, 1, 2),
    triangle 2/3, each within 1e-10."""
    single = resistance_distance(Graph.from_edges([(0, 1, 1.0)])).d
    assert abs(single[0, 1] - 1.0) <= 1e-10
    r3 = resistance_distance(path3()).d
    assert abs(r3[0, 1] - 1.0) <= 1e-10
    assert abs(r3[1, 2] - 1.0) <= 1e-10
    assert abs(r3[0, 2] - 2.0) <= 1e-10
    rk = resistance_distance(triangle()).d
    off = ~np.eye(3, dtype=bool)
    assert np.abs(rk[off] - 2 / 3).max() <= 1e-10
    print("[ACCEPT 11] resistance distance golden values: PASS")


def test_12_pca_equivalence():
    """On 20 random data sets (n <= 200, p <= 10), sqrt(lambda)-scaled
    embedding coordinates match SVD-based PCA scores within 1e-8 up to
    per-column sign."""
    rng = np.random.default_rng(1012)
    for _ in range(20):
        p = int(rng.integers(2, 11))
        n = int(rng.integers(p + 2, 201))
        x = rng.standard_normal((n, p)) * rng.uniform(0.5, 3.0, size=p)
        emb, scales = pca_embedding(DataMatrix(x), p)
        scores = emb.h * scales
        centered = x - x.mean(axis=0)
        u, s, _ = np.linalg.svd(centered, full_matrices=False)
        oracle = u * s
        for j in range(p):
            col, ref = scores[:, j], oracle[:, j]
            assert min(np.abs(col - ref).max(), np.abs(col + ref).max()) <= 1e-8
    print("[ACCEPT 12] PCA score equivalence: PASS")


def test_13_six_block_classification():
    """Planted partition with 6 blocks of 250 nodes at average degree
    about 65.9, 10% stratified labels: micro and macro F1 both at least
    0.95 averaged over 5 seeds."""
    p_in, p_out = 0.2, 0.01288
    micro, macro = [], []
    for seed in range(5):
        g, dataset = planted_partition(6, 250, p_in, p_out, seed=seed)
        assert abs(g.degrees.mean() - 65.9) <= 1.5
        report = _classify_f1(g, dataset, seed, edge_sampling)
        micro.append(report.micro_f1)
        macro.append(report.macro_f1)
    assert np.mean(micro) >= 0.95
    assert np.mean(macro) >= 0.95
    print(
        f"[ACCEPT 13] six-block classification (micro {np.mean(micro):.3f}, "
        f"macro {np.mean(macro):.3f}): PASS"
    )


def test_14_walk_length_trend():
    """On a sparse planted partition (average degree about 6), longer
    random walks help: mean micro-F1 at length 4 is at least the mean at
    length 2 over 10 seeds."""
    p_in, p_out = 4.5 / 99, 1.5 / 500
    means = {}
    for length in (2, 4):
        scores = []
        for seed in range(10):
            g, dataset = planted_partition(
                6, 100, p_in, p_out, seed=seed, ensure_connected=True
            )
            report = _classify_f1(
                g, dataset, seed, lambda graph: random_walk_sampling(graph, length)
            )
            scores.append(report.micro_f1)
        means[length] = float(np.mean(scores))
    assert means[4] >= means[2]
    print(
        f"[ACCEPT 14] walk-length trend (l=4 {means[4]:.3f} >= l=2 "
        f"{means[2]:.3f}): PASS"
    )


def test_15_eigensolver_contract():
    """The iterative eigensolver meets the residual bound
    ||Qv - lambda v|| <= 1e-8 max(1, ||Q||_inf) for every returned pair and
    agrees with a dense decomposition on n <= 50: eigenvalues within 1e-8,
    principal angles within 1e-6 on non-degenerate eigenvalues."""
    rng = np.random.default_rng(1015)
    matrices = [
        modularity_matrix(edge_sampling(triangle())).q,
        modularity_matrix(edge_sampling(cycle4())).q,
        modularity_matrix(edge_sampling(path3())).q,
    ]
    for i, n in enumerate((17, 30, 50)):
        g = random_connected_graph(rng, n, weighted=bool(i % 2))
        matrices.append(modularity_matrix(_sampled(g, i, rng)).q)
    m = rng.standard_normal((24, 24))
    matrices.append(0.5 * (m + m.T))
    for q in matrices:
        n = q.shape[0]
        k = min(n, 6)
        pairs = top_k_eigen(q, k, method="lanczos")
        scale = max(1.0, float(np.abs(q).sum(axis=1).max()))
        for lam, vec in zip(pairs.values, pairs.vectors.T):
            assert np.linalg.norm(q @ vec - lam * vec) <= 1e-8 * scale
        dense_values, dense_vectors = np.linalg.eigh(q)
        order = np.argsort(dense_values)[::-1][:k]
        oracle_values = dense_values[order]
        assert np.abs(pairs.values - oracle_values).max() <= 1e-8
        for j in range(k):
            lam = oracle_values[j]
            degenerate = np.abs(dense_values - lam) <= 1e-6
            if degenerate.sum() == 1:
                angle = largest_principal_angle(
                    pairs.vectors[:, j : j + 1], dense_vectors[:, degenerate]
                )
                assert angle <= 1e-6
    print("[ACCEPT 15] iterative eigensolver contract: PASS")


def test_16_cli_determinism(tmp_path):
    """Every CLI command rerun with the same inputs and seed produces
    byte-identical output files."""
    graph = tmp_path / "graph.txt"
    graph.write_text("a b\na c\nb c\nd e\nd f\ne f\nc d\n")
    g, dataset = planted_partition(3, 15, 0.6, 0.05, seed=2)
    planted = tmp_path / "planted.txt"
    planted.write_text("".join(f"{g.ids[u]} {g.ids[w]}\n" for u, w in g.edges))
    labels = tmp_path / "labels.txt"
    labels.write_text(
        "".join(f"{g.ids[i]} c{dataset.labels[i]}\n" for i in range(g.n))
    )
    points = tmp_path / "points.csv"
    rng = np.random.default_rng(16)
    points.write_text(
        "".join(
            ",".join(f"{v:.12g}" for v in row) + "\n"
            for row in rng.standard_normal((12, 3))
        )
    )
    truth = tmp_path / "truth.txt"
    truth.write_text("n1 A\nn2 A\nn3 B\nn4 B\n")
    pred = tmp_path / "pred.txt"
    pred.write_text("n1 A\nn2 B\nn3 B\nn4 B\n")

    def commands(tag):
        out = lambda name: str(tmp_path / f"{name}.{tag}")
        return [
            (
                ["spectrum", str(graph), "--sampler", "walk:3", "--output", out("spectrum")],
                ["spectrum"],
            ),
            (
                [
                    "embed", str(graph), "--dim", "2",
                    "--emit-spectrum", out("embed_spec"),
                    "--id-map", out("embed_ids"),
                    "--output", out("embed"),
                ],
                ["embed", "embed_spec", "embed_ids"],
            ),
            (
                ["eigenmap", str(graph), "--dim", "2", "--output", out("eigenmap")],
                ["eigenmap"],
            ),
            (
                ["pca", str(points), "--scaled", "--dim", "2", "--output", out("pca")],
                ["pca"],
            ),
            (
                [
                    "cluster", str(graph), "--dim", "2", "--seed", "9",
                    "--emit-history", out("cluster_hist"),
                    "--output", out("cluster"),
                ],
                ["cluster", "cluster_hist"],
            ),
            (
                [
                    "classify", str(planted), str(labels),
                    "--train-fraction", "0.2", "--seed", "4",
                    "--sampler", "walk:2",
                    "--output", out("classify"),
                ],
                ["classify"],
            ),
            (
                ["eval", str(truth), str(pred), "--output", out("eval")],
                ["eval"],
            ),
        ]

    for (argv_a, names), (argv_b, _) in zip(commands("a"), commands("b")):
        assert main(argv_a) == 0
        assert main(argv_b) == 0
        for name in names:
            first = (tmp_path / f"{name}.a").read_bytes()
            second = (tmp_path / f"{name}.b").read_bytes()
            assert first == second, f"{name} differs between reruns"
    print("[ACCEPT 16] CLI determinism: PASS")
