"""Command-line pipeline: outputs, exit codes, determinism."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from modembed import cli, edge_sampling, modularity_matrix, planted_partition, top_k_eigen
from modembed.cli import main
from modembed.spectral import krylov_pays

BARBELL = "a b\na c\nb c\nd e\nd f\ne f\nc d\n"
PATH3 = "a b\nb c\n"
TRIANGLE = "a b\nb c\na c\n"


@pytest.fixture
def barbell_file(tmp_path):
    path = tmp_path / "barbell.txt"
    path.write_text(BARBELL)
    return str(path)


@pytest.fixture
def path3_file(tmp_path):
    path = tmp_path / "path3.txt"
    path.write_text(PATH3)
    return str(path)


def read_table(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    head = lines[0].split("\t")
    body = [line.split("\t") for line in lines[1:]]
    return head, body


def test_spectrum_path3(tmp_path, path3_file):
    out = tmp_path / "spec.tsv"
    assert main(["spectrum", path3_file, "--output", str(out)]) == 0
    text = out.read_text()
    values = [float(line.split("\t")[1]) for line in text.splitlines()[1:-1]]
    np.testing.assert_allclose(sorted(values), sorted([0.0, 0.0, -3 / 8]), atol=1e-12)
    assert sum(values) == pytest.approx(-3 / 8, abs=1e-10)
    assert text.splitlines()[-1] == "# selected_k\t1"


def test_spectrum_triangle(tmp_path):
    graph = tmp_path / "k3.txt"
    graph.write_text(TRIANGLE)
    out = tmp_path / "spec.tsv"
    assert main(["spectrum", str(graph), "--output", str(out)]) == 0
    values = [float(line.split("\t")[1]) for line in out.read_text().splitlines()[1:-1]]
    np.testing.assert_allclose(values, [0.0, -1 / 6, -1 / 6], atol=1e-12)


def test_spectrum_walk_two_on_path_is_flat(tmp_path, path3_file):
    out = tmp_path / "spec.tsv"
    assert main(["spectrum", path3_file, "--sampler", "walk:2", "--output", str(out)]) == 0
    values = [float(line.split("\t")[1]) for line in out.read_text().splitlines()[1:-1]]
    assert np.abs(values).max() <= 1e-12


def test_embed_barbell(tmp_path, barbell_file):
    out = tmp_path / "emb.tsv"
    assert main(["embed", barbell_file, "--dim", "2", "--output", str(out)]) == 0
    head, body = read_table(out)
    assert head == ["node", "dim_1", "dim_2"]
    assert [row[0] for row in body] == list("abcdef")
    h = np.array([[float(v) for v in row[1:]] for row in body])
    np.testing.assert_allclose(np.linalg.norm(h, axis=0), [1.0, 1.0], atol=1e-10)
    # leading column separates the triangles
    assert len({np.sign(v) for v in h[:3, 0]}) == 1
    assert np.sign(h[0, 0]) != np.sign(h[3, 0])


def test_embed_auto_dim_and_spectrum_sidecar(tmp_path, barbell_file):
    out = tmp_path / "emb.tsv"
    spec = tmp_path / "spec.tsv"
    ids = tmp_path / "ids.tsv"
    code = main(
        [
            "embed",
            barbell_file,
            "--emit-spectrum",
            str(spec),
            "--id-map",
            str(ids),
            "--output",
            str(out),
        ]
    )
    assert code == 0
    head, body = read_table(out)
    assert head == ["node", "dim_1"]  # only one positive eigenvalue on the barbell
    assert spec.read_text().splitlines()[-1] == "# selected_k\t1"
    assert ids.read_text().startswith("a\t0\nb\t1\n")


def test_embed_dim_too_large_is_usage_error(tmp_path, path3_file):
    out = tmp_path / "emb.tsv"
    assert main(["embed", path3_file, "--dim", "99", "--output", str(out)]) == 1


def test_cluster_dim_too_large_is_usage_error(tmp_path, path3_file):
    out = tmp_path / "clusters.tsv"
    assert main(["cluster", path3_file, "--dim", "9", "--output", str(out)]) == 1
    assert not out.exists()


def test_embed_k_pairs_match_full_spectrum(tmp_path):
    """A fixed --dim solves for k pairs unless --emit-spectrum needs them all;
    both routes write the same bytes."""
    graph_path, _ = _write_planted(tmp_path)
    short, full = tmp_path / "short.tsv", tmp_path / "full.tsv"
    assert main(["embed", graph_path, "--dim", "2", "--output", str(short)]) == 0
    argv = ["embed", graph_path, "--dim", "2", "--output", str(full)]
    assert main(argv + ["--emit-spectrum", str(tmp_path / "spec.tsv")]) == 0
    assert short.read_bytes() == full.read_bytes()


def test_id_map_bytes(tmp_path):
    graph = tmp_path / "g.txt"
    graph.write_text("b a\na c\n")
    ids = tmp_path / "ids.tsv"
    argv = ["embed", str(graph), "--dim", "1", "--id-map", str(ids)]
    assert main(argv + ["--output", str(tmp_path / "emb.tsv")]) == 0
    assert ids.read_bytes() == b"b\t0\na\t1\nc\t2\n"


def test_eigenmap_path3(tmp_path, path3_file):
    out = tmp_path / "map.tsv"
    assert main(["eigenmap", path3_file, "--dim", "1", "--output", str(out)]) == 0
    _, body = read_table(out)
    column = [float(row[1]) for row in body]
    np.testing.assert_allclose(column, [1 / np.sqrt(2), 0.0, -1 / np.sqrt(2)], atol=1e-12)


def test_eigenmap_requires_fixed_dim(tmp_path, path3_file):
    assert main(["eigenmap", path3_file, "--output", str(tmp_path / "x.tsv")]) == 1


def test_pca_scaled_scores(tmp_path):
    data = tmp_path / "points.csv"
    data.write_text("p,-1,0\nq,1,0\n")
    out = tmp_path / "pca.tsv"
    code = main(
        ["pca", str(data), "--id-column", "--scaled", "--dim", "1", "--output", str(out)]
    )
    assert code == 0
    head, body = read_table(out)
    assert head == ["node", "dim_1"]
    assert [row[0] for row in body] == ["p", "q"]
    scores = [float(row[1]) for row in body]
    np.testing.assert_allclose(scores, [1.0, -1.0], atol=1e-12)


def test_cluster_barbell(tmp_path, barbell_file):
    out = tmp_path / "clusters.tsv"
    hist = tmp_path / "history.tsv"
    code = main(
        [
            "cluster",
            barbell_file,
            "--dim",
            "2",
            "--seed",
            "5",
            "--emit-history",
            str(hist),
            "--output",
            str(out),
        ]
    )
    assert code == 0
    _, body = read_table(out)
    groups = {row[0]: row[1] for row in body}
    assert groups["a"] == groups["b"] == groups["c"]
    assert groups["d"] == groups["e"] == groups["f"]
    assert groups["a"] != groups["d"]
    _, trace = read_table(hist)
    objective = [float(row[1]) for row in trace]
    assert min(np.diff(objective)) >= -1e-12


def test_history_bytes(tmp_path, barbell_file):
    hist = tmp_path / "history.tsv"
    argv = ["cluster", barbell_file, "--dim", "2", "--emit-history", str(hist)]
    assert main(argv + ["--output", str(tmp_path / "c.tsv")]) == 0
    lines = hist.read_bytes().split(b"\n")
    assert lines[0] == b"sweep\tobjective" and lines[-1] == b""
    for i, line in enumerate(lines[1:-1]):
        sweep, value = line.split(b"\t")
        assert sweep == str(i).encode()
        assert value == f"{float(value):.17g}".encode()


def _write_planted(tmp_path, seed=0):
    g, dataset = planted_partition(3, 20, 0.6, 0.05, seed=seed)
    graph_path = tmp_path / "planted.txt"
    graph_path.write_text(
        "".join(f"{g.ids[u]} {g.ids[w]}\n" for u, w in g.edges)
    )
    label_path = tmp_path / "planted_labels.txt"
    label_path.write_text(
        "".join(f"{g.ids[i]} c{dataset.labels[i]}\n" for i in range(g.n))
    )
    return str(graph_path), str(label_path)


def test_classify_planted(tmp_path):
    graph_path, label_path = _write_planted(tmp_path)
    out = tmp_path / "report.tsv"
    code = main(
        [
            "classify",
            graph_path,
            label_path,
            "--train-fraction",
            "0.2",
            "--seed",
            "11",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    rows = dict(
        line.split("\t") for line in out.read_text().splitlines()[1:]
    )
    assert set(rows) == {
        "micro_f1",
        "macro_f1",
        "selected_k",
        "n_train",
        "n_holdout",
        "sweeps",
        "converged",
    }
    assert rows["n_train"] == "12"
    assert rows["n_holdout"] == "48"
    assert float(rows["micro_f1"]) >= 0.9
    assert rows["converged"] in {"true", "false"}


@pytest.mark.parametrize("command", ["embed", "classify"])
def test_stdout_matches_file_output(tmp_path, capsys, command):
    graph_path, label_path = _write_planted(tmp_path)
    argv = [command, graph_path] + ([label_path] if command == "classify" else [])
    out = tmp_path / "out.tsv"
    assert main(argv + ["--output", str(out)]) == 0
    capsys.readouterr()
    assert main(argv + ["--output", "-"]) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


def test_classify_rejects_full_training_fraction(tmp_path):
    graph_path, label_path = _write_planted(tmp_path)
    code = main(
        ["classify", graph_path, label_path, "--train-fraction", "0.999",
         "--output", str(tmp_path / "r.tsv")]
    )
    assert code == 2


def test_eval_hand_example(tmp_path):
    truth = tmp_path / "truth.txt"
    truth.write_text("n1 A\nn2 A\nn3 B\nn4 B\n")
    pred = tmp_path / "pred.txt"
    pred.write_text("n1 A\nn2 B\nn3 B\nn4 B\n")
    out = tmp_path / "scores.tsv"
    assert main(["eval", str(truth), str(pred), "--output", str(out)]) == 0
    rows = dict(line.split("\t") for line in out.read_text().splitlines()[1:])
    assert float(rows["micro_f1"]) == pytest.approx(0.75, abs=1e-15)
    assert float(rows["macro_f1"]) == pytest.approx(15 / 19, abs=1e-15)
    assert rows["n_evaluated"] == "4"


def test_report_bytes(tmp_path):
    truth = tmp_path / "truth.txt"
    truth.write_text("n1 A\nn2 A\nn3 B\nn4 B\n")
    pred = tmp_path / "pred.txt"
    pred.write_text("n1 A\nn2 B\nn3 B\nn4 B\n")
    out = tmp_path / "scores.tsv"
    assert main(["eval", str(truth), str(pred), "--output", str(out)]) == 0
    expected = f"metric\tvalue\nmicro_f1\t0.75\nmacro_f1\t{15 / 19:.17g}\nn_evaluated\t4\n"
    assert out.read_bytes() == expected.encode()


def test_eval_rejects_unknown_node(tmp_path):
    truth = tmp_path / "truth.txt"
    truth.write_text("n1 A\nn2 B\n")
    pred = tmp_path / "pred.txt"
    pred.write_text("n1 A\nnX B\n")
    assert main(["eval", str(truth), str(pred), "--output", "-"]) == 2


def test_usage_errors_exit_one(tmp_path, path3_file):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    out = str(tmp_path / "x.tsv")
    assert main(["spectrum", path3_file, "--sampler", "vortex", "--output", out]) == 1
    assert main(["spectrum", path3_file, "--sampler", "walk:0", "--output", out]) == 1
    assert main(["spectrum", path3_file, "--sampler", "walk:17", "--output", out]) == 1


@pytest.mark.parametrize(
    "flags",
    [
        ["cluster", "--tol", "nan"],
        ["cluster", "--tol", "-1"],
        ["cluster", "--max-sweeps", "-3"],
        ["embed", "--sampler", "expdist", "--theta", "nan"],
        ["embed", "--dim", "0"],
        ["embed", "--dim", "two"],
        ["spectrum", "--seed", "1"],
        ["spectrum", "--tol", "1"],
        ["embed", "--seed", "1"],
        ["embed", "--tol", "1"],
        ["eigenmap", "--dim", "1", "--seed", "1"],
        ["eigenmap", "--dim", "1", "--tol", "1"],
        ["pca", "--seed", "1"],
        ["pca", "--tol", "1"],
        ["eval", "pred.txt", "--seed", "1"],
    ],
)
def test_bad_flag_values_exit_one(tmp_path, path3_file, flags):
    out = tmp_path / "x.tsv"
    assert main([flags[0], path3_file, *flags[1:], "--output", str(out)]) == 1
    assert not out.exists()


def test_zero_tolerance_is_accepted(tmp_path, barbell_file):
    argv = ["cluster", barbell_file, "--dim", "2", "--max-sweeps", "0", "--tol", "0"]
    assert main(argv + ["--output", str(tmp_path / "c.tsv")]) == 0


def test_input_errors_exit_two(tmp_path):
    out = str(tmp_path / "x.tsv")
    assert main(["spectrum", str(tmp_path / "missing.txt"), "--output", out]) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("a\n")
    assert main(["spectrum", str(bad), "--output", out]) == 2
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    assert main(["spectrum", str(empty), "--output", out]) == 2
    disconnected = tmp_path / "two.txt"
    disconnected.write_text("a b\nc d\n")
    assert main(["spectrum", str(disconnected), "--sampler", "walk:2", "--output", out]) == 2


def test_numerical_errors_exit_three(tmp_path, path3_file):
    out = str(tmp_path / "x.tsv")
    code = main(
        ["spectrum", path3_file, "--sampler", "expdist", "--theta", "-1000", "--output", out]
    )
    assert code == 3


def test_reruns_are_byte_identical(tmp_path, barbell_file):
    first = tmp_path / "a.tsv"
    second = tmp_path / "b.tsv"
    for out in (first, second):
        assert (
            main(["cluster", barbell_file, "--dim", "2", "--seed", "9",
                  "--output", str(out)])
            == 0
        )
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("field", ["nan", "inf", "-inf"])
def test_pca_rejects_non_finite_field_with_its_line(tmp_path, capsys, field):
    points = tmp_path / "points.csv"
    points.write_text(f"1.0,2.0\n3.0,4.0\n5.0,{field}\n")
    assert main(["pca", str(points), "--output", str(tmp_path / "p.tsv")]) == 2
    assert "line 3: non-finite field" in capsys.readouterr().err


def test_fresh_process_reruns_are_byte_identical(tmp_path):
    """Two fresh interpreters with one BLAS thread write the same bytes."""
    g, _ = planted_partition(3, 15, 0.6, 0.05, seed=2)
    planted = tmp_path / "planted.txt"
    planted.write_text("".join(f"{g.ids[u]} {g.ids[w]}\n" for u, w in g.edges))
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(src))
    outputs = []
    for run in range(2):
        out = {name: tmp_path / f"{name}.{run}" for name in ("embed", "spectrum", "cluster")}
        for argv in (
            ["embed", str(planted), "--dim", "auto",
             "--emit-spectrum", str(out["spectrum"]), "--output", str(out["embed"])],
            ["cluster", str(planted), "--output", str(out["cluster"])],
        ):
            subprocess.run(
                [sys.executable, "-m", "modembed.cli", *argv], env=env, check=True, timeout=120
            )
        outputs.append({name: path.read_bytes() for name, path in out.items()})
    assert outputs[0] == outputs[1]
    assert all(outputs[0].values())


def _record_eigen_calls(monkeypatch):
    """Replace cli.top_k_eigen with a pass-through that logs (k, method)."""
    calls = []
    solve = cli.top_k_eigen

    def record(m, k, method="dense", **kwargs):
        calls.append((k, method))
        return solve(m, k, method=method, **kwargs)

    monkeypatch.setattr(cli, "top_k_eigen", record)
    return calls


def _write_large_planted(tmp_path, blocks, size):
    """A connected planted partition big enough for the Krylov route."""
    g, dataset = planted_partition(blocks, size, 0.2, 0.005, seed=0, ensure_connected=True)
    graph_path = tmp_path / "large.txt"
    graph_path.write_text("".join(f"{g.ids[u]} {g.ids[w]}\n" for u, w in g.edges))
    label_path = tmp_path / "large_labels.txt"
    label_path.write_text("".join(f"{g.ids[i]} c{dataset.labels[i]}\n" for i in range(g.n)))
    return g, str(graph_path), str(label_path)


@pytest.mark.parametrize(
    ("graph", "flags", "expected"),
    [
        ("large", ["embed", "--dim", "2"], [(2, "power")]),
        ("large", ["embed", "--dim", "2", "--emit-spectrum"], [(600, "dense"), (2, "power")]),
        ("large", ["classify", "--dim", "2"], [(2, "power")]),
        ("planted", ["embed", "--dim", "2"], [(2, "dense")]),
        ("planted", ["embed", "--dim", "2", "--emit-spectrum"], [(60, "dense")]),
        ("barbell", ["embed", "--dim", "2"], [(2, "dense")]),
        ("planted", ["embed", "--dim", "auto"], [(60, "dense")]),
        ("planted", ["cluster", "--dim", "3"], []),
    ],
    ids=[
        "fixed", "fixed-sidecar", "classify-fixed", "small-n", "small-n-sidecar",
        "barbell", "auto", "cluster",
    ],
)
def test_eigensolver_routing(tmp_path, monkeypatch, barbell_file, graph, flags, expected):
    """A fixed --dim K asks for K pairs on the Krylov route when
    krylov_pays(K, n), and otherwise reuses or runs the dense solve;
    spectra and auto always solve densely for all n."""
    if graph == "large":
        _, graph_path, label_path = _write_large_planted(tmp_path, 3, 200)
    elif graph == "planted":
        graph_path, label_path = _write_planted(tmp_path)
    else:
        graph_path, label_path = barbell_file, None
    command, *rest = flags
    argv = [command, graph_path] + ([label_path] if command == "classify" else []) + rest
    if rest[-1] == "--emit-spectrum":
        argv.append(str(tmp_path / "spec.tsv"))
    calls = _record_eigen_calls(monkeypatch)
    assert main(argv + ["--output", str(tmp_path / "out.tsv")]) == 0
    assert calls == expected


def test_krylov_pays_only_for_narrow_bases():
    """The route needs its basis of 9(K + 2) columns to fit n / 16 times."""
    assert krylov_pays(16, 3200) and not krylov_pays(21, 3200)
    assert krylov_pays(2, 576) and not krylov_pays(2, 575)
    assert not krylov_pays(1, 60)


def test_krylov_embedding_meets_the_residual_contract(tmp_path, monkeypatch):
    """embed --dim 4 on n=1000 runs the Krylov route, with or without a
    sidecar, and writes orthonormal columns whose Rayleigh quotients are
    the dense top eigenvalues."""
    g, graph_path, _ = _write_large_planted(tmp_path, 8, 125)
    out, with_sidecar = tmp_path / "emb.tsv", tmp_path / "emb_sidecar.tsv"
    calls = _record_eigen_calls(monkeypatch)
    assert main(["embed", graph_path, "--dim", "4", "--output", str(out)]) == 0
    assert calls == [(4, "power")]
    argv = ["embed", graph_path, "--dim", "4", "--output", str(with_sidecar)]
    assert main(argv + ["--emit-spectrum", str(tmp_path / "spec.tsv")]) == 0
    assert out.read_bytes() == with_sidecar.read_bytes()
    _, body = read_table(out)
    h = np.zeros((g.n, 4))
    for name, *row in body:
        h[g.index_of(name)] = [float(v) for v in row]
    q = modularity_matrix(edge_sampling(g)).q
    bound = 1e-8 * max(1.0, np.abs(q).sum(axis=1).max())
    assert np.abs(h.T @ h - np.eye(4)).max() <= 1e-10
    theta = np.einsum("ij,ij->j", h, q @ h)
    assert np.linalg.norm(q @ h - h * theta, axis=0).max() <= bound
    np.testing.assert_allclose(theta, top_k_eigen(q, 4).values, rtol=0, atol=bound)


def test_fresh_process_krylov_reruns_are_byte_identical(tmp_path):
    """embed --dim 2 on n=600 takes the Krylov route; two fresh
    interpreters with one BLAS thread write the same bytes."""
    g, graph_path, _ = _write_large_planted(tmp_path, 3, 200)
    assert krylov_pays(2, g.n)
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(src))
    outputs = []
    for run in range(2):
        out = tmp_path / f"embed.{run}"
        subprocess.run(
            [sys.executable, "-m", "modembed.cli", "embed", graph_path, "--dim", "2",
             "--output", str(out)],
            env=env, check=True, timeout=120,
        )
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\n") == g.n + 1
