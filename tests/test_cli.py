"""Command-line pipeline: outputs, exit codes, determinism."""

import os
import random
import subprocess
import sys
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from modembed import (
    CovarianceOperator,
    cli,
    edge_sampling,
    modularity_matrix,
    planted_partition,
    random_walk_sampling,
    select_dimension,
    semimetric,
    softmax_cluster,
    spectral,
    top_k_eigen,
    zero_diagonal,
)
from modembed.cli import main
from modembed.evaluate import load_labels, read_label_map, train_test_split
from modembed.softmax import _perturbed_uniform
from modembed.spectral import krylov_pays

BARBELL = "a b\na c\nb c\nd e\nd f\ne f\nc d\n"
PATH3 = "a b\nb c\n"
TRIANGLE = "a b\nb c\na c\n"
DATA = Path(__file__).resolve().parent / "data"


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


def _dim_too_large_cases(tmp_path, monkeypatch, path3_file):
    """(graph, sampler) pairs whose --dim check must come before any
    sampler: cli._covariance is replaced by one that fails the test."""

    def no_covariance(args, g):
        raise AssertionError("the covariance was built before --dim was checked")

    monkeypatch.setattr(cli, "_covariance", no_covariance)
    two_parts = tmp_path / "two_parts.txt"
    two_parts.write_text("a b\nc d\n")
    return [(path3_file, sampler) for sampler in ("edge", "expdist", "walk:2")] + [
        (str(two_parts), "walk:2")
    ]


def test_embed_dim_too_large_is_usage_error(tmp_path, monkeypatch, path3_file):
    out = tmp_path / "emb.tsv"
    for graph, sampler in _dim_too_large_cases(tmp_path, monkeypatch, path3_file):
        argv = ["embed", graph, "--dim", "99", "--sampler", sampler, "--output", str(out)]
        assert main(argv) == 1, sampler


def test_cluster_dim_too_large_is_usage_error(tmp_path, monkeypatch, path3_file):
    out = tmp_path / "clusters.tsv"
    assert main(["cluster", path3_file, "--dim", "9", "--output", str(out)]) == 1
    for graph, sampler in _dim_too_large_cases(tmp_path, monkeypatch, path3_file):
        argv = ["cluster", graph, "--dim", "99", "--sampler", sampler, "--output", str(out)]
        assert main(argv) == 1, sampler
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
    """--dim auto, and a --dim of n or more: the constant eigenvector is dropped."""
    for dim in ([], ["--dim", "3"], ["--dim", "5"]):
        assert main(["eigenmap", path3_file, *dim, "--output", str(tmp_path / "x.tsv")]) == 1


def test_pca_dim_too_large_is_usage_error(tmp_path, monkeypatch):
    """The point count is checked before the decomposition runs."""

    def no_decomposition(data, k):
        raise AssertionError("pca_embedding ran before --dim was checked")

    monkeypatch.setattr(cli, "pca_embedding", no_decomposition)
    data = tmp_path / "points.csv"
    data.write_text("-1,0\n1,0\n")
    assert main(["pca", str(data), "--dim", "3", "--output", str(tmp_path / "pca.tsv")]) == 1


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


def _joined_tsv(rows):
    """The writer's bytes as one joined text, the way the whole table was
    once formatted before a single write."""
    return "".join(
        "\t".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n"
        for row in rows
    ).encode()


def test_streamed_tsv_bytes_match_the_joined_text(tmp_path, capsys):
    rows = [
        ("node", "dim_1", "dim_2"),
        ("a", -0.0, 5e-324),
        ("b", 1e308, np.float64(0.1)),
        ("c", 7, np.int64(-3)),
        ("# selected_k", np.int64(2), 1 / 3),
    ]
    out = tmp_path / "out.tsv"
    cli._write_tsv(str(out), iter(rows))
    capsys.readouterr()
    cli._write_tsv("-", iter(rows))
    assert out.read_bytes() == _joined_tsv(rows)
    assert capsys.readouterr().out.encode() == _joined_tsv(rows)


def test_tsv_writer_holds_one_row_at_a_time(tmp_path):
    """A 20000 x 16 embedding (6.6 MB of text) is written with at most
    1 MB of heap: rows are formatted and written one by one."""
    h = np.random.default_rng(2).standard_normal((20_000, 16))
    ids = tuple(f"node{i}" for i in range(h.shape[0]))
    out = tmp_path / "emb.tsv"
    tracemalloc.start()
    try:
        cli._write_tsv(str(out), cli._embedding_rows(ids, h))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.stat().st_size > 6 * 10**6
    assert out.read_bytes() == _joined_tsv(cli._embedding_rows(ids, h))
    assert peak <= 2**20


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
        ["embed", "--sampler", "expdist:nan"],
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
        *(["classify", "labels.txt", "--train-fraction", v] for v in ("1.5", "0", "nan")),
    ],
)
def test_bad_flag_values_exit_one(tmp_path, path3_file, flags):
    out = tmp_path / "x.tsv"
    assert main([flags[0], path3_file, *flags[1:], "--output", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, spelling",
    [
        (["embed", "--sampler", "walk:x"], "walk:L[:exact]"),
        (["embed", "--sampler", "expdist:x"], "expdist[:THETA]"),
        (["cluster", "--max-sweeps", "x"], "a nonnegative integer"),
        (["cluster", "--tol", "x"], "a number"),
        (["classify", "labels.txt", "--train-fraction", "x"], "a number"),
    ],
)
def test_unparsable_flag_values_name_the_accepted_spelling(
    tmp_path, capsys, path3_file, flags, spelling
):
    """An unparsable value exits 1 with a message that names what the flag
    takes, not the private function that parsed it."""
    assert main([flags[0], path3_file, *flags[1:], "--output", str(tmp_path / "x.tsv")]) == 1
    err = capsys.readouterr().err
    assert "invalid _" not in err and spelling in err, err


def test_bad_sampler_is_rejected_before_reading_the_graph(tmp_path):
    out = tmp_path / "x.tsv"
    for flags in (["--sampler", "bogus"], ["--theta", "5"], ["--exact-length"],
                  *(["--sampler", v] for v in ("edge:1", "walk:3:fast", "walk:3:exact:x",
                                               "expdist:1:2"))):
        argv = ["embed", str(tmp_path / "missing.txt"), *flags, "--output", str(out)]
        assert main(argv) == 1, flags
    assert not out.exists()


def test_cluster_dim_one_is_rejected_before_reading_the_graph(tmp_path):
    """One cluster is a usage error, reported before the graph is read."""
    out = tmp_path / "x.tsv"
    assert main(["cluster", str(tmp_path / "MISSING.txt"), "--dim", "1", "--output", str(out)]) == 1
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


@pytest.mark.parametrize(
    ("command", "texts"),
    [
        (["embed", "--dim", "1"], ["a b\nb c\nc a\n"]),
        (["embed", "--dim", "1"], ["a b\nb a\n"]),
        (["classify", "--dim", "2"], [(DATA / name).read_text() for name in
                                      ("karate.txt", "karate_factions.txt")]),
        (["pca", "--dim", "1"], ["1 2\n3 5\n4 4\n"]),
    ],
    ids=["triangle", "one-edge", "labels", "points"],
)
def test_a_byte_order_mark_is_not_part_of_the_first_field(tmp_path, command, texts):
    """A UTF-8 byte-order mark opening the last input file (a graph, a
    label file, a point file) is skipped, not read into the first id or
    number: the command writes the bytes it writes without the mark."""
    outputs = []
    for mark in ("", "\ufeff"):
        paths = [tmp_path / f"{len(mark)}-{i}.txt" for i in range(len(texts))]
        for path, text in zip(paths, texts):
            path.write_text((mark if path == paths[-1] else "") + text, encoding="utf-8")
        out = tmp_path / f"{len(mark)}.tsv"
        assert main([command[0], *map(str, paths), *command[1:], "--output", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[1] == outputs[0]


def test_walk_one_is_edge_sampling_on_any_graph(tmp_path):
    """walk:1's Q is the edge Q, so like edge sampling it needs no connected graph."""
    two = tmp_path / "two.txt"
    two.write_text("a b\nb c\nc a\nd e\ne f\nf d\n")
    outs = []
    for sampler in ("edge", "walk:1"):
        out = tmp_path / "out.tsv"
        assert main(["cluster", str(two), "--sampler", sampler, "--dim", "2", "--output", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "text, message",
    [
        ("a b 1e308\nb c 1e308\n", "total weight overflows: the weighted degrees sum past 1.8e308"),
        ("a b 1e308\nb a 1e308\nb c 1\n", "edge (0, 1) has a non-finite or non-positive weight"),
    ],
    ids=["total", "merged-pair"],
)
def test_overflowing_weights_are_a_one_line_input_error(tmp_path, text, message):
    graph = tmp_path / "huge.txt"
    graph.write_text(text)
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "modembed.cli", "embed", str(graph), "--dim", "1"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == f"input error: {message}\n"


def test_negative_theta_in_exponent_form_is_a_value(tmp_path):
    out = [tmp_path / "spaced.tsv", tmp_path / "joined.tsv", tmp_path / "decimal.tsv"]
    karate = str(DATA / "karate.txt")
    argv = ["spectrum", karate]
    assert main([*argv, "--sampler", "expdist:-1e-3", "--output", str(out[0])]) == 0
    assert main([*argv, "--sampler=expdist:-1e-3", "--output", str(out[1])]) == 0
    assert main([*argv, "--sampler", "expdist:-0.001", "--output", str(out[2])]) == 0
    assert out[0].read_bytes() == out[1].read_bytes() == out[2].read_bytes()


def test_davis_fixture_embeds(tmp_path):
    out = tmp_path / "davis.tsv"
    assert main(["embed", str(DATA / "davis.txt"), "--dim", "2", "--output", str(out)]) == 0
    head, body = read_table(out)
    assert head == ["node", "dim_1", "dim_2"]
    assert [row[0] for row in body][:3] == ["Evelyn_Jefferson", "E1", "E2"]
    assert len(body) == 32


def test_numerical_errors_exit_three(tmp_path, path3_file):
    out = str(tmp_path / "x.tsv")
    code = main(
        ["spectrum", path3_file, "--sampler", "expdist:-1000", "--output", out]
    )
    assert code == 3


def test_running_out_of_memory_exits_three(tmp_path):
    """A dense Q of a 20k-node cycle takes 2.98 GiB. With the address
    space capped below that, spectrum ends with one line on stderr and
    exit 3, not a traceback."""
    graph = tmp_path / "cycle20k.txt"
    graph.write_text("".join(f"{i} {(i + 1) % 20000}\n" for i in range(20000)))
    code = ("import resource, sys; cap = 1536 << 20;"
            " resource.setrlimit(resource.RLIMIT_AS, (cap, cap));"
            " from modembed.cli import main; sys.exit(main(sys.argv[1:]))")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    argv = [sys.executable, "-c", code, "spectrum", str(graph), "--output", os.devnull]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 3, done.stderr
    assert done.stderr.startswith("out of memory: Unable to allocate 2.98 GiB")
    assert len(done.stderr.splitlines()) == 1


def test_memory_error_is_one_line(monkeypatch, capsys, path3_file):
    """A MemoryError without a message still ends in one line and exit 3."""
    def exhaust(q):
        raise MemoryError()

    monkeypatch.setattr(cli, "eigenvalues", exhaust)
    assert main(["spectrum", path3_file, "--output", os.devnull]) == 3
    assert capsys.readouterr().err == "out of memory: an allocation failed\n"


def test_failed_pseudo_inverse_exits_three(tmp_path, capsys):
    """Weights alternating 1e150 and 1e-150 leave the shifted Laplacian
    numerically singular, and 1e6 and 1e-6 on 400 nodes leave L+ failing
    its probe: numerical failures, not bad input."""
    graph = tmp_path / "swamped.txt"
    for big, small, edges, reason in [(1e150, 1e-150, 400, "not numerically positive definite"),
                                      (1e6, 1e-6, 399, "failed its check")]:
        graph.write_text("".join(f"{u} {u + 1} {big if u % 2 == 0 else small}\n"
                                 for u in range(edges)))
        argv = ["spectrum", str(graph), "--sampler", "expdist", "--output", str(tmp_path / "s.tsv")]
        assert main(argv) == 3
        assert reason in capsys.readouterr().err


def test_spectrum_expdist_on_long_path(tmp_path):
    """The resistance distances of a 100-node path pass the cohesion
    check, so the expdist spectrum is written instead of exit 2."""
    graph = tmp_path / "path100.txt"
    graph.write_text("".join(f"v{u} v{u + 1}\n" for u in range(99)))
    out = tmp_path / "spec.tsv"
    assert main(["spectrum", str(graph), "--sampler", "expdist", "--output", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 102


def test_spectrum_expdist_with_a_positive_theta_at_the_range_edge(tmp_path, capsys):
    """|theta| * max d = 349.9 * 2 = 699.8 on a 200-node star is inside the
    exponential range, so the spectrum is written, with nothing on stderr."""
    graph = tmp_path / "star200.txt"
    graph.write_text("".join(f"0 {i}\n" for i in range(1, 200)))
    out = tmp_path / "spec.tsv"
    argv = ["spectrum", str(graph), "--sampler", "expdist:349.9", "--output", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    assert len(out.read_text().splitlines()) == 202


@pytest.mark.parametrize(("command", "missed"), [("embed", ["8"]), ("eigenmap", ["2", "8"])])
def test_karate_sign_split_matches_factions(tmp_path, command, missed):
    """On Zachary's karate club the sign of the one-dimensional embedding
    puts every member but those listed on the side of their faction."""
    out = tmp_path / "karate.tsv"
    assert main([command, str(DATA / "karate.txt"), "--dim", "1", "--output", str(out)]) == 0
    factions = read_label_map(DATA / "karate_factions.txt")
    _, body = read_table(out)
    positive = {name: float(value) > 0 for name, value in body}
    assert len(positive) == 34
    hi = positive["0"]  # member 0 is Mr. Hi
    wrong = [name for name, side in positive.items() if (side == hi) != (factions[name] == "mr_hi")]
    assert sorted(wrong, key=int) == missed


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


@pytest.mark.parametrize(
    ("rows", "code", "stdout", "stderr"),
    [
        (["1.7e308\t1.7e308"] * 3, 2, "",
         "input error: centred data overflows: a mean or value passes 1.8e308\n"),
        (["1.7e308"] * 200 + ["-1.7e308"] * 200, 2, "",
         "input error: centred data overflows: a mean or value passes 1.8e308\n"),
        (["1e308\t1e308", "-1e308\t-1e308"], 2, "",
         "input error: centred data overflows: its largest singular value passes 1.8e308\n"),
        (["1e200\t0\t0", "-1e200\t0\t0", "0\t8e199\t0", "0\t-8e199\t0", "0\t0\t1", "0\t0\t-1"],
         0, "node\tdim_1\tdim_2\n", ""),
    ],
    ids=["mean-overflows", "mean-is-nan", "norm-overflows", "squares-overflow"],
)
def test_pca_near_the_float_range(tmp_path, rows, code, stdout, stderr):
    """Data whose centred values overflow, or whose mean sums +inf and
    -inf halves, is an input error, and --dim auto reads its gap from the
    singular values over the largest, whose squares cannot overflow:
    singular values 1.4e200, 1.1e200 and 1.4 give k = 2. None prints a
    warning."""
    data = tmp_path / "points.tsv"
    data.write_text("".join(row + "\n" for row in rows))
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "modembed.cli", "pca", str(data), "--dim", "auto"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stderr) == (code, stderr)
    assert done.stdout.startswith(stdout)


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
    """Replace cli.top_k_eigen with a pass-through that logs (type of m,
    k, route): "lanczos" when the call took the Lanczos route, reading
    its pairs off a Lanczos state or running spectral._lanczos, whether
    or not that converged, "dense" when it did not."""
    calls, iterated = [], []
    solve, read = cli.top_k_eigen, spectral.LanczosState.ritz

    def ritz(state, k):
        iterated.append(k)
        return read(state, k)

    def record(m, k, state=None):
        iterated.clear()
        pairs = solve(m, k, state)
        calls.append((type(m).__name__, k, "lanczos" if iterated else "dense"))
        return pairs

    monkeypatch.setattr(spectral.LanczosState, "ritz", ritz)
    monkeypatch.setattr(cli, "top_k_eigen", record)
    return calls


def _record_loads(monkeypatch):
    """Replace cli._load_graph with a pass-through that keeps each graph."""
    loaded = []
    load = cli._load_graph

    def record(args):
        loaded.append(load(args))
        return loaded[-1]

    monkeypatch.setattr(cli, "_load_graph", record)
    return loaded


def _write_large_planted(tmp_path, blocks, size, p_in=0.2, p_out=0.005):
    """A connected planted partition big enough for the Krylov route."""
    g, dataset = planted_partition(blocks, size, p_in, p_out, seed=0, ensure_connected=True)
    graph_path = tmp_path / "large.txt"
    graph_path.write_text("".join(f"{g.ids[u]} {g.ids[w]}\n" for u, w in g.edges))
    label_path = tmp_path / "large_labels.txt"
    label_path.write_text("".join(f"{g.ids[i]} c{dataset.labels[i]}\n" for i in range(g.n)))
    return g, str(graph_path), str(label_path)


@pytest.mark.parametrize(
    ("graph", "flags", "expected", "solves"),
    [
        ("large", ["embed", "--dim", "2"], [(2, "lanczos")], [2]),
        ("large", ["embed", "--dim", "2", "--emit-spectrum"], [(2, "lanczos")], [2]),
        ("large", ["classify", "--dim", "2"], [(2, "lanczos")], [2]),
        ("planted", ["embed", "--dim", "2"], [(2, "dense")], []),
        ("planted", ["embed", "--dim", "2", "--emit-spectrum"], [(2, "dense")], []),
        ("barbell", ["embed", "--dim", "2"], [(2, "dense")], []),
        ("planted", ["embed", "--dim", "auto"], [(2, "dense")], []),
        ("planted", ["cluster", "--dim", "3"], [], []),
        ("settled", ["embed", "--dim", "auto", "--sampler", "walk:3"], [], [8]),
        ("settled", ["classify", "--dim", "auto", "--sampler", "walk:3"], [], [8]),
        ("unsettled", ["embed", "--dim", "auto"], [(7, "lanczos")], [8]),
    ],
    ids=[
        "fixed", "fixed-sidecar", "classify-fixed", "small-n", "small-n-sidecar",
        "barbell", "auto", "cluster", "settled-auto", "classify-settled-auto", "unsettled-auto",
    ],
)
def test_eigensolver_routing(tmp_path, monkeypatch, barbell_file, graph, flags, expected,
                             solves):
    """The K embedded at, fixed or picked by auto, gets one solve for K
    pairs, on the Krylov route when krylov_pays(K, n) and densely
    otherwise; spectra need no eigenpairs at all. An auto K that
    top_spectrum settles, here at j = 8 on 1440 nodes, is embedded from
    that rung's pairs: one Lanczos solve in all, and no top_k_eigen. One
    that j = 8 does not settle, on sparser blocks, takes k from the dense
    spectrum and reads its pairs off that rung's converged Lanczos state:
    one solve too, whose columns are the sidecar's selected_k and meet the
    residual contract against the dense Q."""
    if graph == "large":
        _, graph_path, label_path = _write_large_planted(tmp_path, 3, 200)
    elif graph == "settled":
        _, graph_path, label_path = _write_large_planted(tmp_path, 8, 180)
    elif graph == "unsettled":
        g, graph_path, label_path = _write_large_planted(tmp_path, 8, 180, 0.05, 0.002)
    elif graph == "planted":
        graph_path, label_path = _write_planted(tmp_path)
    else:
        graph_path, label_path = barbell_file, None
    command, *rest = flags
    argv = [command, graph_path] + ([label_path] if command == "classify" else []) + rest
    if rest[-1] == "--emit-spectrum":
        argv.append(str(tmp_path / "spec.tsv"))
    calls, iterated, iterate = _record_eigen_calls(monkeypatch), [], spectral._lanczos
    monkeypatch.setattr(spectral, "_lanczos",
                        lambda m, k, state: iterated.append(k) or iterate(m, k, state))
    assert main(argv + ["--output", str(tmp_path / "out.tsv")]) == 0
    assert [call[1:] for call in calls] == expected
    assert iterated == solves
    if graph != "unsettled":
        return
    spec = tmp_path / "spec.tsv"
    assert main(argv + ["--emit-spectrum", str(spec), "--output", os.devnull]) == 0
    _, body = read_table(tmp_path / "out.tsv")
    h = np.zeros((g.n, len(body[0]) - 1))
    for name, *row in body:
        h[g.index_of(name)] = [float(v) for v in row]
    assert spec.read_text().splitlines()[-1] == f"# selected_k\t{h.shape[1]}"
    q = modularity_matrix(edge_sampling(g)).q
    theta = np.einsum("ij,ij->j", h, q @ h)
    bound = 1e-8 * max(1.0, np.abs(q).sum(axis=1).max())
    assert np.linalg.norm(q @ h - h * theta, axis=0).max() <= bound


@pytest.mark.parametrize(
    ("flags", "expected", "sample"),
    [
        ([], [("CovarianceOperator", 2, "lanczos")], edge_sampling),
        (["--sampler", "walk:3"], [("CovarianceOperator", 2, "lanczos")],
         lambda g: random_walk_sampling(g, 3)),
        (["--sampler", "walk:3:exact"], [("CovarianceOperator", 2, "lanczos")],
         lambda g: random_walk_sampling(g, 3, exact_length=True)),
        (["--emit-spectrum"], [("CovarianceOperator", 2, "lanczos")], edge_sampling),
        (["--sampler", "expdist"], [("ModularityMatrix", 2, "lanczos")], None),
    ],
    ids=["edge", "walk", "walk-exact", "edge-sidecar", "expdist"],
)
def test_fixed_k_krylov_route_solves_on_the_operator(tmp_path, monkeypatch, flags, expected, sample):
    """A fixed --dim K on the Krylov route hands the edge and walk
    covariances to the solver as the matrix-free operator, with or
    without a sidecar spectrum; expdist keeps its dense Q. The columns
    meet the residual contract against the dense Q."""
    g, graph_path, _ = _write_large_planted(tmp_path, 3, 200)
    loaded, calls = _record_loads(monkeypatch), _record_eigen_calls(monkeypatch)
    out = tmp_path / "emb.tsv"
    argv = ["embed", graph_path, "--dim", "2", "--output", str(out), *flags]
    if flags[-1:] == ["--emit-spectrum"]:
        argv.append(str(tmp_path / "spec.tsv"))
    assert main(argv) == 0
    assert calls == expected
    # No run builds the dense adjacency; expdist's Laplacian reads the edge arrays.
    assert "adjacency" not in loaded[0].__dict__
    if sample is None:
        return
    q = modularity_matrix(sample(g)).q
    _, body = read_table(out)
    h = np.zeros((g.n, 2))
    for name, *row in body:
        h[g.index_of(name)] = [float(v) for v in row]
    theta = np.einsum("ij,ij->j", h, q @ h)
    assert np.linalg.norm(q @ h - h * theta, axis=0).max() <= 1e-8
    np.testing.assert_allclose(theta, top_k_eigen(q, 2).values, rtol=0, atol=1e-8)


@pytest.mark.parametrize("sampler", ["edge", "walk:3", "expdist"])
@pytest.mark.parametrize(
    "flags",
    [["spectrum"], ["embed", "--dim", "auto"], ["cluster"]],
    ids=["spectrum", "embed-auto", "cluster"],
)
def test_edge_and_walk_commands_build_no_dense_adjacency(tmp_path, monkeypatch, flags, sampler):
    """Commands that need the dense Q form it from the operator, not
    from A and p, and expdist's Laplacian comes from the edge arrays:
    no command caches an n x n adjacency on its graph."""
    graph_path, _ = _write_planted(tmp_path)
    loaded = _record_loads(monkeypatch)
    argv = [flags[0], graph_path, *flags[1:], "--sampler", sampler]
    assert main(argv + ["--output", str(tmp_path / "out.tsv")]) == 0
    assert "adjacency" not in loaded[0].__dict__


def test_eigenmap_builds_no_dense_adjacency(tmp_path, monkeypatch):
    graph_path, _ = _write_planted(tmp_path)
    loaded = _record_loads(monkeypatch)
    assert main(["eigenmap", graph_path, "--dim", "2", "--output", str(tmp_path / "out.tsv")]) == 0
    assert "adjacency" not in loaded[0].__dict__


def _refuse(*args, **kwargs):
    raise AssertionError("an n x n array was formed")


def test_edge_cluster_forms_no_dense_q(tmp_path, monkeypatch):
    """Edge-sampled cluster runs its ascent on A/2m - p_u p_u^T without
    reading the operator's dense q."""
    graph_path, _ = _write_planted(tmp_path)
    monkeypatch.setattr(CovarianceOperator, "q", property(_refuse))
    out = tmp_path / "clusters.tsv"
    argv = ["cluster", graph_path, "--sampler", "edge", "--dim", "3", "--output", str(out)]
    assert main(argv) == 0
    assert len(read_table(out)[1]) == 60


def test_classify_forms_no_recomposition(tmp_path, monkeypatch):
    """classify runs its ascent on the embedding H, not on HH^T."""
    graph_path, label_path = _write_planted(tmp_path)
    monkeypatch.setattr(cli, "reconstruct", _refuse)
    out = tmp_path / "report.tsv"
    assert main(["classify", graph_path, label_path, "--dim", "2", "--output", str(out)]) == 0
    assert float(dict(read_table(out)[1])["micro_f1"]) >= 0.9


@pytest.mark.parametrize("name", ["karate.txt", "lesmis.txt"])
def test_cluster_normalize_matches_the_dense_path(tmp_path, name):
    """cluster --normalize assigns what the library's dense path does on
    zero_diagonal(Q) divided by its largest off-diagonal |q|."""
    out = tmp_path / "clusters.tsv"
    argv = ["cluster", str(DATA / name), "--dim", "3", "--normalize", "--output", str(out)]
    assert main(argv) == 0
    with open(DATA / name) as fh:
        g = cli.load_edge_list(fh)
    q0 = zero_diagonal(CovarianceOperator(g).q)
    seed = cli._stage_seed(0, "softmax")
    dense = softmax_cluster(q0 / np.max(np.abs(q0)), 3, seed=seed, tol=1e-10)
    want = [(node, str(c)) for node, c in zip(g.ids, dense.h.argmax(axis=1))]
    assert [tuple(row) for row in read_table(out)[1]] == want


_WITHOUT_SCIPY = """
import os, sys
sys.modules["scipy"] = None  # any import of scipy or a submodule now fails
from modembed.cli import main
karate, factions, cycle, planted, points = sys.argv[1:]
for argv in [  # no draws from numpy: every seeded draw comes from the stdlib generator
    ["embed", karate, "--dim", "2"],
    ["embed", karate, "--dim", "auto"],
    ["spectrum", karate],
    ["spectrum", karate, "--sampler", "expdist"],
    ["eigenmap", karate, "--dim", "2"],
    ["pca", points, "--dim", "2"],
    ["embed", cycle, "--dim", "16"],
    ["embed", planted, "--dim", "auto"],
    ["cluster", karate, "--dim", "2"],
    ["cluster", karate, "--dim", "2", "--normalize"],
    ["classify", karate, factions, "--dim", "2"],
]:
    assert main(argv + ["--output", os.devnull]) == 0, argv
    assert "numpy.random" not in sys.modules, argv
try:  # the control: a walk sampler's dense Q does import scipy
    main(["cluster", karate, "--sampler", "walk:2", "--dim", "2", "--output", os.devnull])
except ImportError as exc:
    assert exc.name.split(".")[0] == "scipy", exc
else:
    raise AssertionError("cluster --sampler walk:2 on the karate club ran without scipy")
from modembed import planted_partition
planted_partition(2, 3, 1.0, 0.0, seed=0)
assert "numpy.random" in sys.modules  # the control: the library generator draws from numpy
"""


def test_importing_the_cli_leaves_scipy_unloaded(tmp_path):
    """scipy is imported only for a walk sampler's dense Q, not at
    start-up: these commands, on the karate club, on the Lanczos route of
    a 3000-node cycle and on the top_spectrum route of a 1600-node planted
    graph, run with scipy made unimportable. numpy.random stays unloaded
    too, cluster and classify included, until planted_partition draws
    from it."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    check = "import sys, modembed.cli; sys.exit(bool({'scipy', 'numpy.random'} & set(sys.modules)))"
    subprocess.run([sys.executable, "-c", check], env=env, check=True, timeout=120)
    cycle = tmp_path / "cycle.txt"
    cycle.write_text("".join(f"{i} {(i + 1) % 3000}\n" for i in range(3000)))
    _, planted, _ = _write_large_planted(tmp_path, 8, 200)
    points = tmp_path / "points.tsv"
    np.savetxt(points, np.random.default_rng(0).standard_normal((40, 3)), delimiter="\t")
    files = [str(DATA / "karate.txt"), str(DATA / "karate_factions.txt"), str(cycle), planted,
             str(points)]
    subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, *files], env=env, check=True,
                   timeout=300)


def test_seeded_streams_are_pinned():
    """The stage seeds, the first rows of the softmax start and a stratified
    karate split, pinned as the planted repair draws are: a change in any
    seeded stream moves one of these values."""
    seeds = {tag: cli._stage_seed(0, tag) for tag in ("softmax", "split")}
    assert seeds == {"softmax": 693561082, "split": 2985662993}
    assert cli._stage_seed(-1, "split") == 0xFFFFFFFF << 32 | seeds["split"]
    start = _perturbed_uniform(34, 2, seeds["softmax"])[:4]
    assert zlib.crc32(start.astype("<f8").tobytes()) == 399134267
    with open(DATA / "karate.txt") as fh:
        g = cli.load_edge_list(fh)
    dataset, _ = load_labels(DATA / "karate_factions.txt", g)
    label_map, _ = train_test_split(dataset, 0.1, seed=seeds["split"])
    assert sorted(label_map) == [6, 15, 27, 33]


def test_no_command_draws_gaussians(tmp_path, monkeypatch):
    """Every seeded draw comes from random(), the one stdlib method whose
    sequence Python keeps across releases: with gauss made to raise, the
    Lanczos route of embed, the settled top spectrum of classify and the
    L+ probe of expdist still run."""
    def refuse(*args, **kwargs):
        raise AssertionError("random.Random.gauss was called")

    monkeypatch.setattr(random.Random, "gauss", refuse)
    solves, iterate = [], spectral._lanczos
    monkeypatch.setattr(spectral, "_lanczos",
                        lambda m, k, state: solves.append(k) or iterate(m, k, state))
    _, graph_path, label_path = _write_large_planted(tmp_path, 8, 180)
    for argv in (["embed", graph_path, "--dim", "8"],
                 ["classify", graph_path, label_path, "--sampler", "walk:3", "--dim", "auto"],
                 ["spectrum", graph_path, "--sampler", "expdist"]):
        assert main(argv + ["--output", os.devnull]) == 0, argv
    assert solves == [8, 8]  # embed's solve and the rung that settles classify's k


def test_eigenmap_writes_no_negative_zero(tmp_path, barbell_file):
    """An exact zero in a sign-flipped column prints as 0, not -0."""
    out = tmp_path / "map.tsv"
    assert main(["eigenmap", barbell_file, "--dim", "2", "--output", str(out)]) == 0
    fields = [v for row in read_table(out)[1] for v in row[1:]]
    assert "0" in fields and "-0" not in fields


def test_krylov_pays_only_for_narrow_bases():
    """The route is taken when 144 (K + 2) <= n, a rule measured for an
    earlier block Krylov solver; it holds for a fixed K and for the K
    that --dim auto picks."""
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
    assert calls == [("CovarianceOperator", 4, "lanczos")]
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


def test_embed_solves_densely_when_lanczos_fails(tmp_path, monkeypatch):
    """embed --dim 2 on a 600-node path takes the Lanczos route; with a
    one-restart budget the iteration gives up, top_k_eigen solves
    densely, and embed writes the dense route's bytes instead of
    exiting 3."""
    graph = tmp_path / "path.txt"
    graph.write_text("".join(f"{i} {i + 1}\n" for i in range(599)))
    dense, fallback = tmp_path / "dense.tsv", tmp_path / "fallback.tsv"
    with monkeypatch.context() as m:
        m.setattr(spectral, "krylov_pays", lambda k, n: False)
        assert main(["embed", str(graph), "--dim", "2", "--output", str(dense)]) == 0
    monkeypatch.setattr(spectral, "_MAX_RESTARTS", 1)
    calls = _record_eigen_calls(monkeypatch)
    assert main(["embed", str(graph), "--dim", "2", "--output", str(fallback)]) == 0
    assert calls == [("CovarianceOperator", 2, "lanczos")]
    assert fallback.read_bytes() == dense.read_bytes()


def _refuse_eigenpairs(*args, **kwargs):
    raise AssertionError("eigenvectors were computed")


@pytest.mark.parametrize("sampler", ["edge", "walk:3", "expdist"])
@pytest.mark.parametrize(
    "flags", [["spectrum"], ["cluster", "--dim", "auto"]], ids=["spectrum", "cluster-auto"]
)
def test_spectra_compute_no_eigenvectors(tmp_path, monkeypatch, flags, sampler):
    """spectrum and cluster --dim auto read eigenvalues alone."""
    graph_path, _ = _write_planted(tmp_path)
    monkeypatch.setattr(cli, "top_k_eigen", _refuse_eigenpairs)
    monkeypatch.setattr(np.linalg, "eigh", _refuse_eigenpairs)
    argv = [flags[0], graph_path, *flags[1:], "--sampler", sampler]
    assert main(argv + ["--output", str(tmp_path / "out.tsv")]) == 0


@pytest.mark.parametrize("sampler", ["edge", "walk:3"])
def test_auto_dimension_takes_the_krylov_route(tmp_path, monkeypatch, sampler):
    """--dim auto on n=600 picks k from the values-only spectrum and,
    since krylov_pays(k, n) holds, solves for k pairs on the Lanczos
    route. The sidecar's k is the dense spectrum's, and the columns meet
    the residual contract against the dense Q."""
    g, graph_path, _ = _write_large_planted(tmp_path, 3, 200)
    out, spec = tmp_path / "emb.tsv", tmp_path / "spec.tsv"
    calls = _record_eigen_calls(monkeypatch)
    argv = ["embed", graph_path, "--sampler", sampler, "--output", str(out)]
    assert main(argv + ["--emit-spectrum", str(spec)]) == 0
    sampled = edge_sampling(g) if sampler == "edge" else random_walk_sampling(g, 3)
    q = modularity_matrix(sampled).q
    k = select_dimension(np.linalg.eigvalsh(q)[::-1])
    assert krylov_pays(k, g.n) and calls == [("CovarianceOperator", k, "lanczos")]
    assert spec.read_text().splitlines()[-1] == f"# selected_k\t{k}"
    _, body = read_table(out)
    h = np.zeros((g.n, k))
    for name, *row in body:
        h[g.index_of(name)] = [float(v) for v in row]
    bound = 1e-8 * max(1.0, np.abs(q).sum(axis=1).max())
    assert np.abs(h.T @ h - np.eye(k)).max() <= 1e-10
    theta = np.einsum("ij,ij->j", h, q @ h)
    assert np.linalg.norm(q @ h - h * theta, axis=0).max() <= bound
    np.testing.assert_allclose(theta, top_k_eigen(q, k).values, rtol=0, atol=bound)


def _pca_points(name):
    if name == "accept16":  # the points of ACCEPT 16
        return np.random.default_rng(16).standard_normal((12, 3))
    if name == "two":
        return np.array([[-1.0, 0.0], [1.0, 0.0]])
    if name == "one":
        return np.array([[1.0, 2.0, 3.0]])
    if name == "identical":
        return np.array([[1.0, 2.0], [1.0, 2.0]])
    if name == "large-scale":
        return np.random.default_rng(0).standard_normal((40, 3)) * 100
    if name == "wide":
        return np.random.default_rng(3).standard_normal((6, 10))
    return np.random.default_rng(4).standard_normal((50, 6)) * [10, 9.5, 9, 0.1, 0.1, 0.1]


@pytest.mark.parametrize(
    ("name", "k"),
    [("accept16", 1), ("two", 1), ("one", 1), ("identical", 1), ("large-scale", 3),
     ("wide", 2), ("three-strong", 3)],
)
def test_pca_auto_picks_k_without_an_eigendecomposition(tmp_path, monkeypatch, name, k):
    """pca --dim auto picks from the squared singular values plus one
    zero the k that the whole centered Gram spectrum gave (pinned here),
    and neither eigh nor top_k_eigen runs."""
    data = tmp_path / "points.csv"
    data.write_text("".join(",".join(f"{v:.12g}" for v in row) + "\n" for row in _pca_points(name)))
    monkeypatch.setattr(semimetric, "top_k_eigen", _refuse_eigenpairs)
    monkeypatch.setattr(np.linalg, "eigh", _refuse_eigenpairs)
    out = tmp_path / "pca.tsv"
    assert main(["pca", str(data), "--output", str(out)]) == 0
    assert read_table(out)[0] == ["node", *(f"dim_{j + 1}" for j in range(k))]


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


def test_auto_embed_falls_back_when_the_settled_rung_misses_the_contract(tmp_path, monkeypatch):
    """embed --dim auto on 1440 nodes settles at j = 8; when those pairs
    miss the residual contract, the embedding is byte for byte the one
    the dense spectrum's k and a top_k_eigen solve give."""
    _, graph_path, _ = _write_large_planted(tmp_path, 8, 180)
    argv = ["embed", graph_path, "--sampler", "walk:3", "--dim", "auto"]
    check, misses = spectral._within_contract, []

    def miss_once(*args):
        if misses:
            return check(*args)
        misses.append(args[1].shape)
        raise spectral.NumericalError("residual missed")

    missed, dense = tmp_path / "missed.tsv", tmp_path / "dense.tsv"
    monkeypatch.setattr(spectral, "_within_contract", miss_once)
    assert main(argv + ["--output", str(missed)]) == 0 and misses == [(8,)]
    monkeypatch.setattr(cli, "top_spectrum", lambda q: (None, None))
    assert main(argv + ["--output", str(dense)]) == 0
    assert missed.read_bytes() == dense.read_bytes()


@pytest.mark.parametrize(
    "sampler", [["walk:3"], ["walk:2:exact"], ["edge"]],
    ids=["walk:3", "exact-walk:2", "edge"],
)
def test_auto_classify_forms_no_dense_q(tmp_path, monkeypatch, sampler):
    """classify --dim auto on 1440 nodes settles k from the top of the
    spectrum and embeds that solve's pairs: the operator never caches a
    dense Q, and the report is byte for byte the one that the dense
    spectrum and a top_k_eigen solve for k give when nothing settles."""
    g, graph_path, label_path = _write_large_planted(tmp_path, 8, 180)
    operators = []
    build = cli._covariance

    def record(*args):
        operators.append(build(*args))
        return operators[-1]

    monkeypatch.setattr(cli, "_covariance", record)
    argv = ["classify", graph_path, label_path, "--sampler", *sampler, "--dim", "auto"]
    fast, dense = tmp_path / "fast.tsv", tmp_path / "dense.tsv"
    assert main(argv + ["--output", str(fast)]) == 0
    assert "q" not in vars(operators[0])
    monkeypatch.setattr(cli, "top_spectrum", lambda q: (None, None))
    assert main(argv + ["--output", str(dense)]) == 0
    assert "q" in vars(operators[1])
    assert fast.read_bytes() == dense.read_bytes()
