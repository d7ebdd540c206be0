"""Tests of the benchmark itself, on a small graph family.

Run with ``python -m pytest bench/tests`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from inputs import P8, Family, planted_graph  # noqa: E402

TINY = Family("T4", blocks=4, block_size=30, p_in=0.3, p_out=0.02)


@pytest.fixture(params=sorted(run.WORKLOADS))
def prepared(request, tmp_path) -> run.Prepared:
    """The workload's command and checks on a 120-node graph."""
    workload = dataclasses.replace(run.WORKLOADS[request.param], family=TINY)
    return run.prepare(workload, seed=3, work=tmp_path / "work")


def cli_output(prep: run.Prepared) -> str:
    from modembed import cli

    out = prep.dir / "out.tsv"
    assert cli.main(prep.argv(out)) == 0
    return out.read_text()


def test_same_seed_gives_identical_inputs():
    a, b = planted_graph(P8, 7), planted_graph(P8, 7)
    assert a.edge_text == b.edge_text and a.label_text == b.label_text
    assert planted_graph(P8, 8).edge_text != a.edge_text


def test_inputs_are_connected_simple_graphs():
    from modembed.graph import Graph, is_connected

    g = planted_graph(TINY, 0)
    assert np.all(g.edges[:, 0] < g.edges[:, 1])
    assert np.unique(g.edges, axis=0).shape == g.edges.shape
    assert is_connected(Graph.from_edges([(u, w, 1.0) for u, w in g.edges.tolist()], n=g.n))


def wrapped_globals() -> dict:
    """Span name -> the object its wrapper replaces while tracing."""
    from modembed.graph import Graph

    found = {name: vars(importlib.import_module(module))[name.split(".", 1)[1]]
             for name, module in spans.SPANS.items()}
    found[spans.ADJACENCY] = Graph.__dict__["adjacency"]
    return found


def test_traced_run_matches_untraced_and_restores(prepared):
    before = wrapped_globals()
    plain, traced = prepared.dir / "plain.tsv", prepared.dir / "traced.tsv"
    result = spans.run(prepared.argv(plain), prepared.argv(traced))

    assert result["plain_rc"] == result["traced_rc"] == 0
    assert plain.read_bytes() == traced.read_bytes()
    assert sorted(result["installed"]) == sorted(before)
    after = wrapped_globals()
    assert all(after[name] is before[name] for name in before)
    # Self times telescope: together they cover exactly the top-level spans.
    assert sum(result["self_s"].values()) == pytest.approx(result["top_level_s"], abs=1e-9)
    assert 0 <= result["top_level_s"] <= result["main_s"]


def test_trace_child_reports_every_layer_metric(prepared):
    values, raw = run.trace(prepared)
    assert raw["failures"] == []
    assert sorted(values) == sorted(name for name, _, _ in run.PER_LAYER)
    assert values["graph.n"] == TINY.n and values["spectral.pairs_used"] <= TINY.n
    if prepared.workload.name.startswith("classify"):
        report = dict(line.split("\t") for line in cli_output(prepared).splitlines())
        assert values["softmax.sweeps"] == int(report["sweeps"])
        assert values["spectral.pairs_used"] == int(report["selected_k"])


def _corrupt(name: str, text: str) -> str:
    lines = text.splitlines()
    if name == "embed-p16":
        fields = lines[5].split("\t")
        fields[3] = repr(float(fields[3]) + 1e-3)
        lines[5] = "\t".join(fields)
    elif name == "cluster-p16":
        lines[7] = lines[7].split("\t")[0] + "\t16"
    elif name == "classify-walk-p8":
        lines = [line.replace("n_train\t", "n_train\t1") for line in lines]
    else:
        k, value = lines[2].split("\t")
        lines[2] = f"{k}\t{float(value) * (1 + 1e-6)!r}"
    return "\n".join(lines) + "\n"


def test_corrupted_output_fails_its_check(prepared):
    text = cli_output(prepared)
    quality = prepared.workload.check(prepared.graph, prepared.reference, text)
    assert quality > 0
    with pytest.raises(checks.CheckError):
        prepared.workload.check(
            prepared.graph, prepared.reference, _corrupt(prepared.workload.name, text)
        )
    with pytest.raises(checks.CheckError):
        prepared.workload.check(prepared.graph, prepared.reference, "\n".join(text.splitlines()[:-2]))


def test_modularity_matches_the_matrix_form():
    g = planted_graph(TINY, 1)
    assignment = g.labels.copy()
    q = checks.edge_q(g)
    same = assignment[:, None] == assignment[None, :]
    assert checks.modularity(g, assignment) == pytest.approx(float(q[same].sum()), rel=1e-12)


def test_manifest_matches_benchmark_json():
    on_disk = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert on_disk == run.manifest()
