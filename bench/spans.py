"""Per-layer spans recorded from outside modembed.

The traced run calls ``modembed.cli.main(argv)`` in-process with the
layer functions ``cli`` imports replaced by span-recording wrappers,
plus ``softmax_sweep`` / ``softmax_objective`` inside
``modembed.softmax`` and the ``Graph.adjacency`` property. Nothing
under ``src/`` changes; the wrappers are removed again afterwards.

A span's self time is its duration minus the time its child spans
cover, so the self times of all spans plus ``cli.self_s`` (main() time
outside every span) add up to the traced main() time.

Run as a script it is the traced child process::

    python bench/spans.py SPEC.json

where SPEC holds ``plain`` and ``traced`` argv lists, ``pairs_used``
(the eigenvector columns the command uses, or null for the k that
``select_dimension`` picked) and an ``out`` path. The child runs ``main(plain)`` untraced, then ``main(traced)``
traced, and writes the timings, spans and stashed facts to ``out``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# Span name "layer.function" -> module whose global the wrapper replaces.
# Functions imported into modembed.cli are wrapped there, the two inner
# softmax steps in modembed.softmax, where _run_sweeps looks them up.
SPANS = {
    "graph.load_edge_list": "modembed.cli",
    "sampling.edge_sampling": "modembed.cli",
    "sampling.random_walk_sampling": "modembed.cli",
    "sampling.exp_distance_sampling": "modembed.cli",
    "semimetric.resistance_distance": "modembed.cli",
    "modularity.modularity_matrix": "modembed.cli",
    "spectral.top_k_eigen": "modembed.cli",
    "spectral.select_dimension": "modembed.cli",
    "spectral.reconstruct": "modembed.cli",
    "softmax.zero_diagonal": "modembed.cli",
    "softmax.softmax_cluster": "modembed.cli",
    "softmax.softmax_classify": "modembed.cli",
    "softmax.softmax_sweep": "modembed.softmax",
    "softmax.softmax_objective": "modembed.softmax",
    "softmax.hard_assign": "modembed.cli",
    "evaluate.load_labels": "modembed.cli",
    "evaluate.train_test_split": "modembed.cli",
    "evaluate.micro_macro_f1": "modembed.cli",
}
ADJACENCY = "graph.adjacency"


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class Recorder:
    """Spans in call order plus facts read at span boundaries.

    ``facts`` holds small numbers (counts, byte sizes); ``eigen`` keeps
    the input and result of the last ``top_k_eigen`` call so residuals
    can be computed after the run, outside every span.
    """

    spans: list[Span] = field(default_factory=list)
    facts: dict[str, float] = field(default_factory=dict)
    eigen: tuple | None = None
    _open: list[int] = field(default_factory=list)

    def wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        record = _FACTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, self._open[-1] if self._open else None)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
                if span.parent is not None:
                    self.spans[span.parent].child_s += span.duration
            if record is not None:
                record(self, signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def add(self, key: str, value: float) -> None:
        self.facts[key] = self.facts.get(key, 0) + value

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + s.self_s
        return out

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def top_level_s(self) -> float:
        return sum(s.duration for s in self.spans if s.parent is None)


def _held_bytes(obj) -> int:
    """Bytes of the numpy arrays a returned dataclass holds (computed, not RSS)."""
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


def _sampled(rec: Recorder, args: dict, result) -> None:
    rec.add("sampling.p_bytes", _held_bytes(result))
    if "length" in args:
        rec.add("sampling.walk_products", args["length"])


def _covariance(rec: Recorder, args: dict, result) -> None:
    rec.add("modularity.q_bytes", _held_bytes(result))


def _eigen(rec: Recorder, args: dict, result) -> None:
    rec.add("spectral.pairs_computed", result.vectors.shape[1])
    rec.eigen = (args["m"], result.values, result.vectors)


def _selected(rec: Recorder, args: dict, result) -> None:
    rec.facts["spectral.selected_k"] = result


def _sweep(rec: Recorder, args: dict, result) -> None:
    clamped = args.get("clamped")
    fixed = 0 if clamped is None else int(np.count_nonzero(clamped))
    rec.add("softmax.node_updates", args["h"].shape[0] - fixed)


def _softmax(rec: Recorder, args: dict, result) -> None:
    rec.facts["softmax.converged"] = int(result.converged)


# Facts read from a span's arguments and result once the span has closed.
_FACTS = {
    "sampling.edge_sampling": _sampled,
    "sampling.random_walk_sampling": _sampled,
    "sampling.exp_distance_sampling": _sampled,
    "modularity.modularity_matrix": _covariance,
    "spectral.top_k_eigen": _eigen,
    "spectral.select_dimension": _selected,
    "softmax.softmax_sweep": _sweep,
    "softmax.softmax_cluster": _softmax,
    "softmax.softmax_classify": _softmax,
}


@contextmanager
def instrumented(rec: Recorder):
    """Install the span wrappers for the duration of the block.

    Yields the span names installed; names a module no longer defines
    are skipped. Every original is put back on exit.
    """
    from modembed.graph import Graph

    originals = []
    for name, module_name in SPANS.items():
        module = importlib.import_module(module_name)
        attr = name.split(".", 1)[1]
        if attr in vars(module):
            originals.append((name, module, attr, vars(module)[attr]))
            setattr(module, attr, rec.wrap(name, vars(module)[attr]))
    adjacency = Graph.__dict__["adjacency"]
    traced = functools.cached_property(rec.wrap(ADJACENCY, adjacency.func))
    traced.__set_name__(Graph, "adjacency")
    Graph.adjacency = traced
    try:
        yield [o[0] for o in originals] + [ADJACENCY]
    finally:
        Graph.adjacency = adjacency
        for _, module, attr, fn in originals:
            setattr(module, attr, fn)


def run(plain: list[str], traced: list[str]) -> dict:
    """Untraced then traced ``cli.main``; timings, spans and facts."""
    from modembed import cli

    t0 = time.perf_counter()
    plain_rc = cli.main(plain)
    plain_s = time.perf_counter() - t0
    rec = Recorder()
    with instrumented(rec) as installed:
        t0 = time.perf_counter()
        traced_rc = cli.main(traced)
        main_s = time.perf_counter() - t0
    return {
        "plain_rc": plain_rc,
        "traced_rc": traced_rc,
        "plain_s": plain_s,
        "main_s": main_s,
        "installed": installed,
        "self_s": rec.self_times(),
        "top_level_s": rec.top_level_s(),
        "sweeps": rec.calls("softmax.softmax_sweep"),
        "facts": rec.facts,
        "eigen": rec.eigen,
    }


def residual_max(eigen: tuple | None, used: int) -> float:
    """Largest ||m v - lambda v|| over the first ``used`` returned pairs."""
    if eigen is None or used == 0:
        return 0.0
    m, values, vectors = eigen
    v = vectors[:, :used]
    return float(np.linalg.norm(m @ v - v * values[:used], axis=0).max())


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    result = run(spec["plain"], spec["traced"])
    used = spec["pairs_used"]
    if used is None:
        used = int(result["facts"].get("spectral.selected_k", 0))
    result["facts"]["spectral.pairs_used"] = used
    result["residual_max"] = residual_max(result.pop("eigen"), used)
    with open(spec["out"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
