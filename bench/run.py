#!/usr/bin/env python3
"""modembed benchmark: seeded CLI workloads with end-to-end and per-layer metrics.

Usage, from the repository root::

    python3 bench/run.py --workload embed-p16 --seed 1 --seconds 15 --trace 0
    python3 bench/run.py                 # every workload in turn, seed 0
    python3 bench/run.py --manifest      # rewrite BENCHMARK.json from the tables here

With ``--trace 0`` each execution is the workload's CLI command in a
fresh process, one at a time (a closed loop with one client), with the
BLAS thread count left at its default. Executions repeat for at least
``--seconds`` seconds and at least three times; ``wall_s``,
``peak_rss_mb`` and ``quality`` are medians over them. ``setup_s`` is
the median time of fresh ``import modembed.cli`` processes.

With ``--trace 1`` one traced child process runs ``modembed.cli.main``
in-process, first untraced, then with span wrappers installed (see
``spans.py``), and reports the per-layer metrics.

Every output is checked against the references in ``checks.py``; an
execution whose exit code is nonzero or whose output fails its check
counts in ``failed``. The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records the environment. The program is run from ``src/``
of the checkout this file sits in, and the benchmark exits 2 without a
result when that source tree is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import spans
from inputs import P8, P16, Family, GraphInput, planted_graph

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
RUN_SECONDS = 22
MIN_EXECUTIONS = 3
# No repetition starts below MIN_EXECUTIONS that would end after
# REPEAT_LIMIT_S, and a child is killed after CHILD_LIMIT_S, so a run
# with a slow or hung program still ends within 180 s.
REPEAT_LIMIT_S = 60.0
CHILD_LIMIT_S = 100.0
SETUP_PER_EXECUTION = 2


@dataclass(frozen=True)
class Workload:
    """One CLI command on one graph family.

    ``argv`` names the input files ``{graph}`` and ``{labels}``.
    ``pairs_used`` is the number of eigenvector columns the command
    uses, or None for the k that ``select_dimension`` picks.
    ``reference`` builds what ``check`` needs once per run, untimed;
    ``check`` raises ``checks.CheckError`` or returns the quality score.
    """

    name: str
    why: str
    family: Family
    argv: tuple[str, ...]
    pairs_used: int | None
    reference: Callable[[GraphInput], object]
    check: Callable[[GraphInput, object, str], float]


def _top16(g: GraphInput):
    q = checks.edge_q(g)
    return q, np.linalg.eigvalsh(q)[::-1][:16]


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "embed-p16",
            "full eigh for 16 of 3200 pairs dominates; softmax idle (Krylov showcase, sweep bypass)",
            P16,
            ("embed", "{graph}", "--dim", "16"),
            16,
            _top16,
            lambda g, ref, text: checks.check_embed(g, ref[0], ref[1], text),
        ),
        Workload(
            "cluster-p16",
            "fixed --dim skips the eigensolver; 8 softmax sweeps plus dense sampling and Q dominate",
            P16,
            ("cluster", "{graph}", "--dim", "16", "--max-sweeps", "8", "--tol", "0"),
            0,
            lambda g: None,
            lambda g, ref, text: checks.check_cluster(g, 16, text),
        ),
        Workload(
            "classify-walk-p8",
            "dense walk products, full spectrum for the gap, label-clamped softmax on a rank-k Q",
            P8,
            ("classify", "{graph}", "{labels}", "--sampler", "walk:3", "--dim", "auto"),
            None,
            lambda g: None,
            lambda g, ref, text: checks.check_classify(g, 0.1, text),
        ),
        Workload(
            "spectrum-expdist-p8",
            "only workload for semimetric (resistance distance) and the values-only spectral path",
            P8,
            ("spectrum", "{graph}", "--sampler", "expdist"),
            0,
            lambda g: np.linalg.eigvalsh(checks.expdist_q(g))[::-1],
            lambda g, ref, text: checks.check_spectrum(ref, text),
        ),
    ]
}

# name, unit, better, bound (share of the parent's median)
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("setup_s", "s", "lower", 0.25),
    ("quality", "score", "higher", 0.1),
]

_COUNTS = [
    ("graph.n", "count", "higher"),
    ("graph.m", "count", "higher"),
    ("graph.input_bytes", "bytes", "higher"),
    ("sampling.p_bytes", "bytes", "lower"),
    ("sampling.walk_products", "count", "lower"),
    ("modularity.q_bytes", "bytes", "lower"),
    ("spectral.pairs_computed", "count", "lower"),
    ("spectral.pairs_used", "count", "higher"),
    ("spectral.pairs_useful_ratio", "ratio", "higher"),
    ("spectral.residual_max", "norm", "lower"),
    ("spectral.selected_k", "count", "higher"),
    ("softmax.sweeps", "count", "lower"),
    ("softmax.node_updates", "count", "lower"),
    ("softmax.s_per_sweep", "s", "lower"),
    ("softmax.converged", "flag", "higher"),
    ("cli.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("trace.main_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]
PER_LAYER = [(f"{name}_s", "s", "lower") for name in [*spans.SPANS, spans.ADJACENCY]] + _COUNTS


def manifest() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in sorted(PER_LAYER)],
    }


# ===================================================================
# Environment and child processes
# ===================================================================


def _blas_threads() -> int | None:
    """Thread count the bundled OpenBLAS reports, if it can be found."""
    for lib_path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def spawn(cmd: list[str], stderr_path: Path) -> tuple[float, int, float]:
    """Run ``cmd`` to exit through ``launch.py``; wall seconds, exit code, peak RSS in MB."""
    launcher = [sys.executable, str(BENCH / "launch.py"), str(CHILD_LIMIT_S), str(stderr_path)]
    done = subprocess.run(launcher + cmd, env=_child_env(), stdout=subprocess.PIPE, check=True)
    out = json.loads(done.stdout)
    return out["wall_s"], out["code"], out["peak_rss_mb"]


# ===================================================================
# Runs
# ===================================================================


@dataclass
class Prepared:
    workload: Workload
    graph: GraphInput
    reference: object
    files: dict[str, Path]
    dir: Path

    def argv(self, output: Path) -> list[str]:
        subst = {f"{{{k}}}": str(v) for k, v in self.files.items()}
        return [subst.get(a, a) for a in self.workload.argv] + ["--output", str(output)]

    @property
    def input_bytes(self) -> int:
        sizes = {"{graph}": len(self.graph.edge_text), "{labels}": len(self.graph.label_text)}
        return sum(sizes.get(a, 0) for a in self.workload.argv)

    def check(self, output: Path) -> float:
        return self.workload.check(self.graph, self.reference, output.read_text())


def prepare(workload: Workload, seed: int, work: Path) -> Prepared:
    g = planted_graph(workload.family, seed)
    work.mkdir(parents=True)
    files = {"graph": work / "graph.txt", "labels": work / "labels.txt"}
    files["graph"].write_bytes(g.edge_text)
    files["labels"].write_bytes(g.label_text)
    return Prepared(workload, g, workload.reference(g), files, work)


def _again(walls: list[float], elapsed: float, seconds: float) -> bool:
    if elapsed < seconds:
        return True
    return len(walls) < MIN_EXECUTIONS and elapsed + statistics.median(walls) <= REPEAT_LIMIT_S


def measure(prep: Prepared, seconds: float) -> tuple[dict, dict]:
    """Closed-loop executions of the command; metrics and raw samples.

    The set-up imports are spread between the executions, so both
    medians sample the same stretch of the machine's varying speed.
    """
    importing = [sys.executable, "-c", "import modembed.cli"]
    spawn(importing, prep.dir / "warmup.err")
    setup, walls, rss, quality, failures = [], [], [], [], []
    start = time.perf_counter()
    while not walls or _again(walls, time.perf_counter() - start, seconds):
        setup += [spawn(importing, prep.dir / "setup.err")[0] for _ in range(SETUP_PER_EXECUTION)]
        output = prep.dir / f"out{len(walls)}.tsv"
        wall, code, peak = spawn([sys.executable, "-m", "modembed.cli", *prep.argv(output)],
                                 prep.dir / "cli.err")
        walls.append(wall)
        rss.append(peak)
        try:
            if code != 0:
                raise checks.CheckError(f"exit code {code}: {(prep.dir / 'cli.err').read_text()[-300:]}")
            quality.append(prep.check(output))
        except checks.CheckError as exc:
            failures.append(str(exc))
        output.unlink(missing_ok=True)
    metrics = {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setup),
        "quality": statistics.median(quality) if quality else 0.0,
    }
    samples = {"wall_s": walls, "peak_rss_mb": rss, "setup_s": setup, "quality": quality,
               "failures": failures}
    return metrics, samples


def trace(prep: Prepared) -> tuple[dict, dict]:
    """One traced in-process run; per-layer metrics and the raw span data."""
    plain, traced = prep.dir / "plain.tsv", prep.dir / "traced.tsv"
    spec = {
        "plain": prep.argv(plain),
        "traced": prep.argv(traced),
        "pairs_used": prep.workload.pairs_used,
        "out": str(prep.dir / "spans.json"),
    }
    (prep.dir / "spec.json").write_text(json.dumps(spec))
    _, code, _ = spawn([sys.executable, str(Path(spans.__file__)), str(prep.dir / "spec.json")],
                       prep.dir / "trace.err")
    failures = []
    result: dict = {"self_s": {}, "facts": {}}
    try:
        if code != 0:
            raise checks.CheckError(f"traced child exit {code}: {(prep.dir / 'trace.err').read_text()[-300:]}")
        result = json.loads((prep.dir / "spans.json").read_text())
        if result["plain_rc"] != 0 or result["traced_rc"] != 0:
            raise checks.CheckError(f"main() returned {result['plain_rc']}/{result['traced_rc']}")
        if plain.read_bytes() != traced.read_bytes():
            raise checks.CheckError("traced output differs from the untraced output")
        prep.check(traced)
    except checks.CheckError as exc:
        failures.append(str(exc))
    return layer_metrics(prep, result, traced), {"failures": failures, "spans": result}


def layer_metrics(prep: Prepared, result: dict, output: Path) -> dict:
    self_s, facts = result["self_s"], result["facts"]
    values = {f"{name}_s": self_s.get(name, 0.0) for name in [*spans.SPANS, spans.ADJACENCY]}
    for name, _, _ in _COUNTS:
        values[name] = facts.get(name, 0)
    sweeps = result.get("sweeps", 0)
    computed, used = values["spectral.pairs_computed"], values["spectral.pairs_used"]
    values.update({
        "graph.n": prep.graph.n,
        "graph.m": prep.graph.m,
        "graph.input_bytes": prep.input_bytes,
        "spectral.pairs_useful_ratio": used / computed if computed else 0.0,
        "spectral.residual_max": result.get("residual_max", 0.0),
        "softmax.sweeps": sweeps,
        "softmax.s_per_sweep": self_s.get("softmax.softmax_sweep", 0.0) / sweeps if sweeps else 0.0,
        "cli.self_s": result.get("main_s", 0.0) - result.get("top_level_s", 0.0),
        "cli.output_bytes": output.stat().st_size if output.exists() else 0,
        "trace.main_s": result.get("main_s", 0.0),
        "trace.overhead_s": result.get("main_s", 0.0) - result.get("plain_s", 0.0),
    })
    return values


def run_workload(workload: Workload, seed: int, seconds: float, traced: bool) -> dict:
    work = WORK / f"{workload.name}-s{seed}-t{int(traced)}-{os.getpid()}"
    try:
        prep = prepare(workload, seed, work)
        if traced:
            values, raw = trace(prep)
            units = {n: u for n, u, _ in PER_LAYER}
        else:
            values, raw = measure(prep, seconds)
            units = {n: u for n, u, _, _ in END_TO_END}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = len(raw["wall_s"]) if not traced else 1
    failed = len(raw["failures"])
    report = {
        "workload": workload.name,
        "seed": seed,
        "n": prep.graph.n,
        "m": prep.graph.m,
        "input_bytes": prep.input_bytes,
        "env": environment(),
        "raw": raw,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{workload.name}-s{seed}-t{int(traced)}.json").write_text(
        json.dumps({**report, **result}, indent=1))

    print(f"# {workload.name} seed={seed} n={prep.graph.n} m={prep.graph.m} "
          f"input_bytes={prep.input_bytes} trace={int(traced)}")
    for message in raw["failures"]:
        print(f"  FAILED: {message}")
    print(f"  attempted={attempted} failed={failed} failed_frac={failed / attempted:.4g}")
    for name in units:
        samples = raw.get(name)
        count = f"  (median of {len(samples)})" if isinstance(samples, list) else ""
        print(f"  {name:34s} {values[name]:<14.6g} {units[name]}{count}")
    print(json.dumps({"env": report["env"]}))
    print(json.dumps(result))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload (default: all in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--manifest", action="store_true",
                        help="write BENCHMARK.json at the repository root and exit")
    args = parser.parse_args(argv)
    if args.manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    if not (ROOT / "src" / "modembed" / "cli.py").is_file():
        print(f"modembed sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    for name in names:
        run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
