"""Command-line entry points.

One subcommand per pipeline stage: ``spectrum`` and ``embed`` expose
the spectral side, ``cluster`` and ``classify`` the softmax side,
``eigenmap`` and ``pca`` the Laplacian and Euclidean bridges, and
``eval`` scores label files against each other. Commands that sample
the graph name the sampler in one ``--sampler`` value: ``edge``,
``walk:L`` (lengths 1..L mixed), ``walk:L:exact``, ``expdist`` or
``expdist:THETA``. Only ``cluster`` and ``classify`` take a seed,
``--seed``: each stage seeds a stdlib ``random.Random`` from it and a
fixed tag. The eigensolver and the L+ check draw from fixed seeds, and
every draw goes through ``random()``, so no command loads
``numpy.random``, and any command run twice under the same BLAS thread
setting writes identical bytes.

Exit codes: 0 success, 1 usage, 2 malformed or invalid input,
3 numerical failure or out of memory (one ``out of memory:`` line,
no traceback).
"""

from __future__ import annotations

import argparse
import sys
import zlib
from contextlib import nullcontext
from typing import Iterable, Iterator

import numpy as np

from .errors import FormatError, NumericalError
from .evaluate import load_labels, micro_macro_f1, read_label_map, train_test_split
from .graph import Graph, load_edge_list
from .modularity import CovarianceOperator, ModularityMatrix, modularity_matrix
# edge/random_walk_sampling, zero_diagonal, reconstruct: unused here, the benchmark looks them up.
from .sampling import (
    MAX_WALK_LENGTH,
    edge_sampling,
    exp_distance_sampling,
    random_walk_sampling,
)
from .semimetric import load_points, pca_embedding, resistance_distance
from .semimetric import eigenmap_embedding as _eigenmap
from .softmax import hard_assign, softmax_classify, softmax_cluster, zero_diagonal
from .spectral import EigenPairs, Embedding, LanczosState, eigenvalues, reconstruct
from .spectral import select_dimension, top_k_eigen, top_spectrum


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


# ===================================================================
# Shared argument handling
# ===================================================================


def _parse(kind: type, text: str, spelling: str):
    """kind(text), or a usage error that names the accepted ``spelling``."""
    try:
        return kind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be {spelling}, got {text!r}") from None


def _dimension(text: str) -> int | None:
    """``--dim`` value: None for 'auto', otherwise a positive integer."""
    if text == "auto":
        return None
    k = _parse(int, text, "'auto' or a positive integer")
    if k < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {k}")
    return k


def _finite(text: str) -> float:
    value = _parse(float, text, "a number")
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    value = _finite(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text!r}")
    return value


def _fraction(text: str) -> float:
    value = _finite(text)
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"must lie strictly between 0 and 1, got {text!r}")
    return value


def _sweeps(text: str) -> int:
    value = _parse(int, text, "a nonnegative integer")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _sampler(text: str) -> tuple[str, dict]:
    """``--sampler`` value: the sampler and the keywords its Q is built with."""
    kind, *rest = text.split(":")
    try:
        if kind == "edge" and not rest:
            return kind, {}
        if kind == "expdist" and len(rest) <= 1:
            return kind, {"theta": _finite(rest[0])} if rest else {}
        if kind == "walk" and rest and rest[1:] in ([], ["exact"]):
            length = int(rest[0])
            if 1 <= length <= MAX_WALK_LENGTH:
                return kind, {"length": length, "exact_length": rest[1:] == ["exact"]}
    except (ValueError, argparse.ArgumentTypeError):
        pass
    raise argparse.ArgumentTypeError(
        f"must be edge, walk:L[:exact] with 1 <= L <= {MAX_WALK_LENGTH}, or expdist[:THETA] "
        f"with a finite THETA: {text!r}"
    )


def _stage_seed(seed: int, tag: str) -> int:
    """The library seed of one stage: ``--seed`` modulo 2**32 and the tag's
    CRC-32 side by side, so distinct pairs never share a stream."""
    return (seed & 0xFFFFFFFF) << 32 | zlib.crc32(tag.encode())


# ===================================================================
# Pipeline: graph -> sampled pairs -> Q -> spectrum and eigenvectors
# ===================================================================


def _load_graph(args: argparse.Namespace) -> Graph:
    """The ``graph`` file, UTF-8 with any byte-order mark skipped, and a fixed
    ``--dim`` checked against its node count before any sampler or solver runs."""
    with open(args.graph, encoding="utf-8-sig") as fh:
        g = load_edge_list(fh)
    if args.dim is not None and args.dim > g.n:
        raise _UsageError(f"--dim {args.dim} exceeds the node count {g.n}")
    return g


def _covariance(args: argparse.Namespace, g: Graph) -> ModularityMatrix | CovarianceOperator:
    """Q of the pair distribution the ``--sampler`` value draws from g.

    The edge and walk samplers give the matrix-free operator, which
    forms its dense ``q`` only when a dense solve or the walk sampler's
    softmax ascent reads it; expdist gives the dense matrix.
    """
    kind, options = args.sampler
    if kind != "expdist":
        return CovarianceOperator(g, **options)
    return modularity_matrix(exp_distance_sampling(resistance_distance(g), **options))


def _spectrum(
    args: argparse.Namespace, q: ModularityMatrix | CovarianceOperator
) -> tuple[np.ndarray | None, int, EigenPairs | None, LanczosState | None]:
    """Eigenvalues of Q, when ``--dim auto`` or a sidecar reads them (else None): a settled
    ``top_spectrum``'s, which auto asks on the edge and walk operators without a sidecar, else
    the dense ``eigenvalues``; k, a fixed ``--dim`` (checked where the graph was read) or the
    one auto picks; and ``top_spectrum``'s settled pairs or unsettled Lanczos state (else None)."""
    if args.dim is not None and not args.emit_spectrum:
        return None, args.dim, None, None
    auto = not args.emit_spectrum and isinstance(q, CovarianceOperator)
    top, state = top_spectrum(q) if auto else (None, None)
    values = eigenvalues(q) if top is None else top.values
    return values, args.dim or select_dimension(values), top, state


def _embedding(args: argparse.Namespace, q) -> tuple[np.ndarray | None, int, np.ndarray]:
    """``_spectrum``'s values and k, and k leading eigenvectors: the settled rung's, else
    ``top_k_eigen``'s, going on from the rungs' state, so no pair is solved for twice."""
    values, k, top, state = _spectrum(args, q)
    return values, k, top_k_eigen(q, k, state).vectors if top is None else top.vectors[:, :k]


# ===================================================================
# Output
# ===================================================================


def _write_tsv(path: str, rows: Iterable[tuple]) -> None:
    """Write rows as tab-separated lines to ``path``, or stdout for '-',
    each line as soon as it is formatted.

    Floats are printed with %.17g, so values round-trip exactly.
    """
    with nullcontext(sys.stdout) if path == "-" else open(path, "w", newline="\n") as fh:
        fh.writelines(
            "\t".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n"
            for row in rows
        )


def _table(head: tuple, body: Iterable[tuple]) -> Iterator[tuple]:
    yield head
    yield from body


def _embedding_rows(ids, h: np.ndarray) -> Iterator[tuple]:
    head = ("node", *(f"dim_{j + 1}" for j in range(h.shape[1])))
    return _table(head, ((name, *row.tolist()) for name, row in zip(ids, h)))


def _spectrum_rows(values: np.ndarray, selected: int) -> Iterator[tuple]:
    yield from _table(("k", "lambda"), enumerate(values, start=1))
    yield ("# selected_k", selected)


def _id_rows(g: Graph) -> Iterator[tuple]:
    return ((name, i) for i, name in enumerate(g.ids))


# ===================================================================
# Subcommands
# ===================================================================


def _cmd_spectrum(args: argparse.Namespace) -> int:
    q = _covariance(args, _load_graph(args))
    values = eigenvalues(q)
    _write_tsv(args.output, _spectrum_rows(values, select_dimension(values)))
    return 0


def _cmd_embed(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    values, k, h = _embedding(args, _covariance(args, g))
    _write_tsv(args.output, _embedding_rows(g.ids, h))
    if args.emit_spectrum:
        _write_tsv(args.emit_spectrum, _spectrum_rows(values, k))
    if args.id_map:
        _write_tsv(args.id_map, _id_rows(g))
    return 0


def _cmd_eigenmap(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    if args.dim is None or args.dim >= g.n:
        raise _UsageError(f"eigenmap needs a fixed --dim below the node count {g.n}")
    emb = _eigenmap(g, args.dim)
    _write_tsv(args.output, _embedding_rows(g.ids, emb.h))
    if args.id_map:
        _write_tsv(args.id_map, _id_rows(g))
    return 0


def _cmd_pca(args: argparse.Namespace) -> int:
    data, names = load_points(args.data, id_column=args.id_column)
    n = data.x.shape[0]
    if args.dim is not None and args.dim > n:
        raise _UsageError(f"--dim {args.dim} exceeds the point count {n}")
    # auto reads every singular value over the largest, which cannot overflow when squared,
    # plus one zero for the Gram matrix's other n - p; for p >= n that zero follows
    # sigma_n^2 of centred data, roundoff below the gap's floor.
    emb, scales = pca_embedding(data, args.dim or min(data.x.shape))
    k = args.dim or select_dimension(np.append((scales / (scales[0] or 1.0)) ** 2, 0.0))
    h = emb.h[:, :k]
    _write_tsv(args.output, _embedding_rows(names, h * scales[:k] if args.scaled else h))
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    if args.dim == 1:
        raise _UsageError("cluster needs --dim auto or at least 2 clusters")
    g = _load_graph(args)
    q = _covariance(args, g)
    result = softmax_cluster(
        q,
        args.dim or max(2, _spectrum(args, q)[1]),
        seed=_stage_seed(args.seed, "softmax"),
        max_sweeps=args.max_sweeps,
        tol=args.tol,
        normalize=args.normalize,
    )
    assignment = hard_assign(result).assignment
    _write_tsv(args.output, _table(("node", "cluster"), zip(g.ids, assignment)))
    if args.emit_history:
        _write_tsv(args.emit_history, _table(("sweep", "objective"), enumerate(result.history)))
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    dataset, _ = load_labels(args.labels, g)
    values, k, h = _embedding(args, _covariance(args, g))
    label_map, holdout = train_test_split(
        dataset,
        args.train_fraction,
        seed=_stage_seed(args.seed, "split"),
        stratified=not args.unstratified,
    )
    result = softmax_classify(
        Embedding(h=h),
        label_map,
        dataset.n_classes,
        seed=_stage_seed(args.seed, "softmax"),
        max_sweeps=args.max_sweeps,
        tol=args.tol,
        normalize=args.normalize,
    )
    predicted = hard_assign(result).assignment
    report = micro_macro_f1(dataset.labels, predicted, holdout, dataset.n_classes)
    rows = [
        ("metric", "value"),
        ("micro_f1", report.micro_f1),
        ("macro_f1", report.macro_f1),
        ("selected_k", k),
        ("n_train", len(label_map)),
        ("n_holdout", int(holdout.size)),
        ("sweeps", result.sweeps),
        ("converged", str(result.converged).lower()),
    ]
    _write_tsv(args.output, rows)
    if args.emit_spectrum:
        _write_tsv(args.emit_spectrum, _spectrum_rows(values, k))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    truth = read_label_map(args.truth)
    predicted = read_label_map(args.pred)
    missing = [node for node in predicted if node not in truth]
    if missing:
        raise FormatError(f"predicted node {missing[0]!r} has no ground truth")
    names = sorted(set(truth.values()) | set(predicted.values()))
    index = {name: i for i, name in enumerate(names)}
    nodes = sorted(predicted)
    t = np.array([index[truth[v]] for v in nodes])
    p = np.array([index[predicted[v]] for v in nodes])
    report = micro_macro_f1(t, p, None, len(names))
    rows = [
        ("metric", "value"),
        ("micro_f1", report.micro_f1),
        ("macro_f1", report.macro_f1),
        ("n_evaluated", report.evaluated),
    ]
    _write_tsv(args.output, rows)
    return 0


# ===================================================================
# Parser assembly
# ===================================================================


def _build_parser() -> _Parser:
    parser = _Parser(prog="modembed", description=__doc__)
    # What _load_graph and _spectrum read on commands without these flags:
    # spectrum always picks its k, and cluster writes no spectrum sidecar.
    parser.set_defaults(dim=None, emit_spectrum=None)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, sampler=True, dim=True):
        p.add_argument("--output", default="-", help="output path, '-' for stdout")
        if sampler:
            p.add_argument(
                "--sampler", type=_sampler, default="edge",
                help="edge | walk:L | walk:L:exact | expdist | expdist:THETA (default: edge)",
            )
        if dim:
            p.add_argument(
                "--dim", type=_dimension, default=None, help="embedding dimension: auto or K"
            )

    def softmax(p):
        p.add_argument("--seed", type=int, default=0, help="master seed (default: 0)")
        p.add_argument("--tol", type=_tolerance, default=1e-10, help="softmax stopping tolerance")
        p.add_argument("--max-sweeps", type=_sweeps, default=1000)
        p.add_argument("--normalize", action="store_true", help="pre-scale q by 1/max|q|")

    p = sub.add_parser("spectrum", help="eigenvalues of the modularity matrix")
    p.add_argument("graph", help="edge-list file")
    common(p, dim=False)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("embed", help="spectral embedding of a graph")
    p.add_argument("graph")
    common(p)
    p.add_argument("--emit-spectrum", default=None, help="also write the spectrum TSV here")
    p.add_argument("--id-map", default=None, help="write the node-id map here")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("eigenmap", help="Laplacian eigenmap embedding")
    p.add_argument("graph")
    common(p, sampler=False)
    p.add_argument("--id-map", default=None)
    p.set_defaults(func=_cmd_eigenmap)

    p = sub.add_parser("pca", help="principal components of a point set")
    p.add_argument("data", help="numeric TSV/CSV, one point per row")
    common(p, sampler=False)
    p.add_argument("--scaled", action="store_true", help="scale columns by sqrt(eigenvalue)")
    p.add_argument("--id-column", action="store_true", help="first field of each row is an id")
    p.set_defaults(func=_cmd_pca)

    p = sub.add_parser("cluster", help="softmax clustering of a graph")
    p.add_argument("graph")
    common(p)
    softmax(p)
    p.add_argument("--emit-history", default=None, help="write the objective trace here")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("classify", help="semi-supervised classification benchmark")
    p.add_argument("graph")
    p.add_argument("labels", help="ground-truth label file")
    common(p)
    p.add_argument("--train-fraction", type=_fraction, default=0.1)
    p.add_argument("--unstratified", action="store_true", help="split without class stratification")
    softmax(p)
    p.add_argument("--emit-spectrum", default=None)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("eval", help="score a prediction file against ground truth")
    p.add_argument("truth", help="ground-truth label file")
    p.add_argument("pred", help="predicted label file")
    common(p, sampler=False, dim=False)
    p.set_defaults(func=_cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # numpy's message names the array it could not allocate
        print(f"out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # FormatError is a ValueError
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
