"""Command-line entry points.

One subcommand per pipeline stage: ``spectrum`` and ``embed`` expose
the spectral side, ``cluster`` and ``classify`` the softmax side,
``eigenmap`` and ``pca`` the Laplacian and Euclidean bridges, and
``eval`` scores label files against each other. Only ``cluster`` and
``classify`` draw random numbers, all from their ``--seed`` flag;
per-stage generators are derived from it with fixed tags, so any
command run twice under the same BLAS thread setting writes identical
bytes.

Exit codes: 0 success, 1 usage, 2 malformed or invalid input,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
import zlib

import numpy as np

from .errors import FormatError, NumericalError
from .evaluate import load_labels, micro_macro_f1, read_label_map, train_test_split
from .graph import Graph, load_edge_list
from .modularity import ModularityMatrix, modularity_matrix
from .sampling import (
    MAX_WALK_LENGTH,
    edge_sampling,
    exp_distance_sampling,
    random_walk_sampling,
)
from .semimetric import load_points, pca_embedding, resistance_distance
from .semimetric import eigenmap_embedding as _eigenmap
from .softmax import hard_assign, softmax_classify, softmax_cluster, zero_diagonal
from .spectral import Embedding, krylov_pays, reconstruct, select_dimension, top_k_eigen


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


# ===================================================================
# Shared argument handling
# ===================================================================


def _dimension(text: str) -> int | None:
    """``--dim`` value: None for 'auto', otherwise a positive integer."""
    if text == "auto":
        return None
    try:
        k = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be 'auto' or a positive integer, got {text!r}"
        ) from None
    if k < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {k}")
    return k


def _finite(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    value = _finite(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text!r}")
    return value


def _sweeps(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _add_sampler_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--sampler",
        default="edge",
        help="edge | walk:L | expdist (default: edge)",
    )
    p.add_argument(
        "--theta",
        type=_finite,
        default=None,
        help="decay rate for the expdist sampler (default: -1e-3 / max distance)",
    )
    p.add_argument(
        "--exact-length",
        action="store_true",
        help="walk sampler: use walks of exactly length L instead of the 1..L mixture",
    )


def _parse_sampler(spec: str) -> tuple[str, int]:
    if spec == "edge":
        return "edge", 0
    if spec == "expdist":
        return "expdist", 0
    if spec.startswith("walk:"):
        try:
            length = int(spec.split(":", 1)[1])
        except ValueError:
            raise _UsageError(f"bad walk length in sampler spec {spec!r}") from None
        if not 1 <= length <= MAX_WALK_LENGTH:
            raise _UsageError(f"walk length must be in 1..{MAX_WALK_LENGTH}, got {length}")
        return "walk", length
    raise _UsageError(f"unknown sampler {spec!r} (expected edge, walk:L, or expdist)")


def _stage_seed(seed: int, tag: str) -> int:
    ss = np.random.SeedSequence([seed & 0xFFFFFFFF, zlib.crc32(tag.encode())])
    return int(ss.generate_state(1)[0])


# ===================================================================
# Pipeline: graph -> sampled pairs -> Q -> eigenpairs
# ===================================================================


def _load_graph(path: str) -> Graph:
    with open(path) as fh:
        return load_edge_list(fh)


def _covariance(args: argparse.Namespace, g: Graph) -> ModularityMatrix:
    """Q of the pair distribution the ``--sampler`` flags draw from g."""
    kind, length = _parse_sampler(args.sampler)
    if kind == "edge":
        sampled = edge_sampling(g)
    elif kind == "walk":
        sampled = random_walk_sampling(g, length, exact_length=args.exact_length)
    else:
        sampled = exp_distance_sampling(resistance_distance(g), theta=args.theta)
    return modularity_matrix(sampled)


def _eigen(
    args: argparse.Namespace, q: ModularityMatrix, vectors: bool = True
) -> tuple[np.ndarray | None, np.ndarray | None, int]:
    """Spectrum of Q, the n x k coordinates the command writes, and k.

    The whole spectrum is computed, densely, only when ``--dim auto`` or
    an ``--emit-spectrum`` sidecar needs it; the values are None
    otherwise. A fixed ``--dim k`` for which ``krylov_pays(k, n)``
    holds gets its columns from one Krylov call for exactly k pairs,
    sidecar or not; they agree with the dense ones to the residual
    contract, not bit for bit. Otherwise the columns come from the dense
    solve: the whole-spectrum one if it ran, else one for k pairs, which
    gives the same bytes. ``vectors=False`` skips the k-pair call, so a
    fixed k then comes with no coordinates.
    """
    k = args.dim
    if k is not None and k > q.n:
        raise _UsageError(f"--dim {k} exceeds the node count {q.n}")
    krylov = k is not None and krylov_pays(k, q.n)
    values = h = None
    if k is None or args.emit_spectrum:
        pairs = top_k_eigen(q.q, q.n)
        values = pairs.values
        k = k or select_dimension(values, q.n)
        if not krylov:
            h = pairs.vectors[:, :k]
    if h is None and vectors:
        h = top_k_eigen(q.q, k, method="power" if krylov else "dense").vectors
    return values, h, k


# ===================================================================
# Output
# ===================================================================


def _write_tsv(path: str, rows: list[tuple]) -> None:
    """Write rows as tab-separated lines to ``path``, or stdout for '-'.

    Floats are printed with %.17g, so values round-trip exactly.
    """
    text = "".join(
        "\t".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n"
        for row in rows
    )
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _embedding_rows(ids, h: np.ndarray) -> list[tuple]:
    head = ("node", *(f"dim_{j + 1}" for j in range(h.shape[1])))
    return [head, *((name, *row) for name, row in zip(ids, h))]


def _spectrum_rows(values: np.ndarray, selected: int) -> list[tuple]:
    return [("k", "lambda"), *enumerate(values, start=1), ("# selected_k", selected)]


def _id_rows(g: Graph) -> list[tuple]:
    return [(name, i) for i, name in enumerate(g.ids)]


# ===================================================================
# Subcommands
# ===================================================================


def _cmd_spectrum(args: argparse.Namespace) -> int:
    values, _, k = _eigen(args, _covariance(args, _load_graph(args.graph)))
    _write_tsv(args.output, _spectrum_rows(values, k))
    return 0


def _cmd_embed(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    values, h, k = _eigen(args, _covariance(args, g))
    _write_tsv(args.output, _embedding_rows(g.ids, h))
    if args.emit_spectrum:
        _write_tsv(args.emit_spectrum, _spectrum_rows(values, k))
    if args.id_map:
        _write_tsv(args.id_map, _id_rows(g))
    return 0


def _cmd_eigenmap(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    if args.dim is None:
        raise _UsageError("eigenmap needs a fixed --dim")
    emb = _eigenmap(g, args.dim)
    _write_tsv(args.output, _embedding_rows(g.ids, emb.h))
    if args.id_map:
        _write_tsv(args.id_map, _id_rows(g))
    return 0


def _cmd_pca(args: argparse.Namespace) -> int:
    data, names = load_points(args.data, id_column=args.id_column)
    n = data.x.shape[0]
    emb, scales = pca_embedding(data, n)
    if args.dim is None:
        k = select_dimension(scales**2, n) if n >= 2 else 1
    elif args.dim > n:
        raise _UsageError(f"--dim {args.dim} exceeds the point count {n}")
    else:
        k = args.dim
    h = emb.h[:, :k]
    _write_tsv(args.output, _embedding_rows(names, h * scales[:k] if args.scaled else h))
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    q = _covariance(args, g)
    _, _, k = _eigen(args, q, vectors=False)
    result = softmax_cluster(
        q.q,
        max(2, k) if args.dim is None else k,
        seed=_stage_seed(args.seed, "softmax"),
        max_sweeps=args.max_sweeps,
        tol=args.tol,
        normalize=args.normalize,
    )
    assignment = hard_assign(result).assignment
    _write_tsv(args.output, [("node", "cluster"), *zip(g.ids, assignment)])
    if args.emit_history:
        _write_tsv(args.emit_history, [("sweep", "objective"), *enumerate(result.history)])
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    dataset, _ = load_labels(args.labels, g)
    values, h, k = _eigen(args, _covariance(args, g))
    recomposed = zero_diagonal(reconstruct(Embedding(h=h)))
    label_map, holdout = train_test_split(
        dataset,
        args.train_fraction,
        seed=_stage_seed(args.seed, "split"),
        stratified=not args.unstratified,
    )
    result = softmax_classify(
        recomposed,
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
    # What _eigen reads on commands without these flags: spectrum always
    # picks its k, and cluster writes no spectrum sidecar.
    parser.set_defaults(dim=None, emit_spectrum=None)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, sampler=True, dim=True):
        p.add_argument("--output", default="-", help="output path, '-' for stdout")
        if sampler:
            _add_sampler_flags(p)
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
    p.add_argument("--train-fraction", type=float, default=0.1)
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
    except FormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
