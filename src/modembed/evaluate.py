"""Benchmark utilities: splits, F1 scores, and planted partitions.

The conventions follow the usual multi-class bookkeeping: micro scores
pool true/false positive counts over classes, macro scores average the
per-class precision and recall first and take the harmonic mean of the
two averages, and any 0/0 ratio along the way counts as 0.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError
from .graph import Graph, connected_components, merge_edges
from .modularity import _check_indices
from .spectral import _row_blocks, _uniforms


@dataclass(frozen=True)
class LabeledDataset:
    """Ground-truth class per node, classes indexed 0..n_classes-1."""

    labels: np.ndarray
    n_classes: int

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels, dtype=int)
        if labels.ndim != 1 or labels.size == 0:
            raise ValueError("labels must be a non-empty 1-d array")
        if self.n_classes < 2:
            raise ValueError("need at least two classes")
        if labels.min() < 0 or labels.max() >= self.n_classes:
            raise ValueError("label out of range")
        counts = np.bincount(labels, minlength=self.n_classes)
        if np.any(counts == 0):
            missing = int(np.flatnonzero(counts == 0)[0])
            raise ValueError(f"class {missing} has no members")
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.labels.size


@dataclass(frozen=True)
class F1Report:
    """Micro/macro F1 with the per-class counts they came from."""

    micro_f1: float
    macro_f1: float
    tp: np.ndarray
    fp: np.ndarray
    fn: np.ndarray

    @property
    def evaluated(self) -> int:
        return int(self.tp.sum() + self.fn.sum())


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def train_test_split(
    dataset: LabeledDataset,
    train_fraction: float,
    seed: int,
    stratified: bool = True,
) -> tuple[dict[int, int], np.ndarray]:
    """Seeded split into a training label map and holdout indices.

    Every node draws one uniform key, all from ``_uniforms(seed)``, and
    the split takes the smallest keys, ties to the lower index.
    Stratified mode takes round(fraction * class size) nodes per class,
    so every class lands in the training set; a fraction too small to
    give some class even one node is rejected, as is a split that leaves
    the holdout empty. Unstratified mode takes round(fraction * n) nodes
    from the whole range and offers no per-class guarantee. A negative
    seed is a ValueError, a non-integer one a TypeError.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train fraction must lie strictly between 0 and 1")
    n = dataset.n
    keys = _uniforms(seed, n)
    chosen: list[np.ndarray] = []
    if stratified:
        for c in range(dataset.n_classes):
            members = np.flatnonzero(dataset.labels == c)
            count = int(round(train_fraction * members.size))
            if count == 0:
                raise ValueError(
                    f"train fraction {train_fraction} cannot represent class {c} "
                    f"({members.size} members)"
                )
            chosen.append(members[np.argsort(keys[members], kind="stable")[:count]])
    else:
        count = int(round(train_fraction * n))
        if count == 0:
            raise ValueError(f"train fraction {train_fraction} selects no nodes")
        chosen.append(np.argsort(keys, kind="stable")[:count])
    train = np.sort(np.concatenate(chosen))
    if train.size >= n:
        raise ValueError("split leaves an empty holdout")
    mask = np.ones(n, dtype=bool)
    mask[train] = False
    holdout = np.flatnonzero(mask)
    label_map = {int(i): int(dataset.labels[i]) for i in train}
    return label_map, holdout


def micro_macro_f1(
    truth: np.ndarray,
    predicted: np.ndarray,
    holdout: np.ndarray | None = None,
    n_classes: int | None = None,
) -> F1Report:
    """Score predictions against ground truth on the holdout nodes.

    Micro-F1 pools counts: precision = recall = sum TP / (sum TP + sum
    FP or FN). Macro-F1 averages per-class precision and recall without
    weighting and combines the two averages harmonically. Classes the
    holdout never touches contribute zeros to the macro averages.
    """
    truth = np.asarray(truth, dtype=int)
    predicted = np.asarray(predicted, dtype=int)
    if truth.shape != predicted.shape:
        raise ValueError("truth and prediction vectors must have equal length")
    if holdout is not None:
        holdout = _check_indices(truth.size, holdout)
        if holdout.size == 0:
            raise ValueError("holdout is empty")
        truth = truth[holdout]
        predicted = predicted[holdout]
    if truth.size == 0:
        raise ValueError("nothing to evaluate")
    if n_classes is None:
        n_classes = int(max(truth.max(), predicted.max())) + 1
    if min(truth.min(), predicted.min()) < 0 or max(truth.max(), predicted.max()) >= n_classes:
        raise ValueError(f"class indices must lie in 0..{n_classes - 1}")
    tp = np.bincount(truth[predicted == truth], minlength=n_classes)
    fp = np.bincount(predicted, minlength=n_classes) - tp
    fn = np.bincount(truth, minlength=n_classes) - tp
    micro_p = _ratio(tp.sum(), tp.sum() + fp.sum())
    micro_r = _ratio(tp.sum(), tp.sum() + fn.sum())
    micro = _ratio(2.0 * micro_p * micro_r, micro_p + micro_r)
    per_p = np.divide(tp, tp + fp, out=np.zeros(n_classes), where=tp + fp > 0)
    per_r = np.divide(tp, tp + fn, out=np.zeros(n_classes), where=tp + fn > 0)
    macro_p = float(per_p.mean())
    macro_r = float(per_r.mean())
    macro = _ratio(2.0 * macro_p * macro_r, macro_p + macro_r)
    return F1Report(micro_f1=float(micro), macro_f1=float(macro), tp=tp, fp=fp, fn=fn)


def planted_partition(
    blocks: int,
    block_size: int,
    p_in: float,
    p_out: float,
    seed: int,
    ensure_connected: bool = False,
) -> tuple[Graph, LabeledDataset]:
    """Random graph with equal-size blocks and two edge densities.

    Within-block pairs get an edge with probability ``p_in``, others
    with ``p_out``. With ``ensure_connected`` a handful of seeded
    repair edges is added so sparse draws come out connected: isolated
    nodes are attached inside their block and remaining components are
    chained together. Expected degree below 1 triggers a warning.
    """
    if blocks < 2 or block_size < 1:
        raise ValueError("need at least two blocks of at least one node")
    if not (0.0 <= p_out <= p_in <= 1.0):
        raise ValueError("require 0 <= p_out <= p_in <= 1")
    n = blocks * block_size
    labels = np.repeat(np.arange(blocks), block_size)
    expected_degree = p_in * (block_size - 1) + p_out * (n - block_size)
    if expected_degree < 1.0:
        warnings.warn(
            f"expected degree {expected_degree:.3f} < 1: isolated nodes likely",
            RuntimeWarning,
            stacklevel=2,
        )
    rng = np.random.default_rng(seed)
    # One (n, n) uniform draw, taken a row block at a time from the same stream: the same
    # pairs (u, w), u < w, without an n x n array.
    parts = []
    for b in _row_blocks(n, n):
        block = np.arange(n)[b, None]
        prob = np.where(labels[block] == labels, p_in, p_out)
        present = (rng.random(prob.shape) < prob) & (np.arange(n) > block)
        parts.append(np.argwhere(present) + [b.start, 0])
    edges = np.concatenate(parts)
    if ensure_connected:
        edges = _repair_connectivity(edges, labels, rng)
    ends, weights = merge_edges(edges, np.ones(edges.shape[0]), n)
    return Graph(n, ends, weights), LabeledDataset(labels=labels, n_classes=blocks)


def _repair_connectivity(
    edges: np.ndarray, labels: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """``edges`` plus seeded repair edges that connect the graph.

    Each isolated node is joined to a random block mate (any other node
    if it has none), skipping a pair already added. The components are
    then chained in order of smallest member: component c is joined to
    the union of components 0..c-1, which is the component that holds
    node 0 once the earlier links are in.
    """
    n = labels.size
    added: set[tuple[int, int]] = set()
    for u in np.flatnonzero(np.bincount(edges.ravel(), minlength=n) == 0):
        mates = np.flatnonzero(labels == labels[u])
        mates = mates[mates != u]
        if not mates.size:
            mates = np.delete(np.arange(n), u)
        w = int(rng.choice(mates))
        added.add((min(u, w), max(u, w)))
    edges = np.vstack([edges, np.array(sorted(added), dtype=np.int64).reshape(-1, 2)])
    component = connected_components(edges, n)
    links = [
        (rng.choice(np.flatnonzero(component < c)), rng.choice(np.flatnonzero(component == c)))
        for c in range(1, component.max() + 1)
    ]
    return np.vstack([edges, np.array(links, dtype=np.int64).reshape(-1, 2)])


def read_label_map(path: str | Path) -> dict[str, str]:
    """Read ``<node_id> <label>`` lines into a node-to-label-name map.

    The file is UTF-8, a leading byte-order mark skipped. ``#`` starts a
    comment that runs to the end of the line. A line without exactly two
    fields, a node labeled twice, or a file with no labels is rejected.
    """
    raw: dict[str, str] = {}
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.split("#", 1)[0].split()
            if not fields:
                continue
            if len(fields) != 2:
                raise FormatError(f"{path}: line {lineno}: expected '<node_id> <label>'")
            node, name = fields
            if node in raw:
                raise FormatError(f"{path}: line {lineno}: node {node!r} labeled twice")
            raw[node] = name
    if not raw:
        raise FormatError(f"{path}: no labels found")
    return raw


def load_labels(path: str | Path, g: Graph) -> tuple[LabeledDataset, list[str]]:
    """Read a label file of ``<node_id> <label>`` lines for a graph.

    Every graph node must be labeled exactly once. Label names are
    mapped to class indices in sorted order; the sorted names are
    returned so reports can use the original spelling.
    """
    by_index: dict[int, str] = {}
    for node, name in read_label_map(path).items():
        try:
            by_index[g.index_of(node)] = name
        except KeyError:
            raise FormatError(f"{path}: unknown node id {node!r}") from None
    if len(by_index) != g.n:
        raise FormatError(f"label file covers {len(by_index)} of {g.n} nodes")
    names = sorted(set(by_index.values()))
    index = {name: i for i, name in enumerate(names)}
    labels = np.array([index[by_index[i]] for i in range(g.n)])
    return LabeledDataset(labels=labels, n_classes=len(names)), names
