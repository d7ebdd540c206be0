"""Splits, F1 bookkeeping, planted benchmarks, label files."""

import zlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from modembed import (
    FormatError,
    LabeledDataset,
    is_connected,
    load_edge_list,
    load_labels,
    micro_macro_f1,
    planted_partition,
    train_test_split,
)


def two_class(sizes=(6, 4)):
    labels = np.concatenate([np.full(s, i) for i, s in enumerate(sizes)])
    return LabeledDataset(labels=labels, n_classes=len(sizes))


def test_dataset_validation():
    with pytest.raises(ValueError):
        LabeledDataset(labels=np.array([0, 0, 0]), n_classes=1)
    with pytest.raises(ValueError):
        LabeledDataset(labels=np.array([0, 2]), n_classes=2)
    with pytest.raises(ValueError):
        LabeledDataset(labels=np.array([0, 0]), n_classes=2)  # class 1 empty


def test_split_half_of_ten():
    train, holdout = train_test_split(two_class(), 0.5, seed=1)
    assert len(train) == 5
    assert holdout.size == 5
    assert set(train) | set(holdout.tolist()) == set(range(10))
    assert set(train).isdisjoint(holdout.tolist())


def test_split_is_deterministic():
    a, ha = train_test_split(two_class(), 0.5, seed=42)
    b, hb = train_test_split(two_class(), 0.5, seed=42)
    assert a == b
    assert np.array_equal(ha, hb)


def test_split_stratification_six_by_250():
    labels = np.repeat(np.arange(6), 250)
    dataset = LabeledDataset(labels=labels, n_classes=6)
    train, holdout = train_test_split(dataset, 0.1, seed=7)
    assert len(train) == 150
    assert holdout.size == 1350
    per_class = np.bincount([labels[i] for i in train], minlength=6)
    np.testing.assert_array_equal(per_class, [25] * 6)


def test_split_rejects_fraction_too_small_for_a_class():
    with pytest.raises(ValueError, match="cannot represent"):
        train_test_split(two_class((100, 3)), 0.01, seed=0)


def test_split_rejects_empty_holdout():
    with pytest.raises(ValueError, match="holdout"):
        train_test_split(two_class((2, 2)), 0.9, seed=0)


def test_split_rejects_bad_fraction():
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            train_test_split(two_class(), bad, seed=0)


def test_unstratified_split():
    train, holdout = train_test_split(two_class(), 0.5, seed=3, stratified=False)
    assert len(train) == 5
    assert holdout.size == 5
    again, _ = train_test_split(two_class(), 0.5, seed=3, stratified=False)
    assert train == again


def test_f1_perfect_prediction():
    truth = np.array([0, 1, 2, 0])
    report = micro_macro_f1(truth, truth.copy())
    assert report.micro_f1 == 1.0
    assert report.macro_f1 == 1.0
    assert report.evaluated == 4


def test_f1_hand_counted_example():
    truth = np.array([0, 0, 1, 1])
    pred = np.array([0, 1, 1, 1])
    report = micro_macro_f1(truth, pred)
    assert report.micro_f1 == pytest.approx(0.75, abs=1e-15)
    assert report.macro_f1 == pytest.approx(15 / 19, abs=1e-15)
    np.testing.assert_array_equal(report.tp, [1, 2])
    np.testing.assert_array_equal(report.fp, [0, 1])
    np.testing.assert_array_equal(report.fn, [1, 0])


def test_f1_single_class_prediction_on_balanced_truth():
    truth = np.array([0, 0, 1, 1])
    pred = np.array([1, 1, 1, 1])
    report = micro_macro_f1(truth, pred)
    assert report.micro_f1 == pytest.approx(0.5, abs=1e-15)
    assert report.macro_f1 == pytest.approx(1 / 3, abs=1e-15)


def test_f1_zero_denominator_convention():
    truth = np.array([0, 1])
    pred = np.array([1, 1])
    report = micro_macro_f1(truth, pred)
    # class 0 is never predicted: precision 0/0 counts as 0
    assert report.micro_f1 == pytest.approx(0.5)
    assert np.isfinite(report.macro_f1)


def test_f1_class_permutation_invariance():
    rng = np.random.default_rng(23)
    truth = rng.integers(0, 4, size=60)
    truth[:4] = np.arange(4)
    pred = rng.integers(0, 4, size=60)
    base = micro_macro_f1(truth, pred, n_classes=4)
    perm = np.array([2, 3, 1, 0])
    permuted = micro_macro_f1(perm[truth], perm[pred], n_classes=4)
    assert base.micro_f1 == pytest.approx(permuted.micro_f1, abs=1e-15)
    assert base.macro_f1 == pytest.approx(permuted.macro_f1, abs=1e-15)


def test_f1_micro_equals_accuracy():
    rng = np.random.default_rng(29)
    truth = rng.integers(0, 3, size=90)
    truth[:3] = np.arange(3)
    pred = rng.integers(0, 3, size=90)
    report = micro_macro_f1(truth, pred, n_classes=3)
    assert report.micro_f1 == pytest.approx(float(np.mean(truth == pred)), abs=1e-15)


def test_f1_holdout_restriction():
    truth = np.array([0, 0, 1, 1, 1])
    pred = np.array([1, 0, 1, 0, 1])
    holdout = np.array([2, 3, 4])
    report = micro_macro_f1(truth, pred, holdout)
    manual = micro_macro_f1(truth[holdout], pred[holdout])
    assert report.micro_f1 == manual.micro_f1
    assert report.macro_f1 == manual.macro_f1
    assert report.evaluated == 3


def _f1_reference(truth, predicted, n_classes):
    """Micro-F1, macro-F1 and the counts from one pass per class."""
    tp, fp, fn = (np.zeros(n_classes, dtype=int) for _ in range(3))
    for c in range(n_classes):
        tp[c] = np.sum((predicted == c) & (truth == c))
        fp[c] = np.sum((predicted == c) & (truth != c))
        fn[c] = np.sum((predicted != c) & (truth == c))

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    micro_p = ratio(tp.sum(), tp.sum() + fp.sum())
    micro_r = ratio(tp.sum(), tp.sum() + fn.sum())
    macro_p = float(np.mean([ratio(tp[c], tp[c] + fp[c]) for c in range(n_classes)]))
    macro_r = float(np.mean([ratio(tp[c], tp[c] + fn[c]) for c in range(n_classes)]))
    return (
        ratio(2.0 * micro_p * micro_r, micro_p + micro_r),
        ratio(2.0 * macro_p * macro_r, macro_p + macro_r),
        tp, fp, fn,
    )


@given(st.integers(2, 8).flatmap(lambda k: st.tuples(
    st.just(k), st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)), min_size=1, max_size=60),
)))
def test_f1_matches_the_per_class_loops(case):
    """Bit for bit, counts included, on any labels of 2..8 classes."""
    n_classes, pairs = case
    truth, pred = np.array(pairs).T
    report = micro_macro_f1(truth, pred, n_classes=n_classes)
    micro, macro, tp, fp, fn = _f1_reference(truth, pred, n_classes)
    assert (report.micro_f1, report.macro_f1) == (micro, macro)
    for got, want in ((report.tp, tp), (report.fp, fp), (report.fn, fn)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_f1_errors():
    with pytest.raises(ValueError):
        micro_macro_f1(np.array([0, 1]), np.array([0, 1]), np.array([], dtype=int))
    with pytest.raises(ValueError):
        micro_macro_f1(np.array([0, 5]), np.array([0, 1]), None, n_classes=2)
    with pytest.raises(ValueError, match="must lie in 0..1"):
        micro_macro_f1(np.array([0, 1, -1]), np.array([0, 1, 1]))


def test_planted_cliques_when_p_out_zero():
    g, dataset = planted_partition(3, 5, 1.0, 0.0, seed=0)
    assert g.edge_count == 3 * 10
    assert not is_connected(g)
    np.testing.assert_array_equal(dataset.labels, np.repeat([0, 1, 2], 5))


def test_planted_determinism_and_seed_sensitivity():
    g1, d1 = planted_partition(2, 12, 0.6, 0.1, seed=5)
    g2, _ = planted_partition(2, 12, 0.6, 0.1, seed=5)
    g3, d3 = planted_partition(2, 12, 0.6, 0.1, seed=6)
    assert np.array_equal(g1.edges, g2.edges)
    assert not np.array_equal(g1.edges, g3.edges)
    np.testing.assert_array_equal(d1.labels, d3.labels)


def test_planted_warns_on_expected_isolation():
    with pytest.warns(RuntimeWarning, match="expected degree"):
        planted_partition(2, 8, 0.1, 0.01, seed=3, ensure_connected=True)


def test_planted_repair_connects_sparse_draws():
    for seed in range(5):
        g, _ = planted_partition(4, 12, 0.12, 0.004, seed=seed, ensure_connected=True)
        assert is_connected(g)


@pytest.mark.parametrize(
    "seed, edge_count, checksum",
    [
        (0, 51, 2177714265),
        (1, 49, 1208910764),
        (2, 50, 3546730513),
        (3, 55, 3044965634),
        (4, 48, 1393555991),
    ],
)
def test_planted_repair_draws_are_pinned(seed, edge_count, checksum):
    # Seeds 0-4 chain 0 to 8 components; a change in the repair's random
    # draws moves some repair edge and with it the checksum.
    g, _ = planted_partition(4, 12, 0.12, 0.004, seed=seed, ensure_connected=True)
    upper = np.triu(g.adjacency).astype("<f8")
    assert (g.edge_count, zlib.crc32(upper.tobytes())) == (edge_count, checksum)


def test_planted_rejects_bad_parameters():
    with pytest.raises(ValueError):
        planted_partition(1, 5, 0.5, 0.1, seed=0)
    with pytest.raises(ValueError):
        planted_partition(2, 5, 0.1, 0.5, seed=0)


def test_load_labels(tmp_path):
    g = load_edge_list("a b\nb c")
    path = tmp_path / "labels.txt"
    path.write_text("a red\nb blue\nc red\n")
    dataset, names = load_labels(path, g)
    assert names == ["blue", "red"]
    np.testing.assert_array_equal(dataset.labels, [1, 0, 1])


def test_load_labels_errors(tmp_path):
    g = load_edge_list("a b\nb c")
    partial = tmp_path / "partial.txt"
    partial.write_text("a red\nb blue\n")
    with pytest.raises(FormatError, match="covers 2 of 3"):
        load_labels(partial, g)
    unknown = tmp_path / "unknown.txt"
    unknown.write_text("a red\nb blue\nz red\n")
    with pytest.raises(FormatError, match="unknown node"):
        load_labels(unknown, g)
    doubled = tmp_path / "doubled.txt"
    doubled.write_text("a red\na blue\nb red\nc red\n")
    with pytest.raises(FormatError, match="twice"):
        load_labels(doubled, g)

