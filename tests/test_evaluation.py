import base64
import inspect
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from callsift import datagen, persistence
from callsift.evaluation import (
    CSV_FIELDS,
    ConfusionCounts,
    EvaluationReport,
    LabeledDataset,
    ModelResult,
    compute_metrics,
    evaluate_cv,
    evaluate_split,
    majority_vote,
    model_results,
    rows_to_csv,
    split_distributed,
    split_kfold,
    split_sorted,
    sweep_sequence_length,
)
from callsift.traces import GOODWARE, INT_TO_LABEL, LABEL_TO_INT, MALWARE
from conftest import make_trace


def toy_dataset(observed_at, labels):
    traces = [
        make_trace([(0, "A")], label=MALWARE if l else GOODWARE,
                   trace_id=f"t{i}", observed_at=o)
        for i, (o, l) in enumerate(zip(observed_at, labels))
    ]
    return LabeledDataset.from_traces(traces)


# --- metrics ---------------------------------------------------------------------


def test_metrics_worked_example():
    # tp=9 fn=1 tn=8 fp=2
    labels = np.array([1] * 10 + [0] * 10)
    pred = np.concatenate([np.ones(9), [0], np.zeros(8), [1, 1]]).astype(int)
    metrics, confusion = compute_metrics(pred, labels)
    assert (confusion.tp, confusion.fn, confusion.tn, confusion.fp) == (9, 1, 8, 2)
    assert metrics.acc == pytest.approx(0.85)
    assert metrics.caa == pytest.approx(0.85)
    assert metrics.mpr == pytest.approx(9 / 11)
    assert metrics.mre == pytest.approx(0.9)


def test_metrics_perfect():
    labels = np.array([0, 1, 0, 1])
    metrics, _ = compute_metrics(labels, labels)
    assert (metrics.acc, metrics.caa, metrics.mpr, metrics.mre) == (1.0, 1.0, 1.0, 1.0)


def test_metrics_skewed_precision_collapse():
    # tp=45 fn=0 tn=4586 fp=142: perfect recall, 3% goodware FPR
    labels = np.concatenate([np.ones(45), np.zeros(4728)]).astype(int)
    pred = np.concatenate([np.ones(45), np.ones(142), np.zeros(4586)]).astype(int)
    metrics, confusion = compute_metrics(pred, labels)
    assert confusion.fp == 142
    assert metrics.mre == 1.0
    assert metrics.mpr == pytest.approx(45 / 187, abs=1e-12)
    assert metrics.mpr == pytest.approx(0.2406, abs=5e-4)


def test_metrics_zero_denominator_conventions():
    # no malware present, none predicted
    m, _ = compute_metrics(np.zeros(5, dtype=int), np.zeros(5, dtype=int))
    assert m.mpr == 1.0 and m.mre == 1.0 and m.caa == 1.0
    # malware present but never predicted
    m, _ = compute_metrics(np.zeros(4, dtype=int), np.array([1, 1, 0, 0]))
    assert m.mpr == 0.0 and m.mre == 0.0
    with pytest.raises(ValueError):
        compute_metrics(np.zeros(0, dtype=int), np.zeros(0, dtype=int))


def test_metrics_against_counting_oracle(rng):
    for _ in range(200):
        n = int(rng.integers(1, 60))
        labels = rng.integers(0, 2, size=n)
        pred = rng.integers(0, 2, size=n)
        metrics, confusion = compute_metrics(pred, labels)
        tp = sum(1 for p, l in zip(pred, labels) if p == 1 and l == 1)
        fp = sum(1 for p, l in zip(pred, labels) if p == 1 and l == 0)
        tn = sum(1 for p, l in zip(pred, labels) if p == 0 and l == 0)
        fn = sum(1 for p, l in zip(pred, labels) if p == 0 and l == 1)
        assert (confusion.tp, confusion.fp, confusion.tn, confusion.fn) == (tp, fp, tn, fn)
        assert metrics.acc == (tp + tn) / n


def test_acc_equals_prevalence_weighted_mean_caa_unweighted(rng):
    for _ in range(50):
        labels = rng.integers(0, 2, size=40)
        if labels.min() == labels.max():
            continue
        pred = rng.integers(0, 2, size=40)
        metrics, c = compute_metrics(pred, labels)
        n1, n0 = (labels == 1).sum(), (labels == 0).sum()
        acc1 = c.tp / n1
        acc0 = c.tn / n0
        assert metrics.acc == pytest.approx((n1 * acc1 + n0 * acc0) / 40)
        assert metrics.caa == pytest.approx((acc1 + acc0) / 2)
    # balanced classes: acc == caa
    labels = np.array([0, 0, 1, 1])
    pred = np.array([0, 1, 1, 1])
    m, _ = compute_metrics(pred, labels)
    assert m.acc == m.caa


def test_mpr_monotone_in_malware_ratio():
    # fixed TPR 0.9, FPR 0.03, goodware 1000; sweep malware count
    mprs = []
    for malware in (10, 50, 100, 500, 1000):
        tp = int(0.9 * malware)
        labels = np.concatenate([np.ones(malware), np.zeros(1000)]).astype(int)
        pred = np.concatenate([
            np.ones(tp), np.zeros(malware - tp), np.ones(30), np.zeros(970),
        ]).astype(int)
        m, _ = compute_metrics(pred, labels)
        mprs.append(m.mpr)
    assert all(b >= a for a, b in zip(mprs, mprs[1:]))


# --- splits -----------------------------------------------------------------------


def test_split_sorted_fraction():
    ds = toy_dataset(observed_at=list(range(1, 11)), labels=[0, 1] * 5)
    train, test = split_sorted(ds, train_fraction=0.8)
    assert [t.observed_at for t in train.samples] == list(range(1, 9))
    assert [t.observed_at for t in test.samples] == [9, 10]
    assert max(t.observed_at for t in train.samples) <= min(
        t.observed_at for t in test.samples
    )


def test_split_sorted_all_equal_timestamps_uses_original_order():
    ds = toy_dataset(observed_at=[5] * 6, labels=[0, 1, 0, 1, 0, 1])
    train, test = split_sorted(ds, train_fraction=0.5)
    assert train.ids == ["t0", "t1", "t2"]
    assert test.ids == ["t3", "t4", "t5"]


def test_split_sorted_fraction_validation():
    ds = toy_dataset([1, 2, 3], [0, 1, 0])
    for bad in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError):
            split_sorted(ds, train_fraction=bad)
    with pytest.raises(ValueError):
        split_sorted(ds)
    with pytest.raises(ValueError):
        split_sorted(ds, train_fraction=0.5, train_counts={GOODWARE: 1, MALWARE: 1})


def test_split_sorted_explicit_counts_on_table1_corpus():
    config = datagen.table1_shape("sorted", scale=0.005, seed=3)
    ds = LabeledDataset.from_traces(datagen.generate_corpus(config))
    train, test = split_sorted(ds, train_counts=config.train_counts)
    assert (train.labels == 0).sum() == config.train_counts[GOODWARE]
    assert (train.labels == 1).sum() == config.train_counts[MALWARE]
    assert train.observed_at.max() <= test.observed_at.min()


def test_split_sorted_explicit_counts_incompatible_arrangement():
    # malware arrives first; asking for goodware-only training breaks ordering
    ds = toy_dataset([1, 2, 3, 4], [1, 1, 0, 0])
    with pytest.raises(ValueError, match="temporal"):
        split_sorted(ds, train_counts={GOODWARE: 2, MALWARE: 0})
    with pytest.raises(ValueError, match="not enough"):
        split_sorted(ds, train_counts={GOODWARE: 5, MALWARE: 0})


def reference_split_by_counts(dataset, train_counts):
    """The per-trace quota loop that ``split_sorted`` replaced: the (train,
    test) indices in temporal order, or its count errors."""
    order = np.argsort(dataset.observed_at, kind="stable")
    quota = {LABEL_TO_INT[name]: int(count) for name, count in train_counts.items()}
    for lab, want in quota.items():
        if want < 0:
            raise ValueError(f"{INT_TO_LABEL[lab]} train count must be >= 0, got {want}")
    taken = {k: 0 for k in quota}
    train_mask = np.zeros(len(dataset), dtype=bool)
    for i in order:
        lab = int(dataset.labels[i])
        if taken.get(lab, 0) < quota.get(lab, 0):
            train_mask[i] = True
            taken[lab] += 1
    for lab, want in quota.items():
        if taken[lab] != want:
            raise ValueError(f"not enough {INT_TO_LABEL[lab]} samples for requested train count")
    return order[train_mask[order]], order[~train_mask[order]]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_split_sorted_counts_match_the_per_trace_loop(data):
    n = data.draw(st.integers(1, 30))
    labels = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    # few distinct times, so ties and interleaved classes are common
    observed_at = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    names = data.draw(st.permutations([GOODWARE, MALWARE]))[: data.draw(st.integers(1, 2))]
    counts = {name: data.draw(st.integers(-2, n + 1)) for name in names}
    ds = toy_dataset(observed_at, labels)
    try:
        train_idx, test_idx = reference_split_by_counts(ds, counts)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            split_sorted(ds, train_counts=counts)
        return
    if train_idx.size and test_idx.size and (
            ds.observed_at[train_idx].max() > ds.observed_at[test_idx].min()):
        with pytest.raises(ValueError, match="incompatible with temporal ordering"):
            split_sorted(ds, train_counts=counts)
        return
    train, test = split_sorted(ds, train_counts=counts)
    assert train.ids == [ds.ids[i] for i in train_idx]
    assert test.ids == [ds.ids[i] for i in test_idx]


def test_split_kfold_partitions():
    ds = toy_dataset(list(range(20)), [0, 1] * 10)
    folds = split_kfold(ds, 4, seed=1)
    all_test_ids = [i for _, test in folds for i in test.ids]
    assert sorted(all_test_ids) == sorted(ds.ids)  # exactly one test fold each
    for train, test in folds:
        assert set(train.ids).isdisjoint(test.ids)
        assert len(train) + len(test) == 20


def test_split_kfold_leave_one_out_and_validation():
    ds = toy_dataset(list(range(6)), [0, 1, 0, 1, 0, 1])
    folds = split_kfold(ds, 6, seed=0)
    assert all(len(test) == 1 for _, test in folds)
    for bad in (1, 7):
        with pytest.raises(ValueError):
            split_kfold(ds, bad)


def test_split_kfold_seeded():
    ds = toy_dataset(list(range(12)), [0, 1] * 6)
    a = split_kfold(ds, 3, seed=5)
    b = split_kfold(ds, 3, seed=5)
    c = split_kfold(ds, 3, seed=6)
    assert [t.ids for _, t in a] == [t.ids for _, t in b]
    assert [t.ids for _, t in a] != [t.ids for _, t in c]


def test_split_distributed_downselects_malware():
    ds = toy_dataset(list(range(40)), [0, 1] * 20)
    train, test = split_distributed(ds, test_malware=2, train_fraction=0.5, seed=3)
    assert (test.labels == 1).sum() == 2
    assert (test.labels == 0).sum() == 10  # goodware untouched
    t2 = split_distributed(ds, test_malware=2, train_fraction=0.5, seed=3)[1]
    assert test.ids == t2.ids
    t3 = split_distributed(ds, test_malware=2, train_fraction=0.5, seed=4)[1]
    assert test.ids != t3.ids


def test_split_distributed_degenerate_equals_sorted():
    ds = toy_dataset(list(range(20)), [0, 1] * 10)
    _, sorted_test = split_sorted(ds, train_fraction=0.5)
    available = int((sorted_test.labels == 1).sum())
    _, dist_test = split_distributed(ds, test_malware=available, train_fraction=0.5, seed=0)
    assert dist_test.ids == sorted_test.ids


def test_split_distributed_insufficient():
    ds = toy_dataset(list(range(10)), [0] * 9 + [1])
    with pytest.raises(ValueError, match="available"):
        split_distributed(ds, test_malware=3, train_fraction=0.5, seed=0)


# --- ensembling ---------------------------------------------------------------------


def test_majority_vote_examples():
    assert majority_vote([np.array([1]), np.array([1]), np.array([0])])[0] == 1
    assert majority_vote([np.array([0]), np.array([0]), np.array([0])])[0] == 0
    # 1-1 tie goes to malware
    assert majority_vote([np.array([1]), np.array([0])])[0] == 1


def test_majority_vote_validation_and_identity():
    with pytest.raises(ValueError):
        majority_vote([])
    with pytest.raises(ValueError):
        majority_vote([np.array([1, 0]), np.array([1])])
    pred = np.array([0, 1, 1, 0])
    assert np.array_equal(majority_vote([pred, pred, pred]), pred)


# --- reports & harness ---------------------------------------------------------------


class StubModel:
    """Deterministic stub: malware iff the trace contains the call 'Evil'."""

    def __init__(self, seed):
        self.seed = seed

    def fit(self, traces, labels):
        return self

    def predict(self, traces):
        pred = np.array(
            [1 if any(c == "Evil" for _, c in t.events) else 0 for t in traces],
            dtype=np.int64,
        )
        return pred, pred.astype(float)


def stub_dataset():
    traces = []
    for i in range(30):
        label = MALWARE if i % 2 else GOODWARE
        call = "Evil" if label == MALWARE else "Nice"
        traces.append(make_trace([(0, call)], label=label, trace_id=f"s{i}", observed_at=i))
    return LabeledDataset.from_traces(traces)


def test_evaluate_split_report_round_trip(tmp_path):
    ds = stub_dataset()
    train, test = split_sorted(ds, train_fraction=0.5)
    report = evaluate_split(
        train, test, {"stub": StubModel, "stub2": StubModel}, seed=7,
        split_descriptor={"kind": "sorted", "train_fraction": 0.5},
    )
    assert set(report.models) == {"stub", "stub2", "ensemble"}
    assert report.models["stub"].metrics.acc == 1.0
    doc = persistence.encode(report)
    back = persistence.decode(EvaluationReport, doc)
    assert np.array_equal(
        back.models["stub"].correctness, report.models["stub"].correctness
    )
    assert back.models["stub"].metrics == report.models["stub"].metrics
    rows = report.csv_rows()
    csv_text = rows_to_csv(rows)
    assert csv_text.splitlines()[0] == ",".join(CSV_FIELDS)
    assert len(csv_text.splitlines()) == 1 + len(rows)


def test_evaluate_cv_correctness_vector_alignment():
    ds = stub_dataset()
    report = evaluate_cv(ds, {"stub": StubModel}, k=5, seed=1, ensemble=False)
    assert report.models["stub"].correctness.shape == (30,)
    assert report.models["stub"].metrics.acc == 1.0
    assert report.split == {"kind": "cv", "folds": 5}


def test_ensemble_of_identical_models_equals_model():
    ds = stub_dataset()
    train, test = split_sorted(ds, train_fraction=0.5)
    report = evaluate_split(
        train, test, {"a": StubModel, "b": StubModel, "c": StubModel}, seed=0,
    )
    assert np.array_equal(
        report.models["ensemble"].correctness, report.models["a"].correctness
    )


def test_sweep_single_length_equals_plain_eval():
    ds = stub_dataset()
    reports = sweep_sequence_length(ds, lambda n: {"stub": StubModel}, [5], seed=2)
    assert len(reports) == 1
    assert reports[0].length == 5
    train, test = split_sorted(ds, train_fraction=0.8)
    plain = evaluate_split(train, test, {"stub": StubModel}, seed=2, ensemble=False)
    assert np.array_equal(
        reports[0].models["stub"].correctness, plain.models["stub"].correctness
    )


def test_sweep_validates_lengths():
    ds = stub_dataset()
    with pytest.raises(ValueError):
        sweep_sequence_length(ds, lambda n: {"stub": StubModel}, [])
    with pytest.raises(ValueError):
        sweep_sequence_length(ds, lambda n: {"stub": StubModel}, [100, 50])
    with pytest.raises(ValueError):
        sweep_sequence_length(ds, lambda n: {"stub": StubModel}, [0, 100])


def test_sweep_rejects_a_repeated_length():
    """``[50, 50]`` once trained and evaluated length 50 twice."""
    fitted = []

    def factories_at(n):
        fitted.append(n)
        return {"stub": StubModel}

    with pytest.raises(ValueError, match="strictly ascending"):
        sweep_sequence_length(stub_dataset(), factories_at, [50, 50])
    with pytest.raises(ValueError, match="strictly ascending"):
        sweep_sequence_length(stub_dataset(), factories_at, [5, 50, 50, 100])
    assert fitted == []


def test_labeled_dataset_rejects_unlabeled():
    with pytest.raises(ValueError, match="unlabeled"):
        LabeledDataset.from_traces([make_trace([(0, "A")], label=None)])


def test_labeled_dataset_reads_its_arrays_from_its_traces():
    assert list(inspect.signature(LabeledDataset).parameters) == ["samples"]
    ds = toy_dataset([5, 3, 9], [1, 0, 1])
    assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [1, 0, 1]
    assert ds.observed_at.dtype == np.int64 and ds.observed_at.tolist() == [5, 3, 9]
    assert ds.ids == ["t0", "t1", "t2"]
    sub = ds.subset(np.array([2, 0]))
    assert (sub.labels.tolist(), sub.observed_at.tolist(), sub.ids) == ([1, 1], [9, 5], ["t2", "t0"])


# --- report codec ------------------------------------------------------------------

# the bytes the report serializer wrote before reports went through the
# archive codec; n_test = 11 leaves five pad bits in the last bitmap byte
GOLDEN_REPORT = """\
{
  "config_hash": "0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f",
  "format_version": 1,
  "length": 250,
  "models": {
    "hist-rf": {
      "confusion": {
        "fn": 1,
        "fp": 1,
        "tn": 4,
        "tp": 5
      },
      "correctness_bitmap": "6+A=",
      "metrics": {
        "acc": 0.8181818181818182,
        "caa": 0.8166666666666667,
        "mpr": 0.8333333333333334,
        "mre": 0.8333333333333334
      },
      "n_test": 11
    },
    "linear": {
      "confusion": {
        "fn": 2,
        "fp": 1,
        "tn": 4,
        "tp": 4
      },
      "correctness_bitmap": "d2A=",
      "metrics": {
        "acc": 0.7272727272727273,
        "caa": 0.7333333333333334,
        "mpr": 0.8,
        "mre": 0.6666666666666666
      },
      "n_test": 11
    }
  },
  "seed": 7,
  "split": {
    "kind": "distributed",
    "test_malware": 6,
    "train_fraction": 0.8
  }
}
"""


def test_report_json_is_byte_identical_to_the_golden_file(tmp_path):
    labels = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1, 0, 1])
    preds = {
        "hist-rf": np.array([1, 0, 1, 0, 0, 1, 1, 0, 1, 0, 1]),
        "linear": np.array([0, 0, 1, 1, 1, 0, 1, 0, 0, 0, 1]),
    }
    report = EvaluationReport(
        split={"kind": "distributed", "test_malware": 6, "train_fraction": 0.8},
        seed=7, models=model_results(preds, labels),
        config_hash="0f" * 32, length=250,
    )
    path = tmp_path / "report.json"
    persistence.write_json(persistence.encode(report), path)
    assert path.read_text(encoding="utf-8") == GOLDEN_REPORT
    back = persistence.decode(EvaluationReport, json.loads(GOLDEN_REPORT))
    assert np.array_equal(back.models["linear"].correctness, preds["linear"] == labels)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 300).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 1), min_size=n, max_size=n),
    st.lists(st.integers(0, 1), min_size=n, max_size=n),
)))
def test_report_codec_round_trip(vectors):
    labels, pred = (np.array(v, dtype=np.int64) for v in vectors)
    report = EvaluationReport(
        split={"kind": "sorted", "train_fraction": 0.5}, seed=3,
        models=model_results({"m": pred}, labels), length=len(labels),
    )
    doc = json.loads(json.dumps(persistence.encode(report)))
    back = persistence.decode(EvaluationReport, doc)
    got, want = back.models["m"], report.models["m"]
    assert got.metrics == want.metrics
    assert got.confusion == want.confusion
    assert np.array_equal(got.correctness, pred == labels)
    assert back.csv_rows() == report.csv_rows()


def _result(n_test, confusion, nbytes):
    metrics, _ = compute_metrics(np.zeros(2, dtype=np.int64), np.array([0, 1]))
    bitmap = base64.b64encode(bytes(nbytes)).decode("ascii")
    return ModelResult(metrics, ConfusionCounts(*confusion), n_test, bitmap)


def test_model_result_checks_bitmap_size_and_confusion_total():
    assert _result(9, (2, 2, 3, 2), 2).correctness.shape == (9,)
    with pytest.raises(ValueError, match="bitmap has 7 bytes, n_test 500 needs 63"):
        _result(500, (100, 100, 200, 100), 7)
    with pytest.raises(ValueError, match="bitmap has 1 bytes"):
        _result(9, (2, 2, 3, 2), 1)
    with pytest.raises(ValueError, match="confusion counts total 9, n_test is 10"):
        _result(10, (2, 2, 3, 2), 2)
