"""Dataset splitting, the four detection metrics, the sequence-length sweep,
and majority-vote ensembling.

Three split regimes are provided because they answer different questions:

* sorted: train strictly precedes test in observation time, so the measured
  performance includes whatever concept drift the corpus carries;
* k-fold cross-validation: temporal order deliberately discarded — the
  conventional protocol, and typically an optimistic one under drift;
* distributed: a temporal split whose test malware is randomly down-selected
  to mimic the heavy class skew of operational network traffic.

Metrics use malware as the positive class.  CAA (class-averaged accuracy)
is the unweighted mean of per-class accuracies and is the headline metric:
plain accuracy is inflated by skew, which is exactly the failure mode the
distributed split exposes.
"""

from __future__ import annotations

import base64
import csv
import io
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .traces import INT_TO_LABEL, LABEL_TO_INT, SyscallTrace, labels_of


@dataclass(eq=False)
class LabeledDataset:
    """Labeled traces, with their integer labels, observation times and ids
    read from the traces into parallel arrays."""

    samples: list[SyscallTrace]
    labels: np.ndarray = field(init=False)  # int64, 0/1
    observed_at: np.ndarray = field(init=False)  # int64
    ids: list[str] = field(init=False)

    def __post_init__(self) -> None:
        unlabeled = [t.id for t in self.samples if t.label is None]
        if unlabeled:
            raise ValueError(f"dataset requires labels; unlabeled: {unlabeled[:3]}")
        self.labels = np.array([LABEL_TO_INT[t.label] for t in self.samples], dtype=np.int64)
        self.observed_at = np.array([t.observed_at for t in self.samples], dtype=np.int64)
        self.ids = [t.id for t in self.samples]

    def __len__(self) -> int:
        return len(self.samples)

    def subset(self, idx: np.ndarray) -> "LabeledDataset":
        return LabeledDataset([self.samples[i] for i in idx])

    @classmethod
    def from_traces(cls, traces: Sequence[SyscallTrace]) -> "LabeledDataset":
        """The constructor on a copy of ``traces``; kept only because the
        benchmark's set-up (``bench/workloads.py``) calls it."""
        return cls(list(traces))


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class MetricSet:
    acc: float
    caa: float
    mpr: float
    mre: float


def _temporal_order(observed_at: np.ndarray) -> np.ndarray:
    """Indices sorted by observation time, original order breaking ties."""
    return np.argsort(observed_at, kind="stable")


def split_sorted(
    dataset: LabeledDataset,
    train_fraction: float | None = None,
    train_counts: dict[str, int] | None = None,
) -> tuple[LabeledDataset, LabeledDataset]:
    """Temporal split: everything in train was observed no later than test.

    Either a train_fraction in (0, 1) or explicit per-class train counts
    (``{"goodware": g, "malware": m}``) must be given.  Explicit counts take
    each class's temporally-first quota; the corpus must be arranged so the
    result still respects the temporal boundary, otherwise this raises.
    """
    if (train_fraction is None) == (train_counts is None):
        raise ValueError("give exactly one of train_fraction or train_counts")
    order = _temporal_order(dataset.observed_at)
    if train_fraction is not None:
        if not 0.0 < train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        cut = int(round(train_fraction * len(dataset)))
        cut = min(max(cut, 1), len(dataset) - 1)
        train_idx, test_idx = order[:cut], order[cut:]
    else:
        quota = {
            LABEL_TO_INT[name]: int(count) for name, count in train_counts.items()
        }
        for lab, want in quota.items():
            if want < 0:
                raise ValueError(f"{INT_TO_LABEL[lab]} train count must be >= 0, got {want}")
        in_train = np.zeros(len(dataset), dtype=bool)  # by temporal position
        for lab, want in quota.items():
            taken = np.flatnonzero(dataset.labels[order] == lab)[:want]
            if taken.size != want:
                raise ValueError(
                    f"not enough {INT_TO_LABEL[lab]} samples for requested train count"
                )
            in_train[taken] = True
        train_idx, test_idx = order[in_train], order[~in_train]
        if train_idx.size and test_idx.size:
            if dataset.observed_at[train_idx].max() > dataset.observed_at[test_idx].min():
                raise ValueError(
                    "explicit train counts are incompatible with temporal ordering"
                )
    return dataset.subset(train_idx), dataset.subset(test_idx)


def split_kfold(
    dataset: LabeledDataset, k: int, seed: int = 0
) -> list[tuple[LabeledDataset, LabeledDataset]]:
    """Seeded k-fold partition ignoring temporal order (by design)."""
    n = len(dataset)
    if k < 2 or k > n:
        raise ValueError("k must satisfy 2 <= k <= dataset size")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    perm = rng.permutation(n)
    folds = np.array_split(perm, k)
    out = []
    for i in range(k):
        test_idx = np.sort(folds[i])
        train_idx = np.sort(np.concatenate([folds[j] for j in range(k) if j != i]))
        out.append((dataset.subset(train_idx), dataset.subset(test_idx)))
    return out


def split_distributed(
    dataset: LabeledDataset,
    test_malware: int,
    train_fraction: float | None = None,
    train_counts: dict[str, int] | None = None,
    seed: int = 0,
) -> tuple[LabeledDataset, LabeledDataset]:
    """Temporal split, then random down-select of test malware to a target.

    Dropped malware leaves the evaluation entirely (moving it into train
    would break the temporal boundary).  A target equal to the available
    count degenerates to split_sorted.
    """
    if test_malware < 0:
        raise ValueError(f"test malware target must be >= 0, got {test_malware}")
    train, test = split_sorted(dataset, train_fraction, train_counts)
    mal_pos = np.flatnonzero(test.labels == 1)
    if test_malware > mal_pos.size:
        raise ValueError(
            f"requested {test_malware} test malware, only {mal_pos.size} available"
        )
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    keep_mal = rng.choice(mal_pos, size=test_malware, replace=False)
    keep = np.sort(np.concatenate([np.flatnonzero(test.labels == 0), keep_mal]))
    return train, test.subset(keep)


def compute_metrics(
    predictions: np.ndarray, labels: np.ndarray
) -> tuple[MetricSet, ConfusionCounts]:
    """Acc, CAA, malware precision, malware recall from 0/1 vectors, and
    the confusion counts they are computed from (``confusion_metrics``)."""
    pred = np.asarray(predictions, dtype=np.int64)
    lab = np.asarray(labels, dtype=np.int64)
    if pred.shape != lab.shape or pred.ndim != 1:
        raise ValueError("predictions and labels must be equal-length vectors")
    tp = int(((pred == 1) & (lab == 1)).sum())
    fp = int(((pred == 1) & (lab == 0)).sum())
    tn = int(((pred == 0) & (lab == 0)).sum())
    fn = int(((pred == 0) & (lab == 1)).sum())
    confusion = ConfusionCounts(tp, fp, tn, fn)
    return confusion_metrics(confusion), confusion


def confusion_metrics(confusion: ConfusionCounts) -> MetricSet:
    """Acc, CAA, malware precision, malware recall of confusion counts.

    Zero-denominator conventions (documented because the paper-style skew
    experiments hit them): MPr with no predicted positives is 1.0 when the
    test set also has no malware, else 0.0; MRe with no malware present is
    1.0 (vacuously); CAA averages only over classes present in the test set.
    """
    tp, fp, tn, fn = confusion.tp, confusion.fp, confusion.tn, confusion.fn
    total = confusion.total
    if total == 0:
        raise ValueError("cannot compute metrics on an empty set")
    acc = (tp + tn) / total
    per_class = []
    if tp + fn > 0:
        per_class.append(tp / (tp + fn))
    if tn + fp > 0:
        per_class.append(tn / (tn + fp))
    caa = sum(per_class) / len(per_class)
    if tp + fp > 0:
        mpr = tp / (tp + fp)
    else:
        mpr = 1.0 if tp + fn == 0 else 0.0
    mre = tp / (tp + fn) if tp + fn > 0 else 1.0
    return MetricSet(acc=acc, caa=caa, mpr=mpr, mre=mre)


def majority_vote(per_model_predictions: Sequence[np.ndarray]) -> np.ndarray:
    """Per-sample majority label over models: ``labels_of`` the mean vote, so
    an even tie goes to malware."""
    if len(per_model_predictions) == 0:
        raise ValueError("majority_vote needs at least one model")
    stack = np.vstack([np.asarray(p, dtype=np.int64) for p in per_model_predictions])
    if not (stack.shape[1:] == np.asarray(per_model_predictions[0]).shape):
        raise ValueError("prediction vectors must be aligned")
    return labels_of(stack.mean(axis=0))


# --- evaluation reports ----------------------------------------------------

# the report name of the majority vote over a report's base models
ENSEMBLE = "ensemble"

# A model factory receives a seed and returns an object with
#   fit(traces, labels_int) and predict(traces) -> (labels_int, scores).
ModelFactory = Callable[[int], "object"]


@dataclass(eq=False)
class ModelResult:
    """One model's test metrics and which of its ``n_test`` test samples it
    got right: ``np.packbits`` of the correctness vector, base64-encoded."""

    metrics: MetricSet
    confusion: ConfusionCounts
    n_test: int
    correctness_bitmap: str

    def __post_init__(self) -> None:
        if self.confusion.total != self.n_test:
            raise ValueError(
                f"confusion counts total {self.confusion.total}, n_test is {self.n_test}"
            )
        size = len(base64.b64decode(self.correctness_bitmap, validate=True))
        need = math.ceil(self.n_test / 8)
        if size != need:
            raise ValueError(
                f"correctness bitmap has {size} bytes, n_test {self.n_test} needs {need}"
            )

    @property
    def correctness(self) -> np.ndarray:
        """One bool per test sample."""
        packed = np.frombuffer(base64.b64decode(self.correctness_bitmap), dtype=np.uint8)
        return np.unpackbits(packed, count=self.n_test).astype(bool)


@dataclass(eq=False)
class EvaluationReport:
    split: dict[str, object]
    seed: int
    models: dict[str, ModelResult]
    config_hash: str | None = None
    length: int | None = None
    format_version: int = 1

    def __post_init__(self) -> None:
        if self.format_version != 1:
            raise ValueError(f"unsupported report format_version {self.format_version!r}")
        n_test = {name: res.n_test for name, res in self.models.items()}
        if len(set(n_test.values())) > 1:
            sizes = ", ".join(f"{name} {n}" for name, n in n_test.items())
            raise ValueError(f"models were tested on different numbers of samples: {sizes}")
        for name, res in self.models.items():
            if res.metrics != confusion_metrics(res.confusion):
                raise ValueError(
                    f"model {name}: metrics {res.metrics} disagree with its confusion "
                    f"counts {res.confusion}"
                )

    def correctness_matrix(self) -> tuple[np.ndarray, list[str]]:
        names = list(self.models)
        bits = np.column_stack([self.models[m].correctness for m in names]).astype(
            np.int64
        )
        return bits, names

    def csv_rows(self) -> list[dict]:
        rows = []
        for name, res in self.models.items():
            rows.append(
                {
                    "model": name,
                    "split": self.split.get("kind", "?"),
                    "length": self.length if self.length is not None else "",
                    "acc": res.metrics.acc,
                    "caa": res.metrics.caa,
                    "mpr": res.metrics.mpr,
                    "mre": res.metrics.mre,
                    "tp": res.confusion.tp,
                    "fp": res.confusion.fp,
                    "tn": res.confusion.tn,
                    "fn": res.confusion.fn,
                    "seed": self.seed,
                }
            )
        return rows


CSV_FIELDS = [
    "model", "split", "length", "acc", "caa", "mpr", "mre",
    "tp", "fp", "tn", "fn", "seed",
]


def rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def model_results(
    predictions: dict[str, np.ndarray],
    labels: np.ndarray,
    ensemble: bool = False,
) -> dict[str, ModelResult]:
    """Metrics and correctness of each model's test predictions.

    With ``ensemble`` and at least two base models, the majority vote of the
    base predictions is appended as ``ENSEMBLE``.
    """
    if ensemble and len(predictions) >= 2:
        predictions = {**predictions, ENSEMBLE: majority_vote(list(predictions.values()))}
    results = {}
    for name, pred in predictions.items():
        metrics, confusion = compute_metrics(pred, labels)
        bitmap = base64.b64encode(np.packbits(pred == labels).tobytes()).decode("ascii")
        results[name] = ModelResult(metrics, confusion, len(pred), bitmap)
    return results


def _evaluate_folds(
    folds: Sequence[tuple[LabeledDataset, LabeledDataset]],
    factories: dict[str, ModelFactory],
    seed: int,
    split: dict,
    ensemble: bool,
) -> EvaluationReport:
    """Train every factory on each fold's train side and score its test side.

    Predictions and labels concatenate over the folds in order, so per-sample
    vectors stay aligned across models.
    """
    predictions: dict[str, list[np.ndarray]] = {name: [] for name in factories}
    for train, test in folds:
        for name, factory in factories.items():
            model = factory(seed)
            model.fit(train.samples, train.labels)
            predictions[name].append(model.predict(test.samples)[0])
    labels = np.concatenate([test.labels for _, test in folds])
    return EvaluationReport(
        split=split,
        seed=seed,
        models=model_results(
            {name: np.concatenate(p) for name, p in predictions.items()}, labels, ensemble
        ),
    )


def evaluate_split(
    train: LabeledDataset,
    test: LabeledDataset,
    factories: dict[str, ModelFactory],
    seed: int = 0,
    split_descriptor: dict | None = None,
    ensemble: bool = True,
) -> EvaluationReport:
    """Train every factory on the train side, score the test side, and append
    a majority-vote ensemble as ``model_results`` does."""
    return _evaluate_folds(
        [(train, test)], factories, seed, split_descriptor or {"kind": "custom"}, ensemble
    )


def evaluate_cv(
    dataset: LabeledDataset,
    factories: dict[str, ModelFactory],
    k: int = 10,
    seed: int = 0,
    ensemble: bool = True,
) -> EvaluationReport:
    """k-fold evaluation; correctness vectors concatenate folds in order,
    so per-sample vectors stay aligned across models."""
    return _evaluate_folds(
        split_kfold(dataset, k, seed), factories, seed, {"kind": "cv", "folds": k}, ensemble
    )


def sweep_sequence_length(
    dataset: LabeledDataset,
    factories_at: Callable[[int], dict[str, ModelFactory]],
    lengths: Sequence[int],
    train_fraction: float = 0.8,
    seed: int = 0,
    ensemble: bool = False,
) -> list[EvaluationReport]:
    """``evaluate_split`` of one sorted split at each length n, with the
    factories ``factories_at(n)`` returns, so each report is the one
    ``callsift eval --length n`` writes.

    The split is made once, of whole traces; each length is fully
    independent (no warm starts), and its models read only the first n
    events of each trace.
    """
    lengths = list(lengths)
    if not lengths or any(n < 1 for n in lengths):
        raise ValueError("lengths must be positive")
    if any(a >= b for a, b in zip(lengths, lengths[1:])):
        raise ValueError("lengths must be strictly ascending (no length twice)")
    train, test = split_sorted(dataset, train_fraction=train_fraction)
    reports = []
    for n in lengths:
        report = evaluate_split(
            train,
            test,
            factories_at(n),
            seed=seed,
            split_descriptor={"kind": "sorted", "train_fraction": train_fraction},
            ensemble=ensemble,
        )
        report.length = n
        reports.append(report)
    return reports


DEFAULT_SWEEP_LENGTHS = (100, 250, 500, 750, 1000, 2000, 3000, 4000, 5000)
