"""The benchmark's workloads: the corpus each one is given, the callsift
commands it runs, and the checks on their outputs.

Run as a script, ``python3 bench/workloads.py <workload> <seed> <dir>`` does
one set-up in a fresh process (imports, corpus generation, JSON Lines
writing) and prints, as its last line, a JSON summary of the values the
output checks expect.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS_FILE = "corpus.jsonl"
LSM_LENGTH = 1000  # callsift's default truncation, which pipeline keeps

# Spans every workload must record in a traced repetition (set-up included);
# a workload that stops calling one fails its trace check instead of
# silently reporting zero.
_COMMON_SPANS = (
    "datagen.generate_corpus", "traces.write_corpus", "traces.read_corpus",
    "traces.build_vocabulary", "traces.encode_histogram",
    "forest.train_decision_tree", "forest.train_random_forest",
    "forest.RandomForest.predict_scores", "forest.DecisionTree.predict_scores",
    "forest.train_linear", "models.hist-rf.fit", "models.hist-rf.predict",
    "evaluation.evaluate_split",
)
_LSM_SPANS = (
    "traces.encode_multihot", "reservoir.build_liquid", "reservoir.simulate_liquid",
    "reservoir.train_readout", "models.lsm.fit", "models.lsm.predict",
)
_HIST_SPANS = (
    "models.tree.fit", "models.tree.predict", "models.linear.fit",
    "models.linear.predict", "cli.eval",
)


def load_callsift():
    """Import callsift from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "callsift" / "cli.py").is_file():
        raise SystemExit(f"error: no callsift sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import callsift

    if Path(callsift.__file__).resolve().parent != SRC / "callsift":
        raise SystemExit(f"error: imported callsift from {callsift.__file__}, not {SRC}")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _liquid_steps(traces, length: int) -> int:
    """Sum over traces of (last occupied step + 1) after truncation: the
    steps the liquid simulates to give each of them a state once."""
    return sum(t.events[:length][-1][0] + 1 for t in traces if t.events)


def _drifted_config(scale: float, seed: int):
    """The drifted sorted-shape corpus of acceptance test 05 and the
    ``pipeline`` command, at the given scale."""
    from callsift import datagen

    return datagen.table1_shape(
        "sorted", scale=scale, seed=seed,
        profiles=datagen.default_profiles(separation=2.0),
        drift=datagen.DriftSchedule(0.3),
    )


def _counts_arg(config) -> str:
    return f"{config.train_counts['goodware']},{config.train_counts['malware']}"


def _load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _check_report(label: str, doc: dict, models, n_test: int) -> list[tuple]:
    """Every expected model is reported, on the expected number of test
    traces, and its confusion matrix sums to that number."""
    checks = [(f"{label}: models reported", sorted(doc["models"]) == sorted(models),
               f"got {sorted(doc['models'])}")]
    for name, entry in doc["models"].items():
        total = sum(entry["confusion"].values())
        checks.append((f"{label}: {name} confusion sums to test size",
                       total == entry["n_test"] == n_test,
                       f"confusion {total}, n_test {entry['n_test']}, expected {n_test}"))
    return checks


def predictions_digest(reports: dict[str, dict]) -> str:
    """SHA-256 of every model's per-trace correctness bits; for fixed labels
    these determine the predictions."""
    lines = [f"{label}/{model}/{entry['n_test']}/{entry['correctness_bitmap']}"
             for label, doc in reports.items()
             for model, entry in sorted(doc["models"].items())]
    return _sha256("\n".join(lines).encode("utf-8"))


class Workload:
    """One workload: its inputs, its measured commands and its checks."""

    name: str
    default_seed: int
    required_spans: tuple[str, ...]

    def config(self, seed: int):
        raise NotImplementedError

    def expectations(self, seed: int, config, dataset) -> dict:
        """Values the checks compare outputs with, from the input alone."""
        raise NotImplementedError

    def commands(self, corpus: Path, out: Path, seed: int, expected: dict) -> list[list[str]]:
        """The measured CLI invocations."""
        raise NotImplementedError

    def verify_commands(self, out: Path, seed: int, expected: dict) -> list[list[str]]:
        """CLI invocations run after timing, only to check outputs."""
        return []

    def check(self, out: Path, expected: dict) -> tuple[list[tuple], dict, dict]:
        """(checks as (name, ok, detail), quality metrics, reports read)."""
        raise NotImplementedError


class Pipeline(Workload):
    """``callsift pipeline`` at scale 0.01: the paper's full protocol."""

    name = "pipeline"
    default_seed = 13
    scale = 0.01
    # 3 folds and 20 LIME perturbations instead of the defaults 10 and 300:
    # with them a run takes 11-15 s on a 2-vCPU VM instead of about 60 s, so
    # a 30 s benchmark run repeats it.
    folds = 3
    perturbations = 20
    models = ("tree", "hist-rf", "linear", "lsm", "ensemble")
    required_spans = _COMMON_SPANS + _LSM_SPANS + _HIST_SPANS + (
        "evaluation.evaluate_cv", "significance.pairwise_significance",
        "explain.lime_explain", "explain.extract_rules", "explain.class_frequency_marks",
        "persistence.save_model", "persistence.load_model", "cli.pipeline",
        "cli.stats", "cli.train", "cli.explain",
    )

    def config(self, seed):
        return _drifted_config(self.scale, seed)

    def expectations(self, seed, config, dataset):
        from callsift import datagen, evaluation

        test_malware = datagen.scale_count(45, self.scale)
        s_train, s_test = evaluation.split_sorted(dataset, None, config.train_counts)
        d_train, d_test = evaluation.split_distributed(
            dataset, test_malware, None, config.train_counts, seed=seed)
        # the LSM is fitted on each train side and scores each test side
        fits = [(s_train, s_test), (d_train, d_test)]
        fits += evaluation.split_kfold(dataset, self.folds, seed)
        steps = sum(_liquid_steps(train.samples + test.samples, LSM_LENGTH)
                    for train, test in fits)
        return {"liquid_steps": steps, "train_counts": _counts_arg(config),
                "n_test": {"sorted": len(s_test), "cv": len(dataset),
                           "distributed": len(d_test)}}

    def commands(self, corpus, out, seed, expected):
        return [["pipeline", "--out-dir", str(out), "--scale", str(self.scale),
                 "--folds", str(self.folds), "--perturbations", str(self.perturbations),
                 "--reproducible", "--seed", str(seed)]]

    def verify_commands(self, out, seed, expected):
        return [["eval", "--corpus", str(out / "corpus.jsonl"),
                 "--model-archive", str(out / "model_hist-rf.json"), "--split", "sorted",
                 "--train-counts", expected["train_counts"], "--seed", str(seed),
                 "--out", str(out / "report_archived.json")]]

    def check(self, out, expected):
        reports = {label: _load(out / f"report_{label}.json")
                   for label in ("sorted", "cv", "distributed")}
        checks = []
        for label, doc in reports.items():
            checks += _check_report(label, doc, self.models, expected["n_test"][label])
        corpus_sha = _sha256((out / "corpus.jsonl").read_bytes())
        checks.append(("pipeline corpus equals the set-up corpus",
                       corpus_sha == expected["corpus_sha256"], corpus_sha))
        caa = reports["sorted"]["models"]["hist-rf"]["metrics"]["caa"]
        checks.append(("sorted hist-rf CAA >= 0.90", caa >= 0.90, f"{caa:.4f}"))
        archived = _load(out / "report_archived.json")["models"]["archived"]
        in_run = reports["sorted"]["models"]["hist-rf"]
        checks.append(("reloaded archive predicts as the in-run hist-rf",
                       archived["correctness_bitmap"] == in_run["correctness_bitmap"]
                       and archived["n_test"] == in_run["n_test"], ""))
        ids = [e["sample_id"] for e in _load(out / "explain" / "explanations.json")]
        checks.append(("one LIME explanation per trace",
                       _sha256("\n".join(ids).encode("utf-8")) == expected["ids_sha256"],
                       f"{len(ids)} explanations for {expected['traces']} traces"))
        quality = {
            "caa.hist-rf": caa,
            "caa.lsm": reports["sorted"]["models"]["lsm"]["metrics"]["caa"],
            "mpr_skewed.hist-rf": reports["distributed"]["models"]["hist-rf"]["metrics"]["mpr"],
        }
        return checks, quality, reports


class LengthSweep(Workload):
    """``callsift sweep`` of hist-rf and the LSM over long traces."""

    name = "length-sweep"
    default_seed = 21
    lengths = (100, 1000)  # the two lengths acceptance test 06 compares
    required_spans = _COMMON_SPANS + _LSM_SPANS + (
        "cli.sweep", "evaluation.sweep_sequence_length",
    )

    def config(self, seed):
        from callsift import datagen

        return datagen.make_config(
            seed=seed, goodware_count=180, malware_count=180,
            profiles=datagen.accumulating_profiles(),
        )

    def expectations(self, seed, config, dataset):
        from callsift import evaluation

        _, test = evaluation.split_sorted(dataset, train_fraction=0.8)
        steps = sum(_liquid_steps(dataset.samples, n) for n in self.lengths)
        return {"liquid_steps": steps, "n_test": {"sweep": len(test)}}

    def commands(self, corpus, out, seed, expected):
        return [["sweep", "--corpus", str(corpus), "--models", "hist-rf,lsm",
                 "--lengths", ",".join(map(str, self.lengths)),
                 "--out", str(out / "sweep.csv"), "--report-json", str(out / "sweep.json")]]

    def check(self, out, expected):
        docs = _load(out / "sweep.json")
        reports = {f"length={doc['length']}": doc for doc in docs}
        checks = [("one report per length", [d["length"] for d in docs] == list(self.lengths),
                   str([d["length"] for d in docs]))]
        for label, doc in reports.items():
            checks += _check_report(label, doc, ("hist-rf", "lsm"), expected["n_test"]["sweep"])
        caa = {(d["length"], m): d["models"][m]["metrics"]["caa"]
               for d in docs for m in ("hist-rf", "lsm")}
        short, long = self.lengths[0], self.lengths[-1]
        rise = caa[long, "hist-rf"] - caa[short, "hist-rf"]
        checks.append((f"hist-rf CAA rises >= 0.05 from {short} to {long}", rise >= 0.05,
                       f"{rise:.4f}"))
        # Acceptance test 06 also holds the LSM within 0.03 CAA across
        # lengths, at seed 21.  With 72 test traces one error moves CAA by
        # about 0.014, and some seeds move it by 0.056, so the shift is
        # reported, not checked.
        quality = {"caa.hist-rf": caa[long, "hist-rf"], "caa.lsm": caa[long, "lsm"],
                   "caa.lsm.shift": abs(caa[long, "lsm"] - caa[short, "lsm"])}
        return checks, quality, reports


class HistScale(Workload):
    """``callsift eval`` of the histogram models on 2,761 traces."""

    name = "hist-scale"
    default_seed = 13
    scale = 0.1
    test_malware = 4
    models = ("tree", "hist-rf", "linear", "ensemble")
    required_spans = _COMMON_SPANS + _HIST_SPANS

    def config(self, seed):
        return _drifted_config(self.scale, seed)

    def expectations(self, seed, config, dataset):
        from callsift import evaluation

        _, s_test = evaluation.split_sorted(dataset, None, config.train_counts)
        # eval's --seed defaults to 0, and picks the kept test malware
        _, d_test = evaluation.split_distributed(
            dataset, self.test_malware, None, config.train_counts, seed=0)
        return {"liquid_steps": 0, "train_counts": _counts_arg(config),
                "n_test": {"sorted": len(s_test), "distributed": len(d_test)}}

    def commands(self, corpus, out, seed, expected):
        base = ["eval", "--corpus", str(corpus), "--models", ",".join(self.models),
                "--train-counts", expected["train_counts"]]
        return [base + ["--split", "sorted", "--out", str(out / "report_sorted.json")],
                base + ["--split", "distributed", "--test-malware", str(self.test_malware),
                        "--out", str(out / "report_distributed.json")]]

    def check(self, out, expected):
        reports = {label: _load(out / f"report_{label}.json")
                   for label in ("sorted", "distributed")}
        checks = []
        for label, doc in reports.items():
            checks += _check_report(label, doc, self.models, expected["n_test"][label])
        quality = {
            "caa.hist-rf": reports["sorted"]["models"]["hist-rf"]["metrics"]["caa"],
            "mpr_skewed.hist-rf": reports["distributed"]["models"]["hist-rf"]["metrics"]["mpr"],
        }
        return checks, quality, reports


WORKLOADS = {w.name: w for w in (Pipeline(), LengthSweep(), HistScale())}


def prepare(workload: Workload, seed: int, out_dir: Path) -> dict:
    """Generate the workload's corpus, write it to ``out_dir/corpus.jsonl``
    and return what the checks expect of the outputs."""
    from callsift import datagen, evaluation
    from callsift.traces import write_corpus

    config = workload.config(seed)
    corpus = datagen.generate_corpus(config)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / CORPUS_FILE
    write_corpus(corpus, path)
    dataset = evaluation.LabeledDataset.from_traces(corpus)
    return {
        "traces": len(corpus),
        "corpus_sha256": _sha256(path.read_bytes()),
        "ids_sha256": _sha256("\n".join(t.id for t in corpus).encode("utf-8")),
        **workload.expectations(seed, config, dataset),
    }


if __name__ == "__main__":
    name, seed, out = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    load_callsift()
    print(json.dumps(prepare(WORKLOADS[name], seed, out), sort_keys=True))
