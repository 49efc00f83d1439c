import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from callsift import cli, datagen, models, persistence
from callsift.evaluation import EvaluationReport, LabeledDataset, model_results, split_sorted
from callsift.traces import GOODWARE, MALWARE, SyscallTrace, read_corpus, write_corpus
from conftest import events_of


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    doc = persistence.encode(
        datagen.make_config(
            seed=5, goodware_count=40, malware_count=40,
            profiles=datagen.default_profiles(length_min=40, length_max=80),
            drift=datagen.DriftSchedule(0.2),
        )
    )
    config = root / "config.json"
    config.write_text(json.dumps(doc))
    corpus = root / "corpus.jsonl"
    assert cli.main(["gen", "--config", str(config), "--out", str(corpus),
                     "--reproducible"]) == 0
    return root


def test_gen_is_deterministic(workspace):
    again = workspace / "again.jsonl"
    assert cli.main(["gen", "--config", str(workspace / "config.json"),
                     "--out", str(again), "--reproducible"]) == 0
    assert again.read_bytes() == (workspace / "corpus.jsonl").read_bytes()
    meta = json.loads((workspace / "corpus.jsonl.meta.json").read_text())
    assert meta["traces"] == 80
    assert meta["created_at"] is None
    assert len(meta["config_hash"]) == 64


def test_gen_seed_override_changes_output(workspace, tmp_path):
    out = tmp_path / "reseeded.jsonl"
    assert cli.main(["gen", "--config", str(workspace / "config.json"),
                     "--out", str(out), "--seed", "99", "--reproducible"]) == 0
    assert out.read_bytes() != (workspace / "corpus.jsonl").read_bytes()


# JSON text nested deeper than the decoder's recursion limit allows
NESTED_TOO_DEEP = "[" * 200_000 + "]" * 200_000


def _typo(key, wrong, where):
    def mutate(doc):
        target = where(doc)
        target[wrong] = target.pop(key)
        return doc
    return mutate


def _drop_timestamp_range(doc):
    del doc["timestamp_range"]
    return doc


def _frequencies_as_list(doc):
    profile = doc["profiles"]["goodware"][0]
    profile["call_frequencies"] = list(profile["call_frequencies"])
    return doc


def _set(key, value):
    def mutate(doc):
        doc[key] = value
        return doc
    return mutate


@pytest.mark.parametrize("mutate, type_name", [
    (lambda doc: [], "CorpusConfig"),
    (_typo("burstiness", "burstines", lambda d: d["profiles"]["malware"][0]), "ClassProfile"),
    (_typo("style", "styel", lambda d: d["profiles"]["goodware"][0]["motifs"][0]), "Motif"),
    (_drop_timestamp_range, "CorpusConfig"),
    (_frequencies_as_list, "dict[str, float]"),
    (_set("goodware_count", "3"), "CorpusConfig.goodware_count: int payload is a str"),
    (_set("seed", "13"), "CorpusConfig.seed: int payload is a str"),
    (_set("seed", True), "CorpusConfig.seed: int payload is a bool"),
    (lambda doc: NESTED_TOO_DEEP, "config.json nests deeper than the JSON decoder allows"),
], ids=["not-an-object", "profile-typo", "motif-typo", "missing-field", "frequencies-list",
        "count-as-string", "seed-as-string", "seed-as-bool", "nested-too-deep"])
def test_gen_rejects_malformed_config(tmp_path, capsys, mutate, type_name):
    doc = persistence.encode(datagen.make_config(
        seed=1, goodware_count=3, malware_count=3,
        profiles=datagen.accumulating_profiles(),
    ))
    doc = mutate(doc)
    config = tmp_path / "config.json"
    config.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    out = tmp_path / "corpus.jsonl"
    assert cli.main(["gen", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and type_name in err
    assert not out.exists()


@pytest.fixture(scope="module")
def sorted_report(workspace):
    """Sorted-split report of the four histogram models, with its CSV beside it."""
    report_path = workspace / "report.json"
    rc = cli.main([
        "eval", "--corpus", str(workspace / "corpus.jsonl"), "--split", "sorted",
        "--models", "tree,hist-rf,linear,ensemble", "--length", "100",
        "--seed", "3", "--out", str(report_path), "--csv", str(workspace / "report.csv"),
    ])
    assert rc == 0
    return report_path


@pytest.fixture(scope="module")
def rf_archive(workspace):
    """A hist-rf archive trained on the workspace corpus."""
    model_path = workspace / "rf.json"
    rc = cli.main([
        "train", "--corpus", str(workspace / "corpus.jsonl"), "--model", "hist-rf",
        "--length", "100", "--seed", "3", "--out", str(model_path),
        "--reproducible",
    ])
    assert rc == 0
    return model_path


def test_eval_sorted_report_and_csv(workspace, sorted_report):
    doc = json.loads(sorted_report.read_text())
    assert set(doc["models"]) == {"tree", "hist-rf", "linear", "ensemble"}
    for entry in doc["models"].values():
        for key in ("acc", "caa", "mpr", "mre"):
            assert 0.0 <= entry["metrics"][key] <= 1.0
    header = (workspace / "report.csv").read_text().splitlines()[0]
    assert header == "model,split,length,acc,caa,mpr,mre,tp,fp,tn,fn,seed"


def test_eval_cv_and_distributed(workspace):
    rc = cli.main([
        "eval", "--corpus", str(workspace / "corpus.jsonl"), "--split", "cv",
        "--models", "tree,linear", "--length", "100", "--folds", "4",
        "--out", str(workspace / "cv.json"),
    ])
    assert rc == 0
    doc = json.loads((workspace / "cv.json").read_text())
    assert doc["split"] == {"kind": "cv", "folds": 4}
    assert doc["models"]["tree"]["n_test"] == 80  # every sample tested once

    rc = cli.main([
        "eval", "--corpus", str(workspace / "corpus.jsonl"), "--split", "distributed",
        "--models", "tree", "--length", "100", "--test-malware", "2",
        "--out", str(workspace / "dist.json"),
    ])
    assert rc == 0
    doc = json.loads((workspace / "dist.json").read_text())
    report = persistence.decode(EvaluationReport, doc)
    c = report.models["tree"].confusion
    assert c.tp + c.fn == 2  # malware down-selected to the target


def test_eval_distributed_defaults_to_the_test_malware_available(workspace, tmp_path,
                                                                  capsys):
    corpus = str(workspace / "corpus.jsonl")
    _, test = split_sorted(LabeledDataset.from_traces(read_corpus(corpus)), 0.8)
    available = int(test.labels.sum())
    assert available < datagen.DISTRIBUTED_SHAPE["test"][MALWARE]
    argv = ["eval", "--corpus", corpus, "--split", "distributed", "--models", "tree",
            "--length", "100", "--out", str(tmp_path / "dist.json")]
    assert cli.main(argv) == 0
    report = persistence.decode(EvaluationReport, json.loads((tmp_path / "dist.json").read_text()))
    assert report.split["test_malware"] == available
    c = report.models["tree"].confusion
    assert c.tp + c.fn == available
    # an explicit target above what the split holds is still an error
    assert cli.main(argv + ["--test-malware", str(available + 1)]) == 1
    assert capsys.readouterr().err == (
        f"error: requested {available + 1} test malware, only {available} available\n"
    )


def test_eval_report_byte_identical_across_runs(workspace, tmp_path):
    args = [
        "eval", "--corpus", str(workspace / "corpus.jsonl"), "--split", "sorted",
        "--models", "hist-rf", "--length", "100", "--seed", "3",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_train_then_archive_eval(workspace, rf_archive):
    rc = cli.main([
        "eval", "--corpus", str(workspace / "corpus.jsonl"), "--split", "sorted",
        "--model-archive", str(rf_archive), "--length", "100",
        "--out", str(workspace / "archived.json"),
    ])
    assert rc == 0
    doc = json.loads((workspace / "archived.json").read_text())
    assert "archived" in doc["models"]
    # archives cannot be cross-validated without retraining
    rc = cli.main([
        "eval", "--corpus", str(workspace / "corpus.jsonl"), "--split", "cv",
        "--model-archive", str(rf_archive),
        "--out", str(workspace / "nope.json"),
    ])
    assert rc == 1


def test_eval_of_an_archive_refuses_models(workspace, rf_archive, tmp_path, capsys):
    """``--models`` next to ``--model-archive`` was once ignored without a word."""
    out = tmp_path / "r.json"
    rc = cli.main(["eval", "--corpus", str(workspace / "corpus.jsonl"), "--split", "sorted",
                   "--model-archive", str(rf_archive), "--models", "nonsense,nonsense",
                   "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: --models cannot be given with --model-archive (the archive is the model)\n")
    assert not out.exists()


def test_an_unset_eval_models_hashes_as_its_default():
    parser = cli.build_parser()
    argv = ["eval", "--corpus", "c.jsonl", "--split", "sorted", "--out", "r.json"]
    unset = cli._run_config_hash(parser.parse_args(argv), "eval")
    named = cli._run_config_hash(parser.parse_args(argv + ["--models", "tree,hist-rf,linear"]),
                                 "eval")
    assert unset == named
    other = cli._run_config_hash(parser.parse_args(argv + ["--models", "tree"]), "eval")
    assert other != unset


def test_train_full_fits_every_trace(workspace, tmp_path, capsys):
    traces = read_corpus(workspace / "corpus.jsonl")
    last = traces[-1]  # on the test side of every sorted split
    traces[-1] = SyscallTrace(last.id, last.label, last.observed_at,
                              events_of([(0, "NtOnlyInTest")]))
    corpus, out = tmp_path / "corpus.jsonl", tmp_path / "tree.json"
    write_corpus(traces, corpus)
    for extra, trained, sees_it in (([], 64, False), (["--full"], 80, True)):
        assert cli.main(["train", "--corpus", str(corpus), "--model", "tree",
                         "--out", str(out), *extra]) == 0
        assert f"trained tree on {trained} traces" in capsys.readouterr().out
        vocabulary = json.loads(out.read_text())["vocabulary"]
        assert ("NtOnlyInTest" in vocabulary) is sees_it


@pytest.mark.parametrize("vocabulary", ["integers", "null"])
def test_archive_with_a_malformed_vocabulary_exits_one(workspace, rf_archive, tmp_path,
                                                       capsys, vocabulary):
    doc = json.loads(rf_archive.read_text())
    doc["vocabulary"] = list(range(len(doc["vocabulary"]))) if vocabulary == "integers" else None
    archive = tmp_path / "bad.json"
    archive.write_text(json.dumps(doc))
    rc = cli.main(["eval", "--corpus", str(workspace / "corpus.jsonl"), "--split", "sorted",
                   "--model-archive", str(archive), "--out", str(tmp_path / "r.json")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: vocabulary: ")
    assert not (tmp_path / "r.json").exists()


def test_ensemble_archive_with_a_malformed_member_list_exits_one(workspace, rf_archive,
                                                                tmp_path, capsys):
    doc = json.loads(rf_archive.read_text())
    doc["kind"], doc["payload"] = "ensemble", {"members": []}
    doc["payload_sha256"] = persistence.config_hash(doc["payload"])
    archive = tmp_path / "bad.json"
    archive.write_text(json.dumps(doc))
    rc = cli.main(["eval", "--corpus", str(workspace / "corpus.jsonl"), "--split", "sorted",
                   "--model-archive", str(archive), "--out", str(tmp_path / "r.json")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: EnsemblePayload.members: ")
    assert not (tmp_path / "r.json").exists()


def test_lsm_archive_whose_readout_holds_svm_fields_exits_one(workspace, tmp_path, capsys):
    corpus = str(workspace / "corpus.jsonl")
    archive = tmp_path / "lsm.json"
    assert cli.main(["train", "--corpus", corpus, "--model", "lsm", "--length", "60",
                     "--folds", "3", "--reproducible", "--out", str(archive)]) == 0
    doc = json.loads(archive.read_text())
    # the fields of a kernel SVM: the LSM's one readout is a LinearModel
    doc["payload"]["readout"]["model"] = {
        "support_vectors": [[0.0, 1.0]], "dual_coef": [1.0], "bias": 0.0, "sigma": 1.0,
        "box": 1.0,
    }
    doc["payload_sha256"] = persistence.config_hash(doc["payload"])
    archive.write_text(json.dumps(doc))
    message = (r"LsmModel\.readout: ReadoutModel\.model: LinearModel payload has fields "
               r"\['bias', 'box', 'dual_coef', 'sigma', 'support_vectors'\]")
    with pytest.raises(persistence.ArchiveError, match=f"^{message}"):
        persistence.load_model(archive)
    capsys.readouterr()
    rc = cli.main(["eval", "--corpus", corpus, "--split", "sorted", "--length", "60",
                   "--model-archive", str(archive), "--out", str(tmp_path / "r.json")])
    assert rc == 1
    assert re.match(f"^error: {message}", capsys.readouterr().err)
    assert not (tmp_path / "r.json").exists()


def test_sweep_csv(workspace):
    out = workspace / "sweep.csv"
    rc = cli.main([
        "sweep", "--corpus", str(workspace / "corpus.jsonl"), "--models", "tree",
        "--lengths", "20,60", "--out", str(out), "--seed", "1",
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[2] == "20" and lines[2].split(",")[2] == "60"


@pytest.mark.parametrize("command, extra", [
    ("eval", ["--split", "sorted"]),
    ("sweep", ["--lengths", "20,60"]),
])
def test_a_model_kind_named_twice_exits_one(workspace, tmp_path, capsys, command, extra):
    """``tree,tree,ensemble`` once wrote one tree row and no ensemble row."""
    out = tmp_path / "out"
    rc = cli.main([command, "--corpus", str(workspace / "corpus.jsonl"),
                   "--models", "tree,tree,ensemble", "--out", str(out), *extra])
    assert rc == 1
    assert capsys.readouterr().err == "error: model kinds requested more than once: tree\n"
    assert not out.exists()


def test_sweep_of_a_length_named_twice_exits_one(workspace, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", "--corpus", str(workspace / "corpus.jsonl"), "--models", "tree",
                   "--lengths", "50,50", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: lengths must be strictly ascending (no length twice)\n")
    assert not out.exists()


@pytest.mark.parametrize("lengths, item", [("50,", "''"), ("50,x", "'x'"), ("1.5,60", "'1.5'")])
def test_sweep_lengths_that_are_not_integers_exit_one_naming_the_item(workspace, tmp_path,
                                                                      capsys, lengths, item):
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", "--corpus", str(workspace / "corpus.jsonl"), "--models", "tree",
                   "--lengths", lengths, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: --lengths expects comma-separated integers, got {item}\n")
    assert not out.exists()


def _weak_profiles(length_min, length_max):
    """Two classes weakly separated over four calls."""
    def profile(a, b):
        return datagen.ClassProfile(
            call_frequencies={"NtClose": a, "NtOpenKey": b, "NtReadFile": 0.5 - a,
                              "NtWriteFile": 0.5 - b},
            length_min=length_min, length_max=length_max,
        )
    return {GOODWARE: profile(0.255, 0.245), MALWARE: profile(0.245, 0.255)}


@pytest.fixture(scope="module")
def long_corpus(tmp_path_factory):
    """80 traces of 1,100 to 1,400 calls."""
    config = datagen.make_config(seed=4, goodware_count=40, malware_count=40,
                                 profiles=_weak_profiles(1100, 1400))
    corpus = datagen.generate_corpus(config)
    path = tmp_path_factory.mktemp("long") / "corpus.jsonl"
    write_corpus(corpus, path)
    return path


@pytest.fixture(scope="module")
def late_call_corpus(tmp_path_factory):
    """80 traces of 300 to 400 calls; every third ends with an ``NtExit`` that
    no trace makes anywhere else, so it is in a vocabulary built from whole
    training traces and never in their first 100 events."""
    config = datagen.make_config(seed=4, goodware_count=40, malware_count=40,
                                 profiles=_weak_profiles(300, 400))
    corpus = [
        t if i % 3 else SyscallTrace(t.id, t.label, t.observed_at,
                                     events_of((*t.events, (t.events[-1][0] + 1, "NtExit"))))
        for i, t in enumerate(datagen.generate_corpus(config))
    ]
    path = tmp_path_factory.mktemp("late") / "corpus.jsonl"
    write_corpus(corpus, path)
    return path


def _sweep_equals_eval(corpus, model_spec, lengths, tmp_path) -> list[dict]:
    """Sweep ``corpus`` and assert that each length's report holds the
    correctness bitmaps ``eval --length n`` writes on the sorted split;
    return eval's bitmaps, one dict per length."""
    sweep_json = tmp_path / "sweep.json"
    assert cli.main([
        "sweep", "--corpus", str(corpus), "--models", model_spec,
        "--lengths", ",".join(map(str, lengths)), "--seed", "3",
        "--out", str(tmp_path / "sweep.csv"), "--report-json", str(sweep_json),
    ]) == 0
    swept = json.loads(sweep_json.read_text())
    bitmaps = []
    for n, report in zip(lengths, swept):
        out = tmp_path / f"eval_{n}.json"
        assert cli.main([
            "eval", "--corpus", str(corpus), "--split", "sorted",
            "--models", model_spec, "--train-fraction", "0.8",
            "--length", str(n), "--seed", "3", "--out", str(out),
        ]) == 0
        evaluated = json.loads(out.read_text())
        assert report["length"] == n
        for name in model_spec.split(","):
            assert (report["models"][name]["correctness_bitmap"]
                    == evaluated["models"][name]["correctness_bitmap"]), (n, name)
        bitmaps.append({k: v["correctness_bitmap"] for k, v in evaluated["models"].items()})
    return bitmaps


def test_sweep_lengths_match_eval_at_each_length(long_corpus, tmp_path):
    """Each swept length trains and scores on exactly the first n calls, the
    same as ``eval --length n`` on the sorted split, also past the default
    ``--length`` of 1000."""
    bitmaps = _sweep_equals_eval(long_corpus, "tree,hist-rf", (1000, 1400), tmp_path)
    # the two lengths must give different results, or this test shows nothing
    assert bitmaps[0] != bitmaps[1]


def test_sweep_equals_eval_where_training_traces_call_late(late_call_corpus, tmp_path):
    """A call that training traces make only after their n-th event is in
    each model's vocabulary, in a sweep as in ``eval --length n``; the LSM's
    liquid is sized by that vocabulary."""
    _sweep_equals_eval(late_call_corpus, "hist-rf,linear,lsm", (100,), tmp_path)


def test_report_and_stats_read_a_sweep_file(workspace, tmp_path, capsys):
    """``report`` and ``stats`` on a ``sweep --report-json`` list equal the
    same commands on each entry extracted by hand, in order."""
    sweep_json = tmp_path / "sweep.json"
    assert cli.main([
        "sweep", "--corpus", str(workspace / "corpus.jsonl"),
        "--models", "tree,linear,ensemble", "--lengths", "20,60", "--seed", "2",
        "--out", str(tmp_path / "sweep.csv"), "--report-json", str(sweep_json),
    ]) == 0
    entries = json.loads(sweep_json.read_text())
    capsys.readouterr()

    def run(command, report, out):
        argv = [command, "--report", str(report)]
        assert cli.main(argv + (["--out", str(out)] if command == "stats" else [])) == 0
        return capsys.readouterr().out

    sig_tables, sig_docs, reports = [], [], []
    for i, entry in enumerate(entries):
        alone = tmp_path / f"entry_{i}.json"
        alone.write_text(json.dumps(entry))
        out = tmp_path / f"sig_{i}.json"
        sig_tables.append(f"length: {entry['length']}\n" + run("stats", alone, out))
        sig_docs.append(json.loads(out.read_text()))
        reports.append(run("report", alone, None))
    assert run("stats", sweep_json, tmp_path / "sig.json") == "\n".join(sig_tables)
    assert json.loads((tmp_path / "sig.json").read_text()) == sig_docs
    assert run("report", sweep_json, None) == "\n".join(reports)


def test_pipeline_passes_its_config_split_shape_to_its_stages(tmp_path, monkeypatch):
    """The train counts every stage gets are the corpus config's, and the
    distributed test-malware target is the distributed shape's, scaled."""
    real = datagen.table1_shape

    def shifted(*args, **kwargs):  # counts that no other table would give
        config = real(*args, **kwargs)
        counts = {label: n - 1 for label, n in config.train_counts.items()}
        return dataclasses.replace(config, train_counts=counts)

    monkeypatch.setattr(datagen, "table1_shape", shifted)
    stages = []
    monkeypatch.setattr(cli, "main", lambda argv: stages.append(argv) or 0)
    args = cli.build_parser().parse_args(
        ["pipeline", "--out-dir", str(tmp_path), "--scale", "0.01", "--reproducible"])
    assert cli.cmd_pipeline(args) == 0
    config = shifted("sorted", scale=0.01)
    counts = f"{config.train_counts[GOODWARE]},{config.train_counts[MALWARE]}"
    with_counts = [argv for argv in stages if "--train-counts" in argv]
    assert [argv[0] for argv in with_counts] == ["eval", "eval", "train"]
    for argv in with_counts:
        assert argv[argv.index("--train-counts") + 1] == counts
    distributed = next(argv for argv in stages if "distributed" in argv)
    assert distributed[distributed.index("--test-malware") + 1] == str(
        datagen.scale_count(datagen.DISTRIBUTED_SHAPE["test"][MALWARE], 0.01))


def test_sweep_accepts_only_options_it_honours(tmp_path):
    for extra in (["--length", "5"], ["--train-counts", "1,1"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--corpus", str(tmp_path / "corpus.jsonl"),
                      "--out", str(tmp_path / "sweep.csv")] + extra)
        assert exc.value.code == 2


def test_stats_from_report(workspace, sorted_report, capsys):
    rc = cli.main([
        "stats", "--report", str(sorted_report), "--alpha", "0.05",
        "--out", str(workspace / "sig.json"),
    ])
    assert rc == 0
    text = capsys.readouterr().out
    assert "YES" in text or "NO" in text
    doc = json.loads((workspace / "sig.json").read_text())
    assert doc["m_pairs"] == 6
    assert doc["alpha"] == 0.05


def test_explain_artifacts(workspace, rf_archive):
    out_dir = workspace / "explain"
    rc = cli.main([
        "explain", "--corpus", str(workspace / "corpus.jsonl"),
        "--model-archive", str(rf_archive), "--out-dir", str(out_dir),
        "--perturbations", "120", "--seed", "0",
    ])
    assert rc == 0
    assert (out_dir / "explanations.json").exists()
    rules_text = (out_dir / "rules.txt").read_text()
    assert rules_text.startswith("if ") or rules_text.startswith("class=")
    assert "class=" in rules_text
    freq = (out_dir / "frequency.txt").read_text()
    assert freq.splitlines()[0].split() == ["Feature", "Goodware", "Malware"]
    summary = (out_dir / "lime_summary.txt").read_text()
    assert "malware" in summary


def test_ensemble_train_explain_and_archive_eval(workspace, tmp_path):
    corpus = str(workspace / "corpus.jsonl")
    model_path = tmp_path / "ensemble.json"
    assert cli.main([
        "train", "--corpus", corpus, "--model", "ensemble", "--length", "60",
        "--folds", "3", "--seed", "3", "--out", str(model_path), "--reproducible",
    ]) == 0
    doc = json.loads(model_path.read_text())
    assert doc["kind"] == "ensemble"
    assert {m["kind"] for m in doc["payload"]["members"].values()} == {
        "tree", "hist-rf", "linear", "lsm",
    }
    out_dir = tmp_path / "explain"
    assert cli.main([
        "explain", "--corpus", corpus, "--model-archive", str(model_path),
        "--out-dir", str(out_dir), "--what", "rules,frequency",
    ]) == 0
    assert "class=" in (out_dir / "rules.txt").read_text()
    assert cli.main([
        "eval", "--corpus", corpus, "--split", "sorted", "--length", "60",
        "--model-archive", str(model_path), "--out", str(tmp_path / "archived.json"),
    ]) == 0


def test_report_rendering(sorted_report, capsys):
    rc = cli.main(["report", "--report", str(sorted_report)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "caa" in out and "hist-rf" in out


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["definitely-not-a-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "--split", "sideways"])
    assert exc.value.code == 2


def _run_cli(*argv):
    """``python -m callsift`` in a subprocess that imports this callsift."""
    import callsift

    src = str(Path(callsift.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "callsift", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def test_python_dash_m_runs_the_cli():
    done = _run_cli("--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: callsift")


def test_data_errors_exit_one(tmp_path, capsys):
    rc = cli.main(["eval", "--corpus", str(tmp_path / "missing.jsonl"),
                   "--split", "sorted", "--out", str(tmp_path / "r.json")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "x", "observed_at": 0, "events": [[2,"A"],[1,"B"]]}\n')
    rc = cli.main(["eval", "--corpus", str(bad), "--split", "sorted",
                   "--out", str(tmp_path / "r.json")])
    assert rc == 1


@pytest.mark.parametrize("events", [
    "null", "3", "[[100000000000000000000000, \"A\"]]",
    pytest.param(NESTED_TOO_DEEP, id="nested-too-deep"),
    pytest.param(f'[[{"9" * 5000}, "A"]]', id="5000-digit-step"),
])
def test_malformed_events_exit_one_naming_the_line(tmp_path, capsys, events):
    corpus = tmp_path / "bad.jsonl"
    corpus.write_text(
        '{"id": "g", "label": "goodware", "observed_at": 0, "events": [[0, "A"]]}\n'
        f'{{"id": "m", "label": "malware", "observed_at": 1, "events": {events}}}\n'
    )
    rc = cli.main(["eval", "--corpus", str(corpus), "--split", "sorted",
                   "--out", str(tmp_path / "r.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "(line 2)" in err


def test_corpus_line_not_utf8_exits_one_naming_the_line(tmp_path, capsys):
    corpus = tmp_path / "bad.jsonl"
    corpus.write_bytes(
        b'{"id": "g", "label": "goodware", "observed_at": 0, "events": [[0, "A"]]}\n'
        b'{"id": "m", "label": "malware", "observed_at": 1, "events": [[0, "\xff"]]}\n'
    )
    rc = cli.main(["eval", "--corpus", str(corpus), "--split", "sorted",
                   "--out", str(tmp_path / "r.json")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: invalid UTF-8 (line 2): ")


@pytest.mark.parametrize("event", [
    pytest.param(f'[1, "B", "{"x" * 1_000_000}"]', id="long-field"),
    pytest.param("[" * 500 + "]" * 500, id="deep-event"),
])
def test_malformed_event_error_line_stays_short(tmp_path, capsys, event):
    corpus = tmp_path / "bad.jsonl"
    corpus.write_text(
        f'{{"id": "m", "label": "malware", "observed_at": 0, "events": [[0, "A"], {event}]}}\n'
    )
    rc = cli.main(["eval", "--corpus", str(corpus), "--split", "sorted",
                   "--out", str(tmp_path / "r.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: event must be [int_ms, str_name] (line 1): ")
    assert len(err.encode()) < 200


@pytest.fixture(scope="module")
def tree_archive(workspace):
    """A tree archive trained on the workspace corpus, whose root splits."""
    path = workspace / "tree.json"
    assert cli.main(["train", "--corpus", str(workspace / "corpus.jsonl"), "--model", "tree",
                     "--length", "100", "--seed", "3", "--reproducible",
                     "--out", str(path)]) == 0
    assert json.loads(path.read_text())["payload"]["feature"][0] != -1
    return path


def _tamper_tree(tree, how):
    if how == "cycle":
        tree["left"][0] = 0
    elif how == "float-features":
        tree["feature"] = [float(f) for f in tree["feature"]]
    elif how == "child-out-of-range":
        tree["right"][0] = len(tree["feature"])
    elif how == "feature-out-of-range":
        tree["feature"][0] = tree["n_features"]
    elif how == "class-counts-shape":
        tree["class_counts"] = [row[:1] for row in tree["class_counts"]]
    elif how == "negative-class-counts":
        # the leaf scores would leave [0, 1]: 3 / (-2 + 3) = 3
        tree["class_counts"] = [[-2.0, 3.0] for _ in tree["class_counts"]]
    elif how == "nan-class-counts":
        tree["class_counts"][-1] = [float("nan"), 1.0]


@pytest.mark.parametrize("how", ["cycle", "float-features", "child-out-of-range",
                                 "feature-out-of-range", "class-counts-shape",
                                 "negative-class-counts", "nan-class-counts"])
def test_tampered_tree_archive_exits_one(workspace, tree_archive, tmp_path, how):
    """In a subprocess with a timeout, because a tree whose child points back
    up would make ``eval`` loop for ever."""
    doc = json.loads(tree_archive.read_text())
    _tamper_tree(doc["payload"], how)
    doc["payload_sha256"] = persistence.config_hash(doc["payload"])
    archive = tmp_path / "tampered.json"
    archive.write_text(json.dumps(doc))
    done = _run_cli("eval", "--corpus", str(workspace / "corpus.jsonl"), "--split", "sorted",
                    "--model-archive", str(archive), "--out", str(tmp_path / "r.json"))
    assert done.returncode == 1
    assert done.stderr.startswith("error: "), done.stderr
    assert not (tmp_path / "r.json").exists()


def test_non_object_archive_exits_one(workspace, tmp_path, capsys):
    archive = tmp_path / "list.json"
    corpus = str(workspace / "corpus.jsonl")
    for text, message in (("[]\n", "JSON object"),
                          (NESTED_TOO_DEEP, "list.json nests deeper than the JSON decoder allows"),
                          (f"[{'9' * 5000}]", "list.json is not valid JSON")):
        archive.write_text(text)
        for argv in (
            ["eval", "--corpus", corpus, "--split", "sorted", "--model-archive",
             str(archive), "--out", str(tmp_path / "r.json")],
            ["explain", "--corpus", corpus, "--model-archive", str(archive),
             "--out-dir", str(tmp_path / "explain")],
        ):
            assert cli.main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and message in err


@pytest.mark.parametrize(
    "flag, value, message",
    [("--perturbations", "0", "perturbations"), ("--top-k", "-2", "top_k")],
)
def test_explain_rejects_out_of_range_lime_settings(workspace, tmp_path, capsys,
                                                    flag, value, message):
    corpus = str(workspace / "corpus.jsonl")
    archive = str(tmp_path / "tree.json")
    assert cli.main(["train", "--corpus", corpus, "--model", "tree",
                     "--out", archive]) == 0
    capsys.readouterr()
    rc = cli.main(["explain", "--corpus", corpus, "--model-archive", archive,
                   "--out-dir", str(tmp_path / "explain"), "--what", "lime",
                   flag, value])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("argv, message", [
    (["train", "--model", "lsm", "--folds", "1"], "LSM readout folds must be >= 2, got 1"),
    (["eval", "--split", "distributed", "--test-malware", "-1"],
     "test malware target must be >= 0, got -1"),
    (["eval", "--split", "sorted", "--train-counts=-3,5"],
     "goodware train count must be >= 0, got -3"),
], ids=["train-folds", "eval-test-malware", "eval-train-counts"])
def test_out_of_range_counts_exit_one_naming_the_value(workspace, tmp_path, capsys,
                                                        argv, message):
    out = tmp_path / "out.json"
    rc = cli.main(argv + ["--corpus", str(workspace / "corpus.jsonl"), "--out", str(out)]
                  + (["--models", "tree"] if argv[0] == "eval" else []))
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_explain_checks_its_arguments_before_any_work(workspace, rf_archive, tmp_path,
                                                      capsys, monkeypatch):
    corpus = str(workspace / "corpus.jsonl")
    traces = read_corpus(corpus)
    labels = np.array([t.label == MALWARE for t in traces], dtype=np.int64)
    ensemble = models.VotingEnsembleClassifier(
        {"tree": models.HistogramClassifier("tree").fit(traces, labels)}
    )
    archive = tmp_path / "ensemble.json"
    persistence.save_model(ensemble, archive)

    def refuse(self, traces):
        raise AssertionError("explain predicted before checking --what")

    monkeypatch.setattr(models.VotingEnsembleClassifier, "predict", refuse)
    out_dir = tmp_path / "explain"
    for model_archive, extra, message in (
        (archive, [], "model kind 'ensemble' does not expose a histogram scoring surface"),
        (rf_archive, ["--what", "lime,bogus"], "unknown explain targets: ['bogus']"),
    ):
        rc = cli.main(["explain", "--corpus", corpus, "--model-archive", str(model_archive),
                       "--out-dir", str(out_dir), *extra])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_dir.exists()


def test_unknown_model_kind_message(workspace, capsys):
    rc = cli.main([
        "eval", "--corpus", str(workspace / "corpus.jsonl"), "--split", "sorted",
        "--models", "tree,quantum", "--out", str(workspace / "x.json"),
    ])
    assert rc == 1
    assert "quantum" in capsys.readouterr().err


def _break_report(doc, how):
    tree = doc["models"]["tree"]
    if how == "list":  # a list of reports is a sweep file; a list of lists is not
        return [[doc]]
    if how == "empty-list":
        return []
    if how == "nested-too-deep":
        return NESTED_TOO_DEEP
    if how == "string-n-test":
        tree["n_test"] = str(tree["n_test"])
    elif how == "n-test-past-bitmap":
        tree["confusion"]["tn"] += 500 - tree["n_test"]
        tree["n_test"] = 500
    elif how == "n-test-past-confusion":
        tree["n_test"] += 1
    elif how == "unknown-key":
        doc["notes"] = "hand edited"
    elif how == "format-version-2":
        doc["format_version"] = 2
    elif how == "hand-edited-acc":
        tree["metrics"]["acc"] = 0.1
    elif how == "spliced-model":
        # a model scored on another split's 3 test traces
        spliced = model_results({"linear": np.array([1, 0, 1])}, np.array([1, 0, 0]))
        doc["models"]["linear"] = persistence.encode(spliced["linear"])
    return doc


@pytest.mark.parametrize("command", ["stats", "report"])
@pytest.mark.parametrize("how, message", [
    ("list", "EvaluationReport payload has fields list"),
    ("empty-list", "EvaluationReport payload has fields list"),
    ("string-n-test", "ModelResult.n_test: int payload is a str"),
    ("n-test-past-bitmap", "n_test 500 needs 63"),
    ("n-test-past-confusion", "confusion counts total"),
    ("unknown-key", "'notes'"),
    ("format-version-2", "unsupported report format_version 2"),
    ("hand-edited-acc", "model tree: metrics MetricSet(acc=0.1,"),
    ("spliced-model", "different numbers of samples: ensemble 16, hist-rf 16, linear 3, tree 16"),
    ("nested-too-deep", "bad.json nests deeper than the JSON decoder allows"),
])
def test_malformed_report_exits_one(sorted_report, tmp_path, capsys, command, how, message):
    bad = tmp_path / "bad.json"
    doc = _break_report(json.loads(sorted_report.read_text()), how)
    bad.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    argv = [command, "--report", str(bad)]
    if command == "stats":
        argv += ["--out", str(tmp_path / "sig.json")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "sig.json").exists()


def test_every_output_path_gets_its_parent(workspace, tmp_path):
    corpus = str(workspace / "corpus.jsonl")
    assert cli.main([
        "eval", "--corpus", corpus, "--split", "sorted", "--models", "tree",
        "--length", "60", "--out", str(tmp_path / "a" / "r.json"),
        "--csv", str(tmp_path / "b" / "c" / "r.csv"),
    ]) == 0
    assert (tmp_path / "b" / "c" / "r.csv").read_text().startswith("model,")
    assert cli.main([
        "train", "--corpus", corpus, "--model", "tree", "--length", "60",
        "--out", str(tmp_path / "d" / "e" / "tree.json"),
    ]) == 0
    assert persistence.load_model(tmp_path / "d" / "e" / "tree.json").kind == "tree"


def test_ensemble_lsm_member_honours_folds(tmp_path):
    # weakly separated, so the readout's cross-validation losses depend on the folds
    config = datagen.make_config(
        seed=5, goodware_count=40, malware_count=40,
        profiles=datagen.default_profiles(separation=0.3, length_min=40, length_max=80),
        drift=datagen.DriftSchedule(0.2),
    )
    write_corpus(datagen.generate_corpus(config), tmp_path / "corpus.jsonl")
    payloads = {}
    for model, folds in (("ensemble", "3"), ("lsm", "3"), ("lsm", "10")):
        out = tmp_path / f"{model}-{folds}.json"
        assert cli.main([
            "train", "--corpus", str(tmp_path / "corpus.jsonl"), "--model", model,
            "--length", "60", "--folds", folds, "--reproducible", "--out", str(out),
        ]) == 0
        payloads[model, folds] = json.loads(out.read_text())["payload"]
    member = payloads["ensemble", "3"]["members"]["lsm"]["payload"]
    assert member == payloads["lsm", "3"]
    assert member["readout"]["search_log"] != payloads["lsm", "10"]["readout"]["search_log"]


def test_pipeline_stage_hashes_equal_the_commands_run_alone(tmp_path):
    out = tmp_path / "pipeline"
    assert cli.main([
        "pipeline", "--out-dir", str(out), "--scale", "0.01", "--folds", "3",
        "--perturbations", "4", "--no-with-lsm", "--reproducible", "--seed", "13",
    ]) == 0
    corpus = str(out / "corpus.jsonl")
    counts = "{},{}".format(*(
        datagen.scale_count(datagen.SORTED_SHAPE["train"][c], 0.01)
        for c in (GOODWARE, MALWARE)
    ))
    common = ["--corpus", corpus, "--seed", "13", "--out", str(tmp_path / "x.json")]
    evals = ["eval", "--models", "tree,hist-rf,linear,ensemble", "--folds", "3", *common]
    alone = {
        "report_sorted.json": evals + ["--split", "sorted", "--train-counts", counts],
        "report_cv.json": evals + ["--split", "cv"],
        "report_distributed.json": evals + [
            "--split", "distributed", "--train-counts", counts,
            "--test-malware", str(datagen.scale_count(45, 0.01)),
        ],
        "model_hist-rf.json": ["train", "--model", "hist-rf", "--train-counts", counts,
                               *common],
    }
    parser = cli.build_parser()
    for artifact, argv in alone.items():
        doc = json.loads((out / artifact).read_text())
        got = doc["provenance"]["config_hash"] if "provenance" in doc else doc["config_hash"]
        assert got == cli._run_config_hash(parser.parse_args(argv), argv[0]), artifact
