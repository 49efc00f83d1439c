"""Command-line surface.

Subcommands:

* gen       — generate a synthetic labeled corpus from a config JSON
* train     — train one model on the training side of a split, save archive
* eval      — train + evaluate models under a split regime, emit a report
* sweep     — sequence-length sweep (retrains per length), emit CSV/JSON
* stats     — significance matrix from a report's correctness vectors
* explain   — local explanations, rules, and call-frequency tables
* report    — render a report JSON as human-readable text
* pipeline  — gen + eval on all three splits + stats + explain in one run

Every stochastic choice descends from --seed (or the seed embedded in the
config), artifacts embed the hash of the configuration that produced them,
and --reproducible drops wall-clock timestamps so repeated runs are
byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, datagen, evaluation, explain, forest, models, persistence
from . import significance as sig
from .traces import GOODWARE, MALWARE, read_corpus, write_corpus


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _write_json(doc, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _now(reproducible: bool) -> str | None:
    if reproducible:
        return None
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _parse_models(spec: str) -> tuple[list[str], bool]:
    names = [m.strip() for m in spec.split(",") if m.strip()]
    want_ensemble = "ensemble" in names
    base = [m for m in names if m != "ensemble"]
    for name in base:
        if name not in models.BASE_KINDS:
            raise ValueError(f"unknown model kind {name!r}")
    if want_ensemble and len(base) < 2:
        raise ValueError("ensemble needs at least two base models")
    if not base:
        raise ValueError("no models requested")
    return base, want_ensemble


def _factories(base: list[str], args, truncation: int) -> dict:
    encoding = models.EncodingOptions(
        truncation=truncation, normalize=not args.raw_counts
    )
    out = {}
    for kind in base:
        def factory(seed, kind=kind):
            kwargs = {}
            if kind == models.LSM:
                kwargs["folds"] = args.folds
            return models.make_classifier(kind, seed=seed, encoding=encoding, **kwargs)
        out[kind] = factory
    return out


def _split_train_counts(value: str | None) -> dict | None:
    if value is None:
        return None
    try:
        g, m = (int(v) for v in value.split(","))
    except ValueError as exc:
        raise ValueError("--train-counts expects 'goodware,malware' integers") from exc
    return {GOODWARE: g, MALWARE: m}


_PATH_ARGS = {
    "func", "out", "csv", "corpus", "config", "model_archive", "out_dir",
    "report", "report_json", "reproducible",
}


def _run_config_hash(args, command: str) -> str:
    """Hash of the semantic run parameters (paths excluded, so moving the
    artifacts does not change their identity)."""
    doc = {k: v for k, v in sorted(vars(args).items()) if k not in _PATH_ARGS}
    doc["command"] = command
    return persistence.config_hash(doc)


# --- subcommand implementations -----------------------------------------------


def _generate(config: datagen.CorpusConfig, out: Path, reproducible: bool) -> int:
    """Write the config's corpus to ``out`` and its ``<out>.meta.json``
    sidecar (the hash of the config's codec form); return the trace count."""
    corpus = datagen.generate_corpus(config)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_corpus(corpus, out)
    meta = {
        "config_hash": persistence.config_hash(persistence.encode(config)),
        "seed": config.seed,
        "traces": len(corpus),
        "created_at": _now(reproducible),
    }
    _write_json(meta, Path(str(out) + ".meta.json"))
    return len(corpus)


def cmd_gen(args) -> int:
    doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
    config = persistence.decode(datagen.CorpusConfig, doc)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    out = Path(args.out)
    print(f"wrote {_generate(config, out, args.reproducible)} traces to {out}")
    return 0


def _load_dataset(path) -> evaluation.LabeledDataset:
    return evaluation.LabeledDataset.from_traces(read_corpus(path))


def cmd_train(args) -> int:
    dataset = _load_dataset(args.corpus)
    if args.full:
        train = dataset
    else:
        train, _ = evaluation.split_sorted(
            dataset,
            train_fraction=None if args.train_counts else args.train_fraction,
            train_counts=_split_train_counts(args.train_counts),
        )
    clf = _factories([args.model], args, args.length)[args.model](args.seed)
    clf.fit(train.samples, train.labels)
    persistence.save_model(
        clf,
        args.out,
        seed=args.seed,
        config_digest=_run_config_hash(args, "train"),
        created_at=_now(args.reproducible),
    )
    print(f"trained {args.model} on {len(train)} traces -> {args.out}")
    return 0


def _eval_descriptor(args) -> dict:
    desc = {"kind": args.split}
    if args.split == "cv":
        desc["folds"] = args.folds
    else:
        if args.train_counts:
            desc["train_counts"] = args.train_counts
        else:
            desc["train_fraction"] = args.train_fraction
    if args.split == "distributed":
        desc["test_malware"] = args.test_malware
    return desc


def cmd_eval(args) -> int:
    dataset = _load_dataset(args.corpus)
    train_counts = _split_train_counts(args.train_counts)
    train_fraction = None if train_counts else args.train_fraction
    if args.split == "cv" and args.model_archive:
        return _fail("--model-archive cannot be evaluated under cv (needs retraining per fold)")
    if args.split == "sorted":
        train, test = evaluation.split_sorted(dataset, train_fraction, train_counts)
    elif args.split == "distributed":
        train, test = evaluation.split_distributed(
            dataset, args.test_malware, train_fraction, train_counts, seed=args.seed
        )

    if args.model_archive:
        pred, _ = persistence.load_model(args.model_archive).predict(test.samples)
        report = evaluation.EvaluationReport(
            split=_eval_descriptor(args), seed=args.seed,
            models=evaluation.model_results({"archived": pred}, test.labels),
        )
    else:
        base, want_ensemble = _parse_models(args.models)
        factories = _factories(base, args, args.length)
        ensemble_name = "ensemble" if want_ensemble else None
        if args.split == "cv":
            report = evaluation.evaluate_cv(
                dataset, factories, k=args.folds, seed=args.seed,
                ensemble_name=ensemble_name,
            )
        else:
            report = evaluation.evaluate_split(
                train, test, factories, seed=args.seed,
                split_descriptor=_eval_descriptor(args), ensemble_name=ensemble_name,
            )
    report.length = args.length
    report.config_hash = _run_config_hash(args, "eval")
    _write_json(report.to_json_dict(), Path(args.out))
    if args.csv:
        Path(args.csv).write_text(
            evaluation.rows_to_csv(report.csv_rows()), encoding="utf-8"
        )
    for name, res in report.models.items():
        m = res.metrics
        print(
            f"{name}: acc={m.acc:.4f} caa={m.caa:.4f} mpr={m.mpr:.4f} mre={m.mre:.4f}"
        )
    return 0


def cmd_sweep(args) -> int:
    dataset = _load_dataset(args.corpus)
    base, want_ensemble = _parse_models(args.models)
    lengths = [int(v) for v in args.lengths.split(",")]
    # the sweep truncates every trace itself; the encoders must not cut further
    factories = _factories(base, args, max(lengths))
    reports = evaluation.sweep_sequence_length(
        dataset, factories, lengths, train_fraction=args.train_fraction,
        seed=args.seed, ensemble_name="ensemble" if want_ensemble else None,
    )
    rows = []
    for report in reports:
        report.config_hash = _run_config_hash(args, "sweep")
        rows.extend(report.csv_rows())
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(evaluation.rows_to_csv(rows), encoding="utf-8")
    if args.report_json:
        _write_json([r.to_json_dict() for r in reports], Path(args.report_json))
    for row in rows:
        print(f"length={row['length']} {row['model']}: caa={row['caa']:.4f}")
    return 0


def cmd_stats(args) -> int:
    doc = json.loads(Path(args.report).read_text(encoding="utf-8"))
    report = evaluation.EvaluationReport.from_json_dict(doc)
    if len(report.models) < 2:
        return _fail("significance testing needs at least two models in the report")
    bits, names = report.correctness_matrix()
    matrix = sig.pairwise_significance(bits, names, alpha=args.alpha)
    _write_json(matrix.to_json_dict(), Path(args.out))
    print(sig.render_significance_table(matrix))
    return 0


def cmd_explain(args) -> int:
    dataset = _load_dataset(args.corpus)
    clf = persistence.load_model(args.model_archive)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    what = set(args.what.split(","))
    unknown = what - {"lime", "rules", "frequency"}
    if unknown:
        return _fail(f"unknown explain targets: {sorted(unknown)}")

    vocab = clf.vocab
    names = list(vocab.names) + ["<other>"]
    hists = models.encode_histograms(dataset.samples, vocab, clf.encoding)
    if isinstance(clf, models.HistogramClassifier):
        # its predict would encode these same histograms again
        pred = (clf.score_histograms(hists) >= 0.5).astype(np.int64)
    else:
        pred, _ = clf.predict(dataset.samples)

    if "lime" in what:
        if clf.kind == models.LSM:
            scorer = explain.LsmHistogramScorer(clf)
        elif hasattr(clf, "score_histograms"):
            scorer = clf
        else:
            return _fail(f"model kind does not expose a histogram scoring surface")
        config = explain.LimeConfig(
            feature_means=hists.mean(axis=0),
            perturbations=args.perturbations,
            seed=args.seed,
            top_k=args.top_k,
        )
        explanations = explain.lime_explain_batch(scorer, hists, config, dataset.ids)
        doc = [
            {
                "sample_id": e.sample_id,
                "fidelity": e.fidelity,
                "top": [[names[i], w] for i, w in e.top],
                "notes": list(e.notes),
            }
            for e in explanations
        ]
        _write_json(doc, out_dir / "explanations.json")
        chart_lines = []
        for group in (explain.CORRECT_MALWARE, explain.MISCLASSIFIED_MALWARE):
            members = explain.group_explanations(explanations, pred, dataset.labels, group)
            if not members:
                chart_lines.append(f"[{group}] empty group")
                continue
            summary = explain.summarize_explanations(members, group, top_k=args.top_k)
            chart_lines.append(explain.render_summary(summary, names))
        (out_dir / "lime_summary.txt").write_text(
            "\n\n".join(chart_lines) + "\n", encoding="utf-8"
        )

    if "rules" in what:
        tree = _rules_tree(clf, hists, pred, args.seed)
        rules = explain.extract_rules(tree, names)
        (out_dir / "rules.txt").write_text(
            explain.render_rules(rules) + "\n", encoding="utf-8"
        )

    if "frequency" in what:
        features = _frequency_features(clf, vocab, args.top_k)
        marks = explain.class_frequency_marks(dataset.samples, features, vocab)
        (out_dir / "frequency.txt").write_text(
            explain.render_frequency_table(marks) + "\n", encoding="utf-8"
        )
    print(f"explanation artifacts in {out_dir}")
    return 0


def _rules_tree(clf, hists: np.ndarray, pred: np.ndarray, seed: int):
    """Rules come from the model itself when it is a tree, otherwise from a
    shallow surrogate tree fit to the model's own predictions."""
    if clf.kind == models.TREE:
        return clf.model
    params = forest.TreeParams(max_depth=5, min_samples_leaf=5, seed=seed)
    return forest.train_decision_tree(hists, pred, params)


def _frequency_features(clf, vocab, top_k: int) -> list[str]:
    names = list(vocab.names) + ["<other>"]
    if clf.kind in (models.HIST_RF, models.TREE):
        importance = forest.gini_importance(clf.model)
        order = np.argsort(-importance, kind="stable")[: max(top_k, 20)]
        return [names[i] for i in order if names[i] != "<other>"]
    return list(vocab.names)[: max(top_k, 20)]


def cmd_report(args) -> int:
    doc = json.loads(Path(args.report).read_text(encoding="utf-8"))
    report = evaluation.EvaluationReport.from_json_dict(doc)
    print(f"split: {json.dumps(report.split, sort_keys=True)}")
    print(f"seed: {report.seed}   length: {report.length}")
    header = f"{'model':<12} {'acc':>8} {'caa':>8} {'mpr':>8} {'mre':>8}   tp/fp/tn/fn"
    print(header)
    print("-" * len(header))
    for name, res in report.models.items():
        m, c = res.metrics, res.confusion
        print(
            f"{name:<12} {m.acc:8.4f} {m.caa:8.4f} {m.mpr:8.4f} {m.mre:8.4f}"
            f"   {c.tp}/{c.fp}/{c.tn}/{c.fn}"
        )
    return 0


def cmd_pipeline(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    profiles = datagen.default_profiles(separation=args.separation)
    config = datagen.table1_shape(
        "sorted", scale=args.scale, seed=args.seed, profiles=profiles,
        drift=datagen.DriftSchedule(args.drift),
    )
    corpus_path = out_dir / "corpus.jsonl"
    _generate(config, corpus_path, args.reproducible)

    model_spec = "tree,hist-rf,linear,lsm,ensemble" if args.with_lsm else "tree,hist-rf,linear,ensemble"
    scaled = {
        GOODWARE: datagen.scale_count(datagen.SORTED_SHAPE["train"][GOODWARE], args.scale),
        MALWARE: datagen.scale_count(datagen.SORTED_SHAPE["train"][MALWARE], args.scale),
    }
    test_malware = datagen.scale_count(45, args.scale)

    base_eval = [
        "eval", "--corpus", str(corpus_path), "--models", model_spec,
        "--seed", str(args.seed), "--length", str(args.length),
        "--folds", str(args.folds),
        "--train-counts", f"{scaled[GOODWARE]},{scaled[MALWARE]}",
    ]
    rc = main(base_eval + ["--split", "sorted",
                           "--out", str(out_dir / "report_sorted.json"),
                           "--csv", str(out_dir / "report_sorted.csv")])
    if rc:
        return rc
    rc = main([
        "eval", "--corpus", str(corpus_path), "--models", model_spec,
        "--seed", str(args.seed), "--length", str(args.length),
        "--folds", str(args.folds), "--split", "cv",
        "--out", str(out_dir / "report_cv.json"),
        "--csv", str(out_dir / "report_cv.csv"),
    ])
    if rc:
        return rc
    rc = main(base_eval + ["--split", "distributed",
                           "--test-malware", str(test_malware),
                           "--out", str(out_dir / "report_distributed.json"),
                           "--csv", str(out_dir / "report_distributed.csv")])
    if rc:
        return rc
    rc = main([
        "stats", "--report", str(out_dir / "report_sorted.json"),
        "--alpha", str(args.alpha), "--out", str(out_dir / "significance.json"),
    ])
    if rc:
        return rc
    rc = main([
        "train", "--corpus", str(corpus_path), "--model", "hist-rf",
        "--seed", str(args.seed), "--length", str(args.length),
        "--train-counts", f"{scaled[GOODWARE]},{scaled[MALWARE]}",
        "--out", str(out_dir / "model_hist-rf.json"),
    ] + (["--reproducible"] if args.reproducible else []))
    if rc:
        return rc
    rc = main([
        "explain", "--corpus", str(corpus_path),
        "--model-archive", str(out_dir / "model_hist-rf.json"),
        "--out-dir", str(out_dir / "explain"),
        "--seed", str(args.seed), "--perturbations", str(args.perturbations),
    ])
    if rc:
        return rc
    print(f"pipeline artifacts in {out_dir}")
    return 0


# --- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="callsift",
        description="Detect and characterize malware from system-call traces.",
    )
    parser.add_argument("--version", action="version", version=f"callsift {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common_eval(p, length_and_counts=True):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--raw-counts", action="store_true",
                       help="use raw histogram counts instead of frequencies")
        p.add_argument("--folds", type=int, default=10)
        p.add_argument("--train-fraction", type=float, default=0.8)
        if not length_and_counts:  # sweep sets both itself
            return
        p.add_argument("--length", type=int, default=models.DEFAULT_TRUNCATION,
                       help="truncate traces to the first N calls")
        p.add_argument("--train-counts", default=None,
                       help="explicit per-class train counts 'goodware,malware'")

    p = sub.add_parser("gen", help="generate a synthetic corpus")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--reproducible", action="store_true")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train one model and save an archive")
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", required=True, choices=models.MODEL_KINDS)
    p.add_argument("--out", required=True)
    p.add_argument("--full", action="store_true", help="train on the whole corpus")
    p.add_argument("--reproducible", action="store_true")
    add_common_eval(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="train and evaluate models under a split")
    p.add_argument("--corpus", required=True)
    p.add_argument("--split", required=True, choices=("sorted", "cv", "distributed"))
    p.add_argument("--models", default="tree,hist-rf,linear",
                   help="comma list from {tree,hist-rf,linear,lsm,ensemble}")
    p.add_argument("--model-archive", default=None,
                   help="evaluate a saved archive instead of retraining")
    p.add_argument("--test-malware", type=int, default=45,
                   help="down-select target for the distributed split")
    p.add_argument("--out", required=True)
    p.add_argument("--csv", default=None)
    add_common_eval(p)
    p.set_defaults(func=cmd_eval)

    # no abbreviations: --length would silently mean --lengths
    p = sub.add_parser("sweep", help="sequence-length sweep", allow_abbrev=False)
    p.add_argument("--corpus", required=True)
    p.add_argument("--models", default="hist-rf")
    p.add_argument("--lengths", default=",".join(str(n) for n in evaluation.DEFAULT_SWEEP_LENGTHS))
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--report-json", default=None)
    add_common_eval(p, length_and_counts=False)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("stats", help="significance matrix from a report")
    p.add_argument("--report", required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("explain", help="explanations, rules, frequency tables")
    p.add_argument("--corpus", required=True)
    p.add_argument("--model-archive", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--what", default="lime,rules,frequency")
    p.add_argument("--top-k", type=int, default=15)
    p.add_argument("--perturbations", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("report", help="render a report as text")
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("pipeline", help="full protocol on a fresh synthetic corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=13)
    p.add_argument("--scale", type=float, default=0.01)
    p.add_argument("--drift", type=float, default=0.3)
    p.add_argument("--separation", type=float, default=2.0)
    p.add_argument("--length", type=int, default=models.DEFAULT_TRUNCATION)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--perturbations", type=int, default=300)
    p.add_argument("--with-lsm", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--reproducible", action="store_true")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
