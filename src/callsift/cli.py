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
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, datagen, evaluation, explain, forest, models, persistence
from . import significance as sig
from .traces import GOODWARE, MALWARE, encode_histogram, labels_of, read_corpus, write_corpus


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _write_text(text: str, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _read_reports(path) -> tuple[list[evaluation.EvaluationReport], bool]:
    """A file's reports, and whether it holds a list (as ``sweep --report-json`` writes)."""
    doc = persistence.read_json(path)
    many = isinstance(doc, list) and len(doc) > 0  # an empty list holds no report
    return persistence.decode(list[evaluation.EvaluationReport], doc if many else [doc]), many


def _now(reproducible: bool) -> str | None:
    if reproducible:
        return None
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _parse_models(spec: str) -> tuple[list[str], bool]:
    names = [m.strip() for m in spec.split(",") if m.strip()]
    repeated = sorted({m for m in names if names.count(m) > 1})
    if repeated:
        raise ValueError(f"model kinds requested more than once: {', '.join(repeated)}")
    want_ensemble = evaluation.ENSEMBLE in names
    base = [m for m in names if m != evaluation.ENSEMBLE]
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
    return {
        kind: functools.partial(
            models.make_classifier, kind, encoding=encoding, folds=args.folds
        )
        for kind in base
    }


def _sorted_split(args) -> tuple[float | None, dict | None]:
    """``split_sorted``'s (train_fraction, train_counts) from ``--train-fraction``
    and ``--train-counts``; explicit counts win."""
    if args.train_counts is None:
        return args.train_fraction, None
    try:
        g, m = (int(v) for v in args.train_counts.split(","))
    except ValueError as exc:
        raise ValueError("--train-counts expects 'goodware,malware' integers") from exc
    return None, {GOODWARE: g, MALWARE: m}


# the distributed split's test malware at full scale: ``eval``'s down-select
# target unless --test-malware is given
FULL_SCALE_TEST_MALWARE = datagen.DISTRIBUTED_SHAPE["test"][MALWARE]
# the models ``eval`` trains unless --models is given
EVAL_MODELS = "tree,hist-rf,linear"

_PATH_ARGS = {
    "func", "out", "csv", "corpus", "config", "model_archive", "out_dir",
    "report", "report_json", "reproducible",
}


def _run_config_hash(args, command: str) -> str:
    """Hash of the semantic run parameters (paths excluded, so moving the
    artifacts does not change their identity)."""
    doc = {k: v for k, v in sorted(vars(args).items()) if k not in _PATH_ARGS}
    if "test_malware" in doc and doc["test_malware"] is None:
        # an unset --test-malware hashes as the target it stands for, so a
        # command's hash does not depend on the corpus it reads
        doc["test_malware"] = FULL_SCALE_TEST_MALWARE
    if "models" in doc and doc["models"] is None:
        doc["models"] = EVAL_MODELS  # likewise an unset eval --models
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
    persistence.write_json(meta, str(out) + ".meta.json")
    return len(corpus)


def cmd_gen(args) -> int:
    config = persistence.decode(datagen.CorpusConfig, persistence.read_json(args.config))
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    out = Path(args.out)
    print(f"wrote {_generate(config, out, args.reproducible)} traces to {out}")
    return 0


def _load_dataset(path) -> evaluation.LabeledDataset:
    return evaluation.LabeledDataset(read_corpus(path))


def cmd_train(args) -> int:
    dataset = _load_dataset(args.corpus)
    if args.full:
        train = dataset
    else:
        train, _ = evaluation.split_sorted(dataset, *_sorted_split(args))
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
    if args.train_counts:
        desc["train_counts"] = args.train_counts
    else:
        desc["train_fraction"] = args.train_fraction
    return desc


def cmd_eval(args) -> int:
    if args.model_archive and args.models is not None:
        return _fail("--models cannot be given with --model-archive (the archive is the model)")
    if args.split == "cv" and args.model_archive:
        return _fail("--model-archive cannot be evaluated under cv (needs retraining per fold)")
    dataset = _load_dataset(args.corpus)
    train_fraction, train_counts = _sorted_split(args)
    split = _eval_descriptor(args)
    if args.split == "sorted":
        train, test = evaluation.split_sorted(dataset, train_fraction, train_counts)
    elif args.split == "distributed":
        test_malware = args.test_malware
        if test_malware is None:
            # the full-scale target, or every test malware of the temporal split if fewer
            _, test = evaluation.split_sorted(dataset, train_fraction, train_counts)
            test_malware = min(FULL_SCALE_TEST_MALWARE, int(test.labels.sum()))
        split["test_malware"] = test_malware
        train, test = evaluation.split_distributed(
            dataset, test_malware, train_fraction, train_counts, seed=args.seed
        )

    if args.model_archive:
        pred, _ = persistence.load_model(args.model_archive).predict(test.samples)
        report = evaluation.EvaluationReport(
            split=split, seed=args.seed,
            models=evaluation.model_results({"archived": pred}, test.labels),
        )
    else:
        base, want_ensemble = _parse_models(EVAL_MODELS if args.models is None else args.models)
        factories = _factories(base, args, args.length)
        if args.split == "cv":
            report = evaluation.evaluate_cv(
                dataset, factories, k=args.folds, seed=args.seed, ensemble=want_ensemble,
            )
        else:
            report = evaluation.evaluate_split(
                train, test, factories, seed=args.seed,
                split_descriptor=split, ensemble=want_ensemble,
            )
    report.length = args.length
    report.config_hash = _run_config_hash(args, "eval")
    persistence.write_json(persistence.encode(report), args.out)
    if args.csv:
        _write_text(evaluation.rows_to_csv(report.csv_rows()), args.csv)
    for name, res in report.models.items():
        m = res.metrics
        print(
            f"{name}: acc={m.acc:.4f} caa={m.caa:.4f} mpr={m.mpr:.4f} mre={m.mre:.4f}"
        )
    return 0


def cmd_sweep(args) -> int:
    lengths = []
    for item in args.lengths.split(","):
        try:
            lengths.append(int(item))
        except ValueError as exc:
            raise ValueError(f"--lengths expects comma-separated integers, got {item!r}") from exc
    dataset = _load_dataset(args.corpus)
    base, want_ensemble = _parse_models(args.models)
    reports = evaluation.sweep_sequence_length(
        dataset, functools.partial(_factories, base, args), lengths,
        train_fraction=args.train_fraction, seed=args.seed, ensemble=want_ensemble,
    )
    rows = []
    for report in reports:
        report.config_hash = _run_config_hash(args, "sweep")
        rows.extend(report.csv_rows())
    _write_text(evaluation.rows_to_csv(rows), args.out)
    if args.report_json:
        persistence.write_json(persistence.encode(reports), args.report_json)
    for row in rows:
        print(f"length={row['length']} {row['model']}: caa={row['caa']:.4f}")
    return 0


def cmd_stats(args) -> int:
    """A significance matrix per report; a list of reports gets a list, in order."""
    reports, many = _read_reports(args.report)
    if any(len(report.models) < 2 for report in reports):
        return _fail("significance testing needs at least two models in the report")
    matrices = [sig.pairwise_significance(*r.correctness_matrix(), alpha=args.alpha)
                for r in reports]
    persistence.write_json(persistence.encode(matrices if many else matrices[0]), args.out)
    for i, (report, matrix) in enumerate(zip(reports, matrices)):
        if many:
            print(("\n" if i else "") + f"length: {report.length}")
        print(sig.render_significance_table(matrix))
    return 0


def cmd_explain(args) -> int:
    what = set(args.what.split(","))
    unknown = what - {"lime", "rules", "frequency"}
    if unknown:
        return _fail(f"unknown explain targets: {sorted(unknown)}")
    clf = persistence.load_model(args.model_archive)
    if clf.kind in models.HISTOGRAM_KINDS:
        scorer = clf
    else:
        scorer = explain.LsmHistogramScorer(clf) if clf.kind == models.LSM else None
    if "lime" in what and scorer is None:
        return _fail(f"model kind {clf.kind!r} does not expose a histogram scoring surface")

    # every artifact writer creates out_dir, so a failed check leaves none behind
    out_dir = Path(args.out_dir)
    dataset = _load_dataset(args.corpus)
    vocab = clf.vocab
    names = list(vocab.names) + ["<other>"]  # the last is the OOV slot
    hists = encode_histogram(dataset.samples, vocab, clf.encoding.normalize,
                             clf.encoding.truncation)
    if scorer is clf:
        # its predict would encode these same histograms again
        pred = labels_of(clf.score_histograms(hists))
    else:
        pred, _ = clf.predict(dataset.samples)

    if "lime" in what:
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
                "top": e.top_features(names),
                "notes": list(e.notes),
            }
            for e in explanations
        ]
        persistence.write_json(doc, out_dir / "explanations.json")
        chart_lines = []
        for group in (explain.CORRECT_MALWARE, explain.MISCLASSIFIED_MALWARE):
            members = explain.group_explanations(explanations, pred, dataset.labels, group)
            if not members:
                chart_lines.append(f"[{group}] empty group")
                continue
            summary = explain.summarize_explanations(members, group, top_k=args.top_k)
            chart_lines.append(explain.render_summary(summary, names))
        _write_text("\n\n".join(chart_lines) + "\n", out_dir / "lime_summary.txt")

    if "rules" in what:
        tree = _rules_tree(clf, hists, pred, args.seed)
        rules = explain.extract_rules(tree, names)
        _write_text(explain.render_rules(rules) + "\n", out_dir / "rules.txt")

    if "frequency" in what:
        features = _frequency_features(clf, names, args.top_k)
        marks = explain.class_frequency_marks(dataset.samples, features, vocab)
        _write_text(explain.render_frequency_table(marks) + "\n", out_dir / "frequency.txt")
    print(f"explanation artifacts in {out_dir}")
    return 0


def _rules_tree(clf, hists: np.ndarray, pred: np.ndarray, seed: int):
    """Rules come from the model itself when it is a tree, otherwise from a
    shallow surrogate tree fit to the model's own predictions."""
    if clf.kind == models.TREE:
        return clf.model
    params = forest.TreeParams(max_depth=5, min_samples_leaf=5, seed=seed)
    return forest.train_decision_tree(hists, pred, params)


def _frequency_features(clf, names: list[str], top_k: int) -> list[str]:
    """The calls to mark: by importance for a tree or forest, else in
    vocabulary order; never the OOV slot, ``names[-1]``."""
    keep = max(top_k, 20)
    if clf.kind in (models.HIST_RF, models.TREE):
        order = np.argsort(-forest.gini_importance(clf.model), kind="stable")[:keep]
        return [names[i] for i in order if i != len(names) - 1]
    return names[:-1][:keep]


def cmd_report(args) -> int:
    reports, _ = _read_reports(args.report)
    for i, report in enumerate(reports):
        if i:
            print()
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
    test_malware = datagen.scale_count(FULL_SCALE_TEST_MALWARE, args.scale)

    corpus = str(corpus_path)
    counts = ["--train-counts",
              f"{config.train_counts[GOODWARE]},{config.train_counts[MALWARE]}"]

    def eval_stage(split: str, *extra: str) -> list[str]:
        return [
            "eval", "--corpus", corpus, "--models", model_spec, "--seed", str(args.seed),
            "--length", str(args.length), "--folds", str(args.folds), "--split", split,
            "--out", str(out_dir / f"report_{split}.json"),
            "--csv", str(out_dir / f"report_{split}.csv"), *extra,
        ]

    # each stage re-enters main(), so its config_hash is the one the same
    # command line gets when run alone
    stages = [
        eval_stage("sorted", *counts),
        eval_stage("cv"),
        eval_stage("distributed", *counts, "--test-malware", str(test_malware)),
        ["stats", "--report", str(out_dir / "report_sorted.json"),
         "--alpha", str(args.alpha), "--out", str(out_dir / "significance.json")],
        ["train", "--corpus", corpus, "--model", "hist-rf", "--seed", str(args.seed),
         "--length", str(args.length), *counts,
         "--out", str(out_dir / "model_hist-rf.json")]
        + (["--reproducible"] if args.reproducible else []),
        ["explain", "--corpus", corpus,
         "--model-archive", str(out_dir / "model_hist-rf.json"),
         "--out-dir", str(out_dir / "explain"),
         "--seed", str(args.seed), "--perturbations", str(args.perturbations)],
    ]
    for argv in stages:
        rc = main(argv)
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
                       help="encode only the first N calls of each trace")
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
    p.add_argument("--models", default=None,
                   help="comma list from {tree,hist-rf,linear,lsm,ensemble} "
                        f"(default: {EVAL_MODELS}); not with --model-archive")
    p.add_argument("--model-archive", default=None,
                   help="evaluate a saved archive instead of retraining")
    p.add_argument("--test-malware", type=int, default=None,
                   help="down-select target for the distributed split (default: "
                        f"{FULL_SCALE_TEST_MALWARE}, or every test malware the split "
                        "holds if fewer)")
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
