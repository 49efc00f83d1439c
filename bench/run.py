"""callsift benchmark: one workload, driven through ``callsift.cli.main``.

    python3 bench/run.py --workload pipeline --seed 13 --seconds 30 --trace 0

Set-up (imports, corpus generation, JSON Lines writing) runs three times,
each in a fresh process, and ``setup_s`` is its median.  The workload then
repeats in this process until ``--seconds`` have passed, at least three
times; ``wall_s`` is the median repetition and ``peak_rss_mb`` this
process's high-water resident memory.

With ``--trace 1`` untraced and traced repetitions alternate.  A traced
repetition first repeats the set-up in this process under a ``bench.setup``
span, then runs the workload under a ``bench.workload`` span.  Per-layer
metrics are medians over the traced repetitions; ``bench.overhead_s`` is the
traced median minus the untraced one.

Every CLI stage and every output check is one operation.  The last line
printed is the JSON result.  The full record (environment, every check,
every repetition) and, when traced, the spans are written under
``.bench_out/``.  Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import workloads
from tracer import Tracer, aggregate, check_nesting
from workloads import CORPUS_FILE, ROOT, SRC, WORKLOADS

OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
MIN_REPS = 2
SETUP_TIMEOUT_S = 150
# per-layer metric names that do not read "<span name>.<field>"
ALIASES = {"persistence.archive_bytes": ("persistence.save_model", "archive_bytes")}


class Ledger:
    """Operations attempted (CLI stages and output checks) and their outcome."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append((name, detail))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's default seed)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS library numpy loaded, if it can be read."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(p for p in paths if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError):
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "callsift").glob("*.py")):
        digest.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
                            if k in os.environ},
        "machine": platform.machine(),
    }


def setup_in_child(workload, seed: int, out_dir: Path) -> tuple[float, dict]:
    """One set-up in a fresh interpreter; (wall seconds, expectations)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(workloads.__file__)), workload.name, str(seed), str(out_dir)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed with exit {proc.returncode}: {proc.stderr.strip()}")
    return elapsed, json.loads(proc.stdout.splitlines()[-1])


def run_cli(cli, argv: list[str], log) -> int:
    with contextlib.redirect_stdout(log):
        try:
            return cli.main(argv)
        except Exception:  # a crashed stage is one failed operation
            traceback.print_exc()
            return -1


def layer_value(agg: dict, metric: str) -> float:
    span, field = ALIASES.get(metric) or metric.rsplit(".", 1)
    entry = agg.get(span)
    return 0 if entry is None else entry[field]


def trace_checks(workload, expected: dict, spans, agg: dict, label: str, ledger: Ledger):
    missing = [n for n in workload.required_spans if agg.get(n, {}).get("calls", 0) == 0]
    ledger.add(f"{label}: every required span recorded", not missing, f"never called: {missing}")
    problem = check_nesting(spans)
    ledger.add(f"{label}: spans nest, so self time plus child time is each span's time",
               problem is None, problem or "")
    steps = agg.get("reservoir.simulate_liquid", {}).get("steps", 0)
    ledger.add(f"{label}: liquid steps equal the sum of last occupied step + 1",
               steps == expected["liquid_steps"], f"{steps} vs {expected['liquid_steps']}")
    if "explain.lime_explain" in workload.required_spans:
        calls = agg["explain.lime_explain"]["calls"] if "explain.lime_explain" in agg else 0
        ledger.add(f"{label}: one lime_explain call per trace", calls == expected["traces"],
                   f"{calls} calls for {expected['traces']} traces")


def run_rep(cli, workload, seed, expected, corpus, rep_dir, traced, ledger, label,
            layer_names) -> dict:
    out = rep_dir / "out"
    out.mkdir(parents=True)
    tracer = Tracer()
    with open(rep_dir / "cli.log", "w", encoding="utf-8") as log:
        with tracer.installed() if traced else contextlib.nullcontext():
            if traced:
                with tracer.span("bench.setup") as setup_root:
                    again = workloads.prepare(workload, seed, rep_dir / "setup")
                ledger.add(f"{label}: traced set-up gives the same inputs", again == expected)
                corpus = rep_dir / "setup" / CORPUS_FILE
            commands = workload.commands(corpus, out, seed, expected)
            with tracer.span("bench.workload") if traced else contextlib.nullcontext() as root:
                start = time.perf_counter()
                codes = [run_cli(cli, argv, log) for argv in commands]
                wall = time.perf_counter() - start
        verify = workload.verify_commands(out, seed, expected)
        codes += [run_cli(cli, argv, log) for argv in verify]
    for argv, code in zip(commands + verify, codes):
        ledger.add(f"{label}: callsift {argv[0]} exits 0", code == 0, f"exit {code}")
    try:
        checks, quality, reports = workload.check(out, expected)
    except (OSError, KeyError, ValueError) as exc:
        checks, quality, reports = [("outputs are readable", False, repr(exc))], {}, {}
    for name, ok, detail in checks:
        ledger.add(f"{label}: {name}", ok, detail)
    rep = {"traced": traced, "wall_s": wall, "quality": quality,
           "predictions_sha256": workloads.predictions_digest(reports) if reports else None}
    if traced:
        spans = tracer.subtree(setup_root) + tracer.subtree(root)
        agg = aggregate(spans)
        trace_checks(workload, expected, spans, agg, label, ledger)
        rep["layers"] = {name: layer_value(agg, name) for name in layer_names}
        rep["spans"] = spans
    shutil.rmtree(rep_dir)
    return rep


def measure(args, spec, workload, seed, work: Path) -> dict:
    from callsift import cli

    ledger = Ledger()
    setups = [setup_in_child(workload, seed, work / f"setup{i}") for i in range(SETUP_REPEATS)]
    expected = setups[0][1]
    ledger.add("set-up is deterministic", all(s[1] == expected for s in setups))
    corpus = work / "setup0" / CORPUS_FILE
    layer_names = [m["name"] for m in spec["per_layer"]
                   if m["name"] != "bench.overhead_s"]

    reps = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        rep = run_rep(cli, workload, seed, expected, corpus, work / f"rep{len(reps)}",
                      traced, ledger, f"rep{len(reps)}", layer_names)
        reps.append(rep)
        enough = len(reps) >= (2 if args.trace else MIN_REPS)
        if enough and time.perf_counter() - start + rep["wall_s"] > args.seconds:
            break

    untraced = [r["wall_s"] for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]
    end_to_end = {
        "wall_s": statistics.median(untraced),
        "setup_s": statistics.median(s[0] for s in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **reps[0]["quality"],
    }
    layers = {}
    if traced_reps:
        layers = {name: statistics.median(r["layers"][name] for r in traced_reps)
                  for name in layer_names}
        layers["bench.overhead_s"] = (statistics.median(r["wall_s"] for r in traced_reps)
                                      - end_to_end["wall_s"])
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    digests = {r["predictions_sha256"] for r in reps}
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(seed),
        "setup_s_each": [s[0] for s in setups],
        "expected": expected,
        "repetitions": [{k: v for k, v in r.items() if k != "spans"} for r in reps],
        "end_to_end": end_to_end,
        "per_layer": layers,
        "predictions_sha256": sorted(d for d in digests if d),
        "error_rate": len(ledger.failures) / ledger.attempted,
        "failures": ledger.failures,
        "result": {
            "correct": not ledger.failures,
            "attempted": ledger.attempted,
            "failed": len(ledger.failures),
            "metrics": {m["name"]: {"value": (layers if args.trace else end_to_end)[m["name"]],
                                    "unit": m["unit"]} for m in wanted},
        },
        "spans": [(i, r["spans"]) for i, r in enumerate(reps) if r["traced"]],
    }


def write_outputs(record: dict, stem: str) -> Path:
    spans = record.pop("spans")
    if spans:
        with open(OUT / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for rep, rep_spans in spans:
                for s in rep_spans:
                    fh.write(json.dumps({"rep": rep, "id": s.id, "name": s.name,
                                         "start": s.start, "end": s.end,
                                         "parent": s.parent, "counts": s.counts}) + "\n")
    path = OUT / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def report(record: dict, spec: dict, path: Path) -> None:
    env = record["environment"]
    reps = record["repetitions"]
    untraced = [r["wall_s"] for r in reps if not r["traced"]]
    print(f"workload={record['workload']} seed={record['seed']} trace={record['trace']} "
          f"repetitions={len(reps)} (untraced {len(untraced)}, traced {len(reps) - len(untraced)})")
    print(f"environment: commit={env['commit']} src_sha256={env['src_sha256'][:16]} "
          f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"blas_threads={env['blas_threads']}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, value in record["end_to_end"].items():
        print(f"{name}: {value:.6g} {units.get(name, 'ratio')}")
    print(f"  wall_s of each untraced repetition: {', '.join(f'{w:.4f}' for w in untraced)}")
    print(f"  setup_s of each set-up: {', '.join(f'{s:.4f}' for s in record['setup_s_each'])}")
    result = record["result"]
    print(f"error_rate: {record['error_rate']:.6g} ({result['failed']} of "
          f"{result['attempted']} operations failed)")
    for name, detail in record["failures"]:
        print(f"  FAILED {name}: {detail}")
    print(f"predictions_sha256: {', '.join(record['predictions_sha256'])}")
    if record["per_layer"]:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name, value in record["per_layer"].items():
            print(f"{name}: {value:.6g} {units[name]}")
    print(f"record: {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    workloads.load_callsift()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        record = measure(args, spec, workload, seed, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = write_outputs(record, f"{workload.name}-seed{seed}-trace{args.trace}")
    report(record, spec, path)
    print(json.dumps(record["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
