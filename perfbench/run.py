"""Benchmark of the vqite reference CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, untraced

Each workload is driven in-process through vqite.cli.main, single process
and single thread, and every output is checked against the benchmark's own
exact-diagonalization oracle.  `--trace 0` measures the end-to-end metrics;
`--trace 1` is a separate run whose spans and counters give the per-layer
metrics.  The last line of standard output is one JSON object; the exit
code is 1 when an output is wrong or not reproducible, 2 when the program
cannot be found.  See perfbench/README.md for the metrics and predictions.
"""

import os

# Pinned before numpy is imported here or in any child process.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from oracle import Oracle  # noqa: E402
from tracer import SPANS, Counters, SpanRecorder, aggregate, patched  # noqa: E402
from workloads import (SEEDED, WORKLOADS, at_reference_speed, invoke,  # noqa: E402
                       load_cli, nondeterministic_points)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TABLE = SRC / "vqite" / "data" / "lih_sto6g.csv"
RUN_DIR = ROOT / ".perfbench"          # temporary outputs, run records, spans

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}

SETUP_SAMPLES = 11
# On a workload whose outputs depend on the seed, the error statistic
# averages this many timed invocations, each with its own derived seed: on
# lih-ucc-shots the quartile spread over seeds is ~23% of the median for one
# scan's mean error and ~7% for the mean of five.  Other workloads time at
# least MIN_INVOCATIONS.
QUALITY_INVOCATIONS = 7
MIN_INVOCATIONS = 3
CHILD_TIMEOUT_S = 120


def derived_seed(seed: int, k: int) -> int:
    """Seed of the k-th timed invocation; k = 0 is the workload seed itself.
    The prime stride keeps the streams of workload seeds below it apart."""
    return seed + k * 1_000_003


def child(*args) -> list[float]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, str(HERE / "child.py"), *map(str, args)],
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise SystemExit(f"perfbench: child {args[0]} failed:\n{done.stderr}")
    return [float(v) for v in done.stdout.strip().splitlines()[-1].split()]


def quality(invocations) -> dict:
    """Error and fidelity over the rows that carry no flag."""
    rows = [p for inv in invocations for p in inv.points if p.ok and not p.flagged]
    first = [p for p in invocations[0].points if p.ok and not p.flagged]
    fids = [p.fidelity for p in first if p.fidelity is not None]
    return {
        "mean_err_mha": statistics.fmean(p.err_mha for p in rows) if rows else float("nan"),
        "max_err_mha": max((p.err_mha for p in first), default=float("nan")),
        "min_fidelity": min(fids) if fids else None,
    }


def checksum(inv) -> str:
    if "curve.csv" in inv.outputs:
        return hashlib.sha256(inv.outputs["curve.csv"]).hexdigest()
    digest = hashlib.sha256()
    for key in sorted(inv.outputs, key=float):
        digest.update(inv.outputs[key])
    return digest.hexdigest()


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def environment() -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


def failures(invocations, pairs) -> tuple[int, int, list[str]]:
    """attempted points, failed points and reasons.  `pairs` holds
    invocations that must match byte for byte; a differing point fails."""
    attempted = sum(len(inv.points) for inv in invocations)
    failed = sum(inv.failed for inv in invocations)
    reasons = sorted({f"R={p.r:g}: {p.reason}" for inv in invocations
                      for p in inv.points if not p.ok})
    for a, b, what in pairs:
        bad_b = {p.r for p in b.points if not p.ok}
        differing = nondeterministic_points(a, b) - bad_b
        failed += len(differing)
        reasons += [f"R={r:g}: bytes differ ({what})" for r in sorted(differing)]
    return attempted, failed, reasons


def run_untraced(workload, seed, seconds, tmp, oracle) -> tuple[dict, dict, list]:
    setup = [child("setup", SRC) for _ in range(SETUP_SAMPLES)]    # (seconds, probe)
    [rss] = child("rss", workload, derived_seed(seed, 0), tmp, SRC)
    cli = load_cli(SRC)
    warm = invoke(workload, derived_seed(seed, 0), tmp, oracle, cli)
    timed = []
    least = QUALITY_INVOCATIONS if workload in SEEDED else MIN_INVOCATIONS
    start = time.perf_counter()
    while len(timed) < least or time.perf_counter() - start < seconds:
        timed.append(invoke(workload, derived_seed(seed, len(timed)), tmp, oracle, cli,
                            probed=True))
    attempted, failed, reasons = failures([warm, *timed],
                                          [(warm, timed[0], "same seed twice")])
    setup_ref = [at_reference_speed(s, p) for s, p in setup]
    walls = [inv.wall_s for inv in timed]
    walls_ref = [at_reference_speed(inv.wall_s, inv.probe_s) for inv in timed]
    q = quality(timed[:QUALITY_INVOCATIONS])
    metrics = {"setup_s": statistics.median(setup_ref),
               "wall_s": statistics.median(walls_ref),
               "peak_rss_mb": rss,
               "mean_err_mha": q["mean_err_mha"]}
    record = {
        "setup_s_samples": setup_ref,
        "setup_raw_s": statistics.median(s for s, _ in setup),
        "setup_raw_s_samples": [s for s, _ in setup],
        "wall_s_samples": walls_ref,
        "wall_raw_s": statistics.median(walls),
        "wall_raw_s_samples": walls,
        "max_err_mha": q["max_err_mha"], "min_fidelity": q["min_fidelity"],
        "failed_frac": failed / attempted,
        "energy_rises": timed[0].energy_rises,
        "sha256": checksum(timed[0]),
        "seeds": [inv.seed for inv in timed],
    }
    return metrics, record, (attempted, failed, reasons)


def run_traced(workload, seed, seconds, tmp, oracle) -> tuple[dict, dict, list]:
    cli = load_cli(SRC)
    ref = invoke(workload, derived_seed(seed, 0), tmp, oracle, cli)
    counters = Counters()
    with patched(counters.wrappers()) as missing_counts:
        counted = invoke(workload, ref.seed, tmp, oracle, cli)
    untraced, traced, aggregates, first_spans = [], [], [], None
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(invoke(workload, ref.seed, tmp, oracle, cli))
        recorder = SpanRecorder()
        with patched(recorder.wrappers()) as missing_spans:
            traced.append(invoke(workload, ref.seed, tmp, oracle, cli))
        aggregates.append(aggregate(recorder.spans))
        first_spans = first_spans or recorder.spans
    metrics = {}
    for prefix, (module, attrs, suffixes) in SPANS.items():
        if all((module, attr) in missing_spans for attr in attrs):
            continue
        for suffix in suffixes:
            metrics[f"{prefix}.{suffix}"] = statistics.median(
                agg.get(prefix, {}).get(suffix, 0) for agg in aggregates)
    metrics.update(counters.result(missing_counts))
    metrics["engine.energy_rises"] = counted.energy_rises
    metrics["trace.overhead_s"] = (statistics.median(i.wall_s for i in traced)
                                   - statistics.median(i.wall_s for i in untraced))
    pairs = [(ref, counted, "counting pass")]
    pairs += [(ref, inv, "untraced") for inv in untraced]
    pairs += [(ref, inv, "traced") for inv in traced]
    attempted, failed, reasons = failures([ref, counted, *untraced, *traced], pairs)
    absent = sorted(f"{m}.{a}" for m, a in missing_spans | missing_counts)
    record = {"traced_invocations": len(traced), "absent": absent,
              "sha256": checksum(ref)}
    with open(RUN_DIR / f"{workload}-spans.jsonl", "w", encoding="utf-8") as fh:
        for span in first_spans:
            fh.write(json.dumps(span) + "\n")
    return metrics, record, (attempted, failed, reasons)


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> bool:
    RUN_DIR.mkdir(exist_ok=True)
    oracle = Oracle(TABLE)
    with tempfile.TemporaryDirectory(dir=RUN_DIR) as tmp:
        measure = run_traced if trace else run_untraced
        metrics, record, (attempted, failed, reasons) = measure(
            workload, seed, seconds, Path(tmp), oracle)
    correct = failed == 0 and all(np.isfinite(v) for v in metrics.values())
    record.update(workload=workload, seed=seed, seconds=seconds, trace=int(trace),
                  attempted=attempted, failed=failed, failures=reasons[:20],
                  environment=environment())
    (RUN_DIR / f"{workload}-trace{int(trace)}.json").write_text(
        json.dumps({"metrics": metrics, **record}, indent=1) + "\n", encoding="utf-8")
    for name, value in metrics.items():
        print(f"{workload}  {name} = {value:.6g} {UNITS[name]}")
    if not trace:
        walls = record["wall_raw_s_samples"]
        print(f"{workload}  wall_s and setup_s are at reference host speed; as measured,"
              f" wall {record['wall_raw_s']:.6g} s over {len(walls)} warm invocations"
              f" (min {min(walls):.6g} s, max {max(walls):.6g} s),"
              f" setup {record['setup_raw_s']:.6g} s")
        for name in ("max_err_mha", "min_fidelity", "failed_frac"):
            if record[name] is not None:
                print(f"{workload}  {name} = {record[name]:.6g}"
                      f" {'mHa' if name.endswith('mha') else 'ratio'}")
    for reason in reasons[:20]:
        print(f"{workload}  FAILED {reason}")
    print(f"{workload}  record {json.dumps(record, sort_keys=True)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": UNITS[k]}
                                  for k, v in metrics.items()}}))
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "vqite" / "__init__.py").is_file():
        print(f"perfbench: no vqite package under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = [run_one(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
