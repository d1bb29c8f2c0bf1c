#!/usr/bin/env python3
"""Benchmark mobiuslat end to end and layer by layer.

    python3 perfbench/run.py --workload verify-8 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload in turn

Each repetition runs in a fresh interpreter (perfbench/child.py), one child
at a time, so set-up is paid again and no lru_cache carries over.  With
--trace 0 the run reports set-up time, job wall time, job CPU time and peak
RSS as medians; with --trace 1 it alternates untraced and traced
repetitions and reports per-layer self times and counts.  Repetitions
start until --seconds have passed, and at least one always runs.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics, where
attempted and failed count the gate's correctness checks.  A full record,
with every sample and the machine it ran on, goes to
perfbench/results/<workload>-seed<seed>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
RESULTS = HERE / "results"

# the workloads of workloads.py; this process never imports mobiuslat or numpy
WORKLOADS = ("lattice-B9", "verify-8", "nbb-orders-C16")
SETUP_CHILDREN = 3  # import-only children before each job child
RUN_LIMIT_S = 170.0  # no child may run past this many seconds after the start

END_TO_END = {"setup_s": "s", "job_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# per-layer metrics from the traced children; names follow spans.py
SELF_S = (
    "permutation.enumerate_avoiders",
    "permutation.contains_pattern",
    "permutation.weak_join",
    "permutation.inversion_mask",
    "poset.FinitePoset",
    "poset.as_lattice",
    "poset.mobius",
    "poset.covers",
    "nbb.mobius_via_nbb",
    "nbb.shuffled_order",
    "nbb.nbb_bases_of",
    "fibpoly.h_poly",
    "fibpoly.sparse_sets",
    "families.build_family",
    "families.verify_structure",
    "families.isomorphism_claim",
    "families.random_order_claim",
    "families.mobius_summary",
)
CALLS = (
    "permutation.enumerate_avoiders",
    "permutation.contains_pattern",
    "poset.mobius",
    "poset.covers",
    "poset.atoms",
    "nbb.mobius_via_nbb",
    "fibpoly.sparse_sets",
)
COUNTS = {
    "permutation.avoiders_out": "count",
    "poset.elements_built": "count",
    "poset.order_bytes": "bytes_computed",
    "poset.table_bytes": "bytes_computed",
    "poset.BoundedLattice.join.calls": "count",
    "nbb.NbbBase.created": "count",
    "families.build_family.cache_hits": "count",
    "families.build_family.cache_misses": "count",
    "families.claims": "count",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    # only this checkout's package, and the same string hashes every run
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def spawn(spec: dict, limit: float) -> dict:
    """Run one child to completion; add its set-up time to its report."""
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), json.dumps(spec)],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=max(1.0, limit - start),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{spec} did not finish within the run's time limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"{spec} exited with {proc.returncode}:\n{tail}")
    report = json.loads(lines[-1])
    report["setup_s"] = report["imported"] - start
    return report


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # an exported checkout carries no history
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    )
    return proc.stdout.strip() or None


def quartiles(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "samples": len(values)}


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer metrics: median self times, counts from the first traced child."""
    first = traced[0]["trace"]
    for other in traced[1:]:
        t = other["trace"]
        calls = {k: v[0] for k, v in t["spans"].items()}
        if calls != {k: v[0] for k, v in first["spans"].items()} or t["counts"] != first["counts"]:
            raise BenchError("counts differ between two traced children with the same seed")
    spans, counts = first["spans"], first["counts"]

    def self_s(match):
        return statistics.median(
            sum(v[1] for k, v in t["trace"]["spans"].items() if match(k)) for t in traced
        )

    metrics = {f"{n}.self_s": (self_s(lambda k: k == n), "s") for n in SELF_S}
    # main, build_parser and the cmd_* handlers: argument parsing and output
    metrics["cli.main.self_s"] = (self_s(lambda k: k.startswith("cli.")), "s")
    metrics.update({f"{n}.calls": (spans.get(n, [0])[0], "count") for n in CALLS})
    for name, unit in COUNTS.items():
        metrics[name] = (counts.get(name, 0), unit)
    created = counts.get("nbb.NbbBase.created", 0)
    useful = counts.get("nbb.NbbBase.useful", 0)
    metrics["nbb.useful_ratio"] = (useful / created if created else 0.0, "ratio")
    metrics["cli.stdout_bytes"] = (traced[0]["stdout_bytes"], "bytes")
    traced_job = statistics.median(t["job_s"] for t in traced)
    untraced_job = statistics.median(u["job_s"] for u in untraced)
    metrics["trace.job_s"] = (traced_job, "s")
    metrics["trace.untraced_job_s"] = (untraced_job, "s")
    metrics["trace.overhead_s"] = (traced_job - untraced_job, "s")
    metrics["trace.self_sum_s"] = (self_s(lambda k: k != "job"), "s")
    metrics["trace.unattributed_s"] = (self_s(lambda k: k == "job"), "s")
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: set-up children, then job children until the time is up."""
    start = time.monotonic()
    limit = start + RUN_LIMIT_S
    # the first child also compiles bytecode, so it is not a set-up sample
    machine = spawn({"mode": "info"}, limit)
    if not Path(machine["mobiuslat_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported mobiuslat from {machine['mobiuslat_file']}, not {SRC}")
    job = {"mode": "job", "workload": workload, "seed": seed}
    setups, untraced, traced = [], [], []
    while not untraced or time.monotonic() < start + seconds:
        # interleaved, so set-up is sampled over the same window as the jobs
        setups += [spawn({"mode": "setup"}, limit) for _ in range(SETUP_CHILDREN)]
        untraced.append(spawn(dict(job, trace=False), limit))
        if trace:
            traced.append(spawn(dict(job, trace=True), limit))
    reports = untraced + traced
    timed = [r for r in untraced if "job_s" in r]
    if not timed or (trace and not all("trace" in t for t in traced)):
        raise BenchError(f"a job raised, leaving nothing to time: {reports[0]['failures']}")
    attempted = sum(r["checks"] for r in reports)
    failed = sum(len(r["failures"]) for r in reports)
    summary = {
        "setup_s": quartiles([r["setup_s"] for r in setups + untraced]),
        **{k: quartiles([r[k] for r in timed]) for k in ("job_s", "cpu_s", "peak_rss_mb")},
    }
    if trace:
        metrics = layer_metrics(traced, timed)
    else:
        metrics = {k: (summary[k]["median"], unit) for k, unit in END_TO_END.items()}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": {
            "commit": git_commit(),
            "cpu_count": os.cpu_count(),
            **{k: v for k, v in machine.items() if k not in ("imported", "setup_s")},
        },
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": sorted({f for r in reports for f in r["failures"]})[:20],
        "summary": summary,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "reports": reports,
        "setups": [s["setup_s"] for s in setups],
    }


def print_human(result: dict) -> None:
    w = result["workload"]
    print(f"{w} seed={result['seed']} trace={int(result['trace'])}")
    if result["trace"]:
        for name, m in result["metrics"].items():
            print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}")
    else:
        for name, unit in END_TO_END.items():
            s = result["summary"][name]
            print(
                f"  {name:12s} {s['median']:12.6f} {unit:3s} median of {s['samples']}"
                f"  (quartiles {s['q1']:.6f} .. {s['q3']:.6f})"
            )
    print(
        f"  {'fail_ratio':12s} {result['fail_ratio']:12.6f}     "
        f"{result['failed']} of {result['attempted']} checks failed"
    )
    for failure in result["failures"]:
        print(f"    FAIL {failure}")


def save(result: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    name = f"{result['workload']}-seed{result['seed']}-trace{int(result['trace'])}.json"
    (RESULTS / name).write_text(json.dumps(result, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "mobiuslat" / "__init__.py").is_file():
        print(f"no mobiuslat package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            result = measure(name, args.seed, args.seconds, bool(args.trace))
            save(result)
            print_human(result)
            results.append(result)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": m for r in results for k, m in r["metrics"].items()}
    line = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
