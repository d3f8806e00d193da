"""treeburn benchmark: time to a verified answer on seeded workloads.

    python3 perfbench/run.py --workload chain-sweep --seed 1 --seconds 30 --trace 0

Run from the repository root.  Inputs come from --seed; each pass runs every
instance once in a fresh single-threaded interpreter, passes run one at a
time until --seconds have gone, and every answer is checked against a known
answer and the benchmark's own schedule checker.  The last line of standard
output is one JSON object: end-to-end metrics with --trace 0, per-layer
metrics from spans around each layer's public calls with --trace 1.
Readable lines with sample counts and failures go to standard error.

Needs Linux (SIGALRM time limits, VmHWM for peak memory).  report.py runs
every workload and prints everything; record.json says why each workload
and metric is there and holds the first baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPANS_DIR = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_SAMPLES = 7  # import-only interpreters per run, besides the passes
RUN_BUDGET_S = 150  # no pass may run past this point of the run

# Span name -> per-layer time metric (self time summed over a pass).
SPAN_METRICS = {
    "tree.build": "tree.build_s",
    "tree.canonical_key": "tree.canonical_key_s",
    "tree.dist": "tree.dist_s",
    "topology.expand": "topology.expand_s",
    "burning.decide_no": "burning.decide_no_s",
    "burning.decide_yes": "burning.decide_yes_s",
    "burning.number": "burning.number_s",
    "burning.verify": "burning.verify_s",
    "spider.witness": "spider.witness_s",
    "admissible.enumerate": "admissible.enumerate_s",
    "admissible.canonical": "admissible.canonical_s",
    "admissible.witness": "admissible.witness_s",
    "extremal.prune": "extremal.prune_s",
    "extremal.find": "extremal.find_s",
}
COUNT_METRICS = (
    "tree.canonical_key_failed",
    "tree.dist_entries",
    "burning.decisions",
    "admissible.sequences",
    "extremal.candidates",
    "extremal.pruned",
)
SHARE_METRICS = ("tree.iso_repeat_share", "admissible.skeleton_repeat_share")
UNITS = {"_s": "s", "_share": "share"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def worker(job: Dict, timeout: float) -> Dict:
    """Run one job in a fresh interpreter and return its report."""
    env = dict(os.environ, PYTHONPATH=SRC)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py")],
            input=json.dumps(job),
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker stopped after {timeout:.0f} s, past the run budget") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout)


def self_times(spans: List[list]) -> Dict[str, float]:
    """Each span's duration minus the part its child spans cover, summed per
    span name."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out: Dict[str, float] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child[i]
    return out


def tally(results: List[Dict]) -> Dict[str, int]:
    """Failed instances counted by layer and kind."""
    out: Dict[str, int] = {}
    for r in results:
        if r["fail"] is not None:
            out[r["fail"]] = out.get(r["fail"], 0) + 1
    return out


def quantile(values: List[float], q: int) -> float:
    """The q-th percentile (q in 1..99) as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=100)[q - 1]


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    """Measure one workload; returns metrics plus the detail behind them.

    Untraced passes each draw fresh instances from the seed, so a run
    averages over more inputs.  A traced run repeats the first pass's
    instances, alternating untraced and traced passes, so its counts repeat
    exactly and the tracing overhead compares passes over the same inputs.
    """
    started = time.perf_counter()
    limit = workloads.TIME_LIMIT_S[workload]

    def budget() -> float:
        return RUN_BUDGET_S - (time.perf_counter() - started)

    worker({}, budget())  # compiles the modules; users do not pay this per run
    setups = [worker({}, budget())["setup_s"] for _ in range(SETUP_SAMPLES)]
    passes: Dict[bool, List[Dict]] = {False: [], True: []}
    kinds = [False, True] if trace else [False]
    sizes = []
    shares = None
    loop_start = time.perf_counter()
    while not passes[kinds[-1]] or time.perf_counter() - loop_start < seconds:
        part = 0 if trace else len(passes[False])
        instances, part_shares = workloads.generate(workload, seed, part)
        shares = shares or part_shares
        sizes.append(len(instances))
        job = {"workload": workload, "instances": instances, "limit_s": limit}
        for traced in kinds:
            rep = worker(dict(job, trace=traced, deadline_s=budget()), budget() + 10)
            setups.append(rep["setup_s"])
            passes[traced].append(rep)

    detail = {
        "workload": workload,
        "seed": seed,
        "instances_per_pass": sizes if not trace else sizes[0],
        "time_limit_s": limit,
        "passes": len(passes[kinds[-1]]),
        "setup_samples": len(setups),
    }
    if trace:
        return layer_metrics(passes, shares, detail)
    return end_to_end(passes[False], setups, detail)


def end_to_end(reps: List[Dict], setups: List[float], detail: Dict) -> Dict:
    results = [r for rep in reps for r in rep["results"]]
    times = [r["s"] for r in results]
    rates = []
    for rep in reps:
        ok = sum(1 for r in rep["results"] if r["fail"] is None)
        rates.append(ok / max(sum(r["run_s"] for r in rep["results"]), 1e-9))
    failures = tally(results)
    failed = sum(failures.values())
    metrics = {
        "instances_per_s": statistics.median(rates),
        "instance_ms.p50": 1000 * statistics.median(times),
        "instance_ms.p90": 1000 * quantile(times, 90),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        "setup_s": statistics.median(setups),
    }
    units = {"instances_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
    detail.update(
        samples={
            "instances_per_s": len(reps),
            "instance_ms.p50": len(times),
            "instance_ms.p90": len(times),
            "peak_rss_mb": len(reps),
            "setup_s": len(setups),
        },
        pass_rates=[round(r, 3) for r in rates],
        failed_share=failed / len(results),
        failures=failures,
    )
    return {
        "correct": not any(r["wrong"] for r in results),
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units.get(k, "ms")} for k, v in metrics.items()},
        "detail": detail,
    }


def layer_metrics(passes: Dict[bool, List[Dict]], shares: Dict[str, float], detail: Dict) -> Dict:
    traced = passes[True]
    per_pass = [self_times(rep["spans"]) for rep in traced]
    metrics: Dict[str, float] = {}
    for span, name in SPAN_METRICS.items():
        metrics[name] = statistics.median(p.get(span, 0.0) for p in per_pass)
    counts = traced[0]["counts"]
    if any(rep["counts"] != counts for rep in traced):
        raise SystemExit("counts differ between passes over the same inputs")
    for name in COUNT_METRICS:
        metrics[name] = counts.get(name, 0)
    metrics["admissible.canonical_share"] = (
        counts["admissible.canonical"] / counts["admissible.sequences"]
        if counts.get("admissible.sequences") else 0.0
    )
    for name in SHARE_METRICS:
        metrics[name] = shares.get(name, 0.0)

    def loop_s(rep: Dict) -> float:
        return sum(r["run_s"] for r in rep["results"])

    metrics["trace.overhead_s"] = statistics.median(map(loop_s, traced)) - statistics.median(
        map(loop_s, passes[False])
    )
    results = [r for rep in traced for r in rep["results"]]
    failures = tally(results)
    detail.update(failures=failures, failed_share=sum(failures.values()) / len(results))
    os.makedirs(SPANS_DIR, exist_ok=True)
    path = os.path.join(SPANS_DIR, f"spans-{detail['workload']}-seed{detail['seed']}.jsonl")
    with open(path, "w") as f:
        for i, rep in enumerate(traced):
            for span in rep["spans"]:
                f.write(json.dumps([i] + span) + "\n")
    detail["spans_file"] = os.path.relpath(path, ROOT)
    return {
        "correct": not any(r["wrong"] for r in results),
        "attempted": len(results),
        "failed": sum(failures.values()),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        "detail": detail,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "treeburn", "__init__.py")):
        print(f"no treeburn sources under {SRC}", file=sys.stderr)
        return 2
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    detail = out.pop("detail")
    for key, value in detail.items():
        print(f"# {key}: {value}", file=sys.stderr)
    for name, m in out["metrics"].items():
        samples = detail.get("samples", {}).get(name, "")
        print(f"{name} = {m['value']:.6g} {m['unit']} {samples and f'(n={samples})'}", file=sys.stderr)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
