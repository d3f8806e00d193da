"""Run every workload, untraced then traced, and print every metric.

    python3 perfbench/report.py [--seed 1] [--seconds 30]

Run from the repository root.  For each workload it prints the correctness
verdict, attempts, failures by layer and failed share, then each end-to-end
metric with its unit and sample count, then each per-layer metric and the
tracing overhead.  path-scale is included although BENCHMARK.json leaves it
out because some of its orders raise RecursionError (ROADMAP item 4);
here those failures are shown.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402


def show(out) -> None:
    detail = out["detail"]
    print(
        f"  correct={str(out['correct']).lower()} attempted={out['attempted']} "
        f"failed={out['failed']} failed_share={detail['failed_share']:.4f} "
        f"passes={detail['passes']}"
    )
    for where, count in sorted(detail["failures"].items()):
        print(f"  failed {count}x at {where}")
    samples = detail.get("samples", {})
    for name, m in out["metrics"].items():
        n = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}{n}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args()
    for workload in workloads.GENERATORS:
        for trace in (False, True):
            print(f"{workload} {'traced' if trace else 'end to end'} (seed {args.seed})", flush=True)
            show(run.run(workload, args.seed, args.seconds, trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
