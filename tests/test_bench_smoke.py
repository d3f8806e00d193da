"""The benchmark harness runs end to end and every answer it times is right.

One short untraced run per workload whose instances go through
`burning_number` or `find_extremal`, and one traced adm-search run, whose
traced pass also runs the brute-force and canonical enumerations.  Outside
its timed region the harness checks each answer against a known one and
with an independent schedule checker; on adm-search, each four-branch
answer against the closed-form table winner, which the harness computes
without treeburn.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def _run_is_correct(workload, trace):
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            trace,
        ],
        capture_output=True,
        text=True,
        cwd=REPO,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["correct"] is True, proc.stderr
    assert report["failed"] == 0, proc.stderr
    assert report["attempted"] > 0


@pytest.mark.parametrize(
    "workload", ["chain-sweep", "spider-tight", "path-scale", "adm-search"]
)
def test_bench_workload_is_correct(workload):
    _run_is_correct(workload, "0")


def test_bench_traced_adm_search_is_correct():
    # the traced pass also runs the brute-force and canonical enumerations
    _run_is_correct("adm-search", "1")
