"""The benchmark's schedule checker accepts a known schedule and rejects
broken ones.  Run with ``python3 -m pytest perfbench``."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from checker import check_schedule  # noqa: E402

PATH9 = [(i, i + 1) for i in range(8)]


def test_accepts_readme_path9_schedule():
    assert check_schedule(PATH9, (2, 6, 8)) == []


def test_rejects_moved_source():
    # moving x_3 from 8 to 7 leaves vertex 8 unburned
    problems = check_schedule(PATH9, (2, 6, 7))
    assert problems == ["1 vertices not burned after round 3"]


def test_rejects_distance_violation():
    # covers the path, but x_2 = 6 and x_4 = 7 are 1 apart, less than 4 - 2
    problems = check_schedule(PATH9, (2, 6, 8, 7))
    assert problems == ["d(x2, x4) = 1 < 2"]
