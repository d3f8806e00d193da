"""Acceptance suite: one printed PASS/FAIL line per criterion.

Lines are written to the real stdout so they appear even under pytest's
output capture.
"""

import itertools
import math
import random
import sys
import time

import pytest

from treeburn import admissible as adm
from treeburn import extremal, spider
from treeburn.admissible import InducedSpec
from treeburn.burning import (
    PathForest,
    _partitions,
    burning_number,
    is_m_burnable,
    is_maximally_m_burnable,
    ln_estimate,
    path_forest_burnable,
    verify_schedule,
)
from treeburn.tree import make_path, make_spider
from treeburn.topology import make_chain_topology, make_tshape_topology

import conftest
from conftest import random_topology

CHAIN_GRID = list(itertools.product((3, 4, 5), repeat=4))
TSHAPE_GRID = [
    (a, b, c, d)
    for a in (3, 4, 5)
    for b in (3, 4, 5)
    for c in (3, 4, 5)
    for d in (3, 4, 5)
    if a >= c >= d
]
M_GRID = (6, 7, 8)


def report(number, label, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    line = f"criterion {number}: {status} ({elapsed:.1f}s / budget {budget:.0f}s) {label}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, f"criterion {number} failed: {label}"
    assert elapsed < budget, f"criterion {number} over budget: {elapsed:.1f}s"


def test_criterion_1_path_law():
    t0 = time.time()
    ok = True
    for n in range(1, 50):
        b, sched = burning_number(make_path(n))
        if b != math.ceil(math.sqrt(n)):
            ok = False
            break
        if not verify_schedule(make_path(n), sched).is_burning_sequence:
            ok = False
            break
    report(1, "burning_number(path:n) = ceil(sqrt(n)) for n in 1..49", ok, time.time() - t0, 30)


def _stage_counts_ok(shape, grid, formulas, chain_stage1_only):
    for degrees in grid:
        case = extremal.FourBranchCase(shape=shape, degrees=degrees)
        topo, _, seqs = extremal.case_sequences(case)
        a, b, c, d = degrees
        for m in M_GRID:
            for name, seq in seqs.items():
                got = adm.stage1_additions(topo, seq, m).total
                if not chain_stage1_only:
                    got += adm.stage2_additions(seq, m).total
                if got != formulas[name](a, b, c, d, m):
                    return False
    return True


def test_criterion_2_stage_counts():
    t0 = time.time()
    ok = _stage_counts_ok("chain", CHAIN_GRID, extremal.CHAIN_STAGE1, True)
    ok = ok and _stage_counts_ok("tshape", TSHAPE_GRID, extremal.TSHAPE_TOTAL, False)
    report(2, "stage totals match the chain/tshape closed forms", ok, time.time() - t0, 10)


def _diffs_ok(shape, grid, diff_formulas):
    for degrees in grid:
        case = extremal.FourBranchCase(shape=shape, degrees=degrees)
        topo, _, seqs = extremal.case_sequences(case)
        a, b, c, d = degrees
        for m in M_GRID:
            for (na, nb), f in diff_formulas.items():
                got = extremal.order_difference(topo, seqs[na], seqs[nb], m)
                if got != f(a, b, c, d, m):
                    return False
    return True


def test_criterion_3_difference_tables():
    t0 = time.time()
    ok = _diffs_ok("chain", CHAIN_GRID, extremal.CHAIN_DIFF)
    ok = ok and _diffs_ok("tshape", TSHAPE_GRID, extremal.TSHAPE_DIFF)
    report(3, "order_difference matches every difference-table entry", ok, time.time() - t0, 10)


def test_criterion_4_winner_tables():
    t0 = time.time()
    ok = True
    for shape, grid in (("chain", CHAIN_GRID), ("tshape", TSHAPE_GRID)):
        for degrees in grid:
            case = extremal.FourBranchCase(shape=shape, degrees=degrees)
            topo, _, seqs = extremal.case_sequences(case)
            for m in M_GRID:
                best = extremal.find_extremal(topo, m).order
                name = extremal.four_branch_lookup(case)
                if adm.induced_order(topo, seqs[name], m) != best:
                    ok = False
    report(4, "find_extremal argmax agrees with four_branch_lookup", ok, time.time() - t0, 60)


def test_criterion_5_induced_trees_burnable():
    t0 = time.time()
    rng = random.Random(31337)
    accepted = 0
    ok = True
    while accepted < 200:
        topo = random_topology(rng, 5)
        seqs = adm.enumerate_admissible(topo, min(len(topo.branch_vertices), 3))
        seq = seqs[rng.randrange(len(seqs))]
        sig = adm.signature(topo, seq)
        m = max(sig.values()) + rng.randint(1, 2)
        tree = adm.induce_tree(InducedSpec(topology=topo, sequence=seq, m=m))
        if not is_m_burnable(tree, m):
            ok = False
            break
        accepted += 1
    report(5, "200 random induced trees are m-burnable", ok, time.time() - t0, 300)


def test_criterion_6_reductions_and_canonical_forms():
    t0 = time.time()
    ok = True
    for topo, _ in (make_chain_topology(3, 3, 3, 3), make_tshape_topology(3, 3, 3, 3)):
        by_key = {}
        for s in adm.enumerate_admissible(topo, 4):
            sig = adm.signature(topo, s)
            m = max(sig.values()) + 1
            order = adm.induced_order(topo, s, m)
            cur = s
            while True:
                r = adm.reduce_once(topo, cur)
                if r is None:
                    break
                if adm.signature(topo, r) != sig:
                    ok = False
                if adm.induced_order(topo, r, m) != order:
                    ok = False
                cur = r
            if adm.is_canonical(topo, s):
                key = (tuple(sorted(sig.items())), s.trimmed().length)
                if key in by_key and not adm.sequences_equal(by_key[key], s):
                    ok = False
                by_key[key] = s
    report(6, "reductions preserve signature/order; canonical forms unique", ok, time.time() - t0, 60)


def test_criterion_7_min_diameter_spiders():
    t0 = time.time()
    grid = (
        [(3, m) for m in (3, 4, 5)]
        + [(4, m) for m in range(3, 8)]
        + [(5, m) for m in range(3, 10)]
    )
    ok = True
    for n, m in grid:
        prof, sched = spider.min_diameter_witness(n, m)
        tree = prof.tree()
        if prof.order != spider.extremal_order(n, m):
            ok = False
        if prof.diameter != 6 * m - 10:
            ok = False
        if burning_number(tree)[0] != m:
            ok = False
        if not is_maximally_m_burnable(tree, m):
            ok = False
        if not verify_schedule(tree, sched).is_burning_sequence:
            ok = False
    ok = ok and spider.verify_min_diameter(3, 3) and spider.verify_min_diameter(3, 4)
    report(7, "extremal min-diameter spiders hit 6m-10 (plus exhaustive n=3 checks)", ok, time.time() - t0, 600)


def test_criterion_8_balanced_spider():
    t0 = time.time()
    prof, sched = spider.balanced_extremal_spider(3, 8)
    ok = prof.arm_lengths == (23, 23, 24) and prof.order == 71
    # head burns first; the remaining segments 13,11,9,7,5,3,1 tile the three
    # residual arm paths of orders 16, 16, 17
    residues = sorted(l - 7 for l in prof.arm_lengths)
    ok = ok and residues == [16, 16, 17]
    flags = verify_schedule(prof.tree(), sched)
    ok = ok and flags.is_burning_sequence and sched.sources[0] == 0
    ok = ok and burning_number(prof.tree())[0] == 8
    report(8, "balanced 3-spider (23,23,24) has order 71 and burns in 8 rounds", ok, time.time() - t0, 1800)


def test_criterion_9_extremality_ceiling():
    t0 = time.time()
    ok = True
    for m in (3, 4):
        total = spider.extremal_order(3, m)  # one more vertex than extremal - 1
        for p in _partitions(total, 3):
            if is_m_burnable(make_spider(list(p)), m):
                ok = False
    report(9, "no 3-spider of order extremal_order+1 is m-burnable (m = 3, 4)", ok, time.time() - t0, 300)


def test_criterion_10_ln_oracle():
    t0 = time.time()
    ok = True
    for n, ms in ((2, (2, 3, 4)), (3, (3, 4))):
        est = ln_estimate(n, ms)
        for m in ms:
            threshold = est.per_m[m]
            # the property holds at the threshold
            for p in _partitions(m * m, n):
                if min(p) >= threshold and not path_forest_burnable(PathForest(p), m):
                    ok = False
            # and is certified sharp by the stored counterexample
            cx = est.counterexamples[m]
            if threshold > 1:
                if cx is None or min(cx) != threshold - 1:
                    ok = False
                elif path_forest_burnable(PathForest(cx), m):
                    ok = False
    report(10, "ln_estimate thresholds are minimal with stored counterexamples", ok, time.time() - t0, 300)
