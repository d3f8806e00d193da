import random

import pytest

from treeburn.burning import (
    _cover_suffixes,
    _partitions,
    burning_number,
    is_m_burnable,
    verify_schedule,
)
from treeburn.spider import (
    SpiderProfile,
    balanced_extremal_spider,
    extremal_order,
    min_diameter,
    min_diameter_witness,
    verify_min_diameter,
    witness_schedule,
)
from treeburn.tree import _runs, _spider_legs


def test_profile_validation():
    with pytest.raises(ValueError):
        SpiderProfile(arm_lengths=(1, 2))
    with pytest.raises(ValueError):
        SpiderProfile(arm_lengths=(0, 1, 2))
    p = SpiderProfile(arm_lengths=(2, 3, 4))
    assert p.order == 10
    assert p.diameter == 7
    assert p.legs == 3


def test_extremal_order_formula():
    assert extremal_order(3, 4) == 19
    assert extremal_order(3, 5) == 29
    assert extremal_order(4, 4) == 22


def test_extremal_order_is_attained_and_tight():
    # n = 3, m = 4: some spider of order 19 burns in 4 rounds, none of order 20
    hit = False
    for p in _partitions(18, 3):
        if is_m_burnable(SpiderProfile(arm_lengths=p).tree(), 4):
            hit = True
            break
    assert hit
    for p in _partitions(19, 3):
        assert not is_m_burnable(SpiderProfile(arm_lengths=p).tree(), 4)


def test_min_diameter_formula_bounds():
    assert min_diameter(3, 4) == 14
    with pytest.raises(ValueError):
        min_diameter(3, 6)  # m > 2n - 1
    with pytest.raises(ValueError):
        min_diameter(3, 2)
    with pytest.raises(ValueError):
        min_diameter(2, 3)  # two legs make a path, not a spider


def test_min_diameter_witness_n3_m5():
    prof, sched = min_diameter_witness(3, 5)
    assert prof.order == 29
    assert prof.diameter == 20
    flags = verify_schedule(prof.tree(), sched)
    assert flags.is_burning_sequence
    assert burning_number(prof.tree())[0] == 5


def test_min_diameter_witness_grid():
    for n, m in ((3, 3), (3, 4), (4, 3), (4, 4), (4, 5), (5, 4)):
        prof, sched = min_diameter_witness(n, m)
        assert prof.order == extremal_order(n, m)
        assert prof.diameter == 6 * m - 10
        assert verify_schedule(prof.tree(), sched).is_burning_sequence
        assert burning_number(prof.tree())[0] == m


def test_min_diameter_witness_construction():
    for n in range(3, 11):
        for m in range(3, 2 * n):
            prof, sched = min_diameter_witness(n, m)
            assert prof.legs == n
            assert prof.order == extremal_order(n, m)
            assert prof.diameter == 6 * m - 10
            assert sched.sources[0] == 0  # the head burns in round 1
            assert len(sched.sources) == m
            assert verify_schedule(prof.tree(), sched).is_burning_sequence


def test_verify_min_diameter_small():
    assert verify_min_diameter(3, 3)
    assert verify_min_diameter(3, 4)


def test_witness_schedule_head_first():
    prof, sched = min_diameter_witness(3, 4)
    assert sched.sources[0] == 0  # the head burns in round 1


def test_balanced_spider_n3_m8():
    prof, sched = balanced_extremal_spider(3, 8)
    assert prof.arm_lengths == (23, 23, 24)
    assert prof.order == 71
    flags = verify_schedule(prof.tree(), sched)
    assert flags.is_burning_sequence
    assert len(sched.sources) == 8


def test_witness_schedule_rejects_infeasible():
    with pytest.raises(ValueError):
        # all mass on one leg cannot tile
        witness_schedule(SpiderProfile(arm_lengths=(1, 1, 26)), 5)


def _reference_witness(profile, m):
    """The head-first sources with the legs walked on the built tree, or
    None where no head-first schedule exists."""
    t = profile.tree()
    head = t.branch_vertices()[0]
    legs = _runs(t._adj, head)
    cover = _cover_suffixes(legs, [m - 1] * len(legs), range(m - 2, -1, -1))
    if cover is None or len(cover) != m - 1:
        return None
    return (head,) + tuple(c for _, c in sorted(cover, reverse=True))


def test_witness_reads_legs_off_the_profile():
    # the leg ids follow from the arm lengths; the witness is the one the
    # tree walk gives, and so is every refusal
    rng = random.Random(35)
    found = 0
    for _ in range(400):
        # an extremal spider: every leg starts with the head ball's m - 1
        # vertices, and the segments 2(m - i) + 1 of rounds i = 2..m go to
        # random legs; one vertex moved between legs often spoils the tiling
        n, m = rng.randint(3, 7), rng.randint(3, 8)
        lengths = [m - 1] * n
        for i in range(2, m + 1):
            lengths[rng.randrange(n)] += 2 * (m - i) + 1
        if rng.random() < 0.4:
            a, b = rng.sample(range(n), 2)
            if lengths[a] > 1:
                lengths[a] -= 1
                lengths[b] += 1
        if rng.random() < 0.5:
            lengths.sort()
        profile = SpiderProfile(arm_lengths=tuple(lengths))
        legs = _spider_legs(profile.arm_lengths)
        assert [list(leg) for leg in legs] == _runs(profile.tree()._adj, 0)
        want = _reference_witness(profile, m)
        if want is None:
            with pytest.raises(ValueError, match="no head-first schedule"):
                witness_schedule(profile, m)
        else:
            found += 1
            assert witness_schedule(profile, m).sources == want
    for n in range(3, 8):
        for m in range(3, 2 * n):
            profile, sched = min_diameter_witness(n, m)
            assert sched.sources == _reference_witness(profile, m)
            found += 1
    assert found > 200
