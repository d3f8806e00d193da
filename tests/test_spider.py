import pytest

from treeburn.burning import _partitions, burning_number, is_m_burnable, verify_schedule
from treeburn.spider import (
    SpiderProfile,
    balanced_extremal_spider,
    extremal_order,
    min_diameter,
    min_diameter_witness,
    verify_min_diameter,
    witness_schedule,
)


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
