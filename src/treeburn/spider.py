"""Extremal spiders: maximum order, minimum diameter, and balanced forms.

A spider has one branch vertex (the head) and n >= 3 legs.  For burning
number m > 1 the largest m-burnable spider with n legs has order
n(m-1) + 1 + (m-1)^2, and among spiders attaining that bound the diameter
can be driven down to 6m - 10 whenever 3 <= m <= 2n - 1, but no lower.
Minimum-diameter witnesses come from the pairing construction of that proof
(`min_diameter_witness`); head-first schedules come from the burning
module's segment engine, which covers the leg suffixes past the head's ball.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .tree import Tree, _spider_legs, make_spider
from .burning import BurningSchedule, is_m_burnable, _cover_suffixes, _partitions
from . import burning


@dataclass(frozen=True)
class SpiderProfile:
    arm_lengths: Tuple[int, ...]

    def __post_init__(self):
        if len(self.arm_lengths) < 3:
            raise ValueError("a spider needs at least three legs")
        if any(l < 1 for l in self.arm_lengths):
            raise ValueError("leg lengths must be positive")

    @property
    def legs(self) -> int:
        return len(self.arm_lengths)

    @property
    def order(self) -> int:
        return 1 + sum(self.arm_lengths)

    @property
    def diameter(self) -> int:
        top = sorted(self.arm_lengths, reverse=True)
        return top[0] + top[1]

    def tree(self) -> Tree:
        return make_spider(list(self.arm_lengths))


def extremal_order(n: int, m: int) -> int:
    """Largest order of an m-burnable spider with n legs."""
    if n < 3:
        raise ValueError("n must be at least 3")
    if m < 2:
        raise ValueError("m must be at least 2")
    return n * (m - 1) + 1 + (m - 1) ** 2


def _legs(profile: SpiderProfile) -> Tuple[int, List[range]]:
    """`burning._legs` of `profile.tree()`, read off the arm lengths:
    `make_spider` gives the head id 0 and numbers the legs by
    `tree._spider_legs`."""
    return 0, _spider_legs(profile.arm_lengths)


def witness_schedule(profile: SpiderProfile, m: int) -> BurningSchedule:
    """A valid m-round schedule that burns the head first, if one exists.

    The head burns in round 1 and covers depth m-1 on every leg; the leg
    suffixes past that depth must then be covered, with no radius left over,
    by the balls of radii m-2..0, whose centres burn in rounds 2..m.  The
    balls tile the tree, so no centre is burned before its own round.  The
    schedule passes the check every `burning_number` witness passes.
    """
    head, arms = _legs(profile)
    cover = _cover_suffixes(arms, [m - 1] * len(arms), range(m - 2, -1, -1))
    if cover is None or len(cover) != m - 1:
        raise ValueError(f"no head-first schedule of length {m} for {profile}")
    rounds = sorted(cover, reverse=True)  # radius m-i burns in round i
    return burning._checked(profile.tree(), (head,) + tuple(c for _, c in rounds))


def min_diameter(n: int, m: int) -> int:
    """Smallest diameter among extremal m-burnable spiders with n legs."""
    if n < 3:
        raise ValueError("n must be at least 3")
    if not 3 <= m <= 2 * n - 1:
        raise ValueError("min diameter formula needs 3 <= m <= 2n - 1")
    return 6 * m - 10


def min_diameter_witness(n: int, m: int) -> Tuple[SpiderProfile, BurningSchedule]:
    """An extremal spider of diameter 6m - 10 together with a witness.

    The construction of the theorem's proof: every leg starts with the m-1
    vertices the head's ball covers; two legs take the segments 2m-3 and
    2m-5, and the segments 2m-7, ..., 3, 1 are paired largest with smallest,
    each pair (sum 2m-6) on a leg of its own.  The two longest legs then have
    lengths 3m-4 and 3m-6, and the pairs need ceil((m-3)/2) <= n-2 legs,
    which is m <= 2n-1.
    """
    min_diameter(n, m)  # rejects m outside 3..2n-1
    segments = list(range(2 * m - 7, 0, -2))
    legs = [3 * m - 4, 3 * m - 6]
    while segments:
        legs.append(m - 1 + segments.pop(0) + (segments.pop() if segments else 0))
    legs += [m - 1] * (n - len(legs))
    profile = SpiderProfile(arm_lengths=tuple(sorted(legs)))
    return profile, witness_schedule(profile, m)


def verify_min_diameter(n: int, m: int) -> bool:
    """Exhaustively confirm some extremal spider attains diameter 6m - 10 and
    none beats it.  Every leg-length partition of the extremal order is tested
    directly, not just the tiling-derived ones."""
    target = min_diameter(n, m)
    total = extremal_order(n, m) - 1
    attained = False
    for lengths in _partitions(total, n):
        prof = SpiderProfile(arm_lengths=tuple(sorted(lengths)))
        if prof.diameter < target and is_m_burnable(prof.tree(), m):
            return False
        if prof.diameter == target and not attained:
            attained = is_m_burnable(prof.tree(), m)
    return attained


def balanced_extremal_spider(n: int, m: int) -> Tuple[SpiderProfile, BurningSchedule]:
    """An extremal spider whose leg lengths differ by at most one, when the
    m-1 leftover segments can be packed that evenly."""
    total = extremal_order(n, m) - 1
    base, extra = divmod(total, n)
    lengths = tuple(sorted([base + 1] * extra + [base] * (n - extra)))
    profile = SpiderProfile(arm_lengths=lengths)
    try:
        return profile, witness_schedule(profile, m)
    except ValueError:
        raise ValueError(
            f"no balanced extremal spider for n={n}, m={m}: "
            f"leg lengths {lengths} do not tile"
        )
