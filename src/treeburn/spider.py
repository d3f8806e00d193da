"""Extremal spiders: maximum order, minimum diameter, and balanced forms.

A spider has one branch vertex (the head) and n >= 3 legs.  For burning
number m > 1 the largest m-burnable spider with n legs has order
n(m-1) + 1 + (m-1)^2, and among spiders attaining that bound the diameter
can be driven down to 6m - 10 whenever 3 <= m <= 2n - 1, but no lower.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .tree import Tree, make_spider
from .burning import BurningSchedule, is_m_burnable, _forest_groups, _partitions
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


def _tile_arms(arm_lengths: Sequence[int], m: int) -> Optional[BurningSchedule]:
    """Head-first schedule: the head burns at round 1 covering depth m-1 on
    every leg; the leftover leg suffixes must tile exactly with the remaining
    segments of sizes 2(m-i)+1 for i = 2..m."""
    residues = [l - (m - 1) for l in arm_lengths if l > m - 1]
    radii = tuple(m - i for i in range(2, m + 1))
    groups = _forest_groups(tuple(sorted(residues)), radii)
    if groups is None:
        return None
    # rebuild vertex ids: legs are laid out in order, head is 0
    offsets = []
    start = 1
    for l in arm_lengths:
        offsets.append(start)
        start += l
    long_legs = [i for i, l in enumerate(arm_lengths) if l > m - 1]
    order = sorted(range(len(residues)), key=lambda i: residues[i])
    sources: List[Tuple[int, int]] = [(1, 0)]  # (round, vertex)
    used = {0}
    for pos, radii_here in zip(order, groups):
        leg = long_legs[pos]
        depth = m - 1  # already-covered prefix depth on this leg
        for r in sorted(radii_here, reverse=True):
            center_depth = min(depth + r + 1, arm_lengths[leg])
            v = offsets[leg] + center_depth - 1
            if v in used:
                return None
            used.add(v)
            sources.append((m - r, v))
            depth += 2 * r + 1
    sources.sort()
    rounds = [r for r, _ in sources]
    if rounds != list(range(1, m + 1)):
        return None
    return BurningSchedule(sources=tuple(v for _, v in sources))


def witness_schedule(profile: SpiderProfile, m: int) -> BurningSchedule:
    """A valid m-round schedule that burns the head first, if one exists."""
    sched = _tile_arms(profile.arm_lengths, m)
    if sched is None:
        raise ValueError(f"no head-first schedule of length {m} for {profile}")
    flags = burning.verify_schedule(profile.tree(), sched)
    if not flags.is_burning_sequence:
        raise AssertionError(f"internal error: invalid schedule for {profile}")
    return sched


def _extremal_profiles(n: int, m: int) -> List[Tuple[int, ...]]:
    """All leg-length multisets hitting the extremal order whose suffixes tile."""
    total = extremal_order(n, m) - 1
    segs = [2 * (m - i) + 1 for i in range(2, m + 1)]
    base = m - 1
    out = []
    # distribute the m-1 segments among the legs, each leg gets a subset
    seen = set()

    def rec(idx: int, legs: List[List[int]]):
        if idx == len(segs):
            lengths = tuple(sorted(base + sum(g) for g in legs))
            if lengths not in seen:
                seen.add(lengths)
                out.append(lengths)
            return
        for g in legs:
            g.append(segs[idx])
            rec(idx + 1, legs)
            g.pop()

    rec(0, [[] for _ in range(n)])
    return out


def min_diameter(n: int, m: int) -> int:
    """Smallest diameter among extremal m-burnable spiders with n legs."""
    if not 3 <= m <= 2 * n - 1:
        raise ValueError("min diameter formula needs 3 <= m <= 2n - 1")
    return 6 * m - 10


def min_diameter_witness(n: int, m: int) -> Tuple[SpiderProfile, BurningSchedule]:
    """An extremal spider of diameter 6m - 10 together with a witness."""
    best: Optional[Tuple[int, ...]] = None
    target = min_diameter(n, m)
    for lengths in _extremal_profiles(n, m):
        prof = SpiderProfile(arm_lengths=lengths)
        if prof.diameter == target:
            best = lengths
            break
    if best is None:
        raise ValueError(f"no extremal spider of diameter {target} for n={n}, m={m}")
    profile = SpiderProfile(arm_lengths=best)
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
