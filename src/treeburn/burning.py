"""Exact burning: schedule verification, m-burnability, burning numbers.

One round-by-round burn (`_burn`, a `_spread` step per round) answers every
schedule question in O(n); its docstring proves it exact for the full
characterization (coverage plus the pairwise distance condition).  It checks
every witness returned (`_burns`), gives `verify_schedule` its flags, turns a
covering into a schedule (`_witness_from_cover`) and lists each round's
candidates in `enumerate_optimal_schedules`.  The m-burnability decision runs
on the covering form of the problem: a tree is m-burnable iff balls of radii
m-1, m-2, ..., 0 can cover it, since the burn repairs a covering into a
burning sequence by re-siting any source already burned.  Two engines decide
coverage, each with its proof in its docstring.  Trees with at most one
branch vertex (paths and spiders) go to the segment engine: it tries each
ball through the head and covers the arm suffixes left over with an exact
path-forest DP, which alone decides a path (the law n <= m*m).  Every other
tree goes to a search that branches only on which radius covers a deepest
uncovered vertex, with the ball's center fixed by an exchange argument.

Burnability is monotone in m, so what the general search proves about a
tree is one bracket per isomorphism class: lo < b(tree) <= hi, with lo the
largest k proved not burnable and hi the least k proved burnable.  A memo
keyed by canonical form keeps a bounded number of these brackets and, once
b is proved, one optimal witness per class in canonical ids.  A stored
witness is exact for every tree of its class: the canonical labelling is an
isomorphism, isomorphisms preserve distances, and every mapped witness is
verified again on the caller's tree.  A class without one is searched on
its canonical tree, so no witness depends on which isomorphic trees came
first.  Trees with at most one branch vertex bypass the memo, since the
segment engine is cheap and the scan for their burning number starts at b.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .tree import (
    Tree,
    canonical_form,
    canonical_key,
    diameter,
    make_path,
    subdivide_edge,
)
from . import topology as topo_mod


@dataclass(frozen=True)
class BurningSchedule:
    """Ordered burning sources x_1..x_m."""

    sources: Tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.sources)


@dataclass(frozen=True)
class NeighborhoodCover:
    """Associated neighbourhoods N_{m-i}[x_i] and the derived flags."""

    neighborhoods: Tuple[frozenset, ...]
    covers_all: bool
    distance_ok: bool
    pairwise_disjoint: bool
    leaves_last: bool
    branch_prefix_length: int

    @property
    def is_burning_sequence(self) -> bool:
        return self.covers_all and self.distance_ok


@dataclass(frozen=True)
class PathForest:
    """Disjoint union of paths, stored as the list of path orders."""

    path_orders: Tuple[int, ...]

    def __post_init__(self):
        if any(p < 1 for p in self.path_orders):
            raise ValueError("path orders must be positive")


@dataclass(frozen=True)
class LnEstimate:
    """Per-m minimal shortest-path thresholds guaranteeing burnability of
    n-path forests of order m*m, with counterexamples at threshold - 1."""

    per_m: Dict[int, int]
    counterexamples: Dict[int, Optional[Tuple[int, ...]]]
    vacuous: Tuple[int, ...]


def _spread(adj, burned: set, fresh: Sequence[int]) -> List[int]:
    """One round's spread: burn the unburned neighbours of `fresh`, the
    vertices that first burned last round, and return them."""
    out = []
    for v in fresh:
        for w in adj[v]:
            if w not in burned:
                burned.add(w)
                out.append(w)
    return out


def _burn(tree: Tree, sources: Sequence[int]) -> Tuple[set, List[int], List[bool]]:
    """Simulate the burn of x_1..x_m, sources in the tree: (the burned set
    after round m, the vertices that first burned in round m, per source
    whether it was unburned when its round began).  O(n) in all.

    Round t spreads the fire one step from every burned vertex and then
    lights x_t.  A vertex v is burned before round t's spread iff
    d(x_i, v) <= t-1-i for some i < t, since x_i's fire has spread t-1-i
    times by then.  So x_t is unburned there iff d(x_i, x_t) >= t-i for
    every i < t, which is the distance condition; a repeated source fails
    it at distance 0.  A source lit while already burned adds nothing:
    burned by x_i's fire, it has d(x_i, x_t) <= t-i, so its ball N_{m-t}
    lies inside x_i's ball N_{m-i}, and t + d(x_t, v) >= i + d(x_i, v) for
    every v.  So v first burns in round min_i(i + d(x_i, v)), and after
    round m it is burned iff d(x_i, v) <= m-i for some i: the burned set is
    the union of the N_{m-i}[x_i], and it is the whole tree iff they cover
    it.
    """
    adj = tree._adj
    burned: set = set()
    fresh: List[int] = []  # first burned in the latest round
    unburned = []
    for x in sources:
        unburned.append(x not in burned)
        fresh = _spread(adj, burned, fresh)
        if x not in burned:
            burned.add(x)
            fresh.append(x)
    return burned, fresh, unburned


def _burns(tree: Tree, sources: Sequence[int]) -> bool:
    """True iff the sources x_1..x_m form a burning sequence of the tree:
    each lies in the tree, each is unburned when its round begins, and every
    vertex is burned after round m (`_burn`)."""
    if not all(x in tree for x in sources):
        return False
    burned, _, unburned = _burn(tree, sources)
    return all(unburned) and len(burned) == tree.order


def verify_schedule(tree: Tree, schedule: BurningSchedule) -> NeighborhoodCover:
    """Compute the associated neighbourhoods and all flags exactly.

    Coverage, the distance condition and leaves-last read one simulated
    burn (`_burn`): a leaf burns in the last round iff it first burns in
    round m.  The neighbourhoods are the balls `Tree.ball(x_i, m-i)`; their
    union is the burned set, so they are pairwise disjoint iff their sizes
    sum to its size.
    """
    m = schedule.length
    if m == 0:
        raise ValueError("empty schedule")
    seen = set()
    for x in schedule.sources:
        if x not in tree:
            raise ValueError(f"source {x} not in tree")
        if x in seen:
            raise ValueError(f"duplicate source {x}")
        seen.add(x)
    burned, last, unburned = _burn(tree, schedule.sources)
    hoods = tuple(tree.ball(x, m - i) for i, x in enumerate(schedule.sources, start=1))
    covers_all = len(burned) == tree.order
    branch = set(tree.branch_vertices())
    lead = 0  # sources before the first non-branch one
    while lead < m and schedule.sources[lead] in branch:
        lead += 1
    return NeighborhoodCover(
        neighborhoods=hoods,
        covers_all=covers_all,
        distance_ok=all(unburned),
        pairwise_disjoint=sum(map(len, hoods)) == len(burned),
        leaves_last=covers_all and set(tree.leaves()) <= set(last),
        branch_prefix_length=lead if lead and branch <= set().union(*hoods[:lead]) else 0,
    )


# ---------------------------------------------------------------------------
# Path-forest coverage: assign disjoint groups of radii to the paths so that
# each path order is at most the group's total segment size sum(2r+1).

def _forest_groups(
    path_orders: Sequence[int], radii: Sequence[int]
) -> Optional[List[List[int]]]:
    """Groups of radii covering each path, or None; exact search.

    Radii are placed largest first.  A state is (next radius index, sorted
    tuple of the positive residual path demands): paths with equal residual
    demands are interchangeable, so each distinct demand is tried once, and
    failed states are memoized for the duration of the call.  A state whose
    demands are pointwise no larger is at least as feasible, which gives two
    exact dominance rules:

    - while a demand remains the next radius is placed, since placing it on
      any path lowers a demand; radii left once every demand is met go unused;
    - of the demands the radius meets in full, only the largest is tried.

    A state fails at once when its demands outweigh the remaining capacity
    sum(2r+1).  Per-path groups are recovered by replaying the demand each
    radius met onto the paths.
    """
    radii = sorted(radii, reverse=True)
    weight = [2 * r + 1 for r in radii]
    capacity = [0] * (len(radii) + 1)  # capacity[i] = sum(weight[i:])
    for i in range(len(radii) - 1, -1, -1):
        capacity[i] = capacity[i + 1] + weight[i]

    def moves(i: int, demands: Tuple[int, ...], total: int):
        """(demand met, next state) for each way to place radius i."""
        w = weight[i]
        prev = 0
        for pos in range(len(demands) - 1, -1, -1):
            d = demands[pos]
            if d == prev:
                continue
            prev = d
            rest = demands[:pos] + demands[pos + 1 :]
            if d > w:
                at = bisect_left(rest, d - w)
                rest = rest[:at] + (d - w,) + rest[at:]
            yield d, (i + 1, rest, total - min(d, w))
            if d <= w:
                break

    # depth-first search with an explicit stack; a state is (i, demands,
    # total) with demands ascending and total their sum
    failed = set()
    frames = []  # frames[i]: (state key, moves left) of the state placing radius i
    met: List[int] = []  # met[i]: the demand radius i meets on the current branch
    start = tuple(sorted(d for d in path_orders if d > 0))
    i, demands, total = 0, start, sum(start)
    while demands:
        if total <= capacity[i] and (i, demands) not in failed:
            frames.append(((i, demands), moves(i, demands, total)))
        while frames and (step := next(frames[-1][1], None)) is None:
            failed.add(frames.pop()[0])
        if not frames:
            return None
        del met[len(frames) - 1 :]
        d, (i, demands, total) = step
        met.append(d)
    residual = list(path_orders)
    groups: List[List[int]] = [[] for _ in path_orders]
    for i, d in enumerate(met):
        p = residual.index(d)
        groups[p].append(radii[i])
        residual[p] -= weight[i]
    return groups


def path_forest_burnable(forest: PathForest, m: int) -> bool:
    """True iff the forest is m-burnable (exact radii-to-path assignment).

    Radii only grow with m, and a forest of N vertices and p paths is
    N-burnable: each path has at most N - p + 1 vertices, and each of the p
    largest radii N-1..N-p covers one path, as 2r + 1 >= N - p + 1.  So the
    answer at m is the answer at min(m, N).
    """
    if m < 1:
        return False
    radii = range(min(m, sum(forest.path_orders)))
    return _forest_groups(forest.path_orders, radii) is not None


# ---------------------------------------------------------------------------
# Covering decisions: a segment engine for trees with at most one branch
# vertex, and a deepest-uncovered search for every other tree.

def _place_on_line(line: Sequence[int], radii: Sequence[int]) -> List[Tuple[int, int]]:
    """Place balls of the given radii left to right along a vertex line."""
    out = []
    cur = 0
    n = len(line)
    for r in sorted(radii, reverse=True):
        if cur >= n:
            break
        c = min(cur + r, n - 1)
        out.append((r, line[c]))
        cur = c + r + 1
    return out


def _cover_suffixes(
    lines: Sequence[Sequence[int]], starts: Sequence[int], radii: Sequence[int]
) -> Optional[List[Tuple[int, int]]]:
    """Balls of the given radii covering line[start:] for every line, or None.

    The suffixes form a path forest; `_forest_groups` decides which radii go
    to which suffix and `_place_on_line` lays each group end to end.
    """
    live = [(line, s) for line, s in zip(lines, starts) if s < len(line)]
    groups = _forest_groups([len(line) - s for line, s in live], radii)
    if groups is None:
        return None
    return [
        ball
        for (line, s), grp in zip(live, groups)
        for ball in _place_on_line(line[s:], grp)
    ]


_Legs = Tuple[Optional[int], List[List[int]]]


def _legs(tree: Tree) -> _Legs:
    """(head, legs) of a path or spider, each leg's vertices from the head
    out; a path has head None and one leg, its vertices end to end."""
    if tree.is_path():
        end = tree.leaves()[0]
        line = topo_mod._walk(tree, end, tree.neighbors(end)[0]) if tree.order > 1 else [end]
        return None, [line]
    head = tree.branch_vertices()[0]
    return head, [topo_mod._walk(tree, head, w)[1:] for w in tree.neighbors(head)]


def _cover_segments(legs: _Legs, m: int) -> Optional[List[Tuple[int, int]]]:
    """Exact cover of a path or spider, given by its `_legs`, by balls of
    radii m-1..0.

    Both rest on the path-forest lemma: a ball meets a path in an interval of
    at most 2r+1 vertices, and intervals of sizes s_i cover a path of order L
    iff sum(s_i) >= L, so a path forest is covered iff the radii can be split
    into groups with sum(2r+1) at least each path's order (`_forest_groups`).
    A path is one segment, which gives the law n <= m*m.

    A spider has a head h and arms; a ball of radius r centred at depth delta
    on arm j (delta = 0 at h) contains h iff delta <= r.  Such a head ball
    reaches depth delta + r on arm j and depth r - delta, its generic reach,
    on every other arm; a ball that misses h meets arm j alone, in an
    interval.  Some ball of a cover contains h; let B0 be one with the
    largest generic reach g0.  B0 covers depth g0 on every arm, so another
    head ball B, of radius r, centre depth delta on arm j and generic reach
    r - delta <= g0, adds nothing beyond B0 off arm j, and on arm j it adds
    part of the depths (r - delta, delta + r], an interval of at most 2r+1
    vertices.  So every ball other than B0 meets the vertices B0 leaves, the
    arm suffixes past B0's reach, in one interval of at most 2r+1 vertices
    on one suffix, and the spider is covered iff for some head ball B0 the
    suffixes are covered by the other radii.  The search tries each head ball
    (radius, arm, depth) and solves that path forest exactly; head balls
    that leave the same multiset of (arm length, reach) pairs leave the same
    forest and are tried once.

    In each radius the head-centred ball goes first.  An l-leg spider of
    the extremal order l(m-1) + 1 + (m-1)^2 meets the bound in
    `burning_number`'s docstring with equality at k = m, which forces
    rho = m-1 and delta = 0: its covering head ball is the head-centred ball
    of radius m-1, so one forest DP decides it instead of one failing DP
    per arm-centred ball tried before it.
    """
    head, arms = legs
    radii = list(range(m - 1, -1, -1))
    if head is None:
        return _cover_suffixes(arms, [0], radii)
    lengths = [len(a) for a in arms]

    def head_balls(rho: int):
        """(centre, depth reached on each arm) of every radius-rho head
        ball, the head-centred one first."""
        yield head, [min(l, rho) for l in lengths]
        for j, arm in enumerate(arms):
            for delta in range(1, min(rho, len(arm)) + 1):
                yield arm[delta - 1], [
                    min(l, delta + rho if k == j else rho - delta)
                    for k, l in enumerate(lengths)
                ]

    seen = set()
    for rho in radii:
        rest = [r for r in radii if r != rho]
        for centre, reach in head_balls(rho):
            key = (rho, tuple(sorted(zip(lengths, reach))))
            if key in seen:
                continue
            seen.add(key)
            cover = _cover_suffixes(arms, reach, rest)
            if cover is not None:
                return [(rho, centre)] + cover
    return None


def _cover_general(tree: Tree, m: int) -> Optional[List[Tuple[int, int]]]:
    """Complete covering search for arbitrary trees, branching on radii only.

    Root the tree at a vertex and let u be a deepest uncovered vertex.  Some
    remaining ball covers u.  If a radius-r ball B covers u, the radius-r ball
    centred at a, u's ancestor at distance r (the root if u is shallower),
    covers every uncovered vertex that B covers.  Take an uncovered w in B,
    with B centred at c; as u is deepest, depth(w) <= depth(u).  If w lies
    under a, then d(a, w) = depth(w) - depth(a) <= depth(u) - depth(a) <= r.
    If it does not, then either c lies under a, so its path to w runs through
    a and d(a, w) <= d(c, w) <= r, or c lies outside a's subtree and
    d(c, u) = d(c, a) + r <= r forces c = a.  Covering more never hurts, so
    the search branches only on which remaining radius covers u, and memoizes
    failed (remaining radii, uncovered set) states.

    Vertices are numbered deepest first, so the lowest set bit of the
    uncovered mask is a deepest uncovered vertex; ball masks are built on
    first use.
    """
    root = tree.vertices[0]
    depth = tree.distances_from(root)
    verts = sorted(tree.vertices, key=lambda v: -depth[v])
    bit = {v: 1 << i for i, v in enumerate(verts)}
    parent = {w: v for v in verts for w in tree.neighbors(v) if depth[w] > depth[v]}
    balls: Dict[Tuple[int, int], int] = {}
    failed = set()

    def rec(radii: Tuple[int, ...], uncovered: int) -> Optional[List[Tuple[int, int]]]:
        if not uncovered:
            return []
        key = (radii, uncovered)
        if not radii or key in failed:
            return None
        u = verts[(uncovered & -uncovered).bit_length() - 1]
        for idx, r in enumerate(radii):
            a = u
            for _ in range(min(r, depth[u])):
                a = parent[a]
            mask = balls.get((r, a))
            if mask is None:
                mask = balls[(r, a)] = sum(bit[w] for w in tree.ball(a, r))
            sub = rec(radii[:idx] + radii[idx + 1 :], uncovered & ~mask)
            if sub is not None:
                return [(r, a)] + sub
        failed.add(key)
        return None

    return rec(tuple(range(m - 1, -1, -1)), (1 << len(verts)) - 1)


# Isomorphism classes whose entries the memo keeps, well above the ~1,100
# trees of one pass of order-39 chain(3,3,3,3) orbits.
_MEMO_CLASSES = 4096


class _BracketMemo:
    """Per canonical key, the bracket (lo, hi) on b and, once b is proved, an
    optimal witness in canonical ids: lo the largest k proved not burnable
    (0 when none), hi the least k proved burnable (None when none).  Holds
    at most `capacity` classes and forgets the oldest first, witness and
    all."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._entries: "OrderedDict[str, list]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def bracket(self, key: str) -> Tuple[int, Optional[int]]:
        lo, hi, _ = self._entries.get(key, (0, None, None))
        return lo, hi

    def witness(self, key: str) -> Optional[Tuple[int, ...]]:
        """The stored witness in canonical ids, or None."""
        return self._entries.get(key, (0, None, None))[2]

    def record(
        self, key: str, k: int, burnable: bool, witness: Optional[Tuple[int, ...]] = None
    ) -> None:
        """Record that k is (not) burnable.  A witness, of length k, is
        passed only once k - 1 is recorded as not burnable, so b = k."""
        entry = self._entries.get(key)
        if entry is None:
            if len(self._entries) >= self.capacity:
                self._entries.popitem(last=False)
            entry = self._entries[key] = [0, None, None]
        if burnable:
            entry[1] = k if entry[1] is None else min(entry[1], k)
        else:
            entry[0] = max(entry[0], k)
        if witness is not None:
            entry[2] = witness


_memo = _BracketMemo(_MEMO_CLASSES)


def _witness_from_cover(
    tree: Tree, k: int, cover: List[Tuple[int, int]]
) -> BurningSchedule:
    """Turn a covering into a valid burning sequence by simulating the rounds.

    If the designated center is already burned when its round arrives, or
    the cover leaves that radius unused, any vertex that keeps the distance
    condition may be lit instead: by `_burn`'s proof, any vertex not burned
    before that round's spread; the least unburned one when there is one.
    Coverage never depends on that choice: a center burned at round s <= t
    still burns its whole radius-(k-1-t) ball by round k.
    """
    center_for = {k - 1 - r: c for r, c in cover}  # round index (0-based) -> center
    burned: set = set()
    fresh: List[int] = []  # burned in the current round
    sources: List[int] = []
    for t in range(k):
        fresh = _spread(tree._adj, burned, fresh)
        c = center_for.get(t)
        if c is None or c in burned:
            # vertices burned only by this round's spread still keep the
            # distance condition; an unburned one exists whenever coverage is
            # still incomplete.  `tree.vertices` is sorted, so the first
            # unburned vertex is the least one.
            c = next((v for v in tree.vertices if v not in burned), None)
            if c is None:
                if not fresh:
                    raise AssertionError("no admissible source; cover was invalid")
                c = min(fresh)
        if c not in burned:
            burned.add(c)
            fresh.append(c)
        sources.append(c)
    return BurningSchedule(sources=tuple(sources))


def is_m_burnable(tree: Tree, m: int) -> bool:
    """True iff a valid burning sequence of length <= m exists.

    Radii only grow with m, so coverage is decided at m itself, capped at
    the order n: every tree is n-burnable, as a radius-(n-1) ball covers it.
    No k below the scan start is burnable (`burning_number`'s docstring), so
    there the answer is no without a cover.  A tree with two or more branch
    vertices reads its class's memo bracket first and records what it decides.
    """
    if m < 1:
        raise ValueError("m must be positive")
    m = min(m, tree.order)
    if len(tree.branch_vertices()) <= 1:
        legs = _legs(tree)
        return m >= _scan_start(tree, legs) and _cover_segments(legs, m) is not None
    key = canonical_key(tree)
    lo, hi = _memo.bracket(key)
    if m <= lo:
        return False
    if hi is not None and m >= hi:
        return True
    ok = m >= _scan_start(tree) and _cover_general(tree, m) is not None
    _memo.record(key, m, ok)
    return ok


def _scan_start(tree: Tree, legs: Optional[_Legs] = None) -> int:
    """The lower bound on b(tree) where `burning_number` starts its scan;
    the proof is in that function's docstring.  A path or spider reads it
    off its `legs`, with no BFS: a path of order n has diameter n - 1, and
    a spider has one leaf per leg and its two longest legs as diameter."""
    if len(tree.branch_vertices()) > 1:
        return math.isqrt(diameter(tree)) + 1
    head, arms = legs or _legs(tree)
    if head is None:
        return math.isqrt(len(arms[0]) - 1) + 1
    lengths = sorted(map(len, arms))
    k = math.isqrt(lengths[-1] + lengths[-2]) + 1
    while k * k + (len(lengths) - 2) * (k - 1) < tree.order:
        k += 1
    return k


def burning_number(tree: Tree) -> Tuple[int, BurningSchedule]:
    """Smallest m with a valid burning sequence, plus a checked optimal witness.

    The scan starts at a lower bound on b (`_scan_start`).  Every tree needs
    ceil(sqrt(diam + 1)) rounds: a longest path has diam + 1 vertices, and
    in a tree a radius-r ball meets it in at most 2r + 1 of them (the ball's
    trace on a geodesic is a subpath within distance r of one vertex), so k
    balls cover it only if sum(2r + 1 for r < k) = k*k >= diam + 1.

    A tree with at most one branch vertex, n vertices and l leaves also
    needs the least k with k*k + (l - 2)(k - 1) >= n.  For a path (l = 2)
    this is the law n <= k*k, the diameter bound itself.  For a spider, take
    a cover by balls of radii k-1..0 and its head ball B0 as in
    `_cover_segments`: radius rho, centre at depth delta on one arm, largest
    generic reach.  B0 covers the head, at most delta + rho vertices of its
    own arm and at most rho - delta of each other arm, at most
    1 + l*rho - (l - 2)*delta <= 1 + l*rho in all.  Every other ball meets
    what B0 leaves in one interval of at most 2r + 1 vertices, so
    n <= 1 + l*rho + k*k - (2*rho + 1) = k*k + (l - 2)*rho
    <= k*k + (l - 2)(k - 1).  At the extremal order l(m-1) + 1 + (m-1)^2
    the bound is m, and one vertex above it m + 1, so paths and tight
    spiders take one cover.

    A tree with two or more branch vertices whose class has a stored
    witness gets it mapped through its canonical labelling and verified,
    with no cover search.  Otherwise the scan runs on the class's canonical
    tree, from past the largest k its bracket records as not burnable.
    Every k below the start or the first cover found is proved not
    burnable, so the bracket becomes (b - 1, b) and the witness is stored
    in canonical ids.  Searching the canonical tree makes the witness a
    function of the tree alone, whatever the memo held or evicted before.
    Paths and spiders neither read nor write the memo, and their canonical
    form is never computed.
    """
    if len(tree.branch_vertices()) <= 1:
        # the path-forest DP keeps the arms' symmetry, which _cover_general's
        # bitmask states lose: 0.11 s against 21 s on 192 tight-spider decisions
        legs = _legs(tree)
        k, cover = _first_cover(_scan_start(tree, legs), lambda k: _cover_segments(legs, k))
        return k, _checked(tree, _witness_from_cover(tree, k, cover).sources)
    key, order, parent = canonical_form(tree)
    ids = _memo.witness(key)
    if ids is None:
        canon = Tree._built((i, parent[i]) for i in range(1, len(parent)))
        start = max(_scan_start(canon), _memo.bracket(key)[0] + 1)
        k, cover = _first_cover(start, lambda k: _cover_general(canon, k))
        ids = _witness_from_cover(canon, k, cover).sources
        # k - 1 is proved not burnable, by the start's bound or by a failed cover
        _memo.record(key, k - 1, False)
        _memo.record(key, k, True, ids)
    return len(ids), _checked(tree, [order[i] for i in ids])


def _first_cover(k: int, cover_at) -> Tuple[int, List[Tuple[int, int]]]:
    """(k', cover) for the least k' >= k that `cover_at` covers.  The scan
    ends by k' = n, where every tree is covered (`is_m_burnable`)."""
    while (cover := cover_at(k)) is None:
        k += 1
    return k, cover


def _checked(tree: Tree, sources: Sequence[int]) -> BurningSchedule:
    """The sources as a schedule, after `_burns` accepts them."""
    witness = BurningSchedule(sources=tuple(sources))
    if not _burns(tree, witness.sources):
        raise AssertionError(f"internal error: {witness.sources} does not burn the tree")
    return witness


def enumerate_optimal_schedules(tree: Tree) -> Iterator[BurningSchedule]:
    """Every valid burning sequence of length exactly b(tree), in lexicographic
    order over the source tuples.

    Each prefix is burned round by round with `_spread`.  By `_burn`'s
    proof, a vertex keeps the distance condition as x_i iff it is unburned
    when round i begins, so the burned set alone rules candidates out, and
    the sequence burns the tree iff nothing is left unburned after round k.
    A prefix is cut when its balls N_{k-j}[x_j] leave more vertices than the
    largest balls of the remaining radii can hold.
    """
    k, _ = burning_number(tree)
    adj, verts = tree._adj, tree.vertices
    maxball = [max(len(tree.ball(v, r)) for v in verts) for r in range(k)]

    def rec(placed: Tuple[int, ...], burned: set, fresh: List[int], covered: frozenset):
        i = len(placed) + 1
        if i > k:
            if len(burned) == tree.order:
                yield placed
            return
        r = k - i
        budget = sum(maxball[:r])  # rounds after this one
        after = set(burned)
        spread = _spread(adj, after, fresh)
        for v in verts:
            if v in burned:
                continue
            new_cov = covered | tree.ball(v, r)
            if tree.order - len(new_cov) > budget:
                continue
            front = spread if v in after else spread + [v]
            yield from rec(placed + (v,), after | {v}, front, new_cov)

    for sources in rec((), set(), [], frozenset()):
        yield BurningSchedule(sources=sources)


def is_maximally_m_burnable(tree: Tree, m: int) -> bool:
    """True iff b(tree) = m and no single degree-2 insertion stays m-burnable.

    b = m is decided as m-burnable and not (m-1)-burnable; after
    `burning_number` on a tree with two or more branch vertices, the memo
    bracket answers both without a search.  Subdivided trees are tried once
    per isomorphism class, through a local set of canonical keys; each
    subdivided tree keeps its canonical form, so the decision reuses it.
    """
    if m < 1 or not is_m_burnable(tree, m) or (m > 1 and is_m_burnable(tree, m - 1)):
        b, _ = burning_number(tree)
        raise ValueError(f"tree has burning number {b}, not {m}")
    if tree.is_path():
        return not is_m_burnable(make_path(tree.order + 1), m)
    dec = topo_mod.decompose(tree)
    candidates = []
    for _, path in dec.arms:
        candidates.append((path[0], path[1]))
    for _, _, path in dec.internal_paths:
        candidates.append((path[0], path[1]))
    seen = set()
    for u, v in candidates:
        bigger = subdivide_edge(tree, u, v)
        key = canonical_key(bigger)
        if key in seen:
            continue
        seen.add(key)
        if is_m_burnable(bigger, m):
            return False
    return True


def _partitions(total: int, parts: int) -> Iterator[Tuple[int, ...]]:
    """Non-increasing partitions of `total` into exactly `parts` positive
    parts, in decreasing lexicographic order.  Iterative,
    so `parts` is not bounded by the recursion limit: the next partition
    lowers by one the rightmost part whose successors still fit under the
    lowered value, then refills them with the largest parts that fit."""
    if parts < 1 or total < parts:
        return
    a = [0] * parts
    j, rest, top = 0, total, total
    while True:
        for t in range(j, parts):  # a[j:]: the largest parts <= top summing to rest
            top = a[t] = min(top, rest - (parts - 1 - t))
            rest -= top
        yield tuple(a)
        rest = a[-1]  # sum(a[j:]) as j moves left
        for j in range(parts - 2, -1, -1):
            rest += a[j]
            top = a[j] - 1
            if rest - top <= (parts - 1 - j) * top:
                break
        else:
            return
        a[j] = top
        j, rest = j + 1, rest - top


def _partition_count(total: int, parts: int) -> int:
    """How many partitions `_partitions(total, parts)` yields, in
    O(parts * (total - parts)) steps.  Taking one from each part leaves the
    partitions of total - parts into at most `parts` parts, which by
    conjugation are those into parts of size at most `parts`; the
    recurrence adds the part sizes one at a time."""
    if parts < 1 or total < parts:
        return 0
    rest = total - parts
    ways = [1] + [0] * rest
    for size in range(1, min(parts, rest) + 1):
        for j in range(size, rest + 1):
            ways[j] += ways[j - size]
    return ways[rest]


def ln_estimate(n: int, m_range: Sequence[int]) -> LnEstimate:
    """Per-m minimal thresholds L with property: every n-path forest of total
    order m*m and shortest path >= L is m-burnable; each threshold is certified
    by a counterexample forest at L-1 when one exists."""
    if n < 2:
        raise ValueError("n must be at least 2")
    per_m: Dict[int, int] = {}
    counterexamples: Dict[int, Optional[Tuple[int, ...]]] = {}
    vacuous = []
    for m in m_range:
        total = m * m
        if total < n:
            vacuous.append(m)
            continue
        bad = [
            p
            for p in _partitions(total, n)
            if not path_forest_burnable(PathForest(p), m)
        ]
        if not bad:
            per_m[m] = 1
            counterexamples[m] = None
        else:
            threshold = max(min(p) for p in bad) + 1
            per_m[m] = threshold
            counterexamples[m] = next(
                p for p in bad if min(p) == threshold - 1
            )
    return LnEstimate(
        per_m=per_m,
        counterexamples=counterexamples,
        vacuous=tuple(vacuous),
    )
