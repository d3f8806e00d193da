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

b and an optimal burning sequence are invariants of a tree's isomorphism
class.  A memo keyed by canonical key keeps, for a bounded number of
classes, one optimal witness as indices into the class's run order
(`tree.canonical_runs`), so b is its length; only `burning_number` writes
it, and `is_m_burnable` reads b from it.  A stored witness is exact for
every tree of its class: i -> run_order[i] matches the vertices of two
trees with one key under an isomorphism, isomorphisms preserve distances,
and every mapped witness is verified again on the caller's tree.  A hit
reads only the key and the run order, which come off the tree's runs of
degree-2 vertices; the per-vertex labelling (`tree.canonical_form`) is
built only on a miss.  A class without a witness is searched on its
canonical parent array, so no witness depends on which isomorphic trees
came first.  Trees with at most one branch vertex bypass the memo, since the
segment engine is cheap and the scan for their burning number starts at b.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import accumulate
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .tree import (
    Tree,
    _runs,
    canonical_form,
    canonical_key,
    canonical_runs,
    make_path,
    parent_diameter,
    subdivide_edge,
)
from . import topology as topo_mod


class BurningSchedule(NamedTuple):
    """Ordered burning sources x_1..x_m."""

    sources: Tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.sources)


class NeighborhoodCover(NamedTuple):
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


class _PathForestFields(NamedTuple):
    path_orders: Tuple[int, ...]


class PathForest(_PathForestFields):
    """Disjoint union of paths, stored as the list of path orders."""

    __slots__ = ()

    def __new__(cls, path_orders: Tuple[int, ...]) -> "PathForest":
        if not path_orders:
            raise ValueError("a path forest needs at least one path")
        if any(p < 1 for p in path_orders):
            raise ValueError("path orders must be positive")
        return _PathForestFields.__new__(cls, path_orders)


class LnEstimate(NamedTuple):
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
        line = [end] + _runs(tree._adj, end)[0] if tree.order > 1 else [end]
        return None, [line]
    head = tree.branch_vertices()[0]
    return head, _runs(tree._adj, head)


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


def _cover_general(parent: Sequence[int], m: int) -> Optional[List[Tuple[int, int]]]:
    """Complete covering search for arbitrary trees, branching on radii only.

    The tree is given as a parent array on ids 0..n-1 with parent[i] < i
    for i >= 1 and parent[0] = -1 (a `canonical_form`'s third field), and
    is rooted at 0; the cover is returned as (radius, centre) pairs in
    those ids.

    Let u be a deepest uncovered vertex.  Some remaining ball covers u.  If
    a radius-r ball B covers u, the radius-r ball centred at a, u's ancestor
    at distance r (the root if u is shallower), covers every uncovered
    vertex that B covers.  Take an uncovered w in B, with B centred at c; as
    u is deepest, depth(w) <= depth(u).  If w lies under a, then
    d(a, w) = depth(w) - depth(a) <= depth(u) - depth(a) <= r.  If it does
    not, then either c lies under a, so its path to w runs through a and
    d(a, w) <= d(c, w) <= r, or c lies outside a's subtree and
    d(c, u) = d(c, a) + r <= r forces c = a.  Covering more never hurts, so
    the search branches only on which remaining radius covers u, largest
    first, and memoizes failed (remaining radii, uncovered set) states, the
    radii as a bit set.  It recurses once per ball placed, so never deeper
    than m, whatever the radii or the height.  When m - 1 reaches the
    height, the first ball tried, centred at the root, covers the tree, and
    that cover is returned at once.

    Vertices are numbered deepest first, ties by id, so the lowest set bit
    of the uncovered mask is a deepest uncovered vertex.  Ball masks come
    from two recurrences, with down(a, r) the vertices under a (a included)
    at most r levels below it:

    - ball(a, r) = down(a, r) | ball(parent(a), r - 1), with ball(., -1)
      and the root's parent's ball empty.  A vertex w under a is within r
      of a iff it lies at most r levels below a.  Any other w has its path
      from a through parent(a), so d(a, w) = 1 + d(parent(a), w); and every
      vertex within r - 1 of parent(a) is within r of a.  Unrolled, ball(a, r)
      is the union of down(a_j, r - j) over the ancestors a_j of a at
      distance j <= r.
    - down(a, r) = bit(a) | OR of down(c, r - 1) over the children c of a,
      for r >= 1: a vertex below a lies under exactly one child c, one
      level deeper than below c.  Its solution is
      down(a, r) = sub(a) & upto(depth(a) + r), with sub(a) the vertices
      under a (the same recurrence with no depth cut) and upto(d) the
      vertices of depth at most d, the bits above those of the vertices
      deeper than d.

    sub comes from one reverse pass over the array, as every child follows
    its parent, and upto from one pass over the levels: one mask per vertex
    and per level.  Each vertex the search meets as u gets a row of m ball
    masks, each built the first time its radius is tried there.
    """
    n = len(parent)
    depth = [0] * n
    for i in range(1, n):
        depth[i] = depth[parent[i]] + 1
    verts = sorted(range(n), key=depth.__getitem__, reverse=True)
    height = depth[verts[0]]
    if m > height:
        return [(m - 1, 0)]
    bit = [0] * n
    for pos, v in enumerate(verts):
        bit[v] = 1 << pos
    sub = bit[:]
    for i in range(n - 1, 0, -1):
        sub[parent[i]] |= sub[i]
    level = [0] * (height + 1)
    for d in depth:
        level[d] += 1
    full = (1 << n) - 1
    upto = [0] * (height + 1)
    deeper = 0  # how many vertices lie deeper than d
    for d in range(height, -1, -1):
        upto[d] = full >> deeper << deeper
        deeper += level[d]

    def ancestor(u: int, r: int) -> int:
        """u's ancestor at distance r, or the root if u is shallower."""
        for _ in range(min(r, depth[u])):
            u = parent[u]
        return u

    def ball(a: int, r: int) -> int:
        mask = 0
        reach = depth[a] + r  # the deepest level down(a_j, r - j) reaches
        while a >= 0 and r >= 0:
            mask |= sub[a] & upto[min(reach, height)]
            a, r, reach = parent[a], r - 1, reach - 2
        return mask

    # rows[u][r] = ball(ancestor(u, r), r), 0 until built
    rows: List[Optional[List[int]]] = [None] * n
    failed = set()

    def rec(radii: int, uncovered: int) -> Optional[List[Tuple[int, int]]]:
        """A cover of `uncovered` by balls of the radii r whose bit 1 << r is
        set in `radii`, or None."""
        if not uncovered:
            return []
        key = uncovered << m | radii
        if not radii or key in failed:
            return None
        u = verts[(uncovered & -uncovered).bit_length() - 1]
        row = rows[u]
        if row is None:
            row = rows[u] = [0] * m
        rest = radii
        while rest:
            r = rest.bit_length() - 1
            rest ^= 1 << r
            mask = row[r] or ball(ancestor(u, r), r)
            row[r] = mask
            sub_cover = rec(radii ^ 1 << r, uncovered & ~mask)
            if sub_cover is not None:
                return [(r, ancestor(u, r))] + sub_cover
        failed.add(key)
        return None

    return rec((1 << m) - 1, full)


# Isomorphism classes whose witnesses the memo keeps, well above the ~1,100
# trees of one pass of order-39 chain(3,3,3,3) orbits.
_MEMO_CLASSES = 4096

# canonical key -> an optimal witness as indices into the class's run order
# (`canonical_runs`), written only by `burning_number`, which drops the
# oldest class first at _MEMO_CLASSES
_memo: Dict[str, Tuple[int, ...]] = {}


def _witness_from_cover(
    tree: Tree, k: int, cover: List[Tuple[int, int]]
) -> BurningSchedule:
    """Turn a covering by balls of radii k-1..0 into a valid burning
    sequence of length k by simulating the rounds; needs k <= b(tree).

    If the designated center is already burned when its round arrives, or
    the cover leaves that radius unused, any vertex that keeps the distance
    condition may be lit instead: by `_burn`'s proof, any vertex not burned
    before that round's spread; the least unburned one when there is one.
    Coverage never depends on that choice: a center burned at round s <= t
    still burns its whole radius-(k-1-t) ball by round k.

    Such a vertex exists in every round when k <= b.  Each source lit so far
    kept the distance condition, so a tree fully burned before round t <= k
    has a burning sequence of length t - 1 < k, and b < k.  When k > b the
    tree may burn out early, and that is a `ValueError`, whatever the cover.
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
                if not fresh:  # burned out in t rounds, so b <= t < k
                    raise ValueError(f"a witness of length {k} needs k <= b(tree)")
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
    vertices whose class has a stored witness reads b off it, its length,
    and builds no canonical labelling; any other decides once on its
    canonical parent array and writes nothing to the memo.
    """
    if m < 1:
        raise ValueError("m must be positive")
    m = min(m, tree.order)
    if len(tree.branch_vertices()) <= 1:
        legs = _legs(tree)
        return m >= _scan_start(tree, legs) and _cover_segments(legs, m) is not None
    ids = _memo.get(canonical_runs(tree)[0])
    if ids is not None:
        return m >= len(ids)
    return m >= _scan_start(tree) and _cover_general(canonical_form(tree)[2], m) is not None


def _scan_start(tree: Tree, legs: Optional[_Legs] = None) -> int:
    """The lower bound on b(tree) where `burning_number` starts its scan;
    the proof is in that function's docstring.  A path or spider reads it
    off its `legs`, with no BFS: a path of order n has diameter n - 1, and
    a spider has one leaf per leg and its two longest legs as diameter.
    Any other tree reads its diameter off its canonical parent array."""
    if len(tree.branch_vertices()) > 1:
        return math.isqrt(parent_diameter(canonical_form(tree)[2])) + 1
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
    witness gets it mapped through its run order and verified, with no
    cover search and no canonical labelling.  Otherwise the scan runs on
    the class's canonical parent array from `_scan_start`, and the cover at
    b becomes a witness on the tree that array builds (`Tree._rooted`); its
    BFS ids map through `order` to this tree's vertices, and those are
    stored as their run-order indices.  For every tree of the class the map
    from BFS id to run index is the same, as both orders are read off the
    same sorted runs, so a hit returns the vertices the search would.  That
    cover is a function of the array and b alone, so the witness is a
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
    key, run_order = canonical_runs(tree)
    ids = _memo.get(key)
    if ids is None:
        _, order, parent = canonical_form(tree)
        k, cover = _first_cover(_scan_start(tree), lambda k: _cover_general(parent, k))
        sources = [order[i] for i in _witness_from_cover(Tree._rooted(parent), k, cover).sources]
        if len(_memo) >= _MEMO_CLASSES:
            del _memo[next(iter(_memo))]
        _memo[key] = tuple(map(run_order.index, sources))
        return k, _checked(tree, sources)
    return len(ids), _checked(tree, [run_order[i] for i in ids])


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
    `burning_number` on a tree with two or more branch vertices, its stored
    witness answers both without a search.  Subdivided trees are tried once
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


# The most partitions `spider.verify_min_diameter` (5-50 us each at n = 3..6,
# m = 3..7, CPython 3.11 on a shared 2-core x86 machine: about a minute) and
# `ln_estimate` (over its whole m-range) walk.
MAX_PARTITIONS = 10**6


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
    """How many partitions `_partitions(total, parts)` yields, or
    MAX_PARTITIONS + 1 for any count above the cap.  Taking one from each
    part leaves the partitions of r = total - parts into parts of size at
    most s = min(parts, r) (by conjugation).  For s <= 2 there are r // 2 + 1
    (or one); for s >= 3 at least r^2 / 12, so r <= 3464 below the cap.
    The recurrence adds the sizes one at a time to r + 1 counts held at the
    cap, and stops once the count, which only grows, passes it."""
    over = MAX_PARTITIONS + 1
    if parts < 1 or total < parts:
        return 0
    rest = total - parts
    sizes = min(parts, rest)
    if sizes <= 2:
        return min(rest // 2 + 1, over) if sizes == 2 else 1
    if rest**2 > 12 * MAX_PARTITIONS:
        return over
    ways = [1] * (rest + 1)  # parts of size 1 only
    for size in range(2, sizes + 1):
        for j in range(size, rest + 1):
            ways[j] = min(ways[j] + ways[j - size], over)
        if ways[rest] == over:
            break
    return ways[rest]


def ln_estimate(n: int, m_range: Sequence[int]) -> LnEstimate:
    """Per-m minimal thresholds L with property: every n-path forest of total
    order m*m and shortest path >= L is m-burnable; each threshold is certified
    by a counterexample forest at L-1 when one exists."""
    if n < 2:
        raise ValueError("n must be at least 2")
    # the partitions to test over the whole m-range, counted up to the cap
    counts = accumulate(_partition_count(m * m, n) for m in m_range)
    if any(c > MAX_PARTITIONS for c in counts):
        raise ValueError(
            f"more than {MAX_PARTITIONS} path-length partitions to test, the most allowed"
        )
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
