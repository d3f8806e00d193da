import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from treeburn import burning, spider
from treeburn.burning import (
    BurningSchedule,
    _cover_general,
    _cover_segments,
    _forest_groups,
    _legs,
    _scan_start,
    _witness_from_cover,
    PathForest,
    burning_number,
    enumerate_optimal_schedules,
    is_m_burnable,
    is_maximally_m_burnable,
    ln_estimate,
    path_forest_burnable,
    verify_schedule,
)
from treeburn.spider import extremal_order
from treeburn.topology import LengthAssignment, expand, make_chain_topology
from treeburn.tree import (
    Tree,
    canonical_form,
    canonical_key,
    canonical_runs,
    diameter,
    make_path,
    make_spider,
    make_star,
    parse_tree,
)

from conftest import bicentroid_tree, chain_images, random_tree

REPO = Path(__file__).resolve().parent.parent


def brute_burning_number(tree):
    """Independent oracle: try all source sequences of increasing length."""
    n = tree.order
    d = tree.dist
    for m in range(1, n + 1):
        for seq in itertools.permutations(tree.vertices, m):
            if any(
                d[seq[i]][seq[j]] < j - i
                for i in range(m)
                for j in range(i + 1, m)
            ):
                continue
            covered = {
                w
                for i, v in enumerate(seq)
                for w in tree.vertices
                if d[v][w] <= m - 1 - i
            }
            if len(covered) == n:
                return m
    return n


def brute_forest_burnable(path_orders, m):
    """Independent oracle: assign each of the m ball sizes to a path."""
    sizes = [2 * (m - i) + 1 for i in range(1, m + 1)]
    k = len(path_orders)
    for assign in itertools.product(range(k), repeat=m):
        need = list(path_orders)
        for size, path in zip(sizes, assign):
            need[path] -= size
        if all(x <= 0 for x in need):
            return True
    return False


def relabelled_path(n):
    """Path on n vertices whose smallest id, vertices[0], sits in the middle."""
    label = [3 * ((i - n // 2) % n) + 5 for i in range(n)]
    return Tree([(label[i], label[i + 1]) for i in range(n - 1)], vertices=label[:1])


def test_path_law_matches_sqrt():
    cases = [(n, make_path(n)) for n in range(1, 50)]
    cases += [(n, relabelled_path(n)) for n in range(1, 50)]
    cases.append((1, parse_tree("vertex 7")))
    for n, t in cases:
        b, sched = burning_number(t)
        assert b == math.ceil(math.sqrt(n)), t.edges
        assert verify_schedule(t, sched).is_burning_sequence


def test_known_path_schedule():
    # path on 9 vertices: sources at positions 7, 3, 1 (1-based) form a
    # tight 3-round schedule
    p = make_path(9)
    flags = verify_schedule(p, BurningSchedule(sources=(6, 2, 0)))
    assert flags.is_burning_sequence
    assert flags.covers_all and flags.distance_ok
    assert flags.pairwise_disjoint
    assert flags.leaves_last


def test_verify_rejects_bad_schedules():
    p = make_path(9)
    assert not verify_schedule(p, BurningSchedule(sources=(0, 1, 2))).covers_all
    assert not verify_schedule(p, BurningSchedule(sources=(6, 0, 5))).distance_ok
    with pytest.raises(ValueError):
        verify_schedule(p, BurningSchedule(sources=(6, 6, 0)))
    with pytest.raises(ValueError):
        verify_schedule(p, BurningSchedule(sources=(99,)))


def oracle_flags(tree, sources):
    """Independent oracle: every verify_schedule field from the all-pairs
    distance table, by the definitions."""
    d = tree.dist
    m = len(sources)
    hoods = tuple(
        frozenset(v for v in tree.vertices if d[x][v] <= m - i)
        for i, x in enumerate(sources, start=1)
    )
    union = frozenset().union(*hoods)
    covers_all = union == frozenset(tree.vertices)
    leaves_last = covers_all and all(
        min(i + d[x][leaf] for i, x in enumerate(sources, start=1)) == m
        for leaf in tree.leaves()
    )
    branch = set(tree.branch_vertices())
    lead = 0
    while lead < m and sources[lead] in branch:
        lead += 1
    prefix = lead if lead and branch <= frozenset().union(*hoods[:lead]) else 0
    return dict(
        neighborhoods=hoods,
        covers_all=covers_all,
        distance_ok=all(
            d[sources[i]][sources[j]] >= j - i for i in range(m) for j in range(i + 1, m)
        ),
        pairwise_disjoint=all(
            not hoods[i] & hoods[j] for i in range(m) for j in range(i + 1, m)
        ),
        leaves_last=leaves_last,
        branch_prefix_length=prefix,
    )


def test_verify_schedule_matches_distance_table(rng):
    # random source tuples mostly fail to cover or break the distance
    # condition; optimal witnesses and their prefixes add valid and tight ones
    seen = set()
    for _ in range(500):
        t = random_tree(rng, rng.randint(1, 30))
        if rng.random() < 0.25:
            full = burning_number(t)[1].sources
            sources = full[: rng.randint(1, len(full))]
        else:
            sources = tuple(rng.sample(t.vertices, min(t.order, rng.randint(1, 7))))
        got = verify_schedule(t, BurningSchedule(sources=sources))
        want = oracle_flags(t, sources)
        for field, value in want.items():
            assert getattr(got, field) == value, (t.edges, sources, field)
        seen.update((f, bool(v)) for f, v in want.items() if f != "neighborhoods")
    # every flag takes both values, and some prefix of branch vertices counts
    assert len(seen) == 10, seen


def test_star_burning_number():
    b, _ = burning_number(make_star(5))
    assert b == 2


def test_burning_number_matches_brute_force(rng):
    trees = [random_tree(rng, rng.randint(1, 9)) for _ in range(40)]
    # trees with two or more branch vertices go to the general engine
    while len(trees) < 70:
        t = random_tree(rng, rng.randint(6, 10))
        if len(t.branch_vertices()) >= 2:
            trees.append(t)
    for t in trees:
        b, sched = burning_number(t)
        assert b == brute_burning_number(t), t.edges
        assert verify_schedule(t, sched).is_burning_sequence
        assert len(sched.sources) == b
        assert b == 1 or not is_m_burnable(t, b - 1), t.edges


def reference_witness(tree, k, cover):
    """Reference for `_witness_from_cover`: the plain O(n*k) simulation, with
    a full BFS per source and every vertex tested against every source on a
    re-site."""
    center_for = {k - 1 - r: c for r, c in cover}
    burned = set()
    sources = []
    dist = []
    for t in range(k):
        if burned:
            burned |= {w for v in burned for w in tree.neighbors(v)}
        c = center_for.get(t)
        if c is None or c in burned or c in sources:
            candidates = [
                v
                for v in tree.vertices
                if v not in sources and all(d[v] >= t - j for j, d in enumerate(dist))
            ]
            if not candidates:
                raise ValueError("no admissible source")
            pool = [v for v in candidates if v not in burned] or candidates
            c = min(pool)
        burned.add(c)
        sources.append(c)
        dist.append(tree.distances_from(c))
    return tuple(sources)


def test_witness_matches_reference_simulation(rng):
    def outcome(fn, *args):
        try:
            out = fn(*args)
        except ValueError:
            return "invalid"
        return getattr(out, "sources", out)

    resited = invalid = 0
    for _ in range(400):
        t = random_tree(rng, rng.randint(1, 25))
        b = burning_number(t)[0]
        k = b + (rng.random() < 0.2)
        if len(t.branch_vertices()) <= 1:
            cover = _cover_segments(_legs(t), k)
        else:
            _, order, parent = canonical_form(t)
            cover = [(r, order[c]) for r, c in _cover_general(parent, k)]
        for _ in range(rng.randint(0, 3)):
            if not cover:
                break
            at = rng.randrange(len(cover))
            r, c = cover[at]
            kind = rng.choice(["unused", "burned", "duplicate"])
            if kind == "unused":
                del cover[at]
            elif kind == "burned":
                # a centre within reach of an earlier round's fire
                earlier = [(q, x) for q, x in cover if q > r]
                if earlier:
                    q, x = rng.choice(earlier)
                    near = t.ball(x, q - r)
                    cover[at] = (r, rng.choice(sorted(near)))
            else:
                cover[at] = (r, rng.choice(cover)[1])
        want = outcome(reference_witness, t, k, cover)
        assert outcome(_witness_from_cover, t, k, cover) == want, (t.edges, k, cover)
        invalid += want == "invalid"
        assert want != "invalid" or k > b, (t.edges, k, cover)
        centres = dict(cover)
        resited += want != "invalid" and any(
            centres.get(k - 1 - i) != x for i, x in enumerate(want)
        )
    # most covers force a re-site; a few with k = b + 1 leave no admissible
    # source, and both simulations must reject those
    assert resited > 200 and 0 < invalid < 100, (resited, invalid)


def test_long_path_burning_number():
    # deep enough that a recursive canonical form would overflow the stack
    assert burning_number(make_path(5000))[0] == 71


def contract_edge(tree, u, v):
    """T/e for the edge e = uv: v is merged into u."""
    edges = [
        (u if a == v else a, u if b == v else b)
        for a, b in tree.edges
        if {a, b} != {u, v}
    ]
    return Tree(edges, vertices=[u])


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["tree", "path", "spider"]),
    st.integers(min_value=2, max_value=30),
    st.randoms(),
)
def test_contraction_never_raises_burning_number(shape, n, pyrng):
    # the contraction map T -> T/e is 1-Lipschitz, so it takes a cover of T by
    # balls of radii m-1..0 onto a cover of T/e; spiders with a leg of length
    # one contract to paths, across the engine dispatch
    rng = random.Random(pyrng.randint(0, 10**9))
    if shape == "tree":
        t = random_tree(rng, n)
    elif shape == "path" or n < 4:
        t = make_path(n)
    else:
        legs = [1] * rng.randint(3, min(6, n - 1))
        for _ in range(n - 1 - len(legs)):
            legs[rng.randrange(len(legs))] += 1
        t = make_spider(legs)
    b, _ = burning_number(t)
    for u, v in t.edges:
        assert burning_number(contract_edge(t, u, v))[0] <= b, (t.edges, u, v)


def test_spider_solver_matches_brute_force(rng):
    for _ in range(15):
        arms = [rng.randint(1, 3) for _ in range(rng.randint(3, 4))]
        t = make_spider(arms)
        assert burning_number(t)[0] == brute_burning_number(t), arms


def test_scan_start_never_exceeds_burning_number():
    # the decision at start - 1 does not read the start bound, so it shows
    # start <= b independently of burning_number
    for legs in range(3, 6):
        for arms in itertools.combinations_with_replacement(range(1, 7), legs):
            t = make_spider(arms)
            k = _scan_start(t)
            assert k == 1 or not is_m_burnable(t, k - 1), arms
    for n in range(1, 201):
        assert _scan_start(make_path(n)) == math.isqrt(n - 1) + 1


def test_is_m_burnable_monotone(rng):
    for _ in range(10):
        t = random_tree(rng, rng.randint(2, 14))
        b, _ = burning_number(t)
        assert not is_m_burnable(t, b - 1) if b > 1 else True
        assert is_m_burnable(t, b)
        assert is_m_burnable(t, b + 1)


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty witness memo with the module's bound, for this test only."""
    memo = {}
    monkeypatch.setattr(burning, "_memo", memo)
    return memo


def test_paths_and_spiders_skip_the_memo(monkeypatch, fresh_memo, rng):
    def refuse(tree):
        raise AssertionError("canonical_key called")

    monkeypatch.setattr(burning, "canonical_key", refuse)
    cases = [(make_path(n), math.isqrt(n - 1) + 1) for n in (1, 2, 9, 10, 50)]
    for _ in range(8):
        legs = [rng.randint(1, 3) for _ in range(rng.randint(3, 4))]
        t = make_spider(legs)
        cases.append((t, brute_burning_number(t)))
    for t, want in cases:
        b, sched = burning_number(t)
        assert b == want, t.edges
        assert verify_schedule(t, sched).is_burning_sequence
        assert is_m_burnable(t, b)
        assert b == 1 or not is_m_burnable(t, b - 1)
    assert len(fresh_memo) == 0


def test_memo_proves_b_minus_one_once_per_orbit(monkeypatch, fresh_memo):
    chain, _ = make_chain_topology(3, 3, 3, 3)
    arms, internals = chain.arms(), chain.internal_edges()
    images = chain_images((4, 5, 6, 7, 4, 5, 3, 2, 2))
    trees = [
        expand(chain, LengthAssignment(dict(zip(arms, v[:6])), dict(zip(internals, v[6:]))))
        for v in images
    ]
    assert len(set(trees)) == 8 and {t.order for t in trees} == {39}
    calls = []
    engine = burning._cover_general

    def counted(tree, m):
        calls.append(m)
        return engine(tree, m)

    monkeypatch.setattr(burning, "_cover_general", counted)
    below = []
    for t in trees:
        del calls[:]
        b, sched = burning_number(t)
        assert b == 6 and verify_schedule(t, sched).is_burning_sequence
        below.append(sum(m < b for m in calls))
    # the scan starts at 5 (diameter 17), so the first image proves k = 5
    # infeasible and every other image maps its class's stored witness
    assert below == [1] + [0] * 7
    del calls[:]
    assert not is_m_burnable(trees[3], 5) and is_m_burnable(trees[5], 6)
    assert calls == []


def test_memo_bound_and_eviction(monkeypatch, rng):
    memo = {}
    monkeypatch.setattr(burning, "_memo", memo)
    monkeypatch.setattr(burning, "_MEMO_CLASSES", 6)
    trees, keys = [], set()
    while len(trees) < 15:
        t = random_tree(rng, rng.randint(6, 10))
        if len(t.branch_vertices()) >= 2 and canonical_key(t) not in keys:
            keys.add(canonical_key(t))
            trees.append(t)
    first = [burning_number(t)[0] for t in trees]
    assert len(memo) == 6
    assert canonical_key(trees[0]) not in memo  # evicted
    for t, want in zip(trees, first):
        b, sched = burning_number(t)
        assert b == want == brute_burning_number(t), t.edges
        assert verify_schedule(t, sched).is_burning_sequence
        assert is_m_burnable(t, b) and (b == 1 or not is_m_burnable(t, b - 1))
        assert len(memo) <= 6


def chain_trees(v):
    """The order-39 chain(3,3,3,3) trees of length vector v's orbit."""
    chain, _ = make_chain_topology(3, 3, 3, 3)
    arms, internals = chain.arms(), chain.internal_edges()
    return [
        expand(chain, LengthAssignment(dict(zip(arms, w[:6])), dict(zip(internals, w[6:]))))
        for w in chain_images(v)
    ]


def exhaustive_cover(tree, radii):
    """Whether balls of the given distinct radii cover `tree`, by exhaustive
    search over `tree.dist` bitmasks: branch on every radius left and every
    centre within that radius of the least uncovered vertex."""
    vertices = tree.vertices
    bit = {v: 1 << i for i, v in enumerate(vertices)}
    dist = tree.dist
    ball = {
        (c, r): sum(bit[v] for v, d in dist[c].items() if d <= r)
        for c in vertices
        for r in radii
    }
    failed = set()

    def search(uncovered, left):
        if not uncovered:
            return True
        if not left or (uncovered, left) in failed:
            return False
        u = vertices[(uncovered & -uncovered).bit_length() - 1]
        for j, r in enumerate(left):
            rest = left[:j] + left[j + 1:]
            for c, d in dist[u].items():
                if d <= r and search(uncovered & ~ball[c, r], rest):
                    return True
        failed.add((uncovered, left))
        return False

    return search((1 << len(vertices)) - 1, tuple(radii))


def test_chain_orbit_with_burning_number_seven():
    # an order-39 chain(3,3,3,3) tree, so b >= 6, whose b is 7: no cover by
    # radii 5..0 exists and one by 6..0 does, found without the engine.  The
    # chain-sweep benchmark's known answer, b = 6 for every such tree
    # (`perfbench/workloads.py`), does not hold for this orbit.
    tree = chain_trees((7, 4, 6, 5, 6, 6, 2, 1, 1))[0]
    assert tree.order == 39
    b, sched = burning_number(tree)
    assert b == 7 and verify_schedule(tree, sched).is_burning_sequence
    assert not exhaustive_cover(tree, range(5, -1, -1))
    assert exhaustive_cover(tree, range(6, -1, -1))


def relabelled(tree, rng):
    """The same tree on random, non-contiguous ids."""
    ids = dict(zip(tree.vertices, rng.sample(range(10 * tree.order), tree.order)))
    return Tree([(ids[a], ids[b]) for a, b in tree.edges])


def branchy_trees(rng, count, lo, hi):
    """`count` random trees of order lo..hi with two or more branch vertices."""
    out = []
    while len(out) < count:
        t = random_tree(rng, rng.randint(lo, hi))
        if len(t.branch_vertices()) >= 2:
            out.append(t)
    return out


def test_orbit_repeats_run_no_cover_search(monkeypatch, fresh_memo):
    covers, witnesses = [], []
    cover, witness = burning._cover_general, burning._witness_from_cover
    monkeypatch.setattr(
        burning, "_cover_general", lambda t, m: covers.append(m) or cover(t, m)
    )
    monkeypatch.setattr(
        burning,
        "_witness_from_cover",
        lambda t, k, c: witnesses.append(k) or witness(t, k, c),
    )
    runs = []
    for t in chain_trees((4, 5, 6, 7, 4, 5, 3, 2, 2)):
        del covers[:], witnesses[:]
        b, sched = burning_number(t)
        assert b == 6 and verify_schedule(t, sched).is_burning_sequence
        runs.append((list(covers), list(witnesses)))
    # the first image proves 5 infeasible and covers at 6 once; the other
    # seven map the class's stored witness
    assert runs == [([5, 6], [6])] + [([], [])] * 7


def test_witness_depends_only_on_the_tree(monkeypatch, rng):
    trees = branchy_trees(rng, 40, 8, 30)
    monkeypatch.setattr(burning, "_MEMO_CLASSES", 1)
    for t, other in zip(trees, trees[1:]):
        if canonical_key(other) == canonical_key(t):
            continue
        monkeypatch.setattr(burning, "_memo", {})
        fresh = burning_number(t)[1].sources
        monkeypatch.setattr(burning, "_memo", {})
        burning_number(relabelled(t, rng))  # the class's witness comes from a copy
        after_copy = burning_number(t)[1].sources
        burning_number(other)  # evicts t's class
        assert canonical_key(t) not in burning._memo
        after_eviction = burning_number(t)[1].sources
        assert fresh == after_copy == after_eviction, t.edges


def test_stored_witness_answers_at_and_below_b(monkeypatch, fresh_memo):
    t = chain_trees((4, 5, 6, 7, 4, 5, 3, 2, 2))[0]
    b, sched = burning_number(t)
    assert canonical_key(t) in fresh_memo
    monkeypatch.setattr(burning, "_cover_general", None)  # no search may run
    assert not is_m_burnable(t, b - 1)
    assert is_m_burnable(t, b) and is_m_burnable(t, b + 3)
    assert burning_number(t) == (b, sched)


def order_keeping_copy(tree, rng):
    """The same tree on random ids in the same relative order, so every
    vertex's neighbours come in the same order as their originals'."""
    ids = dict(zip(tree.vertices, sorted(rng.sample(range(10 * tree.order), tree.order))))
    return Tree([(ids[a], ids[b]) for a, b in tree.edges]), ids


def test_memo_hits_build_no_labelling(monkeypatch, fresh_memo, rng):
    labelled = []
    form = burning.canonical_form
    monkeypatch.setattr(burning, "canonical_form", lambda u: labelled.append(u) or form(u))
    trees = chain_trees((4, 5, 6, 7, 4, 5, 3, 2, 2))[:1] + branchy_trees(rng, 40, 8, 30)
    for t in trees:
        b, sched = burning_number(t)
        del labelled[:]
        key, run_order = canonical_runs(t)
        for u, ids in [order_keeping_copy(t, rng), (relabelled(t, rng), None)]:
            got, image = canonical_runs(u)
            assert got == key
            b_u, sched_u = burning_number(u)
            assert b_u == b and verify_schedule(u, sched_u).is_burning_sequence
            # the stored witness maps through the canonical isomorphism, which
            # is the relabelling itself when it keeps every neighbour order
            iso = dict(zip(run_order, image))
            assert sched_u.sources == tuple(iso[x] for x in sched.sources), t.edges
            if ids is not None:
                assert sched_u.sources == tuple(ids[x] for x in sched.sources)
            assert is_m_burnable(u, b) and not is_m_burnable(u, b - 1)
        assert labelled == [], t.edges


def test_decisions_never_write_the_memo(monkeypatch, rng):
    for t in branchy_trees(rng, 30, 8, 30):
        monkeypatch.setattr(burning, "_memo", {})
        b, sched = burning_number(t)
        monkeypatch.setattr(burning, "_memo", {})
        for k in range(1, b + 1):
            assert is_m_burnable(t, k) == (k == b), (t.edges, k)
        assert burning._memo == {}, t.edges
        # decisions first, then the scan: the same witness as on an empty memo
        assert burning_number(t) == (b, sched), t.edges


def test_witness_from_cover_needs_k_at_most_b():
    # P4 has b = 2; the radius-2 ball at vertex 1 covers it, but the tree
    # burns out after round 2, so no third source keeps the distance condition
    t = make_path(4)
    assert burning_number(t)[0] == 2
    with pytest.raises(ValueError, match=r"k <= b\(tree\)"):
        burning._witness_from_cover(t, 3, [(2, 1)])


def reference_cover_general(tree, m):
    """The deepest-uncovered search on a `Tree`, each ball mask from a
    depth-bounded BFS (`Tree.ball`): rooted at `tree.vertices[0]`, vertices
    numbered deepest first, the same branching and failed-state memo."""
    root = tree.vertices[0]
    depth = tree.distances_from(root)
    verts = sorted(tree.vertices, key=lambda v: -depth[v])
    bit = {v: 1 << i for i, v in enumerate(verts)}
    parent = {w: v for v in verts for w in tree.neighbors(v) if depth[w] > depth[v]}
    balls = {}
    failed = set()

    def rec(radii, uncovered):
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


def test_cover_matches_bfs_ball_reference(rng):
    trees = branchy_trees(rng, 240, 6, 36)
    while len(trees) < 320:
        t = bicentroid_tree(rng, rng.randint(3, 16))
        if len(t.branch_vertices()) >= 2:
            trees.append(t)
    bicentroid = 0
    for t in trees:
        key, _, parent = canonical_form(t)
        bicentroid += key.startswith("B")
        canon = Tree([(i, parent[i]) for i in range(1, len(parent))])
        b = burning_number(t)[0]
        for k in (b - 1, b):
            want = reference_cover_general(canon, k) if k >= 1 else None
            assert _cover_general(parent, k) == want, (t.edges, k)
    assert bicentroid >= 80


def test_cover_on_a_deep_tree_needs_no_recursion_per_level():
    # a path of 6,401 vertices with a pendant leaf at vertices 100 and
    # 6,300: the centroid root sits mid-path, over 3,000 levels above the ends
    n = 6401
    t = Tree([(i, i + 1) for i in range(n - 1)] + [(100, n), (6300, n + 1)])
    _, _, parent = canonical_form(t)
    canon = Tree._rooted(parent)
    height = max(canon.distances_from(0).values())
    assert height >= 3000 and len(t.branch_vertices()) == 2
    assert is_m_burnable(t, t.order)
    # below the height the first ball no longer covers the tree, and each
    # ball mask unrolls its ancestors' down masks over about 3,000 levels
    cover = _cover_general(parent, height)
    assert cover is not None and cover[0][0] == height - 1
    assert set().union(*(canon.ball(a, r) for r, a in cover)) == set(canon.vertices)


def corrupt_stored_witness(tree):
    """Solve `tree`, then replace its class's stored witness by run-order
    indices that do not burn it."""
    b, _ = burning_number(tree)
    key, run_order = canonical_runs(tree)
    bad = tuple(range(b))
    assert not verify_schedule(
        tree, BurningSchedule(tuple(run_order[i] for i in bad))
    ).is_burning_sequence
    burning._memo[key] = bad


def test_corrupted_stored_witness_raises(fresh_memo):
    t = chain_trees((4, 5, 6, 7, 4, 5, 3, 2, 2))[0]
    corrupt_stored_witness(t)
    with pytest.raises(AssertionError, match="internal error"):
        burning_number(t)


def test_corrupted_stored_witness_raises_under_O():
    script = """
import sys
if __debug__:
    sys.exit("not run under -O")
sys.path.insert(0, "tests")
from test_burning import chain_trees, corrupt_stored_witness
from treeburn.burning import burning_number
t = chain_trees((4, 5, 6, 7, 4, 5, 3, 2, 2))[0]
corrupt_stored_witness(t)
try:
    burning_number(t)
except AssertionError as exc:
    print("raised:", exc)
"""
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        cwd=REPO,
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: internal error"), proc.stdout


def test_memo_bound_holds_with_witnesses(monkeypatch, rng):
    memo = {}
    monkeypatch.setattr(burning, "_memo", memo)
    monkeypatch.setattr(burning, "_MEMO_CLASSES", 6)
    trees, keys = [], []
    for t in branchy_trees(rng, 40, 6, 12):
        if canonical_key(t) not in keys:
            keys.append(canonical_key(t))
            trees.append(t)
    for t in trees:
        b, sched = burning_number(t)
        assert len(memo) <= 6
        assert len(memo[canonical_key(t)]) == b
    stored = [k for k in keys if k in memo]
    assert len(trees) > 6 and stored == keys[-6:]
    assert keys[0] not in memo


def test_maximality_check_computes_each_form_once(monkeypatch, fresh_memo):
    import treeburn.tree as tree_mod

    from treeburn.extremal import find_extremal

    chain, _ = make_chain_topology(3, 3, 3, 3)
    t = find_extremal(chain, 5).tree
    assert burning_number(t)[0] == 5
    forms, built = [], []
    centroid, subdivide = tree_mod._centroid, burning.subdivide_edge
    monkeypatch.setattr(tree_mod, "_centroid", lambda u: forms.append(u) or centroid(u))
    monkeypatch.setattr(
        burning, "subdivide_edge", lambda u, a, b: built.append(1) or subdivide(u, a, b)
    )
    assert is_maximally_m_burnable(t, 5)
    # t's form is kept from burning_number; each subdivided tree needs one
    assert len(built) == 9 and len(forms) == len(built)


def test_b_matches_brute_force_under_relabelling(fresh_memo):
    rng = random.Random(20261020)
    for t in branchy_trees(rng, 300, 6, 10):
        want = brute_burning_number(t)
        for u in (t, relabelled(t, rng)):
            b, sched = burning_number(u)
            assert b == want, u.edges
            assert verify_schedule(u, sched).is_burning_sequence


def brute_groups_feasible(path_orders, radii):
    """Independent oracle: send each radius to one path or leave it unused."""
    k = len(path_orders)
    for assign in itertools.product(range(k + 1), repeat=len(radii)):
        need = list(path_orders)
        for r, path in zip(radii, assign):
            if path < k:
                need[path] -= 2 * r + 1
        if all(x <= 0 for x in need):
            return True
    return False


def test_path_forest_matches_brute_force(rng):
    for _ in range(60):
        k = rng.randint(1, 5)
        orders = tuple(rng.randint(1, 12) for _ in range(k))
        m = rng.randint(1, 7)
        assert path_forest_burnable(PathForest(orders), m) == brute_forest_burnable(
            orders, m
        ), (orders, m)


def test_forest_groups_on_radius_subsets(rng):
    # the spider engine hands the DP every radius but the one crossing the head
    for _ in range(150):
        m = rng.randint(1, 7)
        radii = sorted(rng.sample(range(m), rng.randint(0, m)), reverse=True)
        orders = [rng.randint(1, 12) for _ in range(rng.randint(1, 4))]
        groups = _forest_groups(orders, radii)
        assert (groups is not None) == brute_groups_feasible(orders, radii), (
            orders,
            radii,
        )
        if groups is None:
            continue
        assert len(groups) == len(orders)
        pool = list(radii)  # groups are disjoint and drawn from the radii
        for g in groups:
            for r in g:
                pool.remove(r)
        for order, g in zip(orders, groups):
            assert sum(2 * r + 1 for r in g) >= order, (orders, radii, groups)


def test_tight_spider_theorem(rng):
    # legs start at m-1; the segments 2(m-i)+1 (i = 2..m) are dealt out to
    # them, giving the extremal order n(m-1)+1+(m-1)^2
    for m in range(5, 9):
        for _ in range(3):
            legs = [m - 1] * rng.randint(3, 5)
            for i in range(2, m + 1):
                legs[rng.randrange(len(legs))] += 2 * (m - i) + 1
            t = make_spider(legs)
            assert t.order == extremal_order(len(legs), m)
            assert _scan_start(t) == m, legs  # one cover finds b
            b, sched = burning_number(t)
            assert b == m, legs
            assert verify_schedule(t, sched).is_burning_sequence
            head_first = spider.witness_schedule(spider.SpiderProfile(tuple(legs)), m)
            assert head_first.sources[0] == 0, legs
            assert verify_schedule(t, head_first).is_burning_sequence
            legs[rng.randrange(len(legs))] += 1
            t = make_spider(legs)
            assert _scan_start(t) == m + 1, legs
            b, sched = burning_number(t)
            assert b == m + 1, legs
            assert verify_schedule(t, sched).is_burning_sequence


def extremal_legs(rng, n, m):
    """Legs of a random extremal n-leg spider for m: every leg starts at m-1
    and the segments 2(m-i)+1, i = 2..m, are dealt to random legs."""
    legs = [m - 1] * n
    for i in range(2, m + 1):
        legs[rng.randrange(n)] += 2 * (m - i) + 1
    return legs


@pytest.fixture
def forest_dp_calls(monkeypatch):
    """A list that gets one entry per `_forest_groups` call."""
    calls = []
    engine = burning._forest_groups

    def counted(path_orders, radii):
        calls.append(tuple(path_orders))
        return engine(path_orders, radii)

    monkeypatch.setattr(burning, "_forest_groups", counted)
    return calls


def test_extremal_spider_takes_one_forest_dp(rng, forest_dp_calls):
    for n in range(3, 7):
        for m in range(3, 11):
            legs = extremal_legs(rng, n, m)
            t = make_spider(legs)  # head 0
            # the head-centred ball of radius m-1 goes first and covers
            del forest_dp_calls[:]
            assert _cover_segments(_legs(t), m)[0] == (m - 1, 0), legs
            assert len(forest_dp_calls) == 1, legs
            # the scan starts at b = m, so burning_number runs that DP alone
            del forest_dp_calls[:]
            assert burning_number(t)[0] == m and len(forest_dp_calls) == 1, legs
            # n-2 vertices short of extremal the head-centred ball still covers
            legs[legs.index(max(legs))] -= n - 2
            del forest_dp_calls[:]
            assert _cover_segments(_legs(make_spider(legs)), m)[0] == (m - 1, 0), legs
            assert len(forest_dp_calls) == 1, legs


def test_extremal_plus_one_spider_proof_runs_no_forest_dp(rng, forest_dp_calls):
    for n in range(3, 7):
        for m in range(3, 11):
            legs = extremal_legs(rng, n, m)
            legs[rng.randrange(n)] += 1
            t = make_spider(legs)
            # b - 1 = m lies below the scan start, so no cover is tried
            del forest_dp_calls[:]
            assert not is_m_burnable(t, m) and forest_dp_calls == [], legs
            # at b = m+1 the head-centred ball of radius m covers with one DP
            assert _cover_segments(_legs(t), m + 1)[0] == (m, 0), legs
            assert len(forest_dp_calls) == 1, legs
            del forest_dp_calls[:]
            assert burning_number(t)[0] == m + 1 and len(forest_dp_calls) == 1, legs


def test_is_m_burnable_skips_the_cover_below_the_start(monkeypatch, rng):
    calls = []
    engine, general = burning._cover_segments, burning._cover_general

    def counted(legs, m):
        calls.append(m)
        return engine(legs, m)

    monkeypatch.setattr(burning, "_cover_segments", counted)
    monkeypatch.setattr(
        burning, "_cover_general", lambda t, m: calls.append(m) or general(t, m)
    )
    trees = [make_path(n) for n in (1, 2, 10, 50, 1000)]
    for n in range(3, 7):
        for m in range(3, 8):
            legs = extremal_legs(rng, n, m)
            trees.append(make_spider(legs))
            legs[rng.randrange(n)] += 1
            trees.append(make_spider(legs))
    trees += [make_spider([rng.randint(1, 9) for _ in range(rng.randint(3, 6))]) for _ in range(20)]
    for t in trees:
        start, (b, _) = _scan_start(t), burning_number(t)
        for k in range(1, start):
            del calls[:]
            assert not is_m_burnable(t, k) and calls == [], (t.edges, k)
        del calls[:]
        assert is_m_burnable(t, start) == (b == start) and calls == [start], t.edges
    # trees with two or more branch vertices and no stored witness pass the
    # same gate, so every k below the start is answered with no search
    for t in branchy_trees(rng, 30, 8, 40):
        monkeypatch.setattr(burning, "_memo", {})
        start = _scan_start(t)
        for k in range(1, start):
            del calls[:]
            assert not is_m_burnable(t, k) and calls == [], (t.edges, k)
        del calls[:]
        ok = is_m_burnable(t, start)
        assert calls == [start] and ok == (burning_number(t)[0] == start), t.edges


def reference_scan_start(tree):
    """The scan start of a path or spider from the whole tree: two BFS for
    the diameter and a scan for the leaves."""
    k = math.isqrt(diameter(tree)) + 1
    extra = len(tree.leaves()) - 2
    while k * k + extra * (k - 1) < tree.order:
        k += 1
    return k


def test_scan_start_from_legs_matches_diameter_formula(rng):
    for i in range(400):
        if rng.random() < 0.3:
            t = make_path(rng.randint(1, 400))
        else:
            top = rng.choice((3, 10, 60))
            t = make_spider([rng.randint(1, top) for _ in range(rng.randint(3, 8))])
        if t.order > 1 and i % 2:
            t = relabelled(t, rng)
        assert _scan_start(t) == reference_scan_start(t), t.edges
    for _ in range(40):
        if rng.random() < 0.3:
            t = make_path(rng.randint(1, 8))
        else:
            t = make_spider([rng.randint(1, 2) for _ in range(rng.randint(3, 4))])
        assert _scan_start(t) <= brute_burning_number(t), t.edges


def test_lean_check_agrees_with_distance_oracle(rng):
    seen = set()
    for _ in range(400):
        t = random_tree(rng, rng.randint(1, 25))
        sources = list(burning_number(t)[1].sources)
        kind = rng.choice(["valid", "swap", "move", "duplicate"])
        i, j = sorted(rng.sample(range(len(sources)), 2)) if len(sources) > 1 else (0, 0)
        if kind == "swap":
            sources[i], sources[j] = sources[j], sources[i]
        elif kind == "move":
            sources[i] = rng.choice(t.vertices)
        elif kind == "duplicate":
            sources[j] = sources[i]
        flags = oracle_flags(t, sources)
        want = flags["covers_all"] and flags["distance_ok"]
        assert burning._burns(t, sources) == want, (t.edges, sources)
        seen.add((kind, want))
    assert {(k, w) for k in ("swap", "move") for w in (True, False)} <= seen, seen
    assert ("valid", True) in seen and ("duplicate", False) in seen, seen


def test_lean_check_distance_boundary():
    # path 0..7, m = 3: N_2[5] and N_1[1] cover it, so x_3 decides
    p = make_path(8)
    assert burning._burns(p, (5, 1, 3))  # d(x_1, x_3) = 2 = 3 - 1
    assert burning._burns(p, (5, 1, 2))  # d(x_2, x_3) = 1 = 3 - 2
    assert not burning._burns(p, (5, 1, 4))  # d(x_1, x_3) = 1 = 3 - 1 - 1
    assert not burning._burns(p, (5, 1, 1))  # repeated: d(x_2, x_3) = 0
    assert not burning._burns(p, (5, 5, 1))
    assert not burning._burns(p, (5, 1, 99))  # outside the tree
    assert not burning._burns(p, (99,))
    assert not burning._burns(p, (5, 1))  # N_1[5] and N_0[1] leave 0


def test_path_forest_rejects_bad_orders():
    with pytest.raises(ValueError):
        PathForest((0, 3))
    with pytest.raises(ValueError, match="at least one path"):
        PathForest(())


def test_enumerate_optimal_schedules_path():
    scheds = list(enumerate_optimal_schedules(make_path(4)))
    assert all(len(s.sources) == 2 for s in scheds)
    p = make_path(4)
    assert all(verify_schedule(p, s).is_burning_sequence for s in scheds)
    # sorted lexicographically and complete vs brute force
    keys = [s.sources for s in scheds]
    assert keys == sorted(keys)
    brute = [
        seq
        for seq in itertools.permutations(p.vertices, 2)
        if verify_schedule(p, BurningSchedule(sources=seq)).is_burning_sequence
    ]
    assert set(keys) == set(brute)


def test_enumerate_optimal_schedules_matches_definitions():
    # every permutation of b vertices that covers the tree and keeps the
    # distance condition, in lexicographic order, by the all-pairs oracle
    rng = random.Random(17)
    for _ in range(60):
        t = random_tree(rng, rng.randint(1, 8))
        b = brute_burning_number(t)
        want = []
        for seq in itertools.permutations(sorted(t.vertices), b):
            flags = oracle_flags(t, seq)
            if flags["covers_all"] and flags["distance_ok"]:
                want.append(seq)
        got = [s.sources for s in enumerate_optimal_schedules(t)]
        assert got == want, t.edges


def test_maximally_burnable_path():
    # path on 9 is maximally 3-burnable; path on 8 is not
    assert is_maximally_m_burnable(make_path(9), 3)
    assert not is_maximally_m_burnable(make_path(8), 3)
    with pytest.raises(ValueError):
        is_maximally_m_burnable(make_path(9), 4)


def test_maximally_burnable_spider():
    # extremal 3-spider for m = 4: order 19 hits n(m-1)+1+(m-1)^2
    t = make_spider([4, 6, 8])
    b, _ = burning_number(t)
    assert b == 4
    assert is_maximally_m_burnable(t, 4)


def test_ln_estimate_certificates():
    est = ln_estimate(2, [2, 3, 4])
    for m in (2, 3, 4):
        threshold = est.per_m[m]
        # everything at or above the threshold burns
        for p in _partitions(m * m, 2):
            if min(p) >= threshold:
                assert path_forest_burnable(PathForest(p), m)
        cx = est.counterexamples[m]
        if threshold > 1:
            assert cx is not None
            assert min(cx) == threshold - 1
            assert not path_forest_burnable(PathForest(cx), m)


def test_ln_estimate_vacuous():
    est = ln_estimate(5, [2])
    assert est.vacuous == (2,)


def test_partitions_match_recursive_reference():
    for total in range(1, 16):
        for parts in range(1, 8):
            assert list(burning._partitions(total, parts)) == list(_partitions(total, parts))


def test_partitions_many_parts_do_not_recurse():
    # one level per part would pass the recursion limit
    first = next(burning._partitions(2404, 1200))
    assert first == (1205,) + (1,) * 1199


def test_partition_count_matches_the_walk():
    for total in range(0, 25):
        for parts in range(0, 12):
            want = sum(1 for _ in burning._partitions(total, parts))
            assert burning._partition_count(total, parts) == want, (total, parts)


def test_partition_count_stops_at_the_cap():
    # exact up to the cap, MAX_PARTITIONS + 1 past it, with no table of
    # `total` entries: partitions into at most 2 parts number r // 2 + 1,
    # into at most 3 round((r + 3)^2 / 12), r = total - parts
    cap = burning.MAX_PARTITIONS
    for r in (2 * cap - 3, 2 * cap - 2, 2 * cap - 1, 2 * cap, 10**10):
        assert burning._partition_count(r + 2, 2) == min(r // 2 + 1, cap + 1), r
    for r in range(3455, 3475):
        want = (r + 3) ** 2 // 12 + ((r + 3) ** 2 % 12 >= 6)
        assert burning._partition_count(r + 3, 3) == min(want, cap + 1), r
    assert burning._partition_count(200004, 100000) == cap + 1
    assert burning._partition_count(400, 10) == cap + 1


def _partitions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total - parts + 1, 0, -1):
        for rest in _partitions(total - first, parts - 1):
            if rest[0] <= first:
                yield (first,) + rest
