from typing import Dict, List, Tuple

import pytest
from hypothesis import given, strategies as st

from treeburn.tree import (
    Tree,
    TreeError,
    _centroid,
    canonical_key,
    canonical_parent,
    canonical_runs,
    diameter,
    isomorphic,
    make_path,
    make_spider,
    make_star,
    parent_diameter,
    parse_tree,
    subdivide_edge,
)

from treeburn import extremal
from treeburn.topology import (
    LengthAssignment,
    expand,
    make_chain_topology,
    parse_topology,
)

from conftest import bicentroid_tree, random_topology, random_tree
import random


def test_rejects_self_loop():
    with pytest.raises(TreeError):
        Tree([(0, 0)])


def test_rejects_duplicate_edge():
    with pytest.raises(TreeError):
        Tree([(0, 1), (1, 0)])


def test_rejects_cycle():
    with pytest.raises(TreeError):
        Tree([(0, 1), (1, 2), (2, 0)])


def test_rejects_disconnected():
    with pytest.raises(TreeError):
        Tree([(0, 1), (2, 3)], vertices=[0, 1, 2, 3, 4])


def test_single_vertex():
    t = Tree([], vertices=[7])
    assert t.order == 1
    assert t.leaves() == (7,)
    assert diameter(t) == 0


def test_path_basics():
    p = make_path(5)
    assert p.order == 5
    assert p.is_path()
    assert diameter(p) == 4
    assert p.dist[0][4] == 4
    assert p.ball(2, 1) == frozenset({1, 2, 3})


def test_spider_shape():
    s = make_spider([2, 3, 4])
    assert s.order == 10
    assert s.branch_vertices() == (0,)
    assert s.degree(0) == 3
    assert max(s.distances_from(0).values()) == 4
    with pytest.raises(TreeError):
        make_spider([2, 3])


def test_star():
    s = make_star(4)
    assert s.order == 5
    assert diameter(s) == 2


def test_parse_round_trip():
    text = "# a comment\nedge 0 1\nedge 1 2\nvertex 5\nedge 2 5\n"
    t = parse_tree(text)
    assert t.vertices == (0, 1, 2, 5)


def test_parse_errors_are_named():
    with pytest.raises(TreeError, match="malformed"):
        parse_tree("edge 0\n")
    with pytest.raises(TreeError, match="duplicate"):
        parse_tree("edge 0 1\nedge 1 0\n")
    with pytest.raises(TreeError, match="cycle"):
        parse_tree("edge 0 1\nedge 1 2\nedge 2 0\n")
    with pytest.raises(TreeError, match="disconnected"):
        parse_tree("edge 0 1\nedge 2 3\n")


def test_subdivide_edge():
    p = make_path(3)
    q = subdivide_edge(p, 0, 1)
    assert q.order == 4
    assert q.is_path()
    with pytest.raises(TreeError):
        subdivide_edge(p, 0, 2)


def test_isomorphism_spiders():
    a = make_spider([2, 3, 4])
    b = make_spider([4, 2, 3])
    assert isomorphic(a, b)
    assert canonical_key(a) == canonical_key(b)
    assert not isomorphic(a, make_spider([2, 3, 5]))


def test_isomorphism_vs_relabeling():
    rng = random.Random(5)
    for _ in range(20):
        t = random_tree(rng, rng.randint(2, 12))
        perm = list(t.vertices)
        rng.shuffle(perm)
        relab = dict(zip(t.vertices, perm))
        u = Tree([(relab[a], relab[b]) for a, b in t.edges])
        assert isomorphic(t, u)


def test_canonical_key_relabelled_large_tree():
    # thousands of vertices, with long paths, and no recursion limit hit
    rng = random.Random(11)
    n = 4000
    edges = [(rng.randrange(max(0, i - 3), i), i) for i in range(1, n)]
    perm = list(range(n))
    rng.shuffle(perm)
    t = Tree(edges)
    u = Tree([(perm[a], perm[b]) for a, b in edges])
    assert canonical_key(t) == canonical_key(u)
    assert canonical_key(t) != canonical_key(subdivide_edge(u, *u.edges[0]))


@given(st.integers(min_value=1, max_value=30), st.randoms())
def test_ball_matches_distances(n, pyrng):
    rng = random.Random(pyrng.randint(0, 10**9))
    t = random_tree(rng, n)
    v = rng.choice(t.vertices)
    for r in range(n + 1):
        assert t.ball(v, r) == frozenset(w for w in t.vertices if t.dist[v][w] <= r)


@given(st.integers(min_value=1, max_value=40))
def test_path_diameter(n):
    assert diameter(make_path(n)) == n - 1


@given(st.integers(min_value=2, max_value=30), st.randoms())
def test_distance_symmetry(n, pyrng):
    rng = random.Random(pyrng.randint(0, 10**9))
    t = random_tree(rng, n)
    d = t.dist
    for u in t.vertices:
        for v in t.vertices:
            assert d[u][v] == d[v][u]
            assert (d[u][v] == 0) == (u == v)


def brute_centroid(tree):
    """Independent oracle: every vertex whose removal leaves no component of
    more than n/2 vertices."""
    n = tree.order
    out = []
    for v in tree.vertices:
        seen = {v}
        largest = 0
        for w in tree.neighbors(v):
            seen.add(w)
            stack = [w]
            size = 0
            while stack:
                size += 1
                for x in tree.neighbors(stack.pop()):
                    if x not in seen:
                        seen.add(x)
                        stack.append(x)
            largest = max(largest, size)
        if 2 * largest <= n:
            out.append(v)
    return tuple(out)


def relabel(tree, rng):
    """The same tree on random, non-contiguous ids."""
    ids = dict(zip(tree.vertices, rng.sample(range(10 * tree.order + 10), tree.order)))
    return Tree([(ids[a], ids[b]) for a, b in tree.edges], vertices=[ids[tree.vertices[0]]])


def test_centroid_matches_brute_force():
    rng = random.Random(20261018)
    trees = [random_tree(rng, rng.randint(1, 60)) for _ in range(300)]
    trees += [make_path(n) for n in range(1, 41)]
    for _ in range(40):  # two copies of a tree joined by an edge: two centroids
        half = random_tree(rng, rng.randint(1, 30))
        shift = half.order
        edges = list(half.edges) + [(a + shift, b + shift) for a, b in half.edges]
        v = rng.choice(half.vertices)
        trees.append(Tree(edges + [(v, v + shift)], vertices=[0, shift]))
    for _ in range(40):
        trees.append(make_spider([rng.randint(1, 8) for _ in range(rng.randint(3, 6))]))
    trees += [relabel(t, rng) for t in list(trees)]
    sizes = set()
    for t in trees:
        want = brute_centroid(t)
        assert _centroid(t) == want, t.edges
        sizes.add(len(want))
    assert sizes == {1, 2}


def reference_key(tree):
    """Independent oracle for `canonical_key`: the AHU string at the centroid
    built from strings alone, with no vertex order kept."""

    def rooted(root, block):
        parent = {root: None}
        order = [root]
        for v in order:
            for w in tree.neighbors(v):
                if w != parent[v] and w != block:
                    parent[w] = v
                    order.append(w)
        kids = {v: [] for v in order}
        for v in reversed(order[1:]):
            kids[parent[v]].append("(" + "".join(sorted(kids.pop(v))) + ")")
        return "(" + "".join(sorted(kids[root])) + ")"

    cents = brute_centroid(tree)
    if len(cents) == 1:
        return "C" + rooted(cents[0], None)
    a, b = cents
    return "B" + "".join(sorted([rooted(a, b), rooted(b, a)]))


def test_canonical_parent_is_a_labelling_shared_by_isomorphic_trees():
    rng = random.Random(20261019)
    trees = [random_tree(rng, rng.randint(1, 40)) for _ in range(600)]
    for _ in range(200):  # two copies of one tree joined by an edge: equal halves
        half = random_tree(rng, rng.randint(1, 20))
        shift = half.order
        edges = list(half.edges) + [(a + shift, b + shift) for a, b in half.edges]
        v = rng.choice(half.vertices)
        trees.append(Tree(edges + [(v, v + shift)], vertices=[0, shift]))
    checked = equal_halves = 0
    for t in trees:
        key, parent = canonical_key(t), canonical_parent(t)
        assert key == reference_key(t), t.edges
        canon = Tree(
            [(i, parent[i]) for i in range(1, len(parent))], vertices=[0]
        )
        assert (canonical_key(canon), canonical_parent(canon)) == (key, parent)
        for u in (t, relabel(t, rng), relabel(t, rng)):
            (got, order), up = canonical_runs(u), canonical_parent(u)
            assert (got, up) == (key, parent), (t.edges, u.edges)
            # i -> order[i] is an isomorphism from the canonical tree onto u
            assert sorted(order) == list(u.vertices)
            image = {tuple(sorted((order[i], order[p]))) for i, p in enumerate(up) if i}
            assert image == set(u.edges)
            checked += 1
        equal_halves += key.startswith("B") and len(set(_halves(key))) == 1
    assert checked >= 2000 and equal_halves >= 100


def _reference_centroid(tree: Tree) -> Tuple[int, ...]:
    """The one or two centroid vertices (minimising the max subtree size).

    A vertex is a centroid iff removing it leaves no component of more than
    n/2 vertices.  One BFS gives subtree sizes; from the root, step to the
    child whose subtree holds more than n/2 vertices while there is one.  The
    side above each step holds fewer than n/2, so the vertex reached is a
    centroid, and a second one is its child with exactly n/2 below it.
    """
    adj = tree._adj
    root = tree.vertices[0]
    parent = {root: None}
    order = [root]
    for u in order:
        for w in adj[u]:
            if w != parent[u]:
                parent[w] = u
                order.append(w)
    size = dict.fromkeys(order, 1)
    for u in reversed(order[1:]):
        size[parent[u]] += size[u]
    n = tree.order
    v = root
    while True:
        heavy = [w for w in adj[v] if w != parent[v] and 2 * size[w] >= n]
        if not heavy or 2 * size[heavy[0]] == n:
            return tuple(sorted([v] + heavy))
        v = heavy[0]


def _reference_rooted_form(
    tree: Tree, root: int, block: int | None = None
) -> Tuple[str, List[int], List[int]]:
    """AHU string of the tree rooted at `root`, without `block`'s side, with
    its vertices in canonical order and each one's parent index there (-1
    for the root).

    A vertex encodes as "(" + its children's encodings, sorted, + ")".  The
    strings are built without recursion in reverse BFS order, so every child
    comes before its parent, and each child's string is dropped once its
    parent's is built.  Each vertex's children are sorted stably from
    adjacency order, and the canonical order is the preorder that visits
    them in that order, depth first.  Children with equal encodings root
    isomorphic subtrees, so how their tie is broken does not change the
    parent array: isomorphic rooted trees get the same one.
    """
    adj = tree._adj
    kids = {root: [w for w in adj[root] if w != block]}
    bfs = [root]
    for v in bfs:
        ks = kids[v]
        bfs += ks
        for w in ks:
            k = kids[w] = list(adj[w])
            k.remove(v)
    enc: Dict[int, str] = {}
    for v in reversed(bfs):
        ks = kids[v]
        # most vertices have at most one child; they skip the sort
        if not ks:
            enc[v] = "()"
        elif len(ks) == 1:
            enc[v] = "(" + enc.pop(ks[0]) + ")"
        else:
            ks.sort(key=enc.__getitem__)
            enc[v] = "(" + "".join(map(enc.pop, ks)) + ")"
    order: List[int] = []
    up: List[int] = []
    stack = [(root, -1)]
    while stack:
        v, p = stack.pop()
        i = len(order)
        order.append(v)
        up.append(p)
        stack += [(w, i) for w in reversed(kids[v])]
    return enc[root], order, up


def reference_canonical_order(tree: Tree) -> Tuple[str, Tuple[int, ...], Tuple[int, ...]]:
    """Oracle for `canonical_runs` and `canonical_parent`: the per-vertex AHU
    labelling, one string per vertex and a preorder from each centroid, with
    nothing kept on the tree.

    The tree is rooted at its centroid; a bicentroid tree is cut at the
    central edge into two halves, each rooted at its centroid, the half with
    the smaller encoding first and its root the parent of the other's.
    """
    cents = _reference_centroid(tree)
    if len(cents) == 1:
        enc, order, up = _reference_rooted_form(tree, cents[0])
        return ("C" + enc, tuple(order), tuple(up))
    a, b = cents
    (ea, oa, ua), (eb, ob, ub) = sorted(
        [_reference_rooted_form(tree, a, block=b), _reference_rooted_form(tree, b, block=a)],
        key=lambda half: half[0],
    )
    shift = len(oa)
    return (
        "B" + ea + eb,
        tuple(oa + ob),
        tuple(ua + [0] + [p + shift for p in ub[1:]]),
    )


def subdivided(tree, rng, longest):
    """`tree` with each edge stretched into a run of 0..`longest` new
    degree-2 vertices."""
    fresh = max(tree.vertices) + 1
    edges = []
    for u, v in tree.edges:
        k = rng.randint(0, longest)
        path = [u, *range(fresh, fresh + k), v]
        fresh += k
        edges += zip(path, path[1:])
    return Tree(edges, vertices=tree.vertices)


def joined_through_a_path(half, v, inner):
    """Two copies of `half` with the copies of v joined by a path through
    `inner` new vertices; with `inner` even, the central edge lies inside
    that path."""
    shift = max(half.vertices) + 1
    edges = list(half.edges) + [(a + shift, b + shift) for a, b in half.edges]
    path = [v, *range(2 * shift, 2 * shift + inner), v + shift]
    return Tree(edges + list(zip(path, path[1:])), vertices=[v, v + shift])


def test_run_form_matches_the_per_vertex_labelling():
    rng = random.Random(20261025)
    trees = [random_tree(rng, rng.randint(1, 60)) for _ in range(600)]
    trees += [make_path(n) for n in range(1, 61)]
    trees += [make_spider([rng.randint(1, 9) for _ in range(rng.randint(3, 6))]) for _ in range(60)]
    for _ in range(200):
        topo = random_topology(rng, 5).tree
        trees.append(subdivided(topo, rng, rng.choice([1, 4, 12])))
    for _ in range(100):
        half = random_tree(rng, rng.randint(1, 20))
        trees.append(joined_through_a_path(half, rng.choice(half.vertices), 2 * rng.randint(1, 6)))
    trees += [relabel(t, rng) for t in list(trees) for _ in range(2)]
    in_run = central_in_run = 0
    for t in trees:
        want = reference_canonical_order(t)
        assert (*canonical_runs(t), canonical_parent(t)) == want, t.edges
        assert canonical_key(t) == want[0]
        cents = _centroid(t)
        in_run += len(cents) == 1 and t.degree(cents[0]) == 2
        central_in_run += len(cents) == 2 and {t.degree(c) for c in cents} == {2}
    assert in_run >= 200 and central_in_run >= 400, (in_run, central_in_run)


def test_run_order_matches_isomorphic_trees():
    rng = random.Random(20261026)
    for _ in range(300):
        t = subdivided(random_tree(rng, rng.randint(1, 25)), rng, 4)
        key, run_order = canonical_runs(t)
        assert sorted(run_order) == list(t.vertices)
        for u in (relabel(t, rng), relabel(t, rng)):
            got, image = canonical_runs(u)
            assert got == key
            # i -> image[i] after i -> run_order[i] is an isomorphism
            iso = dict(zip(run_order, image))
            assert {tuple(sorted((iso[a], iso[b]))) for a, b in t.edges} == set(u.edges)


def _halves(key):
    """The two half encodings of a bicentroid key."""
    depth = 0
    for i, ch in enumerate(key[1:], start=1):
        depth += 1 if ch == "(" else -1
        if depth == 0:
            return key[1 : i + 1], key[i + 1 :]


def test_form_is_computed_once_per_tree(monkeypatch):
    import treeburn.tree as tree_mod

    calls = []
    centroid = tree_mod._centroid
    monkeypatch.setattr(tree_mod, "_centroid", lambda t: calls.append(1) or centroid(t))
    t = make_spider([2, 3, 4])
    assert canonical_key(t) == canonical_runs(t)[0] == canonical_key(t)
    assert canonical_parent(t) is canonical_parent(t)
    assert len(calls) == 1


def test_neighbors_are_kept_sorted_tuples():
    t = Tree([(5, 1), (5, 9), (5, 3), (3, 7)])
    assert t.neighbors(5) == (1, 3, 9)
    assert t.neighbors(5) is t.neighbors(5)
    rng = random.Random(7)
    for _ in range(50):
        u = relabel(random_tree(rng, rng.randint(1, 30)), rng)
        for v in u.vertices:
            want = sorted(w for e in u.edges for w in e if v in e and w != v)
            assert u.neighbors(v) == tuple(want)


@pytest.fixture
def built_paths(monkeypatch):
    """Every list of paths handed to `Tree._built`, in call order."""
    calls = []
    build = Tree._built.__func__

    def record(cls, paths):
        calls.append([tuple(p) for p in paths])
        return build(cls, calls[-1])

    monkeypatch.setattr(Tree, "_built", classmethod(record))
    return calls


def path_edges(paths):
    return [e for p in paths for e in zip(p, p[1:])]


def assert_same_as_checked(tree, paths):
    """`tree` equals what the checking constructor builds from the edges of
    `paths`."""
    checked = Tree(path_edges(paths))
    assert tree.vertices == checked.vertices
    assert tree.edges == checked.edges
    for v in checked.vertices:
        assert tree.neighbors(v) == checked.neighbors(v)


def random_lengths(rng, topo):
    return LengthAssignment(
        arm_lengths={a: rng.randint(1, 6) for a in topo.arms()},
        internal_lengths={e: rng.randint(1, 6) for e in topo.internal_edges()},
    )


def test_trusted_builders_match_the_checked_constructor(built_paths):
    rng = random.Random(15)
    chain, _ = make_chain_topology(3, 3, 3, 3)
    builds = [lambda: expand(chain, random_lengths(rng, chain)) for _ in range(200)]
    for _ in range(60):
        topo = random_topology(rng, 5)
        builds.append(lambda topo=topo: expand(topo, random_lengths(rng, topo)))
    for _ in range(30):
        topo = random_topology(rng, 4)
        m = len(topo.branch_vertices) + rng.randint(1, 3)
        builds.append(lambda topo=topo, m=m: extremal.find_extremal(topo, m).tree)
    for _ in range(60):
        legs = [rng.randint(1, 8) for _ in range(rng.randint(3, 6))]
        builds.append(lambda legs=legs: make_spider(legs))
    for n in range(2, 51):
        builds.append(lambda n=n: make_path(n))
    for _ in range(60):
        t = random_tree(rng, rng.randint(2, 30))
        u, v = rng.choice(t.edges)
        builds.append(lambda t=t, e=rng.choice([(u, v), (v, u)]): subdivide_edge(t, *e))
    for build in builds:
        calls = len(built_paths)
        tree = build()
        assert len(built_paths) == calls + 1
        assert_same_as_checked(tree, built_paths[-1])


def test_parsed_and_given_edges_are_checked(built_paths):
    parse_tree("edge 0 1\nedge 1 2\n")
    parse_topology("edge 0 1\nedge 0 2\nedge 0 3\n")
    Tree([(0, 1), (1, 2)])
    assert built_paths == []


def random_path_decomposition(rng, tree):
    """The edges of `tree` cut into vertex paths that meet `Tree._built`'s
    contract, shuffled and each in a random direction: a degree-2 vertex is
    either interior to one path or cut (an endpoint of two paths), and
    every other vertex ends each path through it."""
    joined = {v for v in tree.vertices if tree.degree(v) == 2 and rng.random() < 0.7}
    walked = set()
    paths = []
    for v in tree.vertices:
        if v in joined:
            continue
        for w in tree.neighbors(v):
            if (v, w) in walked:
                continue
            path = [v, w]
            while path[-1] in joined:
                a, b = tree.neighbors(path[-1])
                path.append(b if a == path[-2] else a)
            walked.add((path[-1], path[-2]))
            paths.append(path[::-1] if rng.random() < 0.5 else path)
    rng.shuffle(paths)
    return paths


def test_built_from_paths_matches_the_checked_constructor():
    rng = random.Random(18)
    for _ in range(400):
        t = relabel(random_tree(rng, rng.randint(2, 40)), rng)
        paths = random_path_decomposition(rng, t)
        fresh = max(t.vertices) + 1
        for p in rng.sample(paths, rng.randint(0, len(paths))):
            # splice a segment of fresh vertices into the path, as
            # `induced_plan` does with a Stage-2 segment
            k = rng.randint(1, 4)
            pos = rng.randint(1, len(p) - 1)
            p[pos:pos] = range(fresh, fresh + k)
            fresh += k
        built = Tree._built(paths)
        checked = Tree(path_edges(paths))
        assert built == checked and hash(built) == hash(checked), paths
        assert built.edges == checked.edges
        assert built.branch_vertices() == checked.branch_vertices()
        # read off the path endpoints at build time, equal to a full scan
        scan = tuple(v for v in built.vertices if built.degree(v) >= 3)
        assert built._branch == scan, paths
        for v in checked.vertices:
            assert built.neighbors(v) == checked.neighbors(v), (paths, v)


def parent_array_trees():
    rng = random.Random(21)
    trees = [relabel(random_tree(rng, rng.randint(1, 40)), rng) for _ in range(300)]
    trees += [relabel(bicentroid_tree(rng, rng.randint(1, 20)), rng) for _ in range(150)]
    trees += [make_path(n) for n in range(1, 60)]
    trees += [make_spider([rng.randint(1, 9) for _ in range(rng.randint(3, 6))]) for _ in range(40)]
    return trees


def test_parent_array_diameter_matches_bfs():
    bicentroid = 0
    for t in parent_array_trees():
        bicentroid += canonical_key(t).startswith("B")
        assert parent_diameter(canonical_parent(t)) == diameter(t), t.edges
    assert bicentroid >= 150


def test_rooted_tree_matches_the_checked_constructor():
    for t in parent_array_trees():
        parent = canonical_parent(t)
        rooted = Tree._rooted(parent)
        checked = Tree([(i, parent[i]) for i in range(1, len(parent))], vertices=[0])
        assert rooted == checked and hash(rooted) == hash(checked), parent
        assert rooted.branch_vertices() == checked.branch_vertices()
        for v in checked.vertices:
            assert rooted.neighbors(v) == checked.neighbors(v), (parent, v)
