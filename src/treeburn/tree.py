"""Labelled trees: construction, parsing, distances, canonical orders."""

from __future__ import annotations

from collections import defaultdict, deque
from itertools import accumulate
from typing import Dict, Iterable, List, Sequence, Tuple


class TreeError(ValueError):
    """Raised when an input does not describe a valid tree."""


class Tree:
    """A finite, simple, undirected, connected, acyclic graph.

    Vertex ids are nonnegative integers; they need not be contiguous (parsed
    files keep the ids that appear in the document).  Instances are immutable
    after construction and safe to share.  A tree holds its vertices and each
    vertex's neighbours; the sorted edge tuple `edges` is derived from them
    on first read and kept, like the distance table, the canonical key with
    its run order (`canonical_runs`) and the canonical parent array
    (`canonical_parent`), which is read off that run order.
    """

    def __init__(self, edges: Iterable[Tuple[int, int]], vertices: Iterable[int] = ()):
        edge_set = set()
        vs = set(vertices)
        for u, v in edges:
            if u == v:
                raise TreeError(f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in edge_set:
                raise TreeError(f"duplicate edge {u} {v}")
            edge_set.add(key)
            vs.add(u)
            vs.add(v)
        if not vs:
            raise TreeError("empty tree")
        if len(edge_set) > len(vs) - 1:
            raise TreeError(
                f"cycle detected: {len(vs)} vertices but {len(edge_set)} edges"
            )
        if len(edge_set) < len(vs) - 1:
            raise TreeError(
                f"disconnected: {len(vs)} vertices but {len(edge_set)} edges"
            )
        nbrs: Dict[int, List[int]] = {v: [] for v in vs}
        # in sorted edge order every vertex meets its neighbours in increasing
        # order: (u, v) with u < v comes before every (v, w)
        for u, v in sorted(edge_set):
            nbrs[u].append(v)
            nbrs[v].append(u)
        self._fill({v: tuple(ws) for v, ws in nbrs.items()})
        # connectivity (together with |E| = |V| - 1 this rules out cycles)
        if len(self.distances_from(self.vertices[0])) != len(vs):
            raise TreeError("disconnected")

    @classmethod
    def _built(cls, paths: Iterable[Sequence[int]]) -> "Tree":
        """The tree that is the union of the vertex `paths`, with none of the
        constructor's checks.

        The caller guarantees that each path has at least 2 vertices, that
        no edge lies on two paths, that a vertex interior to one path lies
        on no other path, and that the union of the paths is a tree.  A
        single edge is the 2-vertex path (u, v).  An interior vertex then
        has exactly its two path neighbours; an endpoint collects one
        neighbour from each path it ends, so the branch vertices are read
        off the endpoints.  Builders whose paths form a tree by construction
        use it; parsed or user-given edges go through `Tree(...)`.
        """
        paths = list(paths)
        adj: Dict[int, Tuple[int, ...]] = {
            v: (u, w) if u < w else (w, u)
            for p in paths
            for u, v, w in zip(p, p[1:], p[2:])
        }
        ends: Dict[int, List[int]] = defaultdict(list)
        for p in paths:
            ends[p[0]].append(p[1])
            ends[p[-1]].append(p[-2])
        branch = []
        for v, ws in ends.items():
            ws.sort()
            adj[v] = tuple(ws)
            if len(ws) >= 3:
                branch.append(v)
        tree = cls.__new__(cls)
        tree._fill(adj)
        tree._branch = tuple(sorted(branch))
        return tree

    @classmethod
    def _rooted(cls, parent: Sequence[int]) -> "Tree":
        """The tree on ids 0..n-1 with edges (i, parent[i]) for i >= 1, with
        none of the constructor's checks.

        The caller guarantees parent[i] < i for i >= 1, as a
        `canonical_parent` array has; the edges then form a tree.  In
        one pass each vertex gets its parent and then its children, which
        arrive in increasing order, all above the parent.
        """
        nbrs: List[List[int]] = [[p] for p in parent]
        nbrs[0] = []
        for i in range(1, len(parent)):
            nbrs[parent[i]].append(i)
        tree = cls.__new__(cls)
        tree._fill(dict(enumerate(map(tuple, nbrs))))
        return tree

    def _fill(self, adj: Dict[int, Tuple[int, ...]]) -> None:
        """Set every field from `adj`, which maps each vertex to its
        neighbours as an increasing tuple; the caches start empty."""
        self.vertices: Tuple[int, ...] = tuple(sorted(adj))
        self._adj: Dict[int, Tuple[int, ...]] = adj
        self._edges: Tuple[Tuple[int, int], ...] | None = None
        self._dist: Dict[int, Dict[int, int]] | None = None
        self._branch: Tuple[int, ...] | None = None
        self._canon: Tuple[str, Tuple[int, ...]] | None = None
        self._parent: Tuple[int, ...] | None = None

    @property
    def edges(self) -> Tuple[Tuple[int, int], ...]:
        """The edges (v, w) with v < w in increasing order, derived from the
        neighbour tuples on first read and kept."""
        if self._edges is None:
            adj = self._adj
            # v ascending, and w ascending within adj[v]: already sorted
            self._edges = tuple((v, w) for v in self.vertices for w in adj[v] if w > v)
        return self._edges

    @property
    def order(self) -> int:
        return len(self.vertices)

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """The neighbours of v in increasing order."""
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def leaves(self) -> Tuple[int, ...]:
        if self.order == 1:
            return self.vertices
        return tuple(v for v in self.vertices if self.degree(v) == 1)

    def branch_vertices(self) -> Tuple[int, ...]:
        """Vertices of degree at least 3, found on first use and kept."""
        if self._branch is None:
            adj = self._adj
            self._branch = tuple(v for v in self.vertices if len(adj[v]) >= 3)
        return self._branch

    def is_path(self) -> bool:
        return not self.branch_vertices()

    def distances_from(self, source: int) -> Dict[int, int]:
        if source not in self._adj:
            raise TreeError(f"vertex {source} not in tree")
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in self._adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist

    @property
    def dist(self) -> Dict[int, Dict[int, int]]:
        """All-pairs distance table, computed lazily by BFS from each vertex."""
        if self._dist is None:
            self._dist = {v: self.distances_from(v) for v in self.vertices}
        return self._dist

    def ball(self, v: int, radius: int) -> frozenset:
        """Vertices within `radius` of v, by a BFS that stops at that depth."""
        if v not in self._adj:
            raise TreeError(f"vertex {v} not in tree")
        if radius < 0:
            return frozenset()
        seen = {v}
        frontier = [v]
        for _ in range(radius):
            frontier = [w for u in frontier for w in self._adj[u] if w not in seen]
            if not frontier:
                break
            seen.update(frontier)
        return frozenset(seen)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tree)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"Tree(order={self.order}, edges={list(self.edges)})"


def diameter(tree: Tree) -> int:
    """Largest pairwise distance, found by a double BFS sweep."""
    start = tree.vertices[0]
    d0 = tree.distances_from(start)
    far = max(d0, key=lambda v: (d0[v], v))
    d1 = tree.distances_from(far)
    return max(d1.values())


def make_path(n: int) -> Tree:
    if n < 1:
        raise TreeError("path needs at least one vertex")
    if n == 1:
        return Tree([], vertices=[0])
    return Tree._built([range(n)])


def _spider_legs(arm_lengths: Sequence[int]) -> List[range]:
    """The leg vertices of `make_spider(arm_lengths)`, each leg from the head
    out: ids 1, 2, ... are numbered arm by arm."""
    starts = accumulate(arm_lengths, initial=1)
    return [range(s, s + length) for s, length in zip(starts, arm_lengths)]


def make_spider(arm_lengths: Sequence[int]) -> Tree:
    """Spider with head 0 and the given arm lengths; its legs are
    `_spider_legs(arm_lengths)`."""
    if len(arm_lengths) < 3:
        raise TreeError("a spider needs at least 3 arms")
    if any(l < 1 for l in arm_lengths):
        raise TreeError("arm lengths must be positive")
    return Tree._built([(0, *leg) for leg in _spider_legs(arm_lengths)])


def make_star(n_leaves: int) -> Tree:
    return make_spider([1] * n_leaves)


def parse_tree(text: str) -> Tree:
    """Parse the line-based edge-list format.

    Recognised lines: ``# comment``, ``edge <u> <v>``, ``vertex <v>`` (for the
    single-vertex tree), and ``label <name> <v>`` (ignored here, used by the
    topology parser).
    """
    edges = []
    vertices = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "edge" and len(parts) == 3:
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise TreeError(f"malformed line {lineno}: {raw!r}") from None
            if u < 0 or v < 0:
                raise TreeError(f"malformed line {lineno}: negative id")
            edges.append((u, v))
        elif parts[0] == "vertex" and len(parts) == 2:
            try:
                vertices.append(int(parts[1]))
            except ValueError:
                raise TreeError(f"malformed line {lineno}: {raw!r}") from None
        elif parts[0] == "label" and len(parts) == 3:
            continue
        else:
            raise TreeError(f"malformed line {lineno}: {raw!r}")
    return Tree(edges, vertices=vertices)


def parse_labels(text: str) -> Dict[str, int]:
    """Collect ``label <name> <v>`` lines from a topology document.

    The compact sequence syntax reads one character per member and gives
    ``~``, ``0``, ``_`` and ``,`` their own meaning, so a name is one other
    character, given once."""
    labels: Dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.strip().split()
        if len(parts) != 3 or parts[0] != "label":
            continue
        name = parts[1]
        if len(name) != 1 or name in "~0_,":
            raise TreeError(
                f"bad label on line {lineno}: {name!r}; a label is one character "
                "other than ~ 0 _ ,"
            )
        if name in labels:
            raise TreeError(f"label {name!r} given twice, again on line {lineno}")
        try:
            labels[name] = int(parts[2])
        except ValueError:
            raise TreeError(f"malformed line {lineno}: {raw!r}") from None
    return labels


def subdivide_edge(tree: Tree, u: int, v: int) -> Tree:
    """Insert one fresh degree-2 vertex into the edge (u, v)."""
    if u not in tree or v not in tree.neighbors(u):
        raise TreeError(f"no edge {u} {v}")
    key = (u, v) if u < v else (v, u)
    fresh = max(tree.vertices) + 1
    paths: List[Sequence[int]] = [e for e in tree.edges if e != key]
    paths.append((u, fresh, v))
    return Tree._built(paths)


def _runs(adj, x: int, back: int | None = None) -> List[List[int]]:
    """For each neighbour w of x but `back`, in adjacency order, the run
    from w: the vertices from w up to the first one of degree other than 2,
    which ends the run.  A run of L+1 vertices has L degree-2 vertices and
    then its end."""
    out = []
    for w in adj[x]:
        if w == back:
            continue
        run = [w]
        prev = x
        while len(adj[w]) == 2:
            a, b = adj[w]
            prev, w = w, b if a == prev else a
            run.append(w)
        out.append(run)
    return out


def _run_tree(
    adj, root: int, block: int | None = None
) -> Tuple[List[int], Dict[int, List[List[int]]]]:
    """(nodes, kids) of the tree rooted at `root`, without `block`'s side.
    The nodes are the root and every run's end that is not a leaf, each
    after the node its run hangs from, and kids[x] is node x's runs
    (`_runs`) away from the root."""
    kids = {root: _runs(adj, root, block)}
    nodes = [root]
    for x in nodes:
        for run in kids[x]:
            y = run[-1]
            if len(adj[y]) > 1:
                kids[y] = _runs(adj, y, run[-2] if len(run) > 1 else x)
                nodes.append(y)
    return nodes, kids


def _centroid(tree: Tree) -> Tuple[int, ...]:
    """The one or two centroid vertices (minimising the max subtree size).

    A vertex is a centroid iff removing it leaves no component of more than
    n/2 vertices.  One walk over the runs from the first vertex gives each
    node's subtree size, and a run of L+1 vertices hanging from a node
    holds t = L + (its end's size) of them.  From the root, step into the
    run holding more than n/2 vertices while there is one.  Its vertex at
    index j holds t - j below it, so the walk stops in the run at the
    least j whose successor holds at most n/2, j = t - 1 - n//2, unless
    that is the run's end, which is a node to step from again.  The side
    above each stop holds fewer than n/2, so the vertex reached is a
    centroid, and a second one is the next vertex down when exactly n/2
    lie below it.
    """
    n = tree.order
    v = tree.vertices[0]
    nodes, kids = _run_tree(tree._adj, v)
    size = {}  # a leaf, not a node, has size 1
    for x in reversed(nodes):
        s = 1
        for run in kids[x]:
            s += len(run) - 1 + size.get(run[-1], 1)
        size[x] = s
    while True:
        for run in kids[v]:
            t = len(run) - 1 + size.get(run[-1], 1)
            if 2 * t >= n:
                break
        else:
            return (v,)
        if 2 * t == n:
            return tuple(sorted((v, run[0])))
        j = t - 1 - n // 2
        if j < len(run) - 1:
            if 2 * (t - j - 1) == n:
                return tuple(sorted(run[j : j + 2]))
            return (run[j],)
        v = run[-1]


def _sorted_runs(adj, root: int, block: int | None) -> Tuple[str, List[int]]:
    """(encoding, preorder) of the tree rooted at `root`, without `block`'s
    side: its AHU string, and its vertices in the preorder that visits each
    vertex's children in the order of their encodings.

    A vertex encodes as "(" + its children's encodings, sorted, + ")".  A
    degree-2 vertex has one child, so a run of L+1 vertices ending at the
    node y encodes as "(" * L + enc(y) + ")" * L, and its preorder is its
    L degree-2 vertices and then y's.  Only nodes get a string, built in
    reverse node order, so every run's end comes before the node it hangs
    from, and each node's runs are sorted there; one pass over the sorted
    runs from the root then lists the preorder.  Equal encodings keep their
    runs in adjacency order, as a per-vertex AHU labelling that sorts each
    vertex's children stably from adjacency order does.
    """
    nodes, kids = _run_tree(adj, root, block)
    enc: Dict[int, str] = {}  # a leaf, not a node, encodes as "()"
    for x in reversed(nodes):
        # the runs start at distinct neighbours, increasing in adjacency
        # order, so sorting (encoding, run) pairs keeps that order on ties
        pairs = []
        for run in kids[x]:
            L = len(run) - 1
            pairs.append(("(" * L + enc.pop(run[-1], "()") + ")" * L, run))
        pairs.sort()
        enc[x] = "(" + "".join([e for e, _ in pairs]) + ")"
        kids[x] = [run for _, run in reversed(pairs)]  # popped last first
    order = [root]
    stack = kids[root]
    while stack:
        run = stack.pop()
        order += run
        stack += kids.get(run[-1], ())
    return enc[root], order


def canonical_runs(tree: Tree) -> Tuple[str, Tuple[int, ...]]:
    """(key, run_order): the tree's canonical key and its vertices in a
    canonical order, computed on first use and kept on the tree.

    The tree is rooted at its centroid; a bicentroid tree is cut at the
    central edge into two halves, each rooted at its centroid, the half
    with the smaller encoding first.  run_order is each half's root and
    then its runs in preorder, every node's runs in the order of their
    encodings (`_sorted_runs`).  That order is fixed by the key up to ties
    between equal encodings, which root isomorphic subtrees, so for trees
    with the same key i -> run_order[i] matches their vertices under an
    isomorphism.  `canonical_parent` reads the tree's edges off it.
    """
    if tree._canon is None:
        adj = tree._adj
        cents = _centroid(tree)
        if len(cents) == 1:
            enc, run_order = _sorted_runs(adj, cents[0], None)
            tree._canon = ("C" + enc, tuple(run_order))
        else:
            a, b = cents
            (ea, oa), (eb, ob) = sorted(
                [_sorted_runs(adj, a, b), _sorted_runs(adj, b, a)],
                key=lambda half: half[0],
            )
            tree._canon = ("B" + ea + eb, tuple(oa + ob))
    return tree._canon


def canonical_parent(tree: Tree) -> Tuple[int, ...]:
    """parent[i], the run-order index of run_order[i]'s parent (-1 at i = 0),
    computed on first use and kept on the tree.  run_order is a preorder,
    and a bicentroid tree's second half hangs from run_order[0], so each
    other vertex's parent is its one earlier neighbour, and parent[i] < i.
    i -> run_order[i] maps the edges (i, parent[i]) onto the tree's, and
    trees with the same key get the same array.
    """
    if tree._parent is None:
        run_order = canonical_runs(tree)[1]
        pos = {v: i for i, v in enumerate(run_order)}
        adj = tree._adj
        tree._parent = (-1,) + tuple(
            min(map(pos.__getitem__, adj[v])) for v in run_order[1:]
        )
    return tree._parent


def parent_diameter(parent: Sequence[int]) -> int:
    """The diameter of the tree given by a parent array with
    parent[i] < i for i >= 1 (a `canonical_parent` array), in one
    reverse pass.

    Every vertex comes after its parent, so in reverse order a vertex's
    subtree height is final before its parent reads it.  A longest path
    has a highest vertex v, and runs down from v along at most two child
    subtrees; when a child of v is read, it joins v's tallest branch seen
    so far into the longest path through v over the children read.
    """
    height = [0] * len(parent)
    diam = 0
    for i in range(len(parent) - 1, 0, -1):
        p, h = parent[i], height[i] + 1
        if height[p] + h > diam:
            diam = height[p] + h
        if h > height[p]:
            height[p] = h
    return diam


def canonical_key(tree: Tree) -> str:
    """Canonical form rooted at the centroid; equal iff trees are isomorphic."""
    return canonical_runs(tree)[0]


def isomorphic(t1: Tree, t2: Tree) -> bool:
    return canonical_key(t1) == canonical_key(t2)
