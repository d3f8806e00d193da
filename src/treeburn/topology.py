"""Homeomorphically irreducible representatives: contraction, expansion, arms."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .tree import Tree, TreeError, parse_labels, parse_tree


class TopologyError(ValueError):
    """Raised when a tree cannot serve as a homeomorphism-class representative."""


def _pair(u: int, v: int) -> Tuple[int, int]:
    return (u, v) if u < v else (v, u)


class Topology:
    """A homeomorphically irreducible tree (no degree-2 vertices).

    In such a tree every internal path and every arm is a single edge, so the
    branch vertices induce a connected subtree and each arm is an edge from a
    branch vertex to a leaf.
    """

    def __init__(self, tree: Tree):
        for v in tree.vertices:
            if tree.degree(v) == 2:
                raise TopologyError(f"vertex {v} has degree 2")
        branch = tree.branch_vertices()
        if not branch:
            raise TopologyError("no branch vertex (path inputs are rejected here)")
        self.tree = tree
        self.branch_vertices = frozenset(branch)
        self.leaves = frozenset(tree.leaves())
        self._branch_nbrs = {
            v: tuple(w for w in tree.neighbors(v) if w in self.branch_vertices)
            for v in tree.vertices
        }
        self._branch_dist: Dict[int, Dict[int, int]] | None = None
        self._skeleton: Tuple[tuple, tuple, tuple] | None = None
        self._arms = tuple(
            sorted(
                (v, leaf)
                for v in self.branch_vertices
                for leaf in tree.neighbors(v)
                if leaf in self.leaves
            )
        )
        self._internal_edges = tuple(
            sorted(
                _pair(u, v)
                for u, v in tree.edges
                if u in self.branch_vertices and v in self.branch_vertices
            )
        )

    def arms(self) -> List[Tuple[int, int]]:
        """(branch vertex, leaf) pairs, sorted once at construction."""
        return list(self._arms)

    def internal_edges(self) -> List[Tuple[int, int]]:
        """Sorted pairs of adjacent branch vertices."""
        return list(self._internal_edges)

    def branch_neighbors(self, v: int) -> Tuple[int, ...]:
        return self._branch_nbrs[v]

    def branch_distance(self, u: int, v: int) -> int:
        """Distance between branch vertices u and v, read from a k x k table
        that one BFS per branch vertex over the (connected) branch skeleton
        builds on first use."""
        if self._branch_dist is None:
            table = {}
            for s in self.branch_vertices:
                dist = {s: 0}
                frontier = [s]
                while frontier:
                    nxt = []
                    for x in frontier:
                        for w in self.branch_neighbors(x):
                            if w not in dist:
                                dist[w] = dist[x] + 1
                                nxt.append(w)
                    frontier = nxt
                table[s] = dist
            self._branch_dist = table
        return self._branch_dist[u][v]

    def skeleton(self) -> Tuple[tuple, tuple, tuple]:
        """Sorted branch ids, sorted skeleton edges (u < w) and each branch
        vertex's arm count, in branch-id order; computed on first use.  This
        is all `admissible`'s canonical search reads: leaf ids do not enter."""
        if self._skeleton is None:
            branch = tuple(sorted(self.branch_vertices))
            self._skeleton = (
                branch,
                self._internal_edges,
                tuple(self.tree.degree(v) - len(self._branch_nbrs[v]) for v in branch),
            )
        return self._skeleton

    def __repr__(self) -> str:
        return (
            f"Topology(branch={sorted(self.branch_vertices)}, "
            f"order={self.tree.order})"
        )


@dataclass(frozen=True)
class LengthAssignment:
    """Positive lengths for every arm and internal path of a Topology."""

    arm_lengths: Dict[Tuple[int, int], int]
    internal_lengths: Dict[Tuple[int, int], int]


@dataclass(frozen=True)
class Decomposition:
    """Arms and internal paths of a tree; paths include both endpoints."""

    arms: List[Tuple[int, Tuple[int, ...]]]
    internal_paths: List[Tuple[int, int, Tuple[int, ...]]]


def _walk(tree: Tree, start: int, first: int) -> List[int]:
    """Follow the path from a branch vertex into direction `first` until the
    next branch vertex or a leaf; returns the full vertex path."""
    adj = tree._adj
    path = [start, first]
    prev, cur = start, first
    while len(adj[cur]) == 2:  # branch vertices have degree >= 3
        a, b = adj[cur]
        prev, cur = cur, b if a == prev else a
        path.append(cur)
    return path


def decompose(tree: Tree) -> Decomposition:
    """Split a tree with at least one branch vertex into arms and internal paths."""
    branch = frozenset(tree.branch_vertices())
    if not branch:
        raise TopologyError("no branch vertex")
    arms = []
    internal = []
    seen_internal = set()
    for v in sorted(branch):
        for w in tree.neighbors(v):
            path = _walk(tree, v, w)
            end = path[-1]
            if end in branch:
                key = _pair(v, end)
                if key not in seen_internal:
                    seen_internal.add(key)
                    if v > end:
                        path = path[::-1]
                    internal.append((min(v, end), max(v, end), tuple(path)))
            else:
                arms.append((v, tuple(path)))
    return Decomposition(arms=sorted(arms), internal_paths=sorted(internal))


def contract(tree: Tree) -> Tuple[Topology, LengthAssignment]:
    """Suppress every degree-2 vertex; record the original lengths."""
    dec = decompose(tree)
    edges = []
    arm_lengths = {}
    internal_lengths = {}
    for v, path in dec.arms:
        leaf = path[-1]
        edges.append((v, leaf))
        arm_lengths[(v, leaf)] = len(path) - 1
    for u, v, path in dec.internal_paths:
        edges.append((u, v))
        internal_lengths[(u, v)] = len(path) - 1
    topo = Topology(Tree(edges))
    return topo, LengthAssignment(arm_lengths=arm_lengths, internal_lengths=internal_lengths)


def expand(topology: Topology, lengths: LengthAssignment) -> Tree:
    """Realize each arm/internal path with its assigned length.

    Branch vertices and original leaves keep their ids; inserted vertices get
    fresh ids, arms first then internal paths, in sorted order.
    """
    arms = topology.arms()
    internals = topology.internal_edges()
    for arm in arms:
        if lengths.arm_lengths.get(arm, 0) < 1:
            raise TopologyError(f"missing or zero length for arm {arm}")
    for e in internals:
        if lengths.internal_lengths.get(e, 0) < 1:
            raise TopologyError(f"missing or zero length for internal path {e}")
    fresh = max(topology.tree.vertices) + 1
    edges = []
    for v, leaf in arms:
        k = lengths.arm_lengths[(v, leaf)]
        chain = [v] + list(range(fresh, fresh + k - 1)) + [leaf]
        fresh += k - 1
        edges.extend(zip(chain, chain[1:]))
    for u, v in internals:
        k = lengths.internal_lengths[(u, v)]
        chain = [u] + list(range(fresh, fresh + k - 1)) + [v]
        fresh += k - 1
        edges.extend(zip(chain, chain[1:]))
    return Tree._built(edges)


def make_chain_topology(a: int, b: int, c: int, d: int) -> Tuple[Topology, Dict[str, int]]:
    """Four branch vertices in a path A-B-C-D with the given degrees."""
    return _four_branch([("A", a), ("B", b), ("C", c), ("D", d)], [(0, 1), (1, 2), (2, 3)])


def make_tshape_topology(a: int, b: int, c: int, d: int) -> Tuple[Topology, Dict[str, int]]:
    """Four branch vertices with B adjacent to each of A, C, D."""
    return _four_branch([("A", a), ("B", b), ("C", c), ("D", d)], [(0, 1), (1, 2), (1, 3)])


def _four_branch(degrees, skeleton) -> Tuple[Topology, Dict[str, int]]:
    for name, deg in degrees:
        if deg < 3:
            raise TopologyError(f"branch vertex {name} needs degree >= 3, got {deg}")
    edges = list(skeleton)
    skel_deg = {i: 0 for i in range(len(degrees))}
    for u, v in skeleton:
        skel_deg[u] += 1
        skel_deg[v] += 1
    nxt = len(degrees)
    labels = {}
    for i, (name, deg) in enumerate(degrees):
        labels[name] = i
        for _ in range(deg - skel_deg[i]):
            edges.append((i, nxt))
            nxt += 1
    return Topology(Tree(edges)), labels


def make_star_topology(n: int) -> Tuple[Topology, Dict[str, int]]:
    """Single branch vertex H of degree n (the head), one leaf per arm."""
    if n < 3:
        raise TopologyError("star topology needs degree >= 3")
    return Topology(Tree([(0, i) for i in range(1, n + 1)])), {"H": 0}


def parse_topology(text: str) -> Tuple[Topology, Dict[str, int]]:
    tree = parse_tree(text)
    return Topology(tree), parse_labels(text)
