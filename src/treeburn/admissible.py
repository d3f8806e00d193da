"""Admissible sequences over a homeomorphically irreducible tree.

A sequence of rooted blocks partitions the branch vertices; its signature
assigns each branch vertex the distance to its block root plus the block
index.  Sequences induce concrete trees of a chosen degree m via two stages of
arm/internal-path extension, and reduce to a unique canonical form.
Canonical sequences are built directly, block by block
(`enumerate_canonical`), and `best_canonical` scores them as it builds them
to find the extremal one; `enumerate_admissible` with `is_canonical` is the
brute-force reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import count, islice, product
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from .tree import Tree
from .topology import Topology
from .burning import BurningSchedule


EMPTY_TOKENS = {"~", "0", "empty"}


@dataclass(frozen=True)
class Block:
    """A rooted set of branch vertices; empty blocks have no root."""

    vertex_set: frozenset
    root: Optional[int]

    def __post_init__(self):
        if self.vertex_set:
            if self.root is None or self.root not in self.vertex_set:
                raise ValueError("nonempty block needs a root from its vertex set")
        elif self.root is not None:
            raise ValueError("empty block cannot have a root")

    @property
    def empty(self) -> bool:
        return not self.vertex_set


EMPTY_BLOCK = Block(frozenset(), None)


@dataclass(frozen=True)
class AdmissibleSequence:
    blocks: Tuple[Block, ...]

    @property
    def length(self) -> int:
        return len(self.blocks)

    def trimmed(self) -> "AdmissibleSequence":
        """Drop trailing empty blocks."""
        blocks = list(self.blocks)
        while blocks and blocks[-1].empty:
            blocks.pop()
        return AdmissibleSequence(blocks=tuple(blocks))


def sequences_equal(s: AdmissibleSequence, t: AdmissibleSequence) -> bool:
    """Equality up to trailing empty blocks."""
    return s.trimmed() == t.trimmed()


def sequence_key(seq: AdmissibleSequence):
    """Deterministic sort/tie-break key."""
    return tuple(
        (tuple(sorted(b.vertex_set)), -1 if b.root is None else b.root)
        for b in seq.trimmed().blocks
    )


def validate(topology: Topology, seq: AdmissibleSequence) -> List[str]:
    """Return the list of violated invariants (empty when the sequence is ok)."""
    problems = []
    branch = topology.branch_vertices
    seen: Dict[int, int] = {}
    for i, block in enumerate(seq.blocks, start=1):
        for v in block.vertex_set:
            if v not in branch:
                problems.append(f"block {i}: vertex {v} is not a branch vertex")
            elif v in seen:
                problems.append(
                    f"not a partition: vertex {v} in blocks {seen[v]} and {i}"
                )
            else:
                seen[v] = i
        if block.vertex_set and not _connected(topology, block.vertex_set):
            problems.append(f"block {i} not connected")
    missing = branch - set(seen)
    if missing:
        problems.append(f"not a partition: {sorted(missing)} unassigned")
    return problems


def ensure_valid(topology: Topology, seq: AdmissibleSequence) -> None:
    problems = validate(topology, seq)
    if problems:
        raise ValueError("; ".join(problems))


def _connected(topology: Topology, vertex_set: frozenset) -> bool:
    start = next(iter(vertex_set))
    seen = {start}
    stack = [start]
    while stack:
        for w in topology.branch_neighbors(stack.pop()):
            if w in vertex_set and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == vertex_set


def signature(topology: Topology, seq: AdmissibleSequence) -> Dict[int, int]:
    """sig(v) = distance from v to its block root, plus the block index."""
    ensure_valid(topology, seq)
    sig = {}
    for i, block in enumerate(seq.blocks, start=1):
        for v in block.vertex_set:
            sig[v] = topology.branch_distance(v, block.root) + i
    return sig


def _block_index(seq: AdmissibleSequence) -> Dict[int, int]:
    return {
        v: i for i, b in enumerate(seq.blocks, start=1) for v in b.vertex_set
    }


@dataclass(frozen=True)
class Stage1Additions:
    arm_counts: Dict[Tuple[int, int], int]
    internal_counts: Dict[Tuple[int, int], int]
    total: int


@dataclass(frozen=True)
class Stage2Additions:
    rounds: Tuple[int, ...]
    segment_sizes: Tuple[int, ...]
    total: int


def stage1_additions(
    topology: Topology,
    seq: AdmissibleSequence,
    m: int,
    sig: Optional[Dict[int, int]] = None,
) -> Stage1Additions:
    """Arm extensions m - sig(v) - 1 and cross-block internal extensions
    2m - sig(v) - sig(v').  A caller holding the signature passes it as
    `sig`, and the sequence is then taken as valid."""
    if sig is None:
        sig = signature(topology, seq)
    if m <= max(sig.values()):
        raise ValueError(f"m must exceed the maximum signature {max(sig.values())}")
    where = _block_index(seq)
    arm_counts = {
        (v, leaf): m - sig[v] - 1 for v, leaf in topology.arms()
    }
    internal_counts = {}
    for u, v in topology.internal_edges():
        if where[u] != where[v]:
            internal_counts[(u, v)] = 2 * m - sig[u] - sig[v]
        else:
            internal_counts[(u, v)] = 0
    total = sum(arm_counts.values()) + sum(internal_counts.values())
    return Stage1Additions(arm_counts=arm_counts, internal_counts=internal_counts, total=total)


def stage2_additions(seq: AdmissibleSequence, m: int) -> Stage2Additions:
    """One segment of 2(m-i)+1 vertices for every round i <= m whose block is
    empty or beyond the sequence."""
    trimmed = seq.trimmed()
    rounds = tuple(
        i
        for i in range(1, m + 1)
        if i > trimmed.length or trimmed.blocks[i - 1].empty
    )
    sizes = tuple(2 * (m - i) + 1 for i in rounds)
    return Stage2Additions(rounds=rounds, segment_sizes=sizes, total=sum(sizes))


def induced_order(topology: Topology, seq: AdmissibleSequence, m: int) -> int:
    return (
        topology.tree.order
        + stage1_additions(topology, seq, m).total
        + stage2_additions(seq, m).total
    )


# Stage-2 placement targets: ("arm", (branch, leaf)) or ("internal", (u, v)).
Location = Tuple[str, Tuple[int, int]]


@dataclass(frozen=True)
class InducedSpec:
    topology: Topology
    sequence: AdmissibleSequence
    m: int
    placement: Optional[Tuple[Tuple[int, Location], ...]] = None


class InducedPlan(NamedTuple):
    """Edges and order of the induced tree, and the source of each round."""

    edges: Tuple[Tuple[int, int], ...]
    order: int
    sources: Tuple[int, ...]


# The last plan `induced_plan` returned, with its spec: `find_extremal`
# builds the winner's tree from it, and the winner's `witness_schedule`
# reads the same plan.  One entry, owned by this module.
_last_plan: Optional[Tuple[InducedSpec, InducedPlan]] = None


def induced_plan(
    spec: InducedSpec, sig: Optional[Dict[int, int]] = None
) -> InducedPlan:
    """The induced tree's edges, order and sources.  `sig` is the sequence's
    signature when the caller already holds it (the sequence is then taken
    as valid); otherwise it is computed and the sequence validated.

    A spec equal to the last one returned gets the same plan back: equal
    topology object, sequence, m and placement.  A plan is kept only once
    every check has passed, so an invalid spec always raises."""
    global _last_plan
    last = _last_plan
    if last is not None and last[0] == spec:
        return last[1]
    topology, seq, m = spec.topology, spec.sequence, spec.m
    if sig is None:
        sig = signature(topology, seq)
    s1 = stage1_additions(topology, seq, m, sig)
    s2 = stage2_additions(seq, m)
    fresh = count(max(topology.tree.vertices) + 1)

    def take(k: int) -> List[int]:
        return list(islice(fresh, k))

    # Stage 1: arms then internal paths, in sorted order.
    arm_paths: Dict[Tuple[int, int], List[int]] = {}
    for v, leaf in topology.arms():
        arm_paths[(v, leaf)] = [v] + take(s1.arm_counts[(v, leaf)]) + [leaf]
    internal_paths: Dict[Tuple[int, int], List[int]] = {}
    split_at: Dict[Tuple[int, int], int] = {}
    for u, v in topology.internal_edges():
        interior = take(s1.internal_counts[(u, v)])
        internal_paths[(u, v)] = [u] + interior + [v]
        # boundary between the coverage of u's source and v's source
        split_at[(u, v)] = 1 + (m - sig[u]) if interior else 1
    # Stage 2 placements.
    if spec.placement is None:
        placement = tuple((i, ("arm", min(arm_paths))) for i in s2.rounds)
    else:
        placement = spec.placement
        if sorted(i for i, _ in placement) != list(s2.rounds):
            raise ValueError(
                f"placement rounds {sorted(i for i, _ in placement)} "
                f"do not match the required rounds {list(s2.rounds)}"
            )
    sources: Dict[int, int] = {}
    for i, block in enumerate(seq.trimmed().blocks, start=1):
        if not block.empty:
            sources[i] = block.root
    for i, (kind, key) in sorted(placement):
        size = 2 * (m - i) + 1
        seg = take(size)
        if kind == "arm":
            if key not in arm_paths:
                raise ValueError(f"no arm {key}")
            arm_paths[key].extend(seg)  # pendant extension beyond the tip
        elif kind == "internal":
            if key not in internal_paths:
                raise ValueError(f"no internal path {key}")
            if len(internal_paths[key]) == 2:
                raise ValueError(
                    f"internal path {key} has length one and cannot be extended"
                )
            pos = split_at[key]
            internal_paths[key][pos:pos] = seg
            split_at[key] = pos  # later segments stack at the same boundary
        else:
            raise ValueError(f"unknown placement kind {kind!r}")
        sources[i] = seg[m - i]
    edges = []
    for path in list(arm_paths.values()) + list(internal_paths.values()):
        edges.extend(zip(path, path[1:]))
    plan = InducedPlan(
        edges=tuple(edges),
        order=topology.tree.order + s1.total + s2.total,
        sources=tuple(sources[i] for i in range(1, m + 1)),
    )
    _last_plan = (spec, plan)
    return plan


def induce_tree(spec: InducedSpec) -> Tree:
    """Concrete tree induced by the sequence at degree m (default or explicit
    Stage-2 placement); its order always equals induced_order."""
    return Tree._built(induced_plan(spec).edges)


def witness_schedule(spec: InducedSpec, tree: Optional[Tree] = None) -> BurningSchedule:
    """Length-m burning sequence with block roots as the early sources and
    segment centers for the remaining rounds.  Read off the plan; no tree is
    built.  A given `tree` must have exactly the plan's edges."""
    plan = induced_plan(spec)
    if tree is not None and tree.edges != tuple(
        sorted((u, v) if u < v else (v, u) for u, v in plan.edges)
    ):
        raise ValueError("tree was not produced by this spec")
    return BurningSchedule(sources=plan.sources)


def _rooted_descendants(
    topology: Topology, block: Block, v: int
) -> frozenset:
    """Vertices of the subtree of the block hanging at v (away from the root):
    the u whose path from the root passes through v."""
    d = topology.branch_distance
    r = block.root
    return frozenset(u for u in block.vertex_set if d(r, u) == d(r, v) + d(v, u))


def _reduction_sites(
    topology: Topology, seq: AdmissibleSequence, sig: Dict[int, int]
) -> Iterator[Tuple[int, int, int, int]]:
    """(i, j, v, w) with w in block i adjacent to v in block j, i < j, and
    sig(v) = sig(w) + 1, in lexicographic (i, j, v) order."""
    where = _block_index(seq)
    sites = []
    for v in sorted(topology.branch_vertices):
        j = where[v]
        for w in topology.branch_neighbors(v):
            i = where[w]
            if i < j and sig[v] == sig[w] + 1:
                sites.append((i, j, v, w))
    return iter(sorted(sites))


def reduce_once(
    topology: Topology, seq: AdmissibleSequence
) -> Optional[AdmissibleSequence]:
    """Apply one reduction (lexicographically smallest site) or return None."""
    sig = signature(topology, seq)
    for i, j, v, w in _reduction_sites(topology, seq, sig):
        block_i = seq.blocks[i - 1]
        block_j = seq.blocks[j - 1]
        moved = _rooted_descendants(topology, block_j, v)
        new_i = Block(vertex_set=block_i.vertex_set | moved, root=block_i.root)
        remaining = block_j.vertex_set - moved
        if remaining:
            new_j = Block(vertex_set=remaining, root=block_j.root)
        else:
            new_j = EMPTY_BLOCK
        blocks = list(seq.blocks)
        blocks[i - 1] = new_i
        blocks[j - 1] = new_j
        return AdmissibleSequence(blocks=tuple(blocks))
    return None


def is_canonical(topology: Topology, seq: AdmissibleSequence) -> bool:
    """True iff no reduction applies."""
    sig = signature(topology, seq)
    return next(_reduction_sites(topology, seq, sig), None) is None


def canonicalize(topology: Topology, seq: AdmissibleSequence) -> AdmissibleSequence:
    """Apply reductions to a fixpoint; the result is independent of choices."""
    current = seq
    while True:
        reduced = reduce_once(topology, current)
        if reduced is None:
            return current
        current = reduced


def enumerate_admissible(
    topology: Topology, max_length: int
) -> List[AdmissibleSequence]:
    """All admissible sequences of length <= max_length whose last block is
    nonempty (trailing-empty variants are equivalent), in deterministic order.

    The brute-force reference: it builds every block assignment and filters
    it for connectivity.  The library builds canonical sequences directly
    (`enumerate_canonical`); tests compare the two."""
    branch = sorted(topology.branch_vertices)
    if len(branch) > 8:
        raise ValueError("enumeration limited to 8 branch vertices")
    results = []
    for length in range(1, max_length + 1):
        for assignment in _assignments(topology, branch, length):
            groups: List[List[int]] = [[] for _ in range(length)]
            for v, idx in zip(branch, assignment):
                groups[idx].append(v)
            if not groups[-1]:
                continue
            for blocks in _root_choices(groups):
                results.append(AdmissibleSequence(blocks=blocks))
    results.sort(key=lambda s: (s.length, sequence_key(s)))
    return results


def _assignments(topology: Topology, branch, length) -> Iterator[Tuple[int, ...]]:
    """Maps branch vertex -> block index with connected nonempty blocks."""
    for assignment in product(range(length), repeat=len(branch)):
        groups: Dict[int, set] = {}
        for v, idx in zip(branch, assignment):
            groups.setdefault(idx, set()).add(v)
        if all(_connected(topology, frozenset(g)) for g in groups.values()):
            yield assignment


def _root_choices(groups: List[List[int]]) -> Iterator[Tuple[Block, ...]]:
    return product(*(
        [Block(frozenset(g), root) for root in sorted(g)] if g else [EMPTY_BLOCK]
        for g in groups
    ))


# Largest branch-vertex count the canonical construction accepts.  At
# k = 10 one search takes about 1 s on the star-shaped skeleton, at k = 11
# 3.4-4.8 s (Python 3.11, one core of a shared 2-core machine).
MAX_BRANCH_VERTICES = 10


# Every (index, distance) pair a table holds, made once: the offsets and
# out-edges of all tables share them.
_PAIRS = tuple(
    tuple((i, d) for d in range(MAX_BRANCH_VERTICES)) for i in range(MAX_BRANCH_VERTICES)
)


class _Placement(NamedTuple):
    """One connected block with one choice of root, as the construction
    places it.  Members are branch-vertex indices (positions in the sorted
    branch vertices); placed at index j, member i gets sig(i) = d + j."""

    mask: int  # the members, as a bitmask over the indices
    root: int  # index of the root
    offsets: Tuple[Tuple[int, int], ...]  # (member i, d(root, i))
    # (w, d(root, v)) for every skeleton edge from a member v to a w outside
    # the block; with w placed earlier, the edge is a reduction site iff
    # sig(w) = d(root, v) + j - 1.
    edges_out: Tuple[Tuple[int, int], ...]
    out_dist: int  # sum of d(root, v) over edges_out
    inner: int  # skeleton edges inside the block: members - 1


class _BlockTable:
    """Every connected block of a labelled skeleton (`Topology.skeleton`'s
    sorted branch ids and skeleton edges; arms do not enter), as a bitmask
    over the sorted branch vertices, with each root's `_Placement`.  Shared
    and read-only; a placement's `Block` and key are made on demand."""

    def __init__(self, branch: tuple, skeleton: tuple):
        k = len(branch)
        if k > MAX_BRANCH_VERTICES:
            raise ValueError(
                f"enumeration limited to {MAX_BRANCH_VERTICES} branch vertices"
            )
        index = {v: i for i, v in enumerate(branch)}
        neighbors: List[List[int]] = [[] for _ in branch]
        for u, v in skeleton:
            neighbors[index[u]].append(index[v])
            neighbors[index[v]].append(index[u])
        self.branch = branch
        self.k = k
        self.full = (1 << k) - 1
        self.neighbor_bits = bits = tuple(sum(1 << w for w in nb) for nb in neighbors)
        dist = []  # one search of the skeleton tree per branch vertex
        for s in range(k):
            d = [-1] * k
            d[s] = 0
            stack = [s]
            while stack:
                x = stack.pop()
                for w in neighbors[x]:
                    if d[w] < 0:
                        d[w] = d[x] + 1
                        stack.append(w)
            dist.append(d)
        self.placements: Dict[int, List[_Placement]] = {}
        for mask in range(1, self.full + 1):
            members = [i for i in range(k) if mask >> i & 1]
            # the skeleton is a tree, so a vertex set is connected iff it
            # spans |set| - 1 skeleton edges
            if sum((bits[i] & mask).bit_count() for i in members) != 2 * len(members) - 2:
                continue
            out = [(i, w) for i in members for w in neighbors[i] if not mask >> w & 1]
            entries = self.placements[mask] = []
            for r in members:
                d = dist[r]
                entries.append(_Placement(
                    mask,
                    r,
                    tuple([_PAIRS[i][d[i]] for i in members]),
                    tuple([_PAIRS[w][d[i]] for i, w in out]),
                    sum([d[i] for i, _ in out]),
                    len(members) - 1,
                ))
        self.masks = tuple(self.placements)

    def key(self, p: _Placement) -> tuple:
        """`p`'s entry of `sequence_key`."""
        return (
            tuple(v for i, v in enumerate(self.branch) if p.mask >> i & 1),
            self.branch[p.root],
        )

    def block(self, p: _Placement) -> Block:
        ids, root = self.key(p)
        return Block(frozenset(ids), root)


# Labelled skeletons whose `_BlockTable` `_block_table` keeps.  One pass of
# the adm-search benchmark asks for 15 (its 24 four-branch degree-grid
# topologies share two).
_TABLE_MEMO = 16


@lru_cache(maxsize=_TABLE_MEMO)
def _block_table(branch: tuple, skeleton: tuple) -> _BlockTable:
    """The shared, read-only `_BlockTable` of a labelled skeleton."""
    return _BlockTable(branch, skeleton)


def _edges_to_placed(
    edges_out: Tuple[Tuple[int, int], ...], sig: List[int], j: int
) -> Optional[Tuple[int, int, int]]:
    """The reduction-site test for a block placed at index j: None if some
    edge from a member v to an earlier-placed w has sig(v) = sig(w) + 1;
    otherwise (count, sum of d(root, v), sum of sig(w)) over the edges to
    placed w.  Unplaced vertices hold sig -1 and are skipped."""
    count = d_sum = s_sum = 0
    for w, d in edges_out:
        s = sig[w]
        if s >= 0:
            if s == d + j - 1:
                return None
            count += 1
            d_sum += d
            s_sum += s
    return count, d_sum, s_sum


def _canonical_sequences(
    topology: Topology, max_length: int, empty_blocks: bool
) -> Iterator[AdmissibleSequence]:
    """Canonical admissible sequences of length <= max_length whose last
    block is nonempty, built block by block.

    Blocks 1, 2, ... are placed in order.  Block j is empty (only when
    `empty_blocks` is true and j < max_length) or a connected set S of the
    unplaced branch vertices with a root r in S, which sets
    sig(v) = d(r, v) + j for v in S.  The block is rejected as soon as some
    v in S has a neighbour w placed earlier with sig(v) = sig(w) + 1
    (`_edges_to_placed`): that is a reduction site in `_reduction_sites`'
    sense.  A sequence is yielded once every branch vertex is placed.

    The check is exact.  Every adjacent pair in different blocks is tested
    exactly once, when the later block is placed, and both signatures are
    final by then.  So a completed sequence passes every test iff it has no
    reduction site, and a prefix that contains a site cannot be completed
    to a canonical sequence.  The output, as a set, is therefore
    ``[s for s in enumerate_admissible(t, L) if is_canonical(t, s)]``; with
    `empty_blocks` false it is the part of that set without an empty block.
    """
    table = _block_table(*topology.skeleton()[:2])
    # each placement with its Block, made once per call
    placements = {
        mask: [(p, table.block(p)) for p in entries]
        for mask, entries in table.placements.items()
    }
    sig = [-1] * table.k  # -1 until placed; placed signatures are >= 1
    blocks: List[Block] = []

    def place(j: int, free: int, candidates: List[int]) -> Iterator[AdmissibleSequence]:
        # candidates: the connected blocks inside `free`, the unplaced set
        if j == max_length:
            # the last block must take every unplaced vertex
            candidates = [free] if free in placements else []
        elif empty_blocks:
            blocks.append(EMPTY_BLOCK)
            yield from place(j + 1, free, candidates)
            blocks.pop()
        for mask in candidates:
            rest = None
            for p, block in placements[mask]:
                if _edges_to_placed(p.edges_out, sig, j) is None:
                    continue
                for i, d in p.offsets:
                    sig[i] = d + j
                blocks.append(block)
                if mask == free:
                    yield AdmissibleSequence(blocks=tuple(blocks))
                else:
                    if rest is None:
                        rest = [b for b in candidates if not b & mask]
                    yield from place(j + 1, free ^ mask, rest)
                blocks.pop()
                for i, _ in p.offsets:
                    sig[i] = -1

    if max_length >= 1:
        yield from place(1, table.full, table.masks)


def best_canonical(
    topology: Topology, m: int
) -> Tuple[int, AdmissibleSequence, Dict[int, int]]:
    """(order, sequence, signature) of the canonical sequence without empty
    blocks that passes rule 2c and has the largest induced order at m, ties
    broken by least `sequence_key`.  Needs m > k, the branch-vertex count.

    The search places blocks as `_canonical_sequences` does (same site
    test, no empty block) and scores each block as it is placed.  For a
    sequence of L nonempty blocks the induced order is
    |T| + sum over arms (m - 1 - sig v) + sum over cross-block skeleton
    edges (2m - sig u - sig v) + (m - L)^2, the last term being Stage 2.
    So placing block j with root r and members S adds
    sum_{v in S} arms(v) (m - 1 - d(r, v) - j), plus
    2m - d(r, v) - j - sig(w) for each edge from v in S to an
    earlier-placed w; a complete sequence adds (m - L)^2.

    The winner does not depend on m.  Blocks are connected subtrees of the
    skeleton tree, so L blocks leave exactly L - 1 cross-block edges, and
    the order above equals |T| + m^2 + (A - 2) m - A + L^2
    - sum over arms sig v - sum over cross edges (sig u + sig v), with A
    the number of arms: m shifts every sequence's order by the same
    amount.  The search therefore scores at the least allowed degree
    m0 = k + 1, where the bound below is tightest, and adds
    (m - m0)(m + m0 + A - 2) to the winner's order.

    Rule 2c (`extremal._prune_tag`: roots of blocks i < j - 1 adjacent) is
    tested when block j is placed, against the roots of blocks
    1 .. j - 2.  Roots never change once placed, so a prefix that fails it
    fails in every completion, and each pair of roots is tested once, when
    the later one is placed: the test is exact.

    Upper bound.  Let blocks 1 .. j - 1 be placed with score s.  In any
    completion every unplaced v gets sig(v) >= j, and L >= j.  Every term
    of the order is non-increasing in each signature and in L (as L <= k
    < m), and an edge inside a block adds 0 <= 2m - sig u - sig v, since
    every signature is at most k < m (block i holds at most k - i + 1
    vertices).  Bounding each term at sig = j and L = j, the completion has
    order at most
    |T| + s + A_U (m - 1 - j) + sum_{placed w - unplaced v} (2m - j - sig w)
    + E_UU (2m - 2j) + (m - j)^2,
    where A_U counts the arms at unplaced vertices and E_UU the skeleton
    edges between them.  A_U, E_UU and the count and sig-sum of the
    placed-unplaced edges are carried down the recursion, so the bound
    costs O(1) per prefix.  A prefix is cut only when its bound is strictly
    below the best order found, so every sequence that ties the winner is
    still compared by `sequence_key`.

    Memo.  The search reads only `Topology.skeleton`'s triple, and
    `_best_at_m0` keeps its result for the last `_SEARCH_MEMO` triples: one
    search serves every m and every topology with that labelled skeleton.
    This is exact, as |T| = k + A, and `sequence_key` reads only branch ids.
    Its block table depends on branch ids and skeleton edges alone and is
    shared through `_block_table`.
    """
    k = len(topology.branch_vertices)
    if m <= k:
        raise ValueError(f"m must exceed the branch-vertex count {k}")
    order, blocks, sig, arms = _best_at_m0(*topology.skeleton())
    m0 = k + 1
    return (
        order + (m - m0) * (m + m0 + arms - 2),
        AdmissibleSequence(blocks=blocks),
        dict(sig),
    )


# `Topology.skeleton` triples (branch ids, skeleton edges, arm counts) whose
# search result `_best_at_m0` keeps, least recently used dropped first.  One
# pass of the adm-search benchmark asks for 37 distinct triples.
_SEARCH_MEMO = 256


@lru_cache(maxsize=_SEARCH_MEMO)
def _best_at_m0(branch: tuple, skeleton: tuple, arms: tuple):
    """`best_canonical` at m0 = k + 1 for `Topology.skeleton`'s triple, as
    immutable values: (order at m0, blocks, ((vertex, sig), ...), A)."""
    table = _block_table(branch, skeleton)
    k = table.k
    # per block, the arms at its members; per placement, the sum over
    # members v of arms(v) * d(root, v)
    placements = {
        mask: (
            sum([arms[i] for i, _ in entries[0].offsets]),
            [(p, sum([arms[i] * d for i, d in p.offsets])) for p in entries],
        )
        for mask, entries in table.placements.items()
    }
    m0 = k + 1  # the degree the search scores at
    # larger blocks first: the one-block sequence scores high, so the bound
    # starts cutting at once
    masks = sorted(table.masks, key=lambda mask: -mask.bit_count())
    neighbor_bits = table.neighbor_bits
    two_m0 = 2 * m0
    sig = [-1] * k
    stack: List[_Placement] = []
    best_order = -1
    best: List[_Placement] = []
    best_key: Optional[tuple] = None

    def place(j, free, candidates, old_roots, last_root, score, arms_free,
              cross_count, cross_sig, free_edges):
        # candidates: the connected blocks inside `free`, the unplaced set;
        # old_roots: roots of blocks 1 .. j - 2; last_root: root of j - 1
        nonlocal best_order, best, best_key
        arm_rate = m0 - 1 - j
        cross_rate = two_m0 - j
        for mask in candidates:
            complete = mask == free
            rest = None
            p_arms, entries = placements[mask]
            for p, arm_dist in entries:
                if neighbor_bits[p.root] & old_roots:
                    continue
                hit = _edges_to_placed(p.edges_out, sig, j)
                if hit is None:
                    continue
                n_placed, d_placed, s_placed = hit
                gained = (
                    score + p_arms * arm_rate - arm_dist
                    + n_placed * cross_rate - d_placed - s_placed
                )
                if complete:
                    order = gained + (m0 - j) ** 2
                    if order > best_order:
                        best_order, best, best_key = order, stack + [p], None
                    elif order == best_order:
                        if best_key is None:
                            best_key = tuple(map(table.key, best))
                        key = tuple(map(table.key, stack)) + (table.key(p),)
                        if key < best_key:
                            best, best_key = stack + [p], key
                    continue
                # the child's state, after block j
                n_new = len(p.edges_out) - n_placed
                c_arms = arms_free - p_arms
                c_count = cross_count - n_placed + n_new
                c_sig = cross_sig - s_placed + p.out_dist - d_placed + j * n_new
                c_edges = free_edges - n_new - p.inner
                c = j + 1
                bound = (
                    gained + c_arms * (m0 - 1 - c) + c_count * (two_m0 - c)
                    - c_sig + c_edges * (two_m0 - 2 * c) + (m0 - c) ** 2
                )
                if bound < best_order:
                    continue
                if rest is None:
                    rest = [b for b in candidates if not b & mask]
                for i, d in p.offsets:
                    sig[i] = d + j
                stack.append(p)
                place(c, free ^ mask, rest, old_roots | last_root, 1 << p.root,
                      gained, c_arms, c_count, c_sig, c_edges)
                stack.pop()
                for i, _ in p.offsets:
                    sig[i] = -1

    n_arms = sum(arms)
    place(1, table.full, masks, 0, 0, 0, n_arms, 0, 0, k - 1)
    return (
        k + n_arms + best_order,
        tuple(map(table.block, best)),
        tuple((branch[i], d + j) for j, p in enumerate(best, start=1) for i, d in p.offsets),
        n_arms,
    )


def enumerate_canonical(
    topology: Topology, max_length: int
) -> List[AdmissibleSequence]:
    """All canonical admissible sequences of length <= max_length whose last
    block is nonempty, sorted by length and then `sequence_key`."""
    return sorted(
        _canonical_sequences(topology, max_length, empty_blocks=True),
        key=lambda s: (s.length, sequence_key(s)),
    )


# ---------------------------------------------------------------------------
# Text formats.

def parse_compact(text: str, labels: Dict[str, int]) -> AdmissibleSequence:
    """Parse the compact notation, e.g. ``A_BC,D`` or ``A,C_BD,~``.

    Each comma-separated token is a block: the leading letter is the root,
    letters after ``_`` are the other members; ``~`` (or ``0``/``empty``)
    denotes an empty block.
    """
    blocks = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise ValueError("empty block token")
        if token in EMPTY_TOKENS:
            blocks.append(EMPTY_BLOCK)
            continue
        if "_" in token:
            root_part, rest = token.split("_", 1)
        else:
            root_part, rest = token, ""
        members = [root_part] + list(rest)
        try:
            ids = frozenset(labels[ch] for ch in members)
        except KeyError as exc:
            raise ValueError(f"unknown vertex letter {exc.args[0]!r}") from None
        blocks.append(Block(vertex_set=ids, root=labels[root_part]))
    return AdmissibleSequence(blocks=tuple(blocks))


def format_compact(
    seq: AdmissibleSequence,
    labels: Dict[str, int],
    topology: Optional[Topology] = None,
) -> str:
    """Inverse of parse_compact.  With a topology, block members are listed by
    distance from the root (the usual written convention); otherwise by name."""
    names = {v: k for k, v in labels.items()}
    parts = []
    for block in seq.trimmed().blocks:
        if block.empty:
            parts.append("~")
            continue
        members = [v for v in block.vertex_set if v != block.root]
        if topology is not None:
            members.sort(
                key=lambda v: (topology.branch_distance(block.root, v), names[v])
            )
        else:
            members.sort(key=lambda v: names[v])
        others = "".join(names[v] for v in members)
        parts.append(names[block.root] + ("_" + others if others else ""))
    return ",".join(parts)


def parse_block_lines(text: str, n_blocks: Optional[int] = None) -> AdmissibleSequence:
    """Parse the line format ``block <i> root <v> members <v1,v2,...>`` /
    ``block <i> empty``.  Blocks are numbered from 1 (up to `n_blocks` when
    given), each at most once; a missing block is empty."""
    entries: Dict[int, Block] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 3 or parts[0] != "block" or not parts[1].isdigit():
            raise ValueError(f"malformed line: {raw!r}")
        idx = int(parts[1])
        if idx < 1 or (n_blocks is not None and idx > n_blocks):
            raise ValueError(f"block {idx} out of range: {raw!r}")
        if idx in entries:
            raise ValueError(f"block {idx} given twice: {raw!r}")
        if len(parts) == 3 and parts[2] == "empty":
            entries[idx] = EMPTY_BLOCK
        elif len(parts) == 6 and parts[2] == "root" and parts[4] == "members":
            root = int(parts[3])
            members = frozenset(int(x) for x in parts[5].split(","))
            entries[idx] = Block(vertex_set=members, root=root)
        else:
            raise ValueError(f"malformed line: {raw!r}")
    length = n_blocks if n_blocks is not None else (max(entries) if entries else 0)
    blocks = tuple(entries.get(i, EMPTY_BLOCK) for i in range(1, length + 1))
    return AdmissibleSequence(blocks=blocks)
