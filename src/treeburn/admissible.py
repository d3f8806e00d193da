"""Admissible sequences over a homeomorphically irreducible tree.

A sequence of rooted blocks partitions the branch vertices; its signature
assigns each branch vertex the distance to its block root plus the block
index.  Sequences induce concrete trees of a chosen degree m via two stages of
arm/internal-path extension, and reduce to a unique canonical form.
Canonical sequences are built directly, block by block
(`enumerate_canonical`), and `best_canonical` scores them as it builds them
to find the extremal one, its order and sequence, without building a tree;
`enumerate_admissible` with `is_canonical` is the brute-force reference.
`_layout` validates an `InducedSpec` and numbers its fresh vertices, and
keeps nothing: `witness_schedule` reads the sources off that numbering in
O(|T| + m), |T| = k + A the topology's order (k branch vertices, A arms),
with one walk per block to validate and sign the sequence and one sum over
arms and skeleton edges for Stage 1; `induced_plan` lays the paths out on
it for `induce_tree`.  `_walk` is the one walk of the skeleton: signatures,
reductions, the brute-force enumeration and the block tables all use it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Callable, Container, Dict, Iterator, List, NamedTuple, Optional, Tuple

from .tree import Tree
from .topology import Topology
from .burning import BurningSchedule


EMPTY_TOKENS = {"~", "0", "empty"}


class _BlockFields(NamedTuple):
    vertex_set: frozenset
    root: Optional[int]


class Block(_BlockFields):
    """A rooted set of branch vertices; empty blocks have no root."""

    __slots__ = ()

    def __new__(cls, vertex_set: frozenset, root: Optional[int]) -> "Block":
        if vertex_set:
            if root is None or root not in vertex_set:
                raise ValueError("nonempty block needs a root from its vertex set")
        elif root is not None:
            raise ValueError("empty block cannot have a root")
        return _BlockFields.__new__(cls, vertex_set, root)

    # checks as `__new__` does; `_replace` builds through it
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def empty(self) -> bool:
        return not self.vertex_set


EMPTY_BLOCK = Block(frozenset(), None)


class AdmissibleSequence(NamedTuple):
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


def _walk(
    neighbors: Callable, members: Container[int], root: int, i: int
) -> Dict[int, int]:
    """d(root, v) + i for every member v that a walk from `root` over
    `neighbors(x)`, restricted to `members`, reaches.  The members are
    connected iff it reaches all of them."""
    reached = {root: i}
    stack = [root]
    while stack:
        x = stack.pop()
        s = reached[x] + 1
        for w in neighbors(x):
            if w in members and w not in reached:
                reached[w] = s
                stack.append(w)
    return reached


def _check(
    topology: Topology, seq: AdmissibleSequence
) -> Tuple[List[str], Dict[int, int], Dict[int, int]]:
    """(problems, block index, signature) in one pass over the blocks and
    one `_walk` per block; the last two hold only when `problems` is
    empty.  Block i reports each member that is not a branch vertex or is
    in an earlier block, then, when every member is a branch vertex,
    whether the walk from its root reaches every member; the unassigned
    branch vertices come last."""
    problems = []
    branch = topology.branch_vertices
    where: Dict[int, int] = {}
    sig: Dict[int, int] = {}
    for i, block in enumerate(seq.blocks, start=1):
        members = block.vertex_set
        for v in members:
            if v not in branch:
                problems.append(f"block {i}: vertex {v} is not a branch vertex")
            elif v in where:
                problems.append(
                    f"not a partition: vertex {v} in blocks {where[v]} and {i}"
                )
            else:
                where[v] = i
        # a member outside the branch vertices is reported above; only a
        # block of branch vertices is tested for connectivity
        if members and members <= branch:
            reached = _walk(topology.branch_neighbors, members, block.root, i)
            if len(reached) < len(members):
                problems.append(f"block {i} not connected")
            sig.update(reached)
    if len(where) < len(branch):
        problems.append(f"not a partition: {sorted(branch - where.keys())} unassigned")
    return problems, where, sig


def validate(topology: Topology, seq: AdmissibleSequence) -> List[str]:
    """Return the list of violated invariants (empty when the sequence is ok)."""
    return _check(topology, seq)[0]


def _signed(
    topology: Topology, seq: AdmissibleSequence
) -> Tuple[Dict[int, int], Dict[int, int]]:
    """(block index, signature) of a valid sequence; a ValueError joining
    `validate`'s problems otherwise."""
    problems, where, sig = _check(topology, seq)
    if problems:
        raise ValueError("; ".join(problems))
    return where, sig


def signature(topology: Topology, seq: AdmissibleSequence) -> Dict[int, int]:
    """sig(v) = distance from v to its block root, plus the block index.

    The distance is read off `_walk` inside the block, the one skeleton
    walk.  It is the tree distance: the skeleton holds the tree path between
    two branch vertices (no vertex has degree 2), and a connected vertex set
    of a tree holds the path between any two of its vertices."""
    return _signed(topology, seq)[1]


def _require_degree(sig: Dict[int, int], m: int) -> None:
    top = max(sig.values())
    if m <= top:
        raise ValueError(f"m must exceed the maximum signature {top}")


class Stage1Additions(NamedTuple):
    arm_counts: Dict[Tuple[int, int], int]
    internal_counts: Dict[Tuple[int, int], int]
    total: int


class Stage2Additions(NamedTuple):
    rounds: Tuple[int, ...]
    total: int


def stage1_additions(
    topology: Topology, seq: AdmissibleSequence, m: int
) -> Stage1Additions:
    """Arm extensions m - sig(v) - 1 and cross-block internal extensions
    2m - sig(v) - sig(v')."""
    return _stage1(topology, *_signed(topology, seq), m)


def _stage1(
    topology: Topology, where: Dict[int, int], sig: Dict[int, int], m: int
) -> Stage1Additions:
    """`stage1_additions` from `_signed`'s block index and signature."""
    _require_degree(sig, m)
    arm_counts = {(v, leaf): m - sig[v] - 1 for v, leaf in topology._arms}
    internal_counts = {
        (u, v): 2 * m - sig[u] - sig[v] if where[u] != where[v] else 0
        for u, v in topology._internal_edges
    }
    total = sum(arm_counts.values()) + sum(internal_counts.values())
    return Stage1Additions(arm_counts=arm_counts, internal_counts=internal_counts, total=total)


def _stage2_rounds(blocks: Tuple[Block, ...], m: int) -> List[int]:
    """The Stage-2 rounds of a trimmed sequence's `blocks`: every i <= m
    whose block is empty or beyond the sequence, in increasing order."""
    rounds = [i for i, block in enumerate(blocks, 1) if i <= m and block.empty]
    rounds += range(len(blocks) + 1, m + 1)
    return rounds


def _stage2_blocks(seq: AdmissibleSequence, m: int) -> Tuple[Block, ...]:
    """The trimmed blocks both Stage-2 counts read; a ValueError for m < 0,
    where no round list or closed form is meant."""
    if m < 0:
        raise ValueError(f"m must be at least 0, got {m}")
    return seq.trimmed().blocks


def stage2_additions(seq: AdmissibleSequence, m: int) -> Stage2Additions:
    """One segment of 2(m-i)+1 vertices for every Stage-2 round i."""
    rounds = tuple(_stage2_rounds(_stage2_blocks(seq, m), m))
    return Stage2Additions(rounds=rounds, total=sum(2 * (m - i) + 1 for i in rounds))


def stage2_total(seq: AdmissibleSequence, m: int) -> int:
    """`stage2_additions(seq, m).total` in closed form, with no round list.

    With L the trimmed length capped at m, the rounds L+1..m contribute
    the odd numbers 2(m-i)+1 = 1, 3, ..., 2(m-L)-1, which sum to (m-L)^2;
    every empty block i <= L adds its own 2(m-i)+1."""
    blocks = _stage2_blocks(seq, m)[:m]
    return (m - len(blocks)) ** 2 + sum(
        2 * (m - i) + 1 for i, block in enumerate(blocks, start=1) if block.empty
    )


def induced_order(topology: Topology, seq: AdmissibleSequence, m: int) -> int:
    return (
        topology.tree.order
        + stage1_additions(topology, seq, m).total
        + stage2_total(seq, m)
    )


# Stage-2 placement targets: ("arm", (branch, leaf)) or ("internal", (u, v)).
Location = Tuple[str, Tuple[int, int]]


class InducedSpec(NamedTuple):
    topology: Topology
    sequence: AdmissibleSequence
    m: int
    placement: Optional[Tuple[Tuple[int, Location], ...]] = None


class InducedPlan(NamedTuple):
    """The induced tree as vertex paths, its order, and the source of each
    round.  The paths are the Stage-1 arm paths (each with its pendant
    Stage-2 segments beyond the tip) and then the internal paths (with
    their spliced segments): edge-disjoint, every interior vertex on one
    path only, so `Tree._built(paths)` builds the tree."""

    paths: Tuple[Tuple[int, ...], ...]
    order: int
    sources: Tuple[int, ...]


def _layout(spec: InducedSpec):
    """(block index, sig, sorted placement, sources), validating the
    sequence (as `signature` does), then m, then the placement.  Fresh ids
    follow max(T): Stage-1 arm interiors, then internal ones (both
    sorted), then per Stage-2 round i, by increasing i, 2(m-i)+1 ids
    centred on its source.  So the sources need only the Stage-1 total,
    summed here over the arms and cross-block skeleton edges, and the
    Stage-2 rounds (`_stage2_rounds`)."""
    topology, seq, m = spec.topology, spec.sequence, spec.m
    where, sig = _signed(topology, seq)
    _require_degree(sig, m)
    stage1 = sum([m - 1 - sig[v] for v, _ in topology._arms])
    for u, v in topology._internal_edges:
        if where[u] != where[v]:
            stage1 += 2 * m - sig[u] - sig[v]
    blocks = seq.trimmed().blocks
    rounds = _stage2_rounds(blocks, m)
    placement = spec.placement
    if placement is None:  # on the least arm (`_arms` is sorted)
        placement = [(i, ("arm", topology._arms[0])) for i in rounds]
    else:
        if sorted(i for i, _ in placement) != rounds:
            raise ValueError(
                f"placement rounds {sorted(i for i, _ in placement)} "
                f"do not match the required rounds {rounds}"
            )
        placement = sorted(placement)
        arms, edges = set(topology._arms), set(topology._internal_edges)
        for _, (kind, key) in placement:
            if kind == "arm":
                if key not in arms:
                    raise ValueError(f"no arm {key}")
            elif kind == "internal":
                if key not in edges:
                    raise ValueError(f"no internal path {key}")
                if where[key[0]] == where[key[1]]:
                    raise ValueError(
                        f"internal path {key} has length one and cannot be extended"
                    )
            else:
                raise ValueError(f"unknown placement kind {kind!r}")
    sources = [block.root for block in blocks] + [None] * (m - len(blocks))
    start = max(topology.tree.vertices) + 1 + stage1
    for i, _ in placement:
        sources[i - 1] = start + m - i
        start += 2 * (m - i) + 1
    return where, sig, placement, tuple(sources)


def induced_plan(spec: InducedSpec) -> InducedPlan:
    """The induced tree's paths, order and sources, on `_layout`'s ids; the
    sequence is validated once, there."""
    topology, m = spec.topology, spec.m
    where, sig, placement, sources = _layout(spec)
    s1 = _stage1(topology, where, sig, m)
    fresh = max(topology.tree.vertices) + 1
    paths = {}  # arm or internal edge -> path
    for (u, v), n in [*s1.arm_counts.items(), *s1.internal_counts.items()]:
        paths[(u, v)] = [u, *range(fresh, fresh + n), v]
        fresh += n
    for i, (kind, key) in placement:
        seg = range(sources[i - 1] - m + i, sources[i - 1] + m - i + 1)
        if kind == "arm":
            paths[key].extend(seg)  # pendant extension beyond the tip
        else:  # where u's source's coverage meets v's; later ones stack
            at = 1 + m - sig[key[0]]
            paths[key][at:at] = seg
    return InducedPlan(
        paths=tuple(map(tuple, paths.values())),
        order=topology.tree.order + s1.total + stage2_total(spec.sequence, m),
        sources=sources,
    )


def induce_tree(spec: InducedSpec) -> Tree:
    """Concrete tree induced by the sequence at degree m (default or explicit
    Stage-2 placement); its order always equals induced_order."""
    return Tree._built(induced_plan(spec).paths)


def witness_schedule(spec: InducedSpec) -> BurningSchedule:
    """Length-m burning sequence with block roots as the early sources and
    segment centers for the remaining rounds, read off `_layout` with no
    path laid out."""
    *_, sources = _layout(spec)
    return BurningSchedule(sources=sources)


def _rooted_descendants(
    topology: Topology, block: Block, v: int, sig: Dict[int, int]
) -> frozenset:
    """Vertices of the subtree of the block hanging at v (away from the root):
    the u whose path from the root passes through v.  Within the block sig
    is the depth below the root plus a constant, so they are what a walk
    from v reaches through the members deeper than v."""
    deeper = {u for u in block.vertex_set if sig[u] > sig[v]}
    below = _walk(topology.branch_neighbors, deeper, v, 0)
    return frozenset(u for u in block.vertex_set if u in below)  # block order


def _reduction_sites(
    topology: Topology, where: Dict[int, int], sig: Dict[int, int]
) -> Iterator[Tuple[int, int, int, int]]:
    """(i, j, v, w) with w in block i adjacent to v in block j, i < j, and
    sig(v) = sig(w) + 1, in lexicographic (i, j, v) order; `where` and
    `sig` are `_signed`'s block index and signature."""
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
    where, sig = _signed(topology, seq)
    for i, j, v, w in _reduction_sites(topology, where, sig):
        block_i = seq.blocks[i - 1]
        block_j = seq.blocks[j - 1]
        moved = _rooted_descendants(topology, block_j, v, sig)
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
    return next(_reduction_sites(topology, *_signed(topology, seq)), None) is None


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
        if all(
            len(_walk(topology.branch_neighbors, g, next(iter(g)), 0)) == len(g)
            for g in groups.values()
        ):
            yield assignment


def _root_choices(groups: List[List[int]]) -> Iterator[Tuple[Block, ...]]:
    return product(*(
        [Block(frozenset(g), root) for root in sorted(g)] if g else [EMPTY_BLOCK]
        for g in groups
    ))


# Largest branch-vertex count the canonical construction accepts.  At
# k = 10 one search, block table included, takes about 0.08 s on the
# star-shaped skeleton and 0.1-0.2 s on paths, caterpillars and random
# skeletons; at k = 11, 0.3-1.1 s (Python 3.11, one core of a shared 2-core
# machine).
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
                f"the extremal search is limited to {MAX_BRANCH_VERTICES} branch vertices"
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
        # one walk of the skeleton tree per branch vertex
        step, everyone = neighbors.__getitem__, range(k)
        dist = [_walk(step, everyone, s, 0) for s in everyone]
        self.placements: Dict[int, List[_Placement]] = {}
        # inner[mask]: skeleton edges inside mask; the skeleton is a tree, so
        # a vertex set is connected iff it spans |set| - 1 of them
        inner = [0] * (self.full + 1)
        for mask in range(1, self.full + 1):
            low = mask & -mask
            inner[mask] = inner[mask ^ low] + (bits[low.bit_length() - 1] & mask).bit_count()
            if inner[mask] != mask.bit_count() - 1:
                continue
            members = [i for i in everyone if mask >> i & 1]
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


def best_canonical(topology: Topology, m: int) -> Tuple[int, AdmissibleSequence]:
    """(order, sequence) of the canonical sequence without empty blocks that
    passes rule 2c and has the largest induced order at m, ties broken by
    least `sequence_key`.  Needs m > k, the branch-vertex count.

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
    m0 = k + 1 and adds (m - m0)(m + m0 + A - 2) to the winner's order.

    Rule 2c (`extremal._prune_tag`: roots of blocks i < j - 1 adjacent) is
    tested when block j is placed, against the roots of blocks
    1 .. j - 2.  Roots never change once placed, so a prefix that fails it
    fails in every completion, and each pair of roots is tested once, when
    the later one is placed: the test is exact.

    Upper bound.  Let blocks 1 .. j - 1 be placed with score s.  Let U be
    the unplaced set, n_U = |U|, A_U the arms at vertices of U, P the
    skeleton edges from a placed w to an unplaced v, and E_UU the skeleton
    edges inside U.  U spans a forest of the skeleton tree, so it has
    q = n_U - E_UU components.  Take any completion, with blocks j .. L,
    and let B = L - j + 1 be the number it adds.
    - Blocks are connected, so each lies inside one component of U, and
      q <= B <= n_U.  The B blocks keep n_U - B of U's edges inside them,
      so exactly B - q edges of E_UU are cross-block edges.
    - Only block j's root gets sig j; every other v in U gets
      sig(v) >= j + 1.  So a cross edge inside U adds at most
      2m - 2j - 1, and an edge inside a block adds nothing.
    - v in U enters the arm and P terms w(v) = arms(v) + (placed
      neighbours of v) times, each time with coefficient -1 on sig(v).
      Priced at sig = j, every v other than block j's root is over-priced
      by at least w(v), which sums to at least A_U + |P| - w_max, where
      w_max is the largest w(v) over v in U.
    - Stage 2 adds (m - L)^2 = (m - j + 1 - B)^2.
    So the completion has order at most
    |T| + s + A_U (m - 1 - j) + sum_{(w, v) in P} (2m - j - sig w)
    - (A_U + |P| - w_max) + max_{q <= B <= n_U} g(B), with
    g(B) = (B - q)(2m - 2j - 1) + (m - j + 1 - B)^2.
    g is convex in B, so its maximum is max(g(q), g(n_U)).  A_U, E_UU, |P|
    and the sig-sum of P are carried down the recursion, so everything but
    w_max costs O(1) per prefix.  The search first tests the bound without
    the term -(A_U + |P| - w_max), which is never positive, and scans U for
    w_max only when that does not cut.  A prefix is cut only when its
    bound is strictly below the best order found, so every sequence that
    ties the winner is still compared by `sequence_key`.

    A cut ends the block's loop over roots.  For one member set S at
    index j, write a(r) = sum over v in S of arms(v) d(r, v) and o(r) the
    sum of d(r, v) over the skeleton edges from v in S to w outside S.
    The block's gain is -a(r) - d_P(r) plus terms free of r, with d_P(r)
    the part of o(r) on edges to placed w.  A complete S has every such w
    placed, so its order is free of r but for -(a(r) + o(r)).  Otherwise
    the other edges join P for the child and add their d(r, v) to its
    sig-sum, which the bound subtracts: -(o(r) - d_P(r)).  The count and
    sig-sum of placed neighbours, A_U, |P|, E_UU and w_max do not depend
    on r, so the bound too is free of r but for -(a(r) + o(r)).  The
    search tries S's roots by increasing (a + o, root); a root that is
    cut leaves every later one a bound or order no larger, and the best
    order only grows, so every later root would be cut too.  The site test
    and rule 2c depend on r otherwise, and only skip it.

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
    order, blocks, arms = _best_at_m0(*topology.skeleton())
    m0 = k + 1
    return order + (m - m0) * (m + m0 + arms - 2), AdmissibleSequence(blocks=blocks)


# `Topology.skeleton` triples (branch ids, skeleton edges, arm counts) whose
# search result `_best_at_m0` keeps, least recently used dropped first.  One
# pass of the adm-search benchmark asks for 37 distinct triples.
_SEARCH_MEMO = 256


@lru_cache(maxsize=_SEARCH_MEMO)
def _best_at_m0(branch: tuple, skeleton: tuple, arms: tuple):
    """`best_canonical` at m0 = k + 1 for `Topology.skeleton`'s triple, as
    immutable values: (order at m0, blocks, A)."""
    table = _block_table(branch, skeleton)
    k = table.k
    # per block, the arms at its members; per placement, the sum over
    # members v of arms(v) * d(root, v), the placements sorted so that a
    # strict cut ends the block's loop ("Upper bound")
    placements = {}
    for mask, entries in table.placements.items():
        scored = [(p, sum([arms[i] * d for i, d in p.offsets])) for p in entries]
        scored.sort(key=lambda e: (e[1] + e[0].out_dist, e[0].root))
        placements[mask] = (sum([arms[i] for i, _ in entries[0].offsets]), scored)
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
                    if order < best_order:
                        break
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
                # U = free ^ mask has q components and takes q to n_free
                # more blocks; only block c's root gets sig c ("Upper bound")
                unplaced = free ^ mask
                n_free = unplaced.bit_count()
                q = n_free - c_edges
                bound = (
                    gained + c_arms * (m0 - 1 - c) + c_count * (two_m0 - c) - c_sig
                    + max((m0 - c + 1 - q) ** 2,
                          c_edges * (two_m0 - 2 * c - 1) + (m0 - c + 1 - n_free) ** 2)
                )
                if bound < best_order:
                    break
                placed = ~unplaced
                w_max = max([
                    arms[v] + (neighbor_bits[v] & placed).bit_count()
                    for v in range(k) if unplaced >> v & 1
                ])
                if bound - (c_arms + c_count - w_max) < best_order:
                    break
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
    return k + n_arms + best_order, tuple(map(table.block, best)), n_arms


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
    seq: AdmissibleSequence, labels: Dict[str, int], topology: Topology
) -> str:
    """Inverse of parse_compact.  Block members are listed by distance from
    the root (the usual written convention), that is by signature, ties by
    name.  Every vertex of the sequence needs a label; ValueError names
    those without one, and `signature` rejects an invalid sequence."""
    names = {v: k for k, v in labels.items()}
    unnamed = sorted(v for b in seq.blocks for v in b.vertex_set if v not in names)
    if unnamed:
        raise ValueError(f"no label for branch vertices {unnamed}")
    sig = signature(topology, seq)
    parts = []
    for block in seq.trimmed().blocks:
        if block.empty:
            parts.append("~")
            continue
        members = [v for v in block.vertex_set if v != block.root]
        members.sort(key=lambda v: (sig[v], names[v]))
        others = "".join(names[v] for v in members)
        parts.append(names[block.root] + ("_" + others if others else ""))
    return ",".join(parts)


def parse_block_lines(text: str) -> AdmissibleSequence:
    """Parse the line format ``block <i> root <v> members <v1,v2,...>`` /
    ``block <i> empty``.  Blocks are numbered from 1, each at most once; a
    missing block is empty."""
    entries: Dict[int, Block] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 3 or parts[0] != "block" or not parts[1].isdigit():
            raise ValueError(f"malformed line: {raw!r}")
        idx = int(parts[1])
        if idx < 1:
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
    length = max(entries, default=0)
    blocks = tuple(entries.get(i, EMPTY_BLOCK) for i in range(1, length + 1))
    return AdmissibleSequence(blocks=blocks)
