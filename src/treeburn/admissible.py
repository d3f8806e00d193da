"""Admissible sequences over a homeomorphically irreducible tree.

A sequence of rooted blocks partitions the branch vertices; its signature
assigns each branch vertex the distance to its block root plus the block
index.  Sequences induce concrete trees of a chosen degree m via two stages of
arm/internal-path extension, and reduce to a unique canonical form.
Canonical sequences are built directly, block by block
(`enumerate_canonical`); `enumerate_admissible` with `is_canonical` is the
brute-force reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

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

    def padded(self, length: int) -> "AdmissibleSequence":
        if length < self.length:
            raise ValueError("cannot pad to a shorter length")
        return AdmissibleSequence(
            blocks=self.blocks + (EMPTY_BLOCK,) * (length - self.length)
        )


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
    topology: Topology, seq: AdmissibleSequence, m: int
) -> Stage1Additions:
    """Arm extensions m - sig(v) - 1 and cross-block internal extensions
    2m - sig(v) - sig(v')."""
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


@dataclass
class _BuildPlan:
    tree: Tree
    sources: Dict[int, int]  # round -> source vertex
    segments: Dict[int, Tuple[int, ...]]  # round -> inserted segment vertices


def _build_induced(spec: InducedSpec) -> _BuildPlan:
    topology, seq, m = spec.topology, spec.sequence, spec.m
    sig = signature(topology, seq)
    s1 = stage1_additions(topology, seq, m)
    s2 = stage2_additions(seq, m)
    fresh = max(topology.tree.vertices) + 1

    def take(k: int) -> List[int]:
        nonlocal fresh
        out = list(range(fresh, fresh + k))
        fresh += k
        return out

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
    arms_sorted = sorted(arm_paths)
    if spec.placement is None:
        placement = tuple((i, ("arm", arms_sorted[0])) for i in s2.rounds)
    else:
        placement = spec.placement
        if sorted(i for i, _ in placement) != list(s2.rounds):
            raise ValueError(
                f"placement rounds {sorted(i for i, _ in placement)} "
                f"do not match the required rounds {list(s2.rounds)}"
            )
    sources: Dict[int, int] = {}
    segments: Dict[int, Tuple[int, ...]] = {}
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
        segments[i] = tuple(seg)
    edges = []
    for path in list(arm_paths.values()) + list(internal_paths.values()):
        edges.extend(zip(path, path[1:]))
    return _BuildPlan(tree=Tree(edges), sources=sources, segments=segments)


def induce_tree(spec: InducedSpec) -> Tree:
    """Concrete tree induced by the sequence at degree m (default or explicit
    Stage-2 placement); its order always equals induced_order."""
    return _build_induced(spec).tree


def witness_schedule(spec: InducedSpec, tree: Optional[Tree] = None) -> BurningSchedule:
    """Length-m burning sequence with block roots as the early sources and
    segment centers for the remaining rounds."""
    plan = _build_induced(spec)
    if tree is not None and tree.order != plan.tree.order:
        raise ValueError("tree was not produced by this spec")
    return BurningSchedule(
        sources=tuple(plan.sources[i] for i in range(1, spec.m + 1))
    )


def _rooted_descendants(
    topology: Topology, block: Block, v: int
) -> frozenset:
    """Vertices of the subtree of the block hanging at v (away from the root)."""
    if v == block.root:
        return block.vertex_set
    # orient the block's tree away from its root
    parent = {block.root: None}
    stack = [block.root]
    while stack:
        u = stack.pop()
        for w in topology.branch_neighbors(u):
            if w in block.vertex_set and w not in parent:
                parent[w] = u
                stack.append(w)
    desc = {v}
    stack = [v]
    while stack:
        u = stack.pop()
        for w in topology.branch_neighbors(u):
            if w in block.vertex_set and parent.get(w) == u and w not in desc:
                desc.add(w)
                stack.append(w)
    return frozenset(desc)


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
    n = len(branch)

    def rec(pos: int, partial: List[int]) -> Iterator[Tuple[int, ...]]:
        if pos == n:
            groups: Dict[int, set] = {}
            for v, idx in zip(branch, partial):
                groups.setdefault(idx, set()).add(v)
            if all(
                _connected(topology, frozenset(g)) for g in groups.values()
            ):
                yield tuple(partial)
            return
        for idx in range(length):
            partial.append(idx)
            yield from rec(pos + 1, partial)
            partial.pop()

    yield from rec(0, [])


def _root_choices(groups: List[List[int]]) -> Iterator[Tuple[Block, ...]]:
    def rec(i: int, acc: List[Block]) -> Iterator[Tuple[Block, ...]]:
        if i == len(groups):
            yield tuple(acc)
            return
        if not groups[i]:
            acc.append(EMPTY_BLOCK)
            yield from rec(i + 1, acc)
            acc.pop()
            return
        vs = frozenset(groups[i])
        for root in sorted(groups[i]):
            acc.append(Block(vertex_set=vs, root=root))
            yield from rec(i + 1, acc)
            acc.pop()

    yield from rec(0, [])


# Largest branch-vertex count the canonical construction accepts.  The
# worst skeleton is the star, which has the most connected subsets:
# find_extremal on it took 18-19 s at k = 9 (1.5-2 s at k = 8), and on the
# path-shaped skeleton about 5 s at k = 9 and 49 s at k = 10 (Python 3.11,
# one core of a shared 2-core machine).
MAX_BRANCH_VERTICES = 9


def _canonical_sequences(
    topology: Topology, max_length: int, empty_blocks: bool
) -> Iterator[AdmissibleSequence]:
    """Canonical admissible sequences of length <= max_length whose last
    block is nonempty, built block by block.

    Blocks 1, 2, ... are placed in order.  Block j is empty (only when
    `empty_blocks` is true and j < max_length) or a connected set S of the
    unplaced branch vertices with a root r in S, which sets
    sig(v) = d(r, v) + j for v in S.  The block is rejected as soon as some
    v in S has a neighbour w placed earlier with sig(v) = sig(w) + 1: that
    is a reduction site in `_reduction_sites`' sense.  A sequence is yielded
    once every branch vertex is placed.

    The check is exact.  Every adjacent pair in different blocks is tested
    exactly once, when the later block is placed, and both signatures are
    final by then.  So a completed sequence passes every test iff it has no
    reduction site, and a prefix that contains a site cannot be completed
    to a canonical sequence.  The output, as a set, is therefore
    ``[s for s in enumerate_admissible(t, L) if is_canonical(t, s)]``; with
    `empty_blocks` false it is the part of that set without an empty block.
    """
    branch = sorted(topology.branch_vertices)
    k = len(branch)
    if k > MAX_BRANCH_VERTICES:
        raise ValueError(
            f"enumeration limited to {MAX_BRANCH_VERTICES} branch vertices"
        )
    index = {v: i for i, v in enumerate(branch)}
    dist = [[topology.branch_distance(u, v) for v in branch] for u in branch]
    neighbors = [
        [index[w] for w in topology.branch_neighbors(v)] for v in branch
    ]
    # Blocks by connected subset, as a bitmask: for each root r, the block,
    # the offsets (v, d(r, v)) that give sig(v) = d(r, v) + j, and the site
    # tests (w, d(r, v) - 1) for every neighbour w of a member v outside the
    # subset, read as "sig(w) == d(r, v) - 1 + j".
    blocks_of: Dict[int, List[Tuple[Block, tuple, tuple]]] = {}
    for mask in range(1, 1 << k):
        members = [i for i in range(k) if mask >> i & 1]
        vertex_set = frozenset(branch[i] for i in members)
        if not _connected(topology, vertex_set):
            continue
        blocks_of[mask] = []
        for r in members:
            d = dist[r]
            blocks_of[mask].append((
                Block(vertex_set=vertex_set, root=branch[r]),
                tuple((i, d[i]) for i in members),
                tuple(
                    (w, d[i] - 1)
                    for i in members
                    for w in neighbors[i]
                    if not mask >> w & 1
                ),
            ))
    masks = list(blocks_of)
    full = (1 << k) - 1
    sig = [-1] * k  # -1 until placed; placed signatures are >= 1
    blocks: List[Block] = []

    def place(j: int, placed: int) -> Iterator[AdmissibleSequence]:
        free = full ^ placed
        if j == max_length:
            # the last block must take every unplaced vertex
            candidates = [free] if free in blocks_of else []
        else:
            candidates = masks
            if empty_blocks:
                blocks.append(EMPTY_BLOCK)
                yield from place(j + 1, placed)
                blocks.pop()
        for mask in candidates:
            if mask & placed:
                continue
            for block, offsets, tests in blocks_of[mask]:
                for w, t in tests:
                    if sig[w] == t + j:
                        break
                else:
                    for i, d in offsets:
                        sig[i] = d + j
                    blocks.append(block)
                    if mask == free:
                        yield AdmissibleSequence(blocks=tuple(blocks))
                    else:
                        yield from place(j + 1, placed | mask)
                    blocks.pop()
                    for i, _ in offsets:
                        sig[i] = -1

    if max_length >= 1:
        yield from place(1, 0)


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
