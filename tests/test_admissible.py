import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from treeburn import admissible as adm
from treeburn.admissible import AdmissibleSequence, Block, InducedSpec
from treeburn.burning import burning_number, is_m_burnable, verify_schedule
from treeburn.extremal import CHAIN_SEQUENCES, TSHAPE_SEQUENCES, find_extremal
from treeburn.tree import Tree
from treeburn.topology import (
    Topology,
    make_chain_topology,
    make_star_topology,
    make_tshape_topology,
)

from conftest import count_builds, random_topology


CHAIN, CHAIN_LABELS = make_chain_topology(3, 3, 3, 3)
TSHAPE, TSHAPE_LABELS = make_tshape_topology(3, 3, 3, 3)
STAR, STAR_LABELS = make_star_topology(3)


def seq(text, labels=None):
    return adm.parse_compact(text, labels if labels is not None else CHAIN_LABELS)


def test_parse_and_format_round_trip():
    for text in ("A_B,C_D", "A_BC,D", "B_AC,D", "D_CB,A", "A,~,B_CD"):
        s = seq(text)
        assert adm.format_compact(s, CHAIN_LABELS, CHAIN) == text


def test_parse_block_lines():
    text = "block 1 root 0 members 0,1\nblock 2 empty\nblock 3 root 3 members 3,2\n"
    s = adm.parse_block_lines(text)
    assert s.length == 3
    assert s.blocks[1].empty
    assert s.blocks[2].root == 3
    for bad in ("block", "block\n", "block x empty", "block 1"):
        with pytest.raises(ValueError, match="malformed line"):
            adm.parse_block_lines(bad)
    with pytest.raises(ValueError, match="block 2 given twice"):
        adm.parse_block_lines(text + "block 2 root 1 members 1\n")
    with pytest.raises(ValueError, match="block 0 out of range"):
        adm.parse_block_lines("block 0 empty\n" + text)


def test_validate_catches_errors():
    # not a partition: vertex C missing
    bad = AdmissibleSequence(
        blocks=(
            Block(vertex_set=frozenset({0, 1}), root=0),
            Block(vertex_set=frozenset({3}), root=3),
        )
    )
    assert any("partition" in e for e in adm.validate(CHAIN, bad))
    # disconnected block {A, C} in the chain A-B-C-D
    bad2 = AdmissibleSequence(
        blocks=(
            Block(vertex_set=frozenset({0, 2}), root=0),
            Block(vertex_set=frozenset({1, 3}), root=1),
        )
    )
    assert any("connected" in e for e in adm.validate(CHAIN, bad2))
    with pytest.raises(ValueError):
        adm.signature(CHAIN, bad2)


def test_signature_chain():
    s = seq("A_B,C_D")
    sig = adm.signature(CHAIN, s)
    a, b, c, d = (CHAIN_LABELS[x] for x in "ABCD")
    assert sig == {a: 1, b: 2, c: 2, d: 3}
    s2 = seq("B_AC,D")
    sig2 = adm.signature(CHAIN, s2)
    assert sig2 == {b: 1, a: 2, c: 2, d: 2}


def test_stage_counts_chain_example():
    # <A_B,C_D> on the 3,3,3,3 chain at m=6:
    # arms 2(m-2) + (1+1)(m-3) + 2(m-4), internal B-C: 2m-4, then rounds 4..6
    s = seq("A_B,C_D")
    s1 = adm.stage1_additions(CHAIN, s, 6)
    assert s1.total == 2 * 4 + 2 * 3 + 2 * 2 + 8
    # rounds 3..6 each add a segment of 2(m-i)+1 vertices
    s2 = adm.stage2_additions(s, 6)
    assert s2.rounds == (3, 4, 5, 6)
    assert s2.total == 7 + 5 + 3 + 1
    assert adm.induced_order(CHAIN, s, 6) == 52


def test_stage2_closed_form_matches_round_list():
    texts = ["A_B,C_D", "A_BCD", "A,~,B_CD", "A_BC,~,~,D", "~,A,~,B,~,C,D", "A,B,C,D,~,~"]
    for text in texts:
        s = seq(text)
        for m in range(1, 51):
            want = sum(2 * (m - i) + 1 for i in adm.stage2_additions(s, m).rounds)
            assert adm.stage2_total(s, m) == want, (text, m)


def test_stage2_counts_share_their_precondition():
    # m < 0 is refused by both counts alike, and from m = 0 on they agree
    for name in CHAIN_SEQUENCES:
        s = seq(name)
        for m in (-2, -1):
            for count in (adm.stage2_total, lambda s, m: adm.stage2_additions(s, m).total):
                with pytest.raises(ValueError, match=rf"^m must be at least 0, got {m}$"):
                    count(s, m)
        for m in range(4):
            assert adm.stage2_total(s, m) == adm.stage2_additions(s, m).total, (name, m)


def test_induced_plan_validates_once(monkeypatch):
    calls = []
    real = adm._check
    monkeypatch.setattr(adm, "_check", lambda *a: calls.append(a) or real(*a))
    spec = InducedSpec(topology=CHAIN, sequence=seq("A_B,C_D"), m=6)
    adm.induced_plan(spec)
    assert len(calls) == 1


def test_stage1_requires_m_above_signature():
    s = seq("A_B,C_D")
    with pytest.raises(ValueError):
        adm.stage1_additions(CHAIN, s, 3)


def test_star_single_block_order():
    s = adm.parse_compact("H", STAR_LABELS)
    # n(m-1) + 1 + (m-1)^2 with n = 3, m = 4
    assert adm.induced_order(STAR, s, 4) == 19


def test_induced_tree_order_and_witness():
    for text, m in (("A_B,C_D", 6), ("B_AC,D", 6), ("D_CB,A", 7)):
        s = seq(text)
        spec = InducedSpec(topology=CHAIN, sequence=s, m=m)
        tree = adm.induce_tree(spec)
        assert tree.order == adm.induced_order(CHAIN, s, m)
        sched = adm.witness_schedule(spec)
        flags = verify_schedule(tree, sched)
        assert flags.is_burning_sequence
        assert len(sched.sources) == m


def test_induced_tree_with_internal_placement_matches_recorded_edges():
    # two Stage-2 segments spliced into the B-C path, two pendant on arms;
    # the edges, in order, as recorded when plans still held edge lists
    placement = (
        (3, ("internal", (1, 2))),
        (4, ("arm", (0, 4))),
        (5, ("internal", (1, 2))),
        (6, ("arm", (3, 9))),
    )
    spec = InducedSpec(topology=CHAIN, sequence=seq("A_B,C_D"), m=6, placement=placement)
    tree = adm.induce_tree(spec)
    want = (Path(__file__).parent / "golden" / "induce_chain3333_internal.txt").read_text()
    assert "".join(f"edge {u} {v}\n" for u, v in tree.edges) == want
    assert tree.order == 52


def _random_placement(rng, topo, s, m):
    """A Stage-2 placement of every required round on a random arm or on a
    random internal path longer than one edge."""
    s1 = adm.stage1_additions(topo, s, m)
    slots = [("arm", a) for a in topo.arms()]
    slots += [("internal", e) for e, n in s1.internal_counts.items() if n]
    return tuple((i, rng.choice(slots)) for i in adm.stage2_additions(s, m).rounds)


def test_witness_schedule_reads_the_plan(rng, monkeypatch):
    built = []
    for _ in range(200):
        topo = random_topology(rng, 4)
        seqs = adm.enumerate_admissible(topo, 3)
        s = seqs[rng.randrange(len(seqs))]
        m = max(adm.signature(topo, s).values()) + rng.randint(1, 3)
        placement = _random_placement(rng, topo, s, m) if rng.random() < 0.5 else None
        spec = InducedSpec(topology=topo, sequence=s, m=m, placement=placement)
        plan = adm.induced_plan(spec)
        tree = Tree([e for path in plan.paths for e in zip(path, path[1:])])
        assert tree.order == plan.order == adm.induced_order(topo, s, m)
        assert adm.induce_tree(spec) == tree
        with monkeypatch.context() as patched:
            patched.setattr(adm, "Tree", lambda edges: built.append(1))
            sched = adm.witness_schedule(spec)
        assert sched.sources == plan.sources and len(sched.sources) == m
        assert verify_schedule(tree, sched).is_burning_sequence
    assert built == []  # no tree is built to read the sources


def test_witness_sources_equal_the_plans(rng):
    # the closed-form numbering gives the sources the laid-out paths hold,
    # under default, arm and internal placements, given in any order
    kinds = set()
    for _ in range(300):
        topo = random_topology(rng, 5)
        seqs = adm.enumerate_admissible(topo, 3)
        s = seqs[rng.randrange(len(seqs))]
        m = max(adm.signature(topo, s).values()) + rng.randint(1, 4)
        placement = None
        if rng.random() < 0.7:
            placement = list(_random_placement(rng, topo, s, m))
            rng.shuffle(placement)
            placement = tuple(placement)
            kinds.update(kind for _, (kind, _) in placement)
        spec = InducedSpec(topology=topo, sequence=s, m=m, placement=placement)
        assert adm.witness_schedule(spec).sources == adm.induced_plan(spec).sources
    assert kinds == {"arm", "internal"}


def test_witness_schedule_lays_out_no_path(monkeypatch, rng):
    # nor does it list the Stage-1 counts or the Stage-2 rounds
    builds, plans = count_builds(monkeypatch)
    calls = []
    for name in ("stage1_additions", "stage2_additions"):
        real = getattr(adm, name)
        monkeypatch.setattr(
            adm, name, lambda *a, _n=name, _f=real: calls.append(_n) or _f(*a)
        )
    for _ in range(50):
        topo = random_topology(rng, 5)
        k = len(topo.branch_vertices)
        for m in (k + 1, k + 3):
            res = find_extremal(topo, m)
            placement = _random_placement(rng, topo, res.sequence, m)
            for spec in (res.spec, InducedSpec(topo, res.sequence, m, placement)):
                calls.clear()
                assert len(adm.witness_schedule(spec).sources) == m
                assert calls == []
    assert (builds, plans) == ([], [])


HUGE_WITNESS = """
import resource, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from treeburn import admissible as adm, find_extremal, make_chain_topology
m = 100000
res = find_extremal(make_chain_topology(3, 3, 3, 3)[0], m)
start = time.perf_counter()
sources = adm.witness_schedule(res.spec).sources
seconds = time.perf_counter() - start
print(seconds, res.order, len(set(sources)), sources[:6], sources[-1], sep="\\n")
"""


def test_witness_schedule_at_huge_m_is_closed_form():
    # the winner's tree at m = 100000 has about 10**10 vertices; its m
    # sources are read without laying it out, in a fresh interpreter
    # limited to 1 GiB of address space
    proc = subprocess.run(
        [sys.executable, "-c", HUGE_WITNESS],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(adm.__file__).parent.parent)),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    seconds, order, distinct, first, last = proc.stdout.splitlines()
    assert float(seconds) < 2
    assert (order, distinct) == ("10000399993", "100000")
    # B and D are the block roots; the round-3 segment follows the Stage-1
    # vertices, and round m's one-vertex segment is the last fresh id
    assert (first, last) == ("(1, 3, 899986, 1099980, 1299972, 1499962)", "10000399992")


def test_witness_schedule_rejects_bad_input():
    s = seq("A_B,C_D")
    with pytest.raises(ValueError, match="not connected"):
        adm.witness_schedule(InducedSpec(topology=CHAIN, sequence=seq("A_C,B_D"), m=6))
    with pytest.raises(ValueError, match="maximum signature"):
        adm.witness_schedule(InducedSpec(topology=CHAIN, sequence=s, m=3))
    rounds = adm.stage2_additions(s, 6).rounds
    arm = CHAIN.arms()[0]
    bad_placements = [
        (((rounds[0], ("arm", arm)),), "do not match the required rounds"),
        (tuple((i, ("arm", (0, 99))) for i in rounds), "no arm"),
        (tuple((i, ("internal", (0, 99))) for i in rounds), "no internal path"),
        # A and B share a block, so their path is one edge long
        (tuple((i, ("internal", (0, 1))) for i in rounds), "has length one"),
        (tuple((i, ("spoke", arm)) for i in rounds), "unknown placement kind"),
    ]
    for placement, message in bad_placements:
        spec = InducedSpec(topology=CHAIN, sequence=s, m=6, placement=placement)
        with pytest.raises(ValueError, match=message):
            adm.witness_schedule(spec)


def test_search_memo_is_bounded():
    bound = adm._SEARCH_MEMO
    adm._best_at_m0.cache_clear()
    for n in range(3, 3 + bound + 20):
        order, _ = adm.best_canonical(make_star_topology(n)[0], 2)
        assert order == n + 2  # n(m-1) + 1 + (m-1)^2 at m = 2
        assert adm._best_at_m0.cache_info().currsize <= bound
    assert adm._best_at_m0.cache_info().currsize == bound


def test_witness_schedule_follows_the_sequence_not_the_order():
    # trees of one order induced by different sequences each get their own
    # plan's sources
    same_order = 0
    for m in (5, 6):
        specs = {
            name: InducedSpec(topology=CHAIN, sequence=seq(name), m=m)
            for name in CHAIN_SEQUENCES
        }
        trees = {name: adm.induce_tree(spec) for name, spec in specs.items()}
        for name, spec in specs.items():
            own = trees[name]
            assert adm.induce_tree(spec) == Tree(own.edges)
            assert adm.witness_schedule(spec).sources == adm.induced_plan(spec).sources
            same_order += sum(
                tree.order == own.order for other, tree in trees.items() if other != name
            )
    assert same_order >= 28
    spec = InducedSpec(topology=CHAIN, sequence=seq("A_B,C_D"), m=6)
    other = adm.induce_tree(InducedSpec(topology=CHAIN, sequence=seq("D_C,B_A"), m=6))
    assert other.order == adm.induce_tree(spec).order


def test_extremal_witness_burns_the_winner_tree(rng):
    cases = 0
    while cases < 60:
        topo = random_topology(rng, 6)
        k = len(topo.branch_vertices)
        if k < 4:
            continue
        for m in range(k + 1, k + 4):
            res = find_extremal(topo, m)
            spec = InducedSpec(topology=topo, sequence=res.sequence, m=m)
            sched = adm.witness_schedule(spec)
            assert len(sched.sources) == m
            assert verify_schedule(res.tree, sched).is_burning_sequence
            assert adm.induce_tree(spec) == res.tree
            cases += 1


def test_plan_depends_on_the_whole_spec(rng):
    s = seq("A_B,C_D")
    spec = InducedSpec(topology=CHAIN, sequence=s, m=6)
    plan = adm.induced_plan(spec)
    assert adm.induced_plan(InducedSpec(topology=CHAIN, sequence=s, m=6)) == plan
    twin = make_chain_topology(3, 3, 3, 3)[0]  # the same edges, another object
    placement = _random_placement(rng, CHAIN, s, 6)
    others = [
        (InducedSpec(topology=CHAIN, sequence=s, m=7), CHAIN),
        (InducedSpec(topology=CHAIN, sequence=s, m=6, placement=placement), CHAIN),
        (InducedSpec(topology=twin, sequence=s, m=6), twin),
        (InducedSpec(topology=CHAIN, sequence=seq("D_C,B_A"), m=6), CHAIN),
    ]
    for other, topo in others:
        got = adm.induced_plan(other)
        assert got.order == adm.induced_order(topo, other.sequence, other.m)
        assert adm.induced_plan(other) == got
        adm.induced_plan(spec)
    assert adm.induced_plan(spec) == plan


def test_invalid_spec_raises_after_a_valid_one():
    s = seq("A_B,C_D")
    rounds = adm.stage2_additions(s, 6).rounds
    bad = [
        (InducedSpec(topology=CHAIN, sequence=seq("A_C,B_D"), m=6), "not connected"),
        (InducedSpec(topology=CHAIN, sequence=s, m=3), "maximum signature"),
        (
            InducedSpec(
                topology=CHAIN, sequence=s, m=6,
                placement=tuple((i, ("arm", (0, 99))) for i in rounds),
            ),
            "no arm",
        ),
    ]
    valid = InducedSpec(topology=CHAIN, sequence=s, m=6)
    plan = adm.induced_plan(valid)
    for spec, message in bad:
        adm.induced_plan(valid)
        with pytest.raises(ValueError, match=message):
            adm.induced_plan(spec)
        with pytest.raises(ValueError, match=message):
            adm.witness_schedule(spec)
        assert adm.induced_plan(valid) == plan


def test_block_table_built_once_per_labelled_skeleton(monkeypatch):
    builds = []
    real = adm._BlockTable.__init__

    def counted(self, *args):
        builds.append(args)
        real(self, *args)

    monkeypatch.setattr(adm._BlockTable, "__init__", counted)
    adm._block_table.cache_clear()
    adm._best_at_m0.cache_clear()
    for degrees in itertools.product(range(3, 6), repeat=4):
        for make in (make_chain_topology, make_tshape_topology):
            topo = make(*degrees)[0]
            for m in (5, 6):
                find_extremal(topo, m)
    # every chain shares one labelled skeleton, every T-shape another
    assert len(builds) == 2
    assert adm._best_at_m0.cache_info().misses == 2 * 3 ** 4
    assert adm.enumerate_canonical(CHAIN, 4)
    assert adm.enumerate_canonical(TSHAPE, 4)
    assert len(builds) == 2


def test_block_table_distances_match_tree_distances():
    # the table walks the skeleton; the oracle is a BFS over the whole
    # topology tree, leaves included
    rng = random.Random(19)
    for _ in range(60):
        topo = random_topology(rng, 7)
        branch, skeleton, _ = topo.skeleton()
        table = adm._block_table(branch, skeleton)
        for entries in table.placements.values():
            for p in entries:
                dist = topo.tree.distances_from(branch[p.root])
                for i, d in p.offsets:
                    assert d == dist[branch[i]]


def _connected(topology, vertex_set):
    start = next(iter(vertex_set))
    seen = {start}
    stack = [start]
    while stack:
        for w in topology.branch_neighbors(stack.pop()):
            if w in vertex_set and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == vertex_set


def _oracle_validate(topology, s):
    """`validate` as a partition check plus a connectivity search per
    block, apart from the signature."""
    problems = []
    branch = topology.branch_vertices
    seen = {}
    for i, block in enumerate(s.blocks, start=1):
        for v in block.vertex_set:
            if v not in branch:
                problems.append(f"block {i}: vertex {v} is not a branch vertex")
            elif v in seen:
                problems.append(f"not a partition: vertex {v} in blocks {seen[v]} and {i}")
            else:
                seen[v] = i
        if (
            block.vertex_set
            and block.vertex_set <= branch
            and not _connected(topology, block.vertex_set)
        ):
            problems.append(f"block {i} not connected")
    missing = branch - set(seen)
    if missing:
        problems.append(f"not a partition: {sorted(missing)} unassigned")
    return problems


def _oracle_signature(topology, s):
    """`signature` from a BFS over the whole topology tree per block root."""
    problems = _oracle_validate(topology, s)
    if problems:
        raise ValueError("; ".join(problems))
    sig = {}
    for i, block in enumerate(s.blocks, start=1):
        if block.vertex_set:
            dist = topology.tree.distances_from(block.root)
            for v in block.vertex_set:
                sig[v] = dist[v] + i
    return sig


def _mangled(rng, topo):
    """A random sequence over `topo`, valid or not: an admissible one with
    empty blocks inserted, a member moved, repeated or dropped, or random
    blocks that may hold leaves and ids outside the tree."""
    seqs = adm.enumerate_admissible(topo, 3)
    groups = [set(b.vertex_set) for b in seqs[rng.randrange(len(seqs))].blocks]
    branch = sorted(topo.branch_vertices)
    kind = rng.randrange(6)
    if kind == 1:  # move a member to another block, new or old
        v = rng.choice(branch)
        next(g for g in groups if v in g).discard(v)
        groups.append(set())
        rng.choice(groups).add(v)
    elif kind == 2:  # repeat a member in another block
        rng.choice(groups).add(rng.choice(branch))
    elif kind == 3:  # drop a member
        v = rng.choice(branch)
        next(g for g in groups if v in g).discard(v)
    elif kind == 4:  # random blocks over every vertex, and one id beyond
        pool = sorted(topo.tree.vertices) + [max(topo.tree.vertices) + 1]
        groups = [
            set(rng.sample(pool, rng.randint(1, min(4, len(pool)))))
            for _ in range(rng.randint(1, 4))
        ]
    for _ in range(rng.randint(0, 2)):
        groups.insert(rng.randrange(len(groups) + 1), set())
    return AdmissibleSequence(tuple(
        Block(frozenset(g), rng.choice(sorted(g))) if g else adm.EMPTY_BLOCK
        for g in groups
    ))


def test_validate_and_signature_match_the_oracle():
    # one walk per block checks connectivity and gives the signature; the
    # oracle checks with a search of its own and signs with a whole-tree BFS
    rng = random.Random(29)
    seen = {"valid": 0}
    for _ in range(1000):
        topo = random_topology(rng, 5)
        s = _mangled(rng, topo)
        want = _oracle_validate(topo, s)
        assert adm.validate(topo, s) == want, s
        for text in want:
            for kind in ("branch vertex", "in blocks", "connected", "unassigned"):
                seen[kind] = seen.get(kind, 0) + (kind in text)
        if want:
            with pytest.raises(ValueError) as err:
                adm.signature(topo, s)
            assert str(err.value) == "; ".join(want)
        else:
            seen["valid"] += 1
            assert adm.signature(topo, s) == _oracle_signature(topo, s)
    assert min(seen.values()) >= 50, seen


def test_signature_matches_whole_tree_distances():
    # the signature walks the skeleton; the oracle is a BFS over the whole
    # topology tree, leaves included
    rng = random.Random(23)
    for _ in range(150):
        topo = random_topology(rng, 6)
        seqs = adm.enumerate_admissible(topo, 3)
        s = seqs[rng.randrange(len(seqs))]
        sig = adm.signature(topo, s)
        for i, block in enumerate(s.blocks, start=1):
            if block.empty:
                continue
            dist = topo.tree.distances_from(block.root)
            for v in block.vertex_set:
                assert sig[v] == dist[v] + i


def test_format_compact_orders_members_by_tree_distance():
    # the written convention, with distances from a BFS over the whole tree
    for shape, make, names in (
        ("chain", make_chain_topology, CHAIN_SEQUENCES),
        ("tshape", make_tshape_topology, TSHAPE_SEQUENCES),
    ):
        for degrees in itertools.product((3, 5), repeat=4):
            topo, labels = make(*degrees)
            letters = {v: name for name, v in labels.items()}
            for name in names:
                assert adm.format_compact(seq(name, labels), labels, topo) == name
            for s in adm.enumerate_canonical(topo, 4):
                want = []
                for block in s.blocks:
                    if block.empty:
                        want.append("~")
                        continue
                    dist = topo.tree.distances_from(block.root)
                    rest = sorted(
                        block.vertex_set - {block.root}, key=lambda v: (dist[v], letters[v])
                    )
                    others = "".join(letters[v] for v in rest)
                    want.append(letters[block.root] + ("_" + others if others else ""))
                assert adm.format_compact(s, labels, topo) == ",".join(want), shape


def test_block_table_memo_is_bounded():
    bound = adm._TABLE_MEMO
    adm._block_table.cache_clear()
    for h in range(bound + 20):
        # one branch vertex of id h: a skeleton of its own per h
        topo = Topology(Tree([(h, h + i) for i in range(1, 4)]))
        order, _ = adm.best_canonical(topo, 2)
        assert order == 5  # n(m-1) + 1 + (m-1)^2 with n = 3, m = 2
        assert adm._block_table.cache_info().currsize <= bound
    assert adm._block_table.cache_info().currsize == bound


def test_induced_tree_burning_number_is_m():
    s = seq("A_B,C_D")
    spec = InducedSpec(topology=CHAIN, sequence=s, m=5)
    tree = adm.induce_tree(spec)
    assert burning_number(tree)[0] == 5


def test_reduction_example():
    # <A_BC, ~, ~, D> reduces toward <A_BCD>
    s = seq("A_BC,~,~,D")
    sites = list(adm._reduction_sites(CHAIN, *adm._signed(CHAIN, s)))
    assert sites
    reduced = adm.canonicalize(CHAIN, s)
    assert adm.sequences_equal(reduced, seq("A_BCD"))
    assert adm.is_canonical(CHAIN, seq("A_BCD"))
    assert not adm.is_canonical(CHAIN, s)


def test_reductions_preserve_signature_and_order():
    for s in adm.enumerate_admissible(CHAIN, 4):
        sig = adm.signature(CHAIN, s)
        m = max(sig.values()) + 1
        order = adm.induced_order(CHAIN, s, m)
        cur = s
        while True:
            r = adm.reduce_once(CHAIN, cur)
            if r is None:
                break
            assert adm.signature(CHAIN, r) == sig
            assert adm.induced_order(CHAIN, r, m) == order
            cur = r


def _oracle_reduce_once(topology, s):
    """`reduce_once` with the subtree rule stated by distances: block j
    gives block i the u with d(r, u) = d(r, v) + d(v, u), r its root, all
    three by BFS over the whole topology tree."""
    sig = _oracle_signature(topology, s)
    where = {v: i for i, b in enumerate(s.blocks, start=1) for v in b.vertex_set}
    sites = sorted(
        (where[w], where[v], v, w)
        for v in topology.branch_vertices
        for w in topology.branch_neighbors(v)
        if where[w] < where[v] and sig[v] == sig[w] + 1
    )
    if not sites:
        return None
    i, j, v, _ = sites[0]
    block_i, block_j = s.blocks[i - 1], s.blocks[j - 1]
    d = topology.tree.dist
    r = block_j.root
    moved = frozenset(u for u in block_j.vertex_set if d[r][u] == d[r][v] + d[v][u])
    blocks = list(s.blocks)
    blocks[i - 1] = Block(block_i.vertex_set | moved, block_i.root)
    rest = block_j.vertex_set - moved
    blocks[j - 1] = Block(rest, block_j.root) if rest else adm.EMPTY_BLOCK
    return AdmissibleSequence(blocks=tuple(blocks))


def test_reduction_calculus_matches_the_distance_oracle():
    # at least 300 valid sequences, with and without empty blocks
    rng = random.Random(30)
    seen = {"sequences": 0, "empty block": 0, "reducible": 0, "multi-vertex move": 0}
    for _ in range(120):
        topo = random_topology(rng, 6)
        k = len(topo.branch_vertices)
        seqs = adm.enumerate_admissible(topo, min(k + 1, 4))
        for s in rng.sample(seqs, min(4, len(seqs))):
            if rng.random() < 0.3:  # trailing empty blocks
                s = AdmissibleSequence(blocks=s.blocks + (adm.EMPTY_BLOCK,) * 2)
            seen["sequences"] += 1
            seen["empty block"] += any(b.empty for b in s.blocks)
            want = _oracle_reduce_once(topo, s)
            assert adm.reduce_once(topo, s) == want, s
            assert adm.is_canonical(topo, s) == (want is None)
            if want is not None:
                seen["reducible"] += 1
                seen["multi-vertex move"] += any(
                    len(a.vertex_set - b.vertex_set) > 1 for a, b in zip(want.blocks, s.blocks)
                )
            current = s
            while (reduced := _oracle_reduce_once(topo, current)) is not None:
                current = reduced
            assert adm.canonicalize(topo, s) == current
    assert seen["sequences"] >= 300 and min(seen.values()) >= 30, seen


def test_canonical_unique_per_signature():
    for topo in (CHAIN, TSHAPE):
        by_key = {}
        for s in adm.enumerate_canonical(topo, 4):
            sig = adm.signature(topo, s)
            key = (tuple(sorted(sig.items())), s.trimmed().length)
            if key in by_key:
                assert adm.sequences_equal(by_key[key], s), key
            else:
                by_key[key] = s


def test_canonicalize_reaches_fixed_point(rng):
    for _ in range(30):
        topo = random_topology(rng, 4)
        seqs = adm.enumerate_admissible(topo, 3)
        s = seqs[rng.randrange(len(seqs))]
        c = adm.canonicalize(topo, s)
        assert adm.is_canonical(topo, c)
        assert adm.signature(topo, c) == adm.signature(topo, s)


def test_enumerate_admissible_all_valid():
    for s in adm.enumerate_admissible(TSHAPE, 3):
        assert adm.validate(TSHAPE, s) == []


def test_enumerate_canonical_matches_brute_force(canonical_oracle):
    # same list in the same order as the brute-force filter, L = 1..k+1 so
    # trailing empty blocks are covered too
    fixed = [
        (
            topo,
            [
                s
                for s in adm.enumerate_admissible(topo, len(topo.branch_vertices) + 1)
                if adm.is_canonical(topo, s)
            ],
        )
        for topo in (CHAIN, TSHAPE, STAR)
    ]
    for topo, brute in fixed + canonical_oracle:
        k = len(topo.branch_vertices)
        for length in range(1, k + 2):
            # the reference at length L is its prefix of length <= L
            want = [s for s in brute if s.length <= length]
            assert adm.enumerate_canonical(topo, length) == want, (topo, length)


def test_canonical_construction_without_empty_blocks(canonical_oracle):
    for topo, brute in canonical_oracle:
        k = len(topo.branch_vertices)
        got = adm._canonical_sequences(topo, k, empty_blocks=False)
        want = [
            s
            for s in brute
            if s.length <= k and not any(b.empty for b in s.blocks)
        ]
        assert sorted(got, key=lambda s: (s.length, adm.sequence_key(s))) == want
