import itertools
import random

import pytest

from treeburn import admissible as adm
from treeburn.admissible import AdmissibleSequence, Block, InducedSpec
from treeburn.burning import burning_number, is_m_burnable, verify_schedule
from treeburn.extremal import CHAIN_SEQUENCES, find_extremal
from treeburn.tree import Tree
from treeburn.topology import (
    Topology,
    make_chain_topology,
    make_star_topology,
    make_tshape_topology,
)

from conftest import random_topology


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
    with pytest.raises(ValueError, match="block 3 out of range"):
        adm.parse_block_lines(text, n_blocks=2)
    assert adm.parse_block_lines(text, n_blocks=4).length == 4


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
        adm.ensure_valid(CHAIN, bad2)


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
        sched = adm.witness_schedule(spec, tree)
        flags = verify_schedule(tree, sched)
        assert flags.is_burning_sequence
        assert len(sched.sources) == m


def _random_placement(rng, topo, s, m):
    """A Stage-2 placement of every required round on a random arm or on a
    random internal path longer than one edge."""
    s1 = adm.stage1_additions(topo, s, m)
    slots = [("arm", a) for a in topo.arms()]
    slots += [("internal", e) for e, n in s1.internal_counts.items() if n]
    return tuple((i, rng.choice(slots)) for i in adm.stage2_additions(s, m).rounds)


def test_witness_schedule_reads_the_plan(rng, monkeypatch):
    built = []
    monkeypatch.setattr(adm, "Tree", lambda edges: built.append(1))
    for _ in range(200):
        topo = random_topology(rng, 4)
        seqs = adm.enumerate_admissible(topo, 3)
        s = seqs[rng.randrange(len(seqs))]
        m = max(adm.signature(topo, s).values()) + rng.randint(1, 3)
        placement = _random_placement(rng, topo, s, m) if rng.random() < 0.5 else None
        spec = InducedSpec(topology=topo, sequence=s, m=m, placement=placement)
        plan = adm.induced_plan(spec)
        tree = Tree(plan.edges)
        assert tree.order == plan.order == adm.induced_order(topo, s, m)
        sched = adm.witness_schedule(spec, tree)
        assert sched.sources == plan.sources and len(sched.sources) == m
        assert verify_schedule(tree, sched).is_burning_sequence
    assert built == []  # no tree is built to read the sources


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
    spec = InducedSpec(topology=CHAIN, sequence=s, m=6)
    with pytest.raises(ValueError, match="not produced by this spec"):
        adm.witness_schedule(spec, adm.induce_tree(InducedSpec(topology=CHAIN, sequence=s, m=7)))


def test_search_memo_is_bounded():
    bound = adm._SEARCH_MEMO
    adm._best_at_m0.cache_clear()
    for n in range(3, 3 + bound + 20):
        order, _, _ = adm.best_canonical(make_star_topology(n)[0], 2)
        assert order == n + 2  # n(m-1) + 1 + (m-1)^2 at m = 2
        assert adm._best_at_m0.cache_info().currsize <= bound
    assert adm._best_at_m0.cache_info().currsize == bound


def test_witness_schedule_rejects_a_tree_of_another_sequence():
    # the tree must be the plan's own, not one of the same order induced by
    # another sequence
    same_order = 0
    for m in (5, 6):
        specs = {
            name: InducedSpec(topology=CHAIN, sequence=seq(name), m=m)
            for name in CHAIN_SEQUENCES
        }
        trees = {name: adm.induce_tree(spec) for name, spec in specs.items()}
        for name, spec in specs.items():
            own = trees[name]
            assert adm.witness_schedule(spec, Tree(own.edges)).sources == (
                adm.induced_plan(spec).sources
            )
            for other, tree in trees.items():
                if other == name:
                    continue
                same_order += tree.order == own.order
                with pytest.raises(ValueError, match="not produced by this spec"):
                    adm.witness_schedule(spec, tree)
    assert same_order >= 28
    spec = InducedSpec(topology=CHAIN, sequence=seq("A_B,C_D"), m=6)
    other = adm.induce_tree(InducedSpec(topology=CHAIN, sequence=seq("D_C,B_A"), m=6))
    assert other.order == adm.induce_tree(spec).order
    with pytest.raises(ValueError, match="not produced by this spec"):
        adm.witness_schedule(spec, other)


def _count_signatures(monkeypatch):
    calls = []
    real = adm.signature

    def counted(topology, sequence):
        calls.append(1)
        return real(topology, sequence)

    monkeypatch.setattr(adm, "signature", counted)
    return calls


def test_extremal_witness_reuses_the_plan(rng, monkeypatch):
    calls = _count_signatures(monkeypatch)
    cases = 0
    while cases < 60:
        topo = random_topology(rng, 6)
        k = len(topo.branch_vertices)
        if k < 4:
            continue
        for m in range(k + 1, k + 4):
            res = find_extremal(topo, m)
            del calls[:]
            spec = InducedSpec(topology=topo, sequence=res.sequence, m=m)
            sched = adm.witness_schedule(spec)
            assert calls == []  # the winner's plan, not a new one
            assert len(sched.sources) == m
            assert verify_schedule(res.tree, sched).is_burning_sequence
            assert adm.witness_schedule(spec, res.tree) == sched
            cases += 1


def test_plan_memo_has_no_stale_hit(rng, monkeypatch):
    calls = _count_signatures(monkeypatch)
    s = seq("A_B,C_D")
    spec = InducedSpec(topology=CHAIN, sequence=s, m=6)
    plan = adm.induced_plan(spec)
    del calls[:]
    assert adm.induced_plan(InducedSpec(topology=CHAIN, sequence=s, m=6)) is plan
    assert calls == []
    twin = make_chain_topology(3, 3, 3, 3)[0]  # the same edges, another object
    placement = _random_placement(rng, CHAIN, s, 6)
    others = [
        (InducedSpec(topology=CHAIN, sequence=s, m=7), CHAIN),
        (InducedSpec(topology=CHAIN, sequence=s, m=6, placement=placement), CHAIN),
        (InducedSpec(topology=twin, sequence=s, m=6), twin),
        (InducedSpec(topology=CHAIN, sequence=seq("D_C,B_A"), m=6), CHAIN),
    ]
    for other, topo in others:
        del calls[:]
        got = adm.induced_plan(other)
        assert calls == [1]  # a miss: the sequence is validated again
        assert got.order == adm.induced_order(topo, other.sequence, other.m)
        adm._last_plan = None
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
    for spec, message in bad:
        plan = adm.induced_plan(valid)
        with pytest.raises(ValueError, match=message):
            adm.induced_plan(spec)
        with pytest.raises(ValueError, match=message):
            adm.witness_schedule(spec)
        assert adm.induced_plan(valid) is plan


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


def test_block_table_memo_is_bounded():
    bound = adm._TABLE_MEMO
    adm._block_table.cache_clear()
    for h in range(bound + 20):
        # one branch vertex of id h: a skeleton of its own per h
        topo = Topology(Tree([(h, h + i) for i in range(1, 4)]))
        order, _, _ = adm.best_canonical(topo, 2)
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
    sites = list(adm._reduction_sites(CHAIN, s, adm.signature(CHAIN, s)))
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
