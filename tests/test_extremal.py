import itertools
import random

import pytest

from conftest import random_topology
from treeburn import admissible as adm
from treeburn import extremal
from treeburn.admissible import InducedSpec
from treeburn.burning import burning_number, is_m_burnable, is_maximally_m_burnable
from treeburn.extremal import (
    CHAIN_SEQUENCES,
    FourBranchCase,
    TSHAPE_SEQUENCES,
    case_sequences,
    emit_table,
    find_extremal,
    four_branch_lookup,
    order_difference,
    prune,
    verify_tables,
)
from treeburn.topology import (
    expand,
    LengthAssignment,
    Topology,
    make_chain_topology,
    make_star_topology,
    make_tshape_topology,
)
from treeburn.tree import Tree

CHAIN, CHAIN_LABELS = make_chain_topology(3, 3, 3, 3)


def test_prune_2b():
    s = adm.parse_compact("A_BC,~,D", CHAIN_LABELS)
    cset = prune(CHAIN, [s])
    assert cset.candidates == []
    assert cset.pruned[0][1] == "2b"


def test_prune_2c():
    # roots A (block 1) and B (block 3) adjacent with gap 2
    s = adm.parse_compact("A,C,B_D", CHAIN_LABELS)
    cset = prune(CHAIN, [s])
    assert [tag for _, tag in cset.pruned] == ["2c"]


def test_prune_survivor():
    s = adm.parse_compact("A_B,C_D", CHAIN_LABELS)
    cset = prune(CHAIN, [s])
    assert len(cset.candidates) == 1


def test_chain_survivors_are_the_known_six():
    canon = adm.enumerate_canonical(CHAIN, 4)
    kept = prune(CHAIN, canon).candidates
    known = {
        frozenset((b.root, b.vertex_set) for b in s.trimmed().blocks)
        for s in (adm.parse_compact(n, CHAIN_LABELS) for n in CHAIN_SEQUENCES)
    }
    # the six listed sequences all survive pruning
    surviving = {
        frozenset((b.root, b.vertex_set) for b in s.trimmed().blocks)
        for s, _ in kept
    }
    assert known <= surviving


def test_find_extremal_chain_3333():
    res = find_extremal(CHAIN, 6)
    assert res.order == 53
    # Table winner for b >= max{a,c,d}
    case = FourBranchCase(shape="chain", degrees=(3, 3, 3, 3))
    topo, labels, seqs = case_sequences(case)
    name = four_branch_lookup(case)
    assert name == "B_AC,D"
    assert adm.induced_order(topo, seqs[name], 6) == res.order


def test_find_extremal_star():
    topo, labels = make_star_topology(3)
    res = find_extremal(topo, 4)
    assert res.order == 19
    assert res.sequence.trimmed().length == 1


def test_find_extremal_matches_brute_force(canonical_oracle):
    # reference: the best of prune(brute-force canonical sequences of
    # length <= k), largest order first, then least sequence_key
    for topo, brute in canonical_oracle:
        k = len(topo.branch_vertices)
        kept = prune(topo, [s for s in brute if s.length <= k]).candidates
        for m in range(k + 1, k + 4):
            scored = [
                (adm.induced_order(topo, s, m), s)
                for s, _ in kept
                if max(adm.signature(topo, s).values()) < m
            ]
            best = max(order for order, _ in scored)
            want = min(
                (adm.sequence_key(s) for order, s in scored if order == best)
            )
            res = find_extremal(topo, m)
            assert (res.order, adm.sequence_key(res.sequence)) == (best, want)
            assert res.tree.order == best


def _reference_extremal(topo, ms):
    """The search before scoring, as a reference: every canonical sequence
    without empty blocks, rule 2c by `_prune_tag`, then `induced_order`;
    the largest order wins, ties to the least `sequence_key`.  One pass
    over the sequences serves every m in `ms`."""
    k = len(topo.branch_vertices)
    best = {m: (-1, None) for m in ms}
    for seq in adm._canonical_sequences(topo, k, empty_blocks=False):
        if extremal._prune_tag(topo, seq) is not None:
            continue
        for m in ms:
            order = adm.induced_order(topo, seq, m)
            best_order, winner = best[m]
            if order > best_order or (
                order == best_order
                and adm.sequence_key(seq) < adm.sequence_key(winner)
            ):
                best[m] = (order, seq)
    return best


def _skeleton_topology(skeleton, k):
    """k branch vertices joined by `skeleton`, each topped up to degree 3
    with leaves."""
    deg = [0] * k
    for u, v in skeleton:
        deg[u] += 1
        deg[v] += 1
    edges = list(skeleton)
    nxt = k
    for i in range(k):
        for _ in range(max(3 - deg[i], 0)):
            edges.append((i, nxt))
            nxt += 1
    return Topology(Tree(edges))


def _scored_search_cases():
    for k in range(3, 8):
        yield _skeleton_topology([(0, i) for i in range(1, k)], k)
    for k in range(3, 9):
        yield _skeleton_topology([(i - 1, i) for i in range(1, k)], k)
    for degrees in itertools.product(range(3, 7), repeat=4):
        yield make_chain_topology(*degrees)[0]
        a, b, c, d = degrees
        if a >= c >= d:
            yield make_tshape_topology(*degrees)[0]
    rng = random.Random(9)
    for _ in range(60):
        yield random_topology(rng, 7)


def test_find_extremal_matches_unscored_search():
    # the scored search (order per block, rule 2c at the root, cut by the
    # bound) against the loop it replaced: same order, sequence_key and tree
    for topo in _scored_search_cases():
        k = len(topo.branch_vertices)
        ms = range(k + 1, k + 5)
        for m, (order, seq) in _reference_extremal(topo, ms).items():
            res = find_extremal(topo, m)
            want_tree = adm.induce_tree(InducedSpec(topology=topo, sequence=seq, m=m))
            assert res.order == order, (topo, m)
            assert adm.sequence_key(res.sequence) == adm.sequence_key(seq), (topo, m)
            assert res.tree.edges == want_tree.edges, (topo, m)


def _answer(topo, m):
    res = find_extremal(topo, m)
    return res.order, adm.sequence_key(res.sequence), res.tree.edges


def test_find_extremal_independent_of_m_order():
    # one search per labelled skeleton serves every m: the answers do not
    # depend on the order the m values are asked in, or on the memo
    rng = random.Random(11)
    topos = [CHAIN, make_tshape_topology(5, 4, 3, 3)[0]]
    topos += [random_topology(rng, 7) for _ in range(6)]
    for topo in topos:
        k = len(topo.branch_vertices)
        ms = list(range(k + 1, k + 9))
        adm._best_at_m0.cache_clear()
        want = {m: _answer(topo, m) for m in ms}
        assert adm._best_at_m0.cache_info().misses == 1
        shuffled = ms[:]
        rng.shuffle(shuffled)
        for order in (ms[::-1], shuffled):
            assert {m: _answer(topo, m) for m in order} == want
        adm._best_at_m0.cache_clear()
        assert {m: _answer(topo, m) for m in shuffled} == want


def _relabelled(topo, perm):
    return Topology(Tree([(perm.get(u, u), perm.get(v, v)) for u, v in topo.tree.edges]))


def test_memo_keeps_skeletons_apart():
    tshape = make_tshape_topology(3, 3, 3, 3)[0]
    pairs = [
        # one arm count apart
        (CHAIN, make_chain_topology(4, 3, 3, 3)[0]),
        (tshape, make_tshape_topology(3, 4, 3, 3)[0]),
        # branch ids only: the centre of the T moves from id 1 to id 0
        (tshape, _relabelled(tshape, {0: 1, 1: 0})),
        (CHAIN, _relabelled(CHAIN, {0: 2, 2: 0})),
    ]
    for first, second in pairs:
        assert first.skeleton() != second.skeleton()
        adm._best_at_m0.cache_clear()
        fresh = _answer(second, 6)
        adm._best_at_m0.cache_clear()
        assert _answer(first, 6) != fresh
        assert _answer(second, 6) == fresh
    # leaf ids do not enter the search: a relabelled leaf shares the answer
    leaf = max(CHAIN.leaves)
    moved = _relabelled(CHAIN, {leaf: leaf + 100})
    adm._best_at_m0.cache_clear()
    order = find_extremal(CHAIN, 6).order
    assert find_extremal(moved, 6).order == order
    assert adm._best_at_m0.cache_info().misses == 1


def test_find_extremal_verify():
    res = find_extremal(CHAIN, 5, verify=True)
    assert res.burning_number == 5
    assert res.maximal


def test_find_extremal_rejects_small_m():
    with pytest.raises(ValueError):
        find_extremal(CHAIN, 4)


def test_tshape_lookup_example():
    case = FourBranchCase(shape="tshape", degrees=(5, 3, 3, 3))
    assert four_branch_lookup(case) == "A_BD,C"
    case2 = FourBranchCase(shape="tshape", degrees=(3, 3, 3, 3))
    assert four_branch_lookup(case2) == "B_ACD"
    with pytest.raises(ValueError):
        four_branch_lookup(FourBranchCase(shape="tshape", degrees=(3, 3, 4, 3)))


def test_chain_lookup_reversal():
    # (3,3,3,5) matches no row directly; reading it right-to-left does
    case = FourBranchCase(shape="chain", degrees=(3, 3, 3, 5))
    name = four_branch_lookup(case)
    assert name in CHAIN_SEQUENCES
    # mirror of (5,3,3,3)'s winner
    fwd = four_branch_lookup(FourBranchCase(shape="chain", degrees=(5, 3, 3, 3)))
    assert name == extremal._mirror_name(fwd)


def test_order_difference_example():
    topo, labels, seqs = case_sequences(
        FourBranchCase(shape="chain", degrees=(3, 4, 5, 3))
    )
    a, b, c, d = 3, 4, 5, 3
    for m in (6, 7):
        assert (
            order_difference(topo, seqs["A_B,C_D"], seqs["A_BC,D"], m) == c - d
        )
        assert (
            order_difference(topo, seqs["A_B,C_D"], seqs["B_AC,D"], m)
            == a - b - d + 2
        )
        assert order_difference(topo, seqs["A_B,C_D"], seqs["A_B,C_D"], m) == 0


def test_verify_tables_small_grid():
    rep = verify_tables([(3, 3, 3, 3), (4, 3, 5, 3)], [6, 7], "chain")
    assert rep.ok, rep.mismatches
    rep2 = verify_tables([(3, 3, 3, 3), (5, 4, 4, 3)], [6, 7], "tshape")
    assert rep2.ok, rep2.mismatches


def test_verify_tables_negative_control(monkeypatch):
    # deliberately corrupted closed form must be reported
    monkeypatch.setitem(extremal.CHAIN_STAGE1, "A_B,C_D", lambda a, b, c, d, m: 0)
    rep = verify_tables([(3, 3, 3, 3)], [6], "chain")
    assert not rep.ok
    assert any("A_B,C_D" in line for line in rep.mismatches)


def test_verify_tables_reports_corrupted_difference_and_winner(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setitem(
            extremal.CHAIN_DIFF, ("A_B,C_D", "A_BC,D"), lambda a, b, c, d, m: c - d + 1
        )
        rep = verify_tables([(3, 3, 3, 3)], [6], "chain")
    assert rep.mismatches == [
        "chain (3, 3, 3, 3) m=6 A_B,C_D vs A_BC,D: difference 0 != table 1"
    ]
    # (3,3,3,3) matches the first row, b >= max{a,c,d}, whose winner is B_AC,D
    rows = list(extremal.CHAIN_WINNERS)
    rows[0] = (rows[0][0], "A_B,C_D")
    monkeypatch.setattr(extremal, "CHAIN_WINNERS", rows)
    rep = verify_tables([(3, 3, 3, 3)], [6], "chain")
    assert len(rep.mismatches) == 1 and "table winner A_B,C_D" in rep.mismatches[0]


def test_verify_tables_checks_the_printed_lower_triangle(monkeypatch):
    # Table 2 below the diagonal: B_AC,D minus A_B,C_D is printed b+d-a-2
    header, *rows = extremal._rows(2)
    row = next(r for r in rows if r[0] == "B_AC,D")
    cell = row[1 + header[1:].index("A_B,C_D")]
    assert cell == "b+d-a-2"
    corrupted = extremal._formula(cell.replace("-2", "-1"))
    monkeypatch.setitem(extremal.CHAIN_DIFF, ("B_AC,D", "A_B,C_D"), corrupted)
    rep = verify_tables([(3, 3, 3, 3)], [6], "chain")
    assert rep.mismatches == [
        "chain (3, 3, 3, 3) m=6 B_AC,D vs A_B,C_D: difference 1 != table 2"
    ]


def test_formula_rejects_foreign_names():
    for cell in ("__import__('os')", "a.real", "x+1", "a==b"):
        with pytest.raises(ValueError):
            extremal._formula(cell)


def test_emit_table_deterministic():
    for i in range(1, 7):
        assert emit_table(i) == emit_table(i)
    with pytest.raises(ValueError):
        emit_table(7)


def _expansion(lengths):
    arms = CHAIN.arms()
    internals = CHAIN.internal_edges()
    return expand(
        CHAIN,
        LengthAssignment(
            arm_lengths=dict(zip(arms, lengths[:6])),
            internal_lengths=dict(zip(internals, lengths[6:])),
        ),
    )


def _order39_assignments():
    # order = 4 + sum(arm lengths) + sum(internal lengths - 1) = 39
    total = 38
    for e1 in range(1, total - 7):
        for e2 in range(1, total - e1 - 6):
            for e3 in range(1, total - e1 - e2 - 5):
                rem = total - e1 - e2 - e3
                for a1 in range(1, rem - 4):
                    for a2 in range(1, rem - a1 - 3):
                        for b in range(1, rem - a1 - a2 - 2):
                            for c in range(1, rem - a1 - a2 - b - 1):
                                for d1 in range(1, rem - a1 - a2 - b - c):
                                    d2 = rem - a1 - a2 - b - c - d1
                                    yield (a1, a2, b, c, d1, d2, e1, e2, e3)


def test_chain_3333_m5_no_larger_order_sampled():
    # the found extremal tree has order 38; a seeded sample of order-39
    # homeomorphic trees confirms none of them is 5-burnable.  Set
    # TREEBURN_EXHAUSTIVE=1 to sweep all assignments (about 15 CPU-hours).
    import os
    import random

    res = find_extremal(CHAIN, 5)
    assert res.order == 38
    assert res.tree.order == 38

    if os.environ.get("TREEBURN_EXHAUSTIVE"):
        pool = _order39_assignments()
    else:
        rng = random.Random(99)
        pool = []
        for _ in range(800):
            cuts = sorted(rng.sample(range(1, 38), 8))
            parts = [b - a for a, b in zip([0] + cuts, cuts + [38])]
            pool.append(tuple(parts))
    for lengths in pool:
        assert not is_m_burnable(_expansion(lengths), 5), lengths


def test_chain_3333_m5_candidates_insertion_critical():
    # every surviving candidate that attains the maximum at m = 5 yields a
    # maximally 5-burnable tree: inserting one vertex anywhere breaks it
    res = find_extremal(CHAIN, 5, verify=True)
    assert res.burning_number == 5 and res.maximal
