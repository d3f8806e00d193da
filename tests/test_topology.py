import random
import re

import pytest

from treeburn.tree import Tree, TreeError, make_path, make_spider, parse_tree
from treeburn.topology import (
    Topology,
    TopologyError,
    contract,
    decompose,
    expand,
    make_chain_topology,
    make_star_topology,
    make_tshape_topology,
    parse_topology,
)
from treeburn.tree import isomorphic

from conftest import random_topology


def test_rejects_degree_two():
    with pytest.raises(TopologyError):
        Topology(make_path(3))


def test_rejects_no_branch_vertex():
    with pytest.raises(TopologyError):
        Topology(make_path(2))


def test_star_topology_arms():
    topo, labels = make_star_topology(4)
    assert labels == {"H": 0}
    assert len(topo.arms()) == 4
    assert topo.internal_edges() == []


def test_chain_topology():
    topo, labels = make_chain_topology(3, 4, 3, 5)
    assert sorted(labels) == ["A", "B", "C", "D"]
    assert len(topo.branch_vertices) == 4
    a, b, c, d = (labels[x] for x in "ABCD")
    assert topo.branch_neighbors(a) == (b,)
    assert set(topo.branch_neighbors(b)) == {a, c}
    # arms: A has 2, B has 2, C has 1, D has 4
    per = {}
    for bv, leaf in topo.arms():
        per[bv] = per.get(bv, 0) + 1
    assert per == {a: 2, b: 2, c: 1, d: 4}


def test_tshape_topology():
    topo, labels = make_tshape_topology(3, 3, 3, 3)
    b = labels["B"]
    assert set(topo.branch_neighbors(b)) == {labels["A"], labels["C"], labels["D"]}


def test_contract_expand_round_trip():
    rng = random.Random(11)
    for _ in range(25):
        topo = random_topology(rng, 4)
        lengths = {
            "arm_lengths": {arm: rng.randint(1, 4) for arm in topo.arms()},
            "internal_lengths": {e: rng.randint(1, 4) for e in topo.internal_edges()},
        }
        from treeburn.topology import LengthAssignment

        la = LengthAssignment(**lengths)
        tree = expand(topo, la)
        topo2, la2 = contract(tree)
        assert isomorphic(topo.tree, topo2.tree)
        assert sorted(la.arm_lengths.values()) == sorted(la2.arm_lengths.values())
        assert sorted(la.internal_lengths.values()) == sorted(
            la2.internal_lengths.values()
        )


def test_contract_spider():
    tree = make_spider([2, 3, 4])
    topo, la = contract(tree)
    assert len(topo.branch_vertices) == 1
    assert sorted(la.arm_lengths.values()) == [2, 3, 4]


def test_decompose_counts():
    tree = make_spider([2, 3, 4])
    dec = decompose(tree)
    assert len(dec.arms) == 3
    assert dec.internal_paths == []
    total = sum(len(path) - 1 for _, path in dec.arms)
    assert total == tree.order - 1


def test_parse_topology_labels():
    text = "edge 0 1\nedge 0 2\nedge 0 3\nlabel H 0\n"
    topo, labels = parse_topology(text)
    assert labels == {"H": 0}
    assert topo.branch_vertices == frozenset({0})


@pytest.mark.parametrize(
    "label, error",
    [
        ("label HH 0", "bad label on line 4: 'HH'"),
        ("label ~ 0", "bad label on line 4: '~'"),
        ("label 0 0", "bad label on line 4: '0'"),
        ("label _ 0", "bad label on line 4: '_'"),
        ("label , 0", "bad label on line 4: ','"),
        ("label H 0\nlabel H 1", "label 'H' given twice, again on line 5"),
        ("label H zero", "malformed line 4: 'label H zero'"),
    ],
)
def test_parse_topology_refuses_a_label_the_compact_syntax_cannot_read(label, error):
    with pytest.raises(TreeError, match="^" + re.escape(error)):
        parse_topology("edge 0 1\nedge 0 2\nedge 0 3\n" + label + "\n")
    # a tree file ignores labels
    assert parse_tree("edge 0 1\nedge 0 2\nedge 0 3\n" + label + "\n").order == 4


def test_parse_topology_rejects_degree_two():
    with pytest.raises(TopologyError):
        parse_topology("edge 0 1\nedge 1 2\n")
