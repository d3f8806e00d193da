import random

import pytest

from treeburn import admissible as adm
from treeburn.tree import Tree
from treeburn.topology import Topology

# Filled by the acceptance suite; echoed after the run so the per-criterion
# PASS/FAIL lines survive pytest's output capture.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def random_tree(rng: random.Random, n: int) -> Tree:
    """Random labelled tree on vertices 0..n-1 (uniform attachment)."""
    if n == 1:
        return Tree([], vertices=[0])
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return Tree(edges)


def bicentroid_tree(rng: random.Random, half: int) -> Tree:
    """Two random trees of order `half` joined by an edge: cutting it leaves
    two equal halves, so both its ends are centroids."""
    left, right = random_tree(rng, half), random_tree(rng, half)
    return Tree(
        list(left.edges)
        + [(u + half, v + half) for u, v in right.edges]
        + [(rng.randrange(half), half + rng.randrange(half))]
    )


def random_topology(rng: random.Random, max_branch: int = 5) -> Topology:
    """Random homeomorphically irreducible tree with <= max_branch branch
    vertices, built from a random branch skeleton plus pendant leaves."""
    k = rng.randint(1, max_branch)
    skeleton = [(rng.randrange(i), i) for i in range(1, k)]
    skel_deg = {i: 0 for i in range(k)}
    for u, v in skeleton:
        skel_deg[u] += 1
        skel_deg[v] += 1
    edges = list(skeleton)
    nxt = k
    for i in range(k):
        want = max(3, skel_deg[i] + rng.randint(0, 2))
        for _ in range(want - skel_deg[i]):
            edges.append((i, nxt))
            nxt += 1
    return Topology(Tree(edges))


def count_builds(monkeypatch):
    """Count `Tree._built` and `admissible.induced_plan` calls."""
    builds, plans = [], []
    built, plan = Tree._built.__func__, adm.induced_plan
    monkeypatch.setattr(
        Tree, "_built", classmethod(lambda cls, paths: builds.append(1) or built(cls, paths))
    )
    monkeypatch.setattr(adm, "induced_plan", lambda spec: plans.append(1) or plan(spec))
    return builds, plans


def chain_images(v):
    """The images of a chain(3,3,3,3) length vector (arms A1 A2 B C D1 D2,
    then paths AB BC CD) under the chain's 8 automorphisms."""
    a1, a2, b, c, d1, d2, e1, e2, e3 = v
    out = []
    for x in ((a1, a2, b, c, d1, d2, e1, e2, e3), (d1, d2, c, b, a1, a2, e3, e2, e1)):
        for aa in ((x[0], x[1]), (x[1], x[0])):
            for dd in ((x[4], x[5]), (x[5], x[4])):
                out.append(aa + x[2:4] + dd + x[6:])
    return out


@pytest.fixture
def rng():
    return random.Random(20260826)


@pytest.fixture(scope="session")
def canonical_oracle():
    """About 40 random topologies with at most 5 branch vertices, each with
    its canonical sequences of length <= k + 1 by brute force: every
    admissible sequence filtered by `is_canonical`, in enumeration order.
    Shared because the brute force is the slow part."""
    rng = random.Random(20260826)
    out = []
    for _ in range(40):
        topo = random_topology(rng, 5)
        k = len(topo.branch_vertices)
        out.append((
            topo,
            [
                s
                for s in adm.enumerate_admissible(topo, k + 1)
                if adm.is_canonical(topo, s)
            ],
        ))
    return out
