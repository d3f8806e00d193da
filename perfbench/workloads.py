"""Seeded inputs for the benchmark workloads, with their known answers.

Nothing here imports treeburn: every input and every expected answer comes
from the seed and from theorems, never from the code under test.  Each
generator returns plain JSON-ready dicts that the worker turns into calls.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Tuple

# Per-instance time limit in seconds.  An instance that runs longer is stopped
# and counted as failed; failed instances rank at this value in percentiles.
TIME_LIMIT_S = {
    "chain-sweep": 5.0,
    "spider-tight": 10.0,
    "adm-search": 30.0,
    "path-scale": 10.0,
}

# chain(3,3,3,3): arms A1 A2 B C D1 D2, then internal paths AB BC CD.  Orders
# of the expanded trees are 1 + sum(lengths) = 39.
CHAIN_ORBITS = 150
CHAIN_ORDER = 39
CHAIN_B = 6

SPIDER_LEGS = range(3, 7)
SPIDER_M = range(5, 11)
SPIDER_REPS = 2  # instances per (legs, m, extremal or extremal+1) cell

PATH_ORDERS = 120
PATH_MIN, PATH_MAX = 64, 2048

ADM_CHAIN_DEGREES = 12  # degree tuples per four-branch shape
ADM_M = (5, 6, 7)
ADM_RANDOM = {5: 12, 6: 1}  # branch-vertex count -> random topologies


def chain_images(v: Tuple[int, ...]) -> List[Tuple[int, ...]]:
    """Distinct images of a chain(3,3,3,3) length vector under its automorphism
    group: swap the two A-arms, swap the two D-arms, mirror A<->D and B<->C."""
    a1, a2, b, c, d1, d2, e1, e2, e3 = v
    out = set()
    for x in ((a1, a2, b, c, d1, d2, e1, e2, e3), (d1, d2, c, b, a1, a2, e3, e2, e1)):
        for aa in ((x[0], x[1]), (x[1], x[0])):
            for dd in ((x[4], x[5]), (x[5], x[4])):
                out.add(aa + x[2:4] + dd + x[6:])
    return sorted(out)


def repeat_share(keys: List) -> float:
    """Share of items whose key already occurred earlier in the list."""
    return 1.0 - len(set(keys)) / len(keys)


def chain_sweep(rng: random.Random) -> Tuple[List[Dict], Dict[str, float]]:
    """Whole orbits of sampled order-39 length vectors, shuffled.

    The vectors are drawn as in the extremality sample of the test suite; the
    extremal order at m = 5 is 38, so each tree has b >= 6, and a witness of
    length 6 shows b <= 6.
    """
    instances = []
    for _ in range(CHAIN_ORBITS):
        cuts = sorted(rng.sample(range(1, CHAIN_ORDER - 1), 8))
        parts = tuple(b - a for a, b in zip([0] + cuts, cuts + [CHAIN_ORDER - 1]))
        for image in chain_images(parts):
            instances.append({"lengths": list(image), "order": CHAIN_ORDER, "b": CHAIN_B})
    rng.shuffle(instances)
    keys = [min(chain_images(tuple(i["lengths"]))) for i in instances]
    return instances, {"tree.iso_repeat_share": repeat_share(keys)}


def spider_tight(rng: random.Random) -> Tuple[List[Dict], Dict[str, float]]:
    """Spiders of the extremal order n(m-1)+1+(m-1)^2 and one vertex more.

    Every leg starts at m-1 and the segments 2(m-i)+1, i = 2..m, go to random
    legs: the head burns first and the segments tile the leg suffixes, so
    b <= m, and the extremal order forbids b <= m-1.  One more vertex forbids
    b = m; widening every segment by two covers it in m+1 rounds.
    """
    instances = []
    for n in SPIDER_LEGS:
        for m in SPIDER_M:
            for extra in (0, 1):
                for _ in range(SPIDER_REPS):
                    legs = [m - 1] * n
                    for i in range(2, m + 1):
                        legs[rng.randrange(n)] += 2 * (m - i) + 1
                    if extra:
                        legs[rng.randrange(n)] += 1
                    instances.append({
                        "legs": legs,
                        "m": m,
                        "extremal": not extra,
                        "order": n * (m - 1) + 1 + (m - 1) ** 2 + extra,
                        "b": m + extra,
                    })
    rng.shuffle(instances)
    keys = [tuple(sorted(i["legs"])) for i in instances]
    return instances, {"tree.iso_repeat_share": repeat_share(keys)}


def path_scale(rng: random.Random) -> Tuple[List[Dict], Dict[str, float]]:
    """Paths with orders log-uniform in [64, 2048]; b = ceil(sqrt(n))."""
    instances = []
    for _ in range(PATH_ORDERS):
        n = round(PATH_MIN * (PATH_MAX / PATH_MIN) ** rng.random())
        instances.append({"n": n, "order": n, "b": math.isqrt(n - 1) + 1})
    keys = [i["n"] for i in instances]
    return instances, {"tree.iso_repeat_share": repeat_share(keys)}


# Stage-1 additions of the six chain candidates A_B,C_D  A_BC,D  B_AC,D
# C_BD,A  D_C,B_A  D_CB,A.  Each has two blocks, so Stage 2 adds (m-2)^2.
_CHAIN_STAGE1 = [
    lambda a, b, c, d, m: (a - 1) * (m - 2) + (b + c - 4) * (m - 3) + (d - 1) * (m - 4) + 2 * m - 4,
    lambda a, b, c, d, m: (a - 1) * (m - 2) + (b + d - 3) * (m - 3) + (c - 2) * (m - 4) + 2 * m - 5,
    lambda a, b, c, d, m: (b - 2) * (m - 2) + (a + c + d - 4) * (m - 3) + 2 * m - 4,
    lambda a, b, c, d, m: (c - 2) * (m - 2) + (a + b + d - 4) * (m - 3) + 2 * m - 4,
    lambda a, b, c, d, m: (d - 1) * (m - 2) + (b + c - 4) * (m - 3) + (a - 1) * (m - 4) + 2 * m - 4,
    lambda a, b, c, d, m: (d - 1) * (m - 2) + (a + c - 3) * (m - 3) + (b - 2) * (m - 4) + 2 * m - 5,
]

# Both stages of the three T-shape candidates B_ACD  A_BD,C  A,C_B,D, arms
# sorted a >= c >= d.
_TSHAPE_TOTAL = [
    lambda a, b, c, d, m: (b - 3) * (m - 2) + (a + c + d - 3) * (m - 3) + (m - 1) ** 2,
    lambda a, b, c, d, m: (a - 1) * (m - 2) + (b + c - 4) * (m - 3) + (d - 1) * (m - 4)
    + (2 * m - 4) + (m - 2) ** 2,
    lambda a, b, c, d, m: (a - 1) * (m - 2) + (c - 1) * (m - 3) + (b + d - 4) * (m - 4)
    + (2 * m - 4) + (2 * m - 6) + (m - 3) ** 2,
]


def four_branch_order(shape: str, degrees: Tuple[int, int, int, int], m: int) -> int:
    """Order of the closed-form table winner: the topology's order plus the
    largest candidate's added vertices."""
    a, b, c, d = degrees
    if shape == "chain":
        base = 4 + (a - 1) + (b - 2) + (c - 2) + (d - 1)
        return base + max(f(a, b, c, d, m) for f in _CHAIN_STAGE1) + (m - 2) ** 2
    base = 4 + (a - 1) + (b - 3) + (c - 1) + (d - 1)
    return base + max(f(a, b, c, d, m) for f in _TSHAPE_TOTAL)


def topology_edges(skeleton: List[Tuple[int, int]], degrees: List[int]) -> List[List[int]]:
    """Branch vertices 0..k-1 joined by the skeleton, each padded with pendant
    leaves up to its degree; leaf ids follow the branch ids."""
    k = len(degrees)
    skel_deg = [0] * k
    for u, v in skeleton:
        skel_deg[u] += 1
        skel_deg[v] += 1
    edges = [list(e) for e in skeleton]
    nxt = k
    for i, deg in enumerate(degrees):
        for _ in range(deg - skel_deg[i]):
            edges.append([i, nxt])
            nxt += 1
    return edges


_FOUR_BRANCH_SKELETON = {
    "chain": [(0, 1), (1, 2), (2, 3)],
    "tshape": [(0, 1), (1, 2), (1, 3)],
}


def adm_search(rng: random.Random) -> Tuple[List[Dict], Dict[str, float]]:
    """Part (a): chain and T-shape topologies over a degree grid, each at every
    m in ADM_M, in grid order so one enumeration serves the whole grid.
    Part (b): random topologies with 5-6 branch vertices and distinct
    skeletons at three values of m above the branch count; no optimality
    reference exists for them, so only the induced tree and witness are
    checked."""
    instances = []
    keys = []  # what admissible's enumeration cache is keyed on
    for shape, skeleton in _FOUR_BRANCH_SKELETON.items():
        grid = set()
        while len(grid) < ADM_CHAIN_DEGREES:
            degs = [rng.randint(3, 6) for _ in range(4)]
            if shape == "tshape":
                degs[0], degs[2], degs[3] = sorted((degs[0], degs[2], degs[3]), reverse=True)
            grid.add(tuple(degs))
        for degs in sorted(grid):
            for m in ADM_M:
                instances.append({
                    "edges": topology_edges(skeleton, list(degs)),
                    "branch": 4,
                    "m": m,
                    "order": four_branch_order(shape, degs, m),
                })
                keys.append(tuple(skeleton))
    for k, count in ADM_RANDOM.items():
        skeletons = set()
        while len(skeletons) < count:
            skeleton = tuple((rng.randrange(i), i) for i in range(1, k))
            if skeleton in skeletons:
                continue
            skeletons.add(skeleton)
            skel_deg = [0] * k
            for u, v in skeleton:
                skel_deg[u] += 1
                skel_deg[v] += 1
            degs = [max(3, d + rng.randint(0, 1)) for d in skel_deg]
            for m in (k + 1, k + 2, k + 3):
                instances.append({
                    "edges": topology_edges(list(skeleton), degs),
                    "branch": k,
                    "m": m,
                    "order": None,
                })
                keys.append(skeleton)
    return instances, {"admissible.skeleton_repeat_share": repeat_share(keys)}


GENERATORS = {
    "chain-sweep": chain_sweep,
    "spider-tight": spider_tight,
    "adm-search": adm_search,
    "path-scale": path_scale,
}


def generate(workload: str, seed: int, part: int) -> Tuple[List[Dict], Dict[str, float]]:
    """Instances of one pass, and the sharing they have.  Each part of a run
    draws fresh instances from the seed."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}:{part}"))
