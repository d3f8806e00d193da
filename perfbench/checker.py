"""Schedule checker that shares no code with treeburn.

A schedule x_1..x_m burns a tree when the balls of radius m-i around x_i
cover every vertex and d(x_i, x_j) >= j - i for i < j.  One breadth-first
search from each source, cut off at radius m - i, decides both: any
d(x_i, x_j) < j - i <= m - i lies inside that radius.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Sequence, Tuple


def check_schedule(
    edges: Iterable[Tuple[int, int]],
    sources: Sequence[int],
    vertices: Iterable[int] = (),
) -> List[str]:
    """Problems with the schedule on the tree given by its edges; an empty
    list means the schedule is a valid burning sequence."""
    adj: Dict[int, List[int]] = {v: [] for v in vertices}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    m = len(sources)
    if m == 0:
        return ["empty schedule"]
    missing = [x for x in sources if x not in adj]
    if missing:
        return [f"sources {missing} are not vertices"]
    problems = []
    covered = set()
    for i, x in enumerate(sources, start=1):
        radius = m - i
        dist = {x: 0}
        queue = deque([x])
        while queue:
            u = queue.popleft()
            if dist[u] == radius:
                continue
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        covered.update(dist)
        for j in range(i + 1, m + 1):
            d = dist.get(sources[j - 1])
            if d is not None and d < j - i:
                problems.append(f"d(x{i}, x{j}) = {d} < {j - i}")
    uncovered = len(adj) - len(covered)
    if uncovered:
        problems.append(f"{uncovered} vertices not burned after round {m}")
    return problems
