"""Minimal undirected-graph helpers used by the hardware and compiler layers.

Vertices are integers; edges are (u, v) tuples with u < v.  Nothing here is
weighted -- weights stay in the owning data structures.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable


def norm_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def adjacency(nodes: Iterable[int], edges: Iterable[tuple[int, int]]) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {n: set() for n in nodes}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def bfs(adj: dict[int, set[int]], sources: Iterable[int]) -> dict[int, int]:
    """Parent of every vertex reachable from the sources, in visiting order.

    Deterministic: smaller sources and neighbours are visited first; each
    source is its own parent.
    """
    parents = {s: s for s in sorted(set(sources))}
    queue = deque(parents)
    while queue:
        node = queue.popleft()
        for nb in sorted(adj[node]):
            if nb not in parents:
                parents[nb] = node
                queue.append(nb)
    return parents


def connected_components(adj: dict[int, set[int]]) -> list[set[int]]:
    comps: list[set[int]] = []
    for start in sorted(adj):
        if not any(start in comp for comp in comps):
            comps.append(set(bfs(adj, (start,))))
    return comps


def is_connected(adj: dict[int, set[int]]) -> bool:
    return not adj or len(bfs(adj, (min(adj),))) == len(adj)


def shortest_path(parents: dict[int, int], dst: int) -> list[int] | None:
    """Path from the nearest source to dst in a ``bfs`` parent map."""
    if dst not in parents:
        return None
    path = [dst]
    while parents[path[-1]] != path[-1]:
        path.append(parents[path[-1]])
    return path[::-1]


def bfs_distances(adj: dict[int, set[int]], src: int) -> dict[int, int]:
    dist: dict[int, int] = {}
    for node, parent in bfs(adj, (src,)).items():
        dist[node] = 0 if node == parent else dist[parent] + 1
    return dist
