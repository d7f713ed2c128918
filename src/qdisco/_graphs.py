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


def connected_components(adj: dict[int, set[int]]) -> list[set[int]]:
    seen: set[int] = set()
    comps: list[set[int]] = []
    for start in sorted(adj):
        if start in seen:
            continue
        comp = {start}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for nb in adj[node]:
                if nb not in comp:
                    comp.add(nb)
                    queue.append(nb)
        seen |= comp
        comps.append(comp)
    return comps


def is_connected(adj: dict[int, set[int]]) -> bool:
    if not adj:
        return True
    return len(connected_components(adj)) == 1


def shortest_path(
    adj: dict[int, set[int]], sources: Iterable[int], dst: int
) -> list[int] | None:
    """BFS path from the nearest source to dst, deterministic (smaller
    sources and neighbours first)."""
    starts = sorted(set(sources))
    if dst in starts:
        return [dst]
    prev: dict[int, int] = {s: s for s in starts}
    queue = deque(starts)
    while queue:
        node = queue.popleft()
        for nb in sorted(adj[node]):
            if nb in prev:
                continue
            prev[nb] = node
            if nb == dst:
                path = [dst]
                while prev[path[-1]] != path[-1]:
                    path.append(prev[path[-1]])
                return path[::-1]
            queue.append(nb)
    return None


def bfs_distances(adj: dict[int, set[int]], src: int) -> dict[int, int]:
    dist = {src: 0}
    queue = deque([src])
    while queue:
        node = queue.popleft()
        for nb in sorted(adj[node]):
            if nb not in dist:
                dist[nb] = dist[node] + 1
                queue.append(nb)
    return dist
