"""Noise-aware multi-sampling compilation.

Three stages: threshold-filter the calibration graph, enumerate and rank
connected sampling regions by fidelity, then embed the problem's
interaction graph into a chosen region with deterministic swap routing.

Fidelity of a region is the product of per-element success probabilities,
prod(1 - e_i) * prod(1 - e_ij); regions are ranked descending.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter

from . import _graphs
from ._seeds import rng_from
from .errors import ConfigError, DimensionError, NoRegionError, PlacementError
from .hardware import QpuModel
from .problem import SpinPolynomial

EXACT_ENUMERATION_LIMIT = 20  # |Q'| above this switches to stochastic growth
SAMPLED_CANDIDATE_LIMIT = 256  # distinct candidates stochastic growth collects at most
EXACT_SELECTION_LIMIT = 12  # candidate count up to which selection is exact
ISOMORPHISM_FAST_PATH_LIMIT = 12


@dataclass(frozen=True)
class FilteredGraph:
    """Survivors of threshold filtering: G' = (Q', E')."""

    qpu: QpuModel
    eta: float
    qubits: frozenset[int]
    edges: frozenset[tuple[int, int]]

    def adjacency(self) -> dict[int, set[int]]:
        return _graphs.adjacency(self.qubits, self.edges)

    def largest_component_size(self) -> int:
        comps = _graphs.connected_components(self.adjacency())
        return max((len(c) for c in comps), default=0)


def filter_by_threshold(qpu: QpuModel, eta: float) -> FilteredGraph:
    """Keep qubits with e_i < eta and edges with e_ij < eta between survivors.

    Exactly one predicate evaluation per qubit and per edge (Theta(N + E)).
    """
    if not 0.0 < eta <= 1.0:
        raise ConfigError(f"eta must be in (0, 1], got {eta}")
    qubits = set()
    for q in range(qpu.num_qubits):
        if qpu.readout_error[q] < eta:
            qubits.add(q)
    edges = set()
    for edge, err in qpu.gate_error.items():
        if err < eta and edge[0] in qubits and edge[1] in qubits:
            edges.add(edge)
    return FilteredGraph(qpu, eta, frozenset(qubits), frozenset(edges))


@dataclass(frozen=True)
class SamplingRegion:
    """Connected physical subgraph hosting one circuit copy."""

    qpu_name: str
    qubits: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    fidelity: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "qubits", tuple(sorted(self.qubits)))
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))
        if not _graphs.is_connected(_graphs.adjacency(self.qubits, self.edges)):
            raise PlacementError(f"region {self.qubits} is not connected")

    @property
    def size(self) -> int:
        return len(self.qubits)


def region_fidelity(
    qubits: tuple[int, ...] | frozenset[int],
    edges,
    qpu: QpuModel,
) -> float:
    """prod(1 - e_i) over qubits times prod(1 - e_ij) over internal edges."""
    fid = 1.0
    for q in qubits:
        fid *= 1.0 - qpu.readout_error[q]
    for u, v in edges:
        fid *= 1.0 - qpu.gate_error[_graphs.norm_edge(u, v)]
    return fid


def _ranked_sets(
    fg: FilteredGraph, n: int, seed: int = 0
) -> list[tuple[tuple[float, tuple[int, ...]], tuple[tuple[int, int], ...]]]:
    """Connected n-qubit sets as ((-fidelity, sorted qubits), internal edges), best first.

    Exact connected-induced-subgraph enumeration while |Q'| stays at or
    below EXACT_ENUMERATION_LIMIT; beyond that, seeded random region
    growth collects up to SAMPLED_CANDIDATE_LIMIT distinct candidates.  The
    fidelity is ``region_fidelity``'s own; no region is built.
    """
    if n < 1:
        raise ConfigError(f"region size must be >= 1, got {n}")
    if n > len(fg.qubits):
        raise NoRegionError(
            f"requested {n}-qubit regions but only {len(fg.qubits)} qubits "
            f"survived filtering at eta={fg.eta}"
        )
    adj = fg.adjacency()
    if len(fg.qubits) <= EXACT_ENUMERATION_LIMIT:
        subsets = _connected_subsets_exact(adj, n)
    else:
        subsets = _connected_subsets_sampled(adj, n, seed, SAMPLED_CANDIDATE_LIMIT)
    ranked = []
    for s in subsets:
        edges = tuple(e for e in fg.edges if e[0] in s and e[1] in s)
        ranked.append(((-region_fidelity(s, edges, fg.qpu), tuple(sorted(s))), edges))
    ranked.sort(key=itemgetter(0))
    return ranked


def _connected_subsets_exact(adj: dict[int, set[int]], n: int) -> list[frozenset[int]]:
    """All connected induced subgraphs with n vertices, each exactly once.

    Root-anchored extension: grow only with vertices larger than the root
    and outside the current exclusive neighbourhood, which makes every
    subgraph reachable by a unique path.  An explicit stack, not a recursive
    closure: that would be a reference cycle holding each call's subsets
    until the cyclic collector runs.  The caller sorts, so order is free.
    """
    out: list[frozenset[int]] = []
    for root in sorted(adj):
        stack = [({root}, sorted(u for u in adj[root] if u > root), {root} | adj[root])]
        while stack:
            sub, ext, closed = stack.pop()
            if len(sub) == n:
                out.append(frozenset(sub))
                continue
            for i, w in enumerate(ext):
                grown = ext[i + 1 :] + sorted(u for u in adj[w] if u > root and u not in closed)
                stack.append((sub | {w}, grown, closed | adj[w]))
    return out


def _connected_subsets_sampled(
    adj: dict[int, set[int]], n: int, seed: int, max_candidates: int
) -> list[frozenset[int]]:
    """Seeded random growth; deduplicated, bounded attempts."""
    rng = rng_from(seed, "region-growth", n)
    nodes = sorted(adj)
    found: set[frozenset[int]] = set()
    attempts = 0
    budget = max(50 * max_candidates, 1000)
    while len(found) < max_candidates and attempts < budget:
        attempts += 1
        start = nodes[int(rng.integers(len(nodes)))]
        sub = {start}
        frontier = sorted(adj[start])
        while len(sub) < n and frontier:
            nxt = frontier[int(rng.integers(len(frontier)))]
            sub.add(nxt)
            frontier = sorted((set(frontier) | adj[nxt]) - sub)
        if len(sub) == n:
            found.add(frozenset(sub))
    return sorted(found, key=sorted)


def best_regions(
    fg: FilteredGraph,
    n: int,
    k: int,
    isomorphic: bool = False,
    seed: int = 0,
) -> list[SamplingRegion]:
    """Up to k pairwise-disjoint connected n-qubit regions maximizing fidelity.

    Exact (exhaustive over subsets, maximizing region count first and then
    the fidelity product) while the ranked candidate list stays at or below
    EXACT_SELECTION_LIMIT; greedy by descending fidelity beyond that.
    Deterministic: ties fall back to the lowest qubit tuple.  With
    ``isomorphic`` the returned regions must be mutually isomorphic.
    Selection works on the ranked sets; only the returned regions are built.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    ranked = _ranked_sets(fg, n, seed)
    if not ranked:
        raise NoRegionError(
            f"QPU '{fg.qpu.name}' has no connected {n}-qubit region at eta={fg.eta}"
        )
    select = _select_exact if len(ranked) <= EXACT_SELECTION_LIMIT else _select_greedy
    chosen = sorted(select(ranked, k, isomorphic), key=itemgetter(0))
    return [SamplingRegion(fg.qpu.name, qubits, edges, -neg) for (neg, qubits), edges in chosen]


def _select_exact(ranked: list, k: int, isomorphic: bool) -> list:
    """The most pairwise-disjoint entries (with ``isomorphic``, each isomorphic
    to the first), then the highest fidelity product, then the lowest keys.

    Keys are unique and ranked ascending, so of equal products the first
    index tuple ``combinations`` yields has the lowest keys.
    """
    masks = [sum(1 << q for q in qubits) for (_, qubits), _ in ranked]  # qubits are distinct

    def fits(picked: tuple[int, ...]) -> bool:
        used = 0
        for i in picked:
            if masks[i] & used:
                return False
            used |= masks[i]
        return not isomorphic or all(_isomorphic(ranked[picked[0]], ranked[i]) for i in picked[1:])

    for size in range(min(k, len(ranked)), 0, -1):
        fitting = [c for c in itertools.combinations(range(len(ranked)), size) if fits(c)]
        if fitting:
            best = max(fitting, key=lambda c: math.prod(-ranked[i][0][0] for i in c))
            return [ranked[i] for i in best]
    return []


def _select_greedy(ranked: list, k: int, isomorphic: bool) -> list:
    chosen: list = []
    used: set[int] = set()
    for entry in ranked:
        if len(chosen) == k:
            break
        qubits = entry[0][1]
        if not used.isdisjoint(qubits):
            continue
        if isomorphic and chosen and not _isomorphic(chosen[0], entry):
            continue
        chosen.append(entry)
        used.update(qubits)
    return chosen


def _isomorphic(a, b) -> bool:
    """Whether two ranked entries' regions are isomorphic graphs."""
    ((_, qa), ea), ((_, qb), eb) = a, b
    if len(qa) != len(qb) or len(ea) != len(eb):
        return False
    la = {q: i for i, q in enumerate(qa)}
    lb = {q: i for i, q in enumerate(qb)}
    ea = {(min(la[u], la[v]), max(la[u], la[v])) for u, v in ea}
    eb = {(min(lb[u], lb[v]), max(lb[u], lb[v])) for u, v in eb}
    n = len(qa)
    adj_a = _graphs.adjacency(range(n), ea)
    adj_b = _graphs.adjacency(range(n), eb)
    # equal vertex and edge counts make every edge-preserving bijection an isomorphism
    return _find_monomorphism(adj_a, adj_b) is not None


@dataclass(frozen=True)
class ScheduleEntry:
    """One cost-term application inside a phase layer.

    ``swaps`` lists physical edges exchanged before the interaction (degree-2
    routing only).  ``interaction_edges`` carry the two-qubit channel: the
    final edge for degree-2 terms, the routing tree for higher degree.
    ``placed`` records the physical slot of each support qubit at apply time.
    ``noise_points`` expands every channel application in order as
    (physical edge, logical pair): three per swap, one per interaction edge.
    """

    support: tuple[int, ...]
    weight: float
    swaps: tuple[tuple[int, int], ...] = ()
    interaction_edges: tuple[tuple[int, int], ...] = ()
    placed: tuple[int, ...] = ()
    noise_points: tuple[tuple[tuple[int, int], tuple[int, int]], ...] = ()


@dataclass(frozen=True)
class Placement:
    """Logical-to-physical embedding plus a one-layer interaction schedule."""

    region: SamplingRegion
    initial_map: tuple[int, ...]  # logical qubit i sits on physical initial_map[i]
    schedule: tuple[ScheduleEntry, ...]
    final_map: tuple[int, ...]
    swap_count: int

    def to_json_dict(self) -> dict:
        return {
            "qpu": self.region.qpu_name,
            "region": {
                "qubits": list(self.region.qubits),
                "edges": [list(e) for e in self.region.edges],
                "fidelity": self.region.fidelity,
            },
            "logical_to_physical": list(self.initial_map),
            "final_map": list(self.final_map),
            "swap_count": self.swap_count,
            "schedule": [
                {
                    "support": list(e.support),
                    "weight": e.weight,
                    "swaps": [list(s) for s in e.swaps],
                    "interaction_edges": [list(x) for x in e.interaction_edges],
                    "placed": list(e.placed),
                }
                for e in self.schedule
            ],
        }


def ordered_terms(poly: SpinPolynomial) -> list[tuple[float, tuple[int, ...]]]:
    """Deterministic term order used in routing: heaviest first, then support."""
    return sorted(poly.terms, key=lambda t: (-abs(t[0]), t[1]))


def _pair_weights(poly: SpinPolynomial) -> dict[tuple[int, int], float]:
    weights: dict[tuple[int, int], float] = {}
    for w, support in poly.terms:
        if len(support) < 2:
            continue
        for a, b in itertools.combinations(support, 2):
            weights[(a, b)] = weights.get((a, b), 0.0) + abs(w)
    return weights


def _find_monomorphism(
    adj_logical: dict[int, set[int]],
    adj_phys: dict[int, set[int]],
) -> dict[int, int] | None:
    """Injective map sending every logical edge onto a physical edge.

    Deterministic backtracking, most-constrained logical vertex first.
    """
    logical_order = sorted(adj_logical, key=lambda v: (-len(adj_logical[v]), v))
    assign: dict[int, int] = {}
    found = _extend_map(adj_logical, adj_phys, logical_order, sorted(adj_phys), assign, set())
    return assign if found else None


def _extend_map(adj_logical, adj_phys, logical_order, phys_nodes, assign, used) -> bool:
    """Place ``logical_order[len(assign):]`` onto unused ``phys_nodes``, trying
    them in order; on failure ``assign`` and ``used`` are as they came."""
    if len(assign) == len(logical_order):
        return True
    v = logical_order[len(assign)]
    placed_nbs = [u for u in adj_logical[v] if u in assign]
    for cand in phys_nodes:
        if cand in used:
            continue
        if len(adj_phys[cand]) < len(adj_logical[v]):
            continue
        if any(assign[u] not in adj_phys[cand] for u in placed_nbs):
            continue
        assign[v] = cand
        used.add(cand)
        if _extend_map(adj_logical, adj_phys, logical_order, phys_nodes, assign, used):
            return True
        del assign[v]
        used.discard(cand)
    return False


def _greedy_assignment(
    poly: SpinPolynomial, region: SamplingRegion
) -> dict[int, int]:
    """Weighted-interaction-to-edge matching: heavy pairs land on edges."""
    n = poly.num_spins
    pair_w = _pair_weights(poly)
    strength = {v: 0.0 for v in range(n)}
    for (a, b), w in pair_w.items():
        strength[a] += w
        strength[b] += w
    adj_phys = _graphs.adjacency(region.qubits, region.edges)
    dist = {q: _graphs.bfs_distances(adj_phys, q) for q in region.qubits}

    unplaced = sorted(range(n), key=lambda v: (-strength[v], v))
    free = list(region.qubits)
    assign: dict[int, int] = {}

    first = unplaced.pop(0)
    anchor = max(free, key=lambda q: (len(adj_phys[q]), -q))
    assign[first] = anchor
    free.remove(anchor)

    while unplaced:
        # logical qubit most attached to the placed set goes next
        def attachment(v: int) -> float:
            return sum(
                pair_w.get((min(v, u), max(v, u)), 0.0) for u in assign
            )

        unplaced.sort(key=lambda v: (-attachment(v), -strength[v], v))
        v = unplaced.pop(0)

        def cost(q: int) -> float:
            total = 0.0
            for u, pos in assign.items():
                w = pair_w.get((min(v, u), max(v, u)), 0.0)
                if w:
                    total += w * dist[q][pos]
            return total

        spot = min(free, key=lambda q: (cost(q), q))
        assign[v] = spot
        free.remove(spot)
    return assign


def route_phase_layer(
    region: SamplingRegion,
    mapping: tuple[int, ...],
    terms: list[tuple[float, tuple[int, ...]]],
) -> tuple[tuple[ScheduleEntry, ...], tuple[int, ...]]:
    """Schedule one phase layer's interactions from the given layout.

    Degree-2 terms with non-adjacent endpoints get a shortest-path swap
    route (the lower-indexed endpoint walks); swaps permanently update the
    layout.  Other terms attach noise to an approximate Steiner tree of
    their current positions (none for a single qubit) without moving
    anything.  Returns the entries plus the evolved layout.
    """
    adj = _graphs.adjacency(region.qubits, region.edges)
    pos = list(mapping)  # logical -> physical
    inv = {p: l for l, p in enumerate(pos)}
    entries: list[ScheduleEntry] = []

    for weight, support in terms:
        if len(support) == 2:
            a, b = support
            swaps: list[tuple[int, int]] = []
            noise: list[tuple[tuple[int, int], tuple[int, int]]] = []
            if pos[b] not in adj[pos[a]]:
                # regions are connected, so the path exists
                path = _graphs.shortest_path(_graphs.bfs(adj, (pos[a],)), pos[b])
                for step in range(len(path) - 2):
                    here, there = path[step], path[step + 1]
                    other = inv[there]
                    edge = _graphs.norm_edge(here, there)
                    swaps.append(edge)
                    pair = (min(a, other), max(a, other))
                    noise.extend([(edge, pair)] * 3)  # swap = 3 two-qubit gates
                    pos[a], pos[other] = there, here
                    inv[there], inv[here] = a, other
            edge = _graphs.norm_edge(pos[a], pos[b])
            noise.append((edge, (a, b)))
            entries.append(
                ScheduleEntry(
                    support,
                    weight,
                    swaps=tuple(swaps),
                    interaction_edges=(edge,),
                    placed=(pos[a], pos[b]),
                    noise_points=tuple(noise),
                )
            )
            continue
        # degree 1 or > 2: approximate Steiner tree over current positions
        terminals = [pos[l] for l in support]
        tree_edges = _steiner_tree_edges(adj, terminals)
        noise = []
        for edge in tree_edges:
            pair = (inv[edge[0]], inv[edge[1]])
            noise.append((edge, (min(pair), max(pair))))
        entries.append(
            ScheduleEntry(
                support,
                weight,
                interaction_edges=tuple(tree_edges),
                placed=tuple(pos[l] for l in support),
                noise_points=tuple(noise),
            )
        )
    return tuple(entries), tuple(pos)


def _steiner_tree_edges(
    adj: dict[int, set[int]], terminals: list[int]
) -> list[tuple[int, int]]:
    """Greedy Steiner approximation: connect nearest terminals, all in one component, one by one."""
    tree_nodes = {terminals[0]}
    edges: set[tuple[int, int]] = set()
    remaining = sorted(set(terminals) - tree_nodes)
    while remaining:
        parents = _graphs.bfs(adj, tree_nodes)
        # the first of the shortest paths to a remaining terminal
        path = min((_graphs.shortest_path(parents, t) for t in remaining), key=len)
        edges.update(_graphs.norm_edge(u, v) for u, v in zip(path, path[1:]))
        tree_nodes.update(path)
        remaining = [t for t in remaining if t not in tree_nodes]
    return sorted(edges)


def map_circuit(poly: SpinPolynomial, region: SamplingRegion) -> Placement:
    """Embed the problem in the region and schedule one phase layer."""
    n = poly.num_spins
    if n != region.size:
        raise DimensionError(
            f"problem needs {n} qubits but region has {region.size}"
        )
    assign: dict[int, int] | None = None
    if n <= ISOMORPHISM_FAST_PATH_LIMIT:
        pair_w = _pair_weights(poly)
        adj_logical = _graphs.adjacency(range(n), pair_w)
        adj_phys = _graphs.adjacency(region.qubits, region.edges)
        assign = _find_monomorphism(adj_logical, adj_phys)
    if assign is None:
        assign = _greedy_assignment(poly, region)
    initial_map = tuple(assign[l] for l in range(n))
    schedule, final_map = route_phase_layer(region, initial_map, ordered_terms(poly))
    swap_count = sum(len(e.swaps) for e in schedule)
    return Placement(
        region=region,
        initial_map=initial_map,
        schedule=schedule,
        final_map=final_map,
        swap_count=swap_count,
    )
