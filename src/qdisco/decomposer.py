"""Balanced MinCut partitioning and flip-variable solution merging.

Oversized problems are split into capacity-bounded parts that minimize the
weight crossing parts.  After the parts are solved independently, a small
MaxCut over per-part flip variables recombines them: flipping every spin
in a part leaves its internal cost unchanged, so only the cross edges care,
and the identity flip (keep everything) is always in the search space.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from ._seeds import rng_from
from .errors import PartitionError
from .problem import (
    ProblemGraph,
    SpinAssignment,
    maxcut_to_spin_polynomial,
    minimum_cost_indices,
)

MERGE_PART_LIMIT = 24
DEFAULT_RESTARTS = 8
# Kernighan-Lin time grows about as |V|^3 + 7 |V| |E| (its pair scans, and its
# row rebuilds and edge lookups).  Into 9 parts, one balanced_mincut took
# 4.2-6.2 s on planted sparse graphs of 256 vertices (3|V|/2 edges), 14.8 s on
# 256 vertices with half of all pairs joined, and 4.2-7.5 s on graphs near the
# work bound: 512 random edges on 256 vertices, 9,400 on 180, and the complete
# graph on 157 (2-vCPU x86-64 host, CPython 3.11, measured back to back).
MINCUT_VERTEX_LIMIT = 256
MINCUT_WORK_LIMIT = 256**3 + 7 * 256 * 512


@dataclass(frozen=True)
class Partition:
    """Vertex-to-part assignment with its crossing edges."""

    assignment: tuple[int, ...]
    capacities: tuple[int, ...]
    cut_edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self) -> None:
        sizes = self.part_sizes
        for part, size in enumerate(sizes):
            if size > self.capacities[part]:
                raise PartitionError(
                    f"part {part} holds {size} vertices, capacity {self.capacities[part]}"
                )

    @property
    def num_parts(self) -> int:
        return len(self.capacities)

    @property
    def part_sizes(self) -> tuple[int, ...]:
        sizes = [0] * self.num_parts
        for part in self.assignment:
            sizes[part] += 1
        return tuple(sizes)

    def part_vertices(self, part: int) -> tuple[int, ...]:
        return tuple(v for v, a in enumerate(self.assignment) if a == part)

    @property
    def cut_weight(self) -> float:
        return sum(w for _, _, w in self.cut_edges)

    def to_json_dict(self) -> dict:
        return {
            "assignment": list(self.assignment),
            "num_parts": self.num_parts,
            "capacities": list(self.capacities),
            "part_sizes": list(self.part_sizes),
            "cut_edges": [[u, v, w] for u, v, w in self.cut_edges],
            "cut_weight": self.cut_weight,
        }


def _cut_edges(g: ProblemGraph, assignment: list[int] | tuple[int, ...]):
    return tuple(
        (u, v, w) for u, v, w in g.edges if assignment[u] != assignment[v]
    )


def balanced_mincut(
    g: ProblemGraph,
    capacities: list[int] | tuple[int, ...],
    seed: int = 0,
) -> Partition:
    """Capacity-bounded partition minimizing total crossing weight.

    DEFAULT_RESTARTS greedy growths refined by Kernighan-Lin passes (tentative
    swap/move chains with best-prefix rollback).  Part sizes are pinned to
    the capacities when they sum exactly to |V|; with slack, parts fill in
    capacity order.  Deterministic under ``seed``.  Graphs of more than
    MINCUT_VERTEX_LIMIT vertices, or with |V|^3 + 7 |V| |E| past
    MINCUT_WORK_LIMIT, and more than MERGE_PART_LIMIT capacities (parts the
    merge could not join, each adding to the work) are refused before any work.
    """
    n = g.num_vertices
    if n > MINCUT_VERTEX_LIMIT:
        raise PartitionError(
            f"balanced MinCut takes at most {MINCUT_VERTEX_LIMIT} vertices, got {n}"
        )
    if n**3 + 7 * n * len(g.edges) > MINCUT_WORK_LIMIT:
        raise PartitionError(
            f"balanced MinCut takes at most {(MINCUT_WORK_LIMIT - n**3) // (7 * n)} edges"
            f" on {n} vertices, got {len(g.edges)}"
        )
    if len(capacities) > MERGE_PART_LIMIT:
        raise PartitionError(f"balanced MinCut takes at most {MERGE_PART_LIMIT} parts, got {len(capacities)}")
    caps = [int(c) for c in capacities]
    if any(c < 1 for c in caps):
        raise PartitionError(f"capacities must be >= 1, got {caps}")
    if sum(caps) < n:
        raise PartitionError(
            f"capacities sum to {sum(caps)} but the graph has {n} vertices"
        )

    # fixed target sizes keep the refinement size-preserving
    targets = []
    remaining = n
    for c in caps:
        take = min(c, remaining)
        targets.append(take)
        remaining -= take

    adj: list[dict[int, float]] = [dict() for _ in range(n)]
    for u, v, w in g.edges:
        adj[u][v] = adj[u].get(v, 0.0) + w
        adj[v][u] = adj[v].get(u, 0.0) + w

    # every cut is finite (ProblemGraph bounds its total weight), so restart 0 sets best_assign
    best_cut = float("inf")
    for restart in range(DEFAULT_RESTARTS):
        rng = rng_from(seed, "mincut", restart)
        assign = _greedy_seed(n, targets, adj, rng, deterministic=restart == 0)
        assign = _kl_refine(n, caps, adj, assign)
        cut_edges = _cut_edges(g, assign)
        cut = sum(w for _, _, w in cut_edges)
        if cut < best_cut - 1e-12 or (
            abs(cut - best_cut) <= 1e-12 and assign < best_assign
        ):
            best_cut, best_assign, best_edges = cut, assign, cut_edges

    return Partition(
        assignment=tuple(best_assign),
        capacities=tuple(caps),
        cut_edges=best_edges,
    )


def _greedy_seed(
    n: int,
    targets: list[int],
    adj: list[dict[int, float]],
    rng,
    deterministic: bool,
) -> list[int]:
    """Grow parts one at a time by heaviest attachment to the part so far.

    Attachments are cached and re-summed, in ``adj`` order, when a neighbour joins.
    """
    assign = [-1] * n
    order = sorted(range(len(targets)), key=lambda i: (-targets[i], i))
    for part in order:
        size = targets[part]
        pool = [v for v in range(n) if assign[v] < 0]
        if size == 0 or not pool:
            continue
        if deterministic:
            v = max(pool, key=lambda v: (sum(adj[v].values()), -v))
        else:
            v = pool[int(rng.integers(len(pool)))]
        # keys ascend, so max() breaks ties toward the lowest vertex; it has no
        # floor value, so parts whose attachments are all negative still grow
        attach = dict.fromkeys(pool, 0)
        while True:
            assign[v] = part
            del attach[v]
            size -= 1
            if size == 0 or not attach:
                break
            for u in adj[v]:
                if u in attach:
                    attach[u] = sum(w for x, w in adj[u].items() if assign[x] == part)
            v = max(attach, key=attach.__getitem__)
    return assign


def _kl_refine(
    n: int,
    capacities: list[int],
    adj: list[dict[int, float]],
    assign: list[int],
) -> list[int]:
    """Kernighan-Lin refinement generalized to multiway swaps and moves.

    Each pass builds a chain of tentative best (possibly negative) gain
    operations with vertex locking, keeping the state after each, then
    returns to the state after the best prefix.
    Swaps preserve part sizes; moves may rebalance within the capacities.

    Gains come from ``move[v][p]``, vertex v's gain for moving to part p: its
    weight to p less its weight to its own part, Kernighan and Lin's D-value
    per part.  A move to d gains ``move[v][d]``; a swap of v and u gains
    ``move[v][assign[u]] + move[u][assign[v]]``, less twice their edge.  The
    table is built each pass; after an operation only the unlocked neighbours
    of the moved vertices get their rows built again, summing ``adj`` in order
    rather than patching, so every gain is the same float sum as one computed
    from scratch.  An edge of weight w >= 0 can only lower a swap's gain
    (rounding is monotone), so for a vertex without negative edges the edge is
    looked up only when the gain without it would win.
    """
    assign = list(assign)
    num_parts = len(capacities)
    sizes = [assign.count(part) for part in range(num_parts)]

    def move_row(v: int) -> list[float]:
        out = [0] * num_parts
        for u, w in adj[v].items():
            out[assign[u]] += w
        own = out[assign[v]]
        return [x - own for x in out]

    negative = [any(w < 0 for w in adj[v].values()) for v in range(n)]
    for _ in range(n):
        free = list(range(n))  # unlocked vertices, ascending
        locked = [False] * n
        states = [list(assign)]  # the pass's start, then the state after each operation
        gains: list[float] = []
        move = [move_row(v) for v in range(n)]

        while True:
            best_op = None
            # a gain must beat the best so far by more than 1e-12
            best_gain = threshold = -float("inf")
            # parts that can take one more vertex, ascending
            open_parts = [p for p in range(num_parts) if sizes[p] < capacities[p]]
            for i, v in enumerate(free):
                src = assign[v]
                mv = move[v]
                if open_parts and sizes[src] > 1:
                    for dst in open_parts:
                        if dst != src and mv[dst] > threshold:
                            best_gain, best_op = mv[dst], ("move", v, src, dst)
                            threshold = best_gain + 1e-12
                adj_v, eager = adj[v], negative[v]
                for u in free[i + 1 :]:
                    pu = assign[u]
                    if pu == src:
                        continue
                    gs = mv[pu] + move[u][src]
                    if gs > threshold or eager:
                        if u in adj_v:  # subtracting 2.0 * 0.0 would change no sum
                            gs -= 2.0 * adj_v[u]
                        if gs > threshold:
                            best_gain, best_op = gs, ("swap", v, u, 0)
                            threshold = best_gain + 1e-12
            if best_op is None:
                break
            kind, a, b, dst = best_op
            if kind == "move":
                sizes[assign[a]] -= 1
                assign[a] = dst
                sizes[dst] += 1
                touched = adj[a].keys()
            else:
                assign[a], assign[b] = assign[b], assign[a]
                free.remove(b)
                locked[b] = True
                touched = adj[a].keys() | adj[b].keys()
            free.remove(a)
            locked[a] = True
            for x in touched:
                if not locked[x]:
                    move[x] = move_row(x)
            states.append(list(assign))
            gains.append(best_gain)

        if not gains:
            break
        prefix = list(accumulate(gains))
        best_idx = max(range(len(prefix)), key=lambda i: (prefix[i], -i))
        if prefix[best_idx] <= 1e-12:
            assign = states[0]
            break
        assign = states[best_idx + 1]
        sizes = [assign.count(part) for part in range(num_parts)]
    return assign


@dataclass(frozen=True)
class Subproblem:
    """One part's induced subgraph with its back-reference to the parent."""

    graph: ProblemGraph
    vertices: tuple[int, ...]  # parent vertex id for each local index


def extract_subproblems(g: ProblemGraph, partition: Partition) -> list[Subproblem]:
    """Induced subgraph per part, densely re-indexed in ascending order."""
    if len(partition.assignment) != g.num_vertices:
        raise PartitionError("partition does not match the graph")
    out = []
    for part in range(partition.num_parts):
        verts = partition.part_vertices(part)
        index = {v: i for i, v in enumerate(verts)}
        edges = tuple(
            (index[u], index[v], w)
            for u, v, w in g.edges
            if u in index and v in index
        )
        out.append(Subproblem(ProblemGraph(len(verts), edges), verts))
    return out


def merge_solutions(
    g: ProblemGraph,
    partition: Partition,
    local_solutions: list[SpinAssignment],
) -> SpinAssignment:
    """Compose part solutions, choosing optimal per-part global flips.

    The flip problem reduces to MaxCut over super-vertices whose edge
    weight aggregates cross-part couplings under the local solutions; it is
    solved exactly by brute force over all 2^P flip patterns (P is at most
    MERGE_PART_LIMIT).
    """
    P = partition.num_parts
    if len(local_solutions) != P:
        raise PartitionError(
            f"{len(local_solutions)} local solutions for {P} parts"
        )
    if P > MERGE_PART_LIMIT:
        raise PartitionError(f"merge supports at most {MERGE_PART_LIMIT} parts")

    subs = extract_subproblems(g, partition)
    for part, (sub, sol) in enumerate(zip(subs, local_solutions)):
        if len(sol) != sub.graph.num_vertices:
            raise PartitionError(
                f"part {part} solution has {len(sol)} spins, expected "
                f"{sub.graph.num_vertices}"
            )

    # global spin values before flipping
    spins = [0] * g.num_vertices
    for sub, sol in zip(subs, local_solutions):
        for local, parent in enumerate(sub.vertices):
            spins[parent] = sol[local]

    if P == 1:
        return SpinAssignment(tuple(spins))

    coupling: dict[tuple[int, int], float] = {}
    for u, v, w in partition.cut_edges:
        a, b = partition.assignment[u], partition.assignment[v]
        if a == b:
            raise PartitionError("cut edge inside a single part")
        key = (min(a, b), max(a, b))
        coupling[key] = coupling.get(key, 0.0) + w * spins[u] * spins[v]

    merge_graph = ProblemGraph(
        P, tuple((a, b, w) for (a, b), w in coupling.items() if w != 0.0)
    )
    flips = _solve_flips(merge_graph)

    merged = tuple(
        spins[v] * flips[partition.assignment[v]] for v in range(g.num_vertices)
    )
    return SpinAssignment(merged)


def _solve_flips(merge_graph: ProblemGraph) -> tuple[int, ...]:
    """Exact minimizer of the flip polynomial.

    Ties go to the lowest basis index, so keeping every part unflipped wins
    whenever it is optimal.
    """
    P = merge_graph.num_vertices
    poly = maxcut_to_spin_polynomial(merge_graph)
    if not poly.terms:
        return tuple(1 for _ in range(P))
    _, indices = minimum_cost_indices(poly)
    return SpinAssignment.from_index(int(indices[0]), P).values
