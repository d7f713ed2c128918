import itertools

import numpy as np
import pytest

from qdisco import decomposer
from qdisco.decomposer import (
    MINCUT_VERTEX_LIMIT,
    MINCUT_WORK_LIMIT,
    Partition,
    _kl_refine,
    balanced_mincut,
    extract_subproblems,
    merge_solutions,
)
from qdisco.errors import PartitionError
from qdisco.problem import (
    ProblemGraph,
    SpinAssignment,
    brute_force_optimum,
    maxcut_to_spin_polynomial,
)

from oracles import best_balanced_bipartition, random_maxcut_graph, reference_kl_refine

TWO_TRIANGLES = ProblemGraph(
    6,
    (
        (0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
        (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0),
    ),
)


class TestBalancedMincut:
    def test_disjoint_triangles_cut_zero(self):
        part = balanced_mincut(TWO_TRIANGLES, [3, 3], seed=0)
        assert part.cut_weight == 0.0
        assert sorted(part.part_sizes) == [3, 3]

    def test_fifteen_vertices_exact_sizes(self):
        rng = np.random.default_rng(21)
        g = random_maxcut_graph(rng, 15, 0.3)
        part = balanced_mincut(g, [4, 5, 6], seed=1)
        assert part.part_sizes == (4, 5, 6)

    def test_within_ten_percent_of_exhaustive(self):
        rng = np.random.default_rng(22)
        for trial in range(30):
            g = random_maxcut_graph(rng, 10, 0.4, weighted=True)
            part = balanced_mincut(g, [5, 5], seed=trial)
            best = best_balanced_bipartition(g, 5)
            assert part.cut_weight <= best * 1.10 + 1e-9

    def test_infeasible_capacities(self):
        with pytest.raises(PartitionError):
            balanced_mincut(TWO_TRIANGLES, [3, 2], seed=0)
        with pytest.raises(PartitionError):
            balanced_mincut(TWO_TRIANGLES, [6, 0], seed=0)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(23)
        g = random_maxcut_graph(rng, 12, 0.4, weighted=True)
        a = balanced_mincut(g, [6, 6], seed=5)
        b = balanced_mincut(g, [6, 6], seed=5)
        assert a == b

    def test_slack_capacities_respected(self):
        rng = np.random.default_rng(24)
        g = random_maxcut_graph(rng, 8, 0.4)
        part = balanced_mincut(g, [6, 6], seed=2)
        assert sum(part.part_sizes) == 8
        assert all(s <= c for s, c in zip(part.part_sizes, part.capacities))

    def test_cut_edges_are_exactly_the_crossing_edges(self):
        rng = np.random.default_rng(25)
        g = random_maxcut_graph(rng, 10, 0.5, weighted=True)
        part = balanced_mincut(g, [5, 5], seed=3)
        want = {
            (u, v)
            for u, v, _ in g.edges
            if part.assignment[u] != part.assignment[v]
        }
        assert {(u, v) for u, v, _ in part.cut_edges} == want

    def test_negative_weights_partition(self):
        # every greedy attachment to the growing part is below -1
        k4 = ProblemGraph(4, tuple((u, v, -3.0) for u, v in itertools.combinations(range(4), 2)))
        part = balanced_mincut(k4, [2, 2], seed=0)
        assert part.part_sizes == (2, 2)
        assert len(part.cut_edges) == 4


def ring_graph(n):
    return ProblemGraph(n, tuple((i, (i + 1) % n, 1.0) for i in range(n)))


def circulant_graph(n, offsets):
    """Vertex i joined to i + 1, ..., i + offsets (mod n): n * offsets edges."""
    return ProblemGraph(n, tuple((i, (i + k) % n, 1.0) for i in range(n) for k in range(1, offsets + 1)))


def complete_graph(n):
    return ProblemGraph(n, tuple((u, v, 1.0) for u, v in itertools.combinations(range(n), 2)))


class TestMincutVertexLimit:
    def test_graph_past_the_limit_is_refused_before_refinement(self, monkeypatch):
        def refine(*args):
            raise AssertionError("_kl_refine ran")

        monkeypatch.setattr(decomposer, "_kl_refine", refine)
        n = MINCUT_VERTEX_LIMIT + 1
        with pytest.raises(PartitionError, match=f"at most {MINCUT_VERTEX_LIMIT} vertices, got {n}$"):
            balanced_mincut(ring_graph(n), [n], seed=0)

    def test_graph_at_the_limit_is_partitioned(self, monkeypatch):
        # refinement skipped: the greedy growth alone decides the parts
        monkeypatch.setattr(decomposer, "_kl_refine", lambda n, caps, adj, assign: assign)
        n = MINCUT_VERTEX_LIMIT
        part = balanced_mincut(ring_graph(n), [n // 2, n // 2], seed=0)
        assert part.part_sizes == (n // 2, n // 2)


class TestMincutWorkLimit:
    """Dense graphs are refused by |V|^3 + 7 |V| |E|, before any work."""

    @pytest.mark.parametrize(
        "graph, message",
        [
            (circulant_graph(256, 3), "at most 512 edges on 256 vertices, got 768$"),
            (complete_graph(159), "at most 12286 edges on 159 vertices, got 12561$"),
        ],
    )
    def test_graph_past_the_bound_is_refused_before_refinement(self, monkeypatch, graph, message):
        def refine(*args):
            raise AssertionError("_kl_refine ran")

        monkeypatch.setattr(decomposer, "_kl_refine", refine)
        with pytest.raises(PartitionError, match=message):
            balanced_mincut(graph, [graph.num_vertices], seed=0)

    @pytest.mark.parametrize("graph", [circulant_graph(256, 2), complete_graph(158)])
    def test_graph_on_the_bound_is_partitioned(self, monkeypatch, graph):
        n = graph.num_vertices
        assert n**3 + 7 * n * len(graph.edges) <= MINCUT_WORK_LIMIT
        monkeypatch.setattr(decomposer, "_kl_refine", lambda n, caps, adj, assign: assign)
        assert balanced_mincut(graph, [n - n // 2, n // 2], seed=0).part_sizes == (n - n // 2, n // 2)


def adjacency(g):
    adj = [dict() for _ in range(g.num_vertices)]
    for u, v, w in g.edges:
        adj[u][v] = adj[u].get(v, 0.0) + w
        adj[v][u] = adj[v].get(u, 0.0) + w
    return adj


def planted_bipartite(rng, n):
    """Connected graph whose edges all cross a hidden half/half split."""
    order = rng.permutation(n)
    left, right = order[: n // 2], order[n // 2 :]
    edges = {tuple(sorted((int(a), int(b)))) for a, b in zip(left, right)}
    edges |= {tuple(sorted((int(a), int(b)))) for a, b in zip(left[1:], right)}
    while len(edges) < 3 * n // 2:
        edges.add(tuple(sorted((int(rng.choice(left)), int(rng.choice(right))))))
    return ProblemGraph(n, tuple((u, v, float(rng.integers(1, 6))) for u, v in edges))


def random_start(rng, caps, n):
    """Random assignment of n vertices within the capacities."""
    slots = [part for part, c in enumerate(caps) for _ in range(c)]
    return [int(p) for p in rng.permutation(slots)[:n]]


WEIGHT_DRAWS = {
    "integer": lambda rng: float(rng.integers(1, 6)),
    "float": lambda rng: float(rng.uniform(0.1, 3.0)),
    "negative": lambda rng: float(rng.uniform(-3.0, 3.0)),
    # weights 4e-13 apart: many gains differ by less than the 1e-12 acceptance slack
    "near-tie": lambda rng: 1.0 + int(rng.integers(0, 4)) * 4e-13,
}


class TestKlRefine:
    @pytest.mark.parametrize("weights", list(WEIGHT_DRAWS))
    def test_matches_reference_on_random_graphs(self, weights):
        draw = WEIGHT_DRAWS[weights]
        rng = np.random.default_rng(40)
        for trial in range(100):
            n = int(rng.integers(2, 21))
            edges = tuple(
                (u, v, draw(rng))
                for u, v in itertools.combinations(range(n), 2)
                if rng.random() < 0.35
            )
            g = ProblemGraph(n, edges)
            num_parts = int(rng.integers(1, 7))
            caps = [int(c) for c in rng.integers(1, n + 1, size=num_parts)]
            caps[0] += max(0, n - sum(caps))  # feasible, usually with slack
            start = random_start(rng, caps, n)
            adj = adjacency(g)
            want = reference_kl_refine(n, caps, adj, start)
            assert _kl_refine(n, caps, adj, start) == want, (weights, trial)

    def test_matches_reference_on_planted_bipartite(self):
        rng = np.random.default_rng(30)
        for n in (30, 34, 38, 42):
            g = planted_bipartite(rng, n)
            caps = []
            while sum(caps) < n:
                caps.append((8, 7, 6)[len(caps) % 3])
            start = random_start(rng, caps, n)
            adj = adjacency(g)
            assert _kl_refine(n, caps, adj, start) == reference_kl_refine(n, caps, adj, start)


class TestExtractSubproblems:
    def test_triangle_split(self):
        g = ProblemGraph(3, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)))
        part = Partition(
            assignment=(0, 0, 1),
            capacities=(2, 1),
            cut_edges=((0, 2, 1.0), (1, 2, 1.0)),
        )
        subs = extract_subproblems(g, part)
        assert subs[0].graph.edges == ((0, 1, 1.0),)
        assert subs[1].graph.edges == ()
        assert subs[0].vertices == (0, 1)
        assert subs[1].vertices == (2,)

    def test_disjoint_triangles_split_cleanly(self):
        part = balanced_mincut(TWO_TRIANGLES, [3, 3], seed=0)
        subs = extract_subproblems(TWO_TRIANGLES, part)
        assert all(len(s.graph.edges) == 3 for s in subs)

    def test_edge_conservation(self):
        rng = np.random.default_rng(26)
        for trial in range(10):
            g = random_maxcut_graph(rng, 15, 0.3, weighted=True)
            part = balanced_mincut(g, [4, 5, 6], seed=trial)
            subs = extract_subproblems(g, part)
            internal = sum(len(s.graph.edges) for s in subs)
            assert internal + len(part.cut_edges) == len(g.edges)
            total_weight = sum(
                w for s in subs for _, _, w in s.graph.edges
            ) + sum(w for _, _, w in part.cut_edges)
            assert total_weight == pytest.approx(g.total_weight)


def exact_local_solutions(g, part):
    out = []
    for sub in extract_subproblems(g, part):
        _, argmins = brute_force_optimum(maxcut_to_spin_polynomial(sub.graph))
        out.append(argmins[0])
    return out


class TestMergeSolutions:
    def test_single_part_identity(self):
        g = ProblemGraph(3, ((0, 1, 1.0), (1, 2, 1.0)))
        part = Partition((0, 0, 0), (3,), ())
        sol = SpinAssignment((1, -1, 1))
        assert merge_solutions(g, part, [sol]) == sol

    def test_two_parts_one_edge_gains_by_flip(self):
        # locally aligned endpoint spins across one positive cut edge:
        # flipping one part wins the edge
        g = ProblemGraph(2, ((0, 1, 1.0),))
        part = Partition((0, 1), (1, 1), ((0, 1, 1.0),))
        merged = merge_solutions(g, part, [SpinAssignment((1,)), SpinAssignment((1,))])
        assert merged[0] != merged[1]
        assert g.cut_value(merged.values) == 1.0

    def test_matches_bruteforce_over_flips_and_dominates(self):
        rng = np.random.default_rng(27)
        for trial in range(100):
            g = random_maxcut_graph(rng, 12, 0.35, weighted=True)
            part = balanced_mincut(g, [4, 4, 4], seed=trial)
            locals_ = exact_local_solutions(g, part)
            merged = merge_solutions(g, part, locals_)

            # brute force over the 2^3 joint flips
            spins = [0] * 12
            subs = extract_subproblems(g, part)
            for sub, sol in zip(subs, locals_):
                for local, parent in enumerate(sub.vertices):
                    spins[parent] = sol[local]
            best_cut = -1.0
            for flips in itertools.product((-1, 1), repeat=3):
                flipped = [
                    spins[v] * flips[part.assignment[v]] for v in range(12)
                ]
                best_cut = max(best_cut, g.cut_value(flipped))
            assert g.cut_value(merged.values) == pytest.approx(best_cut)
            # dominance: at least as good as plain concatenation
            assert g.cut_value(merged.values) >= g.cut_value(spins) - 1e-12

    def test_21_singleton_parts_reach_the_maximum_cut(self):
        # one vertex per part turns the flip problem into MaxCut itself
        n = 21
        rng = np.random.default_rng(29)
        g = random_maxcut_graph(rng, n, 0.15, weighted=True)
        part = balanced_mincut(g, [1] * n, seed=0)
        locals_ = [SpinAssignment((int(s),)) for s in rng.choice((-1, 1), n)]
        merged = merge_solutions(g, part, locals_)
        index = np.arange(1 << n)
        cuts = np.zeros(1 << n)
        for u, v, w in g.edges:
            cuts += w * (((index >> u) ^ (index >> v)) & 1)
        assert g.cut_value(merged.values) == pytest.approx(cuts.max())

    def test_flip_covariance(self):
        rng = np.random.default_rng(28)
        for trial in range(20):
            g = random_maxcut_graph(rng, 10, 0.4, weighted=True)
            part = balanced_mincut(g, [5, 5], seed=trial)
            locals_ = exact_local_solutions(g, part)
            merged = merge_solutions(g, part, locals_)
            negated = [locals_[0].flipped(), locals_[1]]
            merged2 = merge_solutions(g, part, negated)
            assert g.cut_value(merged.values) == pytest.approx(
                g.cut_value(merged2.values)
            )

    def test_missing_local_solution(self):
        part = balanced_mincut(TWO_TRIANGLES, [3, 3], seed=0)
        with pytest.raises(PartitionError):
            merge_solutions(TWO_TRIANGLES, part, [SpinAssignment((1, 1, 1))])

    def test_wrong_length_local_solution(self):
        part = balanced_mincut(TWO_TRIANGLES, [3, 3], seed=0)
        with pytest.raises(PartitionError):
            merge_solutions(
                TWO_TRIANGLES,
                part,
                [SpinAssignment((1, 1)), SpinAssignment((1, 1, 1, 1))],
            )
