import gc
import math
from operator import itemgetter
from unittest import mock

import networkx as nx
import numpy as np
import pytest

from qdisco import compiler
from qdisco.compiler import (
    EXACT_SELECTION_LIMIT,
    _find_monomorphism,
    _ranked_sets,
    _select_exact,
    SamplingRegion,
    ScheduleEntry,
    best_regions,
    filter_by_threshold,
    map_circuit,
    ordered_terms,
    region_fidelity,
    route_phase_layer,
)
from qdisco.datasets import data_path
from qdisco.errors import ConfigError, DimensionError, NoRegionError
from qdisco.hardware import QpuModel, load_calibration
from qdisco.problem import (
    ProblemGraph,
    SpinPolynomial,
    labs_to_spin_polynomial,
    maxcut_to_spin_polynomial,
)
from qdisco.simulator import NoiseSpec, QaoaParams, build_qaoa_state, noisy_sample

from oracles import (
    connected_subsets_bruteforce,
    counting_comparisons,
    exhaustive_region_selection,
    physical_statevector,
    random_maxcut_graph,
    reference_enumerate_regions,
)
from topologies import uniform_qpu


def random_qpu(rng, max_qubits=12) -> QpuModel:
    """Random connected topology with random error rates."""
    n = int(rng.integers(4, max_qubits + 1))
    edges = {(int(rng.integers(0, v)), v) for v in range(1, n)}
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
        edges.add((u, v))
    gate_error = {e: float(rng.uniform(0.001, 0.03)) for e in sorted(edges)}
    readout = tuple(float(x) for x in rng.uniform(0.001, 0.03, size=n))
    return QpuModel(f"rand{n}", n, readout, gate_error)


class TestFilterByThreshold:
    def test_edge_dropped_when_endpoint_dropped(self):
        # eta = 0.01 default threshold: qubit rates {0.005, 0.02}, edge 0.008
        qpu = QpuModel("pair", 2, (0.005, 0.02), {(0, 1): 0.008})
        fg = filter_by_threshold(qpu, 0.01)
        assert fg.qubits == frozenset({0})
        assert fg.edges == frozenset()

    def test_vacuous_filter(self):
        qpu = uniform_qpu("ring", num_qubits=5, readout=0.3, gate=0.2)
        fg = filter_by_threshold(qpu, 1.0)
        assert fg.qubits == frozenset(range(5))
        assert fg.edges == frozenset(qpu.edges)

    def test_filter_below_everything(self):
        qpu = uniform_qpu("ring", num_qubits=5, readout=0.3, gate=0.2)
        fg = filter_by_threshold(qpu, 0.001)
        assert not fg.qubits and not fg.edges

    def test_eta_out_of_range(self):
        qpu = uniform_qpu("line", num_qubits=3)
        with pytest.raises(ConfigError):
            filter_by_threshold(qpu, 0.0)
        with pytest.raises(ConfigError):
            filter_by_threshold(qpu, 1.5)

    def test_soundness_exhaustive(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            qpu = random_qpu(rng)
            eta = float(rng.uniform(0.002, 0.05))
            fg = filter_by_threshold(qpu, eta)
            for q in range(qpu.num_qubits):
                assert (q in fg.qubits) == (qpu.readout_error[q] < eta)
            for edge, err in qpu.gate_error.items():
                expected = err < eta and edge[0] in fg.qubits and edge[1] in fg.qubits
                assert (edge in fg.edges) == expected

    def test_operation_count_is_exactly_n_plus_e(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            qpu = random_qpu(rng)
            counted, comparisons = counting_comparisons(qpu)
            filter_by_threshold(counted, 0.01)
            assert comparisons[0] == qpu.num_qubits + len(qpu.edges)


def ranked_qubits(ranked) -> list[tuple[int, ...]]:
    return [qubits for (_, qubits), _ in ranked]


class TestEnumerateRegions:
    """Connected sets as ``_ranked_sets`` ranks them: ((-fidelity, qubits), edges)."""

    def path4(self) -> QpuModel:
        return uniform_qpu("line", num_qubits=4, readout=0.005, gate=0.002, name="p4")

    def test_path_pairs(self):
        fg = filter_by_threshold(self.path4(), 0.01)
        ranked = _ranked_sets(fg, 2)
        assert len(ranked) == 3
        assert set(ranked_qubits(ranked)) == {(0, 1), (1, 2), (2, 3)}

    def test_path_whole(self):
        fg = filter_by_threshold(self.path4(), 0.01)
        assert len(_ranked_sets(fg, 4)) == 1

    def test_too_large_raises(self):
        fg = filter_by_threshold(self.path4(), 0.01)
        with pytest.raises(NoRegionError):
            _ranked_sets(fg, 5)

    def test_heavy_hex_count_matches_bruteforce(self):
        qpu = uniform_qpu("heavy_hex_16", readout=0.005, gate=0.002)
        fg = filter_by_threshold(qpu, 0.01)
        ranked = _ranked_sets(fg, 6)
        want = connected_subsets_bruteforce(fg.qubits, fg.edges, 6)
        assert {frozenset(q) for q in ranked_qubits(ranked)} == want

    def test_exact_counts_on_random_graphs(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            qpu = random_qpu(rng, max_qubits=9)
            fg = filter_by_threshold(qpu, 1.0)
            n = int(rng.integers(2, 5))
            if n > len(fg.qubits):
                continue
            got = [frozenset(q) for q in ranked_qubits(_ranked_sets(fg, n))]
            # every subgraph exactly once
            assert len(got) == len(set(got))
            assert set(got) == connected_subsets_bruteforce(fg.qubits, fg.edges, n)

    def test_sorted_by_fidelity(self):
        qpu = random_qpu(np.random.default_rng(15))
        fg = filter_by_threshold(qpu, 1.0)
        fids = [-neg_fidelity for (neg_fidelity, _), _ in _ranked_sets(fg, 3)]
        assert fids == sorted(fids, reverse=True)

    def test_stochastic_mode_on_large_graph(self):
        qpu = uniform_qpu("grid", rows=5, cols=5, readout=0.005, gate=0.002, name="g25")
        fg = filter_by_threshold(qpu, 0.01)
        assert len(fg.qubits) > 20
        with mock.patch.object(compiler, "SAMPLED_CANDIDATE_LIMIT", 50):
            a = _ranked_sets(fg, 6, seed=3)
            b = _ranked_sets(fg, 6, seed=3)
        assert ranked_qubits(a) == ranked_qubits(b)
        assert len(a) >= 50
        for (_, qubits), edges in a[:10]:
            sub = nx.Graph()
            sub.add_nodes_from(qubits)
            sub.add_edges_from(edges)
            assert nx.is_connected(sub)

    def test_stochastic_mode_handles_small_components(self):
        # 22 valid qubits split into components smaller than the requested
        # size plus one big enough; growth attempts must terminate
        edges = {}
        readout = []
        # component A: path of 12 (big enough), component B: 10 isolated-ish pairs
        for i in range(11):
            edges[(i, i + 1)] = 0.001
        for j in range(5):
            a = 12 + 2 * j
            edges[(a, a + 1)] = 0.001
        qpu = QpuModel("frag", 22, tuple([0.001] * 22), edges)
        fg = filter_by_threshold(qpu, 0.01)
        assert len(fg.qubits) == 22
        with mock.patch.object(compiler, "SAMPLED_CANDIDATE_LIMIT", 20):
            ranked = _ranked_sets(fg, 6, seed=1)
        assert ranked
        for qubits in ranked_qubits(ranked):
            assert set(qubits) <= set(range(12))


class TestRegionFidelity:
    def test_zero_errors_give_one(self):
        qpu = uniform_qpu("line", num_qubits=3, readout=0.0, gate=0.0)
        assert region_fidelity((0, 1, 2), ((0, 1), (1, 2)), qpu) == 1.0

    def test_direct_product(self):
        qpu = QpuModel("pair", 2, (0.1, 0.1), {(0, 1): 0.1})
        assert region_fidelity((0, 1), ((0, 1),), qpu) == pytest.approx(0.9**3)

    def test_monotone_in_each_error(self):
        base = QpuModel("pair", 2, (0.1, 0.1), {(0, 1): 0.1})
        worse_q = QpuModel("pair", 2, (0.2, 0.1), {(0, 1): 0.1})
        worse_e = QpuModel("pair", 2, (0.1, 0.1), {(0, 1): 0.2})
        f = region_fidelity((0, 1), ((0, 1),), base)
        assert region_fidelity((0, 1), ((0, 1),), worse_q) < f
        assert region_fidelity((0, 1), ((0, 1),), worse_e) < f


class TestSelectRegions:
    """Exact selection, fed the candidates as ranked entries."""

    def select(self, candidates, k, isomorphic=False) -> list[SamplingRegion]:
        ranked = sorted((((-r.fidelity, r.qubits), r.edges) for r in candidates), key=itemgetter(0))
        chosen = _select_exact(ranked, k, isomorphic)
        return [SamplingRegion("q", qubits, edges, -neg) for (neg, qubits), edges in chosen]

    def region(self, qubits, fid, edges=None):
        if edges is None:
            qs = sorted(qubits)
            edges = tuple((qs[i], qs[i + 1]) for i in range(len(qs) - 1))
        return SamplingRegion("q", tuple(qubits), tuple(edges), fid)

    def test_overlap_keeps_best(self):
        a = self.region((0, 1), 0.9)
        b = self.region((1, 2), 0.8)
        chosen = self.select([a, b], 2)
        assert chosen == [a]

    def test_disjoint_top_k_by_fidelity(self):
        cands = [self.region((2 * i, 2 * i + 1), 0.5 + 0.05 * i) for i in range(6)]
        chosen = self.select(cands, 3)
        assert {r.fidelity for r in chosen} == {0.75, 0.70, 0.65}

    def test_empty_candidates(self):
        qpu = QpuModel("bare", 4, (0.001,) * 4, {})
        with pytest.raises(NoRegionError, match="'bare' has no connected 2-qubit region at eta=0.01"):
            best_regions(filter_by_threshold(qpu, 0.01), 2, 1)

    def test_exact_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(16)
        for _ in range(30):
            count = int(rng.integers(2, 13))
            cands = []
            for _ in range(count):
                size = int(rng.integers(2, 4))
                start = int(rng.integers(0, 10))
                qubits = tuple(range(start, start + size))
                cands.append(self.region(qubits, float(rng.uniform(0.5, 1.0))))
            k = int(rng.integers(1, 4))
            chosen = self.select(cands, k)
            best_count, best_product, _ = exhaustive_region_selection(cands, k)
            got_product = math.prod(r.fidelity for r in chosen)
            assert len(chosen) == best_count
            assert got_product == pytest.approx(best_product)

    def test_isomorphic_constraint(self):
        line = self.region((0, 1, 2), 0.99)
        line2 = self.region((3, 4, 5), 0.98)
        star = SamplingRegion("q", (6, 7, 8, 9), ((6, 7), (6, 8), (6, 9)), 0.97)
        chosen = self.select([line, line2, star], 3, isomorphic=True)
        assert chosen == [line, line2]
        assert nx.is_isomorphic(nx.Graph(line.edges), nx.Graph(line2.edges))
        # a pair's second region is checked too: a 4-star (same qubit and edge counts
        # as a 4-path) ranks between two 4-paths, and the best pair skips it
        path4 = self.region((0, 1, 2, 3), 0.99)
        star4 = SamplingRegion("q", (4, 5, 6, 7), ((4, 5), (4, 6), (4, 7)), 0.985)
        path4b = self.region((8, 9, 10, 11), 0.98)
        assert self.select([path4, star4, path4b], 2, isomorphic=True) == [path4, path4b]


class TestMapCircuit:
    def test_single_edge_direct(self):
        poly = maxcut_to_spin_polynomial(ProblemGraph(2, ((0, 1, 1.0),)))
        region = SamplingRegion("q", (3, 4), ((3, 4),), 0.9)
        placement = map_circuit(poly, region)
        assert placement.swap_count == 0
        assert sorted(placement.initial_map) == [3, 4]

    def test_triangle_on_line_needs_one_swap(self):
        poly = maxcut_to_spin_polynomial(
            ProblemGraph(3, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)))
        )
        region = SamplingRegion("q", (0, 1, 2), ((0, 1), (1, 2)), 0.9)
        placement = map_circuit(poly, region)
        assert placement.swap_count == 1

    def test_isomorphic_embedding_has_zero_swaps(self):
        # problem graph == region graph (a ring of 5)
        poly = maxcut_to_spin_polynomial(
            ProblemGraph(5, tuple((i, (i + 1) % 5, 1.0) for i in range(5)))
        )
        qpu = uniform_qpu("ring", num_qubits=5, readout=0.0, gate=0.0)
        region = SamplingRegion("ring_5", tuple(range(5)), qpu.edges, 1.0)
        placement = map_circuit(poly, region)
        assert placement.swap_count == 0

    def test_size_mismatch(self):
        poly = maxcut_to_spin_polynomial(ProblemGraph(3, ((0, 1, 1.0),)))
        region = SamplingRegion("q", (0, 1), ((0, 1),), 0.9)
        with pytest.raises(DimensionError):
            map_circuit(poly, region)

    def test_schedule_edges_stay_inside_region(self):
        rng = np.random.default_rng(17)
        qpu = uniform_qpu("heavy_hex_16", readout=0.005, gate=0.002)
        fg = filter_by_threshold(qpu, 0.01)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            g = random_maxcut_graph(rng, n, 0.7, weighted=True)
            if not g.edges:
                continue
            poly = maxcut_to_spin_polynomial(g)
            regions = reference_enumerate_regions(fg, n)
            region = regions[int(rng.integers(len(regions)))]
            placement = map_circuit(poly, region)
            region_edges = set(region.edges)
            for entry in placement.schedule:
                for e in entry.swaps:
                    assert e in region_edges
                for e in entry.interaction_edges:
                    assert e in region_edges
            # swap counts: 3 noise applications per swap + 1 per interaction edge
            for entry in placement.schedule:
                assert len(entry.noise_points) == 3 * len(entry.swaps) + len(
                    entry.interaction_edges
                )

    def test_placement_transparency(self):
        rng = np.random.default_rng(18)
        qpu = uniform_qpu("line", num_qubits=8, readout=0.005, gate=0.002)
        fg = filter_by_threshold(qpu, 0.01)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            g = random_maxcut_graph(rng, n, 0.8, weighted=True)
            if not g.edges:
                continue
            poly = maxcut_to_spin_polynomial(g)
            region = best_regions(fg, n, 1)[0]
            placement = map_circuit(poly, region)
            p = int(rng.integers(1, 3))
            params = QaoaParams(
                tuple(rng.uniform(0, 2 * math.pi, p)), tuple(rng.uniform(0, math.pi, p))
            )
            want = build_qaoa_state(poly, params).probabilities()
            got = np.abs(physical_statevector(poly, placement, params)) ** 2
            assert np.max(np.abs(got - want)) < 1e-9

    def test_placement_transparency_deep_circuit(self):
        # p = 4 exercises repeated re-routing from evolved layouts
        rng = np.random.default_rng(19)
        qpu = uniform_qpu("line", num_qubits=6, readout=0.005, gate=0.002)
        fg = filter_by_threshold(qpu, 0.01)
        g = random_maxcut_graph(rng, 6, 0.9, weighted=True)
        poly = maxcut_to_spin_polynomial(g)
        placement = map_circuit(poly, best_regions(fg, 6, 1)[0])
        assert placement.swap_count > 0
        params = QaoaParams(
            tuple(rng.uniform(0, 2 * math.pi, 4)), tuple(rng.uniform(0, math.pi, 4))
        )
        want = build_qaoa_state(poly, params).probabilities()
        got = np.abs(physical_statevector(poly, placement, params)) ** 2
        assert np.max(np.abs(got - want)) < 1e-9

    def test_quartic_terms_route_without_swaps(self):
        poly = labs_to_spin_polynomial(5)
        qpu = uniform_qpu("line", num_qubits=5, readout=0.0, gate=0.0)
        region = SamplingRegion("line_5", tuple(range(5)), qpu.edges, 1.0)
        placement = map_circuit(poly, region)
        for entry in placement.schedule:
            if len(entry.support) > 2:
                assert not entry.swaps
                assert entry.interaction_edges  # a routing tree exists

    def test_linear_terms_route_and_sample(self):
        # no encoder emits linear terms, so build them directly; each is
        # placed where its qubit sits, with no edges and no noise points
        qpu = load_calibration(data_path("qpu_hex16.json").read_text())
        terms = ((0.7, (0,)), (-0.4, (2,)), (1.0, (0, 1)), (0.5, (1, 2)), (-0.8, (2, 3)))
        poly = SpinPolynomial(4, terms + ((0.6, (0, 1, 3)),))
        region = best_regions(filter_by_threshold(qpu, 0.05), 4, 1)[0]
        placement = map_circuit(poly, region)
        assert (placement.initial_map, placement.final_map) == ((0, 1, 3, 2), (0, 2, 3, 1))
        linear = [e for e in placement.schedule if len(e.support) == 1]
        assert linear == [
            ScheduleEntry((0,), 0.7, placed=(0,)),
            ScheduleEntry((2,), -0.4, placed=(3,)),
        ]
        noise = NoiseSpec(qpu.readout_error, {e: 10 * x for e, x in qpu.gate_error.items()}, 16)
        params = QaoaParams((0.4, 1.1), (0.7, 0.2))
        counts = noisy_sample(poly, params, placement, qpu, noise, shots=200, seed=3)
        assert counts.counts == {
            "0000": 6, "0001": 26, "0010": 18, "0011": 22, "0100": 17, "0101": 10,
            "0110": 14, "0111": 7, "1000": 8, "1001": 8, "1010": 14, "1011": 6,
            "1100": 9, "1101": 8, "1110": 15, "1111": 12,
        }

    def test_route_layer_is_deterministic(self):
        poly = labs_to_spin_polynomial(6)
        qpu = uniform_qpu("ring", num_qubits=6, readout=0.0, gate=0.0)
        region = SamplingRegion("ring_6", tuple(range(6)), qpu.edges, 1.0)
        mapping = tuple(range(6))
        a = route_phase_layer(region, mapping, ordered_terms(poly))
        b = route_phase_layer(region, mapping, ordered_terms(poly))
        assert a == b


def cyclic_garbage_left_by(call) -> int:
    """Objects the cyclic collector frees after ``call()``, run with it disabled."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


class TestNoReferenceCycles:
    """Recursive searches must free their state on return, not at the next collection."""

    def test_select_regions(self):
        fg = filter_by_threshold(load_calibration(data_path("qpu_t7_a.json").read_text()), 1.0)
        assert len(_ranked_sets(fg, 3)) <= EXACT_SELECTION_LIMIT  # the exact search
        assert cyclic_garbage_left_by(lambda: best_regions(fg, 3, 2)) == 0
        assert cyclic_garbage_left_by(lambda: best_regions(fg, 3, 3, isomorphic=True)) == 0

    def test_find_monomorphism(self):
        def path(n):
            return {i: {j for j in (i - 1, i + 1) if 0 <= j < n} for i in range(n)}

        assert cyclic_garbage_left_by(lambda: _find_monomorphism(path(4), path(5))) == 0
        assert cyclic_garbage_left_by(lambda: _find_monomorphism(path(5), path(4))) == 0
