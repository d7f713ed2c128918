"""Hypothesis property tests for invariants the method relies on."""

import collections
import itertools
import math
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdisco import _graphs, compiler, orchestrator, simulator
from qdisco._fields import number
from qdisco.compiler import (
    _find_monomorphism,
    _isomorphic,
    _ranked_sets,
    _steiner_tree_edges,
    best_regions,
    filter_by_threshold,
    ordered_terms,
    route_phase_layer,
)
from qdisco.datasets import data_path
from qdisco.decomposer import Partition, balanced_mincut, extract_subproblems, merge_solutions
from qdisco.errors import ConfigError, NoRegionError, SchemaError
from qdisco.hardware import Fleet, QpuModel, load_calibration
from qdisco.hscore import best_region_placement
from qdisco.problem import (
    ProblemGraph,
    SpinAssignment,
    SpinPolynomial,
    cost_vector,
    maxcut_to_spin_polynomial,
    parse_problem_json,
)
from qdisco.simulator import (
    _BLOCK_AMPLITUDES,
    NoiseSpec,
    QaoaParams,
    ShotCounts,
    _apply_rx_all,
    _trajectory_rows,
    build_qaoa_state,
    index_to_bitstring,
    noisy_sample_batch,
)

from oracles import (
    qubit_graph,
    reference_apply_rx_all,
    reference_enumerate_regions,
    reference_find_monomorphism,
    reference_index_to_bitstring,
    reference_noisy_sample,
    reference_qpu_region_set,
    reference_select_regions,
    reference_steiner_tree_edges,
    reference_trajectory_probabilities,
)
from topologies import uniform_qpu

WEIGHTS = st.one_of(
    st.integers(-5, 5).map(float),
    st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def partition_inputs(draw):
    """A weighted graph (negative weights allowed) and feasible capacities."""
    n = draw(st.integers(1, 12))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    g = ProblemGraph(n, tuple((u, v, draw(WEIGHTS)) for u, v in sorted(chosen)))
    caps = draw(st.lists(st.integers(1, n), min_size=1, max_size=5))
    caps[-1] += max(0, n - sum(caps))
    return g, caps, draw(st.integers(0, 2**31 - 1))


@settings(max_examples=150, deadline=None)
@given(partition_inputs())
def test_balanced_mincut_partition_invariants(inputs):
    g, caps, seed = inputs
    part = balanced_mincut(g, caps, seed=seed)

    members = sorted(v for p in range(len(caps)) for v in part.part_vertices(p))
    assert members == list(range(g.num_vertices))

    sizes = collections.Counter(part.assignment)
    assert all(sizes[p] <= c for p, c in enumerate(caps))

    crossing = tuple(e for e in g.edges if part.assignment[e[0]] != part.assignment[e[1]])
    assert part.cut_edges == crossing


JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**63), 2**63),
    st.floats(),  # NaN and infinities included
    st.integers(-(2**63), 2**63).map(str),
    st.floats().map(repr),
    st.text(max_size=4),
    st.lists(st.integers(), max_size=2),
)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from([int, float]),
    value=JSON_VALUES,
    error=st.sampled_from([ConfigError, SchemaError]),
)
def test_field_reader_accepts_exactly_finite_numbers(kind, value, error):
    finite_number = type(value) in (int, float) and value - value == 0
    if finite_number and (kind is float or value == math.floor(value)):
        got = number(kind, value, "f", error)
        assert type(got) is kind and got == kind(value)
    else:
        with pytest.raises(error, match="field 'f' must be"):
            number(kind, value, "f", error)


@st.composite
def graphs(draw, max_vertices=12):
    """An adjacency map and the same graph in networkx (isolated vertices kept)."""
    n = draw(st.integers(1, max_vertices))
    pairs = list(itertools.combinations(range(n), 2))
    edges = sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else []
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return _graphs.adjacency(range(n), edges), g


@settings(max_examples=200, deadline=None)
@given(graphs(), st.data())
def test_multi_source_shortest_paths_match_networkx(graph, data):
    adj, g = graph
    sources = data.draw(st.sets(st.sampled_from(sorted(adj)), min_size=1))
    parents = _graphs.bfs(adj, sources)
    lengths = nx.multi_source_dijkstra_path_length(g, sources)
    assert set(parents) == set(lengths)
    for dst in adj:
        path = _graphs.shortest_path(parents, dst)
        if dst not in lengths:
            assert path is None
            continue
        assert len(path) - 1 == lengths[dst]
        assert path[0] in sources and path[-1] == dst
        assert all(g.has_edge(u, v) for u, v in zip(path, path[1:]))


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_components_and_distances_match_networkx(graph):
    adj, g = graph
    comps = _graphs.connected_components(adj)
    assert comps == sorted(nx.connected_components(g), key=min)
    assert _graphs.is_connected(adj) == nx.is_connected(g)
    for src in adj:
        assert _graphs.bfs_distances(adj, src) == nx.single_source_shortest_path_length(g, src)


@settings(max_examples=200, deadline=None)
@given(graphs(), st.data())
def test_steiner_tree_equals_one_search_per_terminal(graph, data):
    adj, _ = graph
    # the compiler routes within one connected region, so terminals share a component
    component = data.draw(st.sampled_from(_graphs.connected_components(adj)))
    terminals = data.draw(st.lists(st.sampled_from(sorted(component)), min_size=1, max_size=6))
    assert _steiner_tree_edges(adj, terminals) == reference_steiner_tree_edges(adj, terminals)


@settings(max_examples=300, deadline=None)
@given(graphs(max_vertices=6), graphs(max_vertices=8))
def test_monomorphism_equals_the_closure_backtracking(logical, physical):
    (adj_logical, _), (adj_phys, _) = logical, physical
    got = _find_monomorphism(adj_logical, adj_phys)
    want = reference_find_monomorphism(adj_logical, adj_phys)
    assert got == want and (got is None or list(got.items()) == list(want.items()))


@st.composite
def merge_inputs(draw):
    """A weighted graph, any assignment of its vertices to parts and local solutions."""
    g, caps, _ = draw(partition_inputs())
    n = g.num_vertices
    assignment = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    parts = sorted(set(assignment))
    assignment = tuple(parts.index(a) for a in assignment)  # no empty parts
    sizes = collections.Counter(assignment)
    part = Partition(
        assignment,
        tuple(sizes[p] for p in range(len(parts))),
        tuple(e for e in g.edges if assignment[e[0]] != assignment[e[1]]),
    )
    spins = st.sampled_from([-1, 1])
    locals_ = [
        SpinAssignment(tuple(draw(st.lists(spins, min_size=sizes[p], max_size=sizes[p]))))
        for p in range(len(parts))
    ]
    return g, part, locals_


@settings(max_examples=200, deadline=None)
@given(merge_inputs())
def test_merge_is_never_worse_than_concatenation(inputs):
    g, part, locals_ = inputs
    concatenated = [0] * g.num_vertices
    for sub, sol in zip(extract_subproblems(g, part), locals_):
        for local, parent in enumerate(sub.vertices):
            concatenated[parent] = sol[local]
    merged = merge_solutions(g, part, locals_)
    assert g.cut_value(merged) >= g.cut_value(concatenated) - 1e-9


@settings(max_examples=200, deadline=None)
@given(merge_inputs())
def test_extract_subproblems_conserves_every_edge(inputs):
    g, part, _ = inputs
    subs = extract_subproblems(g, part)
    internal = [
        (sub.vertices[u], sub.vertices[v], w) for sub in subs for u, v, w in sub.graph.edges
    ]
    assert sorted(internal + list(part.cut_edges)) == sorted(g.edges)
    assert sorted(v for sub in subs for v in sub.vertices) == list(range(g.num_vertices))


HEX16 = load_calibration(data_path("qpu_hex16.json").read_text())


def wide(bound):
    """Finite floats of either sign up to ``bound``, subnormals included."""
    return st.floats(-bound, bound, allow_nan=False)


ANGLES = wide(2 * math.pi)


@st.composite
def placed_circuits(draw, weight=wide(3.0), gamma=ANGLES, beta=ANGLES, degree=3):
    """A polynomial with terms of degree 1 to ``degree`` placed on hex16, and angles."""
    n = draw(st.integers(1, 6))
    support = st.lists(st.sampled_from(range(n)), min_size=1, max_size=degree, unique=True)
    term = st.tuples(weight, support.map(lambda s: tuple(sorted(s))))
    terms = draw(st.lists(term, max_size=8))
    poly = SpinPolynomial(n, tuple(terms), constant_offset=draw(weight))
    p = draw(st.integers(1, 3))
    params = QaoaParams(tuple(draw(gamma) for _ in range(p)), tuple(draw(beta) for _ in range(p)))
    return poly, params


def routed_layers(poly, params):
    """The phase layers ``noisy_sample`` walks for this circuit on hex16."""
    placement = best_region_placement(poly, HEX16)
    layers = [placement.schedule]
    mapping = placement.final_map
    for _ in range(1, params.p):  # later layers re-route from the evolved layout
        entries, mapping = route_phase_layer(placement.region, mapping, ordered_terms(poly))
        layers.append(entries)
    return layers


@settings(max_examples=100, deadline=None)
@given(placed_circuits())
def test_zero_noise_trajectory_equals_noiseless_distribution(circuit):
    poly, params = circuit
    [probs] = _trajectory_rows(poly.num_spins, routed_layers(poly, params), [params], [{}])
    want = build_qaoa_state(poly, params).probabilities()
    np.testing.assert_allclose(probs, want, rtol=0, atol=1e-12)


def random_fires(rng, layers, n, rows):
    """``rows`` fire maps of 0-3 Paulis each, drawn from a numpy generator."""
    slots = [(l, e) for l, entries in enumerate(layers) for e in range(len(entries))]
    fires = []
    for _ in range(rows):
        fired = {}
        for _ in range(rng.integers(0, 4)):
            la, lb = (int(q) for q in rng.choice(n, size=2, replace=False))
            slot = slots[rng.integers(len(slots))]
            fired.setdefault(slot, []).append((la, lb, int(rng.integers(1, 16))))
        fires.append(fired)
    return fires


@st.composite
def fired_trajectories(draw):
    """A placed circuit, its routed layers and the fire maps of 1-6 trajectories.

    Weights, angles and their products span subnormal to about 1e300: a merged
    weight is at most 8 * 2^k and a gamma at most 2^(997 - k), so every phase
    angle gamma * w stays finite.
    """
    k = draw(st.integers(0, 997))
    poly, params = draw(placed_circuits(wide(2.0**k), wide(2.0 ** (997 - k)), wide(1e300), degree=4))
    layers = routed_layers(poly, params)
    n = poly.num_spins
    slots = [(l, e) for l, entries in enumerate(layers) for e in range(len(entries))]
    fires = []
    for _ in range(draw(st.integers(1, 6))):
        fired = {}
        if slots and n >= 2:
            for slot in draw(st.lists(st.sampled_from(slots), max_size=4)):
                la, lb = draw(st.permutations(range(n)))[:2]
                fired.setdefault(slot, []).append((la, lb, draw(st.integers(1, 15))))
        fires.append(fired)
    return n, layers, params, fires


def assert_rows_equal_single_row_walks(n, layers, params, fires):
    rows = list(_trajectory_rows(n, layers, [params] * len(fires), fires))
    assert len(rows) == len(fires)
    for row, fired in zip(rows, fires):
        want = reference_trajectory_probabilities(n, layers, params, fired, {})
        assert np.array_equal(row, want)


@settings(max_examples=100, deadline=None)
@given(fired_trajectories())
def test_block_rows_equal_single_row_walk(case):
    assert_rows_equal_single_row_walks(*case)


def test_block_rows_spanning_two_chunks_equal_single_row_walk():
    ring6 = parse_problem_json(data_path("problem_ring6.json").read_text()).polynomial
    params = QaoaParams((0.4, -0.9), (0.7, 0.2))
    layers = routed_layers(ring6, params)
    fires = random_fires(np.random.default_rng(8), layers, 6, 300)
    assert len(fires) > _BLOCK_AMPLITUDES >> 6  # two blocks
    assert_rows_equal_single_row_walks(6, layers, params, fires)


@pytest.mark.parametrize("rows", [2, 3, 4, 5])
def test_eight_qubit_block_rows_equal_single_row_walks(rows):
    # each row is a strided column of a (256, rows) block: fired Paulis land there,
    # and rows of two angle sets share the block
    rng = np.random.default_rng(rows)
    edges = tuple((i, (i + 1) % 8, 1.0 + 0.25 * i) for i in range(8)) + ((0, 4, -0.5),)
    poly = maxcut_to_spin_polynomial(ProblemGraph(8, edges))
    angle_sets = [QaoaParams((0.4, -0.9), (0.7, 0.2)), QaoaParams((1.3, 0.5), (-0.3, 1.1))]
    layers = routed_layers(poly, angle_sets[0])
    fires = random_fires(rng, layers, 8, rows)
    fires[0] = {}
    fires[-1] = fires[-1] or {(0, 0): [(1, 5, 7)]}
    params = [angle_sets[r % 2] for r in range(rows)]
    got = list(_trajectory_rows(8, layers, params, fires))
    assert len(got) == rows
    for row, pr, fired in zip(got, params, fires):
        assert np.array_equal(row, reference_trajectory_probabilities(8, layers, pr, fired, {}))


@pytest.mark.parametrize("problem", ["ring14", "problem_v15.json"])
def test_rows_of_two_to_the_fourteen_amplitudes_and_more_equal_single_row_walks(problem):
    # one state per block, as large as the single-state walk's, clean and fired
    if problem == "ring14":
        poly = maxcut_to_spin_polynomial(ProblemGraph(14, tuple((i, (i + 1) % 14, 1.0) for i in range(14))))
    else:
        poly = parse_problem_json(data_path(problem).read_text()).polynomial
    params = QaoaParams((0.4, -0.9), (0.7, 0.2))
    layers = routed_layers(poly, params)
    fired = [f for f in random_fires(np.random.default_rng(14), layers, poly.num_spins, 12) if f][:3]
    assert len(fired) == 3
    assert_rows_equal_single_row_walks(poly.num_spins, layers, params, [{}] + fired)


EIGHTHS = st.integers(-40, 40).map(lambda k: k / 8)  # sums of these are exact


@st.composite
def polynomial_rewrites(draw):
    """Raw terms of a polynomial and the same function rewritten.

    The rewrite permutes the terms, splits weights across duplicate
    supports and pads supports with repeated indices (s_i^2 = 1).
    """
    n = draw(st.integers(1, 6))
    support = st.lists(st.sampled_from(range(n)), max_size=4, unique=True).map(tuple)
    terms = draw(st.lists(st.tuples(EIGHTHS, support), max_size=8))
    rewritten = []
    for w, s in terms:
        pieces = [(w, s)]
        if draw(st.booleans()):
            split = draw(EIGHTHS)
            pieces = [(w - split, s), (split, s)]
        for piece_w, piece_s in pieces:
            pad = draw(st.lists(st.sampled_from(range(n)), max_size=2))
            rewritten.append((piece_w, tuple(draw(st.permutations([*piece_s, *pad, *pad])))))
    return n, terms, draw(st.permutations(rewritten)), draw(EIGHTHS)


@settings(max_examples=200, deadline=None)
@given(polynomial_rewrites())
def test_rewritten_polynomials_are_canonically_equal(case):
    n, terms, rewritten, offset = case
    a = SpinPolynomial(n, tuple(terms), constant_offset=offset)
    b = SpinPolynomial(n, tuple(rewritten), constant_offset=offset)
    assert a == b
    assert a.canonical_key() == b.canonical_key()
    spins = 1 - 2 * ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1)
    raw = np.full(1 << n, offset)
    for w, s in rewritten:
        raw += w * np.prod(spins[:, list(s)], axis=1)
    built = cost_vector.__wrapped__  # uncached: each polynomial is enumerated itself
    assert np.array_equal(built(a), built(b))
    assert np.array_equal(built(b), raw)


MIXER_ANGLES = st.one_of(
    st.sampled_from([0.0, -0.0, math.pi / 2, math.pi, -math.pi / 2, -math.pi, 2 * math.pi]),
    st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def mixer_blocks(draw):
    """A (2^n, B) complex block, part of whose real and imaginary parts are exact
    zeros of either sign, and one mixer angle per row."""
    n = draw(st.integers(1, 10))
    rows = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zeros = draw(st.sampled_from([0.0, 0.3, 0.9, 1.0]))
    parts = rng.standard_normal((1 << n, rows, 2))
    parts[rng.random(parts.shape) < zeros] = 0.0
    parts[rng.random(parts.shape) < zeros / 3] = -0.0
    block = parts.view(np.complex128)[:, :, 0]
    return n, block, draw(st.lists(MIXER_ANGLES, min_size=rows, max_size=rows))


@settings(max_examples=150, deadline=None)
@given(mixer_blocks())
def test_fused_mixer_equals_textbook_butterfly(case):
    n, block, betas = case
    got, want = block.copy(), block.copy()
    _apply_rx_all(got, n, betas)
    reference_apply_rx_all(want, n, betas)
    assert np.array_equal(got.view(np.float64), want.view(np.float64))


SEED = st.integers(0, 2**63 - 1)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 24).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, 2**n - 1))))
def test_index_to_bitstring_equals_bit_loop(case):
    n, index = case
    bits = index_to_bitstring(index, n)
    assert bits == reference_index_to_bitstring(index, n)
    assert int(bits[::-1], 2) == index


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 24).flatmap(
        lambda n: st.tuples(st.just(n), st.dictionaries(st.integers(0, 2**n - 1), st.integers(0, 10**6)))
    )
)
def test_counts_are_the_histogram_by_outcome_string(case):
    n, histogram = case
    counts = ShotCounts(histogram, sum(histogram.values()), n)
    assert counts.counts == {reference_index_to_bitstring(i, n): c for i, c in histogram.items()}


def scaled_hex16_noise(gate_factor, readout_factor, trajectories):
    return NoiseSpec(
        readout_flip_prob=tuple(min(0.9, readout_factor * x) for x in HEX16.readout_error),
        two_qubit_error_prob={e: min(0.9, gate_factor * x) for e, x in HEX16.gate_error.items()},
        trajectories=trajectories,
    )


@st.composite
def sample_batches(draw):
    """1-12 runs of one placed circuit on hex16, each with its own angles and seed."""
    poly, params = draw(placed_circuits())
    angle = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)
    runs = [params] + [
        QaoaParams(tuple(draw(angle) for _ in range(params.p)), tuple(draw(angle) for _ in range(params.p)))
        for _ in range(draw(st.integers(0, 11)))
    ]
    noise = scaled_hex16_noise(
        draw(st.sampled_from([0.0, 1.0, 10.0])),  # at 10x, trajectories fire more than once
        draw(st.sampled_from([0.0, 1.0, 10.0])),  # readout off at 0
        draw(st.integers(1, 16)),
    )
    shots = draw(st.integers(1, 40))  # often fewer shots than trajectories
    seeds = draw(st.lists(SEED, min_size=len(runs), max_size=len(runs)))
    return poly, runs, noise, shots, seeds, draw(st.integers(1, 64)), draw(st.integers(1, 200))


@settings(max_examples=200, deadline=None)
@given(sample_batches())
def test_noisy_sample_batch_equals_reference_run_by_run(batch):
    poly, runs, noise, shots, seeds, at_once, doubles_at_once = batch
    placement = best_region_placement(poly, HEX16)
    with (
        mock.patch.object(simulator, "_TRAJECTORIES_AT_ONCE", at_once),  # groups of runs
        mock.patch.object(simulator, "_DOUBLES_AT_ONCE", doubles_at_once),  # chunks of fire and readout draws
    ):
        got = noisy_sample_batch(poly, runs, placement, HEX16, noise, shots, seeds)
    want = [
        reference_noisy_sample(poly, params, placement, HEX16, noise, shots, seed)
        for params, seed in zip(runs, seeds)
    ]
    assert got == want


# few distinct rates: many regions share their factors in different orders, so a
# product taken in another order shows in the last bits and reorders near-ties
REGION_ERROR_RATES = (0.0, 0.001, 0.003, 0.007, 0.011, 0.013, 0.029)


@st.composite
def region_cases(draw):
    """A random QPU, eta, region size, seed and candidate bound: up to 20 qubits
    enumerate exactly, 21-28 (most surviving the filter) by seeded growth."""
    sampled = draw(st.booleans())
    num_qubits = draw(st.integers(21, 28) if sampled else st.integers(1, 20))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, num_qubits)}  # a spanning tree
    for _ in range(draw(st.integers(0, num_qubits // 2))):
        u, v = draw(st.integers(0, num_qubits - 1)), draw(st.integers(0, num_qubits - 1))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    rate = st.sampled_from(REGION_ERROR_RATES)
    qpu = QpuModel(
        "rand",
        num_qubits,
        tuple(draw(rate) for _ in range(num_qubits)),
        {e: draw(rate) for e in sorted(edges)},
    )
    eta = draw(st.sampled_from((0.02, 1.0) if sampled else (0.005, 0.012, 0.02, 1.0)))
    # a small bound keeps growth short: with few connected sets it spends its whole budget
    max_candidates = draw(st.integers(1, 64)) if sampled else 256
    return qpu, eta, draw(st.integers(1, 6)), draw(SEED), max_candidates


def region_fields(regions):
    """Every field, the fidelity by its bits."""
    return [(r.qpu_name, r.qubits, r.edges, type(r.fidelity), r.fidelity.hex()) for r in regions]


def ranked_fields(fg, ranked):
    """``region_fields`` of the regions that ranked entries describe, none built."""
    return [
        (fg.qpu.name, qubits, tuple(sorted(edges)), type(-neg), (-neg).hex())
        for (neg, qubits), edges in ranked
    ]


def outcome(fields, call, *args):
    try:
        return fields(call(*args))
    except (ConfigError, NoRegionError) as exc:
        return type(exc), str(exc)


def named_outcome(want, n, eta):
    """A reference outcome as ``best_regions`` words it: its error names the QPU and eta."""
    if want == (NoRegionError, "empty candidate list"):
        return NoRegionError, f"QPU 'rand' has no connected {n}-qubit region at eta={eta}"
    return want


@settings(max_examples=100, deadline=None)
@given(region_cases(), st.integers(1, 4), st.booleans())
def test_ranked_regions_equal_the_built_and_sorted_ones(case, k, isomorphic):
    qpu, eta, n, seed, bound = case
    fg = filter_by_threshold(qpu, eta)
    with mock.patch.object(compiler, "SAMPLED_CANDIDATE_LIMIT", bound):
        got = outcome(lambda ranked: ranked_fields(fg, ranked), _ranked_sets, fg, n, seed)
        assert got == outcome(region_fields, reference_enumerate_regions, fg, n, seed, bound)
        want = outcome(
            region_fields,
            lambda: reference_select_regions(reference_enumerate_regions(fg, n, seed, bound), k, isomorphic),
        )
        got = outcome(region_fields, best_regions, fg, n, k, isomorphic, seed)
        assert got == named_outcome(want, n, eta)
    if qpu.num_qubits > 20:
        return  # the callers below use the default bound, which makes growth slow
    # a QPU without a region raises NoRegionError, the CapacityError the planner reports
    want = outcome(region_fields, reference_qpu_region_set, qpu, eta, n, seed)
    got = outcome(region_fields, orchestrator._qpu_region_set, qpu, eta, n, seed)
    assert got == named_outcome(want, n, eta)
    full = filter_by_threshold(qpu, 1.0)
    if n <= len(full.qubits) and (candidates := reference_enumerate_regions(full, n)):
        poly = maxcut_to_spin_polynomial(ProblemGraph(n, tuple((v, v + 1, 1.0) for v in range(n - 1))))
        assert region_fields([best_region_placement(poly, qpu).region]) == region_fields(candidates[:1])


@st.composite
def ranked_entry_pairs(draw):
    """A connected ranked entry of up to 8 qubits and a second one: the same graph
    relabelled, relabelled with one edge moved, or a fresh connected graph."""

    def relabelled(n, edges):
        labels = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n, unique=True))
        edges = tuple((min(labels[u], labels[v]), max(labels[u], labels[v])) for u, v in edges)
        return (-1.0, tuple(sorted(labels))), edges

    def connected(n):
        edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}  # a spanning tree
        for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n)):
            if u != v:
                edges.add((min(u, v), max(u, v)))
        return sorted(edges)

    n = draw(st.integers(1, 8))
    edges = connected(n)
    kind = draw(st.sampled_from(("relabel", "move", "fresh")))
    m, other = n, draw(st.permutations(edges))
    if kind == "fresh":
        m = draw(st.integers(max(1, n - 1), n))
        other = connected(m)
    absent = [e for e in itertools.combinations(range(n), 2) if e not in edges]
    if kind == "move" and edges and absent:
        other = other[1:] + [draw(st.sampled_from(absent))]
    return relabelled(n, edges), relabelled(m, other)


@settings(max_examples=300, deadline=None)
@given(ranked_entry_pairs())
def test_isomorphic_entries_agree_with_networkx(pair):
    ((_, qa), ea), ((_, qb), eb) = pair
    assert _isomorphic(*pair) == nx.is_isomorphic(qubit_graph(qa, ea), qubit_graph(qb, eb))


@st.composite
def plan_cases(draw):
    """A MaxCut graph of up to 20 vertices, a small line/ring fleet with uniform
    errors (some QPUs filtered out whole) and, sometimes, covering capacities."""
    n = draw(st.integers(1, 20))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.sets(st.sampled_from(pairs), max_size=3 * n)) if pairs else set()
    g = ProblemGraph(n, tuple((u, v, draw(WEIGHTS)) for u, v in sorted(chosen)))
    qpus = []
    for i in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("line", "ring")))
        error = 0.0 if i == 0 else draw(st.sampled_from((0.0, 0.005, 0.05)))
        qpus.append(
            uniform_qpu(
                kind,
                num_qubits=draw(st.integers(2 if kind == "line" else 3, 7)),
                readout=error,
                gate=error,
                name=f"q{i}",
            )
        )
    fleet = Fleet(tuple(qpus), {q.name: draw(st.sampled_from((0.0, 0.5, 1.0))) for q in qpus})
    capacities = None
    if draw(st.booleans()):
        capacities = draw(st.lists(st.integers(1, n), min_size=1, max_size=4))
        capacities[-1] += max(0, n - sum(capacities))
    return g, fleet, capacities, draw(st.integers(1, 64)), draw(SEED)


def plan_depth(node) -> int:
    return 0 if node.is_leaf else 1 + max(plan_depth(c) for c in node.children)


@settings(max_examples=100, deadline=None)
@given(plan_cases())
def test_plans_are_shallow_and_every_leaf_fits_its_qpu(case):
    g, fleet, capacities, shots, seed = case
    eta = 0.01
    plan_ = orchestrator.plan(g, fleet, eta, 1, shots, capacities=capacities, seed=seed)
    # a forced root split, then at most one fleet split per part
    assert plan_depth(plan_.root) <= (1 if capacities is None else 2)
    nodes = [plan_.root]
    while nodes:
        node = nodes.pop()
        if node.is_leaf:
            assert node.assignments
            for a in node.assignments:
                assert node.size <= orchestrator.usable_region_size(fleet.get(a.qpu_name), eta)
                assert all(r.size == node.size for r in a.regions)
            continue
        assert len(node.children) == node.partition.num_parts
        for part, child in enumerate(node.children):
            assert child.size > 0
            assert child.vertices == tuple(node.vertices[v] for v in node.partition.part_vertices(part))
        nodes.extend(node.children)
    assert sorted(v for leaf in plan_.root.leaves() for v in leaf.vertices) == list(range(g.num_vertices))
    assert orchestrator.speedup_report(plan_).parallel_units >= 1
