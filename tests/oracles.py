"""Independent reference implementations used only by the tests.

Everything here recomputes results through a different route than the
package: dense matrix exponentials for the ansatz, per-assignment cost
loops, a physical-register executor that really applies swap unitaries,
and itertools/networkx based combinatorial searches.
"""

from __future__ import annotations

import copy
import itertools
import math
from collections import deque

import networkx as nx
import numpy as np
from scipy.linalg import expm

from qdisco._graphs import norm_edge
from qdisco._seeds import rng_from
from qdisco import compiler
from qdisco.compiler import SamplingRegion, ordered_terms, region_fidelity, route_phase_layer
from qdisco.errors import ConfigError, NoRegionError, PlacementError
from qdisco.hardware import QpuModel
from qdisco.optimizer import BETA_SPAN, GAMMA_SPAN, OptimizationTrace
from qdisco.problem import SpinPolynomial, cost_vector
from qdisco.simulator import (
    _PAULIS,
    QaoaParams,
    ShotCounts,
    _apply_pauli,
    split_shots,
    build_qaoa_state,
    expectation,
    validate_placement,
)


def counting_comparisons(qpu: QpuModel) -> tuple[QpuModel, list[int]]:
    """A copy of ``qpu`` whose error values count their ``<`` comparisons.

    Every readout and gate error becomes a ``float`` subclass that adds one
    to the returned one-item tally on each ``<``, so a threshold filter's
    predicate evaluations can be counted without instrumenting it.
    """
    tally = [0]

    class Counted(float):
        def __lt__(self, other):
            tally[0] += 1
            return float.__lt__(self, other)

    counted = copy.copy(qpu)
    object.__setattr__(counted, "readout_error", tuple(Counted(e) for e in qpu.readout_error))
    object.__setattr__(counted, "gate_error", {edge: Counted(e) for edge, e in qpu.gate_error.items()})
    return counted, tally


def direct_cost(poly: SpinPolynomial, spins) -> float:
    """Per-term product evaluation, no vectorization shared with the package."""
    total = poly.constant_offset
    for w, support in poly.terms:
        prod = 1.0
        for i in support:
            prod *= spins[i]
        total += w * prod
    return total


def dense_qaoa_oracle(poly: SpinPolynomial, params: QaoaParams) -> np.ndarray:
    """Ansatz state built from explicit matrix exponentials."""
    n = poly.num_spins
    dim = 2**n
    diag = np.array(
        [
            direct_cost(poly, [1 - 2 * ((b >> i) & 1) for i in range(n)])
            for b in range(dim)
        ],
        dtype=complex,
    )
    cost_op = np.diag(diag)
    pauli_x = np.array([[0, 1], [1, 0]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    mixer_op = np.zeros((dim, dim), dtype=complex)
    for q in range(n):
        op = np.eye(1, dtype=complex)
        for j in reversed(range(n)):  # qubit 0 is the least significant bit
            op = np.kron(op, pauli_x if j == q else eye)
        mixer_op += op
    psi = np.full(dim, 2 ** (-n / 2), dtype=complex)
    for gamma, beta in zip(params.gammas, params.betas):
        psi = expm(-1j * gamma * cost_op) @ psi
        psi = expm(-1j * beta * mixer_op) @ psi
    return psi


def reference_qaoa_state(poly: SpinPolynomial, params: QaoaParams) -> np.ndarray:
    """Ansatz amplitudes of one state, layer by layer, with a single-state mixer.

    The same floating-point operations as the package's batched kernel, so
    a kernel row must equal this bit for bit.
    """
    n = poly.num_spins
    diag = cost_vector(poly)
    amps = np.full(1 << n, 2.0 ** (-n / 2.0), dtype=np.complex128)
    for gamma, beta in zip(params.gammas, params.betas):
        phase = np.exp(-1j * gamma * diag)
        amps = np.multiply(amps, phase, out=phase)
        _rx_all_single(amps, n, beta)
    return amps


def physical_statevector(poly, placement, params) -> np.ndarray:
    """Execute the placed circuit on a physical register with real swaps.

    The state is indexed by region-local physical slots; scheduled swaps
    exchange amplitudes, phases act on the recorded physical positions, and
    the final layout un-permutes the result back to logical order.
    """
    region = placement.region
    n = region.size
    local = {q: i for i, q in enumerate(region.qubits)}
    terms = ordered_terms(poly)
    amps = np.full(2**n, 2 ** (-n / 2), dtype=complex)
    schedules = [placement.schedule]
    layout = placement.final_map
    for _ in range(1, params.p):
        entries, layout = route_phase_layer(region, layout, terms)
        schedules.append(entries)

    idx = np.arange(2**n)

    def slot_sign(slot: int) -> np.ndarray:
        return 1.0 - 2.0 * ((idx >> slot) & 1)

    for layer in range(params.p):
        gamma, beta = params.gammas[layer], params.betas[layer]
        for entry in schedules[layer]:
            for u, v in entry.swaps:
                a, b = local[u], local[v]
                bits_a = (idx >> a) & 1
                bits_b = (idx >> b) & 1
                diff = bits_a ^ bits_b
                amps = amps[idx ^ ((diff << a) | (diff << b))]
            prod = np.ones(2**n)
            for phys in entry.placed:
                prod = prod * slot_sign(local[phys])
            angle = gamma * entry.weight
            phase = np.cos(angle) - 1j * np.sin(angle) * prod
            amps = np.multiply(amps, phase, out=phase)
        amps = _rx_all_single(amps / np.linalg.norm(amps), n, beta)

    # logical qubit l ended on physical layout[l] -> local slot
    perm = [local[layout[l]] for l in range(n)]
    out = np.empty_like(amps)
    for b in range(2**n):
        src = 0
        for l in range(n):
            src |= ((b >> l) & 1) << perm[l]
        out[b] = amps[src]
    return out


def connected_subsets_bruteforce(qubits, edges, n) -> set[frozenset[int]]:
    """All size-n connected induced subgraphs via itertools + networkx."""
    graph = nx.Graph()
    graph.add_nodes_from(qubits)
    graph.add_edges_from(edges)
    out = set()
    for combo in itertools.combinations(sorted(qubits), n):
        sub = graph.subgraph(combo)
        if nx.is_connected(sub):
            out.add(frozenset(combo))
    return out


def exhaustive_region_selection(candidates: list[SamplingRegion], k: int):
    """Best disjoint subset: max count first, then max fidelity product."""
    best = (0, 0.0, ())
    for r in range(min(k, len(candidates)), 0, -1):
        for combo in itertools.combinations(range(len(candidates)), r):
            used: set[int] = set()
            ok = True
            for i in combo:
                qs = set(candidates[i].qubits)
                if used & qs:
                    ok = False
                    break
                used |= qs
            if not ok:
                continue
            product = 1.0
            for i in combo:
                product *= candidates[i].fidelity
            key = (r, product)
            if key > (best[0], best[1]):
                best = (r, product, combo)
        if best[0] == r:
            break
    return best


def best_balanced_bipartition(g, half: int) -> float:
    """Exhaustive minimum cut weight over all half/rest splits."""
    best = float("inf")
    for combo in itertools.combinations(range(g.num_vertices), half):
        side = set(combo)
        cut = sum(w for u, v, w in g.edges if (u in side) != (v in side))
        best = min(best, cut)
    return best


def labs_energy_direct(spins) -> float:
    """Sum of squared aperiodic autocorrelations, straight from the formula."""
    n = len(spins)
    total = 0.0
    for k in range(1, n):
        ck = sum(spins[i] * spins[i + k] for i in range(n - k))
        total += ck * ck
    return total


def random_maxcut_graph(rng, n: int, density: float, weighted: bool = False):
    from qdisco.problem import ProblemGraph

    edges = []
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < density:
            w = float(rng.uniform(0.5, 2.0)) if weighted else 1.0
            edges.append((u, v, w))
    return ProblemGraph(n, tuple(edges))


def cut_by_counting(g, spins) -> float:
    """Direct cut counter independent of ProblemGraph.cut_value."""
    total = 0.0
    for u, v, w in g.edges:
        if spins[u] * spins[v] < 0:
            total += w
    return total


def reference_kl_refine(n, capacities, adj, assign):
    """Multiway Kernighan-Lin refinement with every gain summed from scratch.

    The package keeps per-vertex part weights and refreshes them as
    vertices move; this version re-sums the adjacency dicts for each
    candidate move and swap, with the same scan order, acceptance rule,
    locking and best-prefix rollback.
    """
    assign = list(assign)
    sizes = [0] * len(capacities)
    for part in assign:
        sizes[part] += 1

    def gain_move(v, dst):
        src = assign[v]
        internal = sum(w for u, w in adj[v].items() if assign[u] == src)
        external = sum(w for u, w in adj[v].items() if assign[u] == dst)
        return external - internal

    def gain_swap(u, v):
        return gain_move(u, assign[v]) + gain_move(v, assign[u]) - 2.0 * adj[u].get(v, 0.0)

    for _ in range(n):
        locked = [False] * n
        chain = []
        gains = []
        snapshot = list(assign)

        while True:
            best_op = None
            best_gain = -float("inf")
            for v in range(n):
                if locked[v]:
                    continue
                src = assign[v]
                for dst in range(len(capacities)):
                    if dst == src:
                        continue
                    if sizes[dst] < capacities[dst] and sizes[src] > 1:
                        gv = gain_move(v, dst)
                        if gv > best_gain + 1e-12:
                            best_gain, best_op = gv, ("move", v, src, dst)
                for u in range(v + 1, n):
                    if locked[u] or assign[u] == src:
                        continue
                    gs = gain_swap(v, u)
                    if gs > best_gain + 1e-12:
                        best_gain, best_op = gs, ("swap", v, u, 0)
            if best_op is None:
                break
            kind, a, b, dst = best_op
            if kind == "move":
                sizes[assign[a]] -= 1
                assign[a] = dst
                sizes[dst] += 1
                locked[a] = True
            else:
                assign[a], assign[b] = assign[b], assign[a]
                locked[a] = locked[b] = True
            chain.append(best_op)
            gains.append(best_gain)

        if not gains:
            break
        prefix, total = [], 0.0
        for gain in gains:
            total += gain
            prefix.append(total)
        best_idx = max(range(len(prefix)), key=lambda i: (prefix[i], -i))
        if prefix[best_idx] <= 1e-12:
            assign = snapshot
            break
        assign = snapshot
        sizes = [0] * len(capacities)
        for part in assign:
            sizes[part] += 1
        for kind, a, b, dst in chain[: best_idx + 1]:
            if kind == "move":
                sizes[assign[a]] -= 1
                assign[a] = dst
                sizes[dst] += 1
            else:
                assign[a], assign[b] = assign[b], assign[a]
    return assign


def _sign_product(n: int, support: tuple[int, ...], cache: dict) -> np.ndarray:
    """Each basis state's product of the spins in ``support``, as +1.0 or -1.0."""
    got = cache.get(support)
    if got is not None:
        return got
    idx = np.arange(1 << n, dtype=np.int64)
    prod = np.ones(1 << n, dtype=np.float64)
    for i in support:
        prod *= 1.0 - 2.0 * ((idx >> i) & 1)
    cache[support] = prod
    return prod


def reference_apply_rx_all(block: np.ndarray, n: int, betas) -> None:
    """exp(-i beta_b X) on every qubit of column b of a (2^n, B) block, in place.

    The textbook butterfly: each half of every amplitude pair is written
    from a saved copy of the other, with separate products for +i sin and
    -i sin.
    """
    sines = [math.sin(b) for b in betas]
    c = np.array([math.cos(b) for b in betas])
    pos = np.array([1j * s for s in sines])
    neg = np.array([-1j * s for s in sines])
    for q in range(n):
        view = block.reshape(-1, 2, 1 << q, len(betas))
        a0 = view[:, 0].copy()
        a1 = view[:, 1]
        view[:, 0] = c * a0 - pos * a1
        view[:, 1] = neg * a0 + c * a1


def _rx_all_single(amps, n, beta):
    """exp(-i beta X) on every qubit of one statevector, in place."""
    c = math.cos(beta)
    s = math.sin(beta)
    for q in range(n):
        view = amps.reshape(-1, 2, 1 << q)
        a0 = view[:, 0, :].copy()
        a1 = view[:, 1, :]
        view[:, 0, :] = c * a0 - 1j * s * a1
        view[:, 1, :] = -1j * s * a0 + c * a1
    return amps


def reference_index_to_bitstring(index: int, num_bits: int) -> str:
    """Qubit j's bit at string position j, one bit at a time."""
    return "".join("1" if (index >> j) & 1 else "0" for j in range(num_bits))


def _placed_layers(poly, p: int, placement):
    """Each layer's schedule, layer 1 from the placement and the rest re-routed, and the final map."""
    terms = ordered_terms(poly)
    layers = []
    mapping = placement.initial_map
    if p >= 1:
        layers.append(placement.schedule)
        mapping = placement.final_map
        for _ in range(1, p):
            entries, mapping = route_phase_layer(placement.region, mapping, terms)
            layers.append(entries)
    return layers, mapping


def reference_noisy_sample(poly, params, placement, qpu, noise, shots, seed):
    """Trajectory sampling as a plain loop over the documented draw order.

    One generator per run: the (T, P) fire doubles in one draw, the Paulis
    of all fires, the error-free trajectories' shots as one multinomial,
    each fired trajectory's multinomial, then the (shots, n) readout
    doubles.  Every fired trajectory is simulated from scratch, one state
    at a time, with the textbook butterfly mixer.
    """
    validate_placement(placement, poly, qpu)
    if shots <= 0:
        raise ValueError(f"shots must be positive, got {shots}")
    n = poly.num_spins
    layers, final_map = _placed_layers(poly, params.p, placement)
    points = [
        ((layer_idx, entry_idx), la, lb, noise.two_qubit_error_prob.get(edge, 0.0))
        for layer_idx, entries in enumerate(layers)
        for entry_idx, entry in enumerate(entries)
        for edge, (la, lb) in entry.noise_points
    ]
    points = [point for point in points if point[3] > 0.0]
    trajectories = min(shots, noise.trajectories)

    rng = rng_from(seed, "trajectories")
    doubles = rng.random((trajectories, len(points)))
    fires = [
        [point for point, double in zip(points, row) if double < point[3]] for row in doubles.tolist()
    ]
    paulis = iter(rng.integers(1, 16, size=sum(len(f) for f in fires)).tolist())
    fire_maps = []
    for traj_fires in fires:
        fired = {}
        for key, la, lb, _ in traj_fires:
            fired.setdefault(key, []).append((la, lb, next(paulis)))
        fire_maps.append(fired)

    traj_shots = split_shots(shots, trajectories)
    clean = sum(s for s, fired in zip(traj_shots, fire_maps) if not fired)
    sign_cache = {}
    basis = np.arange(1 << n, dtype=np.int64)
    outcomes = []
    if clean:
        probs = reference_trajectory_probabilities(n, layers, params, {}, sign_cache)
        outcomes.extend(np.repeat(basis, rng.multinomial(clean, probs)).tolist())
    for s, fired in zip(traj_shots, fire_maps):
        if fired:
            probs = reference_trajectory_probabilities(n, layers, params, fired, sign_cache)
            outcomes.extend(np.repeat(basis, rng.multinomial(s, probs)).tolist())
    assert len(outcomes) == shots

    readout = [noise.readout_flip_prob[final_map[l]] for l in range(n)]
    if any(readout):
        flips = rng.random((shots, n)).tolist()
        for k in range(shots):
            for j in range(n):
                if flips[k][j] < readout[j]:
                    outcomes[k] ^= 1 << j
    hist = {}
    for b in outcomes:
        hist[b] = hist.get(b, 0) + 1
    return ShotCounts(hist, shots, n)


def per_trajectory_noisy_sample(poly, params, placement, qpu, noise, shots, seed):
    """The noise model under the stream it had before one generator per run.

    Trajectory t draws from ``rng_from(seed, "trajectory", t)``: one double
    per channel application, each fire followed by its Pauli, interleaved
    with its own statevector walk, then its multinomial, then its (shots, n)
    readout doubles.  It samples the same distribution as the package, not
    the same counts.
    """
    validate_placement(placement, poly, qpu)
    if shots <= 0:
        raise ValueError(f"shots must be positive, got {shots}")
    n = poly.num_spins
    p = params.p
    layers, final_map = _placed_layers(poly, p, placement)

    sign_cache = {}
    readout = np.array(
        [noise.readout_flip_prob[final_map[l]] for l in range(n)], dtype=np.float64
    )
    any_readout = bool(readout.any())
    edge_err = {
        e: noise.two_qubit_error_prob.get(e, 0.0)
        for entry_list in layers
        for entry in entry_list
        for e, _ in entry.noise_points
    }

    totals = np.zeros(1 << n, dtype=np.int64)
    qubit_weights = 1 << np.arange(n, dtype=np.int64)
    for traj, traj_shots in enumerate(split_shots(shots, noise.trajectories)):
        if traj_shots == 0:
            continue
        rng = rng_from(seed, "trajectory", traj)
        amps = np.full(1 << n, 2.0 ** (-n / 2.0), dtype=np.complex128)
        for layer_idx in range(p):
            gamma = params.gammas[layer_idx]
            for entry in layers[layer_idx]:
                prod = _sign_product(n, entry.support, sign_cache)
                angle = gamma * entry.weight
                amps *= math.cos(angle) - 1j * math.sin(angle) * prod
                for edge, (la, lb) in entry.noise_points:
                    err = edge_err[edge]
                    if err > 0.0 and rng.random() < err:
                        pauli = int(rng.integers(1, 16))
                        _apply_pauli(amps, la, _PAULIS[pauli >> 2])
                        _apply_pauli(amps, lb, _PAULIS[pauli & 3])
            _rx_all_single(amps, n, params.betas[layer_idx])
        probs = np.abs(amps) ** 2
        probs /= probs.sum()
        hist = rng.multinomial(traj_shots, probs)
        if any_readout:
            outcomes = np.repeat(np.arange(1 << n, dtype=np.int64), hist)
            bits = (outcomes[:, None] >> np.arange(n)) & 1
            flips = (rng.random(bits.shape) < readout[None, :]).astype(np.int64)
            bits ^= flips
            outcomes = bits @ qubit_weights
            totals += np.bincount(outcomes, minlength=1 << n)
        else:
            totals += hist

    return ShotCounts({b: int(c) for b, c in enumerate(totals) if c}, shots, n)


def reference_trajectory_probabilities(
    n: int,
    layers: list,
    params: QaoaParams,
    fired: dict[tuple[int, int], list[tuple[int, int, int]]],
    sign_cache: dict,
) -> np.ndarray:
    """Outcome distribution of one trajectory of the placed circuit.

    Walks the schedule entry by entry; ``fired`` maps (layer, entry) to the
    two-qubit Paulis, as (logical a, logical b, Pauli index), applied after
    that entry's phase.
    """
    amps = np.full(1 << n, 2.0 ** (-n / 2.0), dtype=np.complex128)
    for layer_idx, entries in enumerate(layers):
        gamma = params.gammas[layer_idx]
        for entry_idx, entry in enumerate(entries):
            prod = _sign_product(n, entry.support, sign_cache)
            angle = gamma * entry.weight
            amps *= math.cos(angle) - 1j * math.sin(angle) * prod
            for la, lb, pauli in fired.get((layer_idx, entry_idx), ()):
                _apply_pauli(amps, la, _PAULIS[pauli >> 2])
                _apply_pauli(amps, lb, _PAULIS[pauli & 3])
        reference_apply_rx_all(amps[:, None], n, [params.betas[layer_idx]])
    probs = np.abs(amps) ** 2
    probs /= probs.sum()
    return probs


def reference_optimize(poly, p, cfg, seed) -> OptimizationTrace:
    """One noiseless optimizer run as a plain loop that checks the budget
    before every evaluation.

    Each point is evaluated alone with ``expectation(build_qaoa_state(...))``,
    which the package's batched kernel matches bit for bit, so the traces
    must be equal.  A point with a non-finite angle is not evaluated: it
    scores NaN, as the package documents.
    """
    dim = 2 * p
    spans = np.array([GAMMA_SPAN] * p + [BETA_SPAN] * p)
    points: list[np.ndarray] = []
    raws: list[float] = []
    limit = cfg.max_evaluations

    def exhausted() -> bool:
        return len(raws) >= limit

    def evaluate(x) -> float:
        x = np.array(x, dtype=float)
        raw = math.nan
        if np.isfinite(x).all():
            raw = float(expectation(build_qaoa_state(poly, QaoaParams.from_flat(x)), poly))
        points.append(x)
        raws.append(raw)
        return raw if math.isfinite(raw) else math.inf

    def nelder_mead(x0) -> None:
        simplex = [np.array(x0, dtype=float)]
        for i in range(dim):
            step = 0.1 * spans[i]
            vertex = simplex[0].copy()
            vertex[i] += step if vertex[i] + step < spans[i] else -step
            simplex.append(vertex)
        values = []
        for v in simplex:
            if exhausted():
                return
            values.append(evaluate(v))
        while not exhausted():
            order = np.argsort(np.array(values), kind="stable")
            simplex = [simplex[i] for i in order]
            values = [values[i] for i in order]
            if all(math.isfinite(v) for v in values) and max(values) - min(values) < cfg.tolerance:
                return
            centroid = np.mean(simplex[:-1], axis=0)
            worst = simplex[-1]
            reflected = centroid + 1.0 * (centroid - worst)
            f_r = evaluate(reflected)
            if f_r < values[0]:
                if exhausted():
                    return
                expanded = centroid + 2.0 * (centroid - worst)
                f_e = evaluate(expanded)
                simplex[-1], values[-1] = (expanded, f_e) if f_e < f_r else (reflected, f_r)
            elif f_r < values[-2]:
                simplex[-1], values[-1] = reflected, f_r
            else:
                if f_r < values[-1]:
                    contracted = centroid + 0.5 * (reflected - centroid)
                else:
                    contracted = centroid + 0.5 * (worst - centroid)
                if exhausted():
                    return
                f_c = evaluate(contracted)
                if f_c < min(f_r, values[-1]):
                    simplex[-1], values[-1] = contracted, f_c
                else:
                    for i in range(1, len(simplex)):
                        simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                        if exhausted():
                            return
                        values[i] = evaluate(simplex[i])

    starts = []
    if cfg.method == "grid_then_nelder_mead" and p == 1:
        limit = min(cfg.grid_resolution**2, max(1, cfg.max_evaluations // 2))
        best_x, best_v = None, math.inf
        for gi in range(cfg.grid_resolution):
            for bi in range(cfg.grid_resolution):
                if exhausted():
                    break
                x = [GAMMA_SPAN * gi / cfg.grid_resolution, BETA_SPAN * bi / cfg.grid_resolution]
                v = evaluate(x)
                if v < best_v:
                    best_x, best_v = np.array(x), v
        limit = cfg.max_evaluations
        if best_x is not None:
            starts.append(best_x)
    if cfg.initial is not None:
        starts.append(np.array(cfg.initial, dtype=float))
    r = 0
    while len(starts) < cfg.restarts:
        starts.append(rng_from(seed, "nm-start", r).random(dim) * spans)
        r += 1
    starts = starts[: cfg.restarts]

    per_start = max(1, (cfg.max_evaluations - len(raws)) // len(starts))
    for i, x0 in enumerate(starts):
        last = i == len(starts) - 1
        limit = cfg.max_evaluations if last else min(len(raws) + per_start, cfg.max_evaluations)
        nelder_mead(x0)
        limit = cfg.max_evaluations
        if exhausted():
            break

    finite = [(v, i) for i, v in enumerate(raws) if math.isfinite(v)]
    if not finite:
        raise ConfigError("optimizer saw no finite objective value")
    best_v, best_i = min(finite)
    return OptimizationTrace(
        points=np.array(points).reshape(len(points), dim),
        values=np.array(raws),
        best_params=QaoaParams.from_flat(points[best_i]),
        best_value=best_v,
    )


def _bfs_path(adj, sources, dst):
    """Shortest path from the nearest source, smaller vertices first; None if
    dst is unreachable."""
    prev = {s: s for s in sorted(set(sources))}
    queue = deque(prev)
    while queue and dst not in prev:
        node = queue.popleft()
        for nb in sorted(adj[node]):
            if nb not in prev:
                prev[nb] = node
                queue.append(nb)
    if dst not in prev:
        return None
    path = [dst]
    while prev[path[-1]] != path[-1]:
        path.append(prev[path[-1]])
    return path[::-1]


def reference_steiner_tree_edges(adj, terminals):
    """Greedy Steiner tree with one breadth-first search per remaining
    terminal per growth step; the first of the shortest paths wins."""
    tree_nodes = {terminals[0]}
    edges = []
    remaining = sorted(set(terminals) - tree_nodes)
    while remaining:
        best_path = best_t = None
        for t in remaining:
            path = _bfs_path(adj, tree_nodes, t)
            if path is None:
                raise PlacementError("region disconnected during tree routing")
            if best_path is None or len(path) < len(best_path):
                best_path, best_t = path, t
        for u, v in zip(best_path, best_path[1:]):
            if norm_edge(u, v) not in edges:
                edges.append(norm_edge(u, v))
        tree_nodes.update(best_path)
        remaining = sorted(set(remaining) - {best_t} - tree_nodes)
    return sorted(edges)


def reference_find_monomorphism(adj_logical, adj_phys):
    """Injective map sending every logical edge onto a physical edge, by a
    recursive closure: most-constrained logical vertex first, physical
    nodes ascending."""
    logical_order = sorted(adj_logical, key=lambda v: (-len(adj_logical[v]), v))
    phys_nodes = sorted(adj_phys)
    assign: dict[int, int] = {}
    used: set[int] = set()

    def backtrack(idx: int) -> bool:
        if idx == len(logical_order):
            return True
        v = logical_order[idx]
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
            if backtrack(idx + 1):
                return True
            del assign[v]
            used.discard(cand)
        return False

    found = backtrack(0)
    del backtrack
    return dict(assign) if found else None


def region_key(region: SamplingRegion) -> tuple:
    """The ranking key: best fidelity first, ties to the lowest qubit tuple."""
    return (-region.fidelity, region.qubits)


def reference_enumerate_regions(fg, n, seed=0, max_candidates=256) -> list[SamplingRegion]:
    """Candidate regions as they were before ranking came apart from building:
    one full ``SamplingRegion`` per connected set, then a sort by ``region_key``."""
    if n < 1:
        raise ConfigError(f"region size must be >= 1, got {n}")
    if n > len(fg.qubits):
        raise NoRegionError(
            f"requested {n}-qubit regions but only {len(fg.qubits)} qubits "
            f"survived filtering at eta={fg.eta}"
        )
    adj = fg.adjacency()
    if len(fg.qubits) <= compiler.EXACT_ENUMERATION_LIMIT:
        subsets = compiler._connected_subsets_exact(adj, n)
    else:
        subsets = compiler._connected_subsets_sampled(adj, n, seed, max_candidates)
    regions = []
    for qubit_set in subsets:
        edges = tuple(e for e in fg.edges if e[0] in qubit_set and e[1] in qubit_set)
        regions.append(
            SamplingRegion(
                qpu_name=fg.qpu.name,
                qubits=tuple(sorted(qubit_set)),
                edges=edges,
                fidelity=region_fidelity(qubit_set, edges, fg.qpu),
            )
        )
    regions.sort(key=region_key)
    return regions


def reference_select_regions(candidates, k, isomorphic=False) -> list[SamplingRegion]:
    """Region selection over built regions, as it was before it moved onto ranked sets."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if not candidates:
        raise NoRegionError("empty candidate list")
    if len(candidates) <= compiler.EXACT_SELECTION_LIMIT:
        chosen = _reference_select_exact(candidates, k, isomorphic)
    else:
        chosen, used = [], set()
        for reg in sorted(candidates, key=region_key):
            if len(chosen) == k:
                break
            if used & set(reg.qubits):
                continue
            if isomorphic and chosen and not _reference_isomorphic(chosen[0], reg):
                continue
            chosen.append(reg)
            used |= set(reg.qubits)
    return sorted(chosen, key=region_key)


def _reference_select_exact(candidates, k, isomorphic) -> list[SamplingRegion]:
    masks = []
    for reg in candidates:
        m = 0
        for q in reg.qubits:
            m |= 1 << q
        masks.append(m)
    order = sorted(range(len(candidates)), key=lambda i: region_key(candidates[i]))
    best = None

    def compatible(i, picked):
        if not isomorphic or not picked:
            return True
        return _reference_isomorphic(candidates[picked[0]], candidates[i])

    def search(pos, used_mask, picked, product):
        nonlocal best
        if len(picked) == k or pos == len(order):
            key_regions = tuple(region_key(candidates[i]) for i in picked)
            cand = (len(picked), product, key_regions, list(picked))
            if best is None or (cand[0], cand[1]) > (best[0], best[1]) or (
                (cand[0], cand[1]) == (best[0], best[1]) and cand[2] < best[2]
            ):
                best = cand
            return
        if best is not None and len(picked) + (len(order) - pos) < best[0]:
            return
        i = order[pos]
        if not masks[i] & used_mask and compatible(i, picked):
            search(pos + 1, used_mask | masks[i], picked + [i], product * candidates[i].fidelity)
        search(pos + 1, used_mask, picked, product)

    search(0, 0, [], 1.0)
    del search
    return [candidates[i] for i in best[3]]


def qubit_graph(qubits, edges) -> nx.Graph:
    """A region's qubits and edges as a networkx graph, isolated qubits included."""
    g = nx.Graph()
    g.add_nodes_from(qubits)
    g.add_edges_from(edges)
    return g


def _reference_isomorphic(a: SamplingRegion, b: SamplingRegion) -> bool:
    return nx.is_isomorphic(qubit_graph(a.qubits, a.edges), qubit_graph(b.qubits, b.edges))


def reference_qpu_region_set(qpu, eta, n, seed) -> tuple[SamplingRegion, ...]:
    """``orchestrator._qpu_region_set`` over the reference enumeration and selection."""
    fg = compiler.filter_by_threshold(qpu, eta)
    candidates = reference_enumerate_regions(fg, n, seed=seed)
    return tuple(reference_select_regions(candidates, max(1, len(fg.qubits) // n)))
