"""Independent reference implementations used only by the tests.

Everything here recomputes results through a different route than the
package: dense matrix exponentials for the ansatz, per-assignment cost
loops, a physical-register executor that really applies swap unitaries,
and itertools/networkx based combinatorial searches.
"""

from __future__ import annotations

import itertools
import math

import networkx as nx
import numpy as np
from scipy.linalg import expm

from qdisco._seeds import rng_from
from qdisco.compiler import SamplingRegion, ordered_terms, route_phase_layer
from qdisco.problem import SpinPolynomial, cost_vector
from qdisco.simulator import (
    _PAULIS,
    QaoaParams,
    ShotCounts,
    StateVector,
    _apply_pauli,
    _sign_product,
    _split_shots,
    apply_mixer,
    index_to_bitstring,
    validate_placement,
)


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
        amps = amps * np.exp(-1j * gamma * diag)
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
            amps = amps * (np.cos(angle) - 1j * np.sin(angle) * prod)
        state = apply_mixer(StateVector(amps / np.linalg.norm(amps), n), beta)
        amps = state.amplitudes

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


def reference_noisy_sample(poly, params, placement, qpu, noise, shots, seed):
    """Trajectory sampling that simulates every trajectory from scratch.

    The package draws each trajectory's error events first and reuses one
    error-free distribution for all trajectories that fire nothing; this
    version interleaves the draws with the statevector walk and rebuilds
    the state every time, with its own single-state mixer.
    """
    validate_placement(placement, poly, qpu)
    if shots <= 0:
        raise ValueError(f"shots must be positive, got {shots}")
    n = poly.num_spins
    p = params.p

    terms = ordered_terms(poly)
    layers = []
    mapping = placement.initial_map
    if p >= 1:
        layers.append(placement.schedule)
        mapping = placement.final_map
        for _ in range(1, p):
            entries, mapping = route_phase_layer(placement.region, mapping, terms)
            layers.append(entries)
    final_map = mapping

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
    for traj, traj_shots in enumerate(_split_shots(shots, noise.trajectories)):
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

    counts = {
        index_to_bitstring(int(b), n): int(c) for b, c in enumerate(totals) if c
    }
    return ShotCounts(counts, shots, n)
