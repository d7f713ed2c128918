"""Output checks computed apart from qdisco.

Nothing here imports qdisco: every reference value (cut, optimum, QAOA
statevector, empirical CDF) is rebuilt from the generated inputs with
numpy and the conventions qdisco documents:

- basis index b holds qubit i's bit at position i; bit 0 means spin +1;
- outcome strings put qubit j's bit at string position j;
- MaxCut cost is the negated cut;
- the ansatz alternates exp(-i gamma C) with exp(-i beta X) on every qubit,
  starting from the uniform superposition.

Each check raises ``CheckFailed`` with a one-line reason.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

DENSE_MAX_QUBITS = 10  # 2^10 x 2^10 complex mixer = 16 MiB
KERNEL_TOL = 1e-10
VALUE_TOL = 1e-9


class CheckFailed(Exception):
    """An output of qdisco disagrees with the independent computation."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# --- problem values ---------------------------------------------------------


def spins_from_bits(bits: str) -> np.ndarray:
    _require(set(bits) <= {"0", "1"}, f"malformed bitstring {bits!r}")
    return np.array([1 - 2 * int(b) for b in bits], dtype=np.int64)


def cut_value(edges, spins) -> float:
    return float(sum(w for u, v, w in edges if spins[u] != spins[v]))


def maxcut_cut_vector(n: int, edges) -> np.ndarray:
    """Cut of every basis state, by exhaustive enumeration."""
    idx = np.arange(1 << n, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(n)) & 1
    cut = np.zeros(1 << n, dtype=np.float64)
    for u, v, w in edges:
        cut += w * (bits[:, u] != bits[:, v])
    return cut


# --- QAOA kernel -------------------------------------------------------------


def _rx(beta: float) -> np.ndarray:
    c, s = math.cos(beta), math.sin(beta)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)


def qaoa_state(costs: np.ndarray, gammas, betas) -> np.ndarray:
    """Ansatz statevector from a cost diagonal, each mixer one dense matrix.

    The mixer is the 2^n x 2^n Kronecker product of n single-qubit
    rotations, so n is capped at DENSE_MAX_QUBITS; the benchmark's problems
    (ring6, leaves of at most 8 vertices) stay below it.
    """
    size = len(costs)
    n = size.bit_length() - 1
    _require(n <= DENSE_MAX_QUBITS, f"dense kernel check limited to {DENSE_MAX_QUBITS} qubits, got {n}")
    psi = np.full(size, 2.0 ** (-n / 2.0), dtype=np.complex128)
    for gamma, beta in zip(gammas, betas):
        dense = np.ones((1, 1), dtype=np.complex128)
        for _ in range(n):
            dense = np.kron(_rx(beta), dense)
        psi = dense @ (psi * np.exp(-1j * gamma * costs))
    return psi


def check_kernel(label: str, amplitudes, expectation: float, costs, gammas, betas) -> None:
    """qdisco's state and <C> against the independent statevector."""
    ref = qaoa_state(costs, gammas, betas)
    amps = np.asarray(amplitudes)
    _require(amps.shape == ref.shape, f"{label}: state has shape {amps.shape}, expected {ref.shape}")
    err = float(np.max(np.abs(amps - ref)))
    _require(err <= KERNEL_TOL, f"{label}: amplitudes differ by {err:.3e}")
    ref_e = float(np.dot(np.abs(ref) ** 2, costs))
    e_err = abs(expectation - ref_e)
    _require(
        e_err <= KERNEL_TOL * max(1.0, abs(ref_e)),
        f"{label}: expectation {expectation!r} vs {ref_e!r}",
    )


# --- H-Score ---------------------------------------------------------------


def optimal_bitstrings(values: np.ndarray) -> frozenset[str]:
    """Outcome strings of every basis state at the maximum of ``values``."""
    n = len(values).bit_length() - 1
    best = np.flatnonzero(values >= values.max() - VALUE_TOL)
    return frozenset("".join(str((int(b) >> j) & 1) for j in range(n)) for b in best)


def shot_accuracy(counts: dict, optimal) -> float:
    """Share of the shots of an outcome histogram that land in ``optimal``."""
    return sum(c for bits, c in counts.items() if bits in optimal) / sum(counts.values())


def check_accuracies(label: str, shot_counts, optimal, shots: int, runs, reference) -> None:
    """Accuracies recomputed from one device score's recorded histograms.

    ``shot_counts`` holds the outcome histograms (``.counts``,
    ``.total_shots``) of the reference runs, then of the scored runs, in
    the order they were measured.  Each run's accuracy is recomputed
    against ``optimal``; the reference part must equal the reported
    reference samples as a multiset, the scored part the reported per-run
    accuracies in order.
    """
    m_ref = len(reference)
    _require(
        len(shot_counts) == m_ref + len(runs),
        f"{label}: {len(shot_counts)} histograms recorded for {m_ref} + {len(runs)} runs",
    )
    for counts in shot_counts:
        _require(
            counts.total_shots == shots and sum(counts.counts.values()) == shots,
            f"{label}: a histogram holds {sum(counts.counts.values())} of {shots} shots",
        )
    accs = [shot_accuracy(c.counts, optimal) for c in shot_counts]
    for got, want in zip(sorted(reference), sorted(accs[:m_ref])):
        _require(abs(got - want) <= 1e-12, f"{label}: reference accuracy {got!r} where the shots give {want!r}")
    for i, (got, want) in enumerate(zip(runs, accs[m_ref:])):
        _require(abs(got - want) <= 1e-12, f"{label}: run {i} accuracy reported {got!r}, the shots give {want!r}")


def midpoint_ecdf(x: float, reference) -> float:
    below = sum(1 for r in reference if r < x)
    ties = sum(1 for r in reference if r == x)
    return (below + 0.5 * ties) / len(reference)


def h_score(accuracies, reference) -> tuple[float, float]:
    """C = (2/M) sum F(x_i) and its standard error.

    C / 2 is the two-sample rank statistic P(X > Y) + P(X = Y) / 2 of the
    scored runs X against the reference runs Y, so its standard error
    takes the sampling noise of both samples into account (DeLong's
    variance of the placement values): SE(C) = 2 * sqrt(var_i F_Y(x_i) / M
    + var_j F_X(y_j) / M_ref), both F midpoint empirical CDFs.
    """
    scores = [midpoint_ecdf(x, reference) for x in accuracies]
    m = len(scores)
    c = 2.0 * sum(scores) / m
    if m < 2 or len(reference) < 2:
        return c, math.inf
    placements = [midpoint_ecdf(y, accuracies) for y in reference]
    var = statistics.variance(scores) / m + statistics.variance(placements) / len(reference)
    return c, 2.0 * math.sqrt(var)


def check_hscore(label: str, reported_c: float, accuracies, reference, m: int, m_ref: int) -> float:
    """Recompute C from the run accuracies and the reference; return its SE."""
    _require(len(accuracies) == m, f"{label}: {len(accuracies)} accuracies, expected {m}")
    _require(len(reference) == m_ref, f"{label}: reference of {len(reference)}, expected {m_ref}")
    _require(
        all(0.0 <= x <= 1.0 for x in list(accuracies) + list(reference)),
        f"{label}: accuracy outside [0, 1]",
    )
    c, se = h_score(accuracies, reference)
    _require(abs(c - reported_c) <= 1e-12, f"{label}: C reported {reported_c!r}, recomputed {c!r}")
    return se


def check_noiseless_control(label: str, c: float, se: float) -> None:
    _require(abs(c - 1.0) <= 3.0 * se, f"{label}: noiseless C = {c:.4f} is not 1 within 3 SE ({se:.4f})")


def check_noisy_below(label: str, c: float, se: float) -> None:
    _require(1.0 - c > 3.0 * se, f"{label}: noisy C = {c:.4f} is not 3 SE ({se:.4f}) below 1")


# --- fleet runs --------------------------------------------------------------


def _check_tree(node: dict, shots: int, max_leaf: int, leaves: list) -> None:
    verts = list(node["vertices"])
    _require(node["size"] == len(verts), f"node size {node['size']} vs {len(verts)} vertices")
    if "children" not in node:
        _require(len(verts) <= max_leaf, f"leaf of {len(verts)} exceeds capacity {max_leaf}")
        total = 0
        for a in node["assignments"]:
            _require(
                all(len(r) == len(verts) for r in a["regions"]),
                f"leaf {verts[:4]}... has a region of the wrong size",
            )
            _require(len(a["shots_per_region"]) == len(a["regions"]), "shots/regions length mismatch")
            total += sum(a["shots_per_region"])
        _require(total == shots, f"leaf shots sum to {total}, configured {shots}")
        leaves.append(tuple(verts))
        return
    part = node["partition"]
    sizes = part["part_sizes"]
    _require(
        all(s <= c for s, c in zip(sizes, part["capacities"])),
        f"part sizes {sizes} exceed capacities {part['capacities']}",
    )
    child_verts = [v for child in node["children"] for v in child["vertices"]]
    _require(sorted(child_verts) == sorted(verts), "children do not partition their parent")
    for child in node["children"]:
        _check_tree(child, shots, max_leaf, leaves)


def check_fleet_run(doc: dict, n: int, shots: int, max_leaf: int, edges, optimum: float) -> float:
    """Check one MaxCut ``qdisco run`` result document; return cut / optimum."""
    result = doc["result"]
    bits = result["bits"]
    _require(len(bits) == n, f"answer has {len(bits)} bits for {n} vertices")
    spins = spins_from_bits(bits)
    _require(list(spins) == list(result["assignment"]), "assignment disagrees with bits")

    leaves: list[tuple[int, ...]] = []
    _check_tree(doc["plan"]["tree"], shots, max_leaf, leaves)
    flat = sorted(v for leaf in leaves for v in leaf)
    _require(flat == list(range(n)), "leaves do not partition the vertices")
    reported = sorted(tuple(o["vertices"]) for o in result["leaves"])
    _require(reported == sorted(leaves), "result leaves differ from plan leaves")

    concat = np.zeros(n, dtype=np.int64)
    for o in result["leaves"]:
        concat[list(o["vertices"])] = spins_from_bits(o["solution_bits"])

    cut = cut_value(edges, spins)
    _require(abs(cut - result["cut_value"]) <= VALUE_TOL, f"cut reported {result['cut_value']}, recomputed {cut}")
    _require(abs(result["cost"] + cut) <= VALUE_TOL, f"cost {result['cost']} is not the negated cut {cut}")
    _require(cut <= optimum + VALUE_TOL, f"cut {cut} exceeds the optimum {optimum}")
    concat_cut = cut_value(edges, concat)
    _require(cut >= concat_cut - VALUE_TOL, f"merged cut {cut} below concatenated {concat_cut}")
    return cut / optimum
