"""Exact statevector simulation of the alternating-operator ansatz.

Noiseless paths apply the whole diagonal cost operator at once, to a
(B, 2^n) block of states so that many angle points share each call; the
noisy path walks a placement's interaction schedule so stochastic
two-qubit Pauli errors can attach to specific physical edges, with
independent readout bit flips at measurement.

Conventions (global): basis index b stores qubit i's bit at position i
(qubit 0 least significant); bit 0 means spin +1.  Outcome strings put
qubit j's bit at string position j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._seeds import rng_from
from .compiler import Placement, ordered_terms, route_phase_layer
from .errors import CapacityError, DimensionError, PlacementError
from .hardware import QpuModel
from .problem import SpinPolynomial, cost_vector

MAX_QUBITS = 24
DEFAULT_TRAJECTORIES = 64
_NORM_TOL = 1e-9
# A batch is simulated in blocks of at most this many amplitudes (under
# 256 KiB), or one state where a state is larger.  From 256 KiB on, numpy
# multiplies a temporary in place with the operands swapped, and a complex
# product then rounds differently; a block must not reach that size where a
# single state does not, or its rows would differ from single-state runs.
_BLOCK_AMPLITUDES = (1 << 14) - 1


@dataclass(frozen=True)
class QaoaParams:
    """Phase and mixing angles for p layers."""

    gammas: tuple[float, ...]
    betas: tuple[float, ...]

    def __post_init__(self) -> None:
        g = tuple(float(x) for x in self.gammas)
        b = tuple(float(x) for x in self.betas)
        if len(g) != len(b):
            raise DimensionError(f"{len(g)} gammas vs {len(b)} betas")
        if any(not math.isfinite(x) for x in g + b):
            raise ValueError("angles must be finite")
        object.__setattr__(self, "gammas", g)
        object.__setattr__(self, "betas", b)

    @property
    def p(self) -> int:
        return len(self.gammas)

    @classmethod
    def from_flat(cls, values) -> "QaoaParams":
        vals = list(values)
        if len(vals) % 2:
            raise DimensionError("flat parameter vector must have even length")
        half = len(vals) // 2
        return cls(tuple(vals[:half]), tuple(vals[half:]))

    def to_flat(self) -> tuple[float, ...]:
        return self.gammas + self.betas


@dataclass(frozen=True)
class StateVector:
    """Normalized 2^n complex amplitude vector (treat as immutable)."""

    amplitudes: np.ndarray
    num_qubits: int

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (1 << self.num_qubits,):
            raise DimensionError(
                f"expected {1 << self.num_qubits} amplitudes, got {amps.shape}"
            )
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 beyond {_NORM_TOL}")
        object.__setattr__(self, "amplitudes", amps)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class ShotCounts:
    """Measured outcome histogram; keys are n-bit strings (qubit j at j)."""

    counts: dict[str, int]
    total_shots: int
    num_bits: int

    def __post_init__(self) -> None:
        if sum(self.counts.values()) != self.total_shots:
            raise ValueError("counts do not sum to total_shots")
        for key, c in self.counts.items():
            if len(key) != self.num_bits or set(key) - {"0", "1"}:
                raise ValueError(f"malformed outcome string {key!r}")
            if c < 0:
                raise ValueError(f"negative count for {key!r}")

    def most_common(self) -> list[tuple[str, int]]:
        return sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))


def index_to_bitstring(index: int, num_bits: int) -> str:
    return "".join("1" if (index >> j) & 1 else "0" for j in range(num_bits))


def bitstring_to_index(bits: str) -> int:
    return sum(1 << j for j, b in enumerate(bits) if b == "1")


@dataclass(frozen=True)
class NoiseSpec:
    """Stochastic channel strengths keyed to a QPU's physical layout."""

    readout_flip_prob: tuple[float, ...]
    two_qubit_error_prob: dict[tuple[int, int], float]
    trajectories: int = DEFAULT_TRAJECTORIES

    def __post_init__(self) -> None:
        r = tuple(float(x) for x in self.readout_flip_prob)
        for q, x in enumerate(r):
            if not 0.0 <= x < 1.0:
                raise ValueError(f"readout_flip_prob[{q}] = {x} outside [0, 1)")
        g = {}
        for edge, x in self.two_qubit_error_prob.items():
            x = float(x)
            if not 0.0 <= x < 1.0:
                raise ValueError(f"two_qubit_error_prob[{edge}] = {x} outside [0, 1)")
            g[(int(edge[0]), int(edge[1]))] = x
        if self.trajectories < 1:
            raise ValueError("trajectories must be >= 1")
        object.__setattr__(self, "readout_flip_prob", r)
        object.__setattr__(self, "two_qubit_error_prob", g)

    @classmethod
    def from_qpu(cls, qpu: QpuModel, trajectories: int = DEFAULT_TRAJECTORIES) -> "NoiseSpec":
        """Use the calibration error rates directly as channel strengths."""
        return cls(
            readout_flip_prob=qpu.readout_error,
            two_qubit_error_prob=dict(qpu.gate_error),
            trajectories=trajectories,
        )

    @classmethod
    def zero(cls, qpu: QpuModel, trajectories: int = 1) -> "NoiseSpec":
        return cls(
            readout_flip_prob=tuple(0.0 for _ in range(qpu.num_qubits)),
            two_qubit_error_prob={e: 0.0 for e in qpu.edges},
            trajectories=trajectories,
        )

    def is_noiseless(self) -> bool:
        return not any(self.readout_flip_prob) and not any(
            self.two_qubit_error_prob.values()
        )


def _check_size(n: int) -> None:
    if not 1 <= n <= MAX_QUBITS:
        raise CapacityError(f"statevector simulation supports 1..{MAX_QUBITS} qubits, got {n}")


def uniform_state(n: int) -> StateVector:
    """Uniform superposition |s> with all amplitudes 2^(-n/2)."""
    _check_size(n)
    amps = np.full(1 << n, 2.0 ** (-n / 2.0), dtype=np.complex128)
    return StateVector(amps, n)


def _apply_phase_block(block: np.ndarray, diag: np.ndarray, gammas) -> np.ndarray:
    """Row b times exp(-i * gamma_b * C): a new (B, 2^n) block."""
    return block * np.exp(np.array([-1j * g for g in gammas])[:, None] * diag)


def _apply_rx_all(block: np.ndarray, n: int, betas) -> None:
    """exp(-i beta_b X) on every qubit of row b of a (B, 2^n) block, in place."""
    rows = len(betas)
    sines = [math.sin(b) for b in betas]
    c = np.array([math.cos(b) for b in betas]).reshape(rows, 1, 1)
    pos = np.array([1j * s for s in sines]).reshape(rows, 1, 1)
    neg = np.array([-1j * s for s in sines]).reshape(rows, 1, 1)
    for q in range(n):
        view = block.reshape(rows, -1, 2, 1 << q)
        a0 = view[:, :, 0, :].copy()
        a1 = view[:, :, 1, :]
        view[:, :, 0, :] = c * a0 - pos * a1
        view[:, :, 1, :] = neg * a0 + c * a1


def _evolve(poly: SpinPolynomial, angles: list) -> np.ndarray:
    """Ansatz amplitudes for each row of flat angles (gammas, then betas)."""
    n = poly.num_spins
    _check_size(n)
    p = len(angles[0]) // 2
    diag = cost_vector(poly)
    block = np.full((len(angles), 1 << n), 2.0 ** (-n / 2.0), dtype=np.complex128)
    for layer in range(p):
        block = _apply_phase_block(block, diag, [row[layer] for row in angles])
        _apply_rx_all(block, n, [row[p + layer] for row in angles])
    return block


def apply_phase(state: StateVector, poly: SpinPolynomial, gamma: float) -> StateVector:
    """Multiply amplitude b by exp(-i * gamma * C(s(b)))."""
    if poly.num_spins != state.num_qubits:
        raise DimensionError(
            f"polynomial on {poly.num_spins} spins vs state on {state.num_qubits} qubits"
        )
    block = _apply_phase_block(state.amplitudes[None, :], cost_vector(poly), [gamma])
    return StateVector(block[0], state.num_qubits)


def apply_mixer(state: StateVector, beta: float) -> StateVector:
    """Transverse-field mixer: X-rotation by angle 2*beta on each qubit."""
    block = state.amplitudes[None, :].copy()
    _apply_rx_all(block, state.num_qubits, [beta])
    return StateVector(block[0], state.num_qubits)


def build_qaoa_state(poly: SpinPolynomial, params: QaoaParams) -> StateVector:
    """Alternate phase and mixer layers over the uniform start state."""
    return StateVector(_evolve(poly, [params.to_flat()])[0], poly.num_spins)


def qaoa_expectations(poly: SpinPolynomial, angles) -> np.ndarray:
    """<C> over the ansatz state for each row of a (B, 2p) array of angles.

    Row b holds the flat angles of one point (gammas, then betas, as in
    ``QaoaParams.to_flat``); value b equals
    ``expectation(build_qaoa_state(poly, QaoaParams.from_flat(row)), poly)``
    bit for bit.  Rows are simulated together in blocks of at most
    ``_BLOCK_AMPLITUDES`` amplitudes (one state when a state is larger).
    """
    rows = np.asarray(angles, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] % 2:
        raise DimensionError(f"expected a (B, 2p) angle array, got shape {rows.shape}")
    if not np.isfinite(rows).all():
        raise ValueError("angles must be finite")
    diag = cost_vector(poly)
    values = rows.tolist()
    out = np.empty(len(values), dtype=np.float64)
    step = max(1, _BLOCK_AMPLITUDES >> poly.num_spins)
    for start in range(0, len(values), step):
        probs = np.abs(_evolve(poly, values[start : start + step])) ** 2
        for i, row in enumerate(probs, start):
            out[i] = np.dot(row, diag)
    return out


def expectation(state: StateVector, poly: SpinPolynomial) -> float:
    """<state| C |state> for the diagonal cost operator."""
    if poly.num_spins != state.num_qubits:
        raise DimensionError(
            f"polynomial on {poly.num_spins} spins vs state on {state.num_qubits} qubits"
        )
    return float(np.dot(state.probabilities(), cost_vector(poly)))


def sample(state: StateVector, shots: int, seed: int) -> ShotCounts:
    """Multinomial draw from |amplitude|^2; deterministic under seed."""
    if shots <= 0:
        raise ValueError(f"shots must be positive, got {shots}")
    rng = rng_from(seed, "sample")
    hist = rng.multinomial(shots, state.probabilities())
    counts = {
        index_to_bitstring(int(b), state.num_qubits): int(c)
        for b, c in enumerate(hist)
        if c
    }
    return ShotCounts(counts, shots, state.num_qubits)


# --- noisy trajectory execution -------------------------------------------

_PAULIS = ("I", "X", "Y", "Z")


def _apply_pauli(amps: np.ndarray, q: int, which: str) -> None:
    view = amps.reshape(-1, 2, 1 << q)
    if which == "X":
        tmp = view[:, 0, :].copy()
        view[:, 0, :] = view[:, 1, :]
        view[:, 1, :] = tmp
    elif which == "Y":
        tmp = view[:, 0, :].copy()
        view[:, 0, :] = -1j * view[:, 1, :]
        view[:, 1, :] = 1j * tmp
    elif which == "Z":
        view[:, 1, :] *= -1.0
    # "I": nothing


def _sign_product(n: int, support: tuple[int, ...], cache: dict) -> np.ndarray:
    got = cache.get(support)
    if got is not None:
        return got
    idx = np.arange(1 << n, dtype=np.int64)
    prod = np.ones(1 << n, dtype=np.float64)
    for i in support:
        prod *= 1.0 - 2.0 * ((idx >> i) & 1)
    cache[support] = prod
    return prod


def validate_placement(placement: Placement, poly: SpinPolynomial, qpu: QpuModel) -> None:
    region = placement.region
    if region.qpu_name != qpu.name:
        raise PlacementError(
            f"placement targets QPU '{region.qpu_name}' but got '{qpu.name}'"
        )
    if any(q >= qpu.num_qubits for q in region.qubits):
        raise PlacementError(f"region {region.qubits} exceeds QPU size {qpu.num_qubits}")
    missing = [e for e in region.edges if e not in qpu.gate_error]
    if missing:
        raise PlacementError(f"region edges {missing} missing from QPU coupling")
    if poly.num_spins != region.size:
        raise PlacementError(
            f"polynomial on {poly.num_spins} spins vs region of {region.size} qubits"
        )
    scheduled = tuple((e.weight, e.support) for e in placement.schedule)
    if scheduled != tuple(ordered_terms(poly)):
        raise PlacementError("placement was compiled for a different polynomial")


def _split_shots(shots: int, parts: int) -> list[int]:
    base, extra = divmod(shots, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def _trajectory_probabilities(
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
        _apply_rx_all(amps[None, :], n, [params.betas[layer_idx]])
    probs = np.abs(amps) ** 2
    probs /= probs.sum()
    return probs


def noisy_sample(
    poly: SpinPolynomial,
    params: QaoaParams,
    placement: Placement,
    qpu: QpuModel,
    noise: NoiseSpec,
    shots: int,
    seed: int,
) -> ShotCounts:
    """Monte-Carlo trajectory sampling of the placed circuit.

    Per trajectory, each scheduled two-qubit channel application fires with
    its edge's error probability and applies a uniformly random non-identity
    two-qubit Pauli to the logical qubits sitting on that edge; measurement
    flips each bit independently with its physical qubit's readout
    probability.  Shots are split as evenly as possible across trajectories
    and per-trajectory generators are derived by counter from the master
    seed, so results do not depend on trajectory execution order.  Each
    trajectory draws its errors first; all trajectories that fire none
    share one error-free distribution, and only the others are simulated.
    """
    validate_placement(placement, poly, qpu)
    if shots <= 0:
        raise ValueError(f"shots must be positive, got {shots}")
    n = poly.num_spins
    p = params.p

    # Layer schedules are deterministic: layer 1 comes from the placement,
    # later layers re-route from the evolved layout.
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

    sign_cache: dict[tuple[int, ...], np.ndarray] = {}
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
    clean = None  # outcome distribution of a trajectory that fires no error
    for traj, traj_shots in enumerate(_split_shots(shots, noise.trajectories)):
        if traj_shots == 0:
            continue
        rng = rng_from(seed, "trajectory", traj)
        fired: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
        for layer_idx in range(p):
            for entry_idx, entry in enumerate(layers[layer_idx]):
                for edge, (la, lb) in entry.noise_points:
                    err = edge_err[edge]
                    if err > 0.0 and rng.random() < err:
                        pauli = int(rng.integers(1, 16))
                        fired.setdefault((layer_idx, entry_idx), []).append((la, lb, pauli))
        if fired:
            probs = _trajectory_probabilities(n, layers, params, fired, sign_cache)
        else:
            if clean is None:
                clean = _trajectory_probabilities(n, layers, params, fired, sign_cache)
            probs = clean
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


def counts_to_probabilities(counts: ShotCounts) -> np.ndarray:
    """Empirical outcome distribution indexed by basis state."""
    probs = np.zeros(1 << counts.num_bits, dtype=np.float64)
    for key, c in counts.counts.items():
        probs[bitstring_to_index(key)] = c
    return probs / counts.total_shots
