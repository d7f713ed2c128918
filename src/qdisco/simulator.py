"""Exact statevector simulation of the alternating-operator ansatz.

One kernel, ``_evolve``, evolves every state, B states at a time as one
C-contiguous (2^n, B) block, amplitude-major.  A layer is a list of
diagonal phase steps, then the mixer.  A step is a level table, a few
distinct values and each basis state's index into them, so its phase is
one exponential per level and row, gathered to the block.  Noiseless runs
take the cost operator as one step: a cost vector holds few distinct
values (ring6: 4 of 64).  Noisy runs take one step per entry of a
placement's interaction schedule, so stochastic two-qubit Pauli errors
attach to specific physical edges between steps; readout bits flip at
measurement.  Each noisy run draws all of that from one random stream, in
the order ``noisy_sample`` documents.

Noiseless runs of a flip-symmetric cost keep half the amplitudes.  A cost
whose terms all have even support (MaxCut, LABS, the merge's flip problem)
is unchanged when every spin flips, and the start state, each phase step
and each mixer butterfly treat basis state s and its complement ~s with the
same operands in the same order, so a(~s) equals a(s) bit for bit.  The
half is the 2^(n-1) states whose top qubit is clear; there the top qubit's
partner of s, s + 2^(n-1), holds the amplitude of its complement
2^(n-1) - 1 - s, so the partners are the half read in reverse.  A whole
state, the half and then the half reversed, is built only where its values
are read.  Noisy rows stay whole, since a fired Z or Y anticommutes with the
global flip.

Every operation on amplitudes is elementwise, with its operands in one fixed
order (the phase product is ``np.multiply(block, phase, out=phase)``), so an
amplitude's value depends neither on the block nor on the state's size: each
row of a block, of a half or whole state, equals its single-state run bit
for bit.

Conventions (global): basis index b stores qubit i's bit at position i
(qubit 0 least significant); bit 0 means spin +1.  Outcome strings put
qubit j's bit at string position j.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._seeds import rng_from
from .compiler import Placement, ordered_terms, route_phase_layer
from .errors import CapacityError, DimensionError, PlacementError
from .hardware import QpuModel
from .problem import SpinPolynomial, cost_vector, spin_parities

MAX_QUBITS = 24
DEFAULT_TRAJECTORIES = 64
_NORM_TOL = 1e-9
# A batch is simulated in (2^n, B) blocks of at most this many amplitudes
# (under 256 KiB, so a block and its phase stay in cache), or one state where a
# state is larger, so memory does not grow with the batch.
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
    """Measured outcome histogram: basis index -> count, qubit i at bit i.

    ``counts`` is the same histogram keyed by outcome string, the form
    JSON output takes.
    """

    histogram: dict[int, int]
    total_shots: int
    num_bits: int

    def __post_init__(self) -> None:
        if sum(self.histogram.values()) != self.total_shots:
            raise ValueError("counts do not sum to total_shots")
        size = 1 << self.num_bits
        for index, c in self.histogram.items():
            if type(index) is not int or not 0 <= index < size:
                raise ValueError(f"outcome index {index!r} is not an int in [0, 2^{self.num_bits})")
            if c < 0:
                raise ValueError(f"negative count for outcome index {index}")

    @property
    def counts(self) -> dict[str, int]:
        """The histogram keyed by outcome string (``index_to_bitstring``)."""
        return {index_to_bitstring(i, self.num_bits): c for i, c in self.histogram.items()}


def index_to_bitstring(index: int, num_bits: int) -> str:
    """Qubit j's bit at string position j: the low ``num_bits`` binary digits, reversed."""
    if num_bits <= 0:
        return ""
    return format(index & ((1 << num_bits) - 1), f"0{num_bits}b")[::-1]


@dataclass(frozen=True)
class NoiseSpec:
    """Stochastic channel strengths keyed to a QPU's physical layout; a rate of 1 fires every time."""

    readout_flip_prob: tuple[float, ...]
    two_qubit_error_prob: dict[tuple[int, int], float]
    trajectories: int = DEFAULT_TRAJECTORIES

    def __post_init__(self) -> None:
        r = tuple(float(x) for x in self.readout_flip_prob)
        for q, x in enumerate(r):
            if not 0.0 <= x <= 1.0:
                raise ValueError(f"readout_flip_prob[{q}] = {x} outside [0, 1]")
        g = {}
        for edge, x in self.two_qubit_error_prob.items():
            x = float(x)
            if not 0.0 <= x <= 1.0:
                raise ValueError(f"two_qubit_error_prob[{edge}] = {x} outside [0, 1]")
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


def _apply_rx_all(block: np.ndarray, n: int, betas, half: bool = False) -> None:
    """exp(-i beta_b X) on every qubit of column b of a (2^n, B) block, in place.

    Per qubit, (a0, a1) becomes c (a0, a1) + s (a1, a0), c = cos beta, s = -i sin beta:
    one product with the pair-swapped view.  Negation is exact, so c a0 + s a1 equals
    the textbook c a0 - (i sin beta) a1; only an exact zero part may flip sign.  The
    block is mixed through reshaped views of itself, so it must be C-contiguous: any
    other block raises ValueError, since a reshape of it would be a copy.

    With ``half``, the block is the (2^(n-1), B) top-qubit-clear half of flip-symmetric
    states (see the module docstring).  Qubits 0..n-2 mix as above; the top qubit's
    partner of row s holds the amplitude of row 2^(n-1) - 1 - s, so its butterfly reads
    the block reversed, with the same operands, in the same order, as on the whole state.
    """
    if not block.flags.c_contiguous:
        raise ValueError("the mixer needs a C-contiguous block")
    c = np.array([math.cos(b) for b in betas], dtype=np.complex128)
    s = np.array([-1j * math.sin(b) for b in betas], dtype=np.complex128)
    for q in range(n - half):
        view = block.reshape(-1, 2, 1 << q, len(betas))
        np.add(c * view, s * view[:, ::-1], out=view)
    if half:
        np.add(c * block, s * block[::-1], out=block)


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


@functools.lru_cache(maxsize=128)
def _cost_levels(poly: SpinPolynomial) -> tuple[np.ndarray, np.ndarray]:
    """The distinct costs and each basis state's index into them, over all 2^n states.

    Costs are told apart by bit pattern, so ``levels[level_of]`` equals
    ``cost_vector(poly)`` bit for bit, signed zeros and NaNs included.  The
    indices take the narrowest unsigned type: at n = 24 with at most 256
    levels they hold 16 MiB, an eighth of the cost vector.
    """
    if not 1 <= poly.num_spins <= MAX_QUBITS:
        raise CapacityError(f"statevector simulation supports 1..{MAX_QUBITS} qubits, got {poly.num_spins}")
    keys, level_of = np.unique(cost_vector(poly).view(np.int64), return_inverse=True)
    return keys.view(np.float64), level_of.astype(np.min_scalar_type(len(keys) - 1))


@functools.lru_cache(maxsize=128)
def _noiseless_step(poly: SpinPolynomial) -> tuple[tuple[np.ndarray, np.ndarray], bool]:
    """A noiseless layer's phase step, and whether its states run on the half.

    The half is taken, once per polynomial, where every term has even support;
    its step's ``level_of`` covers the top-qubit-clear states only.
    """
    levels, level_of = _cost_levels(poly)
    half = all(len(support) % 2 == 0 for _, support in poly.terms)
    return (levels, level_of[: len(level_of) >> half]), half


def _evolve(n: int, angles: np.ndarray, layers: list, fired: dict, half: bool = False) -> np.ndarray:
    """Ansatz amplitudes, column b for row b of a (B, 2p) array of flat angles.

    ``layers[l]`` lists layer l's phase steps (levels, level_of): a step
    multiplies basis state s of column b by exp(-i gamma_b levels[level_of[s]]),
    the amplitude the first operand, into the gathered phase's fresh buffer.
    ``fired[(l, step)]`` lists the Paulis applied in place after that step,
    as (row, logical a, logical b, Pauli index).  The mixer ends each layer.
    With ``half`` (flip-symmetric steps, no fired Paulis) the block holds only
    the 2^(n-1) states whose top qubit is clear, and each ``level_of`` covers
    those; ``_full_rows`` rebuilds whole states from it.
    """
    p = len(layers)
    block = np.full((1 << (n - half), len(angles)), 2.0 ** (-n / 2.0), dtype=np.complex128)
    gammas = -1j * angles[:, :p].T
    with np.errstate(over="ignore", invalid="ignore"):  # gamma * level may overflow; callers check
        for layer, steps in enumerate(layers):
            for step, (levels, level_of) in enumerate(steps):
                phase = np.take(np.exp(gammas[layer] * levels[:, None]), level_of, axis=0)
                block = np.multiply(block, phase, out=phase)
                for row, la, lb, pauli in fired.get((layer, step), ()):
                    _apply_pauli(block[:, row], la, _PAULIS[pauli >> 2])
                    _apply_pauli(block[:, row], lb, _PAULIS[pauli & 3])
            _apply_rx_all(block, n, angles[:, p + layer].tolist(), half)
    return block


def _blocks(n: int, layers: list, values: np.ndarray, fires=None, half: bool = False):
    """Evolve rows of a (B, 2p) angle array together; yield (first row, (2^n, B') block).

    ``fires[r]``, if given, maps row r's (layer, step) to its fired Paulis,
    as (logical a, logical b, Pauli index).  Blocks hold at most
    ``_BLOCK_AMPLITUDES`` amplitudes, or one state where a state is larger;
    every operation is elementwise in a fixed order, so each row equals its
    single-state run bit for bit.  With ``half``, blocks are (2^(n-1), B')
    halves (see ``_evolve``), as many rows each.
    """
    step = max(1, _BLOCK_AMPLITUDES >> n)
    for start in range(0, len(values), step):
        events: dict = {}
        for row, fired in enumerate(fires[start : start + step] if fires else ()):
            for key, paulis in fired.items():
                events.setdefault(key, []).extend((row, *pauli) for pauli in paulis)
        yield start, _evolve(n, values[start : start + step], layers, events, half)


def _full_rows(block: np.ndarray, half: bool) -> np.ndarray:
    """A block's columns as the C-contiguous rows of whole states.

    A half column h (see ``_evolve``) becomes h followed by h reversed: the
    value of state 2^(n-1) + t is that of its complement 2^(n-1) - 1 - t.
    """
    rows = block.T
    if not half:
        return np.ascontiguousarray(rows)
    full = np.empty((len(rows), 2 * rows.shape[1]), dtype=rows.dtype)  # C order, unlike rows
    return np.concatenate((rows, rows[:, ::-1]), axis=1, out=full)


def build_qaoa_state(poly: SpinPolynomial, params: QaoaParams) -> StateVector:
    """Alternate phase and mixer layers over the uniform start state."""
    return next(build_qaoa_states(poly, [params]))


def build_qaoa_states(poly: SpinPolynomial, params_list):
    """``build_qaoa_state`` of each parameter set, all at one depth, in order.

    The states are simulated together, block by block, and yielded lazily,
    so at most one block is held at a time.
    """
    values = [params.to_flat() for params in params_list]
    depths = sorted({len(row) // 2 for row in values})
    if len(depths) > 1:
        raise DimensionError(f"states of one batch need one depth, got {depths}")
    step, half = _noiseless_step(poly)
    layers = [[step]] * (depths[0] if depths else 0)
    for _, block in _blocks(poly.num_spins, layers, np.array(values, dtype=np.float64), half=half):
        for amps in _full_rows(block, half):
            yield StateVector(amps, poly.num_spins)


def qaoa_expectations(poly: SpinPolynomial, angles) -> np.ndarray:
    """<C> over the ansatz state for each row of a (B, 2p) array of angles.

    Row b holds the flat angles of one point (gammas, then betas, as in
    ``QaoaParams.to_flat``); value b equals
    ``expectation(build_qaoa_state(poly, QaoaParams.from_flat(row)), poly)``
    bit for bit.  Rows are simulated together in blocks (see ``_blocks``);
    each layer is one phase step over the polynomial's distinct costs.
    Each block's probabilities are copied back to contiguous rows, and its
    values are one stacked vector-vector product, which calls the same
    ``ddot`` per row as ``np.dot``.
    """
    rows = np.asarray(angles, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] % 2:
        raise DimensionError(f"expected a (B, 2p) angle array, got shape {rows.shape}")
    if not np.isfinite(rows).all():
        raise ValueError("angles must be finite")
    diag = cost_vector(poly)[:, None]
    out = np.empty(len(rows), dtype=np.float64)
    step, half = _noiseless_step(poly)
    layers = [[step]] * (rows.shape[1] // 2)
    for start, block in _blocks(poly.num_spins, layers, rows, half=half):
        probs = _full_rows(np.abs(block) ** 2, half)
        out[start : start + len(probs)] = np.matmul(probs[:, None, :], diag)[:, 0, 0]
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
    return _counts(rng.multinomial(shots, state.probabilities()), shots, state.num_qubits)


def _counts(hist: np.ndarray, shots: int, n: int) -> ShotCounts:
    """The nonzero bins of a basis-state histogram."""
    return ShotCounts({b: c for b, c in enumerate(hist.tolist()) if c}, shots, n)


# --- noisy trajectory execution -------------------------------------------


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


def split_shots(shots: int, parts: int) -> list[int]:
    """``shots`` over ``parts`` as evenly as possible, the first parts taking the remainder."""
    base, extra = divmod(shots, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def _fire_points(layers: list, noise: NoiseSpec) -> tuple[list, np.ndarray]:
    """Every channel application that can fire, in schedule order, and its rate.

    A point is ((layer, entry), logical a, logical b); applications on
    error-free edges draw nothing and are left out.
    """
    points, rates = [], []
    for layer_idx, entries in enumerate(layers):
        for entry_idx, entry in enumerate(entries):
            for edge, (la, lb) in entry.noise_points:
                err = noise.two_qubit_error_prob.get(edge, 0.0)
                if err > 0.0:
                    points.append(((layer_idx, entry_idx), la, lb))
                    rates.append(err)
    return points, np.array(rates, dtype=np.float64)


def _trajectory_rows(n: int, layers: list, params: list, fires: list):
    """Yield the outcome distribution of each trajectory of the placed circuit.

    Row r runs the angles ``params[r]``; ``fires[r]`` maps (layer, entry) to
    its two-qubit Paulis, as (logical a, logical b, Pauli index), applied
    after that entry's phase; an empty map is an error-free trajectory.
    Each schedule entry is one phase step of ``_evolve``: levels (w, -w),
    picked by the parity of the entry's support (``spin_parities``).
    """
    supports = list(dict.fromkeys(e.support for entries in layers for e in entries))
    parity = dict(zip(supports, spin_parities(n, supports)))
    steps = [[(np.array([e.weight, -e.weight]), parity[e.support]) for e in entries] for entries in layers]
    for _, block in _blocks(n, steps, np.array([pr.to_flat() for pr in params], dtype=np.float64), fires):
        for probs in np.ascontiguousarray((np.abs(block) ** 2).T):
            probs /= probs.sum()
            yield probs


# A batch draws about this many trajectories at once, whole runs at a time;
# only their fire maps are held together.
_TRAJECTORIES_AT_ONCE = 256
# A run draws its fire and readout doubles at most about this many at a time
# (512 KiB), whole trajectories or shots at a time, so memory stays bounded
# however many it runs; consecutive draws read the same stream as one.
_DOUBLES_AT_ONCE = 1 << 16


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
    probability.  Shots are split as evenly as possible (``split_shots``)
    across T = min(shots, trajectories) trajectories.

    The run draws from one generator, ``rng_from(seed, "trajectories")``,
    in this order, with P the channel applications on edges of nonzero rate:

    1. a (T, P) array of doubles, trajectory-major; point i of trajectory t
       fires when its double is below its rate;
    2. ``integers(1, 16, size=F)``, the Paulis of the F fires, in
       (trajectory, point) order;
    3. if any trajectory fires nothing, one multinomial of all such
       trajectories' shots over the error-free distribution (a sum of
       multinomials of equal probabilities is one multinomial);
    4. each fired trajectory's multinomial over its own distribution, in
       trajectory order;
    5. if any readout rate is nonzero, a (shots, n) array of doubles: row k
       flips the k-th shot in draw order (the error-free shots, then each
       fired trajectory's, each by basis index), bit j where double j is
       below its qubit's rate.

    This is the batch of one of ``noisy_sample_batch``, which says how the
    trajectories are simulated.
    """
    return noisy_sample_batch(poly, [params], placement, qpu, noise, shots, [seed])[0]


def noisy_sample_batch(
    poly: SpinPolynomial,
    params_list,
    placement: Placement,
    qpu: QpuModel,
    noise: NoiseSpec,
    shots: int,
    seeds,
) -> list[ShotCounts]:
    """Sample many runs of one placed circuit in one pass.

    Run i samples ``params_list[i]`` under ``seeds[i]``, all at one depth,
    and result i equals ``noisy_sample(poly, params_list[i], placement, qpu,
    noise, shots, seeds[i])`` count for count: each run draws from its own
    generator in the order given there.  Validation, the routing of layers
    2..p and the list of channel applications are done once.  A run's fire
    and readout doubles are drawn in chunks of about ``_DOUBLES_AT_ONCE``,
    which read the same stream as one (T, P) or (shots, n) draw.  Each
    trajectory that fires is a row of the kernel's (2^n, B) blocks, and a
    run's trajectories that fire nothing share one more row, its first;
    each schedule entry is one phase step, and each fired Pauli acts in
    place on its own row after its entry's step.  Each row's multinomial is
    drawn as the walk yields it, readout flips are one xor per shot, and
    each run is reduced with one ``bincount``.  Runs go in groups of about
    ``_TRAJECTORIES_AT_ONCE`` trajectories, so memory does not grow with
    their number.
    """
    params_list, seeds = list(params_list), [int(s) for s in seeds]
    if len(params_list) != len(seeds):
        raise DimensionError(f"{len(params_list)} parameter sets vs {len(seeds)} seeds")
    validate_placement(placement, poly, qpu)
    if shots <= 0:
        raise ValueError(f"shots must be positive, got {shots}")
    if not params_list:
        return []
    depths = sorted({params.p for params in params_list})
    if len(depths) > 1:
        raise DimensionError(f"runs of one batch need one depth, got {depths}")
    n, p = poly.num_spins, depths[0]

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
    readout = np.array([noise.readout_flip_prob[mapping[l]] for l in range(n)], dtype=np.float64)
    points, rates = _fire_points(layers, noise)
    traj_shots = split_shots(shots, min(shots, noise.trajectories))  # any past `shots` would get none

    group = max(1, _TRAJECTORIES_AT_ONCE // len(traj_shots))
    results = []
    for g in range(0, len(seeds), group):
        rngs = [rng_from(seed, "trajectories") for seed in seeds[g : g + group]]
        rows = [
            (run, params, fired, row_shots)
            for run, (rng, params) in enumerate(zip(rngs, params_list[g : g + group]))
            for fired, row_shots in _draw_rows(rng, points, rates, shots, traj_shots)
        ]
        results.extend(_sample_rows(rngs, n, layers, rows, shots, readout))
    return results


def _draw_rows(rng, points: list, rates: np.ndarray, shots: int, traj_shots: list) -> list:
    """Draw one run's fires (steps 1 and 2 of its stream); return its rows.

    A row is (fire map, shots): first the trajectories that fire nothing,
    together, if there are any, then each fired trajectory in order.
    """
    trajectories = len(traj_shots)
    step = max(1, _DOUBLES_AT_ONCE // max(1, len(rates)))
    hits = []
    for start in range(0, trajectories, step):
        traj, point = np.nonzero(rng.random((min(step, trajectories - start), len(rates))) < rates)
        hits.extend(zip((traj + start).tolist(), point.tolist()))
    fired: dict[int, dict] = {}
    for (traj, point), pauli in zip(hits, rng.integers(1, 16, size=len(hits)).tolist()):
        key, la, lb = points[point]
        fired.setdefault(traj, {}).setdefault(key, []).append((la, lb, pauli))
    rows = [(fire_map, traj_shots[traj]) for traj, fire_map in fired.items()]
    clean = shots - sum(row_shots for _, row_shots in rows)
    return [({}, clean)] + rows if clean else rows


def _sample_rows(rngs: list, n: int, layers: list, rows: list, shots: int, readout: np.ndarray):
    """Walk the rows, draw each row's multinomial from its run's generator; yield each run's counts.

    A row is (run, params, fire map, shots), a run's rows in a row.  Its
    outcomes fill the next place in its run's (shots,) array, and a run is
    reduced, after its readout draw, once its last row is done.
    """
    any_readout = bool(readout.any())
    basis = np.arange(1 << n, dtype=np.int64)
    bits = 1 << np.arange(n, dtype=np.int64)
    step = max(1, _DOUBLES_AT_ONCE // n)
    outcomes = np.empty(shots, dtype=np.int64)
    filled = 0
    walk = _trajectory_rows(n, layers, [row[1] for row in rows], [row[2] for row in rows])
    for i, (probs, (run, _, _, row_shots)) in enumerate(zip(walk, rows)):
        rng = rngs[run]
        outcomes[filled : filled + row_shots] = basis.repeat(rng.multinomial(row_shots, probs))
        filled += row_shots
        if i + 1 == len(rows) or rows[i + 1][0] != run:
            if any_readout:
                for start in range(0, shots, step):
                    # Bits are distinct powers of two, so flipping them is one xor per shot.
                    flips = rng.random((min(step, shots - start), n)) < readout
                    outcomes[start : start + step] ^= flips @ bits
            yield _counts(np.bincount(outcomes, minlength=1 << n), shots, n)
            filled = 0
