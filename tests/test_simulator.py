import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdisco.compiler import best_regions, filter_by_threshold, map_circuit
from qdisco.errors import CapacityError, DimensionError, PlacementError
from qdisco.datasets import data_path
from qdisco.hardware import QpuModel, load_calibration
from qdisco.hscore import accuracy, best_region_placement
from qdisco.problem import (
    ProblemGraph,
    SpinPolynomial,
    brute_force_optimum,
    cost_vector,
    labs_to_spin_polynomial,
    maxcut_to_spin_polynomial,
)
from qdisco.simulator import (
    NoiseSpec,
    QaoaParams,
    ShotCounts,
    StateVector,
    build_qaoa_state,
    build_qaoa_states,
    expectation,
    _BLOCK_AMPLITUDES,
    _apply_rx_all,
    _cost_levels,
    _noiseless_step,
    _TRAJECTORIES_AT_ONCE,
    noisy_sample,
    noisy_sample_batch,
    qaoa_expectations,
    sample,
)

from oracles import (
    dense_qaoa_oracle,
    direct_cost,
    per_trajectory_noisy_sample,
    random_maxcut_graph,
    reference_apply_rx_all,
    reference_noisy_sample,
    reference_qaoa_state,
)
from topologies import uniform_qpu

EDGE_POLY = maxcut_to_spin_polynomial(ProblemGraph(2, ((0, 1, 1.0),)))
RING6 = maxcut_to_spin_polynomial(ProblemGraph(6, tuple((i, (i + 1) % 6, 1.0) for i in range(6))))


def bits(amps: np.ndarray) -> np.ndarray:
    """The raw bits of a complex array, so NaNs and signed zeros compare too."""
    return np.ascontiguousarray(amps).view(np.uint64)


def single_region_placement(poly, qpu, eta=1.0):
    fg = filter_by_threshold(qpu, eta)
    region = best_regions(fg, poly.num_spins, 1)[0]
    return map_circuit(poly, region)


NO_LAYERS = QaoaParams((), ())


def phase_only(*gammas):
    """Layers whose mixer angle is 0: only the phase separators act."""
    return QaoaParams(gammas, (0.0,) * len(gammas))


class TestUniformState:
    """The ansatz at p = 0 is the uniform start state."""

    def test_one_qubit(self):
        state = build_qaoa_state(SpinPolynomial(1), NO_LAYERS)
        assert np.allclose(state.amplitudes, [math.sqrt(0.5)] * 2)

    def test_two_qubits(self):
        assert np.allclose(build_qaoa_state(EDGE_POLY, NO_LAYERS).amplitudes, [0.5] * 4)

    def test_norm_exact(self):
        state = build_qaoa_state(SpinPolynomial(3), NO_LAYERS)
        assert np.sum(np.abs(state.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            build_qaoa_state(SpinPolynomial(25), NO_LAYERS)
        with pytest.raises(CapacityError):
            build_qaoa_state(SpinPolynomial(0), NO_LAYERS)


class TestApplyPhase:
    def test_gamma_zero_is_identity(self):
        out = build_qaoa_state(EDGE_POLY, phase_only(0.0))
        assert np.allclose(out.amplitudes, [0.5] * 4)

    def test_constant_polynomial_is_global_phase(self):
        poly = SpinPolynomial(2, (), constant_offset=1.7)
        out = build_qaoa_state(poly, phase_only(0.9))
        assert np.allclose(out.amplitudes, 0.5 * np.exp(-1j * 0.9 * 1.7))
        assert np.allclose(out.probabilities(), [0.25] * 4)

    def test_diagonal_preserves_magnitudes(self):
        out = build_qaoa_state(EDGE_POLY, phase_only(math.pi))
        assert np.allclose(out.probabilities(), [0.25] * 4)

    def test_phase_composition(self):
        rng = np.random.default_rng(0)
        poly = maxcut_to_spin_polynomial(random_maxcut_graph(rng, 4, 0.6, True))
        two_step = build_qaoa_state(poly, phase_only(0.4, 0.8))
        one_step = build_qaoa_state(poly, phase_only(1.2))
        assert np.max(np.abs(two_step.amplitudes - one_step.amplitudes)) < 1e-9


class TestApplyMixer:
    def test_beta_zero_is_identity(self):
        amps = np.random.default_rng(5).normal(size=(8, 1)) + 0j
        block = amps.copy()
        _apply_rx_all(block, 3, [0.0])
        assert np.allclose(block, amps)

    def test_half_period_flips_all(self):
        block = np.eye(8)[:, :1].astype(complex)
        _apply_rx_all(block, 3, [math.pi / 2])
        assert np.abs(block[-1, 0]) ** 2 == pytest.approx(1.0)

    def test_quarter_rotation_single_qubit(self):
        # 2x2 rotation arithmetic: cos^2(pi/4) = sin^2(pi/4) = 1/2
        block = np.array([[1.0], [0.0]], dtype=complex)
        _apply_rx_all(block, 1, [math.pi / 4])
        assert np.allclose(np.abs(block[:, 0]) ** 2, [0.5, 0.5])

    def test_equals_textbook_butterfly_for_every_small_shape(self):
        rng = np.random.default_rng(7)
        for n in range(1, 13):
            for rows in range(1, 71):
                block = rng.standard_normal((1 << n, rows)) + 1j * rng.standard_normal((1 << n, rows))
                betas = rng.uniform(-4.0, 4.0, rows).tolist()
                got, want = block.copy(), block.copy()
                _apply_rx_all(got, n, betas)
                reference_apply_rx_all(want, n, betas)
                assert np.array_equal(bits(got), bits(want)), (n, rows)

    def test_fortran_ordered_block_is_refused_untouched(self):
        # its reshape would be a copy, and mixing a copy would lose the mixer
        rng = np.random.default_rng(6)
        amps = rng.normal(size=(16, 5)) + 1j * rng.normal(size=(16, 5))
        block = np.asfortranarray(amps)
        with pytest.raises(ValueError, match="C-contiguous"):
            _apply_rx_all(block, 4, rng.uniform(-4.0, 4.0, 5).tolist())
        assert np.array_equal(bits(block), bits(amps))


class TestBuildQaoaState:
    def test_p_zero_is_uniform(self):
        state = build_qaoa_state(EDGE_POLY, NO_LAYERS)
        assert np.array_equal(state.amplitudes, np.full(4, 0.5, dtype=complex))

    def test_norm_is_one(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            poly = maxcut_to_spin_polynomial(random_maxcut_graph(rng, n, 0.5, True))
            p = int(rng.integers(1, 4))
            params = QaoaParams(
                tuple(rng.uniform(0, 2 * math.pi, p)), tuple(rng.uniform(0, math.pi, p))
            )
            state = build_qaoa_state(poly, params)
            assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) < 1e-9

    def test_matches_dense_exponential_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(8):
            n = int(rng.integers(2, 5))
            poly = maxcut_to_spin_polynomial(random_maxcut_graph(rng, n, 0.6, True))
            p = int(rng.integers(1, 4))
            params = QaoaParams(
                tuple(rng.uniform(0, 2 * math.pi, p)), tuple(rng.uniform(0, math.pi, p))
            )
            got = build_qaoa_state(poly, params).amplitudes
            want = dense_qaoa_oracle(poly, params)
            assert np.max(np.abs(got - want)) < 1e-8

    def test_grid_expectation_matches_oracle(self):
        # single-edge MaxCut at p=1 over a 5x5 angle grid
        poly = EDGE_POLY
        for gamma in np.linspace(0, 2 * math.pi, 5):
            for beta in np.linspace(0, math.pi, 5):
                params = QaoaParams((gamma,), (beta,))
                state = build_qaoa_state(poly, params)
                want = dense_qaoa_oracle(poly, params)
                got = expectation(state, poly)
                ref = float(
                    np.real(np.conj(want) @ (cost_vector(poly) * want))
                )
                assert got == pytest.approx(ref, abs=1e-8)


class TestExpectation:
    def test_uniform_single_edge(self):
        assert expectation(build_qaoa_state(EDGE_POLY, NO_LAYERS), EDGE_POLY) == pytest.approx(-0.5)

    def test_basis_state_at_argmin(self):
        poly = maxcut_to_spin_polynomial(ProblemGraph(3, ((0, 1, 1.0), (1, 2, 1.0))))
        best, argmins = brute_force_optimum(poly)
        idx = argmins[0].to_index()
        amps = np.zeros(8, dtype=complex)
        amps[idx] = 1.0
        assert expectation(StateVector(amps, 3), poly) == pytest.approx(best)

    def test_bounded_by_extremes(self):
        rng = np.random.default_rng(3)
        poly = maxcut_to_spin_polynomial(random_maxcut_graph(rng, 4, 0.7, True))
        costs = cost_vector(poly)
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        amps /= np.linalg.norm(amps)
        value = expectation(StateVector(amps, 4), poly)
        assert costs.min() - 1e-12 <= value <= costs.max() + 1e-12


class TestBuildQaoaStates:
    def test_rows_equal_single_states_across_blocks(self):
        rng = np.random.default_rng(8)
        poly = maxcut_to_spin_polynomial(random_maxcut_graph(rng, 9, 0.5, True))
        count = 2 * (_BLOCK_AMPLITUDES >> 9) + 3  # three blocks
        params = [QaoaParams(tuple(rng.uniform(0, 7, 2)), tuple(rng.uniform(0, 4, 2))) for _ in range(count)]
        for state, pr in zip(build_qaoa_states(poly, params), params, strict=True):
            assert np.array_equal(state.amplitudes, reference_qaoa_state(poly, pr))

    @pytest.mark.parametrize("n, rows", [(10, 2), (10, 4), (11, 3), (12, 2), (12, 4)])
    def test_narrow_blocks_equal_single_states(self, n, rows):
        # 2-4 rows over 2^10-2^12 amplitudes: the mixer's coefficients are repeated
        # to a contiguous run, and at n = 12 a block holds at most 3 rows
        rng = np.random.default_rng(n * rows)
        poly = maxcut_to_spin_polynomial(random_maxcut_graph(rng, n, 0.4, True))
        params = [QaoaParams(tuple(rng.uniform(0, 7, 2)), tuple(rng.uniform(-4, 4, 2))) for _ in range(rows)]
        values = qaoa_expectations(poly, [pr.to_flat() for pr in params])
        for state, value, pr in zip(build_qaoa_states(poly, params), values, params, strict=True):
            want = reference_qaoa_state(poly, pr)
            assert np.array_equal(bits(state.amplitudes), bits(want))
            assert value == float(np.dot(np.abs(want) ** 2, cost_vector(poly)))

    def test_refuses_mixed_depths(self):
        with pytest.raises(DimensionError):
            list(build_qaoa_states(EDGE_POLY, [QaoaParams((0.1,), (0.2,)), NO_LAYERS]))


def half_test_polynomial(kind: str, n: int, rng) -> SpinPolynomial:
    """A weighted random MaxCut, LABS, or an "odd" cost: a field, a degree-3 and a pair term."""
    if kind == "maxcut":
        return maxcut_to_spin_polynomial(random_maxcut_graph(rng, n, 0.5, True))
    if kind == "labs":
        return labs_to_spin_polynomial(n)
    return SpinPolynomial(n, ((0.7, (1,)), (1.3, (0, 2, n - 1)), (0.9, (2, 3))), constant_offset=0.25)


class TestHalfState:
    """Flip-symmetric costs evolve on the top-qubit-clear half at every n; an odd-degree
    cost always takes whole states.  Either way every value and amplitude equals the
    single-state reference bit for bit."""

    @pytest.mark.parametrize(
        "kind, n",
        [("maxcut", n) for n in range(1, 16)]
        + [("labs", n) for n in range(2, 16)]  # LABS needs n >= 2
        + [("odd", 5), ("odd", 13)],
    )
    def test_rows_equal_reference_state(self, kind, n):
        rng = np.random.default_rng(n)
        poly = half_test_polynomial(kind, n, rng)
        assert _noiseless_step(poly)[1] == (kind != "odd")
        diag = cost_vector(poly)
        for p in range(4):
            for rows in (1, 2, max(1, _BLOCK_AMPLITUDES >> n)):  # the last is one full block
                params = [
                    QaoaParams(tuple(rng.uniform(0, 7, p)), tuple(rng.uniform(-4, 4, p))) for _ in range(rows)
                ]
                values = qaoa_expectations(poly, np.array([pr.to_flat() for pr in params]).reshape(rows, 2 * p))
                for state, value, pr in zip(build_qaoa_states(poly, params), values, params, strict=True):
                    want = reference_qaoa_state(poly, pr)
                    assert np.array_equal(bits(state.amplitudes), bits(want))
                    assert value == float(np.dot(np.abs(want) ** 2, diag))


class TestShotCounts:
    def test_refuses_an_index_outside_the_basis(self):
        with pytest.raises(ValueError, match=r"outcome index 4 is not an int in \[0, 2\^2\)"):
            ShotCounts({1: 3, 4: 1}, 4, 2)
        with pytest.raises(ValueError, match="outcome index -1 is not an int"):
            ShotCounts({1: 3, -1: 1}, 4, 2)

    def test_refuses_an_index_that_is_not_an_int(self):
        for key in ("01", 1.0, np.int64(1), True):
            with pytest.raises(ValueError, match="outcome index .* is not an int"):
                ShotCounts({2: 3, key: 1}, 4, 2)

    def test_refuses_a_negative_count(self):
        with pytest.raises(ValueError, match="negative count for outcome index 1"):
            ShotCounts({2: 5, 1: -1}, 4, 2)

    def test_refuses_counts_that_miss_the_shot_total(self):
        with pytest.raises(ValueError, match="do not sum"):
            ShotCounts({2: 3, 1: 2}, 4, 2)

    def test_names_the_first_bad_key(self):
        with pytest.raises(ValueError, match="negative count for outcome index 1"):
            ShotCounts({3: 1, 1: -1, 7: 1}, 1, 2)
        with pytest.raises(ValueError, match="outcome index 7 is not an int"):
            ShotCounts({3: 1, 7: 1, 1: -1}, 1, 2)

    def test_accepts_valid_histograms(self):
        assert ShotCounts({2: 3, 3: 0}, 3, 2).total_shots == 3
        assert ShotCounts({}, 0, 2).counts == {}
        assert ShotCounts({0: 4}, 4, 0).counts == {"": 4}


class TestSample:
    def test_basis_state_concentrates(self):
        amps = np.zeros(4, dtype=complex)
        amps[2] = 1.0  # index 2 = bits (qubit0=0, qubit1=1) -> "01"
        counts = sample(StateVector(amps, 2), 50, seed=1)
        assert counts.counts == {"01": 50}

    def test_uniform_within_binomial_bound(self):
        counts = sample(build_qaoa_state(EDGE_POLY, NO_LAYERS), 100000, seed=2)
        sigma = math.sqrt(100000 * 0.25 * 0.75)
        for key in ("00", "01", "10", "11"):
            assert abs(counts.counts[key] - 25000) < 5 * sigma

    def test_deterministic(self):
        state = build_qaoa_state(EDGE_POLY, QaoaParams((0.7,), (0.4,)))
        assert sample(state, 1000, seed=5).counts == sample(state, 1000, seed=5).counts

    def test_expectation_matches_shot_estimate(self):
        rng = np.random.default_rng(4)
        poly = maxcut_to_spin_polynomial(random_maxcut_graph(rng, 4, 0.6, True))
        params = QaoaParams((0.9,), (0.5,))
        state = build_qaoa_state(poly, params)
        counts = sample(state, 100000, seed=6)
        costs = cost_vector(poly)
        estimate = sum(
            c * direct_cost(poly, [1 - 2 * int(bit) for bit in key])
            for key, c in counts.counts.items()
        ) / counts.total_shots
        exact = expectation(state, poly)
        spread = float(np.sqrt(np.sum(state.probabilities() * (costs - exact) ** 2)))
        assert abs(estimate - exact) < 5 * spread / math.sqrt(100000)


class TestNoiseSpec:
    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            NoiseSpec((math.nextafter(1.0, 2.0),), {})
        with pytest.raises(ValueError):
            NoiseSpec((0.1,), {(0, 1): -0.2})
        with pytest.raises(ValueError):
            NoiseSpec((0.1,), {}, trajectories=0)

    def test_rate_one_is_a_probability(self):
        spec = NoiseSpec((1.0, 0.0), {(0, 1): 1.0})
        assert spec.readout_flip_prob == (1.0, 0.0)
        assert spec.two_qubit_error_prob == {(0, 1): 1.0}
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            NoiseSpec((0.1,), {(0, 1): math.nextafter(1.0, 2.0)})

    def test_from_qpu_copies_calibration(self):
        qpu = uniform_qpu("line", num_qubits=3, readout=0.02, gate=0.01)
        spec = NoiseSpec.from_qpu(qpu, trajectories=8)
        assert spec.readout_flip_prob == (0.02, 0.02, 0.02)
        assert spec.two_qubit_error_prob[(0, 1)] == 0.01
        zero = NoiseSpec.zero(qpu)
        assert zero.readout_flip_prob == (0.0, 0.0, 0.0)
        assert zero.two_qubit_error_prob == {(0, 1): 0.0, (1, 2): 0.0}


class TestNoisySample:
    def setup_method(self):
        self.qpu = uniform_qpu("line", num_qubits=2, readout=0.0, gate=0.0, name="pair")
        self.placement = single_region_placement(EDGE_POLY, self.qpu)
        self.params = QaoaParams((0.8,), (0.6,))

    def test_zero_noise_matches_noiseless_distribution(self):
        shots = 200000
        spec = NoiseSpec.zero(self.qpu, trajectories=16)
        noisy = noisy_sample(
            EDGE_POLY, self.params, self.placement, self.qpu, spec, shots, seed=3
        )
        state = build_qaoa_state(EDGE_POLY, self.params)
        probs = state.probabilities()
        for b, p in enumerate(probs):
            key = format(b, "02b")[::-1]
            got = noisy.counts.get(key, 0)
            sigma = math.sqrt(shots * p * (1 - p)) + 1e-9
            assert abs(got - shots * p) < 5 * sigma

    def test_fully_scrambled_readout_is_uniform(self):
        spec = NoiseSpec(
            readout_flip_prob=(0.5, 0.5),
            two_qubit_error_prob={(0, 1): 0.0},
            trajectories=4,
        )
        shots = 200000
        counts = noisy_sample(
            EDGE_POLY, self.params, self.placement, self.qpu, spec, shots, seed=4
        )
        sigma = math.sqrt(shots * 0.25 * 0.75)
        for key in ("00", "01", "10", "11"):
            assert abs(counts.counts.get(key, 0) - shots / 4) < 5 * sigma

    def test_gate_noise_degrades_accuracy(self):
        # paired comparison across seeds at optimal angles for the single
        # edge, where the noiseless state is (nearly) pure on the optima
        from qdisco.hscore import accuracy
        from qdisco.optimizer import OptimizerConfig, optimize

        trace = optimize(
            EDGE_POLY,
            1,
            OptimizerConfig(method="grid_then_nelder_mead", max_evaluations=300),
            seed=0,
        )
        params = trace.best_params
        state = build_qaoa_state(EDGE_POLY, params)
        noiseless_mass = float(state.probabilities()[1] + state.probabilities()[2])
        assert noiseless_mass > 0.99  # angles really are optimal

        noisy_spec = NoiseSpec(
            readout_flip_prob=(0.0, 0.0),
            two_qubit_error_prob={(0, 1): 0.1},
            trajectories=16,
        )
        clean_spec = NoiseSpec.zero(self.qpu, trajectories=16)
        deltas = []
        for s in range(20):
            noisy = noisy_sample(
                EDGE_POLY, params, self.placement, self.qpu, noisy_spec, 4000, seed=s
            )
            clean = noisy_sample(
                EDGE_POLY, params, self.placement, self.qpu, clean_spec, 4000, seed=s
            )
            deltas.append(
                accuracy(clean, EDGE_POLY) - accuracy(noisy, EDGE_POLY)
            )
        assert np.mean(deltas) > 0
        assert np.mean(deltas) > 2 * np.std(deltas, ddof=1) / math.sqrt(len(deltas))

    def test_deterministic_under_seed(self):
        spec = NoiseSpec(
            readout_flip_prob=(0.05, 0.05),
            two_qubit_error_prob={(0, 1): 0.05},
            trajectories=8,
        )
        a = noisy_sample(EDGE_POLY, self.params, self.placement, self.qpu, spec, 5000, seed=9)
        b = noisy_sample(EDGE_POLY, self.params, self.placement, self.qpu, spec, 5000, seed=9)
        assert a.counts == b.counts

    def test_shot_split_preserves_total(self):
        spec = NoiseSpec.zero(self.qpu, trajectories=7)
        counts = noisy_sample(
            EDGE_POLY, self.params, self.placement, self.qpu, spec, 103, seed=1
        )
        assert counts.total_shots == 103
        assert sum(counts.counts.values()) == 103

    def test_placement_mismatch_raises(self):
        other = uniform_qpu("line", num_qubits=3, readout=0.0, gate=0.0, name="trio")
        with pytest.raises(PlacementError):
            noisy_sample(
                EDGE_POLY,
                self.params,
                self.placement,
                other,
                NoiseSpec.zero(other),
                100,
                seed=0,
            )

    def test_placement_for_other_polynomial_raises(self):
        other_poly = maxcut_to_spin_polynomial(ProblemGraph(2, ((0, 1, 2.0),)))
        with pytest.raises(PlacementError, match="different polynomial"):
            noisy_sample(
                other_poly,
                self.params,
                self.placement,
                self.qpu,
                NoiseSpec.zero(self.qpu),
                100,
                seed=0,
            )

    def test_swap_noise_points_fire(self):
        # a triangle on a 3-qubit line needs one swap; with certainty-ish
        # gate errors the distribution must differ from noiseless
        tri = maxcut_to_spin_polynomial(
            ProblemGraph(3, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)))
        )
        qpu = uniform_qpu("line", num_qubits=3, readout=0.0, gate=0.3, name="l3")
        placement = single_region_placement(tri, qpu)
        assert placement.swap_count == 1
        spec = NoiseSpec.from_qpu(qpu, trajectories=32)
        params = QaoaParams((0.9,), (0.4,))
        noisy = noisy_sample(tri, params, placement, qpu, spec, 50000, seed=2)
        state = build_qaoa_state(tri, params)
        probs = state.probabilities()
        tv = 0.5 * sum(
            abs(noisy.counts.get(format(b, "03b")[::-1], 0) / 50000 - probs[b])
            for b in range(8)
        )
        assert tv > 0.02


@st.composite
def kernel_batches(draw):
    """A weighted MaxCut polynomial and a (B, 2p) batch of angles."""
    n = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    weights = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
    poly = maxcut_to_spin_polynomial(
        ProblemGraph(n, tuple((u, v, draw(weights)) for u, v in sorted(chosen)))
    )
    p = draw(st.integers(1, 3))
    rows = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    angles = np.concatenate(
        [rng.uniform(-7.0, 7.0, (rows, p)), rng.uniform(-4.0, 4.0, (rows, p))], axis=1
    )
    return poly, angles


class TestBatchedKernel:
    @settings(max_examples=40, deadline=None)
    @given(kernel_batches())
    def test_rows_match_single_states(self, batch):
        poly, angles = batch
        values = qaoa_expectations(poly, angles)
        diag = cost_vector(poly)
        assert values.shape == (len(angles),)
        dense_rows = set(range(0, len(angles), max(1, len(angles) // 4)))
        for i, (row, value) in enumerate(zip(angles, values)):
            params = QaoaParams.from_flat(row.tolist())
            state = build_qaoa_state(poly, params)
            assert np.array_equal(state.amplitudes, reference_qaoa_state(poly, params))
            assert value == expectation(state, poly)
            if i in dense_rows:  # the matrix-exponential oracle is slow
                dense = dense_qaoa_oracle(poly, params)
                assert abs(value - float(np.dot(np.abs(dense) ** 2, diag))) < 1e-12

    def test_block_sized_batches_match_single_states(self):
        # rows in several blocks, and states too large to share one
        rng = np.random.default_rng(3)
        for n, rows in ((6, 600), (13, 3), (14, 2)):
            poly = maxcut_to_spin_polynomial(random_maxcut_graph(rng, n, 0.5, True))
            angles = rng.uniform(-3.0, 3.0, (rows, 4))
            values = qaoa_expectations(poly, angles)
            for row in range(0, rows, max(1, rows // 40)):
                params = QaoaParams.from_flat(angles[row].tolist())
                want = reference_qaoa_state(poly, params)
                assert values[row] == float(np.dot(np.abs(want) ** 2, cost_vector(poly)))
        # float fields and couplings: almost every basis state is its own cost level
        rng = np.random.default_rng(10)
        fields = [(float(w), (i,)) for i, w in enumerate(rng.uniform(-2.0, 2.0, 10))]
        pairs = [(float(rng.uniform(-2.0, 2.0)), (i, i + 1)) for i in range(9)]
        dense = SpinPolynomial(10, tuple(fields + pairs))
        assert len(_cost_levels(dense)[0]) > 0.99 * 2**10
        angles = rng.uniform(-3.0, 3.0, (40, 4))  # three blocks
        values = qaoa_expectations(dense, angles)
        for row, value in enumerate(values):
            want = reference_qaoa_state(dense, QaoaParams.from_flat(angles[row].tolist()))
            assert value == float(np.dot(np.abs(want) ** 2, cost_vector(dense)))

    def test_overflowing_phase_row_matches_reference_bit_for_bit(self):
        # gamma * cost overflows to inf, whose phase is NaN
        params = QaoaParams((1e308, 0.4), (0.3, 0.2))
        with np.errstate(over="ignore", invalid="ignore"):
            want = reference_qaoa_state(RING6, params)
        assert np.isnan(want).any()
        assert np.array_equal(bits(build_qaoa_state(RING6, params).amplitudes), bits(want))
        finite = QaoaParams((0.5, 0.1), (0.3, 0.2))
        values = qaoa_expectations(RING6, [params.to_flat(), finite.to_flat()])
        assert math.isnan(values[0])
        assert values[1] == expectation(build_qaoa_state(RING6, finite), RING6)

    def test_rejects_bad_angle_arrays(self):
        with pytest.raises(DimensionError):
            qaoa_expectations(EDGE_POLY, [[0.1, 0.2, 0.3]])
        with pytest.raises(DimensionError):
            qaoa_expectations(EDGE_POLY, [0.1, 0.2])
        with pytest.raises(ValueError):
            qaoa_expectations(EDGE_POLY, [[math.nan, 0.2]])


LEVEL_RNG = np.random.default_rng(9)
LEVEL_POLYS = {
    "weighted_maxcut": maxcut_to_spin_polynomial(random_maxcut_graph(LEVEL_RNG, 8, 0.6, True)),
    "unweighted_maxcut": maxcut_to_spin_polynomial(random_maxcut_graph(LEVEL_RNG, 8, 0.6)),
    "ring6": RING6,
    "labs8": labs_to_spin_polynomial(8),
}


class TestCostLevels:
    @pytest.mark.parametrize("name", sorted(LEVEL_POLYS))
    def test_levels_rebuild_the_cost_vector_bit_for_bit(self, name):
        poly = LEVEL_POLYS[name]
        levels, level_of = _cost_levels(poly)
        assert np.array_equal(levels[level_of].view(np.int64), cost_vector(poly).view(np.int64))
        assert len(np.unique(levels.view(np.int64))) == len(levels)

    def test_levels_are_keyed_by_bit_pattern(self, monkeypatch):
        # SpinPolynomial never yields a -0.0 or NaN cost (its offset and sums round to
        # +0.0, weights are finite), so a cost vector holding both is fed in directly
        costs = np.array([0.0, -0.0, math.nan, -math.nan, 1.0, -0.0, 0.0, 1.0])
        monkeypatch.setattr("qdisco.simulator.cost_vector", lambda poly: costs)
        levels, level_of = _cost_levels.__wrapped__(EDGE_POLY)
        assert len(levels) == 5
        assert np.array_equal(levels[level_of].view(np.int64), costs.view(np.int64))


def scaled_noise(qpu, factor, readout=True, trajectories=64):
    return NoiseSpec(
        readout_flip_prob=tuple(min(0.9, factor * x) if readout else 0.0 for x in qpu.readout_error),
        two_qubit_error_prob={e: min(0.9, factor * x) for e, x in qpu.gate_error.items()},
        trajectories=trajectories,
    )


class TestNoisySampleMatchesReference:
    """The batched walk draws the documented stream: not a single count differs."""

    def setup_method(self):
        self.qpu = load_calibration(data_path("qpu_hex16.json").read_text())
        self.ring6 = maxcut_to_spin_polynomial(
            ProblemGraph(6, tuple((i, (i + 1) % 6, 1.0) for i in range(6)))
        )

    def check(self, poly, p, noise, shots, seed):
        rng = np.random.default_rng(seed)
        params = QaoaParams(
            tuple(rng.uniform(0, 2 * math.pi, p)), tuple(rng.uniform(0, math.pi, p))
        )
        placement = best_region_placement(poly, self.qpu)
        args = (poly, params, placement, self.qpu, noise, shots, seed)
        assert noisy_sample(*args) == reference_noisy_sample(*args)

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("factor", [1.0, 10.0])
    @pytest.mark.parametrize("readout", [True, False])
    def test_ring6_on_hex16(self, p, factor, readout):
        noise = scaled_noise(self.qpu, factor, readout)
        for seed in range(3):
            self.check(self.ring6, p, noise, 256, seed)

    def test_labs6_steiner_routing(self):
        poly = labs_to_spin_polynomial(6)
        for p, factor in ((1, 1.0), (2, 10.0)):
            self.check(poly, p, scaled_noise(self.qpu, factor), 300, seed=p)

    def test_more_trajectories_than_shots(self):
        noise = scaled_noise(self.qpu, 10.0, trajectories=64)
        self.check(self.ring6, 2, noise, 10, seed=4)


class TestNoisySampleBatch:
    """Many runs of one placement in one pass, each equal to its own ``noisy_sample``."""

    def setup_method(self):
        self.qpu = load_calibration(data_path("qpu_hex16.json").read_text())
        self.ring6 = maxcut_to_spin_polynomial(
            ProblemGraph(6, tuple((i, (i + 1) % 6, 1.0) for i in range(6)))
        )
        self.placement = best_region_placement(self.ring6, self.qpu)

    def runs(self, count, p, seed=0):
        rng = np.random.default_rng(seed)
        return [
            QaoaParams(tuple(rng.uniform(0, 2 * math.pi, p)), tuple(rng.uniform(0, math.pi, p)))
            for _ in range(count)
        ]

    def test_runs_span_groups_and_blocks(self):
        # at 10x nearly every trajectory fires: 12 runs make 3 groups of
        # 4 runs, and each group's ~256 rows fill more than one block
        noise = scaled_noise(self.qpu, 10.0)
        assert _TRAJECTORIES_AT_ONCE // noise.trajectories == 4
        assert 4 * noise.trajectories > _BLOCK_AMPLITUDES >> 6
        runs, seeds = self.runs(12, 2), list(range(100, 112))
        got = noisy_sample_batch(self.ring6, runs, self.placement, self.qpu, noise, 256, seeds)
        for counts, params, seed in zip(got, runs, seeds):
            args = (self.ring6, params, self.placement, self.qpu, noise, 256, seed)
            assert counts == reference_noisy_sample(*args)

    def test_rates_of_one_fire_every_time(self):
        # a broken coupler the region routes through and a broken qubit it reads out
        edge = self.placement.schedule[0].interaction_edges[0]
        qubit = self.placement.final_map[0]
        readout = tuple(1.0 if q == qubit else x for q, x in enumerate(self.qpu.readout_error))
        qpu = QpuModel(self.qpu.name, self.qpu.num_qubits, readout, {**self.qpu.gate_error, edge: 1.0})
        noise = NoiseSpec.from_qpu(qpu, trajectories=16)
        runs, seeds = self.runs(6, 2), list(range(6))
        got = noisy_sample_batch(self.ring6, runs, self.placement, qpu, noise, 256, seeds)
        for counts, params, seed in zip(got, runs, seeds):
            assert counts == reference_noisy_sample(self.ring6, params, self.placement, qpu, noise, 256, seed)

    def test_empty_batch(self):
        noise = NoiseSpec.from_qpu(self.qpu)
        assert noisy_sample_batch(self.ring6, [], self.placement, self.qpu, noise, 10, []) == []

    def test_rejects_mismatched_runs(self):
        noise = NoiseSpec.from_qpu(self.qpu)
        with pytest.raises(DimensionError):
            noisy_sample_batch(self.ring6, self.runs(2, 1), self.placement, self.qpu, noise, 10, [1])
        with pytest.raises(DimensionError):
            mixed = self.runs(1, 1) + self.runs(1, 2)
            noisy_sample_batch(self.ring6, mixed, self.placement, self.qpu, noise, 10, [1, 2])
        with pytest.raises(ValueError):
            noisy_sample_batch(self.ring6, self.runs(1, 1), self.placement, self.qpu, noise, 0, [1])

    def test_memory_does_not_grow_with_runs(self):
        # A device score samples M runs at once.  Runs go in groups, so the
        # peak is the kept results plus one group's work: about 1 MB here.
        # Holding every run's start states and rows at once peaks near 6 MB.
        noise = NoiseSpec.from_qpu(self.qpu)
        runs, seeds = self.runs(100, 2), list(range(100))
        noisy_sample_batch(self.ring6, runs[:1], self.placement, self.qpu, noise, 256, seeds[:1])
        tracemalloc.start()
        try:
            noisy_sample_batch(self.ring6, runs, self.placement, self.qpu, noise, 256, seeds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024

    def test_trajectories_past_the_shots_cost_nothing(self):
        # trajectories past the first `shots` get no shots, so 10**6 of them
        # sample as 64 do, and none of the idle ones is listed
        params = self.runs(1, 2)[0]
        args = (self.ring6, params, self.placement, self.qpu)
        want = noisy_sample(*args, NoiseSpec.from_qpu(self.qpu, 64), 64, 5)
        tracemalloc.start()
        try:
            got = noisy_sample(*args, NoiseSpec.from_qpu(self.qpu, 10**6), 64, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 1024 * 1024

    def test_fire_and_readout_draws_are_chunked(self):
        # 2^16 trajectories of ring6 at p = 2 meet 42 channel applications
        # each: one (T, P) draw of their fire doubles would hold 22 MB, and
        # one (shots, n) draw of readout doubles 3 MB
        noise = NoiseSpec(self.qpu.readout_error, dict.fromkeys(self.qpu.gate_error, 1e-6), 1 << 16)
        params = self.runs(1, 2)[0]
        tracemalloc.start()
        try:
            counts = noisy_sample(self.ring6, params, self.placement, self.qpu, noise, 1 << 16, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.total_shots == 1 << 16
        assert peak < 4 * 1024 * 1024


# ring6 angles found by grid_then_nelder_mead (seed 0): optimum mass 0.29 at p = 1, 0.54 at p = 2
GOOD_RING6_ANGLES = {
    1: QaoaParams((5.496,), (0.394,)),
    2: QaoaParams((3.798, 1.246), (2.521, 1.244)),
}


class TestNoiseModel:
    """One stream per run samples the noise model the per-trajectory streams did."""

    @pytest.mark.parametrize("p", [1, 2])
    def test_mean_accuracy_matches_per_trajectory_streams(self, p):
        # 50 runs of one angle set differ only in their draws; at 10x noise
        # the accuracy falls well below its noiseless value
        qpu = load_calibration(data_path("qpu_hex16.json").read_text())
        placement = best_region_placement(RING6, qpu)
        noise, params, seeds = scaled_noise(qpu, 10.0), GOOD_RING6_ANGLES[p], range(50)
        new = [
            accuracy(c, RING6)
            for c in noisy_sample_batch(RING6, [params] * 50, placement, qpu, noise, 256, seeds)
        ]
        old = [
            accuracy(per_trajectory_noisy_sample(RING6, params, placement, qpu, noise, 256, s), RING6)
            for s in seeds
        ]
        combined_se = math.sqrt((np.var(new, ddof=1) + np.var(old, ddof=1)) / 50)
        assert abs(np.mean(new) - np.mean(old)) < 4 * combined_se

    def test_counts_fit_the_exact_mixture(self):
        # One trajectory per shot makes the shots independent draws of the
        # mixture: the ideal circuit with 1 - r, or with each of the 15
        # non-identity Paulis after the phase with r / 15, then readout flips.
        # The linear term breaks the bit-flip symmetry, so a readout rate on
        # the wrong qubit shows; the angles put 0.93 of the ideal mass on
        # two outcomes, so a wrong fault rate shows.
        poly = SpinPolynomial(2, ((1.0, (0, 1)), (0.5, (0,))))
        qpu = uniform_qpu("line", num_qubits=2, readout=0.0, gate=0.0)
        placement = single_region_placement(poly, qpu)
        params, rate, readout, shots = QaoaParams((5.657,), (0.402,)), 0.3, (0.05, 0.2), 20000
        noise = NoiseSpec(readout, {(0, 1): rate}, trajectories=shots)

        gamma, beta = params.gammas[0], params.betas[0]
        paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
        rx = math.cos(beta) * np.eye(2) - 1j * math.sin(beta) * paulis[1]
        phased = np.exp(-1j * gamma * cost_vector(poly)) / 2
        ideal, *faulty = [
            np.abs(np.kron(rx, rx) @ np.kron(b, a) @ phased) ** 2 for b in paulis for a in paulis
        ]
        mixture = (1 - rate) * ideal + rate * np.mean(faulty, axis=0)
        flip = [readout[placement.final_map[l]] for l in range(2)]
        want = np.zeros(4)
        for b, mask in np.ndindex(4, 4):
            want[b ^ mask] += mixture[b] * math.prod(
                flip[l] if mask >> l & 1 else 1 - flip[l] for l in range(2)
            )
        got = np.zeros(4)
        for seed in range(5):  # independent runs: their pooled counts are one multinomial
            counts = noisy_sample(poly, params, placement, qpu, noise, shots, seed)
            got += [counts.histogram.get(b, 0) for b in range(4)]
        expected = 5 * shots * want
        chi2 = float(np.sum((got - expected) ** 2 / expected))
        assert chi2 < 16.27  # the 0.999 quantile of chi-square with 3 degrees of freedom
