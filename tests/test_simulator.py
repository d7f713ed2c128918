import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdisco.compiler import enumerate_regions, filter_by_threshold, map_circuit, select_regions
from qdisco.errors import CapacityError, DimensionError, PlacementError
from qdisco.datasets import data_path
from qdisco.hardware import ErrorProfile, load_calibration, synthesize_topology
from qdisco.hscore import best_region_placement
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
    StateVector,
    apply_mixer,
    apply_phase,
    build_qaoa_state,
    counts_to_probabilities,
    expectation,
    noisy_sample,
    qaoa_expectations,
    sample,
    uniform_state,
)

from oracles import (
    dense_qaoa_oracle,
    random_maxcut_graph,
    reference_noisy_sample,
    reference_qaoa_state,
)

EDGE_POLY = maxcut_to_spin_polynomial(ProblemGraph(2, ((0, 1, 1.0),)))


def single_region_placement(poly, qpu, eta=1.0):
    fg = filter_by_threshold(qpu, eta)
    region = select_regions(enumerate_regions(fg, poly.num_spins), 1)[0]
    return map_circuit(poly, region)


class TestUniformState:
    def test_one_qubit(self):
        state = uniform_state(1)
        assert np.allclose(state.amplitudes, [math.sqrt(0.5)] * 2)

    def test_two_qubits(self):
        assert np.allclose(uniform_state(2).amplitudes, [0.5] * 4)

    def test_norm_exact(self):
        state = uniform_state(3)
        assert np.sum(np.abs(state.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            uniform_state(25)
        with pytest.raises(CapacityError):
            uniform_state(0)


class TestApplyPhase:
    def test_gamma_zero_is_identity(self):
        state = uniform_state(2)
        out = apply_phase(state, EDGE_POLY, 0.0)
        assert np.allclose(out.amplitudes, state.amplitudes)

    def test_constant_polynomial_is_global_phase(self):
        poly = SpinPolynomial(2, (), constant_offset=1.7)
        state = uniform_state(2)
        out = apply_phase(state, poly, 0.9)
        assert np.allclose(out.amplitudes, state.amplitudes * np.exp(-1j * 0.9 * 1.7))
        assert np.allclose(out.probabilities(), state.probabilities())

    def test_diagonal_preserves_magnitudes(self):
        out = apply_phase(uniform_state(2), EDGE_POLY, math.pi)
        assert np.allclose(out.probabilities(), [0.25] * 4)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            apply_phase(uniform_state(3), EDGE_POLY, 0.1)

    def test_phase_composition(self):
        rng = np.random.default_rng(0)
        poly = maxcut_to_spin_polynomial(random_maxcut_graph(rng, 4, 0.6, True))
        state = uniform_state(4)
        two_step = apply_phase(apply_phase(state, poly, 0.4), poly, 0.8)
        one_step = apply_phase(state, poly, 1.2)
        assert np.max(np.abs(two_step.amplitudes - one_step.amplitudes)) < 1e-9


class TestApplyMixer:
    def test_beta_zero_is_identity(self):
        state = uniform_state(3)
        assert np.allclose(apply_mixer(state, 0.0).amplitudes, state.amplitudes)

    def test_half_period_flips_all(self):
        zero = StateVector(np.eye(8)[0].astype(complex), 3)
        out = apply_mixer(zero, math.pi / 2)
        probs = out.probabilities()
        assert probs[-1] == pytest.approx(1.0)

    def test_quarter_rotation_single_qubit(self):
        # 2x2 rotation arithmetic: cos^2(pi/4) = sin^2(pi/4) = 1/2
        zero = StateVector(np.array([1.0, 0.0], dtype=complex), 1)
        out = apply_mixer(zero, math.pi / 4)
        assert np.allclose(out.probabilities(), [0.5, 0.5])


class TestBuildQaoaState:
    def test_p_zero_is_uniform(self):
        poly = EDGE_POLY
        state = build_qaoa_state(poly, QaoaParams((), ()))
        assert np.allclose(state.amplitudes, uniform_state(2).amplitudes)

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
        assert expectation(uniform_state(2), EDGE_POLY) == pytest.approx(-0.5)

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


class TestSample:
    def test_basis_state_concentrates(self):
        amps = np.zeros(4, dtype=complex)
        amps[2] = 1.0  # index 2 = bits (qubit0=0, qubit1=1) -> "01"
        counts = sample(StateVector(amps, 2), 50, seed=1)
        assert counts.counts == {"01": 50}

    def test_uniform_within_binomial_bound(self):
        counts = sample(uniform_state(2), 100000, seed=2)
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
        probs = counts_to_probabilities(counts)
        estimate = float(probs @ costs)
        exact = expectation(state, poly)
        spread = float(np.sqrt(np.sum(state.probabilities() * (costs - exact) ** 2)))
        assert abs(estimate - exact) < 5 * spread / math.sqrt(100000)


class TestNoiseSpec:
    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            NoiseSpec((1.0,), {})
        with pytest.raises(ValueError):
            NoiseSpec((0.1,), {(0, 1): -0.2})
        with pytest.raises(ValueError):
            NoiseSpec((0.1,), {}, trajectories=0)

    def test_from_qpu_copies_calibration(self):
        qpu = synthesize_topology("line", num_qubits=3, profile=ErrorProfile.uniform(0.02, 0.01))
        spec = NoiseSpec.from_qpu(qpu, trajectories=8)
        assert spec.readout_flip_prob == (0.02, 0.02, 0.02)
        assert spec.two_qubit_error_prob[(0, 1)] == 0.01
        assert not spec.is_noiseless()
        assert NoiseSpec.zero(qpu).is_noiseless()


class TestNoisySample:
    def setup_method(self):
        self.qpu = synthesize_topology(
            "line", num_qubits=2, profile=ErrorProfile.uniform(0.0, 0.0), name="pair"
        )
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
            None,
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
        other = synthesize_topology(
            "line", num_qubits=3, profile=ErrorProfile.uniform(0.0, 0.0), name="trio"
        )
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
        qpu = synthesize_topology(
            "line", num_qubits=3, profile=ErrorProfile.uniform(0.0, 0.3), name="l3"
        )
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

    def test_rejects_bad_angle_arrays(self):
        with pytest.raises(DimensionError):
            qaoa_expectations(EDGE_POLY, [[0.1, 0.2, 0.3]])
        with pytest.raises(DimensionError):
            qaoa_expectations(EDGE_POLY, [0.1, 0.2])
        with pytest.raises(ValueError):
            qaoa_expectations(EDGE_POLY, [[math.nan, 0.2]])


def scaled_noise(qpu, factor, readout=True, trajectories=64):
    return NoiseSpec(
        readout_flip_prob=tuple(min(0.9, factor * x) if readout else 0.0 for x in qpu.readout_error),
        two_qubit_error_prob={e: min(0.9, factor * x) for e, x in qpu.gate_error.items()},
        trajectories=trajectories,
    )


class TestNoisySampleMatchesReference:
    """Reusing the error-free trajectory must not change a single count."""

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
