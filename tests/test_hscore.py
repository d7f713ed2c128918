import numpy as np
import pytest

from qdisco.datasets import data_path
from qdisco.errors import ConfigError
from qdisco.hardware import ErrorProfile, load_calibration, synthesize_topology
from qdisco.hscore import (
    ReferenceDistribution,
    accuracy,
    benchmark_qpu,
    build_reference,
    h_score,
    score,
)
from qdisco.optimizer import OptimizerConfig
from qdisco.problem import ProblemGraph, SpinPolynomial, maxcut_to_spin_polynomial
from qdisco.simulator import ShotCounts

EDGE_POLY = maxcut_to_spin_polynomial(ProblemGraph(2, ((0, 1, 1.0),)))
RING6 = maxcut_to_spin_polynomial(
    ProblemGraph(6, tuple((i, (i + 1) % 6, 1.0) for i in range(6)))
)


def make_ref(samples, shots=256, p=1, key="k"):
    return ReferenceDistribution(problem_key=key, p=p, samples=tuple(samples), shots=shots)


class TestAccuracy:
    def test_all_shots_optimal(self):
        counts = ShotCounts({"10": 70, "01": 30}, 100, 2)
        assert accuracy(counts, EDGE_POLY) == 1.0

    def test_no_shots_optimal(self):
        counts = ShotCounts({"00": 60, "11": 40}, 100, 2)
        assert accuracy(counts, EDGE_POLY) == 0.0

    def test_uniform_counts_give_half(self):
        counts = ShotCounts({"00": 25, "01": 25, "10": 25, "11": 25}, 100, 2)
        assert accuracy(counts, EDGE_POLY) == 0.5

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError):
            accuracy(ShotCounts({}, 0, 2), EDGE_POLY)


class TestScore:
    def test_below_all_samples(self):
        ref = make_ref(np.linspace(0.2, 0.8, 100))
        assert score(0.1, ref) == 0.0

    def test_above_all_samples(self):
        ref = make_ref(np.linspace(0.2, 0.8, 100))
        assert score(0.9, ref) == 1.0

    def test_median_scores_half(self):
        samples = np.linspace(0.1, 0.9, 101)
        ref = make_ref(samples)
        median = float(np.median(samples))
        assert abs(score(median, ref) - 0.5) <= 1.0 / ref.size

    def test_midpoint_at_ties(self):
        ref = make_ref([0.5] * 100)
        assert score(0.5, ref) == 0.5

    def test_out_of_range(self):
        ref = make_ref(np.linspace(0, 1, 100))
        with pytest.raises(ValueError):
            score(1.5, ref)

    def test_requires_min_size(self):
        with pytest.raises(ConfigError):
            make_ref([0.5] * 99)


class TestHScore:
    def test_reference_scored_against_itself_is_exactly_one(self):
        rng = np.random.default_rng(1)
        samples = rng.uniform(0, 1, 301)
        samples[::7] = samples[0]  # inject ties
        ref = make_ref(samples)
        report = h_score(list(samples), ref)
        assert report.c == pytest.approx(1.0, abs=1e-12)

    def test_ceiling_of_two(self):
        ref = make_ref(np.linspace(0.1, 0.6, 200))
        report = h_score([1.0] * 50, ref)
        assert report.c == 2.0

    def test_floor_of_zero(self):
        ref = make_ref(np.linspace(0.5, 0.9, 200))
        report = h_score([0.1, 0.2, 0.3], ref)
        assert report.c == 0.0

    def test_monotone_dominance(self):
        rng = np.random.default_rng(2)
        ref = make_ref(rng.uniform(0, 1, 150))
        for _ in range(20):
            b = np.sort(rng.uniform(0, 1, 40))
            a = np.minimum(b + rng.uniform(0, 0.2, 40), 1.0)  # a dominates b
            assert h_score(list(a), ref).c >= h_score(list(b), ref).c - 1e-12

    def test_range_always_in_0_2(self):
        rng = np.random.default_rng(3)
        ref = make_ref(rng.uniform(0, 1, 120))
        for _ in range(20):
            xs = rng.uniform(0, 1, int(rng.integers(1, 50)))
            c = h_score(list(xs), ref).c
            assert 0.0 <= c <= 2.0

    def test_empty_accuracies(self):
        ref = make_ref(np.linspace(0, 1, 100))
        with pytest.raises(ValueError):
            h_score([], ref)


class TestBuildReference:
    def test_deterministic(self):
        cfg = OptimizerConfig(max_evaluations=40)
        a = build_reference(EDGE_POLY, 1, cfg, 100, seed=5, shots=64)
        b = build_reference(EDGE_POLY, 1, cfg, 100, seed=5, shots=64)
        assert a == b

    def test_flat_landscape_gives_step_cdf(self):
        # constant polynomial: every assignment is optimal, accuracy is 1.0
        poly = SpinPolynomial(2, (), constant_offset=3.0)
        cfg = OptimizerConfig(max_evaluations=20)
        ref = build_reference(poly, 1, cfg, 100, seed=6, shots=32)
        assert set(ref.samples) == {1.0}
        assert score(1.0, ref) == 0.5  # midpoint at the single step

    def test_nondegenerate_reference_for_edge_problem(self):
        cfg = OptimizerConfig(max_evaluations=60)
        ref = build_reference(EDGE_POLY, 1, cfg, 150, seed=7, shots=128)
        # nondegenerate CDF supported in (0, 1]
        assert len(set(ref.samples)) > 1
        assert all(0.0 < x <= 1.0 for x in ref.samples)

    def test_rejects_small_m_ref(self):
        with pytest.raises(ConfigError):
            build_reference(EDGE_POLY, 1, OptimizerConfig(), 50, seed=0)


class TestBenchmarkQpu:
    def test_self_normalization_statistical(self):
        qpu = synthesize_topology(
            "ring", num_qubits=6, profile=ErrorProfile.uniform(0.0, 0.0), name="clean"
        )
        cfg = OptimizerConfig(max_evaluations=80)
        report, ref = benchmark_qpu(
            RING6, qpu, p=1, m=150, seed=11, cfg=cfg, shots=128, m_ref=150
        )
        assert 0.85 <= report.c <= 1.15
        assert report.m == 150

    def test_noise_lowers_score(self):
        cfg = OptimizerConfig(max_evaluations=80)
        ref = build_reference(RING6, 1, cfg, 120, seed=12, shots=128)
        clean = synthesize_topology(
            "ring", num_qubits=6, profile=ErrorProfile.uniform(0.0, 0.0), name="c"
        )
        dirty = synthesize_topology(
            "ring", num_qubits=6, profile=ErrorProfile.uniform(0.02, 0.02), name="d"
        )
        r_clean, _ = benchmark_qpu(
            RING6, clean, 1, m=40, seed=13, cfg=cfg, shots=128, m_ref=120, reference=ref
        )
        r_dirty, _ = benchmark_qpu(
            RING6, dirty, 1, m=40, seed=13, cfg=cfg, shots=128, m_ref=120, reference=ref
        )
        assert r_clean.c > r_dirty.c

    def test_reference_mismatch_rejected(self):
        cfg = OptimizerConfig(max_evaluations=40)
        ref = build_reference(EDGE_POLY, 1, cfg, 100, seed=1, shots=64)
        qpu = synthesize_topology("ring", num_qubits=6, name="q")
        with pytest.raises(ConfigError):
            benchmark_qpu(RING6, qpu, 1, m=10, seed=2, cfg=cfg, reference=ref)

    def test_seeded_report_is_pinned(self):
        # recorded from the one-run-at-a-time implementation; the lockstep
        # runs and the reused error-free trajectory must reproduce it exactly
        qpu = load_calibration(data_path("qpu_hex16.json").read_text())
        report, ref = benchmark_qpu(RING6, qpu, p=1, m=20, seed=7, m_ref=100)
        hits = [57, 67, 61, 67, 60, 70, 65, 74, 70, 67, 59, 67, 65, 64, 55, 72, 75, 73, 67, 66]
        ref_hits = (
            [58, 59, 59, 59, 60, 60, 60, 61, 63, 63] + [64] * 4 + [65] * 6 + [66] * 8
            + [67] * 4 + [68] * 2 + [69] * 4 + [70] * 6 + [71] * 3 + [72] * 4 + [73] * 5
            + [74] * 8 + [75] * 5 + [76] * 3 + [77] * 2 + [78] * 6 + [79] * 4
            + [80, 81, 81, 83, 83, 83, 84, 84, 84, 85, 85, 86, 86, 86, 87, 91]
        )
        assert report.accuracies == tuple(h / 256 for h in hits)
        assert ref.samples == tuple(h / 256 for h in ref_hits)
        assert report.c == 0.5465
