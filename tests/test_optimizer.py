import math

import numpy as np
import pytest

from qdisco.errors import ConfigError
from qdisco.optimizer import (
    BETA_SPAN,
    GAMMA_SPAN,
    OptimizerConfig,
    noiseless_evaluator,
    optimize,
    optimize_batch,
)
from qdisco.problem import ProblemGraph, SpinPolynomial, maxcut_to_spin_polynomial
from qdisco.simulator import QaoaParams

EDGE_POLY = maxcut_to_spin_polynomial(ProblemGraph(2, ((0, 1, 1.0),)))
RING5 = maxcut_to_spin_polynomial(
    ProblemGraph(5, tuple((i, (i + 1) % 5, 1.0 + 0.5 * i) for i in range(5)))
)


def grid_oracle(poly, resolution=200):
    """Dense p=1 grid scan, independent of the optimizer."""
    fn = noiseless_evaluator(poly)
    best = math.inf
    for gi in range(resolution):
        for bi in range(resolution):
            v = fn(QaoaParams((GAMMA_SPAN * gi / resolution,), (BETA_SPAN * bi / resolution,)))
            best = min(best, v)
    return best


class TestOptimize:
    def test_single_edge_reaches_grid_optimum(self):
        want = grid_oracle(EDGE_POLY)
        cfg = OptimizerConfig(max_evaluations=500, restarts=3)
        trace = optimize(EDGE_POLY, 1, None, cfg, seed=1)
        assert trace.best_value <= want + 0.02

    def test_grid_seeded_variant_reaches_optimum(self):
        want = grid_oracle(EDGE_POLY)
        cfg = OptimizerConfig(method="grid_then_nelder_mead", max_evaluations=300)
        trace = optimize(EDGE_POLY, 1, None, cfg, seed=2)
        assert trace.best_value <= want + 0.02

    def test_constant_polynomial_flat_objective(self):
        poly = SpinPolynomial(3, (), constant_offset=4.2)
        cfg = OptimizerConfig(max_evaluations=200, tolerance=1e-8)
        trace = optimize(poly, 1, None, cfg, seed=3)
        assert trace.best_value == pytest.approx(4.2)
        # flat landscape: simplex spread is zero immediately, so the run
        # stops long before the budget
        assert trace.num_evaluations < 20

    def test_deterministic_under_seed(self):
        cfg = OptimizerConfig(max_evaluations=150, restarts=2)
        a = optimize(EDGE_POLY, 1, None, cfg, seed=7)
        b = optimize(EDGE_POLY, 1, None, cfg, seed=7)
        assert a == b

    def test_different_seeds_explore_differently(self):
        cfg = OptimizerConfig(max_evaluations=60)
        a = optimize(EDGE_POLY, 1, None, cfg, seed=1)
        b = optimize(EDGE_POLY, 1, None, cfg, seed=2)
        assert a.evaluations[0][0] != b.evaluations[0][0]

    def test_budget_respected(self):
        cfg = OptimizerConfig(max_evaluations=37)
        trace = optimize(EDGE_POLY, 2, None, cfg, seed=4)
        assert trace.num_evaluations <= 37

    def test_monotone_running_best(self):
        cfg = OptimizerConfig(max_evaluations=200)
        trace = optimize(EDGE_POLY, 2, None, cfg, seed=5)
        best_values = trace.running_best()
        assert all(b2 <= b1 + 1e-15 for b1, b2 in zip(best_values, best_values[1:]))
        assert trace.best_value == min(v for _, v in trace.evaluations)

    def test_periodicity_for_integer_coefficients(self):
        # integer-weight polynomial: objective(gamma + 2pi) == objective(gamma)
        poly = maxcut_to_spin_polynomial(
            ProblemGraph(3, ((0, 1, 2.0), (1, 2, 4.0)))
        )
        fn = noiseless_evaluator(poly)
        rng = np.random.default_rng(6)
        for _ in range(10):
            gamma = float(rng.uniform(0, 2 * math.pi))
            beta = float(rng.uniform(0, math.pi))
            a = fn(QaoaParams((gamma,), (beta,)))
            b = fn(QaoaParams((gamma + 2 * math.pi,), (beta,)))
            assert a == pytest.approx(b, abs=1e-9)

    def test_non_finite_values_surface_in_trace(self):
        calls = {"n": 0}

        def flaky(params):
            calls["n"] += 1
            if calls["n"] % 5 == 0:
                return math.nan
            return noiseless_evaluator(EDGE_POLY)(params)

        cfg = OptimizerConfig(max_evaluations=60)
        trace = optimize(EDGE_POLY, 1, flaky, cfg, seed=8)
        assert trace.evaluation_errors > 0
        assert math.isfinite(trace.best_value)

    def test_noisy_mode_reevaluates_incumbent(self):
        calls = []

        def noisy_fn(params):
            calls.append(params)
            return noiseless_evaluator(EDGE_POLY)(params)

        cfg = OptimizerConfig(max_evaluations=120, noisy=True, tolerance=1e-12)
        optimize(EDGE_POLY, 1, noisy_fn, cfg, seed=9)
        # the incumbent shows up at least twice thanks to re-evaluation
        seen = {}
        for p in calls:
            seen[p] = seen.get(p, 0) + 1
        assert max(seen.values()) >= 2

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            OptimizerConfig(max_evaluations=0)
        with pytest.raises(ConfigError):
            OptimizerConfig(tolerance=0.0)
        with pytest.raises(ConfigError):
            OptimizerConfig(method="annealing")
        with pytest.raises(ConfigError):
            optimize(EDGE_POLY, 0, None, OptimizerConfig(), seed=0)

    def test_explicit_initial_point(self):
        cfg = OptimizerConfig(max_evaluations=80, initial=(0.5, 0.25))
        trace = optimize(EDGE_POLY, 1, None, cfg, seed=10)
        assert trace.evaluations[0][0] == QaoaParams((0.5,), (0.25,))


LOCKSTEP_CONFIGS = [
    pytest.param(OptimizerConfig(max_evaluations=90), id="nelder_mead"),
    pytest.param(
        OptimizerConfig(method="grid_then_nelder_mead", max_evaluations=90), id="grid"
    ),
    pytest.param(OptimizerConfig(max_evaluations=90, restarts=3), id="restarts"),
    pytest.param(OptimizerConfig(max_evaluations=90, noisy=True, tolerance=1e-12), id="noisy"),
    # the budget ends inside the initial simplex, or part way through later steps
    pytest.param(OptimizerConfig(max_evaluations=5), id="budget-in-simplex"),
    pytest.param(OptimizerConfig(max_evaluations=17, restarts=2), id="budget-mid-run"),
]


class TestOptimizeBatch:
    @pytest.mark.parametrize("cfg", LOCKSTEP_CONFIGS)
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_lockstep_runs_equal_single_runs(self, cfg, p):
        seeds = [3, 1, 4, 1, 5]
        batch = optimize_batch(RING5, p, None, cfg, seeds)
        assert batch == [optimize(RING5, p, None, cfg, seed=s) for s in seeds]

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_explicit_initial_point(self, p):
        cfg = OptimizerConfig(max_evaluations=60, initial=tuple([0.4] * p + [0.3] * p), restarts=2)
        seeds = [0, 7, 8]
        batch = optimize_batch(RING5, p, None, cfg, seeds)
        assert batch == [optimize(RING5, p, None, cfg, seed=s) for s in seeds]
        assert all(t.evaluations[0][0].to_flat() == cfg.initial for t in batch)

    def test_custom_evaluator_is_called_point_by_point(self):
        calls = []

        def evaluate(params):
            calls.append(params)
            return noiseless_evaluator(RING5)(params)

        cfg = OptimizerConfig(max_evaluations=40)
        batch = optimize_batch(RING5, 2, evaluate, cfg, [1, 2])
        assert batch == [optimize(RING5, 2, None, cfg, seed=s) for s in (1, 2)]
        assert len(calls) == sum(t.num_evaluations for t in batch)
        # lockstep: the two runs alternate while both are active
        assert calls[:2] == [batch[0].evaluations[0][0], batch[1].evaluations[0][0]]

    def test_empty_batch_and_bad_depth(self):
        assert optimize_batch(RING5, 1, None, OptimizerConfig(), []) == []
        with pytest.raises(ConfigError):
            optimize_batch(RING5, 0, None, OptimizerConfig(), [1])
        with pytest.raises(ConfigError):
            optimize_batch(RING5, 2, None, OptimizerConfig(initial=(0.1, 0.2)), [1])
