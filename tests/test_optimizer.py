import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdisco import optimizer
from qdisco.errors import ConfigError
from qdisco import _seeds
from qdisco.optimizer import (
    BETA_SPAN,
    GAMMA_SPAN,
    GRID_POINT_LIMIT,
    OptimizerConfig,
    optimize,
    optimize_batch,
)
from qdisco.problem import ProblemGraph, SpinPolynomial, maxcut_to_spin_polynomial
from qdisco.simulator import QaoaParams, qaoa_expectations

from oracles import reference_optimize

EDGE_POLY = maxcut_to_spin_polynomial(ProblemGraph(2, ((0, 1, 1.0),)))
RING5 = maxcut_to_spin_polynomial(
    ProblemGraph(5, tuple((i, (i + 1) % 5, 1.0 + 0.5 * i) for i in range(5)))
)


def grid_oracle(poly, resolution=200):
    """Dense p=1 grid scan, independent of the optimizer."""
    grid = [
        (GAMMA_SPAN * gi / resolution, BETA_SPAN * bi / resolution)
        for gi in range(resolution)
        for bi in range(resolution)
    ]
    return float(qaoa_expectations(poly, grid).min())


class TestOptimize:
    def test_single_edge_reaches_grid_optimum(self):
        want = grid_oracle(EDGE_POLY)
        cfg = OptimizerConfig(max_evaluations=500, restarts=3)
        trace = optimize(EDGE_POLY, 1, cfg, seed=1)
        assert trace.best_value <= want + 0.02

    def test_grid_seeded_variant_reaches_optimum(self):
        want = grid_oracle(EDGE_POLY)
        cfg = OptimizerConfig(method="grid_then_nelder_mead", max_evaluations=300)
        trace = optimize(EDGE_POLY, 1, cfg, seed=2)
        assert trace.best_value <= want + 0.02

    def test_constant_polynomial_flat_objective(self):
        poly = SpinPolynomial(3, (), constant_offset=4.2)
        cfg = OptimizerConfig(max_evaluations=200, tolerance=1e-8)
        trace = optimize(poly, 1, cfg, seed=3)
        assert trace.best_value == pytest.approx(4.2)
        # flat landscape: simplex spread is zero immediately, so the run
        # stops long before the budget
        assert trace.num_evaluations < 20

    def test_deterministic_under_seed(self):
        cfg = OptimizerConfig(max_evaluations=150, restarts=2)
        a = optimize(EDGE_POLY, 1, cfg, seed=7)
        b = optimize(EDGE_POLY, 1, cfg, seed=7)
        assert a == b

    def test_different_seeds_explore_differently(self):
        cfg = OptimizerConfig(max_evaluations=60)
        a = optimize(EDGE_POLY, 1, cfg, seed=1)
        b = optimize(EDGE_POLY, 1, cfg, seed=2)
        assert a.points[0].tolist() != b.points[0].tolist()

    def test_budget_respected(self):
        cfg = OptimizerConfig(max_evaluations=37)
        trace = optimize(EDGE_POLY, 2, cfg, seed=4)
        assert trace.num_evaluations <= 37

    def test_best_value_is_lowest_evaluation(self):
        cfg = OptimizerConfig(max_evaluations=200)
        trace = optimize(EDGE_POLY, 2, cfg, seed=5)
        assert trace.best_value == min(trace.values.tolist())

    def test_periodicity_for_integer_coefficients(self):
        # integer-weight polynomial: objective(gamma + 2pi) == objective(gamma)
        poly = maxcut_to_spin_polynomial(
            ProblemGraph(3, ((0, 1, 2.0), (1, 2, 4.0)))
        )
        rng = np.random.default_rng(6)
        for _ in range(10):
            gamma = float(rng.uniform(0, 2 * math.pi))
            beta = float(rng.uniform(0, math.pi))
            a, b = qaoa_expectations(poly, [(gamma, beta), (gamma + 2 * math.pi, beta)])
            assert a == pytest.approx(b, abs=1e-9)

    def test_non_finite_values_surface_in_trace(self):
        # half-weight edge started at gamma = 1e308: the steps away from the start
        # leave the float range, so their values are NaN
        poly = maxcut_to_spin_polynomial(ProblemGraph(2, ((0, 1, 0.5),)))
        cfg = OptimizerConfig(method="nelder_mead", initial=(1e308, 1.0), max_evaluations=60)
        trace = optimize(poly, 1, cfg, seed=8)
        assert not np.isfinite(trace.values).all()
        assert math.isfinite(trace.best_value)
        assert trace.best_value == np.nanmin(trace.values)

    def test_invalid_config(self):
        with pytest.raises(ConfigError, match=r"^field 'optimizer.max_evaluations' must be an integer in \[1, inf\], got 0$"):
            OptimizerConfig(max_evaluations=0)
        with pytest.raises(ConfigError, match=r"^field 'optimizer.tolerance' must be .*, got 0.0$"):
            OptimizerConfig(tolerance=0.0)
        with pytest.raises(ConfigError, match=r"^field 'optimizer.grid_resolution' must be .*, got 1$"):
            OptimizerConfig(grid_resolution=1)
        with pytest.raises(ConfigError, match=r"^field 'optimizer.restarts' must be .*, got 0$"):
            OptimizerConfig(restarts=0)
        with pytest.raises(ConfigError):
            OptimizerConfig(method="annealing")
        with pytest.raises(ConfigError):
            optimize(EDGE_POLY, 0, OptimizerConfig(), seed=0)

    def test_explicit_initial_point(self):
        cfg = OptimizerConfig(max_evaluations=80, initial=(0.5, 0.25))
        trace = optimize(EDGE_POLY, 1, cfg, seed=10)
        assert trace.points[0].tolist() == [0.5, 0.25]

    @pytest.mark.parametrize("method", ["nelder_mead", "grid_then_nelder_mead"])
    def test_huge_budget_is_not_allocated_up_front(self, method):
        # the run converges long before either budget is spent
        huge = OptimizerConfig(method=method, max_evaluations=10**12, restarts=1)
        large = OptimizerConfig(method=method, max_evaluations=10**5, restarts=1)
        trace = optimize(RING5, 1, huge, seed=11)
        assert trace == optimize(RING5, 1, large, seed=11)
        assert trace.num_evaluations < 10**4


GRID = "grid_then_nelder_mead"

# restart counts above the budget left after the grid: the run builds only the
# start points the budget reaches, and the uncapped oracle builds them all
RESTARTS_ABOVE_BUDGET = [
    pytest.param(OptimizerConfig(max_evaluations=7, restarts=20), id="no-grid"),
    pytest.param(OptimizerConfig(max_evaluations=1, restarts=5), id="budget-of-one"),
    pytest.param(OptimizerConfig(max_evaluations=8, restarts=9), id="one-past"),
    pytest.param(OptimizerConfig(method=GRID, max_evaluations=9, restarts=30), id="grid"),
    # the grid takes the whole budget: one start, and it evaluates nothing
    pytest.param(OptimizerConfig(method=GRID, max_evaluations=1, restarts=4), id="grid-takes-all"),
    pytest.param(OptimizerConfig(max_evaluations=6, initial=(0.3, 0.2), restarts=12), id="initial"),
    pytest.param(
        OptimizerConfig(method=GRID, max_evaluations=11, initial=(0.3, 0.2), restarts=40), id="grid-and-initial"
    ),
    pytest.param(OptimizerConfig(method=GRID, max_evaluations=2, initial=(0.3, 0.2), restarts=2), id="initial-dropped"),
]


class TestStartCap:
    @pytest.mark.parametrize("cfg", RESTARTS_ABOVE_BUDGET)
    @pytest.mark.parametrize("seed", [0, 9])
    def test_equals_uncapped_oracle(self, cfg, seed):
        trace = optimize(RING5, 1, cfg, seed=seed)
        want = reference_optimize(RING5, 1, cfg, seed)
        assert trace == want
        assert trace.points.tobytes() == want.points.tobytes()
        assert trace.values.tobytes() == want.values.tobytes()

    @pytest.mark.parametrize("p", [1, 2])
    def test_huge_restart_count_builds_only_reachable_starts(self, monkeypatch, p):
        indices = []

        def rng_from(seed, *path):
            assert path[0] == "nm-start" and path[1] < 20, path
            indices.append(path[1])
            return _seeds.rng_from(seed, *path)

        monkeypatch.setattr(optimizer, "rng_from", rng_from)
        trace = optimize(RING5, p, OptimizerConfig(max_evaluations=20, restarts=10**9), seed=4)
        assert indices == list(range(20))
        assert trace == optimize(RING5, p, OptimizerConfig(max_evaluations=20, restarts=20), seed=4)
        assert trace.num_evaluations == 20


class TestGridCap:
    def test_scan_past_the_cap_is_refused(self):
        # min(resolution^2, budget // 2): the budget's half decides here
        match = rf"^field 'optimizer.grid_resolution' must be .* at most {GRID_POINT_LIMIT} points"
        with pytest.raises(ConfigError, match=match):
            OptimizerConfig(method=GRID, grid_resolution=10**6, max_evaluations=2 * GRID_POINT_LIMIT + 2)
        # and here the resolution
        with pytest.raises(ConfigError, match=match):
            OptimizerConfig(method=GRID, grid_resolution=2**10 + 1, max_evaluations=10**12)

    def test_scan_at_the_cap_is_valid(self):
        # only configured here; a scan this size is never run in the tests
        OptimizerConfig(method=GRID, grid_resolution=10**6, max_evaluations=2 * GRID_POINT_LIMIT + 1)
        OptimizerConfig(method=GRID, grid_resolution=2**10, max_evaluations=10**12)

    def test_no_scan_is_not_refused(self):
        OptimizerConfig(method="nelder_mead", grid_resolution=10**6, max_evaluations=10**12)


LOCKSTEP_CONFIGS = [
    pytest.param(OptimizerConfig(max_evaluations=90), id="nelder_mead"),
    pytest.param(
        OptimizerConfig(method="grid_then_nelder_mead", max_evaluations=90), id="grid"
    ),
    pytest.param(OptimizerConfig(max_evaluations=90, restarts=3), id="restarts"),
    # the budget ends inside the initial simplex, or part way through later steps
    pytest.param(OptimizerConfig(max_evaluations=5), id="budget-in-simplex"),
    pytest.param(OptimizerConfig(max_evaluations=17, restarts=2), id="budget-mid-run"),
]


class TestOptimizeBatch:
    @pytest.mark.parametrize("cfg", LOCKSTEP_CONFIGS)
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_lockstep_runs_equal_single_runs(self, cfg, p):
        seeds = [3, 1, 4, 1, 5]
        batch = optimize_batch(RING5, p, cfg, seeds)
        assert batch == [optimize(RING5, p, cfg, seed=s) for s in seeds]

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_explicit_initial_point(self, p):
        cfg = OptimizerConfig(max_evaluations=60, initial=tuple([0.4] * p + [0.3] * p), restarts=2)
        seeds = [0, 7, 8]
        batch = optimize_batch(RING5, p, cfg, seeds)
        assert batch == [optimize(RING5, p, cfg, seed=s) for s in seeds]
        assert all(tuple(t.points[0].tolist()) == cfg.initial for t in batch)

    def test_grid_is_one_shared_block(self, monkeypatch):
        shapes = []

        def recording(poly, angles):
            shapes.append(np.shape(angles))
            return qaoa_expectations(poly, angles)

        monkeypatch.setattr(optimizer, "qaoa_expectations", recording)
        cfg = OptimizerConfig(method="grid_then_nelder_mead", max_evaluations=90)
        seeds = [3, 1, 4, 1, 5]
        batch = optimize_batch(RING5, 1, cfg, seeds)
        grid = 45  # half the budget, under the 144-point grid
        assert shapes[0] == (grid, 2)
        assert all(rows <= len(seeds) for rows, _ in shapes[1:])
        assert all(t.num_evaluations > grid for t in batch)
        monkeypatch.undo()
        assert batch == [optimize(RING5, 1, cfg, seed=s) for s in seeds]

    def test_fine_grid_builds_only_the_scanned_points(self):
        cfg = OptimizerConfig(
            method="grid_then_nelder_mead", max_evaluations=40, grid_resolution=10**6
        )
        [trace] = optimize_batch(RING5, 1, cfg, [2])
        assert trace.num_evaluations == 40
        want = [(0.0, BETA_SPAN * j / 10**6) for j in range(20)]
        assert trace.points[:20].tolist() == [list(x) for x in want]

    def test_steps_past_the_float_range_are_failed_evaluations(self, monkeypatch):
        # half-weight edge: at gamma = 1e308 every phase stays finite, so the start
        # point evaluates, and the steps away from it leave the float range
        poly = maxcut_to_spin_polynomial(ProblemGraph(2, ((0, 1, 0.5),)))
        rows = []

        def recording(poly, angles):
            rows.extend(angles)
            return qaoa_expectations(poly, angles)

        monkeypatch.setattr(optimizer, "qaoa_expectations", recording)
        cfg = OptimizerConfig(method="nelder_mead", initial=(1e308, 1.0), max_evaluations=40)
        [trace] = optimize_batch(poly, 1, cfg, [0])
        assert np.isfinite(rows).all()  # the kernel sees finite rows only
        overflowed = ~np.isfinite(trace.points).all(axis=1)
        assert overflowed.any()
        assert np.isnan(trace.values[overflowed]).all()
        assert np.isfinite(trace.values[~overflowed]).all()
        assert trace.num_evaluations == 40
        # the NaN values stay in the trace and never become the incumbent
        assert trace.best_value == trace.values[0]
        assert trace.best_params == QaoaParams.from_flat(trace.points[0])

    def test_step_values_skip_only_the_points_out_of_range(self):
        points = [(0.3, 0.2), (math.inf, 0.2), (0.5, 0.1), (math.nan, 0.4), (1e300, 0.4)]
        kept = [points[i] for i in (0, 2, 4)]
        want = qaoa_expectations(RING5, kept).tolist()
        got = optimizer._step_values(RING5, points)
        assert np.isnan([got[1], got[3]]).all()
        assert [got[i] for i in (0, 2, 4)] == want

    def test_empty_batch_and_bad_depth(self):
        assert optimize_batch(RING5, 1, OptimizerConfig(), []) == []
        with pytest.raises(ConfigError):
            optimize_batch(RING5, 0, OptimizerConfig(), [1])
        with pytest.raises(ConfigError):
            optimize_batch(RING5, 2, OptimizerConfig(initial=(0.1, 0.2)), [1])


@st.composite
def optimizer_runs(draw):
    """A small polynomial (terms of degree 1-3), a depth and a run config."""
    n = draw(st.integers(2, 5))
    supports = st.lists(st.sampled_from(range(n)), min_size=1, max_size=3, unique=True)
    weight = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
    term = st.tuples(weight, supports.map(lambda s: tuple(sorted(s))))
    terms = draw(st.lists(term, max_size=6))
    poly = SpinPolynomial(n, tuple(terms), constant_offset=draw(weight))
    p = draw(st.integers(1, 5))
    angle = st.floats(0.0, 2 * math.pi, allow_nan=False)
    cfg = OptimizerConfig(
        method=draw(st.sampled_from(["nelder_mead", "grid_then_nelder_mead"])),
        max_evaluations=draw(st.integers(1, 120)),
        initial=draw(st.none() | st.tuples(*[angle] * (2 * p))),
        restarts=draw(st.integers(1, 3)),
    )
    return poly, p, cfg, draw(st.integers(0, 2**31 - 1))


@settings(max_examples=80, deadline=None)
@given(optimizer_runs())
def test_trace_equals_guarded_loop_oracle(run):
    poly, p, cfg, seed = run
    trace = optimize(poly, p, cfg, seed=seed)
    want = reference_optimize(poly, p, cfg, seed)
    assert trace == want
    assert trace.points.tobytes() == want.points.tobytes()
    assert trace.values.tobytes() == want.values.tobytes()


@st.composite
def lockstep_runs(draw):
    """A run as ``optimizer_runs`` draws it, with a drawn tolerance, so runs converge
    at different steps, and 2-6 seeds.

    One in four polynomials is a constant: its values differ from the constant
    in the last bits only, so under the tolerance of one ulp of zero the runs
    go on, and the simplex order of their many exact ties is the insertion
    order alone.  One in four initial points starts at gamma = 1e308, so steps
    leave the float range and score inf.
    """
    poly, p, cfg, _ = draw(optimizer_runs())
    if draw(st.integers(0, 3)) == 0:
        poly = SpinPolynomial(poly.num_spins, (), constant_offset=draw(st.sampled_from([1.0, -2.5, 3.0])))
    initial = cfg.initial
    if draw(st.integers(0, 3)) == 0:
        initial = (1e308,) + (initial or (1.0,) * (2 * p))[1:]
    tolerance = draw(st.sampled_from([math.ulp(0.0), 1e-12, 1e-6, 1e-4, 1e-2, 0.5]) | st.floats(1e-9, 1.0))
    cfg = dataclasses.replace(cfg, initial=initial, tolerance=tolerance)
    return poly, p, cfg, draw(st.lists(st.integers(0, 2**31 - 1), min_size=2, max_size=6))


@settings(max_examples=40, deadline=None)
@given(lockstep_runs())
def test_lockstep_traces_equal_guarded_loop_oracle(run):
    poly, p, cfg, seeds = run
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # the oracle's steps past 1e308
            wants = [reference_optimize(poly, p, cfg, seed) for seed in seeds]
    except ConfigError:  # no finite value: the batch must refuse too
        with pytest.raises(ConfigError, match="no finite objective value"):
            optimize_batch(poly, p, cfg, seeds)
        return
    for trace, want in zip(optimize_batch(poly, p, cfg, seeds), wants, strict=True):
        assert trace == want
        assert trace.points.tobytes() == want.points.tobytes()
        assert trace.values.tobytes() == want.values.tobytes()
