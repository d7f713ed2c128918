"""Classical outer loop: derivative-free minimization of the cost landscape.

Nelder-Mead over the 2p angle parameters, optionally seeded by a coarse
grid scan at p=1.  Every objective call is recorded in the trace and
counted against the evaluation budget, which makes runs reproducible and
comparable across evaluators.  Each run is a generator that yields points
and receives their values, so ``optimize_batch`` can advance many seeded
runs in lockstep and evaluate each step's points in one kernel call.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Generator, Sequence
from dataclasses import dataclass

import numpy as np

from ._seeds import rng_from
from .errors import ConfigError
from .problem import SpinPolynomial
from .simulator import QaoaParams, build_qaoa_state, expectation, qaoa_expectations

GAMMA_SPAN = 2.0 * math.pi  # search box: gamma in [0, 2pi)
BETA_SPAN = math.pi  # beta in [0, pi)

# standard Nelder-Mead coefficients
_REFLECT = 1.0
_EXPAND = 2.0
_CONTRACT = 0.5
_SHRINK = 0.5

_INCUMBENT_REEVAL_PERIOD = 10


@dataclass(frozen=True)
class OptimizerConfig:
    method: str = "nelder_mead"  # or "grid_then_nelder_mead"
    max_evaluations: int = 200
    tolerance: float = 1e-4
    initial: tuple[float, ...] | None = None
    grid_resolution: int = 12
    restarts: int = 1
    noisy: bool = False  # re-evaluate the incumbent every 10 iterations

    def __post_init__(self) -> None:
        if self.method not in ("nelder_mead", "grid_then_nelder_mead"):
            raise ConfigError(f"unknown optimizer method '{self.method}'")
        if self.max_evaluations < 1:
            raise ConfigError("max_evaluations must be >= 1")
        if self.tolerance <= 0:
            raise ConfigError("tolerance must be > 0")
        if self.restarts < 1:
            raise ConfigError("restarts must be >= 1")
        if self.grid_resolution < 2:
            raise ConfigError("grid_resolution must be >= 2")


@dataclass(frozen=True, eq=False)
class OptimizationTrace:
    """Every evaluated point with its raw value, in order, and the best one.

    Points are kept as rows of flat angles (gammas, then betas) rather than
    as ``QaoaParams`` objects, so that many traces held at once stay small.
    """

    points: np.ndarray  # (num_evaluations, 2p), read-only
    values: np.ndarray  # (num_evaluations,), non-finite values included
    best_params: QaoaParams
    best_value: float

    def __post_init__(self) -> None:
        self.points.setflags(write=False)
        self.values.setflags(write=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OptimizationTrace):
            return NotImplemented
        return (
            np.array_equal(self.points, other.points)
            and np.array_equal(self.values, other.values, equal_nan=True)
            and self.best_params == other.best_params
            and self.best_value == other.best_value
        )

    @property
    def num_evaluations(self) -> int:
        return len(self.values)

    @property
    def evaluations(self) -> tuple[tuple[QaoaParams, float], ...]:
        return tuple(
            (QaoaParams.from_flat(x), v) for x, v in zip(self.points, self.values.tolist())
        )

    @property
    def evaluation_errors(self) -> int:
        return int(np.count_nonzero(~np.isfinite(self.values)))

    def running_best(self) -> list[float]:
        best = math.inf
        out = []
        for v in self.values.tolist():
            if math.isfinite(v) and v < best:
                best = v
            out.append(best)
        return out


class _Budget:
    """Records the evaluated points and values; enforces the budget."""

    def __init__(self, limit: int, dim: int):
        self.limit = limit
        self.used = 0
        self.points = np.empty((limit, dim))
        self.values = np.empty(limit)

    @property
    def exhausted(self) -> bool:
        return self.used >= self.limit

    def evaluate(self, x: np.ndarray) -> Generator[np.ndarray, float, float]:
        """Yield the point, receive its objective value, record both."""
        raw = float((yield x))
        self.points[self.used] = x
        self.values[self.used] = raw
        self.used += 1
        return raw if math.isfinite(raw) else math.inf


def noiseless_evaluator(poly: SpinPolynomial) -> Callable[[QaoaParams], float]:
    """Expectation of the cost over the exact ansatz state."""

    def evaluate(params: QaoaParams) -> float:
        return expectation(build_qaoa_state(poly, params), poly)

    return evaluate


def _spans(p: int) -> np.ndarray:
    return np.array([GAMMA_SPAN] * p + [BETA_SPAN] * p)


def _random_point(rng: np.random.Generator, p: int) -> np.ndarray:
    return rng.random(2 * p) * _spans(p)


def _nelder_mead(
    budget: _Budget,
    x0: np.ndarray,
    p: int,
    tolerance: float,
    noisy: bool,
) -> Generator[np.ndarray, float, None]:
    """Minimize within the budget; trace carries all state we report."""
    dim = 2 * p
    spans = _spans(p)

    simplex = [np.array(x0, dtype=float)]
    for i in range(dim):
        step = 0.1 * spans[i]
        vertex = simplex[0].copy()
        vertex[i] += step if vertex[i] + step < spans[i] else -step
        simplex.append(vertex)
    values = []
    for v in simplex:
        if budget.exhausted:
            return
        values.append((yield from budget.evaluate(v)))

    iteration = 0
    while not budget.exhausted:
        order = np.argsort(np.array(values), kind="stable")
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]

        finite = [v for v in values if math.isfinite(v)]
        if len(finite) == len(values) and max(values) - min(values) < tolerance:
            return

        iteration += 1
        if noisy and iteration % _INCUMBENT_REEVAL_PERIOD == 0:
            if budget.exhausted:
                return
            values[0] = yield from budget.evaluate(simplex[0])
            continue

        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]

        reflected = centroid + _REFLECT * (centroid - worst)
        if budget.exhausted:
            return
        f_r = yield from budget.evaluate(reflected)

        if f_r < values[0]:
            expanded = centroid + _EXPAND * (centroid - worst)
            if budget.exhausted:
                simplex[-1], values[-1] = reflected, f_r
                return
            f_e = yield from budget.evaluate(expanded)
            if f_e < f_r:
                simplex[-1], values[-1] = expanded, f_e
            else:
                simplex[-1], values[-1] = reflected, f_r
        elif f_r < values[-2]:
            simplex[-1], values[-1] = reflected, f_r
        else:
            if f_r < values[-1]:
                contracted = centroid + _CONTRACT * (reflected - centroid)
            else:
                contracted = centroid + _CONTRACT * (worst - centroid)
            if budget.exhausted:
                return
            f_c = yield from budget.evaluate(contracted)
            if f_c < min(f_r, values[-1]):
                simplex[-1], values[-1] = contracted, f_c
            else:
                # shrink toward the best vertex
                for i in range(1, len(simplex)):
                    simplex[i] = simplex[0] + _SHRINK * (simplex[i] - simplex[0])
                    if budget.exhausted:
                        return
                    values[i] = yield from budget.evaluate(simplex[i])


def _grid_scan(
    budget: _Budget, resolution: int
) -> Generator[np.ndarray, float, np.ndarray | None]:
    """Coarse p=1 scan; returns the best (gamma, beta) found."""
    best_x: np.ndarray | None = None
    best_v = math.inf
    for gi in range(resolution):
        for bi in range(resolution):
            if budget.exhausted:
                return best_x
            x = np.array(
                [GAMMA_SPAN * gi / resolution, BETA_SPAN * bi / resolution]
            )
            v = yield from budget.evaluate(x)
            if v < best_v:
                best_v, best_x = v, x
    return best_x


def _optimization(
    p: int, cfg: OptimizerConfig, seed: int
) -> Generator[np.ndarray, float, OptimizationTrace]:
    """One run of ``optimize``: yields points, receives their values."""
    budget = _Budget(cfg.max_evaluations, 2 * p)

    # start points in priority order: grid scan result, explicit initial,
    # then seeded random points, truncated to the configured restart count
    starts: list[np.ndarray] = []
    if cfg.method == "grid_then_nelder_mead" and p == 1:
        grid_budget = min(cfg.grid_resolution**2, max(1, cfg.max_evaluations // 2))
        saved_limit = budget.limit
        budget.limit = grid_budget
        best = yield from _grid_scan(budget, cfg.grid_resolution)
        budget.limit = saved_limit
        if best is not None:
            starts.append(best)
    if cfg.initial is not None:
        starts.append(np.array(cfg.initial, dtype=float))
    for r in range(cfg.restarts):
        if len(starts) >= cfg.restarts:
            break
        starts.append(_random_point(rng_from(seed, "nm-start", r), p))
    starts = starts[: cfg.restarts]

    per_start = max(1, (budget.limit - budget.used) // len(starts))
    for i, x0 in enumerate(starts):
        cap = budget.used + per_start if i < len(starts) - 1 else budget.limit
        saved_limit = budget.limit
        budget.limit = min(cap, saved_limit)
        yield from _nelder_mead(budget, x0, p, cfg.tolerance, cfg.noisy)
        budget.limit = saved_limit
        if budget.exhausted:
            break

    values = budget.values[: budget.used]
    finite = [(v, i) for i, v in enumerate(values.tolist()) if math.isfinite(v)]
    if not finite:
        raise ConfigError("optimizer saw no finite objective value")
    best_v, best_i = min(finite)
    points = budget.points[: budget.used]
    return OptimizationTrace(
        points=points,
        values=values,
        best_params=QaoaParams.from_flat(points[best_i]),
        best_value=float(best_v),
    )


def optimize_batch(
    poly: SpinPolynomial,
    p: int,
    evaluator: Callable[[QaoaParams], float] | None,
    cfg: OptimizerConfig,
    seeds: Sequence[int],
) -> list[OptimizationTrace]:
    """One ``optimize`` run per seed, all advanced in lockstep.

    Each step collects the next point of every unfinished run.  The
    default noiseless objective evaluates them in one ``qaoa_expectations``
    call; a custom ``evaluator`` is called point by point in seed order.
    Trace i equals ``optimize(poly, p, evaluator, cfg, seeds[i])``.
    """
    if p < 1:
        raise ConfigError(f"p must be >= 1, got {p}")
    if cfg.initial is not None and len(cfg.initial) != 2 * p:
        raise ConfigError(
            f"initial point has {len(cfg.initial)} values, expected {2 * p}"
        )
    traces: list[OptimizationTrace | None] = [None] * len(seeds)
    runs = [(i, _optimization(p, cfg, seed)) for i, seed in enumerate(seeds)]
    values: Sequence[float | None] = [None] * len(runs)
    while runs:
        pending = []
        for (i, run), value in zip(runs, values):
            try:
                pending.append((i, run, run.send(value)))
            except StopIteration as done:
                traces[i] = done.value
        points = [point for _, _, point in pending]
        if not points:
            break
        if evaluator is None:
            values = qaoa_expectations(poly, points)
        else:
            values = [evaluator(QaoaParams.from_flat(point)) for point in points]
        runs = [(i, run) for i, run, _ in pending]
    return traces


def optimize(
    poly: SpinPolynomial,
    p: int,
    evaluator: Callable[[QaoaParams], float] | None,
    cfg: OptimizerConfig,
    seed: int = 0,
) -> OptimizationTrace:
    """Minimize the evaluator over 2p angles; deterministic under seed.

    ``evaluator`` defaults to the noiseless expectation for ``poly``.
    Restarts split the evaluation budget evenly; the best point across the
    whole trace wins.  Non-finite objective values stay in the trace but
    never become the incumbent.
    """
    return optimize_batch(poly, p, evaluator, cfg, [seed])[0]
