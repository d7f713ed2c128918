"""Classical outer loop: derivative-free minimization of the cost landscape.

Nelder-Mead over the 2p angle parameters, optionally seeded by a coarse
grid scan at p=1.  The objective is the noiseless expectation; noise
enters through the compiler and the H-Score, not here.  Every objective
call is recorded in the trace and counted against the evaluation budget,
which makes runs reproducible.  Each run is a generator that yields points
and receives their values, so ``optimize_batch`` can advance many seeded
runs in lockstep and evaluate each step's points in one kernel call; the
seed-free grid points are evaluated once per batch.  A run keeps its
simplex as Python floats, computed in numpy's operation order so traces
match array state bit for bit, and records its trace as flat doubles.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Generator, Sequence
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from ._seeds import rng_from
from .errors import ConfigError
from .problem import SpinPolynomial
from .simulator import QaoaParams, qaoa_expectations

GAMMA_SPAN = 2.0 * math.pi  # search box: gamma in [0, 2pi)
BETA_SPAN = math.pi  # beta in [0, pi)

# standard Nelder-Mead coefficients
_REFLECT = 1.0
_EXPAND = 2.0
_CONTRACT = 0.5
_SHRINK = 0.5


@dataclass(frozen=True)
class OptimizerConfig:
    method: str = "nelder_mead"  # or "grid_then_nelder_mead"
    max_evaluations: int = 200
    tolerance: float = 1e-4
    initial: tuple[float, ...] | None = None
    grid_resolution: int = 12
    restarts: int = 1

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


_Point = tuple[float, ...]
_Run = Generator[_Point, float, None]


def _spans(p: int) -> list[float]:
    return [GAMMA_SPAN] * p + [BETA_SPAN] * p


def _step(a: _Point, k: float, b: _Point, c: _Point) -> _Point:
    """a + k * (b - c), coordinate by coordinate."""
    return tuple([x + k * (y - z) for x, y, z in zip(a, b, c)])


def _nelder_mead(x0: _Point, p: int, tolerance: float) -> _Run:
    """Minimize until converged: yields points, receives their values, non-finite as inf.

    The run does not count its evaluations; its caller stops it at its cap.
    """
    dim = 2 * p
    spans = _spans(p)

    simplex = [x0]
    for i in range(dim):
        step = 0.1 * spans[i]
        vertex = list(x0)
        vertex[i] += step if vertex[i] + step < spans[i] else -step
        simplex.append(tuple(vertex))
    values = []
    for v in simplex:
        values.append((yield v))

    while True:
        order = sorted(range(dim + 1), key=values.__getitem__)  # stable: ties keep their order
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]

        if all(map(math.isfinite, values)) and max(values) - min(values) < tolerance:
            return

        # rows added in order, then divided, as np.mean(axis=0); sum() and fsum round otherwise
        centroid = tuple([reduce(add, column) / dim for column in zip(*simplex[:-1])])
        worst = simplex[-1]

        reflected = _step(centroid, _REFLECT, centroid, worst)
        f_r = yield reflected

        if f_r < values[0]:
            expanded = _step(centroid, _EXPAND, centroid, worst)
            f_e = yield expanded
            simplex[-1], values[-1] = (expanded, f_e) if f_e < f_r else (reflected, f_r)
        elif f_r < values[-2]:
            simplex[-1], values[-1] = reflected, f_r
        else:
            inner = reflected if f_r < values[-1] else worst
            contracted = _step(centroid, _CONTRACT, inner, centroid)
            f_c = yield contracted
            if f_c < min(f_r, values[-1]):
                simplex[-1], values[-1] = contracted, f_c
            else:
                # shrink toward the best vertex
                for i in range(1, len(simplex)):
                    simplex[i] = _step(simplex[0], _SHRINK, simplex[i], simplex[0])
                    values[i] = yield simplex[i]


def _grid_points(p: int, cfg: OptimizerConfig) -> list[_Point]:
    """The p=1 grid points the scan's budget reaches, row by row; only those are built."""
    if cfg.method != "grid_then_nelder_mead" or p != 1:
        return []
    res = cfg.grid_resolution
    count = min(res**2, max(1, cfg.max_evaluations // 2))
    return [(GAMMA_SPAN * (j // res) / res, BETA_SPAN * (j % res) / res) for j in range(count)]


def _best_index(values: array) -> int | None:
    """Index of the first lowest finite value, or None if none is finite."""
    finite = [(v, i) for i, v in enumerate(values) if math.isfinite(v)]
    return min(finite)[1] if finite else None


def _optimization(
    p: int, cfg: OptimizerConfig, seed: int, grid: list[_Point], grid_values: list[float]
) -> Generator[_Point, float, OptimizationTrace]:
    """One run of ``optimize``, its grid already evaluated: yields points, receives values.

    Every evaluated point and its raw value are recorded; each Nelder-Mead
    search is stopped when the evaluation budget, or its share of it, is spent.
    """
    dim, limit = 2 * p, cfg.max_evaluations
    # flat doubles grown as used: the limit may be huge, many runs alive at once
    points = array("d", [c for x in grid for c in x])
    values = array("d", grid_values)

    def point(i: int) -> _Point:
        return tuple(points[i * dim : (i + 1) * dim])

    # start points in priority order: grid scan result, explicit initial,
    # then seeded random points, truncated to the configured restart count
    starts: list[_Point] = []
    best = _best_index(values)
    if best is not None:
        starts.append(point(best))
    if cfg.initial is not None:
        starts.append(tuple(float(x) for x in cfg.initial))
    for r in range(cfg.restarts - len(starts)):
        rng = rng_from(seed, "nm-start", r)
        starts.append(tuple((rng.random(dim) * _spans(p)).tolist()))
    starts = starts[: cfg.restarts]

    per_start = max(1, (limit - len(values)) // len(starts))
    for i, x0 in enumerate(starts):
        cap = min(len(values) + per_start, limit) if i < len(starts) - 1 else limit
        run = _nelder_mead(x0, p, cfg.tolerance)
        value = None
        for _ in range(cap - len(values)):
            try:
                x = run.send(value)
            except StopIteration:
                break
            raw = float((yield x))
            points.extend(x)
            values.append(raw)
            value = raw if math.isfinite(raw) else math.inf

    best = _best_index(values)
    if best is None:
        raise ConfigError("optimizer saw no finite objective value")
    return OptimizationTrace(
        points=np.array(points).reshape(-1, dim),
        values=np.array(values),
        best_params=QaoaParams.from_flat(point(best)),
        best_value=values[best],
    )


def _step_values(poly: SpinPolynomial, points: list[_Point]) -> list[float]:
    """Noiseless expectations of one step's points, in order.

    A point a step took out of the finite range is not evaluated: it scores
    NaN, a failed evaluation, and the other points keep their values.
    """
    finite = [all(map(math.isfinite, x)) for x in points]
    kept = [x for x, ok in zip(points, finite) if ok]
    got = iter(qaoa_expectations(poly, kept).tolist() if kept else ())
    return [next(got) if ok else math.nan for ok in finite]


def optimize_batch(
    poly: SpinPolynomial,
    p: int,
    cfg: OptimizerConfig,
    seeds: Sequence[int],
) -> list[OptimizationTrace]:
    """One ``optimize`` run per seed, all advanced in lockstep.

    The grid scan is the same for every run, so its points are evaluated
    once, in one ``qaoa_expectations`` call.  Then each step collects the
    next point of every unfinished run and evaluates them in one
    ``qaoa_expectations`` call.  Trace i equals
    ``optimize(poly, p, cfg, seeds[i])``.
    """
    if p < 1:
        raise ConfigError(f"p must be >= 1, got {p}")
    if cfg.initial is not None and len(cfg.initial) != 2 * p:
        raise ConfigError(f"initial point has {len(cfg.initial)} values, expected {2 * p}")
    grid = _grid_points(p, cfg) if seeds else []
    grid_values = qaoa_expectations(poly, grid).tolist() if grid else []
    traces: list[OptimizationTrace | None] = [None] * len(seeds)
    runs = [(i, _optimization(p, cfg, s, grid, grid_values)) for i, s in enumerate(seeds)]
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
        values = _step_values(poly, points)
        runs = [(i, run) for i, run, _ in pending]
    return traces


def optimize(
    poly: SpinPolynomial,
    p: int,
    cfg: OptimizerConfig,
    seed: int = 0,
) -> OptimizationTrace:
    """Minimize the noiseless expectation of ``poly`` over 2p angles;
    deterministic under seed.

    Restarts split the evaluation budget evenly; the best point across the
    whole trace wins.  Non-finite objective values stay in the trace but
    never become the incumbent.
    """
    return optimize_batch(poly, p, cfg, [seed])[0]
