"""Classical outer loop: derivative-free minimization of the cost landscape.

Nelder-Mead over the 2p angle parameters, optionally seeded by a coarse
grid scan at p=1.  The objective is the noiseless expectation; noise
enters through the compiler and the H-Score, not here.  Every objective
call is recorded in the trace and counted against the evaluation budget,
which makes runs reproducible.  Each run is one generator that yields
points and receives their values; each Nelder-Mead search in it records
its own trace and budget.  So ``optimize_batch`` can advance many seeded
runs in lockstep and evaluate each step's points as one (B, 2p) array in
one kernel call; the seed-free grid points are evaluated once per batch.
A run keeps its simplex as Python floats, computed in numpy's operation
order so traces match array state bit for bit, and records its trace as
flat doubles.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from collections.abc import Generator, Sequence
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from ._fields import number
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


FIELD_RANGES = {  # each numeric field's kind and range, for code and config files alike
    "max_evaluations": (int, 1, math.inf),
    "tolerance": (float, math.ulp(0.0), math.inf),
    "grid_resolution": (int, 2, math.inf),
    "restarts": (int, 1, math.inf),
}
# a grid scan holds all its points and evaluates them in one call
GRID_POINT_LIMIT = 2**20


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
        for name, (kind, low, high) in FIELD_RANGES.items():
            value = number(kind, getattr(self, name), f"optimizer.{name}", ConfigError, low, high)
            object.__setattr__(self, name, value)
        scan = _grid_size(self.grid_resolution, self.max_evaluations)
        if self.method == "grid_then_nelder_mead" and scan > GRID_POINT_LIMIT:
            raise ConfigError(
                f"field 'optimizer.grid_resolution' must be small enough for a grid scan of "
                f"at most {GRID_POINT_LIMIT} points, min(grid_resolution^2, max_evaluations // 2); "
                f"got {self.grid_resolution} at max_evaluations {self.max_evaluations}"
            )


@dataclass(frozen=True, eq=False)
class OptimizationTrace:
    """Every evaluated point with its raw value, in order, and the best one.

    Points are kept as rows of flat angles (gammas, then betas) rather than
    as ``QaoaParams`` objects, so that many traces held at once stay small.
    """

    points: np.ndarray  # (num_evaluations, 2p), read-only; a step may overflow to inf or NaN
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
            np.array_equal(self.points, other.points, equal_nan=True)
            and np.array_equal(self.values, other.values, equal_nan=True)
            and self.best_params == other.best_params
            and self.best_value == other.best_value
        )

    @property
    def num_evaluations(self) -> int:
        return len(self.values)


_Point = tuple[float, ...]


def _spans(p: int) -> list[float]:
    return [GAMMA_SPAN] * p + [BETA_SPAN] * p


def _step(a: _Point, k: float, b: _Point, c: _Point) -> _Point:
    """a + k * (b - c), coordinate by coordinate."""
    return tuple([x + k * (y - z) for x, y, z in zip(a, b, c)])


def _nelder_mead(
    x0: _Point, p: int, tolerance: float, points: array, values: array, cap: int
) -> Generator[_Point, float, None]:
    """Minimize from ``x0``: yields points, receives their raw values.

    Each point and its raw value are appended to ``points`` and ``values``;
    the run stops when it converges or when ``values`` holds ``cap``
    entries.  Its vertices score a non-finite value as inf and stay in the
    order a stable sort by score gives, built by insertion: each after
    every vertex of a lower or equal score.
    """
    simplex: list[_Point] = []
    scores: list[float] = []

    def record(x: _Point, raw: float) -> float:
        points.extend(x)
        values.append(raw)
        return raw if math.isfinite(raw) else math.inf

    def insert(x: _Point, score: float) -> None:
        k = bisect_right(scores, score)
        simplex.insert(k, x)
        scores.insert(k, score)

    dim = 2 * p
    spans = _spans(p)
    vertices = [x0]
    for i in range(dim):
        step = 0.1 * spans[i]
        vertex = list(x0)
        vertex[i] += step if vertex[i] + step < spans[i] else -step
        vertices.append(tuple(vertex))
    for v in vertices:
        if len(values) >= cap:
            return
        insert(v, record(v, (yield v)))

    # sorted, so the spread is last minus first; with an inf score it is inf or NaN
    while len(values) < cap and not scores[-1] - scores[0] < tolerance:
        # rows added in order, then divided, as np.mean(axis=0); sum() and fsum round otherwise
        centroid = tuple([reduce(add, column) / dim for column in zip(*simplex[:-1])])
        worst = simplex[-1]
        reflected = _step(centroid, _REFLECT, centroid, worst)
        f_r = record(reflected, (yield reflected))
        if scores[0] <= f_r < scores[-2]:
            x, f = reflected, f_r
        elif len(values) >= cap:
            return
        elif f_r < scores[0]:
            expanded = _step(centroid, _EXPAND, centroid, worst)
            f_e = record(expanded, (yield expanded))
            x, f = (expanded, f_e) if f_e < f_r else (reflected, f_r)
        else:
            inner = reflected if f_r < scores[-1] else worst
            contracted = _step(centroid, _CONTRACT, inner, centroid)
            f_c = record(contracted, (yield contracted))
            if f_c < min(f_r, scores[-1]):
                x, f = contracted, f_c
            else:
                # shrink toward the best vertex
                best, shrunk = simplex[0], simplex[1:]
                del simplex[1:], scores[1:]
                for v in shrunk:
                    if len(values) >= cap:
                        return
                    x = _step(best, _SHRINK, v, best)
                    insert(x, record(x, (yield x)))
                continue
        del simplex[-1], scores[-1]
        insert(x, f)


def _grid_size(resolution: int, budget: int) -> int:
    """How many points of the res x res grid the scan evaluates: at most half the budget."""
    return min(resolution**2, max(1, budget // 2))


def _grid_points(p: int, cfg: OptimizerConfig) -> list[_Point]:
    """The p=1 grid points the scan's budget reaches, row by row; only those are built."""
    if cfg.method != "grid_then_nelder_mead" or p != 1:
        return []
    res = cfg.grid_resolution
    count = _grid_size(res, cfg.max_evaluations)
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
    # then seeded random points, truncated to the configured restart count and
    # to the budget left; with more starts than that each gets one evaluation
    # and the rest none, so the dropped ones change neither per_start (1) nor
    # the last reached start's cap (limit)
    count = min(cfg.restarts, max(1, limit - len(values)))
    starts: list[_Point] = []
    best = _best_index(values)
    if best is not None:
        starts.append(point(best))
    if cfg.initial is not None:
        starts.append(tuple(float(x) for x in cfg.initial))
    for r in range(count - len(starts)):
        rng = rng_from(seed, "nm-start", r)
        starts.append(tuple((rng.random(dim) * _spans(p)).tolist()))
    starts = starts[:count]

    per_start = max(1, (limit - len(values)) // len(starts))
    for i, x0 in enumerate(starts):
        cap = min(len(values) + per_start, limit) if i < len(starts) - 1 else limit
        yield from _nelder_mead(x0, p, cfg.tolerance, points, values, cap)

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
    """Noiseless expectations of one step's points, built as one (B, 2p) array, in order.

    A point a step took out of the finite range is not evaluated: it scores
    NaN, a failed evaluation, and the other points keep their values.
    """
    rows = np.array(points, dtype=np.float64)
    if np.isfinite(rows).all():
        return qaoa_expectations(poly, rows).tolist()
    finite = np.isfinite(rows).all(axis=1)
    out = np.full(len(rows), math.nan)
    out[finite] = qaoa_expectations(poly, rows[finite])
    return out.tolist()


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

    Restarts split the evaluation budget evenly, and only as many start
    points are built as the budget left after the grid can evaluate; the
    best point across the whole trace wins.  Non-finite objective values
    stay in the trace but never become the incumbent.
    """
    return optimize_batch(poly, p, cfg, [seed])[0]
