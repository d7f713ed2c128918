"""Span recorder for the traced benchmark run.

The tracer replaces every public function of the qdisco layer modules,
under each name a qdisco module bound it to at import (for example
``qdisco.optimizer.build_qaoa_state`` and ``qdisco.hscore.noisy_sample``),
with a wrapper that records a span: function, binding module, parent span,
start and end.  Spans stay in memory; ``metrics`` turns one round's spans
into self times and counts per layer.  Nothing in qdisco changes on disk.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

LAYERS = (
    "cli",
    "hardware",
    "problem",
    "optimizer",
    "simulator",
    "compiler",
    "decomposer",
    "hscore",
    "orchestrator",
)


def _public_functions(module) -> dict[str, object]:
    """Public functions defined in ``module``, lru-cached ones included."""
    found = {}
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        target = getattr(obj, "__wrapped__", obj)
        if inspect.isfunction(target) and target.__module__ == module.__name__:
            found[name] = obj
    return found


class Tracer:
    """Wraps qdisco's public functions; records spans while installed."""

    def __init__(self) -> None:
        self._keys: list[tuple[str, str, str]] = []  # (layer, function, bound in)
        self._patches: list[tuple[object, str, object, object]] = []
        self.counts: dict[str, float] = {}
        self._cost_vector = sys.modules["qdisco.problem"].cost_vector
        self.reset()
        self._prepare()

    def reset(self) -> None:
        self._key = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self.counts = {}

    # -- wrapping ---------------------------------------------------------

    def _prepare(self) -> None:
        originals: dict[int, tuple[str, str]] = {}
        for layer in LAYERS:
            module = sys.modules[f"qdisco.{layer}"]
            for name, fn in _public_functions(module).items():
                originals[id(fn)] = (layer, name)
        for modname, module in sorted(sys.modules.items()):
            if not modname.startswith("qdisco.") or module is None:
                continue
            bound_in = modname.split(".", 1)[1]
            for attr, obj in list(vars(module).items()):
                where = originals.get(id(obj))
                if where is None:
                    continue
                key = len(self._keys)
                self._keys.append((where[0], where[1], bound_in))
                self._patches.append((module, attr, obj, self._wrap(obj, key, where)))

    def _wrap(self, fn, key: int, where: tuple[str, str]):
        hook = _COUNT_HOOKS.get(f"{where[0]}.{where[1]}")
        signature = inspect.signature(fn) if hook else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self._key)
            self._key.append(key)
            self._parent.append(self._stack[-1] if self._stack else -1)
            self._start.append(0.0)
            self._end.append(0.0)
            self._stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end[index] = clock()
                self._start[index] = start
                self._stack.pop()
            if hook is not None:
                hook(self.counts, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, _, wrapped in self._patches:
            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    @property
    def bindings(self) -> list[str]:
        return sorted(f"qdisco.{b}.{f} -> {l}" for l, f, b in self._keys)

    # -- aggregation --------------------------------------------------------

    def metrics(self, round_wall: float) -> tuple[dict[str, float], list[dict]]:
        """Per-layer metrics of the spans recorded since ``reset``.

        Returns the metrics and a call tree aggregated by (parent, span)
        name, which the benchmark writes next to its report.
        """
        n = len(self._key)
        dur = [self._end[i] - self._start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self._parent[i]
            if p >= 0:
                child[p] += dur[i]
        incl: dict[tuple[str, str, str], float] = {}
        calls: dict[tuple[str, str, str], int] = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        fn_self: dict[tuple[str, str], float] = {}
        from_parent: dict[tuple[str, str], float] = {}  # (parent fn, fn) -> inclusive
        edges: dict[tuple[str, str], list[float]] = {}
        for i in range(n):
            key = self._keys[self._key[i]]
            layer, fn, _ = key
            incl[key] = incl.get(key, 0.0) + dur[i]
            calls[key] = calls.get(key, 0) + 1
            own = dur[i] - child[i]
            layer_self[layer] += own
            fn_self[(layer, fn)] = fn_self.get((layer, fn), 0.0) + own
            p = self._parent[i]
            parent = "" if p < 0 else "%s.%s" % self._keys[self._key[p]][:2]
            name = f"{layer}.{fn}"
            from_parent[(parent, name)] = from_parent.get((parent, name), 0.0) + dur[i]
            entry = edges.setdefault((parent, f"{name}@{key[2]}"), [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += dur[i]
            entry[2] += own

        def total(layer: str, fn: str, bound_in: str | None = None) -> float:
            return sum(v for (l, f, b), v in incl.items() if l == layer and f == fn and bound_in in (None, b))

        def count(layer: str, fn: str) -> int:
            return sum(v for (l, f, _), v in calls.items() if l == layer and f == fn)

        c = self.counts
        evaluate_s = sum(v for (l, _, b), v in incl.items() if l == "simulator" and b == "optimizer")
        evaluations = c.get("evaluations", 0)
        noisy_s = total("simulator", "noisy_sample")
        trajectories = c.get("trajectories", 0)
        cv_calls = count("problem", "cost_vector")
        # the benchmark clears qdisco's caches before every round, so the
        # cache's miss count is the number of cost vectors built in it
        cv_builds = self._cost_vector.cache_info().misses
        self_total = sum(layer_self.values())
        m = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
        m.update(
            {
                "optimizer.evaluations": evaluations,
                "optimizer.optimize_calls": count("optimizer", "optimize"),
                "simulator.evaluate_s": evaluate_s,
                "simulator.eval_us": 1e6 * evaluate_s / evaluations if evaluations else 0.0,
                "simulator.noisy_sample_s": noisy_s,
                "simulator.trajectories": trajectories,
                "simulator.trajectory_ms": 1e3 * noisy_s / trajectories if trajectories else 0.0,
                "simulator.sample_s": total("simulator", "sample"),
                "compiler.noise_points": c.get("noise_points", 0),
                "compiler.filter_s": total("compiler", "filter_by_threshold"),
                "compiler.enumerate_s": total("compiler", "enumerate_regions"),
                "compiler.candidates": c.get("candidates", 0),
                "compiler.select_s": total("compiler", "select_regions"),
                "compiler.map_circuit_s": total("compiler", "map_circuit"),
                "compiler.swaps": c.get("swaps", 0),
                "decomposer.mincut_s": total("decomposer", "balanced_mincut"),
                "decomposer.mincut_calls": count("decomposer", "balanced_mincut"),
                "decomposer.cut_weight": c.get("cut_weight", 0.0),
                "decomposer.extract_s": total("decomposer", "extract_subproblems"),
                "decomposer.merge_s": total("decomposer", "merge_solutions"),
                "decomposer.merge_parts": c.get("merge_parts", 0),
                "orchestrator.plan_s": total("orchestrator", "plan") + total("orchestrator", "plan_polynomial"),
                "orchestrator.execute_self_s": fn_self.get(("orchestrator", "execute"), 0.0),
                "orchestrator.leaves": c.get("leaves", 0),
                "orchestrator.regions": c.get("regions", 0),
                "orchestrator.modelled_speedup": c["speedup_sum"] / c["runs"] if c.get("runs") else 0.0,
                "problem.evaluate_cost_calls": count("problem", "evaluate_cost"),
                "problem.evaluate_cost_s": total("problem", "evaluate_cost"),
                "problem.cost_vector_builds": cv_builds,
                "problem.cost_vector_hit_ratio": (cv_calls - cv_builds) / cv_calls if cv_calls else 0.0,
                "hscore.reference_s": total("hscore", "build_reference"),
                "hscore.score_s": total("hscore", "benchmark_qpu")
                - from_parent.get(("hscore.benchmark_qpu", "hscore.build_reference"), 0.0),
                "hscore.accuracy_s": total("hscore", "accuracy"),
                "cli.load_run_config_s": total("cli", "load_run_config"),
                "hardware.load_calibration_s": total("hardware", "load_calibration"),
                "trace.wall_s": round_wall,
                "trace.spans": n,
                "trace.self_share": self_total / round_wall if round_wall > 0 else 0.0,
            }
        )
        tree = [
            {"parent": parent, "span": span, "calls": v[0], "total_s": v[1], "self_s": v[2]}
            for (parent, span), v in sorted(edges.items(), key=lambda kv: -kv[1][1])
        ]
        return m, tree


def _add(counts: dict, key: str, value) -> None:
    counts[key] = counts.get(key, 0) + value


def _noisy_sample(counts, args, result):
    _add(counts, "trajectories", min(args["noise"].trajectories, args["shots"]))


def _plan(counts, args, result):
    _add(counts, "leaves", result.num_leaves)
    _add(counts, "regions", result.num_regions)


def _execute(counts, args, result):
    _add(counts, "runs", 1)
    _add(counts, "speedup_sum", result.speedup)


def _route(counts, args, result):
    entries, _ = result
    _add(counts, "noise_points", sum(len(e.noise_points) for e in entries))


_COUNT_HOOKS = {
    "optimizer.optimize": lambda c, a, r: _add(c, "evaluations", r.num_evaluations),
    "simulator.noisy_sample": _noisy_sample,
    "compiler.route_phase_layer": _route,
    "compiler.enumerate_regions": lambda c, a, r: _add(c, "candidates", len(r)),
    "compiler.map_circuit": lambda c, a, r: _add(c, "swaps", r.swap_count),
    "decomposer.balanced_mincut": lambda c, a, r: _add(c, "cut_weight", r.cut_weight),
    "orchestrator.plan": _plan,
    "orchestrator.plan_polynomial": _plan,
    "orchestrator.execute": _execute,
    "decomposer.merge_solutions": lambda c, a, r: _add(c, "merge_parts", a["partition"].num_parts),
}
