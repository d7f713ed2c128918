"""One benchmark process: set up a workload, run timed rounds, check outputs.

``run.py`` starts this script with numpy/BLAS pinned to one thread and
qdisco importable from the checkout's ``src``.  With ``--setup-only`` it
prints ``ready`` once the workload is set up and exits, so the parent can
time set-up from process start.  Otherwise it runs whole rounds for about
``--seconds`` of measured time (stopping at the nearest round boundary) and
prints one JSON line; ``wall_s`` is the mean round time.  With
``--trace 1`` it alternates untraced and traced rounds.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import checks
import workloads
from tracer import Tracer

OUT_DIR = Path(__file__).resolve().parent / "out"


def clear_caches() -> None:
    """Drop qdisco's memo caches so every round starts like a fresh run."""
    for name, module in list(sys.modules.items()):
        if name.startswith("qdisco.") and module is not None:
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


def run(workload, seconds: float, trace: bool) -> dict:
    tracer = Tracer() if trace else None
    walls: list[float] = []
    op_walls: list[list[float]] = []
    traced_walls: list[float] = []
    layer_rounds: list[dict] = []
    call_tree: list[dict] = []
    attempted = failed = 0
    correct = True
    errors: list[str] = []
    first = None
    quality = None
    measured = 0.0
    i = 0
    while True:
        traced = trace and i % 2 == 1
        clear_caches()
        if traced:
            tracer.reset()
            tracer.install()
        outputs, times = [], []
        # the first round's outputs are checked; it also records what the checks need
        with workload.recording() if i == 0 else contextlib.nullcontext():
            for op in workload.ops:
                start = time.perf_counter()
                outputs.append(op())
                times.append(time.perf_counter() - start)
        wall = sum(times)
        if traced:
            tracer.uninstall()
            layer, tree = tracer.metrics(wall)
            layer_rounds.append(layer)
            call_tree = call_tree or tree
            traced_walls.append(wall)
        else:
            walls.append(wall)
            op_walls.append(times)
        measured += wall
        attempted += len(outputs)
        failed += sum(1 for o in outputs if o is None)
        fingerprint = workload.fingerprint(outputs)
        if first is None:
            first = fingerprint
            try:
                quality = workload.check(outputs)
            except checks.CheckFailed as exc:
                correct = False
                errors.append(str(exc))
        elif fingerprint != first:
            correct = False
            errors.append(f"round {i} output differs from round 0")
        i += 1
        # stop at the round boundary nearest to the measuring time
        if measured + wall / 2 >= seconds and (not trace or i >= 2):
            break

    report = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "round_walls": walls,
        "op_walls": op_walls,
    }
    if trace:
        metrics = {k: statistics.median(r[k] for r in layer_rounds) for k in layer_rounds[0]}
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        report["traced_round_walls"] = traced_walls
        report["call_tree"] = call_tree
        report["bindings"] = tracer.bindings
    else:
        metrics = {
            "wall_s": statistics.fmean(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "solution_quality": quality if quality is not None else 0.0,
        }
    report["metrics"] = metrics
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR / args.workload)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    report = run(workload, args.seconds, bool(args.trace))
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
