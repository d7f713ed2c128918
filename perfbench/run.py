"""Benchmark entry point: one workload, one seed, one report line.

    python3 perfbench/run.py --workload fleet_split --seed 1 --seconds 50 --trace 0

Run from the root of a checkout.  Set-up is timed over many fresh
processes (spawn to ``ready``: interpreter start, importing qdisco from
``src``, generating inputs, loading calibrations and configs), half of
them before and half after the worker process that runs the timed
rounds, and reported as their median.
Every child runs single-threaded with a fixed hash seed.  The last line of
standard output is the JSON result; the full report, per-layer metrics
and call tree included, goes to ``perfbench/out/<workload>[-trace].json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
OUT_DIR = HERE / "out"
WORKLOADS = ("hscore_ring6", "fleet_split")
SETUP_SAMPLES = 24  # set-up probes, half before and half after the timed rounds
SETUP_ALLOWANCE_S = 60.0  # the run may take this much longer than twice --seconds

SINGLE_THREAD = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(SINGLE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def spawn(args: argparse.Namespace, deadline: float, setup_only: bool) -> tuple[float, str]:
    """Start a worker; return its spawn-to-ready time and the rest of its output."""
    cmd = [
        sys.executable,
        str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        if ready.strip() != "ready":
            raise BenchError(f"worker did not get ready: {ready!r}")
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker ran past the deadline") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return setup, rest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (SRC / "qdisco" / "__init__.py").is_file():
        print(f"error: no qdisco sources under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    deadline = time.monotonic() + 2 * args.seconds + SETUP_ALLOWANCE_S
    probes = 0 if args.trace else SETUP_SAMPLES // 2
    try:
        if probes:
            # the first probe also fills the bytecode cache; it is not counted
            spawn(args, deadline, setup_only=True)
        setups = [spawn(args, deadline, setup_only=True)[0] for _ in range(probes)]
        setup, out = spawn(args, deadline, setup_only=False)
        setups.append(setup)
        setups += [spawn(args, deadline, setup_only=True)[0] for _ in range(probes)]
        report = json.loads(out.strip().splitlines()[-1])
    except (BenchError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    values = dict(report["metrics"])
    values["setup_s"] = statistics.median(setups)
    missing = sorted(set(declared) - set(values))
    if missing:
        print(f"error: worker did not report {missing}", file=sys.stderr)
        return 1
    for message in report["errors"]:
        print(f"check failed: {message}", file=sys.stderr)
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-trace.json" if args.trace else f"{args.workload}.json"
    full = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "setup_samples_s": setups, **report, **result}
    (OUT_DIR / name).write_text(json.dumps(full, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
