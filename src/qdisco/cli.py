"""Command-line surface: compile, partition, plan, run, benchmark, simulate.

Exit codes: 0 success, 1 domain error, 2 usage/configuration error.  All
randomness flows from one seed (--seed, else the QDISCO_SEED environment
variable, else 0).  Result payloads are deterministic byte-for-byte under
a fixed config and seed; timestamps live in a separate metadata file.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .compiler import enumerate_regions, filter_by_threshold, map_circuit, select_regions
from .decomposer import balanced_mincut, extract_subproblems
from .errors import ConfigError, QdiscoError
from .hardware import Fleet, QpuModel, load_calibration
from .hscore import benchmark_qpu
from .optimizer import OptimizerConfig, optimize
from .orchestrator import execute, plan, speedup_report
from .problem import ProblemInstance, parse_problem_json
from .simulator import QaoaParams, build_qaoa_state, expectation, sample


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _emit(doc: dict, out: Path | None) -> None:
    text = _dump(doc)
    if out is None:
        sys.stdout.write(text)
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)


def _eta_flag(value: str) -> float:
    try:
        eta = float(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {value!r}") from exc
    if not 0.0 < eta <= 1.0:
        raise argparse.ArgumentTypeError(f"--eta must be in (0, 1], got {eta}")
    return eta


def _positive_int(value: str) -> int:
    try:
        n = int(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {value!r}") from exc
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _capacities_flag(value: str) -> list[int]:
    try:
        caps = [int(x) for x in value.split(",") if x.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad capacities list {value!r}") from exc
    if not caps or any(c < 1 for c in caps):
        raise argparse.ArgumentTypeError(f"capacities must be positive, got {value!r}")
    return caps


def _layers_flag(value: str) -> list[int]:
    """Either a single integer or an inclusive range 'a..b'."""
    try:
        if ".." in value:
            lo, hi = value.split("..", 1)
            lo_i, hi_i = int(lo), int(hi)
            if lo_i < 1 or hi_i < lo_i:
                raise ValueError
            return list(range(lo_i, hi_i + 1))
        single = int(value)
        if single < 1:
            raise ValueError
        return [single]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"--layers takes p or a range like 1..3, got {value!r}"
        ) from exc


def _angles_flag(value: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in value.split(",") if x.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad angle list {value!r}") from exc


def _number(kind: type, value, field: str):
    """``kind(value)`` for a config field.

    Anything unconvertible, a JSON boolean, a non-finite value, or a
    fractional value for an integer field is a ConfigError rather than a
    silent conversion.
    """
    message = (
        f"config field '{field}' must be {'an integer' if kind is int else 'a finite number'}, "
        f"got {value!r}"
    )
    if isinstance(value, bool) or (
        kind is int and isinstance(value, float) and not value.is_integer()
    ):
        raise ConfigError(message)
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(message) from exc
    if not math.isfinite(number):
        raise ConfigError(message)
    return number


def _boolean(value, field: str) -> bool:
    """A config field that must be a JSON boolean (a string like "false" is not)."""
    if not isinstance(value, bool):
        raise ConfigError(f"config field '{field}' must be true or false, got {value!r}")
    return value


def _resolve_seed(explicit: int | None, configured=None) -> int:
    """The explicit seed, else the config's ``seed``, else QDISCO_SEED, else 0."""
    if explicit is not None:
        return explicit
    if configured is not None:
        return _number(int, configured, "seed")
    env = os.environ.get("QDISCO_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"QDISCO_SEED must be an integer, got {env!r}") from exc
    return 0


def _read_problem(path: str) -> ProblemInstance:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"problem file not found: {path}")
    return parse_problem_json(p.read_text())


def _read_qpu(path: str) -> QpuModel:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"calibration file not found: {path}")
    return load_calibration(p.read_text())


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration with all paths resolved."""

    problem: ProblemInstance
    fleet: Fleet
    eta: float
    p: int
    shots: int
    seed: int
    capacities: tuple[int, ...] | None
    noise: bool
    trajectories: int
    optimizer: OptimizerConfig
    with_hscore: bool
    hscore_m_ref: int


def load_run_config(path: str, seed_override: int | None = None) -> RunConfig:
    cfg_path = Path(path)
    if not cfg_path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(cfg_path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    base = cfg_path.parent

    def resolve(rel, field: str) -> Path:
        if not isinstance(rel, str):
            raise ConfigError(f"config field '{field}' must be a path string, got {rel!r}")
        candidate = Path(rel)
        return candidate if candidate.is_absolute() else base / candidate

    for required in ("problem", "fleet"):
        if required not in doc:
            raise ConfigError(f"config missing field '{required}'")

    problem = _read_problem(str(resolve(doc["problem"], "problem")))

    entries = doc["fleet"]
    if not isinstance(entries, list) or not entries:
        raise ConfigError("config field 'fleet' must be a non-empty list")
    qpus = []
    priors = {}
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "calibration" not in entry:
            raise ConfigError(f"fleet[{i}] needs a 'calibration' path")
        qpu = _read_qpu(str(resolve(entry["calibration"], f"fleet[{i}].calibration")))
        qpus.append(qpu)
        if "prior_hscore" in entry:
            priors[qpu.name] = _number(float, entry["prior_hscore"], f"fleet[{i}].prior_hscore")
    fleet = Fleet(tuple(qpus), priors)

    eta = _number(float, doc.get("eta", 0.01), "eta")
    if not 0.0 < eta <= 1.0:
        raise ConfigError(f"config field 'eta' must be in (0, 1], got {eta}")
    p = _number(int, doc.get("p", 1), "p")
    if p < 1:
        raise ConfigError(f"config field 'p' must be >= 1, got {p}")
    shots = _number(int, doc.get("shots", 1024), "shots")
    if shots < 1:
        raise ConfigError(f"config field 'shots' must be >= 1, got {shots}")
    trajectories = _number(int, doc.get("trajectories", 16), "trajectories")
    if trajectories < 1:
        raise ConfigError("config field 'trajectories' must be >= 1")

    capacities = None
    if doc.get("capacities") is not None:
        if not isinstance(doc["capacities"], list):
            raise ConfigError("config field 'capacities' must be a list")
        capacities = tuple(_number(int, c, "capacities") for c in doc["capacities"])
        if not capacities or any(c < 1 for c in capacities):
            raise ConfigError(f"config field 'capacities' must be positive, got {capacities}")

    opt_doc = doc.get("optimizer", {})
    if not isinstance(opt_doc, dict):
        raise ConfigError("config field 'optimizer' must be an object")
    initial = opt_doc.get("initial")
    if initial is not None:
        if not isinstance(initial, list):
            raise ConfigError(
                f"config field 'optimizer.initial' must be a list of numbers, got {initial!r}"
            )
        initial = tuple(_number(float, x, "optimizer.initial") for x in initial)
    optimizer = OptimizerConfig(
        method=opt_doc.get("method", "nelder_mead"),
        max_evaluations=_number(int, opt_doc.get("max_evaluations", 200), "optimizer.max_evaluations"),
        tolerance=_number(float, opt_doc.get("tolerance", 1e-4), "optimizer.tolerance"),
        initial=initial,
        grid_resolution=_number(int, opt_doc.get("grid_resolution", 12), "optimizer.grid_resolution"),
        restarts=_number(int, opt_doc.get("restarts", 1), "optimizer.restarts"),
        noisy=_boolean(opt_doc.get("noisy", False), "optimizer.noisy"),
    )

    hs_doc = doc.get("hscore", {})
    if not isinstance(hs_doc, dict):
        raise ConfigError("config field 'hscore' must be an object")

    return RunConfig(
        problem=problem,
        fleet=fleet,
        eta=eta,
        p=p,
        shots=shots,
        seed=_resolve_seed(seed_override, doc.get("seed")),
        capacities=capacities,
        noise=_boolean(doc.get("noise", True), "noise"),
        trajectories=trajectories,
        optimizer=optimizer,
        with_hscore=_boolean(hs_doc.get("enabled", False), "hscore.enabled"),
        hscore_m_ref=_number(int, hs_doc.get("m_ref", 100), "hscore.m_ref"),
    )


def _build_plan(cfg: RunConfig):
    return plan(
        cfg.problem.graph if cfg.problem.graph is not None else cfg.problem.polynomial,
        cfg.fleet,
        cfg.eta,
        cfg.p,
        cfg.shots,
        capacities=list(cfg.capacities) if cfg.capacities is not None else None,
        seed=cfg.seed,
    )


def _cmd_compile(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    instance = _read_problem(args.problem)
    qpu = _read_qpu(args.qpu)
    n = instance.num_spins
    fg = filter_by_threshold(qpu, args.eta)
    candidates = enumerate_regions(fg, n, seed=seed)
    regions = select_regions(candidates, args.regions, isomorphic=args.isomorphic_regions)
    placements = [map_circuit(instance.polynomial, r) for r in regions]
    doc = {
        "qpu": qpu.name,
        "eta": args.eta,
        "num_qubits": n,
        "requested_regions": args.regions,
        "placements": [p.to_json_dict() for p in placements],
    }
    _emit(doc, Path(args.output) if args.output else None)
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    instance = _read_problem(args.problem)
    if instance.kind != "maxcut":
        raise ConfigError("partition requires a graph problem")
    part = balanced_mincut(instance.graph, args.capacities, seed=seed)
    subs = extract_subproblems(instance.graph, part)
    doc = part.to_json_dict()
    doc["subproblems"] = [
        {"vertices": list(s.vertices), "graph": s.graph.to_json_dict()} for s in subs
    ]
    if args.output:
        out_dir = Path(args.output)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "partition.json").write_text(_dump(doc))
        for i, s in enumerate(subs):
            (out_dir / f"subproblem_{i}.json").write_text(_dump(s.graph.to_json_dict()))
    else:
        sys.stdout.write(_dump(doc))
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config, seed_override=args.seed)
    plan_ = _build_plan(cfg)
    doc = plan_.to_json_dict()
    doc["speedup"] = speedup_report(plan_).to_json_dict()
    _emit(doc, Path(args.output) if args.output else None)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config, seed_override=args.seed)
    started = time.time()
    plan_ = _build_plan(cfg)
    result = execute(
        plan_,
        cfg.fleet,
        noise=cfg.noise,
        seed=cfg.seed,
        optimizer_cfg=cfg.optimizer,
        trajectories=cfg.trajectories,
        with_hscore=cfg.with_hscore,
        hscore_m_ref=cfg.hscore_m_ref,
    )
    doc = {
        "seed": cfg.seed,
        "plan": plan_.to_json_dict(),
        "result": result.to_json_dict(),
        "speedup": speedup_report(plan_).to_json_dict(),
    }
    if args.output:
        out_dir = Path(args.output)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "result.json").write_text(_dump(doc))
        meta = {
            "started_unix": started,
            "elapsed_seconds": time.time() - started,
            "qdisco_version": __version__,
        }
        (out_dir / "run_meta.json").write_text(_dump(meta))
    else:
        sys.stdout.write(_dump(doc))
    return 0


def _cmd_benchmark(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    instance = _read_problem(args.problem)
    qpu = _read_qpu(args.qpu)
    cfg = OptimizerConfig(max_evaluations=args.max_evaluations)
    reports = {}
    for p in args.layers:
        report, _ = benchmark_qpu(
            instance.polynomial,
            qpu,
            p,
            args.m,
            seed,
            cfg=cfg,
            shots=args.shots,
            m_ref=args.mref,
        )
        reports[p] = report
    doc = {
        "qpu": qpu.name,
        "m": args.m,
        "m_ref": args.mref,
        "shots": args.shots,
        "seed": seed,
        "layers": {str(p): r.to_json_dict() for p, r in reports.items()},
    }
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["layer", "h_score"])
    for p in args.layers:
        writer.writerow([p, f"{reports[p].c:.6f}"])
    out_dir = Path(args.output) if args.output else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "benchmark_hscore.json").write_text(_dump(doc))
        (out_dir / "benchmark_scores.csv").write_text(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())
        sys.stdout.write(_dump(doc))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    instance = _read_problem(args.problem)
    poly = instance.polynomial
    p = args.layers[0] if len(args.layers) == 1 else None
    if p is None:
        raise ConfigError("simulate takes a single --layers value")
    if args.gammas is not None or args.betas is not None:
        if args.gammas is None or args.betas is None or len(args.gammas) != p or len(args.betas) != p:
            raise ConfigError("--gammas and --betas must both supply p angles")
        params = QaoaParams(args.gammas, args.betas)
        trace_doc = None
    else:
        cfg = OptimizerConfig(
            method="grid_then_nelder_mead" if p == 1 else "nelder_mead",
            max_evaluations=args.max_evaluations,
        )
        trace = optimize(poly, p, None, cfg, seed=seed)
        params = trace.best_params
        trace_doc = {
            "best_value": trace.best_value,
            "num_evaluations": trace.num_evaluations,
        }
    state = build_qaoa_state(poly, params)
    counts = sample(state, args.shots, seed)
    doc = {
        "problem_kind": instance.kind,
        "num_qubits": poly.num_spins,
        "p": p,
        "gammas": list(params.gammas),
        "betas": list(params.betas),
        "expectation": expectation(state, poly),
        "shots": args.shots,
        "counts": dict(sorted(counts.counts.items())),
    }
    if trace_doc:
        doc["optimization"] = trace_doc
    _emit(doc, Path(args.output) if args.output else None)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdisco",
        description=(
            "Compile, distribute, execute and score QAOA workloads on "
            "simulated noisy QPU fleets."
        ),
    )
    parser.add_argument("--version", action="version", version=f"qdisco {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common_seed = argparse.ArgumentParser(add_help=False)
    common_seed.add_argument(
        "--seed", type=int, default=None, help="master seed (env QDISCO_SEED as fallback)"
    )

    c = sub.add_parser(
        "compile",
        parents=[common_seed],
        help="select sampling regions on one QPU and map the circuit",
    )
    c.add_argument("--problem", required=True)
    c.add_argument("--qpu", required=True, help="calibration JSON path")
    c.add_argument("--eta", type=_eta_flag, default=0.01)
    c.add_argument("--regions", type=_positive_int, default=1, help="k regions to select")
    c.add_argument("--isomorphic-regions", action="store_true")
    c.add_argument("-o", "--output", default=None, help="placement JSON path (default stdout)")
    c.set_defaults(func=_cmd_compile)

    pt = sub.add_parser(
        "partition",
        parents=[common_seed],
        help="balanced MinCut split of a graph problem",
    )
    pt.add_argument("--problem", required=True)
    pt.add_argument("--capacities", type=_capacities_flag, required=True)
    pt.add_argument("-o", "--output", default=None, help="output directory for partition + subproblem files")
    pt.set_defaults(func=_cmd_partition)

    pl = sub.add_parser(
        "plan", parents=[common_seed], help="build an execution plan from a config"
    )
    pl.add_argument("--config", required=True)
    pl.add_argument("-o", "--output", default=None)
    pl.set_defaults(func=_cmd_plan)

    rn = sub.add_parser(
        "run", parents=[common_seed], help="plan and execute end to end"
    )
    rn.add_argument("--config", required=True)
    rn.add_argument("-o", "--output", default=None, help="output directory")
    rn.set_defaults(func=_cmd_run)

    b = sub.add_parser(
        "benchmark", parents=[common_seed], help="H-Score a QPU over layer counts"
    )
    b.add_argument("--problem", required=True)
    b.add_argument("--qpu", required=True)
    b.add_argument("--layers", type=_layers_flag, default=[1], help="p or range a..b")
    b.add_argument("--mref", type=_positive_int, default=500, help="reference runs")
    b.add_argument("--m", type=_positive_int, default=500, help="scoring runs")
    b.add_argument("--shots", type=_positive_int, default=256)
    b.add_argument("--max-evaluations", type=_positive_int, default=150)
    b.add_argument("-o", "--output", default=None, help="output directory")
    b.set_defaults(func=_cmd_benchmark)

    sm = sub.add_parser(
        "simulate", parents=[common_seed], help="noiseless QAOA run on a problem"
    )
    sm.add_argument("--problem", required=True)
    sm.add_argument("--layers", type=_layers_flag, default=[1])
    sm.add_argument("--gammas", type=_angles_flag, default=None)
    sm.add_argument("--betas", type=_angles_flag, default=None)
    sm.add_argument("--shots", type=_positive_int, default=1024)
    sm.add_argument("--max-evaluations", type=_positive_int, default=200)
    sm.add_argument("-o", "--output", default=None)
    sm.set_defaults(func=_cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # surface a closed pipe here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader went away: send further output to devnull and exit 1
        # (the recipe in Python's signal module documentation)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QdiscoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
