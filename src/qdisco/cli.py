"""Command-line surface: compile, partition, plan, run, benchmark, simulate.

Exit codes: 0 success, 1 domain error, 2 usage/configuration error.  All
randomness flows from one seed (--seed, else the QDISCO_SEED environment
variable, else 0).  Result payloads are deterministic byte-for-byte under
a fixed config and seed; timestamps live in a separate metadata file.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from ._fields import from_text, load_object, number
from .compiler import best_regions, filter_by_threshold, map_circuit
from .decomposer import balanced_mincut, extract_subproblems
from .errors import ConfigError, QdiscoError
from .hardware import Fleet, QpuModel, load_calibration
from .hscore import MIN_REFERENCE_SIZE, benchmark_qpu
from .optimizer import FIELD_RANGES, OptimizerConfig, optimize
from .orchestrator import execute, plan, speedup_report
from .problem import ProblemInstance, parse_problem_json
from .simulator import QaoaParams, build_qaoa_state, expectation, sample


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _emit_files(output: str | None, files: dict[str, str] | None, stdout: str) -> None:
    """Write each named file into the ``output`` directory, else ``stdout`` to stdout.

    Without ``files``, ``output`` is the one file that gets ``stdout``.
    """
    if not output:
        sys.stdout.write(stdout)
        return
    out_dir = Path(output)
    if files is None:
        out_dir, files = out_dir.parent, {out_dir.name: stdout}
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out_dir / name).unlink(missing_ok=True)  # truncating waits for pending ext4 write-back
        (out_dir / name).write_text(text)


# Sizes refused before any work is allocated: the Nelder-Mead simplex holds (2p+1)
# points of 2p angles (about 4e6 at the cap), sampling (shots,) and (shots, n) arrays.
MAX_LAYERS = 1000
MAX_SHOTS = 2**20
# H-Score runs per side (--mref, --m, hscore.m_ref): optimize_batch keeps every run's
# trace, max_evaluations x (2p + 1) doubles, until its batch ends.  At the default 150
# evaluations a ring6 run peaked at 7-17 KB for p = 1..3, so the cap holds 70-170 MB.
MAX_RUNS = 10**4
_ETA = {"low": math.ulp(0.0), "high": 1.0}  # eta's (0, 1]: the smallest positive float up to 1


def _flag(kind: type, field: str, low=-math.inf, high=math.inf, form: str = "one"):
    """An argparse ``type=`` reading flag text as ``number`` reads a config field; ``form``
    is "one" number, a comma "list" or a "range" (p or ``a..b``, as the list of its integers)."""

    def one(text: str):
        return number(kind, from_text(text, kind), field, argparse.ArgumentTypeError, low, high)

    def many(text: str) -> list:
        if form == "list":
            items = [one(t) for t in text.split(",") if t.strip()]
        else:
            ends = [one(t) for t in text.split("..")]
            items = list(range(ends[0], ends[-1] + 1)) if len(ends) <= 2 else []
        if not items:
            raise argparse.ArgumentTypeError(f"field '{field}' must be a non-empty {form}, got {text!r}")
        return items

    return one if form == "one" else many


# every numeric config field: a finite JSON number, integral for int fields
_number = functools.partial(number, error=ConfigError)


def _boolean(value, field: str) -> bool:
    """A config field that must be a JSON boolean (a string like "false" is not)."""
    if not isinstance(value, bool):
        raise ConfigError(f"config field '{field}' must be true or false, got {value!r}")
    return value


def _object(value, field: str, known: tuple[str, ...]) -> dict:
    """A config object whose every key is one of ``known``: a misspelt field is refused, not dropped."""
    if not isinstance(value, dict):
        raise ConfigError(f"config field '{field}' must be an object")
    for key in value:
        if key not in known:
            name = f"{field}.{key}" if field else key
            raise ConfigError(f"unknown config field '{name}' must be one of {', '.join(sorted(known))}")
    return value


def _resolve_seed(explicit: int | None, configured=None) -> int:
    """The explicit seed, else the config's ``seed``, else QDISCO_SEED, else 0."""
    if explicit is not None:
        return explicit
    if configured is not None:
        return _number(int, configured, "seed")
    env = os.environ.get("QDISCO_SEED")
    return 0 if env is None else _number(int, from_text(env, int), "QDISCO_SEED")


def _read_text(path: str, what: str) -> str:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"{what} file not found: {path}")
    return p.read_text()


def _read_problem(path: str) -> ProblemInstance:
    return parse_problem_json(_read_text(path, "problem"))


def _read_qpu(path: str) -> QpuModel:
    return load_calibration(_read_text(path, "calibration"))


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
    doc = load_object(_read_text(path, "config"), "config file", ("problem", "fleet"), ConfigError)
    optional = ("eta", "p", "shots", "seed", "capacities", "noise", "trajectories", "optimizer", "hscore")
    _object(doc, "", ("problem", "fleet", *optional))  # the top level has no field name
    base = Path(path).parent

    def resolve(rel, field: str) -> Path:
        if not isinstance(rel, str):
            raise ConfigError(f"config field '{field}' must be a path string, got {rel!r}")
        candidate = Path(rel)
        return candidate if candidate.is_absolute() else base / candidate

    problem = _read_problem(str(resolve(doc["problem"], "problem")))

    entries = doc["fleet"]
    if not isinstance(entries, list) or not entries:
        raise ConfigError("config field 'fleet' must be a non-empty list")
    qpus = []
    priors = {}
    for i, entry in enumerate(entries):
        entry = _object(entry, f"fleet[{i}]", ("calibration", "prior_hscore"))
        qpu = _read_qpu(str(resolve(entry.get("calibration"), f"fleet[{i}].calibration")))
        qpus.append(qpu)
        if "prior_hscore" in entry:
            priors[qpu.name] = _number(float, entry["prior_hscore"], f"fleet[{i}].prior_hscore")
    fleet = Fleet(tuple(qpus), priors)

    capacities = None
    if doc.get("capacities") is not None:
        if not isinstance(doc["capacities"], list) or not doc["capacities"]:
            raise ConfigError("config field 'capacities' must be a non-empty list")
        capacities = tuple(_number(int, c, "capacities", low=1) for c in doc["capacities"])

    opt_doc = _object(doc.get("optimizer", {}), "optimizer", ("initial", "noisy", "method", *FIELD_RANGES))
    initial = opt_doc.get("initial")
    if initial is not None:
        if not isinstance(initial, list):
            raise ConfigError(
                f"config field 'optimizer.initial' must be a list of numbers, got {initial!r}"
            )
        initial = tuple(_number(float, x, "optimizer.initial") for x in initial)
    if _boolean(opt_doc.get("noisy", False), "optimizer.noisy"):
        raise ConfigError("config field 'optimizer.noisy' must be false: the objective is noiseless")
    # OptimizerConfig checks the method and each numeric field's range itself
    settings = {k: opt_doc[k] for k in ("method", *FIELD_RANGES) if k in opt_doc}
    optimizer = OptimizerConfig(initial=initial, **settings)

    hs_doc = _object(doc.get("hscore", {}), "hscore", ("enabled", "m_ref"))
    with_hscore = _boolean(hs_doc.get("enabled", False), "hscore.enabled")
    # a disabled H-Score never reads m_ref, so only an enabled one is bounded
    bounds = {"low": MIN_REFERENCE_SIZE, "high": MAX_RUNS} if with_hscore else {}
    m_ref = _number(int, hs_doc.get("m_ref", 100), "hscore.m_ref", **bounds)

    return RunConfig(
        problem=problem,
        fleet=fleet,
        eta=_number(float, doc.get("eta", 0.01), "eta", **_ETA),
        p=_number(int, doc.get("p", 1), "p", low=1, high=MAX_LAYERS),
        shots=_number(int, doc.get("shots", 1024), "shots", low=1, high=MAX_SHOTS),
        seed=_resolve_seed(seed_override, doc.get("seed")),
        capacities=capacities,
        noise=_boolean(doc.get("noise", True), "noise"),
        trajectories=_number(int, doc.get("trajectories", 16), "trajectories", low=1),
        optimizer=optimizer,
        with_hscore=with_hscore,
        hscore_m_ref=m_ref,
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
    regions = best_regions(fg, n, args.regions, isomorphic=args.isomorphic_regions, seed=seed)
    placements = [map_circuit(instance.polynomial, r) for r in regions]
    doc = {
        "qpu": qpu.name,
        "eta": args.eta,
        "num_qubits": n,
        "requested_regions": args.regions,
        "placements": [p.to_json_dict() for p in placements],
    }
    _emit_files(args.output, None, _dump(doc))
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
    files = {"partition.json": _dump(doc)}
    for i, s in enumerate(subs):
        files[f"subproblem_{i}.json"] = _dump(s.graph.to_json_dict())
    _emit_files(args.output, files, files["partition.json"])
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config, seed_override=args.seed)
    plan_ = _build_plan(cfg)
    doc = plan_.to_json_dict()
    doc["speedup"] = speedup_report(plan_).to_json_dict()
    _emit_files(args.output, None, _dump(doc))
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
    meta = {
        "started_unix": started,
        "elapsed_seconds": time.time() - started,
        "qdisco_version": __version__,
    }
    text = _dump(doc)
    _emit_files(args.output, {"result.json": text, "run_meta.json": _dump(meta)}, text)
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
    files = {"benchmark_hscore.json": _dump(doc), "benchmark_scores.csv": buf.getvalue()}
    _emit_files(args.output, files, buf.getvalue() + files["benchmark_hscore.json"])
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    instance = _read_problem(args.problem)
    poly = instance.polynomial
    if len(args.layers) != 1:
        raise ConfigError("simulate takes a single --layers value")
    p = args.layers[0]
    if args.gammas is not None or args.betas is not None:
        if args.gammas is None or args.betas is None or len(args.gammas) != p or len(args.betas) != p:
            raise ConfigError("--gammas and --betas must both supply p angles")
        params = QaoaParams(args.gammas, args.betas)
        trace_doc = None
    else:
        # the grid scan runs at p = 1 only; deeper circuits start Nelder-Mead directly
        cfg = OptimizerConfig(method="grid_then_nelder_mead", max_evaluations=args.max_evaluations)
        trace = optimize(poly, p, cfg, seed=seed)
        params = trace.best_params
        trace_doc = {
            "best_value": trace.best_value,
            "num_evaluations": trace.num_evaluations,
        }
    state = build_qaoa_state(poly, params)
    if not np.isfinite(state.amplitudes).all():  # a phase gamma * cost past the float range
        raise ConfigError("--gammas times the problem's costs leave the float range")
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
    _emit_files(args.output, None, _dump(doc))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="qdisco",
        description=(
            "Compile, distribute, execute and score QAOA workloads on "
            "simulated noisy QPU fleets."
        ),
    )
    parser.add_argument("--version", action="version", version=f"qdisco {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # flags that more than one subcommand takes
    layers = _flag(int, "layers", 1, MAX_LAYERS, form="range")
    shots = _flag(int, "shots", 1, MAX_SHOTS)
    max_evaluations = _flag(int, "max-evaluations", *FIELD_RANGES["max_evaluations"][1:])
    angles = _flag(float, "angle", form="list")

    common_seed = argparse.ArgumentParser(add_help=False)
    common_seed.add_argument(
        "--seed", type=_flag(int, "seed"), default=None, help="master seed (env QDISCO_SEED as fallback)"
    )

    c = sub.add_parser(
        "compile",
        parents=[common_seed],
        help="select sampling regions on one QPU and map the circuit",
    )
    c.add_argument("--problem", required=True)
    c.add_argument("--qpu", required=True, help="calibration JSON path")
    c.add_argument("--eta", type=_flag(float, "eta", **_ETA), default=0.01)
    c.add_argument("--regions", type=_flag(int, "regions", 1), default=1, help="k regions to select")
    c.add_argument("--isomorphic-regions", action="store_true")
    c.add_argument("-o", "--output", default=None, help="placement JSON path (default stdout)")
    c.set_defaults(func=_cmd_compile)

    pt = sub.add_parser(
        "partition",
        parents=[common_seed],
        help="balanced MinCut split of a graph problem",
    )
    pt.add_argument("--problem", required=True)
    pt.add_argument("--capacities", type=_flag(int, "capacities", 1, form="list"), required=True)
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
    b.add_argument("--layers", type=layers, default=[1], help="p or range a..b")
    b.add_argument("--mref", type=_flag(int, "mref", MIN_REFERENCE_SIZE, MAX_RUNS), default=500, help="reference runs")
    b.add_argument("--m", type=_flag(int, "m", 1, MAX_RUNS), default=500, help="scoring runs")
    b.add_argument("--shots", type=shots, default=256)
    b.add_argument("--max-evaluations", type=max_evaluations, default=150)
    b.add_argument("-o", "--output", default=None, help="output directory")
    b.set_defaults(func=_cmd_benchmark)

    sm = sub.add_parser(
        "simulate", parents=[common_seed], help="noiseless QAOA run on a problem"
    )
    sm.add_argument("--problem", required=True)
    sm.add_argument("--layers", type=layers, default=[1])
    sm.add_argument("--gammas", type=angles, default=None)
    sm.add_argument("--betas", type=angles, default=None)
    sm.add_argument("--shots", type=shots, default=1024)
    sm.add_argument("--max-evaluations", type=max_evaluations, default=200)
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
    except (QdiscoError, OSError) as exc:  # OSError: an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
