import contextlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qdisco
from qdisco import _seeds, cli, decomposer, orchestrator
from qdisco.cli import MAX_LAYERS, MAX_RUNS, MAX_SHOTS, build_parser, load_run_config, main
from qdisco.datasets import data_path
from qdisco.decomposer import MINCUT_VERTEX_LIMIT
from qdisco.errors import SchemaError
from qdisco.hardware import load_calibration
from qdisco.optimizer import GRID_POINT_LIMIT, _grid_points, _grid_size
from qdisco.problem import parse_problem_json

RING6 = str(data_path("problem_ring6.json"))
TRIANGLE = str(data_path("problem_triangle.json"))
HEX16 = str(data_path("qpu_hex16.json"))
T7 = str(data_path("qpu_t7_a.json"))
VA = str(data_path("scenario_va.json"))
VB = str(data_path("scenario_vb.json"))
V15 = str(data_path("problem_v15.json"))
ALPHA7 = str(data_path("qpu_alpha7.json"))


# child processes import qdisco from the same source tree as the tests
SRC = str(Path(qdisco.__file__).resolve().parents[1])


def child_env(**extra):
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return env


def run_cli(args, env=None, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "qdisco.cli", *args],
        capture_output=True,
        text=True,
        env=env or child_env(),
        **kwargs,
    )


class TestSimulate:
    def test_emits_result_json(self, capsys):
        code = main(
            ["simulate", "--problem", TRIANGLE, "--layers", "1", "--shots", "200", "--seed", "3"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["num_qubits"] == 3
        assert sum(doc["counts"].values()) == 200

    def test_explicit_angles(self, capsys):
        code = main(
            [
                "simulate",
                "--problem",
                TRIANGLE,
                "--layers",
                "1",
                "--gammas",
                "0.5",
                "--betas",
                "0.3",
                "--shots",
                "100",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gammas"] == [0.5]
        assert "optimization" not in doc

    @pytest.mark.parametrize("flag", ["--gammas", "--betas"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0.1,-inf"])
    def test_non_finite_angles_are_usage_errors(self, capsys, flag, value):
        angles = {"--gammas": "0.5", "--betas": "0.3", flag: value}
        argv = ["simulate", "--problem", TRIANGLE, *itertools.chain(*angles.items())]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: field 'angle' must be a finite number" in err
        assert "Traceback" not in err

    def test_mismatched_angles_exit_2(self, capsys):
        code = main(
            [
                "simulate",
                "--problem",
                TRIANGLE,
                "--layers",
                "2",
                "--gammas",
                "0.5",
                "--betas",
                "0.3,0.2",
                "--seed",
                "1",
            ]
        )
        assert code == 2


class TestCompile:
    def test_two_regions_on_heavy_hex(self, capsys):
        code = main(
            [
                "compile",
                "--problem",
                RING6,
                "--qpu",
                HEX16,
                "--eta",
                "0.01",
                "--regions",
                "2",
                "--seed",
                "0",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["placements"]) == 2
        qubit_sets = [set(p["region"]["qubits"]) for p in doc["placements"]]
        assert not (qubit_sets[0] & qubit_sets[1])

    def test_bad_eta_is_usage_error(self):
        proc = run_cli(
            ["compile", "--problem", RING6, "--qpu", HEX16, "--eta", "1.5"]
        )
        assert proc.returncode == 2
        assert "--eta" in proc.stderr

    def test_isomorphic_regions_flag(self, capsys):
        code = main(
            [
                "compile",
                "--problem",
                RING6,
                "--qpu",
                HEX16,
                "--eta",
                "0.01",
                "--regions",
                "2",
                "--isomorphic-regions",
                "--seed",
                "0",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["placements"]) == 2
        edge_counts = {len(p["region"]["edges"]) for p in doc["placements"]}
        assert len(edge_counts) == 1  # isomorphic regions share their shape

    def test_missing_file_is_usage_error(self, capsys):
        code = main(["compile", "--problem", "nope.json", "--qpu", HEX16])
        assert code == 2


class TestPartition:
    def test_writes_subproblem_files(self, tmp_path):
        out = tmp_path / "parts"
        code = main(
            [
                "partition",
                "--problem",
                str(data_path("problem_v15.json")),
                "--capacities",
                "4,5,6",
                "--seed",
                "2",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads((out / "partition.json").read_text())
        assert sorted(doc["part_sizes"]) == [4, 5, 6]
        # emitted subproblem files re-load through the problem loader
        for i in range(3):
            sub = parse_problem_json((out / f"subproblem_{i}.json").read_text())
            assert sub.kind == "maxcut"

    def test_negative_weights_partition(self, tmp_path, capsys):
        edges = [[u, v, -3.0] for u in range(4) for v in range(u + 1, 4)]
        problem = tmp_path / "neg.json"
        problem.write_text(json.dumps({"num_vertices": 4, "edges": edges}))
        assert main(["partition", "--problem", str(problem), "--capacities", "2,2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["part_sizes"] == [2, 2]
        assert doc["cut_weight"] == -12.0

    def test_infeasible_capacities_domain_error(self, capsys):
        code = main(
            [
                "partition",
                "--problem",
                str(data_path("problem_v15.json")),
                "--capacities",
                "4,5",
                "--seed",
                "2",
            ]
        )
        assert code == 1


class TestPlanAndRun:
    def test_plan_va_shape(self, capsys):
        code = main(["plan", "--config", VA])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["num_regions"] == 6
        assert doc["speedup"]["speedup"] == pytest.approx(6.0)

    def test_run_vb_shape(self, tmp_path):
        out = tmp_path / "run"
        code = main(["run", "--config", VB, "-o", str(out)])
        assert code == 0
        doc = json.loads((out / "result.json").read_text())
        sizes = sorted(l["size"] for l in doc["plan"]["tree"]["children"])
        assert sizes == [4, 5, 6]
        assert (out / "run_meta.json").exists()

    def test_run_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", VB, "-o", str(a)]) == 0
        assert main(["run", "--config", VB, "-o", str(b)]) == 0
        assert (a / "result.json").read_bytes() == (b / "result.json").read_bytes()

    def test_seed_override_changes_payload(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", VB, "-o", str(a), "--seed", "1"]) == 0
        assert main(["run", "--config", VB, "-o", str(b), "--seed", "2"]) == 0
        assert (a / "result.json").read_bytes() != (b / "result.json").read_bytes()

    def test_huge_evaluation_budget_runs(self, tmp_path, capsys):
        # the budget caps the evaluations; nothing is sized by it up front
        optimizer = {"method": "grid_then_nelder_mead", "max_evaluations": 10**12}
        path = scenario_config(tmp_path, "scenario_va.json", optimizer=optimizer)
        assert main(["run", "--config", path, "-o", str(tmp_path / "run")]) == 0
        assert capsys.readouterr().err == ""

    def test_noisy_false_runs_as_without_the_key(self, tmp_path):
        optimizer = json.loads(data_path("scenario_vb.json").read_text())["optimizer"]
        path = scenario_config(tmp_path, optimizer={**optimizer, "noisy": False})
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", VB, "-o", str(a)]) == 0
        assert main(["run", "--config", path, "-o", str(b)]) == 0
        assert (a / "result.json").read_bytes() == (b / "result.json").read_bytes()

    def test_fewer_shots_than_regions_samples_only_the_regions_with_shots(self, tmp_path, monkeypatch):
        # scenario_va plans 6 regions; with 2 shots, 4 of them get none
        sample = orchestrator.noisy_sample
        measured = []

        def recording(*args, **kwargs):
            counts = sample(*args, **kwargs)
            measured.append(counts)
            return counts

        monkeypatch.setattr(orchestrator, "noisy_sample", recording)
        path = scenario_config(tmp_path, "scenario_va.json", shots=2)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", path, "-o", str(a)]) == 0
        assert len(measured) == 2
        doc = json.loads((a / "result.json").read_text())
        assert doc["plan"]["num_regions"] == 6
        nodes = [doc["plan"]["tree"]]
        while nodes:
            node = nodes.pop()
            nodes.extend(node.get("children", ()))
            if "assignments" in node:
                assert sum(s for x in node["assignments"] for s in x["shots_per_region"]) == 2
        outcomes = {bits for counts in measured for bits in counts.counts}
        assert all(leaf["solution_bits"] in outcomes for leaf in doc["result"]["leaves"])
        assert doc["speedup"]["parallel_units"] >= 1
        assert main(["run", "--config", path, "-o", str(b)]) == 0
        assert (a / "result.json").read_bytes() == (b / "result.json").read_bytes()

    def test_labs_problem_runs_direct(self, tmp_path, capsys):
        cfg = {
            "problem": str(data_path("problem_labs6.json")),
            "fleet": [{"calibration": str(data_path("qpu_hex16.json"))}],
            "eta": 0.01,
            "p": 1,
            "shots": 128,
            "seed": 4,
            "noise": False,
            "optimizer": {"max_evaluations": 60},
        }
        cfg_path = tmp_path / "labs.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["run", "--config", str(cfg_path)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["plan"]["num_leaves"] == 1
        assert doc["result"]["cut_value"] is None
        assert doc["result"]["cost"] >= 7.0  # LABS n=6 ground energy


class TestBenchmark:
    def test_csv_rows_match_layer_range(self, tmp_path):
        out = tmp_path / "bench"
        code = main(
            [
                "benchmark",
                "--problem",
                TRIANGLE,
                "--qpu",
                T7,
                "--layers",
                "1..3",
                "--mref",
                "100",
                "--m",
                "20",
                "--shots",
                "64",
                "--max-evaluations",
                "40",
                "--seed",
                "7",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        rows = (out / "benchmark_scores.csv").read_text().strip().splitlines()
        assert rows[0] == "layer,h_score"
        assert len(rows) == 4  # header + 3 layers
        doc = json.loads((out / "benchmark_hscore.json").read_text())
        assert set(doc["layers"]) == {"1", "2", "3"}
        for rep in doc["layers"].values():
            assert 0.0 <= rep["h_score"] <= 2.0


def hex16_with(tmp_path, edit) -> str:
    """A copy of qpu_hex16 changed by ``edit``."""
    doc = json.loads(data_path("qpu_hex16.json").read_text())
    edit(doc)
    path = tmp_path / "hex16.json"
    path.write_text(json.dumps(doc))
    return str(path)


def break_coupler_0_1(doc):
    next(e for e in doc["edges"] if e["q"] == [0, 1])["gate_error"] = 1.0


def break_qubit_15(doc):
    doc["readout_error"][15] = 1.0


class TestBrokenElements:
    """Calibrations mark a broken qubit or coupler with rate 1; the threshold filter removes it."""

    @pytest.mark.parametrize("edit", [break_coupler_0_1, break_qubit_15])
    def test_run_va(self, tmp_path, capsys, edit):
        qpu = hex16_with(tmp_path, edit)
        fleet = [
            {"calibration": qpu if e["calibration"] == "qpu_hex16.json" else str(data_path(e["calibration"]))}
            for e in json.loads(data_path("scenario_va.json").read_text())["fleet"]
        ]
        path = scenario_config(tmp_path, "scenario_va.json", fleet=fleet)
        assert main(["run", "--config", path, "-o", str(tmp_path / "run")]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("edit", [break_coupler_0_1, break_qubit_15])
    def test_benchmark(self, tmp_path, capsys, edit):
        argv = ["--problem", RING6, "--qpu", hex16_with(tmp_path, edit), "--mref", "100", "--m", "2"]
        assert main(["benchmark", *argv, "-o", str(tmp_path / "bench")]) == 0
        assert capsys.readouterr().err == ""


def t7_with(readout=(), gate=()) -> dict:
    """qpu_t7_a's calibration with the given (qubit, rate) and (edge index, rate) changes."""
    doc = json.loads(data_path("qpu_t7_a.json").read_text())
    for q, rate in readout:
        doc["readout_error"][q] = rate
    for i, rate in gate:
        doc["edges"][i]["gate_error"] = rate
    return doc


# past every float mantissa, past int64, and far past both, either sign
HUGE_INTEGERS = st.sampled_from([2**53 + 1, 2**63, 10**30, -(10**30)])


@st.composite
def degenerate_cases(draw):
    """A command, a MaxCut problem of 0-3 vertices with weights up to +-1e308, a
    qpu_t7_a calibration with some rates set to 0, the smallest positive float or 1,
    and tiny run settings.  Huge integers go only where they size no work: the seed,
    the trajectory count (shots bound it), the calibration's qubit count or an
    edge's qubit, which no readout list can match, and the problem's vertex count,
    which every command refuses before it sizes anything by it.  Two optimizer
    shapes size work by a huge integer too: a grid scan past its point cap, which
    the config refuses, and a restart count, whose start points the budget caps."""
    n = draw(st.integers(0, 3))
    pairs = list(itertools.combinations(range(n), 2))
    edges = sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else []
    weights = st.sampled_from([1.0, -2.0, 1e308, -1e308])
    problem = {"num_vertices": n, "edges": [[u, v, draw(weights)] for u, v in edges]}
    rates = st.sampled_from([0.0, 5e-324, 1.0])
    calibration = t7_with()
    for q in draw(st.sets(st.integers(0, calibration["num_qubits"] - 1))):
        calibration["readout_error"][q] = draw(rates)
    for i in draw(st.sets(st.integers(0, len(calibration["edges"]) - 1))):
        calibration["edges"][i]["gate_error"] = draw(rates)
    size = draw(st.sampled_from([None, "num_qubits", "q", "num_vertices"]))
    if size == "num_vertices":
        problem["num_vertices"] = draw(HUGE_INTEGERS)
    elif size == "num_qubits":
        calibration["num_qubits"] = draw(HUGE_INTEGERS)
    elif size == "q":
        calibration["edges"][0]["q"] = [0, draw(HUGE_INTEGERS)]
    run = {
        "shots": draw(st.integers(1, 16)),
        "trajectories": draw(st.integers(1, 2) | HUGE_INTEGERS),
        "seed": draw(st.integers(0, 9) | HUGE_INTEGERS),
    }
    shape = draw(st.sampled_from([None, "grid", "restarts"]))
    if shape == "grid":
        scan = {"grid_resolution": draw(HUGE_INTEGERS), "max_evaluations": draw(HUGE_INTEGERS)}
        run["optimizer"] = {"method": "grid_then_nelder_mead", **scan}
    elif shape == "restarts":
        run["optimizer"] = {"max_evaluations": 10, "restarts": draw(HUGE_INTEGERS)}
    commands = st.sampled_from(["plan", "run", "compile", "simulate", "partition", "benchmark"])
    return draw(commands), problem, calibration, run


EDGE = {"num_vertices": 2, "edges": [[0, 1, 1.0]]}
TINY_RUN = {"shots": 8, "trajectories": 2, "seed": 0}
GRID_ABOVE_CAP = {"grid_resolution": 2**53 + 1, "max_evaluations": 2**63}


@contextlib.contextmanager
def guarded_optimizer():
    """Fail, rather than build, a grid scan past its cap or a start point past a budget of 10.

    With the config's refusal or the start cap broken, a huge integer would
    otherwise take the host's memory."""

    def grid_points(p, cfg):
        assert _grid_size(cfg.grid_resolution, cfg.max_evaluations) <= GRID_POINT_LIMIT
        return _grid_points(p, cfg)

    def rng_from(seed, *path):
        assert path[0] != "nm-start" or path[1] < 10, path
        return _seeds.rng_from(seed, *path)

    with mock.patch("qdisco.optimizer._grid_points", grid_points), mock.patch("qdisco.optimizer.rng_from", rng_from):
        yield


@settings(max_examples=200, deadline=None)
@given(degenerate_cases())
@example(("plan", {"num_vertices": 0, "edges": []}, t7_with(), TINY_RUN))
@example(("run", EDGE, t7_with(gate=[(0, 1.0)]), TINY_RUN))
@example(("benchmark", EDGE, t7_with(readout=[(6, 1.0)]), TINY_RUN))
@example(("run", {"num_vertices": 2, "edges": [[0, 1, 1e308]]}, t7_with(), TINY_RUN))
@example(("benchmark", {"num_vertices": 3, "edges": [[0, 1, -1e308], [1, 2, 1.0]]}, t7_with(), TINY_RUN))
@example(("simulate", {"num_vertices": 3, "edges": [[0, 1, 1e308], [1, 2, 1e308]]}, t7_with(), TINY_RUN))
@example(("run", EDGE, t7_with(), {"shots": 8, "trajectories": 10**30, "seed": -(10**30)}))
@example(("run", EDGE, t7_with(), {**TINY_RUN, "optimizer": {"max_evaluations": 10, "restarts": 10**30}}))
@example(
    ("run", EDGE, t7_with(), {**TINY_RUN, "optimizer": {"method": "grid_then_nelder_mead"} | GRID_ABOVE_CAP})
)
def test_degenerate_documents_end_in_an_exit_code(case):
    command, problem, calibration, run = case
    with tempfile.TemporaryDirectory() as tmp, guarded_optimizer():
        files = {"problem.json": problem, "qpu.json": calibration}
        files["config.json"] = {
            "problem": "problem.json",
            "fleet": [{"calibration": "qpu.json"}],
            "optimizer": {"max_evaluations": 10},
            **run,
        }
        for name, doc in files.items():
            Path(tmp, name).write_text(json.dumps(doc))
        config, prob, qpu = (str(Path(tmp, name)) for name in ("config.json", "problem.json", "qpu.json"))
        argv = {
            "plan": ["--config", config],
            "run": ["--config", config],
            "compile": ["--problem", prob, "--qpu", qpu],
            "simulate": ["--problem", prob, "--shots", "8", "--max-evaluations", "10"],
            "partition": ["--problem", prob, "--capacities", "2,2"],
            "benchmark": ["--problem", prob, "--qpu", qpu, "--mref", "100", "--m", "1"]
            + ["--shots", "8", "--max-evaluations", "10"],
        }[command]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, *argv, "-o", str(Path(tmp, "out"))])
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2)
    if code == 0:
        assert lines == []
    else:
        assert len(lines) == 1 and lines[0].startswith("error:")


class TestSeedHandling:
    def test_env_seed_fallback(self, tmp_path, capsys):
        env = child_env(QDISCO_SEED="123")
        a = run_cli(
            ["simulate", "--problem", TRIANGLE, "--layers", "1", "--shots", "50"], env=env
        )
        b = run_cli(
            [
                "simulate",
                "--problem",
                TRIANGLE,
                "--layers",
                "1",
                "--shots",
                "50",
                "--seed",
                "123",
            ]
        )
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    BIG_SEED = 12345678901234567890  # past 2**53, where a float loses the last digits

    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_big_seed_reaches_derive_seed_exactly(self, monkeypatch, via):
        seen = []
        real = _seeds.derive_seed
        monkeypatch.setattr(_seeds, "derive_seed", lambda seed, *path: seen.append(seed) or real(seed, *path))
        monkeypatch.delenv("QDISCO_SEED", raising=False)
        argv = ["simulate", "--problem", TRIANGLE, "--gammas", "0.5", "--betas", "0.3", "--shots", "10"]
        if via == "flag":
            argv += ["--seed", str(self.BIG_SEED)]
        else:
            monkeypatch.setenv("QDISCO_SEED", str(self.BIG_SEED))
        assert main(argv) == 0
        assert seen and all(type(s) is int and s == self.BIG_SEED for s in seen)


COMPILE = ["compile", "--problem", RING6, "--qpu", HEX16]
BENCHMARK = ["benchmark", "--problem", RING6, "--qpu", HEX16]
SIMULATE = ["simulate", "--problem", TRIANGLE]
PARTITION = ["partition", "--problem", V15]

# every numeric flag: a command that takes it, the field its errors name, and
# its bad values beyond a non-number and a non-finite one (fractions for int
# flags, values below the range, values above a cap)
NUMERIC_FLAGS = [
    (COMPILE, "--eta", "eta", ["0", "-0.5", "1.5"]),
    (COMPILE, "--regions", "regions", ["1.5", "0"]),
    (PARTITION, "--capacities", "capacities", ["4,1.5", "4,0", ","]),
    (BENCHMARK, "--layers", "layers", ["1.5", "0", "0..2", str(MAX_LAYERS + 1), f"1..{MAX_LAYERS + 1}", "3..1"]),
    (BENCHMARK, "--mref", "mref", ["1.5", "0", "99", str(MAX_RUNS + 1), "100000000000"]),
    (BENCHMARK, "--m", "m", ["1.5", "0", str(MAX_RUNS + 1), "100000000000"]),
    (BENCHMARK, "--shots", "shots", ["1.5", "0", str(MAX_SHOTS + 1)]),
    (BENCHMARK, "--max-evaluations", "max-evaluations", ["1.5", "0"]),
    (SIMULATE, "--layers", "layers", ["1.5", "0", str(MAX_LAYERS + 1)]),
    (SIMULATE, "--shots", "shots", ["1.5", "0", str(MAX_SHOTS + 1)]),
    (SIMULATE, "--max-evaluations", "max-evaluations", ["1.5", "0"]),
    (SIMULATE, "--gammas", "angle", ["0.1,x"]),
    (SIMULATE, "--betas", "angle", ["0.1,-inf"]),
    (SIMULATE, "--seed", "seed", ["1.5"]),
]


class TestNumericFlags:
    @pytest.mark.parametrize(
        "argv, flag, field, value",
        [
            pytest.param(argv, flag, field, value, id=f"{argv[0]}{flag}={value}")
            for argv, flag, field, bad in NUMERIC_FLAGS
            for value in ["abc", "nan", "inf", *bad]
        ],
    )
    def test_bad_value_is_usage_error(self, capsys, argv, flag, field, value):
        # parsing alone: a value over a cap must never reach the command
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*argv, f"{flag}={value}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: field '{field}' must be" in err
        assert "Traceback" not in err

    def test_integral_floats_are_accepted(self):
        args = build_parser().parse_args([*BENCHMARK, "--m", "2.0", "--layers", "1..2.0", "--seed", "7.0"])
        assert (args.m, args.layers, args.seed) == (2, [1, 2], 7)
        assert type(args.m) is type(args.seed) is int


def scenario_config(tmp_path, scenario="scenario_vb.json", **fields):
    """A bundled scenario with absolute paths; a field set to None is removed."""
    doc = json.loads(data_path(scenario).read_text())
    doc["problem"] = str(data_path(doc["problem"]))
    for entry in doc["fleet"]:
        entry["calibration"] = str(data_path(entry["calibration"]))
    doc.update(fields)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({k: v for k, v in doc.items() if v is not None}))
    return str(path)


def malformed(named, fields, env=None, id=None):
    """One row: the field the error line names, config fields to set, environment."""
    return pytest.param(named, fields, env or {}, id=id or named)


MALFORMED_CONFIGS = [
    malformed("p", {"p": "two"}),
    malformed("shots", {"shots": "many"}),
    malformed("trajectories", {"trajectories": [8]}),
    malformed("eta", {"eta": "small"}),
    malformed("prior_hscore", {"fleet": [{"calibration": HEX16, "prior_hscore": "high"}]}),
    malformed("seed", {"seed": "seven"}),
    malformed("capacities", {"capacities": [4, "five", 6]}),
    malformed("hscore.m_ref", {"hscore": {"enabled": True, "m_ref": "lots"}}),
    # refused at load, before any leaf is optimized and sampled
    malformed("hscore.m_ref", {"hscore": {"enabled": True, "m_ref": 5}}, id="hscore.m_ref-below-minimum"),
    malformed("QDISCO_SEED", {"seed": None}, {"QDISCO_SEED": "abc"}),
    malformed("QDISCO_SEED", {"seed": None}, {"QDISCO_SEED": "7.5"}, id="QDISCO_SEED-fractional"),
    # booleans are JSON booleans, not strings or numbers
    malformed("noise", {"noise": "false"}),
    malformed("hscore.enabled", {"hscore": {"enabled": "no"}}),
    malformed("optimizer.noisy", {"optimizer": {"noisy": 1}}),
    # the objective is noiseless: a config asking for a noisy one is refused, not ignored
    malformed("optimizer.noisy", {"optimizer": {"noisy": True}}, id="optimizer.noisy-true"),
    # integers are neither truncated nor read from booleans
    malformed("p", {"p": 2.7}, id="p-fractional"),
    malformed("shots", {"shots": 300.5}, id="shots-fractional"),
    malformed("trajectories", {"trajectories": 4.2}, id="trajectories-fractional"),
    malformed("seed", {"seed": 7.5}, id="seed-fractional"),
    malformed("capacities", {"capacities": [4, 5.5, 6]}, id="capacities-fractional"),
    malformed("hscore.m_ref", {"hscore": {"m_ref": 10.5}}, id="hscore.m_ref-fractional"),
    malformed("optimizer.restarts", {"optimizer": {"restarts": 1.5}}),
    # the optimizer's ranges are its own, and its refusals name the config field too
    malformed("optimizer.max_evaluations", {"optimizer": {"max_evaluations": 0}}, id="optimizer.max_evaluations-zero"),
    malformed("optimizer.grid_resolution", {"optimizer": {"grid_resolution": 1}}, id="optimizer.grid_resolution-one"),
    malformed("optimizer.tolerance", {"optimizer": {"tolerance": 0}}, id="optimizer.tolerance-zero"),
    malformed("optimizer.restarts", {"optimizer": {"restarts": 0}}, id="optimizer.restarts-zero"),
    malformed(
        "optimizer.grid_resolution",
        {"optimizer": {"method": "grid_then_nelder_mead", "grid_resolution": 10**6, "max_evaluations": 10**12}},
        id="optimizer.grid_resolution-scan-above-cap",
    ),
    malformed("p", {"p": True}, id="p-boolean"),
    malformed("shots", {"shots": True}, id="shots-boolean"),
    malformed("capacities", {"capacities": [4, True, 6]}, id="capacities-boolean"),
    # paths are strings; the initial point is a list of finite numbers
    malformed("problem", {"problem": 5}),
    malformed("fleet[0].calibration", {"fleet": [{"calibration": 5}]}),
    malformed("optimizer.initial", {"optimizer": {"initial": "ab"}}),
    malformed("optimizer.initial", {"optimizer": {"initial": [0.1, "x"]}}, id="optimizer.initial-item"),
    malformed("optimizer.initial", {"optimizer": {"initial": [0.1, float("nan")]}}, id="optimizer.initial-nan"),
    # a number written as a string is not a number
    malformed("p", {"p": "2"}, id="p-numeric-string"),
    malformed("eta", {"eta": "0.05"}, id="eta-numeric-string"),
    # sizes are refused at load, before anything is allocated for them
    malformed("p", {"p": MAX_LAYERS + 1}, id="p-above-cap"),
    malformed("shots", {"shots": MAX_SHOTS + 1}, id="shots-above-cap"),
    malformed("hscore.m_ref", {"hscore": {"enabled": True, "m_ref": MAX_RUNS + 1}}, id="hscore.m_ref-above-cap"),
    malformed("eta", {"eta": 1.5}, id="eta-above-range"),
    malformed("capacities", {"capacities": []}, id="capacities-empty"),
    malformed("fleet", {"fleet": []}, id="fleet-empty"),
    malformed("fleet[0].calibration", {"fleet": [{"prior_hscore": 1.0}]}, id="fleet[0].calibration-missing"),
    malformed("optimizer", {"optimizer": 5}),
    malformed("hscore", {"hscore": []}),
    # a misspelt field is refused, not dropped
    malformed("optimizer.max_evaluation", {"optimizer": {"max_evaluation": 10}}),
    malformed("hscore.enable", {"hscore": {"enable": True}}),
    malformed("trajectory", {"trajectory": 2}),
    malformed("capacity", {"capacity": [3, 3]}),
    malformed("fleet[0].prior", {"fleet": [{"calibration": HEX16, "prior": 1.0}]}),
]


class TestMalformedConfig:
    @pytest.mark.parametrize("named, fields, env", MALFORMED_CONFIGS)
    def test_non_numeric_field_is_one_error_line(
        self, tmp_path, monkeypatch, capsys, named, fields, env
    ):
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        assert main(["plan", "--config", scenario_config(tmp_path, **fields)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:")
        assert re.search(rf"\b{re.escape(named)}'? must be", lines[0])

    def test_integral_floats_are_accepted(self, tmp_path):
        path = scenario_config(tmp_path, p=2.0, shots=300.0, capacities=[4.0, 5.0, 6.0])
        cfg = load_run_config(path)
        assert (cfg.p, cfg.shots, cfg.capacities) == (2, 300, (4, 5, 6))
        assert type(cfg.p) is int

    def test_small_m_ref_is_unused_while_hscore_is_off(self, tmp_path):
        cfg = load_run_config(scenario_config(tmp_path, hscore={"enabled": False, "m_ref": 5}))
        assert (cfg.with_hscore, cfg.hscore_m_ref) == (False, 5)
        assert main(["plan", "--config", scenario_config(tmp_path, hscore={"m_ref": 5})]) == 0

    def test_labs_with_capacities_is_config_error(self, tmp_path, capsys):
        path = scenario_config(tmp_path, problem=str(data_path("problem_labs6.json")))
        assert main(["plan", "--config", path]) == 2
        assert "graph problem" in capsys.readouterr().err


def problem_file(tmp_path, edges):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"num_vertices": 3, "edges": edges}))
    return ["partition", "--problem", str(path), "--capacities", "2,2"]


def calibration_file(tmp_path, edit):
    doc = json.loads(data_path("qpu_hex16.json").read_text())
    edit(doc)
    path = tmp_path / "qpu.json"
    path.write_text(json.dumps(doc))
    return ["compile", "--problem", TRIANGLE, "--qpu", str(path)]


def problem_doc(tmp_path, doc):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    return ["simulate", "--problem", str(path), "--gammas", "0.1", "--betas", "0.2"]


def set_first_edge(field, value):
    return lambda doc: doc["edges"][0].update({field: value})


def refused(command, content, named, id):
    """One row whose error line must name the refused field."""
    return pytest.param(command, content, rf"\b{re.escape(named)}'? must be", id=id)


MALFORMED_INPUT_FILES = [
    pytest.param(problem_file, [[0, 0, 1.0]], None, id="problem-self-loop"),
    pytest.param(problem_file, [[0, 1, 1.0], [1, 0, 2.0]], None, id="problem-duplicate-edge"),
    pytest.param(problem_file, [[0, 3, 1.0]], None, id="problem-vertex-out-of-range"),
    pytest.param(problem_file, [[0, 1, "NaN"]], None, id="problem-nan-weight"),
    pytest.param(calibration_file, set_first_edge("q", ["a", 1]), None, id="calibration-q"),
    pytest.param(
        calibration_file, set_first_edge("gate_error", "x"), None, id="calibration-gate_error"
    ),
    pytest.param(
        calibration_file,
        lambda doc: doc["readout_error"].__setitem__(0, "x"),
        None,
        id="calibration-readout_error",
    ),
    # fields are neither truncated, read from booleans nor parsed from strings
    refused(problem_file, [[0.9, 1.7, 1.0]], "edges[0][0]", id="problem-fractional-id"),
    refused(problem_file, [[0, 1, 1.0], [1, 2, True]], "edges[1][2]", id="problem-boolean-weight"),
    refused(problem_doc, {"labs": 6.7}, "labs", id="labs-fractional"),
    refused(problem_doc, {"labs": True}, "labs", id="labs-boolean"),
    refused(problem_doc, {"labs": "6"}, "labs", id="labs-numeric-string"),
    # refused before the cubic encoding, which takes seconds at 120 and never ends at 10**9
    refused(problem_doc, {"labs": 120}, "labs", id="labs-too-large"),
    refused(problem_doc, {"labs": 10**9}, "labs", id="labs-far-too-large"),
    refused(problem_doc, {"labs": 1}, "labs", id="labs-too-small"),
    refused(
        problem_doc, {"num_vertices": -1, "edges": []}, "num_vertices", id="problem-negative-size"
    ),
    refused(
        calibration_file, set_first_edge("q", [0.5, 1.9]), "edges[0].q", id="calibration-q-fractional"
    ),
    refused(
        calibration_file,
        lambda doc: doc.update(num_qubits=16.9),
        "num_qubits",
        id="calibration-num_qubits-fractional",
    ),
    refused(
        calibration_file,
        set_first_edge("gate_error", True),
        "edges[0].gate_error",
        id="calibration-gate_error-boolean",
    ),
    pytest.param(
        calibration_file, set_first_edge("q", [0, 0]), re.escape("self-loop edge (0,0)"), id="calibration-self-loop"
    ),
    pytest.param(
        calibration_file,
        lambda doc: doc.update(edges=[{"q": [0, 1], "gate_error": 0.0}, {"q": [1, 0], "gate_error": 0.0}]),
        re.escape("edges[1] duplicates edge (0, 1)"),
        id="calibration-duplicate-edge",
    ),
    pytest.param(
        calibration_file,
        lambda doc: doc.update(num_qubits=2, readout_error=[0.0, 0.0], edges=[{"q": [0, 5], "gate_error": 0.0}]),
        "references a missing qubit",
        id="calibration-missing-qubit",
    ),
]


class TestMalformedInputFiles:
    @pytest.mark.parametrize("command, content, pattern", MALFORMED_INPUT_FILES)
    def test_one_error_line_without_traceback(self, tmp_path, capsys, command, content, pattern):
        assert main(command(tmp_path, content)) in (1, 2)
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        if pattern is not None:
            assert re.search(pattern, err)


def labs_config(tmp_path, n):
    """scenario_vb's fleet running LABS of size n directly."""
    path = tmp_path / "labs.json"
    path.write_text(json.dumps({"labs": n}))
    return scenario_config(tmp_path, problem=str(path), capacities=None)


def empty_problem_config(tmp_path):
    """scenario_vb's fleet running a problem without vertices."""
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"num_vertices": 0, "edges": []}))
    return scenario_config(tmp_path, problem=str(path), capacities=None)


PLAN_ERRORS = [
    pytest.param(
        lambda tmp: ["benchmark", "--problem", V15, "--qpu", ALPHA7, "--mref", "100", "--m", "10"],
        "15-qubit regions",
        id="benchmark-problem-larger-than-qpu",
    ),
    pytest.param(
        lambda tmp: ["plan", "--config", scenario_config(tmp, capacities=[2, 2])],
        "cannot cover 15 vertices",
        id="plan-capacities-too-small",
    ),
    pytest.param(
        lambda tmp: ["plan", "--config", scenario_config(tmp, eta=1e-6)],
        "no QPU has a usable qubit",
        id="plan-eta-filters-every-qubit",
    ),
    pytest.param(
        lambda tmp: ["plan", "--config", labs_config(tmp, 20)],
        "cannot be decomposed",
        id="plan-labs-larger-than-any-region",
    ),
    pytest.param(
        lambda tmp: ["plan", "--config", empty_problem_config(tmp)],
        "problem has 0 spins",
        id="plan-empty-problem",
    ),
    pytest.param(
        lambda tmp: ["run", "--config", empty_problem_config(tmp), "-o", str(tmp / "run")],
        "problem has 0 spins",
        id="run-empty-problem",
    ),
    pytest.param(
        lambda tmp: ["partition", "--problem", str(data_path("problem_labs6.json")), "--capacities", "3,3"],
        "partition requires a graph problem",
        id="partition-labs",
    ),
    pytest.param(
        lambda tmp: ["partition", "--problem", V15, "--capacities", ",".join(["1"] * 25)],
        "balanced MinCut takes at most 24 parts, got 25",
        id="partition-more-parts-than-the-merge-joins",
    ),
    pytest.param(
        lambda tmp: [*SIMULATE, "--layers", "1..2"], "simulate takes a single --layers value", id="simulate-layer-range"
    ),
]


class TestPlanErrors:
    @pytest.mark.parametrize("command, message", PLAN_ERRORS)
    def test_one_error_line_without_traceback(self, tmp_path, capsys, command, message):
        assert main(command(tmp_path)) in (1, 2)
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert message in err


def one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.splitlines()) == 1
    return err


def problem_config(tmp_path, problem: dict, **fields):
    """scenario_vb's fleet on the given MaxCut problem, with no capacities unless set."""
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    return scenario_config(tmp_path, problem=str(path), **{"capacities": None, **fields})


def ring(n: int) -> dict:
    return {"num_vertices": n, "edges": [[i, (i + 1) % n, 1.0] for i in range(n)]}


def circulant(n: int, offsets: int) -> dict:
    """Vertex i joined to i + 1, ..., i + offsets (mod n): n * offsets edges."""
    return {"num_vertices": n, "edges": [[i, (i + k) % n, 1.0] for i in range(n) for k in range(1, offsets + 1)]}


OVER_WIDE_SPLITS = [
    pytest.param(lambda tmp: problem_config(tmp, ring(400)), id="ring400-fleet-split"),
    pytest.param(lambda tmp: problem_config(tmp, ring(400), capacities=[390, 10]), id="ring400-part-split"),
    pytest.param(lambda tmp: problem_config(tmp, ring(30), capacities=[1] * 30), id="ring30-capacities-of-one"),
    *(
        pytest.param(lambda tmp, n=n: problem_config(tmp, {"num_vertices": n, "edges": [[0, 1, 1.0]]}), id=name)
        for n, name in ((2**53 + 1, "num-vertices-2^53+1"), (2**63, "num-vertices-2^63"), (10**30, "num-vertices-10^30"))
    ),
]


class TestOverWideSplits:
    @pytest.mark.parametrize("command", ["plan", "run"])
    @pytest.mark.parametrize("config", OVER_WIDE_SPLITS)
    def test_refused_before_any_mincut(self, tmp_path, capsys, monkeypatch, command, config):
        def mincut(*args, **kwargs):
            raise AssertionError("balanced_mincut ran")

        monkeypatch.setattr(orchestrator, "balanced_mincut", mincut)
        assert main([command, "--config", config(tmp_path), "-o", str(tmp_path / "out")]) == 1
        err = one_error_line(capsys)
        assert "needs more than 24 parts, but the merge joins at most 24" in err


class TestOversizedMincut:
    """A split that passes every up-front check but is too large or too dense for Kernighan-Lin."""

    @pytest.fixture(autouse=True)
    def no_refinement(self, monkeypatch):
        def refine(*args):
            raise AssertionError("_kl_refine ran")

        monkeypatch.setattr(decomposer, "_kl_refine", refine)

    @pytest.mark.parametrize("command", ["plan", "run"])
    def test_plan_and_run(self, tmp_path, capsys, command):
        config = problem_config(tmp_path, ring(3000), capacities=[150] * 20)
        assert main([command, "--config", config, "-o", str(tmp_path / "out")]) == 1
        assert f"at most {MINCUT_VERTEX_LIMIT} vertices, got 3000" in one_error_line(capsys)

    def test_partition(self, tmp_path, capsys):
        path = tmp_path / "ring.json"
        path.write_text(json.dumps(ring(400)))
        assert main(["partition", "--problem", str(path), "--capacities", "200,200"]) == 1
        assert f"at most {MINCUT_VERTEX_LIMIT} vertices, got 400" in one_error_line(capsys)

    @pytest.mark.parametrize("command", ["plan", "run"])
    def test_dense_graph_in_plan_and_run(self, tmp_path, capsys, command):
        config = problem_config(tmp_path, circulant(256, 3), capacities=[16] * 16)
        assert main([command, "--config", config, "-o", str(tmp_path / "out")]) == 1
        assert "at most 512 edges on 256 vertices, got 768" in one_error_line(capsys)

    def test_dense_graph_in_partition(self, tmp_path, capsys):
        path = tmp_path / "circulant.json"
        path.write_text(json.dumps(circulant(256, 3)))
        assert main(["partition", "--problem", str(path), "--capacities", "128,128"]) == 1
        assert "at most 512 edges on 256 vertices, got 768" in one_error_line(capsys)


class TestExtremeFiniteInput:
    @pytest.mark.parametrize("command", ["simulate", "partition"])
    def test_weight_sum_overflow_names_edges(self, tmp_path, capsys, command):
        path = tmp_path / "problem.json"
        path.write_text(
            json.dumps({"num_vertices": 3, "edges": [[0, 1, 1.0], [1, 2, 1e308], [0, 2, 1e308]]})
        )
        with pytest.raises(SchemaError, match="edges"):
            parse_problem_json(path.read_text())
        args = ["--layers", "1"] if command == "simulate" else ["--capacities", "2,1"]
        assert main([command, "--problem", str(path), *args]) == 1
        assert "edges" in one_error_line(capsys)

    def test_overflowing_phase_is_usage_error(self, capsys):
        argv = ["simulate", "--problem", TRIANGLE, "--layers", "1", "--gammas", "1e308", "--betas", "1"]
        assert main(argv) == 2
        assert "--gammas" in one_error_line(capsys)

    def test_overflowing_optimizer_steps_end_in_one_error_line(self, tmp_path, capsys):
        # every cost of ring6 times 1e308 overflows, so no evaluation is finite
        optimizer = {"method": "nelder_mead", "initial": [1e308, 1.0]}
        path = scenario_config(tmp_path, "scenario_va.json", optimizer=optimizer)
        assert main(["run", "--config", path, "-o", str(tmp_path / "run")]) == 2
        assert "no finite objective value" in one_error_line(capsys)


def overflowing_triangle(tmp_path) -> str:
    """Finite weights whose costs times any gamma near 1 leave the float range."""
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps({"num_vertices": 3, "edges": [[0, 1, 5e307], [1, 2, 5e307], [0, 2, 5e307]]}))
    return str(path)


class TestPhaseOverflowIsQuiet:
    """A phase past the float range prints no numpy warning, only the outcome."""

    def test_run_with_overflowing_optimizer_steps(self, tmp_path):
        optimizer = {"method": "nelder_mead", "initial": [1e308, 1.0]}
        path = scenario_config(tmp_path, "scenario_va.json", optimizer=optimizer)
        proc = run_cli(["run", "--config", path, "-o", str(tmp_path / "run")])
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == ["error: optimizer saw no finite objective value"]

    def test_run_of_overflowing_weights(self, tmp_path):
        # under the default optimizer every evaluation overflows
        problem, fleet = overflowing_triangle(tmp_path), [{"calibration": T7}]
        path = scenario_config(tmp_path, "scenario_va.json", problem=problem, fleet=fleet, optimizer=None)
        proc = run_cli(["run", "--config", path, "-o", str(tmp_path / "run")])
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == ["error: optimizer saw no finite objective value"]

    def test_simulate_of_overflowing_weights(self, tmp_path):
        proc = run_cli(["simulate", "--problem", overflowing_triangle(tmp_path), "--layers", "1", "--seed", "7"])
        assert (proc.returncode, proc.stderr) == (0, "")


class TestUnwritableOutput:
    def test_simulate_into_a_directory(self, tmp_path, capsys):
        argv = ["simulate", "--problem", RING6, "--layers", "1", "--seed", "7", "-o", str(tmp_path)]
        assert main(argv) == 1
        assert "Is a directory" in one_error_line(capsys)

    def test_partition_into_a_file(self, tmp_path, capsys):
        taken = tmp_path / "afile"
        taken.write_text("")
        argv = ["partition", "--problem", V15, "--capacities", "4,5,6", "-o", str(taken)]
        assert main(argv) == 1
        assert "File exists" in one_error_line(capsys)


class TestOutputOverStaleFiles:
    """``-o`` replaces existing files with exactly the bytes of a fresh write."""

    def test_run_into_a_directory_of_longer_stale_files(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "time", SimpleNamespace(time=lambda: 1.0e9))  # run_meta's clock
        fresh, stale = tmp_path / "fresh", tmp_path / "stale"
        stale.mkdir()
        for name in ("result.json", "run_meta.json"):
            (stale / name).write_text("x" * 10**6)
        for out in (fresh, stale):
            assert main(["run", "--config", VB, "-o", str(out)]) == 0
        for name in ("result.json", "run_meta.json"):
            assert len((fresh / name).read_bytes()) < 10**6
            assert (stale / name).read_bytes() == (fresh / name).read_bytes()

    def test_compile_over_a_longer_stale_file(self, tmp_path):
        fresh, stale = tmp_path / "fresh.json", tmp_path / "stale.json"
        stale.write_text("x" * 10**6)
        for out in (fresh, stale):
            assert main([*COMPILE, "--regions", "2", "--seed", "7", "-o", str(out)]) == 0
        assert len(fresh.read_bytes()) < 10**6
        assert stale.read_bytes() == fresh.read_bytes()


class TestBrokenPipe:
    def test_closed_stdout_exits_without_traceback(self):
        args = ["simulate", "--problem", TRIANGLE, "--shots", "50", "--seed", "1"]
        with subprocess.Popen(
            [sys.executable, "-m", "qdisco.cli", *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env(),
            text=True,
        ) as proc:
            proc.stdout.close()  # the reader goes away before anything is written
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err
        assert "BrokenPipeError" not in err


class TestEmittedFormatsRoundTrip:
    def test_bundled_calibrations_load(self):
        for name in ("qpu_hex16.json", "qpu_t7_a.json", "qpu_alpha7.json"):
            qpu = load_calibration(data_path(name).read_text())
            assert load_calibration(qpu.serialize()) == qpu

    def test_bundled_problems_load(self):
        for name in ("problem_ring6.json", "problem_v15.json", "problem_labs6.json"):
            inst = parse_problem_json(data_path(name).read_text())
            assert inst.num_spins >= 2


class TestUsageErrors:
    def test_unknown_subcommand(self):
        proc = run_cli(["frobnicate"])
        assert proc.returncode == 2

    def test_unknown_flag(self):
        proc = run_cli(["simulate", "--problem", TRIANGLE, "--frotz", "1"])
        assert proc.returncode == 2

    def test_an_error_exit_leaves_the_built_parser_as_it_was(self, monkeypatch, capsys):
        # the parser is built once per process; a usage error that exits
        # part-way through one subcommand must not reach the next parse
        argv = [*SIMULATE, "--layers", "1", "--seed", "3"]
        assert build_parser() is build_parser()
        with pytest.raises(SystemExit) as exc:
            main([*BENCHMARK, "--mref", "100", "--m", "0"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(argv) == 0
        after_error = capsys.readouterr().out
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)  # a new parser per call
        assert main(argv) == 0
        assert capsys.readouterr().out == after_error
