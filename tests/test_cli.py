import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qdisco
from qdisco.cli import load_run_config, main
from qdisco.datasets import data_path
from qdisco.hardware import load_calibration
from qdisco.problem import parse_problem_json

RING6 = str(data_path("problem_ring6.json"))
TRIANGLE = str(data_path("problem_triangle.json"))
HEX16 = str(data_path("qpu_hex16.json"))
T7 = str(data_path("qpu_t7_a.json"))
VA = str(data_path("scenario_va.json"))
VB = str(data_path("scenario_vb.json"))


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


def vb_config(tmp_path, **fields):
    """scenario_vb with absolute paths; a field set to None is removed."""
    doc = json.loads(data_path("scenario_vb.json").read_text())
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
    malformed("QDISCO_SEED", {"seed": None}, {"QDISCO_SEED": "abc"}),
    # booleans are JSON booleans, not strings or numbers
    malformed("noise", {"noise": "false"}),
    malformed("hscore.enabled", {"hscore": {"enabled": "no"}}),
    malformed("optimizer.noisy", {"optimizer": {"noisy": 1}}),
    # integers are neither truncated nor read from booleans
    malformed("p", {"p": 2.7}, id="p-fractional"),
    malformed("shots", {"shots": 300.5}, id="shots-fractional"),
    malformed("trajectories", {"trajectories": 4.2}, id="trajectories-fractional"),
    malformed("seed", {"seed": 7.5}, id="seed-fractional"),
    malformed("capacities", {"capacities": [4, 5.5, 6]}, id="capacities-fractional"),
    malformed("hscore.m_ref", {"hscore": {"m_ref": 10.5}}, id="hscore.m_ref-fractional"),
    malformed("optimizer.restarts", {"optimizer": {"restarts": 1.5}}),
    malformed("p", {"p": True}, id="p-boolean"),
    malformed("shots", {"shots": True}, id="shots-boolean"),
    malformed("capacities", {"capacities": [4, True, 6]}, id="capacities-boolean"),
    # paths are strings; the initial point is a list of finite numbers
    malformed("problem", {"problem": 5}),
    malformed("fleet[0].calibration", {"fleet": [{"calibration": 5}]}),
    malformed("optimizer.initial", {"optimizer": {"initial": "ab"}}),
    malformed("optimizer.initial", {"optimizer": {"initial": [0.1, "x"]}}, id="optimizer.initial-item"),
    malformed("optimizer.initial", {"optimizer": {"initial": [0.1, float("nan")]}}, id="optimizer.initial-nan"),
]


class TestMalformedConfig:
    @pytest.mark.parametrize("named, fields, env", MALFORMED_CONFIGS)
    def test_non_numeric_field_is_one_error_line(
        self, tmp_path, monkeypatch, capsys, named, fields, env
    ):
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        assert main(["plan", "--config", vb_config(tmp_path, **fields)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:")
        assert re.search(rf"\b{re.escape(named)}'? must be", lines[0])

    def test_integral_floats_are_accepted(self, tmp_path):
        path = vb_config(tmp_path, p=2.0, shots=300.0, capacities=[4.0, 5.0, 6.0])
        cfg = load_run_config(path)
        assert (cfg.p, cfg.shots, cfg.capacities) == (2, 300, (4, 5, 6))
        assert type(cfg.p) is int

    def test_labs_with_capacities_is_config_error(self, tmp_path, capsys):
        path = vb_config(tmp_path, problem=str(data_path("problem_labs6.json")))
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


def set_first_edge(field, value):
    return lambda doc: doc["edges"][0].update({field: value})


MALFORMED_INPUT_FILES = [
    pytest.param(problem_file, [[0, 0, 1.0]], id="problem-self-loop"),
    pytest.param(problem_file, [[0, 1, 1.0], [1, 0, 2.0]], id="problem-duplicate-edge"),
    pytest.param(problem_file, [[0, 3, 1.0]], id="problem-vertex-out-of-range"),
    pytest.param(problem_file, [[0, 1, "NaN"]], id="problem-nan-weight"),
    pytest.param(calibration_file, set_first_edge("q", ["a", 1]), id="calibration-q"),
    pytest.param(calibration_file, set_first_edge("gate_error", "x"), id="calibration-gate_error"),
    pytest.param(
        calibration_file,
        lambda doc: doc["readout_error"].__setitem__(0, "x"),
        id="calibration-readout_error",
    ),
]


class TestMalformedInputFiles:
    @pytest.mark.parametrize("command, content", MALFORMED_INPUT_FILES)
    def test_one_error_line_without_traceback(self, tmp_path, capsys, command, content):
        assert main(command(tmp_path, content)) in (1, 2)
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err


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
