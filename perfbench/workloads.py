"""The benchmark's workloads: inputs, timed operations and checks.

A workload builds its inputs from the benchmark seed alone (qdisco only
ever sees the generated files and master seeds) and lists its operations
in ``ops``: callables that return an output, or None when qdisco reports
a failure.  The worker runs rounds of the same operations; every round
repeats the same inputs and seeds, so rounds do identical work and must
produce identical outputs.  The first round runs inside ``recording()``,
which keeps intermediate values the checks need.
"""

from __future__ import annotations

import contextlib
import functools
import json
import random
import shutil
from pathlib import Path

import checks
from qdisco import cli, hardware, hscore, problem, simulator
from qdisco.datasets import data_path
from qdisco.errors import QdiscoError
from qdisco.optimizer import OptimizerConfig

# Fixed angles for the kernel check (p = 2 exercises two phase/mixer layers).
KERNEL_GAMMAS = (0.37, 0.81)
KERNEL_BETAS = (0.52, 0.23)


def _kernel_check(label: str, poly, costs) -> None:
    params = simulator.QaoaParams(KERNEL_GAMMAS, KERNEL_BETAS)
    state = simulator.build_qaoa_state(poly, params)
    value = simulator.expectation(state, poly)
    checks.check_kernel(label, state.amplitudes, value, costs, KERNEL_GAMMAS, KERNEL_BETAS)


# The noiseless control (NoiseSpec.zero must score C = 1 within 3 standard
# errors) is a statistical test that a correct program fails on 0.3% of
# seeds.  It runs at one fixed master seed, not the workload seed, so that
# its verdict cannot change from run to run, and at p = 1 only: at p = 2 it
# would add 7 s to every run, outside the measured rounds.
CONTROL_SEED = 0
CONTROL_DEPTH = 1


class HScoreRing6:
    """H-Score of guadalupe_sim (qpu_hex16) on ring6 at p = 1 and 2.

    One operation is one ``benchmark_qpu`` device score: 100 noiseless
    reference runs plus 100 optimize-then-noisy-sample scoring runs, as
    ``qdisco benchmark --layers 1..2 --mref 100 --m 100`` does.
    """

    name = "hscore_ring6"
    layers = (1, 2)
    m = 100
    m_ref = 100
    shots = 256
    max_evaluations = 150

    def __init__(self, seed: int, out_dir: Path) -> None:
        text = data_path("problem_ring6.json").read_text()
        self.problem_doc = json.loads(text)
        self.instance = problem.parse_problem_json(text)
        self.qpu = hardware.load_calibration(data_path("qpu_hex16.json").read_text())
        self.cfg = OptimizerConfig(max_evaluations=self.max_evaluations)
        self.master_seed = random.Random(f"{self.name}/{seed}").randrange(2**31)
        self.ops = [functools.partial(self._device_score, p) for p in self.layers]
        self.recorded: list[list] = []
        self._sink: list[list] | None = None

    @contextlib.contextmanager
    def recording(self):
        """Keep the shot counts passed to ``hscore.accuracy`` while the block runs.

        ``self.recorded`` gets one list per device score, in call order:
        the ``m_ref`` reference runs, then the ``m`` scored runs.
        """
        original = hscore.accuracy

        def accuracy(counts, poly):
            self._sink[-1].append(counts)
            return original(counts, poly)

        self.recorded = self._sink = []
        hscore.accuracy = accuracy
        try:
            yield
        finally:
            hscore.accuracy = original
            self._sink = None

    def _score(self, p: int, seed: int, **kw):
        if self._sink is not None:
            self._sink.append([])
        return hscore.benchmark_qpu(
            self.instance.polynomial,
            self.qpu,
            p,
            self.m,
            seed,
            cfg=self.cfg,
            shots=self.shots,
            m_ref=self.m_ref,
            **kw,
        )

    def _device_score(self, p: int):
        try:
            return self._score(p, self.master_seed)
        except QdiscoError:
            return None

    def fingerprint(self, outputs) -> list:
        return [None if o is None else (o[0].c, o[0].accuracies, o[1].samples) for o in outputs]

    def check(self, outputs) -> float:
        """Recompute accuracies and C, check the noisy score, run the noiseless control and the kernel check."""
        n = self.problem_doc["num_vertices"]
        edges = self.problem_doc["edges"]
        cuts = checks.maxcut_cut_vector(n, edges)
        _kernel_check(self.name, self.instance.polynomial, -cuts)
        optimal = checks.optimal_bitstrings(cuts)

        def check_score(label, got, shot_counts) -> float:
            report, ref = got
            checks.check_accuracies(label, shot_counts, optimal, self.shots, report.accuracies, ref.samples)
            return checks.check_hscore(label, report.c, report.accuracies, ref.samples, self.m, self.m_ref)

        reference_accs = []
        for p, got, shot_counts in zip(self.layers, outputs, self.recorded):
            if got is None:
                continue
            label = f"{self.name} p={p}"
            checks.check_noisy_below(label, got[0].c, check_score(label, got, shot_counts))
            reference_accs.extend(got[1].samples)
        with self.recording():
            zero = self._score(CONTROL_DEPTH, CONTROL_SEED, noise=simulator.NoiseSpec.zero(self.qpu))
        label = f"{self.name} p={CONTROL_DEPTH} noiseless"
        checks.check_noiseless_control(label, zero[0].c, check_score(label, zero, self.recorded[0]))
        return sum(reference_accs) / len(reference_accs)


def planted_bipartite(n: int, rng: random.Random) -> list[list]:
    """Connected bipartite graph with 3n/2 edges and weights 1..5.

    An alternating Hamiltonian path keeps it connected; the rest are random
    cross edges.  Every edge crosses the planted sides, so the maximum cut
    is the total weight.
    """
    order = list(range(n))
    rng.shuffle(order)
    left, right = order[: n // 2], order[n // 2 :]
    path = [v for pair in zip(right, left) for v in pair] + right[len(left) :]
    edges = {tuple(sorted(e)) for e in zip(path, path[1:])}
    while len(edges) < 3 * n // 2:
        edges.add(tuple(sorted((rng.choice(left), rng.choice(right)))))
    return [[u, v, float(rng.randint(1, 5))] for u, v in sorted(edges)]


class FleetSplit:
    """Twelve planted-bipartite MaxCut graphs forced through balanced MinCut.

    One operation is one ``qdisco run`` on the scenario_vb fleet.
    """

    name = "fleet_split"
    sizes = (30, 34, 38, 42) * 3
    capacity_cycle = (8, 7, 6)
    run_settings = {
        "eta": 0.01,
        "p": 1,
        "shots": 300,
        "trajectories": 4,
        "noise": True,
        "optimizer": {"method": "grid_then_nelder_mead", "max_evaluations": 120},
    }

    def __init__(self, seed: int, out_dir: Path) -> None:
        rng = random.Random(f"{self.name}/{seed}")
        fleet = json.loads(data_path("scenario_vb.json").read_text())["fleet"]
        for entry in fleet:
            entry["calibration"] = str(data_path(entry["calibration"]).resolve())
        shutil.rmtree(out_dir, ignore_errors=True)
        inputs = out_dir / "inputs"
        inputs.mkdir(parents=True)
        self.jobs = []
        for i, n in enumerate(self.sizes):
            caps: list[int] = []
            while sum(caps) < n:
                caps.append(self.capacity_cycle[len(caps) % len(self.capacity_cycle)])
            edges = planted_bipartite(n, rng)
            stem = f"{i:02d}_maxcut{n}"
            (inputs / f"{stem}_problem.json").write_text(json.dumps({"num_vertices": n, "edges": edges}))
            config = {
                "problem": f"{stem}_problem.json",
                "fleet": fleet,
                "seed": rng.randrange(2**31),
                "capacities": caps,
                **self.run_settings,
            }
            path = inputs / f"{stem}_config.json"
            path.write_text(json.dumps(config, indent=1))
            cli.load_run_config(str(path))
            self.jobs.append(
                {"n": n, "edges": edges, "max_leaf": max(caps), "config_path": str(path), "result_dir": out_dir / "runs" / stem}
            )
        self.ops = [functools.partial(self._run, job) for job in self.jobs]

    @staticmethod
    def recording():
        return contextlib.nullcontext()

    @staticmethod
    def _run(job: dict):
        """One ``qdisco run``; a failed run (non-zero exit code) yields None."""
        code = cli.main(["run", "--config", job["config_path"], "-o", str(job["result_dir"])])
        return job if code == 0 else None

    def fingerprint(self, outputs) -> list:
        return [None if job is None else (job["result_dir"] / "result.json").read_bytes() for job in outputs]

    def check(self, outputs) -> float:
        """Check every run and the kernel on every leaf; return the mean cut ratio."""
        qualities = []
        for job in outputs:
            if job is None:
                continue
            doc = json.loads((job["result_dir"] / "result.json").read_text())
            optimum = sum(w for _, _, w in job["edges"])
            shots = self.run_settings["shots"]
            qualities.append(checks.check_fleet_run(doc, job["n"], shots, job["max_leaf"], job["edges"], optimum))
            for leaf in doc["result"]["leaves"]:
                verts = leaf["vertices"]
                local = {v: i for i, v in enumerate(verts)}
                sub = [[local[u], local[v], w] for u, v, w in job["edges"] if u in local and v in local]
                poly = problem.maxcut_to_spin_polynomial(problem.ProblemGraph(len(verts), tuple(map(tuple, sub))))
                _kernel_check(f"{self.name} leaf {verts[:3]}", poly, -checks.maxcut_cut_vector(len(verts), sub))
        return sum(qualities) / len(qualities)


WORKLOADS = {w.name: w for w in (HScoreRing6, FleetSplit)}
