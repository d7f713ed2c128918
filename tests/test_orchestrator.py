import typing

import numpy as np
import pytest

from qdisco import orchestrator
from qdisco.cli import load_run_config
from qdisco.compiler import SamplingRegion
from qdisco.datasets import data_path
from qdisco.decomposer import Partition
from qdisco.errors import CapacityError, ConfigError
from qdisco.hardware import Fleet
from qdisco.optimizer import OptimizerConfig
from qdisco.orchestrator import (
    ExecutionPlan,
    PlanNode,
    RegionAssignment,
    execute,
    plan,
    speedup_report,
    usable_region_size,
)
from qdisco.problem import (
    ProblemGraph,
    SpinAssignment,
    SpinPolynomial,
    labs_to_spin_polynomial,
    maxcut_to_spin_polynomial,
)
from qdisco.simulator import ShotCounts

from oracles import random_maxcut_graph
from test_compiler import cyclic_garbage_left_by
from topologies import uniform_qpu

TWO_TRIANGLES = ProblemGraph(
    6,
    (
        (0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
        (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0),
    ),
)


def small_fleet(n=5, names=("qa", "qb"), priors=(1.0, 0.9)):
    qpus = tuple(
        uniform_qpu("line", num_qubits=n, readout=0.0, gate=0.0, name=name)
        for name in names
    )
    return Fleet(qpus, dict(zip(names, priors)))


class TestPlanShapes:
    def test_va_scenario_six_regions(self):
        cfg = load_run_config(str(data_path("scenario_va.json")))
        plan_ = plan(
            cfg.problem.graph, cfg.fleet, cfg.eta, cfg.p, cfg.shots, seed=cfg.seed
        )
        assert plan_.num_leaves == 1
        assert plan_.num_regions == 6
        [leaf] = plan_.root.leaves()
        assert {a.qpu_name: len(a.regions) for a in leaf.assignments}["guadalupe_sim"] == 2
        report = speedup_report(plan_)
        assert report.speedup == pytest.approx(6.0)

    def test_vb_scenario_leaf_sizes_and_priority(self):
        cfg = load_run_config(str(data_path("scenario_vb.json")))
        plan_ = plan(
            cfg.problem.graph,
            cfg.fleet,
            cfg.eta,
            cfg.p,
            cfg.shots,
            capacities=list(cfg.capacities),
            seed=cfg.seed,
        )
        leaves = plan_.root.leaves()
        assert sorted(leaf.size for leaf in leaves) == [4, 5, 6]
        by_size = {leaf.size: leaf for leaf in leaves}
        # the highest-prior QPU takes the largest subproblem
        assert by_size[6].assignments[0].qpu_name == "qpu_alpha"

    def test_trivial_direct_plan(self):
        qpu = uniform_qpu("line", num_qubits=2, readout=0.0, gate=0.0, name="tiny")
        fleet = Fleet((qpu,))
        g = ProblemGraph(2, ((0, 1, 1.0),))
        plan_ = plan(g, fleet, eta=1.0, p=1, shots=100, seed=0)
        assert plan_.num_leaves == 1
        assert plan_.num_regions == 1

    def test_derived_capacities_from_fleet_usable_sizes(self):
        # fleet with usable capacities {4, 5, 6}: a 15-vertex problem must
        # split into exactly those sizes without any explicit capacity config
        qpus = tuple(
            uniform_qpu("line", num_qubits=k, readout=0.0, gate=0.0, name=f"l{k}")
            for k in (4, 5, 6)
        )
        fleet = Fleet(qpus)
        rng = np.random.default_rng(2)
        g = random_maxcut_graph(rng, 15, 0.3)
        plan_ = plan(g, fleet, eta=1.0, p=1, shots=60, seed=0)
        assert sorted(leaf.size for leaf in plan_.root.leaves()) == [4, 5, 6]

    def test_oversized_problem_decomposes(self):
        fleet = small_fleet(n=5)
        rng = np.random.default_rng(1)
        g = random_maxcut_graph(rng, 8, 0.4)
        plan_ = plan(g, fleet, eta=1.0, p=1, shots=64, seed=1)
        assert plan_.num_leaves >= 2
        assert all(leaf.size <= 5 for leaf in plan_.root.leaves())
        # leaves partition the root vertex set
        seen = sorted(v for leaf in plan_.root.leaves() for v in leaf.vertices)
        assert seen == list(range(8))

    def test_forced_split_builds_one_region_set_per_qpu_and_size(self, monkeypatch):
        real = orchestrator._qpu_region_set
        calls = []

        def counted(qpu, eta, n, seed):
            calls.append((qpu.name, n))
            return real(qpu, eta, n, seed)

        monkeypatch.setattr(orchestrator, "_qpu_region_set", counted)
        fleet = small_fleet(n=5)
        g = random_maxcut_graph(np.random.default_rng(3), 20, 0.3)
        plan_ = plan(g, fleet, eta=1.0, p=1, shots=60, capacities=[4] * 5, seed=2)
        leaves = plan_.root.leaves()
        keys = [(leaf.assignments[0].qpu_name, leaf.size) for leaf in leaves]
        assert len(set(keys)) < len(keys)  # several leaves share a (QPU, size)
        assert sorted(calls) == sorted(set(keys))
        qpus = {q.name: q for q in fleet}
        for leaf in leaves:
            [a] = leaf.assignments
            assert a.regions == real(qpus[a.qpu_name], 1.0, leaf.size, 2)

    def test_empty_fleet_rejected(self):
        with pytest.raises(ConfigError):
            plan(TWO_TRIANGLES, Fleet(()), eta=1.0, p=1, shots=10)

    @pytest.mark.parametrize("problem", [ProblemGraph(0), SpinPolynomial(0)], ids=["graph", "polynomial"])
    def test_problem_without_spins_rejected_first(self, problem):
        with pytest.raises(CapacityError, match="problem has 0 spins"):
            plan(problem, small_fleet(), eta=1.0, p=1, shots=10)
        with pytest.raises(CapacityError, match="problem has 0 spins"):
            plan(problem, Fleet(()), eta=1.0, p=1, shots=0)

    def test_unplaceable_problem_names_bottleneck(self):
        qpu = uniform_qpu("line", num_qubits=3, readout=0.5, gate=0.5, name="bad")
        fleet = Fleet((qpu,))
        with pytest.raises(CapacityError, match="bottleneck|usable"):
            plan(TWO_TRIANGLES, fleet, eta=0.01, p=1, shots=10)

    def test_usable_region_size_tracks_filtering(self):
        qpu = uniform_qpu("line", num_qubits=4, readout=0.005, gate=0.002, name="l4")
        assert usable_region_size(qpu, 0.01) == 4
        assert usable_region_size(qpu, 0.004) == 0

    def test_surplus_fleet_capacity_leaves_no_empty_parts(self):
        # three QPUs can over-cover a 9-vertex problem; the plan must trim
        # to a covering prefix instead of producing an empty partition part
        qpus = tuple(
            uniform_qpu("line", num_qubits=k, readout=0.0, gate=0.0, name=f"l{k}_{i}")
            for i, k in enumerate((6, 4, 4))
        )
        fleet = Fleet(qpus)
        rng = np.random.default_rng(3)
        g = random_maxcut_graph(rng, 9, 0.4)
        plan_ = plan(g, fleet, eta=1.0, p=1, shots=64, seed=0)
        assert plan_.root.partition.num_parts == len(plan_.root.children) == 2
        assert sorted(leaf.size for leaf in plan_.root.leaves()) == [3, 6]
        res = execute(plan_, fleet, noise=False, seed=0)
        assert len(res.assignment) == 9

    def test_capacity_shortfall_recurses_into_batches(self):
        # two 4-qubit QPUs cannot cover 10 vertices in one round: the plan
        # splits into ceil(10/4) = 3 leaves and one QPU queues two batches
        fleet = small_fleet(n=4, names=("qa", "qb"))
        rng = np.random.default_rng(12)
        g = random_maxcut_graph(rng, 10, 0.35)
        plan_ = plan(g, fleet, eta=1.0, p=1, shots=64, seed=0)
        leaves = plan_.root.leaves()
        assert len(leaves) == 3
        assert all(leaf.size <= 4 for leaf in leaves)
        assert sorted(v for leaf in leaves for v in leaf.vertices) == list(range(10))
        # leaves of sizes 4, 4, 2 over 2 QPUs; the 2-qubit leaf multi-samples
        # two 32-shot regions, and one QPU queues it after a 4-qubit batch:
        # sequential = 64 + 64 + 32 + 32, bottleneck chain = 64 + 32
        report = speedup_report(plan_)
        assert sorted(leaf.size for leaf in leaves) == [2, 4, 4]
        assert report.sequential_units == 192
        assert report.parallel_units == 96
        assert report.speedup == pytest.approx(2.0)
        # execution still merges to a full assignment
        res = execute(plan_, fleet, noise=False, seed=0)
        assert len(res.assignment) == 10

    def test_labs_plan_is_direct_only(self):
        poly = labs_to_spin_polynomial(4)
        fleet = small_fleet(n=5)
        plan_ = plan(poly, fleet, eta=1.0, p=1, shots=32, seed=0)
        assert plan_.num_leaves == 1
        big = labs_to_spin_polynomial(8)
        with pytest.raises(CapacityError, match="cannot be decomposed"):
            plan(big, fleet, eta=1.0, p=1, shots=32, seed=0)

    def test_polynomial_plan_validates_like_a_graph_plan(self):
        poly = labs_to_spin_polynomial(4)
        with pytest.raises(ConfigError):
            plan(poly, Fleet(()), eta=1.0, p=1, shots=32)
        with pytest.raises(ConfigError):
            plan(poly, small_fleet(n=5), eta=1.0, p=1, shots=0)
        # a polynomial has no graph to partition
        with pytest.raises(ConfigError, match="graph problem"):
            plan(poly, small_fleet(n=5), eta=1.0, p=1, shots=32, capacities=[2, 2])

    def test_plan_node_type_hints_resolve(self):
        hints = typing.get_type_hints(PlanNode)
        assert Partition in typing.get_args(hints["partition"])

    def test_plan_feasibility_invariants(self):
        # regions in one QPU batch are pairwise disjoint and every leaf's
        # region survived threshold filtering at the plan's eta
        from qdisco.compiler import filter_by_threshold

        cfg = load_run_config(str(data_path("scenario_va.json")))
        plan_ = plan(
            cfg.problem.graph, cfg.fleet, cfg.eta, cfg.p, cfg.shots, seed=cfg.seed
        )
        for leaf in plan_.root.leaves():
            for a in leaf.assignments:
                used: set[int] = set()
                fg = filter_by_threshold(cfg.fleet.get(a.qpu_name), plan_.eta)
                for region in a.regions:
                    assert region.size == leaf.size
                    assert not used & set(region.qubits)
                    used |= set(region.qubits)
                    assert set(region.qubits) <= fg.qubits
                    assert set(region.edges) <= fg.edges


class TestSpeedupModel:
    def leaf_with_shots(self, shots_per_region):
        poly = maxcut_to_spin_polynomial(ProblemGraph(2, ((0, 1, 1.0),)))
        regions = tuple(
            SamplingRegion("q", (2 * i, 2 * i + 1), ((2 * i, 2 * i + 1),), 0.9)
            for i in range(len(shots_per_region))
        )
        leaf = PlanNode(
            vertices=(0, 1),
            polynomial=poly,
            assignments=(RegionAssignment("q", regions, tuple(shots_per_region)),),
        )
        return ExecutionPlan(
            root=leaf, eta=1.0, p=1, shots_per_leaf=sum(shots_per_region), qpu_names=("q",)
        )

    def test_single_region_speedup_one(self):
        report = speedup_report(self.leaf_with_shots([100]))
        assert report.speedup == pytest.approx(1.0)

    def test_even_split_is_region_count(self):
        report = speedup_report(self.leaf_with_shots([50, 50, 50, 50]))
        assert report.speedup == pytest.approx(4.0)

    def test_bottleneck_region(self):
        report = speedup_report(self.leaf_with_shots([50, 25, 25]))
        assert report.speedup == pytest.approx(2.0)


class TestLeafAnswer:
    def test_ties_go_by_outcome_string_not_by_index(self):
        # indices 1 and 2 read "10" and "01": the same cut, counted as often
        edge = maxcut_to_spin_polynomial(ProblemGraph(2, ((0, 1, 1.0),)))
        counts = ShotCounts({1: 5, 2: 5}, 10, 2)
        assert orchestrator._best_outcome(counts, edge) == 2
        assert orchestrator._leaf_answer([1, 2], {1: 5, 2: 5}, edge) == 2


class TestExecute:
    def test_disjoint_triangles_reach_optimum(self):
        fleet = small_fleet(n=3, names=("qa", "qb"))
        plan_ = plan(TWO_TRIANGLES, fleet, eta=1.0, p=1, shots=256, seed=3)
        assert sorted(leaf.size for leaf in plan_.root.leaves()) == [3, 3]
        res = execute(
            plan_,
            fleet,
            noise=False,
            seed=3,
            optimizer_cfg=OptimizerConfig(method="grid_then_nelder_mead", max_evaluations=100),
        )
        assert res.cut_value == pytest.approx(4.0)
        assert res.cost == pytest.approx(-4.0)

    def test_single_leaf_plan_is_a_direct_run(self):
        qpu = uniform_qpu("ring", num_qubits=6, readout=0.0, gate=0.0, name="solo")
        fleet = Fleet((qpu,))
        g = ProblemGraph(6, tuple((i, (i + 1) % 6, 1.0) for i in range(6)))
        plan_ = plan(g, fleet, eta=1.0, p=1, shots=512, seed=4)
        assert plan_.num_leaves == 1
        res = execute(plan_, fleet, noise=False, seed=4)
        assert res.cut_value == pytest.approx(6.0)
        # cost consistency invariant
        poly = maxcut_to_spin_polynomial(g)
        from qdisco.problem import evaluate_cost

        assert res.cost == pytest.approx(evaluate_cost(poly, res.assignment))

    def test_deterministic(self):
        fleet = small_fleet(n=5)
        rng = np.random.default_rng(5)
        g = random_maxcut_graph(rng, 9, 0.35)
        plan_ = plan(g, fleet, eta=1.0, p=1, shots=128, seed=6)
        a = execute(plan_, fleet, noise=True, seed=6, trajectories=4)
        b = execute(plan_, fleet, noise=True, seed=6, trajectories=4)
        assert a == b

    def test_merge_dominance_end_to_end(self):
        fleet = small_fleet(n=5)
        rng = np.random.default_rng(7)
        for trial in range(15):
            g = random_maxcut_graph(rng, 10, 0.3)
            if not g.edges:
                continue
            plan_ = plan(g, fleet, eta=1.0, p=1, shots=256, capacities=[5, 5], seed=trial)
            res = execute(plan_, fleet, noise=False, seed=trial)
            concat = [0] * 10
            for leaf, out in zip(plan_.root.leaves(), res.leaf_outcomes):
                sol = SpinAssignment.from_bits(out.solution_bits)
                for local, parent in enumerate(leaf.vertices):
                    concat[parent] = sol[local]
            assert res.cut_value >= g.cut_value(concat) - 1e-12

    def test_noise_ordering_statistical(self):
        # fixed instance chosen so the noiseless pipeline reaches the exact
        # optimum on every seed; uniform e = 0.05 can then only lose ground
        rng = np.random.default_rng(0)
        g = random_maxcut_graph(rng, 10, 0.3)
        clean_fleet = small_fleet(n=5, names=("ca", "cb"))
        noisy_qpus = tuple(
            uniform_qpu("line", num_qubits=5, readout=0.05, gate=0.05, name=n)
            for n in ("na", "nb")
        )
        noisy_fleet = Fleet(noisy_qpus, {"na": 1.0, "nb": 0.9})
        cfg = OptimizerConfig(method="grid_then_nelder_mead", max_evaluations=100)
        clean_cuts, noisy_cuts = [], []
        for s in range(20):
            p_clean = plan(g, clean_fleet, eta=1.0, p=1, shots=512, capacities=[5, 5], seed=s)
            clean_cuts.append(
                execute(p_clean, clean_fleet, noise=False, seed=s, optimizer_cfg=cfg).cut_value
            )
            p_noisy = plan(g, noisy_fleet, eta=1.0, p=1, shots=512, capacities=[5, 5], seed=s)
            noisy_cuts.append(
                execute(
                    p_noisy, noisy_fleet, noise=True, seed=s, optimizer_cfg=cfg, trajectories=8
                ).cut_value
            )
        assert np.mean(clean_cuts) >= np.mean(noisy_cuts)

    def test_leaf_hscore_reports(self):
        qpu = uniform_qpu("line", num_qubits=3, readout=0.0, gate=0.0, name="h")
        fleet = Fleet((qpu,))
        g = ProblemGraph(3, ((0, 1, 1.0), (1, 2, 1.0)))
        plan_ = plan(g, fleet, eta=1.0, p=1, shots=128, seed=9)
        res = execute(plan_, fleet, noise=False, seed=9, with_hscore=True, hscore_m_ref=100)
        assert res.leaf_outcomes[0].hscore is not None
        assert 0.0 <= res.leaf_outcomes[0].hscore.c <= 2.0


class TestNoReferenceCycles:
    """Recursive plan walks must free their state on return, not at the next collection."""

    @pytest.mark.parametrize("scenario", ["scenario_va", "scenario_vb"])
    def test_plan_and_execute(self, scenario):
        cfg = load_run_config(str(data_path(f"{scenario}.json")))
        graph = cfg.problem.graph
        caps = list(cfg.capacities) if cfg.capacities is not None else None

        def plan_():
            return plan(graph, cfg.fleet, cfg.eta, cfg.p, cfg.shots, capacities=caps, seed=cfg.seed)

        assert cyclic_garbage_left_by(plan_) == 0
        built = plan_()
        assert cyclic_garbage_left_by(
            lambda: execute(
                built,
                cfg.fleet,
                noise=cfg.noise,
                seed=cfg.seed,
                optimizer_cfg=cfg.optimizer,
                trajectories=cfg.trajectories,
            )
        ) == 0
