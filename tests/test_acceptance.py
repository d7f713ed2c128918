"""Acceptance suite: one test per shipped criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
Every tolerance is pinned here; all randomness is seeded, so each criterion
is fully reproducible.
"""

import itertools
import math
import time

import numpy as np
import pytest

from qdisco.cli import load_run_config, main
from qdisco.compiler import best_regions, filter_by_threshold, map_circuit
from qdisco.datasets import data_path
from qdisco.hardware import Fleet, QpuModel
from qdisco.hscore import benchmark_qpu, build_reference, h_score
from qdisco.optimizer import OptimizerConfig, optimize
from qdisco.orchestrator import execute, plan, speedup_report
from qdisco.problem import (
    ProblemGraph,
    SpinAssignment,
    brute_force_optimum,
    evaluate_cost,
    labs_to_spin_polynomial,
    maxcut_to_spin_polynomial,
)
from qdisco.simulator import QaoaParams, build_qaoa_state
from qdisco._seeds import derive_seed

from oracles import (
    counting_comparisons,
    dense_qaoa_oracle,
    exhaustive_region_selection,
    labs_energy_direct,
    physical_statevector,
    random_maxcut_graph,
    reference_enumerate_regions,
)
from topologies import uniform_qpu

RING6 = ProblemGraph(6, tuple((i, (i + 1) % 6, 1.0) for i in range(6)))
RING8 = ProblemGraph(8, tuple((i, (i + 1) % 8, 1.0) for i in range(8)))


def report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d}: {status} - {detail}")
    assert ok, detail


def test_criterion_01_hscore_self_normalization():
    """Noiseless QPU scored against its own reference gives C near 1."""
    poly = maxcut_to_spin_polynomial(RING6)
    qpu = uniform_qpu("ring", num_qubits=6, readout=0.0, gate=0.0, name="noiseless")
    cfg = OptimizerConfig(max_evaluations=120)
    start = time.time()
    rep, _ = benchmark_qpu(poly, qpu, p=1, m=500, seed=123, cfg=cfg, shots=256, m_ref=500)
    elapsed = time.time() - start
    ok = 0.9 <= rep.c <= 1.1 and elapsed < 120.0
    report(1, ok, f"C = {rep.c:.4f} (target [0.9, 1.1]) in {elapsed:.1f}s (< 120s)")


def test_criterion_02_hscore_ceiling():
    """A stream of perfect accuracies against a spread reference scores >= 1.9."""
    poly = maxcut_to_spin_polynomial(RING6)
    cfg = OptimizerConfig(max_evaluations=120)
    ref = build_reference(poly, 1, cfg, m_ref=200, seed=7, shots=256)
    assert len(set(ref.samples)) > 1, "reference must be nondegenerate"
    rep = h_score([1.0] * 100, ref)
    ok = rep.c >= 1.9
    report(2, ok, f"all-1.0 accuracy stream scores C = {rep.c:.4f} (>= 1.9)")


def test_criterion_03_five_qpus_six_samplings():
    """Bundled 5-QPU fleet plans 6 regions, 2 on the 16-qubit chip, speedup 6."""
    cfg = load_run_config(str(data_path("scenario_va.json")))
    plan_ = plan(cfg.problem.graph, cfg.fleet, cfg.eta, cfg.p, cfg.shots, seed=cfg.seed)
    rep = speedup_report(plan_)
    regions_16 = sum(
        len(a.regions)
        for leaf in plan_.root.leaves()
        for a in leaf.assignments
        if a.qpu_name == "guadalupe_sim"
    )
    ok = (
        plan_.num_regions == 6
        and regions_16 == 2
        and rep.speedup == pytest.approx(6.0)
    )
    report(
        3,
        ok,
        f"{plan_.num_regions} regions total, {regions_16} on the 16-qubit model, "
        f"speedup {rep.speedup:.1f}",
    )


def test_criterion_04_decomposition_sizes_and_priority():
    """Bundled 15-vertex problem splits 4/5/6; top-prior QPU takes the 6-leaf."""
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
    sizes = sorted(leaf.size for leaf in leaves)
    six_leaf = next(leaf for leaf in leaves if leaf.size == 6)
    owner = six_leaf.assignments[0].qpu_name
    top_prior = max(cfg.fleet.priors, key=cfg.fleet.priors.get)
    ok = sizes == [4, 5, 6] and owner == top_prior
    report(4, ok, f"leaf sizes {sizes}, 6-qubit leaf on '{owner}' (top prior '{top_prior}')")


def test_criterion_05_noise_ordering():
    """Mean H-Score strictly decreases with uniform error, gaps beyond 2 sigma."""
    poly = maxcut_to_spin_polynomial(RING8)
    cfg = OptimizerConfig(max_evaluations=100)
    ref = build_reference(poly, 2, cfg, m_ref=150, seed=999, shots=256)
    levels = (0.0, 0.02, 0.05)
    stats = {}
    for level in levels:
        qpu = uniform_qpu("ring", num_qubits=8, readout=level, gate=level, name=f"u{level}")
        scores = []
        for s in range(20):
            rep, _ = benchmark_qpu(
                poly,
                qpu,
                p=2,
                m=10,
                seed=derive_seed(1000 + s, "noise-order", str(level)),
                cfg=cfg,
                shots=256,
                m_ref=150,
                reference=ref,
            )
            scores.append(rep.c)
        arr = np.array(scores)
        stats[level] = (float(arr.mean()), float(arr.std(ddof=1)))
    ok = True
    details = []
    for hi, lo in ((0.0, 0.02), (0.02, 0.05)):
        mean_hi, sd_hi = stats[hi]
        mean_lo, sd_lo = stats[lo]
        gap = mean_hi - mean_lo
        two_sigma = 2.0 * math.sqrt(sd_hi**2 / 20 + sd_lo**2 / 20)
        ok = ok and gap > two_sigma
        details.append(f"{hi} vs {lo}: gap {gap:.3f} > 2sigma {two_sigma:.3f}")
    means = ", ".join(f"e={lvl}: {stats[lvl][0]:.3f}" for lvl in levels)
    report(5, ok, f"mean H-Scores [{means}]; {'; '.join(details)}")


def _random_tree_qpu(rng, size: int) -> QpuModel:
    edges = {(int(rng.integers(0, v)), v) for v in range(1, size)}
    gate_error = {e: float(rng.uniform(0.001, 0.03)) for e in sorted(edges)}
    readout = tuple(float(x) for x in rng.uniform(0.001, 0.03, size=size))
    return QpuModel(f"tree{size}", size, readout, gate_error)


def test_criterion_06_compiler_exactness():
    """Selection matches exhaustive search; filtering is sound and Theta(N+E)."""
    rng = np.random.default_rng(606)
    models = 0
    while models < 50:
        size = int(rng.integers(5, 13))
        qpu = _random_tree_qpu(rng, size)
        # filter soundness, exhaustively
        eta = float(rng.uniform(0.005, 0.04))
        counted, comparisons = counting_comparisons(qpu)
        fg = filter_by_threshold(counted, eta)
        for q in range(qpu.num_qubits):
            assert (q in fg.qubits) == (qpu.readout_error[q] < eta)
        for edge, err in qpu.gate_error.items():
            want = err < eta and edge[0] in fg.qubits and edge[1] in fg.qubits
            assert (edge in fg.edges) == want
        # Theta(N + E): exactly one predicate evaluation per qubit and edge
        assert comparisons[0] == qpu.num_qubits + len(qpu.edges)

        # selection exactness on tree models (candidate lists stay small)
        full = filter_by_threshold(qpu, 1.0)
        n = 2 if models % 2 == 0 else size - 1
        k = int(rng.integers(1, 5)) if n == 2 else int(rng.integers(1, 3))
        candidates = reference_enumerate_regions(full, n)
        assert len(candidates) <= 12, "tree family keeps the exact regime"
        chosen = best_regions(full, n, k)
        best_count, best_product, _ = exhaustive_region_selection(candidates, k)
        assert len(chosen) == best_count
        got = math.prod(r.fidelity for r in chosen)
        assert got == pytest.approx(best_product)
        models += 1
    report(6, True, "50 seeded models: selection exact, filtering sound, count = N+E")


def test_criterion_07_simulator_oracles():
    """Dense expm oracle to 1e-8; 25 placements transparent to 1e-9."""
    rng = np.random.default_rng(707)
    worst_amp = 0.0
    for _ in range(12):
        n = int(rng.integers(2, 5))
        g = random_maxcut_graph(rng, n, 0.6, weighted=True)
        poly = maxcut_to_spin_polynomial(g)
        p = int(rng.integers(1, 4))
        params = QaoaParams(
            tuple(rng.uniform(0, 2 * math.pi, p)), tuple(rng.uniform(0, math.pi, p))
        )
        got = build_qaoa_state(poly, params).amplitudes
        want = dense_qaoa_oracle(poly, params)
        worst_amp = max(worst_amp, float(np.max(np.abs(got - want))))
    assert worst_amp < 1e-8

    qpu = uniform_qpu("line", num_qubits=8, readout=0.005, gate=0.002)
    fg = filter_by_threshold(qpu, 0.01)
    worst_prob = 0.0
    swaps = 0
    placements = 0
    while placements < 25:
        n = int(rng.integers(3, 7))
        g = random_maxcut_graph(rng, n, 0.8, weighted=True)
        if not g.edges:
            continue
        poly = maxcut_to_spin_polynomial(g)
        regions = reference_enumerate_regions(fg, n)
        region = regions[int(rng.integers(len(regions)))]
        placement = map_circuit(poly, region)
        swaps += placement.swap_count
        p = int(rng.integers(1, 3))
        params = QaoaParams(
            tuple(rng.uniform(0, 2 * math.pi, p)), tuple(rng.uniform(0, math.pi, p))
        )
        want = build_qaoa_state(poly, params).probabilities()
        got = np.abs(physical_statevector(poly, placement, params)) ** 2
        worst_prob = max(worst_prob, float(np.max(np.abs(got - want))))
        placements += 1
    ok = worst_amp < 1e-8 and worst_prob < 1e-9 and swaps > 0
    report(
        7,
        ok,
        f"amplitude error {worst_amp:.2e} (< 1e-8); placement transparency "
        f"{worst_prob:.2e} (< 1e-9) over 25 placements ({swaps} swaps exercised)",
    )


def test_criterion_08_decomposition_quality():
    """100 seeded 10-vertex instances, capacities {5,5}: >= 90 hit 0.9x optimum."""
    qpus = tuple(
        uniform_qpu("line", num_qubits=5, readout=0.0, gate=0.0, name=name)
        for name in ("qa", "qb")
    )
    fleet = Fleet(qpus, {"qa": 1.0, "qb": 0.9})
    cfg = OptimizerConfig(method="grid_then_nelder_mead", max_evaluations=120)
    hits = 0
    dominance_failures = 0
    total = 0
    for trial in range(100):
        rng = np.random.default_rng(5000 + trial)
        g = random_maxcut_graph(rng, 10, 0.25)
        if not g.edges:
            continue
        total += 1
        plan_ = plan(g, fleet, eta=1.0, p=1, shots=512, capacities=[5, 5], seed=trial)
        res = execute(plan_, fleet, noise=False, seed=trial, optimizer_cfg=cfg)
        best, _ = brute_force_optimum(maxcut_to_spin_polynomial(g))
        optimum = -best
        if optimum == 0 or res.cut_value >= 0.9 * optimum - 1e-9:
            hits += 1
        concat = [0] * 10
        for leaf, out in zip(plan_.root.leaves(), res.leaf_outcomes):
            sol = SpinAssignment.from_bits(out.solution_bits)
            for local, parent in enumerate(leaf.vertices):
                concat[parent] = sol[local]
        if g.cut_value(concat) > res.cut_value + 1e-9:
            dominance_failures += 1
    ok = hits >= 90 and dominance_failures == 0 and total == 100
    report(
        8,
        ok,
        f"{hits}/{total} runs >= 0.9x optimum (need >= 90); "
        f"{dominance_failures} merge-dominance violations (need 0)",
    )


def test_criterion_09_labs_correctness():
    """Encoder matches the direct energy; p=2 QAOA beats 2x uniform mass."""
    for n in range(2, 9):
        poly = labs_to_spin_polynomial(n)
        for bits in itertools.product((0, 1), repeat=n):
            spins = tuple(1 - 2 * b for b in bits)
            got = evaluate_cost(poly, SpinAssignment(spins))
            assert got == pytest.approx(labs_energy_direct(spins))

    poly6 = labs_to_spin_polynomial(6)
    best, argmins = brute_force_optimum(poly6)
    optimal_indices = {a.to_index() for a in argmins}
    uniform_mass = len(argmins) / 64.0
    cfg = OptimizerConfig(max_evaluations=400, restarts=3)
    trace = optimize(poly6, 2, cfg, seed=20)
    state = build_qaoa_state(poly6, trace.best_params)
    probs = state.probabilities()
    mass = float(sum(probs[i] for i in optimal_indices))
    ok = mass >= 2.0 * uniform_mass
    report(
        9,
        ok,
        f"LABS encoder exact for n<=8; p=2 optimal mass {mass:.3f} vs uniform "
        f"{uniform_mass:.3f} (ratio {mass / uniform_mass:.2f}, need >= 2)",
    )


def test_criterion_10_cli_determinism(tmp_path):
    """Identical config + seed reproduce byte-identical result payloads."""
    vb = str(data_path("scenario_vb.json"))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", vb, "-o", str(out_a)]) == 0
    assert main(["run", "--config", vb, "-o", str(out_b)]) == 0
    run_same = (out_a / "result.json").read_bytes() == (out_b / "result.json").read_bytes()

    bench_args = [
        "benchmark",
        "--problem",
        str(data_path("problem_ring6.json")),
        "--qpu",
        str(data_path("qpu_t7_a.json")),
        "--layers",
        "1",
        "--mref",
        "100",
        "--m",
        "20",
        "--shots",
        "64",
        "--max-evaluations",
        "40",
        "--seed",
        "5",
    ]
    assert main([*bench_args, "-o", str(tmp_path / "ba")]) == 0
    assert main([*bench_args, "-o", str(tmp_path / "bb")]) == 0
    bench_same = (tmp_path / "ba" / "benchmark_hscore.json").read_bytes() == (
        tmp_path / "bb" / "benchmark_hscore.json"
    ).read_bytes()
    ok = run_same and bench_same
    report(10, ok, f"run payload identical: {run_same}; benchmark payload identical: {bench_same}")
