"""Self-check of the benchmark's output checks.

    python3 perfbench/selfcheck.py

Runs qdisco on small inputs, confirms every check accepts the genuine
outputs, then feeds each check a corrupted copy (a flipped spin, a
perturbed C, a mismatched cost, an overlapping leaf, ...) and confirms it
fires.  Exits 1 if a check rejects a genuine output or misses a corruption.
"""

from __future__ import annotations

import copy
import json
import random
import sys
import tempfile
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from qdisco import cli, hscore, problem, simulator  # noqa: E402
from qdisco.datasets import data_path  # noqa: E402
from workloads import KERNEL_BETAS, KERNEL_GAMMAS, HScoreRing6, planted_bipartite  # noqa: E402

SHOTS = 200


class SmallRing6(HScoreRing6):
    """The ``hscore_ring6`` device score with few scored runs and evaluations."""

    m = 4
    shots = 64
    max_evaluations = 20


def qdisco_run(tmp: Path, name: str, problem_doc: dict, scenario: str, **settings) -> dict:
    fleet = json.loads(data_path(scenario).read_text())["fleet"]
    for entry in fleet:
        entry["calibration"] = str(data_path(entry["calibration"]).resolve())
    (tmp / f"{name}_problem.json").write_text(json.dumps(problem_doc))
    config = {"problem": f"{name}_problem.json", "fleet": fleet, "seed": 3, "shots": SHOTS,
              "trajectories": 2, "optimizer": {"max_evaluations": 40}, **settings}
    (tmp / f"{name}_config.json").write_text(json.dumps(config))
    code = cli.main(["run", "--config", str(tmp / f"{name}_config.json"), "-o", str(tmp / name)])
    if code != 0:
        raise SystemExit(f"qdisco run {name} exited with {code}")
    return json.loads((tmp / name / "result.json").read_text())


def flip_bit(bits: str, i: int) -> str:
    return bits[:i] + ("1" if bits[i] == "0" else "0") + bits[i + 1 :]


def main() -> int:
    rng = random.Random(5)
    n = 14
    edges = planted_bipartite(n, rng)
    optimum = sum(w for _, _, w in edges)
    with tempfile.TemporaryDirectory() as tmp:
        split = qdisco_run(Path(tmp), "split", {"num_vertices": n, "edges": edges}, "scenario_vb.json", capacities=[8, 7])

    small = planted_bipartite(8, rng)
    costs = -checks.maxcut_cut_vector(8, small)
    poly = problem.maxcut_to_spin_polynomial(problem.ProblemGraph(8, tuple(map(tuple, small))))
    state = simulator.build_qaoa_state(poly, simulator.QaoaParams(KERNEL_GAMMAS, KERNEL_BETAS))
    amps = state.amplitudes
    value = simulator.expectation(state, poly)
    bumped = amps.copy()
    bumped[0] += 1e-8

    ref = [i / 10 for i in range(10)] * 10
    accs = [i / 100 for i in range(100)]
    c = hscore.h_score(accs, hscore.ReferenceDistribution("selfcheck", 1, tuple(ref), 256)).c
    _, se = checks.h_score(accs, ref)

    ring = SmallRing6(1, Path("unused"))
    with ring.recording():
        report, reference = ring._score(1, 3)
    histograms = ring.recorded[0]
    optimal = checks.optimal_bitstrings(checks.maxcut_cut_vector(6, ring.problem_doc["edges"]))
    runs, ref_accs = list(report.accuracies), list(reference.samples)
    hit = next(i for i, h in enumerate(histograms) if set(h.counts) & optimal and set(h.counts) - optimal)

    def accuracies(hists=histograms, opt=optimal, r=runs, ref_samples=ref_accs):
        return lambda: checks.check_accuracies("acc", hists, opt, ring.shots, r, ref_samples)

    def shot_off_optimum(hists):
        counts = dict(hists[hit].counts)
        on = next(k for k in counts if k in optimal)
        off = next(k for k in counts if k not in optimal)
        counts[on] -= 1
        counts[off] += 1
        bad = list(hists)
        bad[hit] = types.SimpleNamespace(counts=counts, total_shots=hists[hit].total_shots)
        return bad

    def off_by_one_shot(values, i):
        return values[:i] + [values[i] + 1 / ring.shots] + values[i + 1 :]

    def kernel(a=amps, v=value):
        return lambda: checks.check_kernel("kernel", a, v, costs, KERNEL_GAMMAS, KERNEL_BETAS)

    def fleet(doc, opt=optimum):
        return lambda: checks.check_fleet_run(doc, n, SHOTS, 8, edges, opt)

    def corrupt(doc, edit):
        bad = copy.deepcopy(doc)
        edit(bad)
        return bad

    def set_bits(doc, bits):
        doc["result"]["bits"] = bits
        doc["result"]["assignment"] = [1 - 2 * int(b) for b in bits]

    def worse_than_concat(doc):
        set_bits(doc, "0" * n)
        doc["result"]["cut_value"] = 0.0
        doc["result"]["cost"] = 0.0

    genuine = [
        ("kernel", kernel()),
        ("h-score", lambda: checks.check_hscore("h", c, accs, ref, 100, 100)),
        ("accuracies", accuracies()),
        ("fleet maxcut", fleet(split)),
    ]
    corrupted = [
        ("kernel: one amplitude perturbed by 1e-8", kernel(a=bumped)),
        ("kernel: expectation perturbed by 1e-6", kernel(v=value + 1e-6)),
        ("h-score: C perturbed by 1e-9", lambda: checks.check_hscore("h", c + 1e-9, accs, ref, 100, 100)),
        ("h-score: one accuracy missing", lambda: checks.check_hscore("h", c, accs[:-1], ref, 100, 100)),
        ("accuracies: one scored run's accuracy off by one shot", accuracies(r=off_by_one_shot(runs, 0))),
        ("accuracies: one reference accuracy off by one shot", accuracies(ref_samples=off_by_one_shot(ref_accs, 0))),
        ("accuracies: one shot moved off the optimum", accuracies(hists=shot_off_optimum(histograms))),
        ("accuracies: an optimal outcome missing from the optimal set", accuracies(opt=optimal - {min(optimal)})),
        ("accuracies: one histogram missing", accuracies(hists=histograms[:-1])),
        ("h-score: noiseless control at 1 + 4 SE", lambda: checks.check_noiseless_control("h", 1 + 4 * se, se)),
        ("h-score: noisy device only 2 SE below 1", lambda: checks.check_noisy_below("h", 1 - 2 * se, se)),
        ("fleet: one spin flipped in the answer", fleet(corrupt(split, lambda d: set_bits(d, flip_bit(d["result"]["bits"], 0))))),
        ("fleet: reported cut perturbed", fleet(corrupt(split, lambda d: d["result"].update(cut_value=d["result"]["cut_value"] + 1)))),
        ("fleet: cost does not match the cut", fleet(corrupt(split, lambda d: d["result"].update(cost=d["result"]["cost"] - 1)))),
        ("fleet: cut above the optimum", fleet(split, opt=split["result"]["cut_value"] - 1)),
        ("fleet: merged cut below concatenation", fleet(corrupt(split, worse_than_concat))),
        ("fleet: leaf overlaps its sibling", fleet(corrupt(split, lambda d: d["plan"]["tree"]["children"][0]["vertices"].__setitem__(0, d["plan"]["tree"]["children"][1]["vertices"][0])))),
        ("fleet: leaf shots do not sum to the configured shots", fleet(corrupt(split, lambda d: d["plan"]["tree"]["children"][0]["assignments"][0]["shots_per_region"].__setitem__(0, 1)))),
        ("fleet: part above its capacity", fleet(corrupt(split, lambda d: d["plan"]["tree"]["partition"]["capacities"].__setitem__(0, d["plan"]["tree"]["partition"]["part_sizes"][0] - 1)))),
    ]

    ok = True
    for name, run in genuine:
        try:
            run()
            print(f"accepts genuine output: {name}")
        except checks.CheckFailed as exc:
            ok = False
            print(f"REJECTS GENUINE OUTPUT: {name}: {exc}")
    for name, run in corrupted:
        try:
            run()
        except checks.CheckFailed as exc:
            print(f"fires: {name}: {exc}")
        else:
            ok = False
            print(f"MISSED: {name}")
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
