"""Steadiness of the benchmark: repeated runs of one commit, in two sets.

    python3 perfbench/steady.py [--write-bounds]

Runs ``run.py --trace 0`` ten times per set, in two sets, on every
workload of BENCHMARK.json, with a new seed each time (set k uses seeds
1000*k + 1 ... 1000*k + 10), the workloads taking turns.  For each set,
workload and end-to-end metric it prints the median, the quartiles and
the spread (q3 - q1) / median, as ``statistics.quantiles(values, n=4)``
gives them.  It then checks the bounds in BENCHMARK.json: every spread
within its bound, no set median worse than the first set's by more than
the bound, and the same share of failed operations in every set.
``--write-bounds`` first sets each bound to three times the largest
spread or median shift seen, at least 0.05 and at most 0.25 (setup_s
always gets the largest allowed bound, 0.25).  Raw values go to
``perfbench/out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = ROOT / "BENCHMARK.json"
MAX_BOUND = 0.25
MIN_BOUND = 0.05
RUNS = 10
SETS = 2


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {out.returncode}: {out.stderr.strip()}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def worsening(first: float, second: float, better: str) -> float:
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    bench = json.loads(BENCHMARK.read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--write-bounds", action="store_true")
    args = ap.parse_args(argv)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    results: dict[int, dict[str, list[dict]]] = {}
    for s in range(SETS):
        results[s] = {w: [] for w in workloads}
        for r in range(RUNS):
            seed = 1000 * (s + 1) + r + 1
            for w in workloads:
                res = one_run(w, seed, bench["run_seconds"])
                results[s][w].append(res)
                print(f"set {s + 1} {w} seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']} "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)

    table = {}
    for w in workloads:
        for name in metrics:
            per_set = [summary([r["metrics"][name]["value"] for r in results[s][w]]) for s in range(SETS)]
            table[(w, name)] = per_set

    if args.write_bounds:
        for name, m in metrics.items():
            if name == "setup_s":
                m["bound"] = MAX_BOUND
                continue
            seen = 0.0
            for w in workloads:
                per_set = table[(w, name)]
                seen = max([seen] + [p["spread"] for p in per_set])
                seen = max([seen] + [worsening(per_set[0]["median"], p["median"], m["better"]) for p in per_set[1:]])
            m["bound"] = round(min(MAX_BOUND, max(MIN_BOUND, 3 * seen)), 3)
        BENCHMARK.write_text(json.dumps(bench, indent=2) + "\n")

    ok = True
    print(f"\n{'workload':14} {'metric':17} " + " ".join(f"set{s + 1}: median [q1, q3] spread" for s in range(SETS)) + "  bound  verdict")
    for (w, name), per_set in table.items():
        bound = metrics[name]["bound"]
        problems = [f"set{s + 1} spread" for s, p in enumerate(per_set) if p["spread"] > bound]
        problems += [f"set{s + 1} median" for s, p in enumerate(per_set[1:], 1)
                     if worsening(per_set[0]["median"], p["median"], metrics[name]["better"]) > bound]
        ok &= not problems
        cells = " ".join(f"{p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}] {p['spread']:.3f}" for p in per_set)
        print(f"{w:14} {name:17} {cells}  {bound:.3f}  {'ok' if not problems else ', '.join(problems)}")
    for w in workloads:
        shares = {sum(r["failed"] for r in results[s][w]) / sum(r["attempted"] for r in results[s][w]) for s in range(SETS)}
        incorrect = sum(not r["correct"] for s in range(SETS) for r in results[s][w])
        print(f"{w}: failed share per set {sorted(shares)}, incorrect runs {incorrect}")
        ok &= len(shares) == 1 and incorrect == 0

    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "steady.json").write_text(json.dumps(
        {"runs": {f"set{s + 1}": results[s] for s in results},
         "summary": {f"{w}/{n}": v for (w, n), v in table.items()}}, indent=1) + "\n")
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
