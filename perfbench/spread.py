"""Run-to-run spread of the end-to-end metrics, the way steadiness is judged.

    python3 perfbench/spread.py                    # 10 seeds, all workloads
    python3 perfbench/spread.py --runs 5 --workload telegraph_mc

Runs run.py once per seed (seeds first-seed, first-seed + 1, ...) for
BENCHMARK.json's run_seconds, then prints for every metric the median and
the quartile spread (Q3 - Q1) / median from statistics.quantiles(n=4),
next to the metric's bound.  A spread under a third of the bound passes
(setup_s is exempt: only its median is compared between sets of runs).
The failed share of every run is printed too; it must be identical.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary, steady = {}, True
    for name in args.workload or names:
        values = {m: [] for m in bounds}
        shares, walls = set(), []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=True)
            walls.append(time.monotonic() - t0)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                print(f"{name} seed {seed}: incorrect outputs", file=sys.stderr)
                steady = False
            shares.add(res["failed"] / res["attempted"])
            for m in bounds:
                values[m].append(res["metrics"][m]["value"])
        rows = {}
        for m, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = m == "setup_s" or spread < bounds[m] / 3
            steady &= ok
            rows[m] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                       "values": vals}
            print(f"{name:<14} {m:<12} median {med:>10.5g}  Q1 {q1:>10.5g}  "
                  f"Q3 {q3:>10.5g}  spread {spread:6.2%}  bound "
                  f"{bounds[m]:.0%}  {'ok' if ok else 'TOO WIDE'}")
        print(f"{name:<14} failed shares {sorted(shares)}; wall time per run "
              f"{min(walls):.1f}-{max(walls):.1f} s")
        steady &= len(shares) == 1
        summary[name] = {"metrics": rows, "failed_shares": sorted(shares),
                         "wall_s": walls}
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"spread-seed{args.first_seed}.json").write_text(
        json.dumps(summary, indent=1))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
