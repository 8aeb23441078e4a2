"""Benchmark of trilevel: four workloads, calibrated item times, a traced mode.

    python3 perfbench/run.py                       # all four workloads
    python3 perfbench/run.py --workload equiv_sweep --seed 3 --seconds 20
    python3 perfbench/run.py --workload cli_verbs --trace 1

Run from anywhere inside a checkout: the program is imported from the
checkout's src/.  Each workload runs in its own worker process (worker.py);
set-up is measured in SETUP_SAMPLES fresh processes and reported as the
median.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json, or with --trace 1 its per-layer metrics.  Raw and
calibrated figures of every run also go to .perfbench_out/runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3
DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))
import calib  # noqa: E402  (benchmark modules; they import no program code)
from tracer import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Start a worker; (monotonic time at spawn, its JSON result)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args], env=env,
        stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with "
                           f"{proc.returncode}")
    return t_spawn, json.loads(proc.stdout.strip().splitlines()[-1])


def calibrated(seconds: float, ref_s: float) -> float:
    return seconds / ref_s * calib.NOMINAL_S


def cal_s(r) -> float:
    return calibrated(r["raw_s"], r["ref_s"])


def raw_s(r) -> float:
    return r["raw_s"]


def item_medians(records, seconds) -> list[float]:
    """Each distinct item's median time over the run's cycles.

    Other tenants of the host slow a run down in bursts that the reference
    kernel tracks only in part; a median per item drops those bursts, where
    a plain mean or median over all items would follow them (or, in
    cli_verbs, jump between the cheap and the dear verbs).
    """
    by_item: dict = {}
    for r in records:
        by_item.setdefault(r["item"], []).append(seconds(r))
    return [statistics.median(v) for v in by_item.values()]


def rate(records, seconds=cal_s) -> float:
    """Items per second of a typical cycle."""
    medians = item_medians(records, seconds)
    return len(medians) / sum(medians)


def end_to_end(records, setup, peak_rss_kb) -> tuple[dict, dict]:
    """(calibrated metrics, raw figures) of an untraced run."""
    metrics = {
        "items_per_s": rate(records),
        "item_p50_ms": statistics.median(item_medians(records, cal_s)) * 1e3,
        "setup_s": statistics.median(calibrated(s, ref) for s, ref in setup),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }
    raw_figures = {
        "items_per_s": rate(records, raw_s),
        "item_p50_ms": statistics.median(item_medians(records, raw_s)) * 1e3,
        "setup_s": [s for s, _ in setup],
        "ref_kernel_ms": statistics.median(r["ref_s"] for r in records) * 1e3,
    }
    return metrics, raw_figures


def per_layer(records, spans) -> dict:
    """Per-item calls and calibrated self time of every traced layer."""
    traced = [k for k, r in enumerate(records) if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    totals: dict = {}
    for k in traced:
        scale = calib.NOMINAL_S / records[k]["ref_s"]
        for layer, (calls, self_s) in spans.get(str(k), {}).items():
            acc = totals.setdefault(layer, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s * scale
    n = len(traced)
    out = {"trace.overhead_pct":
           (1.0 - rate([records[k] for k in traced]) / rate(plain)) * 100.0}
    for mod, fn in LAYERS:
        calls, self_s = totals.get(f"{mod}.{fn}", (0, 0.0))
        out[f"{mod}.{fn}.calls"] = calls / n
        out[f"{mod}.{fn}.self_us"] = self_s / n * 1e6
        out[f"{mod}.{fn}.self_ms"] = self_s / n * 1e3
    jumps = sum(records[k].get("jumps", 0) for k in traced)
    mc_s = totals.get("observables.mc_trajectories", (0, 0.0))[1]
    out["observables.mc_trajectories.jumps"] = jumps / n
    out["observables.mc_trajectories.us_per_jump"] = (
        mc_s / jumps * 1e6 if jumps else 0.0)
    return out


def run_workload(name, seed, seconds, trace, spec, deadline) -> dict:
    work = OUT / f"work-{name}-{os.getpid()}"
    common = ["--workload", name, "--seed", str(seed),
              "--seconds", str(seconds), "--out-dir", str(work)]
    try:
        setup = []
        for _ in range(0 if trace else SETUP_SAMPLES - 1):
            t0, res = spawn(common + ["--probe"], deadline)
            setup.append((res["t_ready"] - t0, res["setup_ref_s"]))
        t0, res = spawn(common + ["--trace", str(trace)], deadline)
        setup.append((res["t_ready"] - t0, res["setup_ref_s"]))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    records = res["records"]
    wanted = spec["per_layer" if trace else "end_to_end"]
    raw = {}
    if trace:
        values = per_layer(records, res["spans"])
    else:
        values, raw = end_to_end(records, setup, res["peak_rss_kb"])
    unexpected = [r for r in records if r["status"] == "unexpected"]
    result = {
        "correct": not unexpected,
        "attempted": len(records),
        "failed": sum(r["status"] != "ok" for r in records),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(
        {"result": result, "raw": raw, "setup": setup, "records": records},
        indent=1))
    print(f"== {name}  seed {seed}  trace {trace}: {result['attempted']} "
          f"items attempted, {result['failed']} failed "
          f"({len(unexpected)} unexpected)")
    for r in unexpected[:5]:
        print(f"   unexpected failure in {r['item']}: {r['error']}")
    for metric, v in result["metrics"].items():
        print(f"   {metric:<45} {v['value']:>14.6g} {v['unit']}")
    for metric, v in raw.items():
        shown = (", ".join(f"{x:.4g}" for x in v) if isinstance(v, list)
                 else f"{v:.6g}")
        print(f"   raw {metric:<41} {shown}")
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="one workload (default: all four, one after another)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="timed phase per workload (default: run_seconds of "
                         "BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "trilevel" / "__init__.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'trilevel'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {name: run_workload(name, args.seed, seconds, args.trace,
                                  spec, time.monotonic() + DEADLINE_S)
               for name in names}
    if args.workload:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{m}": v for name, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
