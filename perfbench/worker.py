"""One workload in one process: set-up, one warm-up item, timed cycles.

Started by run.py, never by hand.  With --probe it stops after set-up and
reports when it was ready; otherwise it runs whole cycles of the workload
for --seconds and prints one JSON line with every item's raw time, the
reference-kernel time next to it, and its outcome.
"""

import os

# one BLAS thread, set before numpy loads: on a 2-core host extra threads
# only add spread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import logging
import resource
import sys
import time
import traceback
from pathlib import Path

import calib
from tracer import Tracer
from workloads import WORKLOADS, CheckFailed

ROOT = Path(__file__).resolve().parent.parent
SETUP_REFS = 5
# Kernel calls per reference timing between two items: SHORT_REFS, or
# LONG_REFS next to an item longer than LONG_ITEM_S.  The host's speed
# changes within a fraction of a second, so a long item needs a reference
# window that is long too.
SHORT_REFS = 3
LONG_REFS = 15
LONG_ITEM_S = 0.1


def import_program():
    """trilevel from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import trilevel
    if not Path(trilevel.__file__).resolve().is_relative_to(src):
        raise ImportError(f"trilevel imported from {trilevel.__file__}, "
                          f"not from {src}")
    return trilevel


def run_item(wl, item, tracer, item_id):
    """(raw seconds, output or None, error or None) of one timed item."""
    if tracer is not None:
        tracer.item = item_id
    t0 = time.perf_counter()
    try:
        out, err = wl.run(item), None
    except Exception as exc:  # an item that raises is a failed operation
        out, err = None, exc
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.item = None
    return dt, out, err


def timed_phase(wl, seconds, trace):
    """Whole cycles until the next one would end past `seconds`.

    Each item sits between two reference-kernel timings; it is calibrated
    by their mean.  In a traced run, cycles alternate untraced / traced.
    """
    tracer = Tracer() if trace else None
    records = []
    last_dt = {}  # item key -> its latest raw time; unknown counts as long
    ref_prev = calib.timed(LONG_REFS)
    start = time.monotonic()
    n_cycles = 0
    while True:
        traced = trace and n_cycles % 2 == 1
        if traced:
            tracer.install()
        c0 = time.monotonic()
        for k, item in enumerate(wl.cycle):
            dt, out, err = run_item(wl, item, tracer if traced else None,
                                    len(records))
            last_dt[item.key] = dt
            upcoming = wl.cycle[(k + 1) % len(wl.cycle)].key
            long_gap = max(dt, last_dt.get(upcoming, LONG_ITEM_S)) >= LONG_ITEM_S
            ref_next = calib.timed(LONG_REFS if long_gap else SHORT_REFS)
            info = {}
            if err is None:
                try:
                    info = wl.check(item, out)
                except CheckFailed as exc:
                    err = exc
            if err is None:
                status = "ok"
            elif wl.known_fault(item, err):
                status = "known_fault"
            else:
                status = "unexpected"
            records.append({
                "item": item.key, "cycle": n_cycles, "traced": traced,
                "raw_s": dt, "ref_s": 0.5 * (ref_prev + ref_next),
                "status": status, **info,
                **({"error": "".join(traceback.format_exception_only(err))
                    .strip()} if err is not None else {}),
            })
            ref_prev = ref_next
        if traced:
            tracer.uninstall()
        n_cycles += 1
        now = time.monotonic()
        if now + (now - c0) - start > seconds and (not trace or n_cycles >= 2):
            break
    return records, tracer


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()

    tl = import_program()
    logging.basicConfig(level=logging.WARNING)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](tl, args.seed, out_dir)
    wl.check(wl.warmup, wl.run(wl.warmup))
    t_ready = time.monotonic()
    setup_ref = calib.timed(SETUP_REFS)
    result = {"t_ready": t_ready, "setup_ref_s": setup_ref}
    if not args.probe:
        records, tracer = timed_phase(wl, args.seconds, bool(args.trace))
        result["records"] = records
        if tracer is not None:
            result["spans"] = {str(k): v for k, v
                               in tracer.self_times().items()}
        result["peak_rss_kb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))


if __name__ == "__main__":
    main()
