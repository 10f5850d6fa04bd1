#!/usr/bin/env python3
"""slenderlap benchmark: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload map-256 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from ``src/``
there and from nowhere else.  With ``--trace 0`` the run times the
workload's set-up in rounds before, between and after the items, times
items until ``--seconds`` of item time is used up, and reports the
end-to-end metrics.  With ``--trace 1`` it times a fixed number of items
untraced, wraps the library's entry points (see tracer.py), sets up
and runs the same items again traced, and reports the per-layer metrics
plus the tracing overhead.  ``--smoke`` runs the same code on tiny grids.

Earlier stdout lines are a JSON report (environment, checks, known
defects, diagnostics); the last line is the result object.  Exit code 0
means the run completed; correctness failures are reported in the result,
not in the exit code.  Checks named in ``workloads.KNOWN_DEFECTS`` appear
only in the report's ``known_defects``, with their value, limit and pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up is timed in rounds: one before the items (the last set-up of a
# round is what the next items use), one between items whenever another
# SETUP_SPACING of the item time has passed, and one after them.  A round
# repeats set-up for at least SETUP_ROUND_SECONDS; setup_s is the median of
# all repeats.  Spreading the rounds over the run keeps one slow stretch of
# the host from deciding the whole figure.
SETUP_ROUND_SECONDS = 2.0
SETUP_SPACING = 1.0 / 3.0
WORKLOAD_NAMES = ("map-256", "rhs-128", "greens-ladder", "eps-ladder")


def pin_blas_threads():
    """Must run before numpy is first imported: OpenBLAS reads these once."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy imported before the BLAS threads were pinned")
    threads = min(2, len(os.sched_getaffinity(0)))
    for var in BLAS_ENV:
        os.environ[var] = str(threads)


def import_library():
    """Put this checkout's src/ first on the path and refuse any other copy."""
    src = ROOT / "src"
    if not (src / "slenderlap" / "__init__.py").is_file():
        raise SystemExit(f"error: no slenderlap sources under {src}")
    sys.path.insert(0, str(src))
    import slenderlap
    if Path(slenderlap.__file__).resolve().parent != src / "slenderlap":
        raise SystemExit(f"error: slenderlap imported from {slenderlap.__file__}")


def os_threads():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return None


def environment():
    import numpy as np
    import scipy
    from scipy.linalg import lu_factor

    a = np.random.default_rng(0).standard_normal((512, 512))
    (a @ a.T).sum()
    lu_factor(a)                        # BLAS warm-up, outside every timing

    def blas(cfg):
        dep = cfg.get("Build Dependencies", {}).get("blas", {})
        return {k: dep.get(k) for k in ("name", "version", "openblas configuration")}

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_env": {v: os.environ.get(v) for v in BLAS_ENV},
        "os_threads_after_blas": os_threads(),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_items(wl, count=None, seconds=None, tracer=None, between=None):
    """Time items until `count` are done or the next would overrun `seconds`.

    `between(times)`, if given, is called before every item but the first.
    """
    times, outs = [], []
    while True:
        if between is not None and times:
            between(times)
        data = wl.next_input()
        if tracer is not None:
            tracer.open("bench.item")
        t0 = time.perf_counter()
        out = wl.item(data)
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.close()
        outs.append(out)
        if count is not None and len(times) >= count:
            break
        if seconds is not None and (sum(times) + statistics.median(times)
                                    > seconds):
            break
    return times, outs


def verdict(wl, outs):
    """Checks of every item and diagnostics of the last.

    Set-up is deterministic, so a set-up round after an item does not change
    what its check compares against.
    """
    checks = [c for out in outs for c in wl.check(out)]
    return checks, wl.diagnostics(outs[-1])


def summarize_checks(checks):
    by_name = {}
    for c in checks:
        e = by_name.setdefault(c["name"], {"attempted": 0, "failed": 0,
                                           "limit": c["limit"], "values": []})
        e["attempted"] += 1
        e["failed"] += not c["pass"]
        e["values"].append(c["value"])
    for e in by_name.values():
        vals = e.pop("values")
        e["min"], e["max"] = min(vals), max(vals)
    failed = sum(e["failed"] for e in by_name.values())
    return {"by_check": by_name, "attempted": len(checks), "failed": failed,
            "check_fail_ratio": failed / len(checks)}


def timed_run(wl, args):
    import numpy as np
    rng = np.random.default_rng(args.seed)
    round_s = 0.0 if args.smoke else SETUP_ROUND_SECONDS
    setups, rounds_at = [], [0.0]

    def setup_round():
        spent = 0.0
        while True:
            t0 = time.perf_counter()
            wl.setup(rng)
            setups.append(time.perf_counter() - t0)
            spent += setups[-1]
            if spent >= round_s:
                return

    def between(times):
        if sum(times) - rounds_at[-1] >= SETUP_SPACING * args.seconds:
            rounds_at.append(sum(times))
            setup_round()

    setup_round()
    times, outs = run_items(wl, count=1 if args.smoke else None,
                            seconds=args.seconds, between=between)
    checked = verdict(wl, outs)
    if not args.smoke:
        setup_round()
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "item_p50_ms": (1e3 * float(np.percentile(times, 50)), "ms"),
        "item_p90_ms": (1e3 * float(np.percentile(times, 90)), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    report = {"setup_times_s": setups, "setup_rounds_at_item_s": rounds_at,
              "item_times_s": times, "items": len(times)}
    return metrics, checked, report


def traced_run(wl, args):
    import numpy as np
    from tracer import Tracer
    from workloads import TRACE_ITEMS

    count = 1 if args.smoke else TRACE_ITEMS[args.workload]
    wl.setup(np.random.default_rng(args.seed))
    untraced, _ = run_items(wl, count=count)
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        tracer.open("bench.setup")
        wl.setup(np.random.default_rng(args.seed))
        tracer.close()
        _, outs = run_items(wl, count=count, tracer=tracer)
    finally:
        tracer.active = False
        tracer.restore()
    metrics = tracer.layer_metrics()
    traced = tracer.root_time("bench.item")
    metrics["trace.untraced_s"] = (sum(untraced), "s")
    metrics["trace.overhead_s"] = (traced - sum(untraced), "s")
    report = {"items": count, "traced_items_s": traced,
              "untraced_items_s": sum(untraced),
              "traced_setup_s": tracer.root_time("bench.setup"),
              "spans": len(tracer.spans)}
    return metrics, verdict(wl, outs), report


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny grids, one set-up, one item")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    pin_blas_threads()
    import_library()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import KNOWN_DEFECTS, SMOKE_SIZES, WORKLOADS

    env = environment()
    sizes = SMOKE_SIZES[args.workload] if args.smoke else {}
    wl = WORKLOADS[args.workload](**sizes)
    run = traced_run if args.trace else timed_run
    metrics, (checks, diagnostics), report = run(wl, args)
    known = [dict(c, cause=KNOWN_DEFECTS[c["name"]]) for c in checks
             if c["name"] in KNOWN_DEFECTS]
    checks = [c for c in checks if c["name"] not in KNOWN_DEFECTS]
    failed = [c for c in checks if not c["pass"]]
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "environment": env, **report,
              "checks": summarize_checks(checks),
              "failed_checks": failed, "known_defects": known,
              "diagnostics": diagnostics}
    print(json.dumps({"report": report}, default=float))
    result = {"correct": not failed, "attempted": len(checks),
              "failed": len(failed),
              "metrics": {m: {"value": float(v), "unit": u}
                          for m, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
