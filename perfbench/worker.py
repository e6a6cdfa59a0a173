"""One workload in one fresh process: set-up, timed passes, gate, trace.

Started by ``run.py`` with the BLAS/OpenMP thread counts pinned in its
environment. Prints one JSON object on its last stdout line. ``t_ready`` in
it is read from the system-wide monotonic clock just before the first timed
pass, so the parent can time set-up from the moment it spawned this process.

    python3 perfbench/worker.py --workload ring_lift --seed 0 --seconds 5 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from layertrace import Tracer  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment():
    """What the numbers depend on besides the code: threads, cores, versions,
    and the size of the program measured."""
    import numpy as np
    import scipy

    def blas(cfg):
        dep = cfg.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name', '?')} {dep.get('version', '?')}"

    src_lines = sum(
        len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py")
    )
    return {
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "src_lines": src_lines,
        "cache_dir": os.environ.get("TTIGA_CACHE_DIR"),
    }


def run_one(wl, tracer):
    """One pass, timed; returns (seconds, reports or None, failures)."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            reports = wl.run_pass()
        else:
            with tracer:
                reports = wl.run_pass()
    except Exception as exc:  # a failed pass is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - t0, None, [("exception", f"{type(exc).__name__}: {exc}")]
    dt = time.perf_counter() - t0
    if tracer is None:
        failures = wl.check(reports)
    else:
        # the gate's field evaluations belong to the driver's error path
        with tracer:
            failures = wl.check(reports)
    return dt, reports, failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--reference", default=None,
                    help="torus_sin reference file to gate against")
    args = ap.parse_args(argv)

    ref = json.loads(Path(args.reference).read_text()) if args.reference else None
    wl = workloads.make(args.workload, args.seed, args.smoke, ref)
    wl.warmup()
    t_ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"t_ready": t_ready}))
        return 0

    untraced, traced, tracers, failures, sizes = [], [], [], [], None
    # A traced run opens with one untimed pass: the first full-size pass of
    # a process is the slowest (fresh memory pages: about 10% on torus_sin
    # on a 2-vCPU KVM guest), and trace_overhead should compare warm passes.
    # Untraced runs time every pass, the first included.
    warm_passes = args.trace
    attempted = 0
    start = time.perf_counter()
    deadline = start + args.seconds
    while True:
        # alternate untraced and traced passes in a traced run
        timed = attempted >= warm_passes
        use_trace = timed and bool(args.trace) and len(traced) < len(untraced)
        tracer = Tracer() if use_trace else None
        dt, reports, fails = run_one(wl, tracer)
        if timed:
            (traced if use_trace else untraced).append(dt)
        if tracer is not None:
            tracers.append(tracer)
        if reports is not None and sizes is None:
            sizes = wl.sizes(reports)
        for cause, message in fails:
            failures.append({"pass": attempted, "cause": cause, "message": message})
        attempted += 1
        if not untraced or (args.trace and not traced):
            continue
        est = statistics.median(untraced + traced)
        if time.perf_counter() + est > deadline:
            break

    if args.trace_out:
        for index, tracer in enumerate(tracers):
            tracer.write(args.trace_out, t_origin=start, index=index)
    failed_passes = len({f["pass"] for f in failures})
    print(json.dumps({
        "t_ready": t_ready,
        "untraced_s": untraced,
        "traced_s": traced,
        "layers": [tracer.layer_metrics() for tracer in tracers],
        "attempted": attempted,
        "failed": failed_passes,
        "failures": failures,
        "sizes": sizes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
