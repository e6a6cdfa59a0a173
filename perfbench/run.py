"""ttiga benchmark: one workload, measured in fresh processes.

    python3 perfbench/run.py --workload torus_sin --seed 0 --seconds 38 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root. The workload runs in a fresh worker process
(``worker.py``) with BLAS/OpenMP pinned to one thread and the operator cache
off, so ``peak_rss_mb`` belongs to that workload alone. With ``--trace 0``
the last stdout line carries the end-to-end metrics; with ``--trace 1`` it
carries the per-layer metrics of a traced run, which alternates untraced and
traced passes so that ``trace_overhead`` compares the two in one process.

Set-up time is sampled several times per run: a few set-up-only workers
plus the measuring worker itself, each timed from spawn to the moment it
would start its first timed pass (imports, input generation, a small
warm-up solve); ``setup_s`` is their median.

``--smoke`` runs every workload at small sizes in both modes, checks that
each metric of ``BENCHMARK.json`` is emitted with its unit, and checks that
a wrong torus reference trips the gate.

Results, with the pinned environment and every failure's cause, go to
``perfbench/out/``; the traced run's spans go there as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from layertrace import LAYER_METRICS  # noqa: E402

# the names in workloads.NAMES, repeated so that this process never imports
# numpy or ttiga
WORKLOADS = ("torus_sin", "ring_lift", "convergence_ladder")
SETUP_PROBES = 4
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "dofs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}


class BenchError(RuntimeError):
    pass


def spawn(args, timeout):
    """Run one worker; returns (monotonic spawn time, its JSON result)."""
    env = dict(os.environ)
    env.update(THREADS)
    env.pop("TTIGA_CACHE_DIR", None)
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker {' '.join(args)} exceeded {timeout} s")
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return t_spawn, json.loads(out.strip().splitlines()[-1])


def tail_percentile(samples):
    """Highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    n = len(samples)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
    return None, None


def measure(workload, seed, seconds, trace, smoke=False, probes=SETUP_PROBES,
            reference=None):
    """One benchmark run; returns (result line, full result document)."""
    base = ["--workload", workload, "--seed", str(seed)]
    if smoke:
        base.append("--smoke")
    if reference is not None:
        base += ["--reference", str(reference)]
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-s{seed}-t{trace}{'-smoke' if smoke else ''}"
    setups = []

    def probe_setup(count):
        for _ in range(count):
            t_spawn, doc = spawn(base + ["--seconds", "0", "--setup-only"], 60)
            setups.append(doc["t_ready"] - t_spawn)

    # set-up probes run before and after the measuring worker, so that their
    # median spans the whole run rather than one moment of the machine
    if not trace:
        probe_setup(probes // 2)
    args = base + ["--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        trace_path = OUT / f"trace-{tag}.jsonl"
        trace_path.unlink(missing_ok=True)
        args += ["--trace-out", str(trace_path)]
    t_spawn, doc = spawn(args, seconds + 100)
    setups.append(doc["t_ready"] - t_spawn)
    if not trace:
        probe_setup(probes - probes // 2)

    untraced = doc["untraced_s"]
    wall = statistics.median(untraced)
    if trace:
        metrics = {
            key: statistics.median(layer[key] for layer in doc["layers"])
            for key in doc["layers"][0]
        }
        metrics["trace_overhead"] = statistics.median(doc["traced_s"]) / wall
        metrics = {k: {"value": metrics[k], "unit": u} for k, (u, _) in LAYER_METRICS.items()}
    else:
        # no sizes means every pass raised; the result then says so
        dofs = sum(s["dofs"] for s in doc["sizes"] or [])
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "dofs_per_s": dofs / wall,
            "peak_rss_mb": doc["peak_rss_mb"],
            "success_ratio": (doc["attempted"] - doc["failed"]) / doc["attempted"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    p, tail = tail_percentile(untraced)
    result = {
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
    }
    full = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "smoke": smoke, "result": result, "env": doc["env"], "sizes": doc["sizes"],
        "setup_samples_s": setups, "untraced_s": untraced, "traced_s": doc["traced_s"],
        "wall_s": {"median": wall, "tail_percentile": p, "tail_s": tail,
                   "samples": len(untraced)},
        "failures": doc["failures"],
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(full, indent=1) + "\n")
    return result, full


def report(full):
    """Human-readable lines that precede the result line."""
    print(f"env: {json.dumps(full['env'], sort_keys=True)}")
    for s in full["sizes"] or []:
        print(f"size: {s['geometry']} e={s['elements']} dofs={s['dofs']} "
              f"mode_sizes={s['mode_sizes']}")
    w = full["wall_s"]
    tail = (f"p{w['tail_percentile']}={w['tail_s']:.4f} s" if w["tail_percentile"]
            else "no percentile above the median has ten samples beyond it")
    print(f"wall_s: median={w['median']:.4f} s, {tail}, samples={w['samples']}")
    print(f"setup_s samples: {[round(x, 4) for x in full['setup_samples_s']]}")
    for f in full["failures"]:
        print(f"failure: pass {f['pass']}: {f['cause']}: {f['message']}")


def smoke():
    """Fast self-test of the benchmark; returns a list of problems."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    if expected[0] != END_TO_END_UNITS:
        problems.append("BENCHMARK.json end_to_end differs from run.py's metrics")
    if expected[1] != {k: u for k, (u, _) in LAYER_METRICS.items()}:
        problems.append("BENCHMARK.json per_layer differs from layertrace's metrics")
    if sorted(w["name"] for w in bench["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py's")
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, _ = measure(workload, 0, 1, trace, smoke=True, probes=1)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{workload} trace {trace}: metrics {sorted(got)}")
            if not result["correct"]:
                problems.append(f"{workload} trace {trace}: the gate failed")
            print(f"smoke: {workload} trace {trace}: {len(got)} metrics, "
                  f"correct={result['correct']}")

    ref = json.loads((HERE / "reference" / "torus_sin.json").read_text())
    for case in ref["cases"].values():
        case["u"] = [u * (1.0 + 1e-3) for u in case["u"]]
    wrong = OUT / "wrong_reference.json"
    wrong.write_text(json.dumps(ref))
    result, full = measure("torus_sin", 0, 1, 0, smoke=True, probes=0, reference=wrong)
    causes = {f["cause"] for f in full["failures"]}
    if result["correct"] or "reference" not in causes:
        problems.append("a wrong torus_sin reference did not trip the gate")
    print(f"smoke: wrong reference -> correct={result['correct']}, causes={sorted(causes)}")
    return problems


def main(argv=None):
    ap = argparse.ArgumentParser(description="ttiga benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    help="'all' runs every workload in turn, one result line each")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ttiga" / "__init__.py").is_file():
        print(f"no ttiga sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        if args.smoke:
            problems = smoke()
            for p in problems:
                print(f"smoke problem: {p}", file=sys.stderr)
            print("smoke: ok" if not problems else "smoke: FAILED")
            return 1 if problems else 0
        if None in (args.workload, args.seed, args.seconds, args.trace):
            ap.error("--workload, --seed, --seconds and --trace are required")
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        for name in names:
            result, full = measure(name, args.seed, args.seconds, args.trace)
            if len(names) > 1:
                print(f"workload: {name}")
            report(full)
            print(json.dumps(result))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
