"""Print a byte-comparable digest of the solver's deterministic output.

    OPENBLAS_NUM_THREADS=1 python3 tools/report_digest.py > before.jsonl
    # ... change the code, then
    OPENBLAS_NUM_THREADS=1 python3 tools/report_digest.py > after.jsonl
    cmp before.jsonl after.jsonl

Run from any directory of a checkout; ``src/`` and ``perfbench/`` are
found next to this file. Each config prints one JSON line: the report's
``metrics_dict()`` plus ``u_sha256``, the SHA-256 of the solution's core
shapes and float64 bytes. Two trees that print the same bytes produce the
same ranks, sweeps, CG iterations, cross evaluations, residuals, errors
and solution cores.

The configs are every pass and warm-up config of the benchmark's
workloads (``perfbench/workloads.py`` at seed 0), then every geometry at
p=2, 16 elements with ``sin_pi_xyz``, then the hyperboloid at 128
elements. ``--smoke`` uses the workloads' smoke sizes and 4 elements for
the geometries, and drops the hyperboloid at 128.

The comparison is exact; there is no tolerance mode. BLAS threads default
to 1 here, since threaded reductions may change the last bits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from ttiga import driver  # noqa: E402
from ttiga.geometry import GEOMETRY_NAMES  # noqa: E402


def configs(smoke: bool) -> list:
    out = []
    for name in workloads.NAMES:
        w = workloads.make(name, 0, smoke=smoke)
        out += w.configs() + w.warmup_configs()
    elements = 4 if smoke else 16
    out += [
        driver.SolveConfig(geometry=g, degree=2, elements=elements, source="sin_pi_xyz")
        for g in GEOMETRY_NAMES
    ]
    if not smoke:
        out.append(driver.SolveConfig(
            geometry="hyperboloid", degree=2, elements=128, source="sin_pi_xyz"
        ))
    return out


def digest(rep) -> str:
    """One JSON line: the deterministic metrics and a hash of u's cores."""
    h = hashlib.sha256()
    for G in rep.u.cores:
        h.update(repr(G.shape).encode())
        h.update(np.ascontiguousarray(G, dtype="<f8").tobytes())
    doc = rep.metrics_dict()
    doc["u_sha256"] = h.hexdigest()
    return json.dumps(doc, sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small sizes only")
    args = parser.parse_args(argv)
    for cfg in configs(args.smoke):
        print(digest(driver.solve_poisson(cfg)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
