import json
import subprocess
import sys
from pathlib import Path

from ttiga.geometry import GEOMETRY_NAMES

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_digest.py"


def test_report_digest_smoke_is_deterministic():
    """Two fresh runs print the same bytes: one JSON line per config, with
    the report's metrics and the hash of u's cores. The smoke configs are
    the workloads' passes and warm-ups (torus 2, ring 2, ladder 3 + 3 rungs
    and 2 warm-ups), then every geometry at 4 elements."""
    outs = [
        subprocess.run(
            [sys.executable, "-B", str(TOOL), "--smoke"],
            capture_output=True, text=True, check=True,
        ).stdout
        for _ in range(2)
    ]
    assert outs[0] == outs[1]
    docs = [json.loads(line) for line in outs[0].splitlines()]
    assert len(docs) == 19
    geometries = [doc["geometry"] for doc in docs]
    assert geometries[:4] == ["quarter_torus"] * 2 + ["ring"] * 2
    assert geometries[-7:] == list(GEOMETRY_NAMES)
    assert all(doc["elements"] == [4] * 3 for doc in docs[-7:])
    for doc in docs:
        assert len(doc["u_sha256"]) == 64
        assert doc["solver_converged"] and doc["cross_converged"]
