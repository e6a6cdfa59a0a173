"""Command-line front end: single solves, benchmark ladders, debug dumps.

Exit codes: 0 success, 1 usage, configuration or I/O error, 2 solver
non-convergence. All output files are written atomically (temp + rename).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import io
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .assembly import AssemblyError, BoundarySpec, FaceCondition
from .driver import (
    DriverError,
    OracleRefusedError,
    SolveConfig,
    _is_int,
    discretize,
    field_on_grid,
    full_grid_reference,
    solve_poisson,
)
from .geometry import (
    GEOMETRY_NAMES,
    GeometryError,
    GridEvaluator,
    make_geometry,
    patch_from_json,
    patch_to_json,
)
from .splines import Basis1D, KnotVector, SplineError, tabulate
from .tensor_train import load_tt, tt_info
from .tensor_train.io import _atomic_write

CSV_COLUMNS = [
    "geometry",
    "p",
    "elems",
    "dofs",
    "l2_error",
    "cr_K",
    "cr_f",
    "cr_u",
    "t_assemble_s",
    "t_solve_s",
    "residual",
]


class ConfigError(ValueError):
    """Config file violates the documented schema."""


# ---------------------------------------------------------------------------
# strict config parsing

_RUN_KEYS = {f.name for f in fields(SolveConfig)} | {"label"}
_SOLVE_FILE_KEYS = {"output_dir", "seed", "runs"}
_BENCH_FILE_KEYS = {
    "output_dir",
    "seed",
    "degree",
    "elements",
    "geometries",
    "source",
    "eps_cross",
    "eps_solve",
    "eps_round",
    "crossover",
}
_CROSSOVER_KEYS = {"geometry", "geometry_params", "degree", "elements", "source"}


def _reject_unknown(doc, allowed: set, where: str):
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object, not {type(doc).__name__}")
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _parse_bc(doc) -> BoundarySpec:
    if not isinstance(doc, dict) or set(doc) - {"faces"}:
        raise ConfigError('bc must be {"faces": {...}}')
    faces_doc = doc.get("faces", {})
    if not isinstance(faces_doc, dict):
        raise ConfigError('bc faces must be an object keyed by "axis:side"')
    faces = {}
    try:
        for key, spec in faces_doc.items():
            try:
                axis_s, side_s = key.split(":")
                axis, side = int(axis_s), int(side_s)
            except ValueError as exc:
                raise ConfigError(f'bad face key {key!r}; use "axis:side"') from exc
            if not isinstance(spec, dict):
                raise ConfigError(f"bc face {key} must be an object, got {spec!r}")
            _reject_unknown(spec, {"type", "value"}, f"bc face {key}")
            kind = spec.get("type")
            if kind == "dirichlet":
                faces[(axis, side)] = FaceCondition("dirichlet", spec.get("value", 0.0))
            elif kind == "natural":
                if "value" in spec:
                    raise ConfigError("natural faces take no value")
                faces[(axis, side)] = FaceCondition("natural")
            else:
                raise ConfigError(
                    f"face type must be dirichlet or natural, got {kind!r}"
                )
        return BoundarySpec(faces)
    except AssemblyError as exc:
        raise ConfigError(f"bc: {exc}") from exc


def _check_label(doc: dict):
    """A run label names the run's files inside the output directory."""
    label = doc.get("label")
    if "label" in doc and (
        not isinstance(label, str)
        or label in ("", ".", "..")
        or any(ch in label for ch in "/\\\0")
    ):
        raise ConfigError(
            f"run label must be a non-empty file name without path "
            f"separators, got {label!r}"
        )


def _output_dir(doc: dict) -> Path:
    out = doc.get("output_dir", ".")
    if not isinstance(out, str):
        raise ConfigError(f"output_dir must be a path string, got {out!r}")
    return Path(out)


def parse_run(doc: dict, default_seed: int | None = None) -> tuple[SolveConfig, str | None]:
    _reject_unknown(doc, _RUN_KEYS, "run")
    _check_label(doc)
    if "geometry" not in doc:
        raise ConfigError("run is missing the geometry name")
    kwargs = {k: v for k, v in doc.items() if k in _RUN_KEYS - {"bc", "label"}}
    if "bc" in doc:
        kwargs["bc"] = _parse_bc(doc["bc"])
    if default_seed is not None and "seed" not in doc:
        kwargs["seed"] = default_seed
    try:
        cfg = SolveConfig(**kwargs)
        make_geometry(cfg.geometry, cfg.geometry_params)
    except (DriverError, GeometryError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    return cfg, doc.get("label")


def load_solve_file(path) -> tuple[list, Path]:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    _reject_unknown(doc, _SOLVE_FILE_KEYS, "experiment file")
    if "runs" not in doc or not isinstance(doc["runs"], list) or not doc["runs"]:
        raise ConfigError("experiment file needs a non-empty runs list")
    seed = doc.get("seed", 0)
    if not _is_int(seed) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    runs = [parse_run(r, default_seed=seed) for r in doc["runs"]]
    return runs, _output_dir(doc)


# ---------------------------------------------------------------------------
# output helpers

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def _compact(values) -> str:
    vals = list(values)
    return _fmt(vals[0]) if len(set(vals)) == 1 else "x".join(map(_fmt, vals))


def report_csv_row(rep, status: str | None = None) -> dict:
    row = {
        "geometry": rep.config.geometry,
        "p": _compact(rep.config.degree),
        "elems": _compact(rep.config.elements),
        "dofs": rep.dofs,
        "l2_error": rep.l2_error,
        "cr_K": rep.compression_K,
        "cr_f": rep.compression_f,
        "cr_u": rep.compression_u,
        "t_assemble_s": rep.timings.get("t_assemble_K_s", 0.0)
        + rep.timings.get("t_assemble_f_s", 0.0),
        "t_solve_s": rep.timings.get("t_solve_s", 0.0),
        "residual": rep.residual,
    }
    if status is not None:
        row["status"] = status
    return row


def write_csv(path: Path, rows: list, columns=None) -> None:
    columns = columns or (
        CSV_COLUMNS + (["status"] if any("status" in r for r in rows) else [])
    )
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _fmt(row.get(k)) for k in columns})
    _atomic_write(path, buf.getvalue())


def _run_label(cfg: SolveConfig, label: str | None, used: set) -> str:
    base = label or (
        f"{cfg.geometry}_p{_compact(cfg.degree)}_e{_compact(cfg.elements)}"
    )
    name = base
    k = 1
    while name in used:
        name = f"{base}_{k}"
        k += 1
    used.add(name)
    return name


def _dump_field(cfg: SolveConfig, rep, m: int, path: Path) -> None:
    patch, _, disc = discretize(cfg)
    ax = np.linspace(0.0, 1.0, m)
    vals = field_on_grid(disc, rep.u, [ax, ax, ax])
    # Fortran order: lines along axis 0, anchored at (i1, i2) with i1 fastest
    fixed = np.zeros((m * m, 3), dtype=np.intp)
    fixed[:, 1] = np.tile(np.arange(m), m)
    fixed[:, 2] = np.repeat(np.arange(m), m)
    pts = GridEvaluator(patch, [ax, ax, ax]).along(0, fixed).pts
    u = vals.ravel(order="F")
    lines = [
        f"{x:.17g} {y:.17g} {z:.17g} {v:.17g}" for (x, y, z), v in zip(pts, u)
    ]
    _atomic_write(path, "\n".join(lines) + "\n")


def _execute_runs(runs, out_dir: Path, jobs: int, field_samples: int):
    """Run configs (optionally in parallel), write reports, return rows."""
    cfgs = [cfg for cfg, _ in runs]
    if jobs > 1 and len(runs) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(solve_poisson, cfgs))
    else:
        reports = [solve_poisson(cfg) for cfg in cfgs]

    used = set()
    rows = []
    ok_all = True
    for (cfg, label), rep in zip(runs, reports):
        name = _run_label(cfg, label, used)
        _atomic_write(out_dir / f"{name}.json", rep.to_json())
        if field_samples > 0:
            _dump_field(cfg, rep, field_samples, out_dir / f"{name}_field.txt")
        rows.append(report_csv_row(rep))
        ok_all = ok_all and rep.solver_converged
    return rows, reports, ok_all


# ---------------------------------------------------------------------------
# subcommands

def cmd_solve(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    if args.field_samples < 0:
        raise ConfigError(f"--field-samples must be at least 0, got {args.field_samples}")
    runs, out_dir = load_solve_file(args.config)
    if args.out:
        out_dir = Path(args.out)
    overrides = {
        name: value
        for name in ("seed", "eps_cross", "eps_solve")
        if (value := getattr(args, name)) is not None
    }
    runs = [(replace(cfg, **overrides), label) for cfg, label in runs]
    rows, reports, ok = _execute_runs(runs, out_dir, args.jobs, args.field_samples)
    write_csv(out_dir / "experiment.csv", rows)
    return 0 if ok else 2


def load_bench_file(path) -> dict:
    """The bench file with its defaults filled in. Its ``crossover`` entry,
    when present, becomes the list of ``(elements, SolveConfig)`` rungs, each
    parsed here, so a bad crossover spec fails before anything runs."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    _reject_unknown(doc, _BENCH_FILE_KEYS, "bench file")
    doc["output_dir"] = _output_dir(doc)
    doc.setdefault("seed", 0)
    doc.setdefault("degree", 2)
    doc.setdefault("elements", [8])
    doc.setdefault("geometries", [g for g in GEOMETRY_NAMES if g != "unit_cube"])
    doc.setdefault("source", "sin_pi_xyz")
    if not isinstance(doc["geometries"], list):
        raise ConfigError(f"geometries must be a list, got {doc['geometries']!r}")
    for g in doc["geometries"]:
        if g not in GEOMETRY_NAMES:
            raise ConfigError(f"unknown geometry {g!r}")
    if not isinstance(doc["elements"], list):
        doc["elements"] = [doc["elements"]]
    for key in ("geometries", "elements"):
        if not doc[key]:
            raise ConfigError(f"{key} must not be empty")
    if "crossover" in doc:
        _reject_unknown(doc["crossover"], _CROSSOVER_KEYS, "crossover")
        spec = dict(doc["crossover"])
        ladder = spec.pop("elements", [4, 8, 16])
        if not isinstance(ladder, list):
            ladder = [ladder]
        if not ladder:
            raise ConfigError("crossover elements must not be empty")
        doc["crossover"] = [
            (elems, parse_run({**spec, "elements": elems, "seed": doc["seed"]})[0])
            for elems in ladder
        ]
    return doc


def cmd_bench(args) -> int:
    doc = load_bench_file(args.config)
    out_dir = Path(args.out) if args.out else doc["output_dir"]
    out_dir.mkdir(parents=True, exist_ok=True)
    eps = {k: doc[k] for k in ("eps_cross", "eps_solve", "eps_round") if k in doc}
    rows = []
    n_ok, rejected = 0, []  # rejected: errors of rungs whose config was bad
    for geometry in doc["geometries"]:
        for elems in doc["elements"]:
            run = {
                "geometry": geometry,
                "degree": doc["degree"],
                "elements": elems,
                "source": doc["source"],
                "seed": doc["seed"],
                **eps,
            }
            cfg = None
            try:
                cfg, _ = parse_run(run)
                rep = solve_poisson(cfg)
                status = "ok" if rep.solver_converged else "no-convergence"
                rows.append(report_csv_row(rep, status=status))
                _atomic_write(
                    out_dir / f"bench_{geometry}_e{elems}.json", rep.to_json()
                )
                n_ok += status == "ok"
            except Exception as exc:  # recorded, not fatal: bench carries on
                if cfg is None:
                    rejected.append(exc)
                rows.append(
                    {
                        "geometry": geometry,
                        "p": _compact((doc["degree"],)),
                        "elems": elems,
                        "status": f"failed: {type(exc).__name__}: {exc}",
                    }
                )
    write_csv(out_dir / "bench.csv", rows, CSV_COLUMNS + ["status"])

    if "crossover" in doc:
        summary = _crossover_study(doc["crossover"])
        _atomic_write(out_dir / "crossover.json", json.dumps(summary, indent=2))
    if rows and len(rejected) == len(rows):
        raise ConfigError(f"every bench run was rejected: {rejected[0]}")
    return 0 if n_ok >= 1 else 2


def _crossover_study(rungs) -> dict:
    import time

    points = []
    largest = None
    for elems, cfg in rungs:
        t0 = time.perf_counter()
        rep = solve_poisson(cfg)
        tt_time = time.perf_counter() - t0
        entry = {
            "elements": elems,
            "dofs": rep.dofs,
            "tt_time_s": tt_time,
            "tt_residual": rep.residual,
        }
        try:
            t0 = time.perf_counter()
            ref = full_grid_reference(cfg)
            entry["full_grid_time_s"] = time.perf_counter() - t0
            entry["status"] = "ok"
            diff = np.linalg.norm(rep.u.full().ravel() - ref.u)
            entry["u_rel_diff"] = float(diff / np.linalg.norm(ref.u))
            largest = entry
        except OracleRefusedError:
            entry["status"] = "oracle-refused"
        points.append(entry)
    summary = {"ladder": points}
    if largest is not None:
        summary["largest_oracle_dofs"] = largest["dofs"]
        summary["time_ratio_full_over_tt"] = (
            largest["full_grid_time_s"] / max(largest["tt_time_s"], 1e-9)
        )
    return summary


def _floats(flag: str, text: str) -> np.ndarray:
    try:
        return np.array([float(x) for x in text.split(",")])
    except ValueError:
        raise ConfigError(f"{flag} must be comma-separated numbers, got {text!r}") from None


def cmd_dump(args) -> int:
    if args.what == "basis":
        if not args.knots:
            raise ConfigError("dump basis requires --knots")
        if args.samples < 1:
            raise ConfigError(f"--samples must be at least 1, got {args.samples}")
        knots = _floats("--knots", args.knots)
        weights = _floats("--weights", args.weights) if args.weights else None
        basis = Basis1D(KnotVector(knots, args.degree), weights)
        xs = np.linspace(knots[0], knots[-1], args.samples)
        V, _ = tabulate(basis, xs)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["xi"] + [f"N_{i}" for i in range(basis.n_basis)])
        for x, row in zip(xs, V):
            writer.writerow([_fmt(float(x))] + [_fmt(float(v)) for v in row])
        out = buf.getvalue()
    elif args.what == "geometry":
        if not args.name:
            raise ConfigError("dump geometry requires --name")
        try:
            params = json.loads(args.params) if args.params else {}
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--params is not valid JSON: {exc}") from None
        out = patch_to_json(make_geometry(args.name, params))
    else:  # tt-info
        if not args.path:
            raise ConfigError("dump tt-info requires --path")
        out = json.dumps(tt_info(_load_container(args.path)), indent=2)
    if args.out:
        _atomic_write(Path(args.out), out)
    else:
        sys.stdout.write(out if out.endswith("\n") else out + "\n")
    return 0


# ---------------------------------------------------------------------------
# artifact schema checks

_NUMBER = (int, float)


def _check_fields(doc: dict, required: dict, what: str):
    """Each ``required`` key is in ``doc`` with a value of its type; a bool is no number."""
    for key, typ in required.items():
        if key not in doc:
            raise ConfigError(f"{what} is missing {key!r}")
        val = doc[key]
        if not isinstance(val, typ) or (isinstance(val, bool) and typ is not bool):
            raise ConfigError(f"{what} field {key!r} has the wrong type")


def _check_report(doc: dict):
    _check_fields(doc, {
        "geometry": str,
        "degree": list,
        "elements": list,
        "seed": int,
        "dofs": int,
        "mode_sizes": list,
        "residual": float,
        "solver_converged": bool,
        "cross_converged": bool,
        "ranks_K": list,
        "ranks_f": list,
        "ranks_u": list,
        "compression_K": _NUMBER,
        "compression_f": _NUMBER,
        "compression_u": _NUMBER,
        "sweeps": int,
        "cg_iters": int,
        "timings": dict,
    }, "report")
    nullable = ("l2_error", "rel_l2_error")
    _check_fields(doc, {k: _NUMBER for k in nullable if doc.get(k) is not None}, "report")


def _check_crossover(doc: dict):
    """The summary :func:`_crossover_study` writes."""
    rungs = doc["ladder"]
    if not (isinstance(rungs, list) and rungs and all(isinstance(e, dict) for e in rungs)):
        raise ConfigError("crossover ladder must be a non-empty list of objects")
    for m, entry in enumerate(rungs):
        what = f"crossover ladder entry {m}"
        _check_fields(entry, {
            "dofs": int, "tt_time_s": _NUMBER, "tt_residual": _NUMBER, "status": str,
        }, what)
        if entry["status"] not in ("ok", "oracle-refused"):
            raise ConfigError(f"{what} has unknown status {entry['status']!r}")
        if entry["status"] == "ok":
            _check_fields(entry, {"full_grid_time_s": _NUMBER, "u_rel_diff": _NUMBER}, what)
    optional = ("largest_oracle_dofs", "time_ratio_full_over_tt")
    _check_fields(doc, {k: _NUMBER for k in optional if k in doc}, "crossover summary")


# every column after the run's geometry, p and elems holds a number
_NUMBER_COLUMNS = {"dofs": int} | dict.fromkeys(CSV_COLUMNS[4:], float)


def _number(cast, text: str, where: str):
    try:
        cast(text)
    except ValueError:
        raise ConfigError(f"{where}: {text!r} is not a number") from None


def _read_text(path: Path) -> str:
    """The file as UTF-8 text; a byte that does not decode is named by its
    line and column."""
    raw = path.read_bytes()
    try:
        return raw.decode()
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        col = exc.start - raw.rfind(b"\n", 0, exc.start)
        raise ConfigError(f"{path}: line {line}, column {col}: not UTF-8 text") from None


def _check_csv(text: str, path: Path):
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None:
        raise ConfigError("empty CSV")
    if header[: len(CSV_COLUMNS)] != CSV_COLUMNS or (
        len(header) > len(CSV_COLUMNS) and header[len(CSV_COLUMNS):] != ["status"]
    ):
        raise ConfigError(f"unexpected CSV header {header}")
    for row in reader:
        if len(row) != len(header):
            raise ConfigError(f"{path}: line {reader.line_num}: CSV row width mismatch")
        for col, val in zip(header, row):
            if col in _NUMBER_COLUMNS and val:
                where = f"{path}: line {reader.line_num}, column {col}"
                _number(_NUMBER_COLUMNS[col], val, where)


def _check_field(text: str, path: Path):
    for ln, line in enumerate(text.strip().splitlines(), 1):
        parts = line.split()
        if len(parts) != 4:
            raise ConfigError(f"{path}: line {ln}: field dump needs 4 columns")
        for col, part in enumerate(parts, 1):
            _number(float, part, f"{path}: line {ln}, column {col}")


def _load_container(path):
    """:func:`load_tt`, with a malformed container reported as a ConfigError."""
    try:
        return load_tt(path)
    except ValueError as exc:
        raise ConfigError(f"invalid TT container {path}: {exc}") from exc


def check_artifact(path) -> str:
    """Validate one artifact; returns its detected kind or raises ConfigError."""
    path = Path(path)
    if path.suffix == ".csv":
        _check_csv(_read_text(path), path)
        return "csv"
    if path.suffix == ".tt":
        _load_container(path)
        return "tt-container"
    if path.suffix == ".txt":
        _check_field(_read_text(path), path)
        return "field-dump"
    if path.suffix == ".json":
        text = _read_text(path)
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from exc
        if isinstance(doc, dict) and "runs" in doc:
            load_solve_file(path)
            return "experiment-config"
        if isinstance(doc, dict) and "control_points" in doc:
            try:
                patch_from_json(text)
            except (GeometryError, SplineError) as exc:
                raise ConfigError(f"invalid patch JSON: {exc}") from exc
            return "geometry-patch"
        if isinstance(doc, dict) and "ladder" in doc:
            _check_crossover(doc)
            return "crossover-summary"
        if isinstance(doc, dict) and "residual" in doc:
            _check_report(doc)
            return "solve-report"
        if isinstance(doc, dict) and (
            "geometries" in doc or "crossover" in doc or "elements" in doc
        ):
            load_bench_file(path)
            return "bench-config"
        raise ConfigError("unrecognized JSON artifact")
    raise ConfigError(f"unknown artifact type for {path.name}")


def cmd_check(args) -> int:
    kind = check_artifact(args.path)
    print(f"{args.path}: valid {kind}")
    return 0


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, like any other bad input; 2 is reserved
    for solver non-convergence."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ttiga",
        description="Tensor-train isogeometric Poisson solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the solves listed in a config file")
    p.add_argument("--config", required=True, help="experiment JSON file")
    p.add_argument("--out", help="output directory (overrides the file)")
    p.add_argument("--seed", type=int, help="override every run's seed")
    p.add_argument("--jobs", type=int, default=1, help="parallel runs")
    p.add_argument("--field-samples", type=int, default=0, metavar="M",
                   help="dump the field on an M^3 parametric grid (0 = off)")
    p.add_argument("--eps-cross", type=float, help="override cross tolerance")
    p.add_argument("--eps-solve", type=float, help="override solver tolerance")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("bench", help="six-geometry ladder and crossover study")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("dump", help="debug dumps: basis CSV, geometry JSON, tt-info")
    p.add_argument("what", choices=["basis", "geometry", "tt-info"])
    p.add_argument("--knots", help="comma-separated knot vector (basis)")
    p.add_argument("--degree", type=int, default=2, help="basis degree")
    p.add_argument("--weights", help="comma-separated weights (basis)")
    p.add_argument("--samples", type=int, default=201, help="basis sample count")
    p.add_argument("--name", help="geometry name")
    p.add_argument("--params", help="geometry params as JSON")
    p.add_argument("--path", help="TT container path (tt-info)")
    p.add_argument("--out", help="write to file instead of stdout")
    p.set_defaults(fn=cmd_dump)

    p = sub.add_parser("check", help="validate an artifact against its schema")
    p.add_argument("path")
    p.set_defaults(fn=cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (AssemblyError, ConfigError, DriverError, GeometryError, SplineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
