"""End-to-end solves, the full-grid reference oracle, and error metrics.

A :class:`SolveConfig` names a geometry, solution degrees, a target element
count per direction, tolerances, boundary conditions, and a source term;
:func:`solve_poisson` runs geometry -> discretization -> TT assembly ->
AMEn solve -> metrics and returns a :class:`SolutionReport`.

:func:`full_grid_reference` assembles the identical discretization by a
classical element loop into sparse storage and solves it directly; it is
the independent oracle for the TT pipeline and the slow side of the
crossover study.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import (
    BoundarySpec,
    Discretization,
    FaceCondition,
    apply_dirichlet,
    assemble_load,
    assemble_stiffness,
    build_quadrature,
    _BLOCK,
    _lift_tensor,
)
from .geometry import GeometryPatch, GridEvaluator, make_geometry
from .splines import Basis1D, KnotVector, eval_basis, tabulate
from .tensor_train import (
    AmenOptions,
    TtTensor,
    amen_solve,
    load_tt,
    save_tt,
    tt_add,
    tt_from_full,
    tt_info,
    tt_round,
)
from .tensor_train.io import _atomic_write

__all__ = [
    "DriverError",
    "SolveConfig",
    "SolutionReport",
    "SOURCES",
    "ANALYTIC",
    "ANALYTIC_PROBLEMS",
    "solve_poisson",
    "l2_error",
    "error_norms",
    "full_grid_reference",
    "FullGridResult",
    "OracleRefusedError",
    "compression_ratio",
    "evaluate_field",
    "solution_basis",
    "discretize",
    "fit_slope",
]

FULL_GRID_DOF_GUARD = 1_000_000


class DriverError(ValueError):
    """Invalid solve configuration."""


class OracleRefusedError(RuntimeError):
    """Full-grid reference refused: problem exceeds the dof guard."""


# ---------------------------------------------------------------------------
# named source terms and analytic solutions (physical coordinates)

SOURCES = {
    "zero": lambda pts: np.zeros(pts.shape[0]),
    "one": lambda pts: np.ones(pts.shape[0]),
    "sin_pi_xy": lambda pts: np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1]),
    "sin_pi_xyz": lambda pts: (
        np.sin(np.pi * pts[:, 0])
        * np.sin(np.pi * pts[:, 1])
        * np.sin(np.pi * pts[:, 2])
    ),
    "manufactured_sines": lambda pts: (
        3.0
        * np.pi**2
        * np.sin(np.pi * pts[:, 0])
        * np.sin(np.pi * pts[:, 1])
        * np.sin(np.pi * pts[:, 2])
    ),
}


def _analytic_lshape(cfg, patch):
    def u(pts):
        return (
            np.sin(np.pi * pts[:, 0])
            * np.sin(np.pi * pts[:, 1])
            / (2.0 * np.pi**2)
        )

    return u


def _analytic_cube_sines(cfg, patch):
    def u(pts):
        return (
            np.sin(np.pi * pts[:, 0])
            * np.sin(np.pi * pts[:, 1])
            * np.sin(np.pi * pts[:, 2])
        )

    return u


def _analytic_ring_radial(cfg, patch):
    """Radial harmonic between the two cylinder faces of the ring, which
    take their Dirichlet values from ``cfg``."""
    params = patch.metadata.get("params", {})
    r_in = params.get("r_in", 0.5)
    r_out = params.get("r_out", 1.0)
    u_in, u_out = cfg.bc.condition(1, 0).value, cfg.bc.condition(1, 1).value
    log_ratio = np.log(r_out / r_in)

    def u(pts):
        r = np.hypot(pts[:, 0], pts[:, 1])
        return (u_in * np.log(r_out / r) + u_out * np.log(r / r_in)) / log_ratio

    return u


ANALYTIC = {
    "lshape_exact": _analytic_lshape,
    "cube_sines": _analytic_cube_sines,
    "ring_radial": _analytic_ring_radial,
}

# the problem each analytic solution solves: its geometry, its source and
# the faces whose Dirichlet data it reads
ANALYTIC_PROBLEMS = {
    "lshape_exact": ("lshape", "sin_pi_xy", ()),
    "cube_sines": ("unit_cube", "manufactured_sines", ()),
    "ring_radial": ("ring", "zero", ((1, 0), (1, 1))),
}


# ---------------------------------------------------------------------------
# configuration

def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _int_triple(name: str, val) -> tuple:
    """``val`` as 3 ints: one integer for all directions, or 3 integers."""
    vals = (val,) * 3 if _is_int(val) else val
    if not (
        isinstance(vals, (list, tuple)) and len(vals) == 3 and all(map(_is_int, vals))
    ):
        raise DriverError(f"{name} must be an integer or 3 integers, got {val!r}")
    return tuple(int(v) for v in vals)


@dataclass
class SolveConfig:
    geometry: str
    geometry_params: dict = field(default_factory=dict)
    degree: int | tuple = 2
    elements: int | tuple = 4
    eps_cross: float = 1e-10
    eps_solve: float = 1e-8
    eps_round: float = 1e-10
    n_gauss: int | None = None
    rank_cap: int = 64
    bc: BoundarySpec | None = None
    source: str = "zero"
    analytic: str | None = None
    seed: int = 0
    solver: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, val in (
            ("eps_cross", self.eps_cross),
            ("eps_solve", self.eps_solve),
            ("eps_round", self.eps_round),
        ):
            if not 0.0 < val < 1.0:
                raise DriverError(f"{name} must lie in (0, 1), got {val}")
        if not isinstance(self.geometry_params, dict):
            raise DriverError(
                f"geometry_params must be an object, got {self.geometry_params!r}"
            )
        self.degree = _int_triple("degree", self.degree)
        self.elements = _int_triple("elements", self.elements)
        if any(p < 1 for p in self.degree):
            raise DriverError("degrees must be at least 1")
        if any(e < 1 for e in self.elements):
            raise DriverError("need at least one element per direction")
        if not _is_int(self.seed) or self.seed < 0:
            raise DriverError(
                f"seed must be a non-negative integer, got {self.seed!r}"
            )
        if not _is_int(self.rank_cap) or self.rank_cap < 1:
            raise DriverError(
                f"rank_cap must be an integer >= 1, got {self.rank_cap!r}"
            )
        if self.n_gauss is not None:
            g = _int_triple("n_gauss", self.n_gauss)
            if any(n < p + 1 for n, p in zip(g, self.degree)):
                raise DriverError(
                    "n_gauss must be at least degree + 1 = "
                    f"{[p + 1 for p in self.degree]}, got {self.n_gauss!r}"
                )
        if self.source not in SOURCES:
            raise DriverError(f"unknown source {self.source!r}")
        if self.analytic is not None:
            self._check_analytic()
        if not isinstance(self.solver, dict):
            raise DriverError("solver must be an object of AmenOptions fields")
        unknown = set(self.solver) - {f.name for f in fields(AmenOptions)}
        if unknown:
            raise DriverError(f"unknown solver options: {sorted(unknown)}")
        for name, val in self.solver.items():
            if type(val) is not int or val < 1:
                raise DriverError(f"bad value for solver option {name}: {val!r}")

    def _check_analytic(self):
        """Reject an analytic solution that does not solve this problem."""
        if self.analytic not in ANALYTIC:
            raise DriverError(f"unknown analytic solution {self.analytic!r}")
        geometry, source, faces = ANALYTIC_PROBLEMS[self.analytic]
        if (self.geometry, self.source) != (geometry, source):
            raise DriverError(
                f"analytic solution {self.analytic!r} solves source {source!r} "
                f"on {geometry!r}, not {self.source!r} on {self.geometry!r}"
            )
        # without bc the geometry's default faces apply, whose data are zero
        conds = [] if self.bc is None else [self.bc.condition(*f) for f in faces]
        given = all(c.kind == "dirichlet" for c in conds) and any(c.value for c in conds)
        if faces and not given:
            raise DriverError(
                f"analytic solution {self.analytic!r} reads the Dirichlet data "
                f"of faces {list(faces)}, which bc must give, not all zero"
            )


@dataclass
class SolutionReport:
    config: SolveConfig
    u: TtTensor
    dofs: int
    mode_sizes: tuple
    l2_error: float | None
    rel_l2_error: float | None
    residual: float
    solver_converged: bool
    cross_converged: bool
    ranks_K: tuple
    ranks_f: tuple
    ranks_u: tuple
    compression_K: float
    compression_f: float
    compression_u: float
    timings: dict
    sweeps: int
    cross_evals: dict

    def metrics_dict(self) -> dict:
        """Deterministic metric fields (no timings)."""
        return {
            "geometry": self.config.geometry,
            "degree": list(self.config.degree),
            "elements": list(self.config.elements),
            "seed": self.config.seed,
            "dofs": self.dofs,
            "mode_sizes": list(self.mode_sizes),
            "l2_error": self.l2_error,
            "rel_l2_error": self.rel_l2_error,
            "residual": self.residual,
            "solver_converged": self.solver_converged,
            "cross_converged": self.cross_converged,
            "ranks_K": list(self.ranks_K),
            "ranks_f": list(self.ranks_f),
            "ranks_u": list(self.ranks_u),
            "compression_K": self.compression_K,
            "compression_f": self.compression_f,
            "compression_u": self.compression_u,
            "sweeps": self.sweeps,
            "cross_evals": dict(self.cross_evals),
        }

    def to_json(self) -> str:
        doc = dict(self.metrics_dict())
        doc["timings"] = self.timings
        doc["source"] = self.config.source
        doc["analytic"] = self.config.analytic
        doc["eps_cross"] = self.config.eps_cross
        doc["eps_solve"] = self.config.eps_solve
        doc["eps_round"] = self.config.eps_round
        return json.dumps(doc, indent=2)


# ---------------------------------------------------------------------------
# solution spaces

def solution_basis(geom_basis: Basis1D, degree: int, elements: int) -> Basis1D:
    """Solution space for one direction: degree-p splines on a bisection
    refinement of the geometry breakpoints.

    Geometry breakpoints are kept (so interior C0 lines of the map stay
    represented) with multiplicity matching the geometry's continuity class;
    bisection points enter with multiplicity one. The span count is the
    smallest power-of-two multiple of the coarse span count reaching
    ``elements``.
    """
    kv = geom_basis.knot_vector
    pg = kv.degree
    uniq, counts = np.unique(kv.knots, return_counts=True)
    base_spans = uniq.size - 1
    levels = 0
    while base_spans * 2**levels < elements:
        levels += 1
    breaks = list(uniq)
    for _ in range(levels):
        mids = [0.5 * (a + b) for a, b in zip(breaks[:-1], breaks[1:])]
        breaks = sorted(breaks + mids)
    mult = {}
    for val, cnt in zip(uniq[1:-1], counts[1:-1]):
        # do not pretend more continuity than the geometry map has
        mult[float(val)] = max(1, degree - (pg - int(cnt)))
    knots = [0.0] * (degree + 1)
    for b in breaks[1:-1]:
        knots.extend([b] * mult.get(float(b), 1))
    knots.extend([1.0] * (degree + 1))
    return Basis1D(KnotVector(np.asarray(knots), degree), None)


def discretize(cfg: SolveConfig):
    """Geometry, bc-resolved config and discretization for one solve.

    Returns ``(patch, cfg, disc)``. The config is a copy of ``cfg`` whose
    ``bc`` falls back to the geometry's default homogeneous Dirichlet faces;
    the caller's object is left unchanged.
    """
    patch = make_geometry(cfg.geometry, cfg.geometry_params)
    bc = cfg.bc
    if bc is None:
        bc = BoundarySpec(
            {
                (int(a), int(s)): FaceCondition("dirichlet", 0.0)
                for a, s in patch.metadata.get("default_dirichlet", [])
            }
        )
    bases = tuple(
        solution_basis(patch.bases[d], cfg.degree[d], cfg.elements[d])
        for d in range(3)
    )
    return patch, replace(cfg, bc=bc), build_quadrature(bases, cfg.n_gauss)


def _spawn_rngs(seed: int, n: int):
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


# ---------------------------------------------------------------------------
# operator cache, enabled through the TTIGA_CACHE_DIR environment variable

def cache_dir() -> Path | None:
    d = os.environ.get("TTIGA_CACHE_DIR")
    return Path(d) if d else None


# bump when assembly changes what an entry holds, so stale entries miss
CACHE_FORMAT = 5


def cache_key(cfg: SolveConfig, what: str) -> str:
    """Content hash of the inputs that assemble the operator K or the load f."""
    payload = {
        "format": CACHE_FORMAT,
        "what": what,
        "geometry": cfg.geometry,
        "geometry_params": cfg.geometry_params,
        "degree": list(cfg.degree),
        "elements": list(cfg.elements),
        "n_gauss": cfg.n_gauss,
        "rank_cap": cfg.rank_cap,
        "eps_cross": cfg.eps_cross,
        "seed": cfg.seed,
    }
    if what == "K":
        payload["eps_round"] = cfg.eps_round
    else:
        payload["source"] = cfg.source
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:24]


def _cached(cfg: SolveConfig, what: str, assemble):
    """``(obj, info)`` for K or f: from the cache when it holds a readable
    entry, else from ``assemble()``, which is then stored."""
    d = cache_dir()
    if d is None:
        return assemble()
    key = cache_key(cfg, what)
    path, manifest = d / f"{key}.tt", d / f"{key}.json"
    if path.exists() and manifest.exists():
        try:
            with open(manifest) as fh:
                info = json.load(fh)
            return load_tt(path), info
        except (ValueError, OSError):
            pass  # unreadable entries count as misses
    obj, info = assemble()
    save_tt(path, obj)
    doc = dict(info)
    doc["tt"] = tt_info(obj)
    _atomic_write(manifest, json.dumps(doc, indent=2, default=str))
    return obj, info


# ---------------------------------------------------------------------------
# metrics

def compression_ratio(t) -> float:
    """Dense element count of the represented object over TT parameters."""
    return tt_info(t)["compression_ratio"]


def evaluate_field(disc: Discretization, u: TtTensor, xi) -> float:
    """Value of the coefficient field at one parametric point."""
    v = np.ones((1, 1))
    for d in range(3):
        ev = eval_basis(disc.solution_bases[d], float(xi[d]))
        sl = slice(ev.first_index, ev.first_index + ev.values.size)
        M = np.einsum("a,ras->rs", ev.values, u.cores[d][:, sl, :])
        v = v @ M
    return float(v[0, 0])


def _grid_value_tables(disc: Discretization):
    return [
        tabulate(disc.solution_bases[d], disc.tables[d].points)[0] for d in range(3)
    ]


def error_norms(u: TtTensor, analytic_fn, patch: GeometryPatch, disc: Discretization):
    """Relative L1 and L2 errors of ``u`` against ``analytic_fn``.

    Returns ``(rel_l1, rel_l2)``: the integral of |u - u_exact| over that of
    |u_exact|, and the root of the integral of (u - u_exact)^2 over that of
    u_exact^2. Both include the volume element and use the assembly
    quadrature grid, in blocks of whole i3 slabs (at least one) of at most
    ``_BLOCK`` points, the block the cross oracles evaluate lines in. det J
    and the points come from the homogeneous sums, with no Jacobian formed.
    """
    Bq = _grid_value_tables(disc)
    V = [
        np.einsum("rns,qn->rqs", u.cores[d], Bq[d], optimize=True) for d in range(3)
    ]
    T12 = np.einsum("qb,bpc->qpc", V[0][0], V[1], optimize=True)
    n1, n2, n3 = disc.quad_shape
    # a block's points run (i3, i2, i1)
    T21 = np.ascontiguousarray(T12.transpose(2, 1, 0)).reshape(-1, n2 * n1)
    ev = GridEvaluator(patch, disc.quad_axes())
    w1, w2, w3 = (disc.tables[d].weights for d in range(3))
    w21 = np.outer(w2, w1).ravel()
    step = max(1, _BLOCK // (n1 * n2))
    num = den = num2 = den2 = 0.0
    for start in range(0, n3, step):
        i3 = np.arange(start, min(start + step, n3))
        # the grid lines along axis 0 through every (i2, i3) of the block
        fixed = np.zeros((i3.size * n2, 3), dtype=np.intp)
        fixed[:, 1] = np.tile(np.arange(n2), i3.size)
        fixed[:, 2] = np.repeat(i3, n2)
        m = ev.along(0, fixed)
        wdet = m.det
        wdet *= np.outer(w3[i3], w21).ravel()
        u_exact = analytic_fn(m.pts)
        diff = (V[2][:, i3, 0].T @ T21).ravel()
        diff -= u_exact
        num2 += float(wdet @ (diff * diff))
        den2 += float(wdet @ (u_exact * u_exact))
        num += float(wdet @ np.abs(diff, out=diff))
        den += float(wdet @ np.abs(u_exact))
    if den == 0.0:
        raise DriverError("analytic solution has zero norm on this domain")
    return num / den, float(np.sqrt(num2 / den2))


def l2_error(u: TtTensor, analytic_fn, patch: GeometryPatch, disc: Discretization):
    """Normalized error integral |u - u_exact| over |u_exact|, with the
    volume element included, on the assembly quadrature grid: the relative
    L1 error of :func:`error_norms`, which the report keeps as ``l2_error``."""
    return error_norms(u, analytic_fn, patch, disc)[0]


def fit_slope(points_per_edge, errors) -> float:
    """Least-squares slope of log error against log resolution."""
    x = np.log(np.asarray(points_per_edge, dtype=float))
    y = np.log(np.asarray(errors, dtype=float))
    return float(-np.polyfit(x, y, 1)[0])


def field_on_grid(disc: Discretization, u: TtTensor, axes) -> np.ndarray:
    """Coefficient-field values on a tensor grid of parameters."""
    tabs = [
        tabulate(disc.solution_bases[d], np.asarray(ax, dtype=float))[0]
        for d, ax in enumerate(axes)
    ]
    V = [np.einsum("rns,qn->rqs", u.cores[d], tabs[d]) for d in range(3)]
    T = np.einsum("qb,bpc->qpc", V[0][0], V[1])
    return np.einsum("qpc,cm->qpm", T, V[2][:, :, 0])


# ---------------------------------------------------------------------------
# TT solve pipeline

def _extend_interior(u_int: TtTensor, slices, sizes) -> TtTensor:
    cores = []
    for G, s, n in zip(u_int.cores, slices, sizes):
        full = np.zeros((G.shape[0], n, G.shape[2]))
        full[:, s, :] = G
        cores.append(full)
    return TtTensor(cores)


def solve_poisson(cfg: SolveConfig) -> SolutionReport:
    """Run the full TT pipeline for one configuration."""
    timings = {}
    t0 = time.perf_counter()
    patch, cfg, disc = discretize(cfg)
    timings["t_setup_s"] = time.perf_counter() - t0

    rng_K, rng_f = _spawn_rngs(cfg.seed, 2)
    t0 = time.perf_counter()
    K, k_info = _cached(cfg, "K", lambda: assemble_stiffness(
        patch, disc, cfg.eps_cross, cfg.eps_round, rank_cap=cfg.rank_cap, rng=rng_K
    ))
    timings["t_assemble_K_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    f, f_info = _cached(cfg, "f", lambda: assemble_load(
        patch, disc, SOURCES[cfg.source], cfg.eps_cross,
        rank_cap=cfg.rank_cap, rng=rng_f,
    ))
    timings["t_assemble_f_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    system = apply_dirichlet(K, f, cfg.bc, disc, eps=cfg.eps_round)
    timings["t_bc_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    opts = AmenOptions(**cfg.solver)
    result = amen_solve(system.K, system.f, cfg.eps_solve, opts)
    timings["t_solve_s"] = time.perf_counter() - t0

    u_full = tt_round(
        tt_add(
            _extend_interior(result.solution, system.interior, disc.mode_sizes),
            system.lift,
        ),
        1e-14,
    )

    err = err_l2 = None
    t0 = time.perf_counter()
    if cfg.analytic is not None:
        analytic_fn = ANALYTIC[cfg.analytic](cfg, patch)
        err, err_l2 = error_norms(u_full, analytic_fn, patch, disc)
    timings["t_error_s"] = time.perf_counter() - t0

    cross_ok = all(k_info["cross_converged"].values()) and f_info["cross_converged"]
    return SolutionReport(
        config=cfg,
        u=u_full,
        dofs=disc.n_dofs,
        mode_sizes=disc.mode_sizes,
        l2_error=err,
        rel_l2_error=err_l2,
        residual=result.residual,
        solver_converged=result.converged,
        cross_converged=bool(cross_ok),
        ranks_K=K.ranks,
        ranks_f=f.ranks,
        ranks_u=u_full.ranks,
        compression_K=compression_ratio(K),
        compression_f=compression_ratio(f),
        compression_u=compression_ratio(u_full),
        timings=timings,
        sweeps=result.sweeps,
        cross_evals={"K": k_info["n_evals"], "f": f_info["n_evals"]},
    )


# ---------------------------------------------------------------------------
# full-grid reference

@dataclass
class FullGridResult:
    K: sp.csr_matrix  # full coefficient space
    f: np.ndarray  # full coefficient space
    u: np.ndarray  # solved field, boundary coefficients included
    mode_sizes: tuple
    l2_error: float | None = None


def full_grid_reference(cfg: SolveConfig) -> FullGridResult:
    """Classical sparse IGA assembly and direct/CG solve, same quadrature.

    Refuses above the dof guard: the point of the TT pipeline is precisely
    that this path stops scaling.
    """
    patch, cfg, disc = discretize(cfg)
    sizes = disc.mode_sizes
    n_dofs = disc.n_dofs
    if n_dofs > FULL_GRID_DOF_GUARD:
        raise OracleRefusedError(
            f"full-grid oracle refused: {n_dofs} dofs exceed the "
            f"{FULL_GRID_DOF_GUARD} guard"
        )

    ev = GridEvaluator(patch, disc.quad_axes())
    tabs = disc.tables
    g = disc.n_gauss
    n_el = tuple(len(b.knot_vector.spans()) for b in disc.solution_bases)
    p1 = tuple(b.degree + 1 for b in disc.solution_bases)
    source = SOURCES[cfg.source]

    rows_acc, cols_acc, vals_acc = [], [], []
    f_vec = np.zeros(n_dofs)
    stride = (sizes[1] * sizes[2], sizes[2], 1)

    q1_all = np.arange(tabs[0].points.size)
    for e2 in range(n_el[1]):
        q2 = np.arange(e2 * g[1], (e2 + 1) * g[1])
        for e3 in range(n_el[2]):
            q3 = np.arange(e3 * g[2], (e3 + 1) * g[2])
            idx = np.stack(
                [
                    np.repeat(q1_all, g[1] * g[2]),
                    np.tile(np.repeat(q2, g[2]), q1_all.size),
                    np.tile(q3, q1_all.size * g[1]),
                ],
                axis=1,
            )
            jac, pts = ev.jacobians(idx)
            det = np.linalg.det(jac)
            inv = np.linalg.inv(jac)
            R = inv @ inv.transpose(0, 2, 1) * det[:, None, None]
            # shapes per element row e1: (E1, t1, t2, t3, ...)
            E1 = n_el[0]
            R = R.reshape(E1, g[0], g[1], g[2], 3, 3)
            fj = (source(pts) * det).reshape(E1, g[0], g[1], g[2])

            # local 1D factors: values and derivatives on this element block
            B = []
            D = []
            W = []
            for d, q in ((0, None), (1, q2), (2, q3)):
                if d == 0:
                    V = tabs[0].vals.reshape(E1, g[0], p1[0])
                    Dv = tabs[0].ders.reshape(E1, g[0], p1[0])
                    Wv = tabs[0].weights.reshape(E1, g[0])
                else:
                    V = tabs[d].vals[q]
                    Dv = tabs[d].ders[q]
                    Wv = tabs[d].weights[q]
                B.append(V)
                D.append(Dv)
                W.append(Wv)

            # gradient factor per direction i: product with derivative in i
            grads = []
            for i in range(3):
                X1 = D[0] if i == 0 else B[0]
                X2 = D[1] if i == 1 else B[1]
                X3 = D[2] if i == 2 else B[2]
                Gr = np.einsum(
                    "Eta,ub,vc->Etuvabc", X1, X2, X3, optimize=True
                )
                grads.append(Gr.reshape(E1, g[0], g[1], g[2], -1))
            Nloc = np.einsum(
                "Eta,ub,vc->Etuvabc", B[0], B[1], B[2], optimize=True
            ).reshape(E1, g[0], g[1], g[2], -1)
            wq = np.einsum("Et,u,v->Etuv", W[0], W[1], W[2], optimize=True)

            Kloc = np.zeros((E1, Nloc.shape[-1], Nloc.shape[-1]))
            for i in range(3):
                for j in range(3):
                    Kloc += np.einsum(
                        "Etuva,Etuv,Etuvb->Eab",
                        grads[i],
                        wq * R[..., i, j],
                        grads[j],
                        optimize=True,
                    )
            floc = np.einsum("Etuva,Etuv->Ea", Nloc, wq * fj, optimize=True)

            # scatter: global index offsets per element
            loc1 = np.arange(p1[0])
            loc2 = np.arange(p1[1])
            loc3 = np.arange(p1[2])
            s1 = tabs[0].starts[::g[0]]  # (E1,)
            s2 = tabs[1].starts[e2 * g[1]]
            s3 = tabs[2].starts[e3 * g[2]]
            gi = (
                (s1[:, None, None, None] + loc1[None, :, None, None]) * stride[0]
                + (s2 + loc2[None, None, :, None]) * stride[1]
                + (s3 + loc3[None, None, None, :]) * stride[2]
            ).reshape(E1, -1)
            rows_acc.append(np.repeat(gi, gi.shape[1], axis=1).ravel())
            cols_acc.append(np.tile(gi, (1, gi.shape[1])).ravel())
            vals_acc.append(Kloc.ravel())
            np.add.at(f_vec, gi.ravel(), floc.ravel())

    K = sp.coo_matrix(
        (np.concatenate(vals_acc), (np.concatenate(rows_acc), np.concatenate(cols_acc))),
        shape=(n_dofs, n_dofs),
    ).tocsr()

    # Dirichlet elimination mirroring the TT path
    slices = cfg.bc.interior_slices(sizes)
    mask = np.zeros(sizes, dtype=bool)
    mask[slices[0], slices[1], slices[2]] = True
    interior = np.nonzero(mask.ravel())[0]
    lift = _lift_tensor(cfg.bc, sizes).full().ravel()
    rhs = f_vec[interior] - (K @ lift)[interior]
    K_int = K[interior][:, interior]
    if len(interior) <= 50_000:
        u_int = spla.spsolve(K_int.tocsc(), rhs)
    else:
        ml = sp.diags(1.0 / K_int.diagonal())
        u_int, info = spla.cg(K_int, rhs, rtol=1e-12, atol=0.0, maxiter=20_000, M=ml)
        if info != 0:
            raise RuntimeError("reference CG failed to converge")
    u = lift.copy()
    u[interior] += u_int

    err = None
    if cfg.analytic is not None:
        analytic_fn = ANALYTIC[cfg.analytic](cfg, patch)
        err = l2_error(tt_from_full(u.reshape(sizes), 1e-14), analytic_fn, patch, disc)
    return FullGridResult(K, f_vec, u, sizes, err)
