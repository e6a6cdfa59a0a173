"""The benchmark's workloads and their correctness gates.

Each workload is built from the workload seed, which becomes every pass's
``SolveConfig.seed`` and picks the gate's random sample points. A pass is
one ``driver.solve_poisson`` call (``torus_sin``, ``ring_lift``) or one full
ladder of solves (``convergence_ladder``). The gate turns a pass into a
list of failures, each a ``(cause, message)`` pair; an empty list is a pass
that met every check.

``smoke=True`` builds the same workloads at small sizes, for the
benchmark's own smoke mode.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ttiga import driver
from ttiga.assembly import BoundarySpec, FaceCondition, build_quadrature
from ttiga.geometry import make_geometry

NAMES = ("torus_sin", "ring_lift", "convergence_ladder")

REFERENCE = Path(__file__).resolve().parent / "reference" / "torus_sin.json"

# Dirichlet 1 on the inner and 2 on the outer radial face of the ring
RING_BC = BoundarySpec(
    {
        (1, 0): FaceCondition("dirichlet", 1.0),
        (1, 1): FaceCondition("dirichlet", 2.0),
    }
)

# gate windows: criterion-1 and criterion-2 slopes, criterion-2 mid-radius
LSHAPE_SLOPE = (1.8, 2.2)
RING_SLOPE = (2.7, 3.3)
RING_MID_XI = (0.3, 0.5, 0.5)
RING_MID_TOL = 1e-3
# ring_lift point checks against the radial harmonic; p=2 at 256 spans
# per direction leaves a pointwise discretization error near 1e-9
RING_POINT_TOL = 1e-6
RING_POINTS = 8


def _basic_failures(rep, tag=""):
    """Checks every solve must meet: converged solver and crosses, and a
    certified residual within the requested tolerance."""
    out = []
    if not rep.solver_converged:
        out.append(("solver_converged", f"{tag}AMEn stopped after {rep.sweeps} sweeps"))
    if not rep.cross_converged:
        out.append(("cross_converged", f"{tag}a cross term missed its tolerance"))
    if not rep.residual <= rep.config.eps_solve:
        out.append(
            ("residual", f"{tag}residual {rep.residual:.3e} > eps_solve "
             f"{rep.config.eps_solve:.1e}")
        )
    return out


class Workload:
    """One workload: its configs, warm-up, passes and gate."""

    def configs(self):
        raise NotImplementedError

    def warmup_configs(self):
        raise NotImplementedError

    def run_pass(self):
        """One timed pass; returns the solve reports."""
        return [driver.solve_poisson(cfg) for cfg in self.configs()]

    def warmup(self):
        for cfg in self.warmup_configs():
            driver.solve_poisson(cfg)

    def check(self, reports):
        out = []
        for rep in reports:
            out.extend(_basic_failures(rep, f"{rep.config.geometry} e={rep.config.elements[0]}: "))
        return out

    def sizes(self, reports):
        """Actual dofs and mode sizes of each solve in a pass."""
        return [
            {"geometry": r.config.geometry, "elements": r.config.elements[0],
             "dofs": r.dofs, "mode_sizes": list(r.mode_sizes)}
            for r in reports
        ]


class TorusSin(Workload):
    """Quarter torus, p=2, sin(pi x) sin(pi y) sin(pi z): AMEn-bound."""

    def __init__(self, seed, smoke, reference=None):
        self.seed = seed
        self.elements = 8 if smoke else 128
        doc = reference if reference is not None else json.loads(REFERENCE.read_text())
        ref = doc["cases"][str(self.elements)]
        self.ref_xi = np.asarray(ref["xi"], dtype=float)
        self.ref_u = np.asarray(ref["u"], dtype=float)
        self.ref_tol = float(doc["rel_tol"])
        self.disc = discretization("quarter_torus", 2, self.elements)

    def _cfg(self, elements):
        return driver.SolveConfig(
            geometry="quarter_torus", degree=2, elements=elements,
            source="sin_pi_xyz", seed=self.seed,
        )

    def configs(self):
        return [self._cfg(self.elements)]

    def warmup_configs(self):
        return [self._cfg(4)]

    def check(self, reports):
        out = super().check(reports)
        u = reports[0].u
        got = np.array([driver.evaluate_field(self.disc, u, xi) for xi in self.ref_xi])
        err = float(np.max(np.abs(got - self.ref_u)) / np.max(np.abs(self.ref_u)))
        if not err <= self.ref_tol:
            out.append(
                ("reference", f"field samples differ from the stored reference by "
                 f"{err:.3e} (relative) > {self.ref_tol:.1e}")
            )
        return out


class RingLift(Workload):
    """Ring Laplace with Dirichlet 1/2 on the radial faces: assembly-bound."""

    def __init__(self, seed, smoke):
        self.seed = seed
        self.elements = 16 if smoke else 160
        self.disc = discretization("ring", 2, self.elements)
        self.patch = make_geometry("ring")
        rng = np.random.default_rng(seed)
        self.xi = rng.uniform(0.0, 1.0, size=(RING_POINTS, 3))
        pts = np.array([self.patch.eval_point(x) for x in self.xi])
        exact = driver.ANALYTIC["ring_radial"](self.configs()[0], self.patch)
        self.exact = exact(pts)
        # the tolerance follows the discretization error, which is far
        # larger at the smoke size (16 spans)
        self.tol = 1e-4 if smoke else RING_POINT_TOL

    def _cfg(self, elements):
        return driver.SolveConfig(
            geometry="ring", degree=2, elements=elements, source="zero",
            bc=RING_BC, seed=self.seed,
        )

    def configs(self):
        return [self._cfg(self.elements)]

    def warmup_configs(self):
        return [self._cfg(4)]

    def check(self, reports):
        out = super().check(reports)
        u = reports[0].u
        got = np.array([driver.evaluate_field(self.disc, u, x) for x in self.xi])
        err = float(np.max(np.abs(got - self.exact)))
        if not err <= self.tol:
            out.append(
                ("ring_radial", f"point values differ from the radial harmonic "
                 f"by {err:.3e} > {self.tol:.1e}")
            )
        return out


class ConvergenceLadder(Workload):
    """The paper's convergence study: L-shape p=1 and ring p=2 ladders."""

    def __init__(self, seed, smoke):
        self.seed = seed
        self.rungs = (4, 8, 16) if smoke else (4, 8, 16, 32)
        self.mid_disc = discretization("ring", 2, self.rungs[-1])

    def _lshape(self, e):
        return driver.SolveConfig(
            geometry="lshape", degree=1, elements=e, source="sin_pi_xy",
            analytic="lshape_exact", seed=self.seed,
        )

    def _ring(self, e):
        return driver.SolveConfig(
            geometry="ring", degree=2, elements=e, source="zero",
            analytic="ring_radial", bc=RING_BC, seed=self.seed,
        )

    def configs(self):
        return [self._lshape(e) for e in self.rungs] + [self._ring(e) for e in self.rungs]

    def warmup_configs(self):
        return [self._lshape(2), self._ring(2)]

    def check(self, reports):
        out = super().check(reports)
        n = len(self.rungs)
        for label, reps, (lo, hi) in (
            ("lshape_slope", reports[:n], LSHAPE_SLOPE),
            ("ring_slope", reports[n:], RING_SLOPE),
        ):
            slope = driver.fit_slope(self.rungs, [r.l2_error for r in reps])
            if not lo <= slope <= hi:
                out.append((label, f"convergence slope {slope:.3f} outside [{lo}, {hi}]"))
        mid = driver.evaluate_field(self.mid_disc, reports[-1].u, RING_MID_XI)
        exact = (np.log(4.0 / 3.0) + 2.0 * np.log(1.5)) / np.log(2.0)
        if not abs(mid - exact) <= RING_MID_TOL:
            out.append(
                ("ring_midpoint", f"u(r=0.75) = {mid:.6f} vs {exact:.6f} "
                 f"(diff {abs(mid - exact):.2e} > {RING_MID_TOL:.0e})")
            )
        return out


def discretization(geometry, degree, elements):
    """The discretization ``solve_poisson`` builds for this geometry and size."""
    patch = make_geometry(geometry)
    bases = tuple(
        driver.solution_basis(patch.bases[d], degree, elements) for d in range(3)
    )
    return build_quadrature(bases)


def make(name, seed, smoke=False, reference=None):
    """Build a workload; ``reference`` replaces the stored torus_sin one."""
    if name == "torus_sin":
        return TorusSin(seed, smoke, reference)
    if reference is not None:
        raise ValueError("only torus_sin is gated against a stored reference")
    if name == "ring_lift":
        return RingLift(seed, smoke)
    if name == "convergence_ladder":
        return ConvergenceLadder(seed, smoke)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
