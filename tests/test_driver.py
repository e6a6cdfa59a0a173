import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ttiga.driver as driver
from ttiga.assembly import BoundarySpec, FaceCondition, assemble_stiffness
from ttiga.driver import (
    DriverError,
    OracleRefusedError,
    SolveConfig,
    compression_ratio,
    discretize,
    error_norms,
    evaluate_field,
    fit_slope,
    full_grid_reference,
    l2_error,
    field_on_grid,
    solution_basis,
    solve_poisson,
)
from ttiga.geometry import make_geometry
from ttiga.tensor_train import TtMatrix, TtTensor, tt_matvec, tt_norm, tt_sub

RING_BC = BoundarySpec(
    {
        (1, 0): FaceCondition("dirichlet", 1.0),
        (1, 1): FaceCondition("dirichlet", 2.0),
    }
)


def ring_cfg(elements, degree=2, analytic="ring_radial"):
    return SolveConfig(
        geometry="ring",
        degree=degree,
        elements=elements,
        source="zero",
        analytic=analytic,
        bc=RING_BC,
        seed=0,
    )


LSHAPE_4 = SolveConfig(geometry="lshape", degree=1, elements=4, source="sin_pi_xy",
                       analytic="lshape_exact")


def cube_cfg(degree, elements):
    return SolveConfig(geometry="unit_cube", degree=degree, elements=elements)


class TestSolutionBasis:
    def test_contains_geometry_breakpoints(self):
        patch = make_geometry("ring")
        basis = solution_basis(patch.bases[0], 2, 8)
        for b in (0.25, 0.5, 0.75):
            assert b in basis.knot_vector.knots

    def test_c0_lines_preserved(self):
        patch = make_geometry("ring")
        basis = solution_basis(patch.bases[0], 2, 8)
        # geometry circle is C0 at the arc joints; solution keeps that
        assert np.count_nonzero(basis.knot_vector.knots == 0.25) == 2

    def test_span_counts_reach_target(self):
        patch = make_geometry("lshape")
        for e in (4, 8, 16):
            basis = solution_basis(patch.bases[0], 1, e)
            assert len(basis.knot_vector.spans()) >= e


class TestSolvePoisson:
    def test_manufactured_cube_degrees(self):
        reports = {}
        for p in (1, 2):
            cfg = SolveConfig(
                geometry="unit_cube",
                degree=p,
                elements=8,
                source="manufactured_sines",
                analytic="cube_sines",
                seed=0,
            )
            reports[p] = solve_poisson(cfg)
        assert reports[2].l2_error <= reports[1].l2_error

    def test_error_decreases_under_refinement(self):
        errs = []
        for e in (4, 8):
            cfg = SolveConfig(
                geometry="unit_cube",
                degree=2,
                elements=e,
                source="manufactured_sines",
                analytic="cube_sines",
                seed=0,
            )
            errs.append(solve_poisson(cfg).l2_error)
        assert errs[1] < errs[0]

    def test_lshape_peak_value(self):
        cfg = SolveConfig(
            geometry="lshape",
            degree=1,
            elements=16,
            source="sin_pi_xy",
            analytic="lshape_exact",
            seed=0,
        )
        rep = solve_poisson(cfg)
        _, _, disc = discretize(cfg)
        ax = np.linspace(0.0, 1.0, 41)
        vals = field_on_grid(disc, rep.u, [ax, ax, ax])
        assert abs(vals.max() - 1.0 / (2 * np.pi**2)) < 2e-3

    def test_ring_mid_radius_value(self):
        rep = solve_poisson(ring_cfg(8))
        _, _, disc = discretize(ring_cfg(8))
        exact = (np.log(4.0 / 3.0) + 2.0 * np.log(1.5)) / np.log(2.0)
        val = evaluate_field(disc, rep.u, [0.37, 0.5, 0.61])
        assert abs(val - exact) < 1e-4

    def test_determinism_same_seed(self):
        a = solve_poisson(ring_cfg(4)).metrics_dict()
        b = solve_poisson(ring_cfg(4)).metrics_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_caller_config_keeps_bc_unset(self):
        cfg = SolveConfig(geometry="lshape", degree=1, elements=2, source="one")
        rep = solve_poisson(cfg)
        _, resolved, _ = discretize(cfg)
        assert cfg.bc is None
        faces = [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert resolved.bc.dirichlet_faces() == faces
        assert rep.config.bc.dirichlet_faces() == faces

    def test_residual_certificate(self):
        cfg = SolveConfig(
            geometry="lshape",
            degree=1,
            elements=4,
            source="sin_pi_xy",
            seed=0,
        )
        rep = solve_poisson(cfg)
        # rebuild the reduced system exactly as the pipeline does
        from ttiga.assembly import apply_dirichlet, assemble_load
        from ttiga.driver import SOURCES, _spawn_rngs

        patch, cfg2, disc = discretize(cfg)
        rng_K, rng_f = _spawn_rngs(0, 2)
        K, _ = assemble_stiffness(
            patch, disc, cfg2.eps_cross, cfg2.eps_round, rng=rng_K
        )
        f, _ = assemble_load(
            patch, disc, SOURCES["sin_pi_xy"], cfg2.eps_cross, rng=rng_f
        )
        system = apply_dirichlet(K, f, cfg2.bc, disc, eps=cfg2.eps_round)
        sl = system.interior
        u_int = TtTensor([G[:, s, :] for G, s in zip(rep.u.cores, sl)])
        res = tt_norm(tt_sub(system.f, tt_matvec(system.K, u_int))) / tt_norm(system.f)
        assert abs(res - rep.residual) <= 1e-10

    def test_eps_cross_reaches_stiffness_crosses(self, monkeypatch):
        infos = []

        def recording(*args, **kwargs):
            K, info = assemble_stiffness(*args, **kwargs)
            infos.append(info)
            return K, info

        monkeypatch.setattr(driver, "assemble_stiffness", recording)
        for eps_cross in (1e-10, 1e-3):
            solve_poisson(
                SolveConfig(
                    geometry="quarter_torus", degree=1, elements=4, seed=0,
                    source="one", eps_cross=eps_cross,
                )
            )
        fine, coarse = (info["cross_errors"] for info in infos)
        assert infos[1]["eps_cross"] == 1e-3 and infos[1]["eps_round"] == 1e-10
        assert max(coarse.values()) > 1e-8 > max(fine.values())

    def test_environment_cannot_change_a_solve(self, tmp_path, monkeypatch):
        """Every solve assembles K and f; no environment variable makes a
        solve read or write operators on disk."""
        monkeypatch.setenv("TTIGA_CACHE_DIR", str(tmp_path))
        calls = {"K": 0, "f": 0}

        def counted(name, fn):
            def run(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return run

        monkeypatch.setattr(driver, "assemble_stiffness",
                            counted("K", driver.assemble_stiffness))
        monkeypatch.setattr(driver, "assemble_load",
                            counted("f", driver.assemble_load))
        cfg = SolveConfig(geometry="unit_cube", degree=1, elements=2, source="one")
        first, second = (solve_poisson(cfg).metrics_dict() for _ in range(2))
        assert calls == {"K": 2, "f": 2}
        assert first == second
        assert list(tmp_path.iterdir()) == []

    def test_geometry_points_stay_within_probe_budget(self, monkeypatch):
        """The crosses fetch their fibers through GridEvaluator.along; only
        the holdout samples, the metric scale probe and the orientation
        probes of the geometry factory evaluate point by point."""
        from ttiga.geometry import GridEvaluator

        counts = {"points": 0, "lines": 0}
        at, along = GridEvaluator.at, GridEvaluator.along

        def count_points(self, idx):
            counts["points"] += len(idx)
            return at(self, idx)

        def count_lines(self, axis, fixed):
            counts["lines"] += len(fixed) * self.shape[axis]
            return along(self, axis, fixed)

        monkeypatch.setattr(GridEvaluator, "at", count_points)
        monkeypatch.setattr(GridEvaluator, "along", count_lines)
        cfg = SolveConfig(
            geometry="quarter_torus", degree=2, elements=4, source="sin_pi_xyz"
        )
        solve_poisson(cfg)
        # holdout samples of 6 metric crosses and the load cross
        holdout, probe, orientation = 7 * 1000, 512, 5
        assert holdout + probe <= counts["points"] <= holdout + probe + orientation
        assert counts["lines"] > 0

    def test_dirichlet_lift_evaluates_no_geometry(self, monkeypatch):
        """Grid lines are evaluated for the crosses' fibers only: the
        constant-data lift reads no face grid. Every cross entry beyond its
        1,000 holdout samples is a fiber entry."""
        from ttiga import assembly
        from ttiga.geometry import GridEvaluator

        line_points, n_evals = [], []
        along, cross = GridEvaluator.along, assembly.tt_cross

        def count_lines(self, axis, fixed):
            line_points.append(len(fixed) * self.shape[axis])
            return along(self, axis, fixed)

        def count_cross(*args, **kwargs):
            res = cross(*args, **kwargs)
            n_evals.append(res.n_evals)
            return res

        monkeypatch.setattr(GridEvaluator, "along", count_lines)
        monkeypatch.setattr(assembly, "tt_cross", count_cross)
        rep = solve_poisson(ring_cfg(8, analytic=None))
        assert rep.solver_converged
        assert len(n_evals) == 7  # six metric entries and the load
        assert sum(line_points) == sum(n_evals) - 7 * 1000

    @pytest.mark.parametrize(
        "cfg",
        [
            SolveConfig(geometry="quarter_torus", degree=2, elements=8,
                        source="sin_pi_xyz"),
            ring_cfg(8),
            LSHAPE_4,
        ],
        ids=["torus", "ring-lift", "lshape"],
    )
    def test_tt_path_forms_no_jacobian(self, monkeypatch, cfg):
        """Assembly and the error quadrature read det J, the points and the
        metric entries from the homogeneous sums: no Jacobian is formed
        while they run."""
        from ttiga.geometry import MapEval

        inside, ran, reads = [], set(), []
        jac = MapEval.jac

        def spy(m):
            reads.append(tuple(inside))
            return jac.fget(m)

        def enter(name, fn):
            def run(*args, **kwargs):
                ran.add(name)
                inside.append(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    inside.pop()
            return run

        monkeypatch.setattr(MapEval, "jac", property(spy))
        for name in ("assemble_stiffness", "assemble_load", "error_norms"):
            monkeypatch.setattr(driver, name, enter(name, getattr(driver, name)))
        rep = solve_poisson(cfg)
        expect = {"assemble_stiffness", "assemble_load"}
        assert ran == expect | ({"error_norms"} if cfg.analytic else set())
        assert rep.solver_converged and rep.residual <= cfg.eps_solve
        assert all(not stack for stack in reads)
        # the spy sees a Jacobian formed outside those layers
        make_geometry(cfg.geometry).eval_metric([0.3, 0.4, 0.5])
        assert reads and reads[-1] == ()

    def test_one_exact_residual_per_solve(self, monkeypatch):
        """AMEn forms the exact residual f - A u only to certify: on this
        solve the one certificate passes and its iterate is returned. A
        residual per half-sweep, as before, took 9 here (4 sweeps)."""
        from ttiga.tensor_train import amen

        calls = []
        residual_norm = amen._residual_norm

        def counting(*args):
            calls.append(1)
            return residual_norm(*args)

        monkeypatch.setattr(amen, "_residual_norm", counting)
        cfg = SolveConfig(
            geometry="quarter_torus", degree=2, elements=8, source="sin_pi_xyz"
        )
        rep = solve_poisson(cfg)
        assert rep.solver_converged and rep.residual <= cfg.eps_solve
        assert len(calls) == 1

    def test_middle_core_cg_iterations(self):
        # the frame preconditioner; identity-frame block Jacobi took 36
        cfg = SolveConfig(
            geometry="quarter_torus", degree=2, elements=16, source="sin_pi_xyz"
        )
        rep = solve_poisson(cfg)
        assert rep.solver_converged
        assert rep.cg_iters <= 18
        doc = json.loads(rep.to_json())
        assert doc["cg_iters"] == rep.metrics_dict()["cg_iters"] == rep.cg_iters

    def test_hyperboloid_cg_iterations(self):
        """A timing-free guard on the middle-core solve where it costs the
        most: the hyperboloid's 12 right slices leave its preconditioner
        inexact, and its CG count grows with n (76 here)."""
        cfg = SolveConfig(
            geometry="hyperboloid", degree=2, elements=128, source="sin_pi_xyz"
        )
        rep = solve_poisson(cfg)
        assert rep.solver_converged and rep.residual <= cfg.eps_solve
        assert rep.cg_iters <= 80

    def test_cross_evaluation_counts(self):
        # each cross stops at its first passing half-sweep, and a backward
        # half reuses the forward half's last fiber matrix; crosses that
        # always finished their sweep evaluated 18,144 and 38,200 points
        cfg = SolveConfig(
            geometry="quarter_torus", degree=2, elements=16, source="sin_pi_xyz"
        )
        rep = solve_poisson(cfg)
        assert rep.cross_converged
        assert rep.cross_evals == {"K": 14_112, "f": 25_144}
        doc = json.loads(rep.to_json())
        assert doc["cross_evals"] == rep.metrics_dict()["cross_evals"] == rep.cross_evals

    def test_ring_lift_one_sweep(self):
        # both middle-core interfaces carry two slices: the preconditioner
        # is exact, and identity-frame block Jacobi took 2 sweeps
        rep = solve_poisson(ring_cfg(16))
        assert rep.solver_converged and rep.sweeps == 1

    def test_invalid_configs(self):
        with pytest.raises(DriverError):
            SolveConfig(geometry="ring", eps_solve=0.0)
        with pytest.raises(DriverError):
            SolveConfig(geometry="ring", elements=0)
        with pytest.raises(DriverError):
            SolveConfig(geometry="ring", source="nope")

    @pytest.mark.parametrize("solver", [{"initial": None}, {"max_rank": None}])
    def test_removed_solver_options_rejected(self, solver):
        # AMEn takes no options, so a config has no solver field to set
        with pytest.raises(TypeError, match="solver"):
            SolveConfig(geometry="ring", solver=solver)

    @pytest.mark.parametrize(
        "geometry,source,analytic",
        [("lshape", "zero", "ring_radial"), ("ring", "zero", "lshape_exact"),
         ("lshape", "zero", "lshape_exact"), ("quarter_torus", "sin_pi_xyz", "cube_sines")],
    )
    def test_analytic_of_another_problem_rejected(self, geometry, source, analytic):
        """Each of these solved and reported a meaningless error."""
        bc = RING_BC if analytic == "ring_radial" else None
        with pytest.raises(DriverError, match=f"analytic solution '{analytic}' solves"):
            SolveConfig(geometry=geometry, degree=1, elements=2, source=source,
                        analytic=analytic, bc=bc)

    @pytest.mark.parametrize(
        "bc",
        [BoundarySpec({(1, 0): FaceCondition("dirichlet", 1.0)}),
         BoundarySpec.all_dirichlet(0.0), None],
        ids=["one-face", "zero-data", "default"],
    )
    def test_ring_radial_without_its_dirichlet_data_rejected(self, monkeypatch, bc):
        """The radial harmonic reads both radial faces' values: a config
        without one, or with zero data (the default), fails before any
        assembly."""
        def assemble(*args, **kwargs):
            raise AssertionError("assembled")

        monkeypatch.setattr(driver, "assemble_stiffness", assemble)
        with pytest.raises(DriverError, match=r"Dirichlet data of faces \[\(1, 0\), \(1, 1\)\]"):
            solve_poisson(replace(ring_cfg(4), bc=bc))


class TestL2Error:
    def test_self_error_is_zero(self):
        # on the unit cube physical and parametric points coincide, so the
        # spline field itself can act as the analytic reference
        patch, _, disc = discretize(cube_cfg(2, 4))
        rng = np.random.default_rng(5)
        u = TtTensor.random(disc.mode_sizes, (2, 2), rng)

        def field_fn(pts):
            return np.array([evaluate_field(disc, u, p) for p in pts])

        assert l2_error(u, field_fn, patch, disc) <= 1e-12

    def test_doubling_gives_unit_error(self):
        patch, _, disc = discretize(cube_cfg(2, 4))
        rng = np.random.default_rng(6)
        u = TtTensor.random(disc.mode_sizes, (2, 2), rng)

        def field_fn(pts):
            return np.array([evaluate_field(disc, u, p) for p in pts])

        from ttiga.tensor_train import tt_scale

        err = l2_error(tt_scale(u, 2.0), field_fn, patch, disc)
        assert abs(err - 1.0) <= 1e-12
        l1, l2 = error_norms(tt_scale(u, 2.0), field_fn, patch, disc)
        assert l1 == err and abs(l2 - 1.0) <= 1e-12

    @pytest.mark.parametrize(
        "cfg",
        [ring_cfg(4), LSHAPE_4],
        ids=["ring", "lshape"],
    )
    def test_matches_point_path_slabs(self, cfg):
        from ttiga.geometry import GridEvaluator
        from ttiga.splines import tabulate

        rep = solve_poisson(cfg)
        patch, cfg, disc = discretize(cfg)
        exact = driver.ANALYTIC[cfg.analytic](cfg, patch)
        # reference: every (i1, i2) point of each i3 slab through jacobians
        ev = GridEvaluator(patch, disc.quad_axes())
        nq = disc.quad_shape
        B = [tabulate(disc.solution_bases[d], disc.tables[d].points)[0] for d in range(3)]
        u = np.einsum(
            "ai,bj,ck,ijk->abc", B[0], B[1], B[2], rep.u.full(), optimize=True
        )
        i1, i2 = np.meshgrid(np.arange(nq[0]), np.arange(nq[1]), indexing="ij")
        num = den = 0.0
        for i3 in range(nq[2]):
            idx = np.stack([i1.ravel(), i2.ravel(), np.full(i1.size, i3)], axis=1)
            jac, pts = ev.jacobians(idx)
            w = (
                np.outer(disc.tables[0].weights, disc.tables[1].weights).ravel()
                * disc.tables[2].weights[i3]
                * np.linalg.det(jac)
            )
            ue = exact(pts)
            num += np.sum(w * np.abs(u[:, :, i3].ravel() - ue))
            den += np.sum(w * np.abs(ue))
        assert abs(rep.l2_error - num / den) <= 1e-12 * (num / den)

    def test_rel_l2_matches_point_path_slabs(self):
        from ttiga.geometry import GridEvaluator
        from ttiga.splines import tabulate

        rep = solve_poisson(ring_cfg(4))
        patch, cfg, disc = discretize(ring_cfg(4))
        exact = driver.ANALYTIC[cfg.analytic](cfg, patch)
        ev = GridEvaluator(patch, disc.quad_axes())
        nq = disc.quad_shape
        B = [tabulate(disc.solution_bases[d], disc.tables[d].points)[0] for d in range(3)]
        u = np.einsum(
            "ai,bj,ck,ijk->abc", B[0], B[1], B[2], rep.u.full(), optimize=True
        )
        grid = np.indices(nq).reshape(3, -1).T
        jac, pts = ev.jacobians(grid)
        w = np.einsum(
            "a,b,c->abc", *(disc.tables[d].weights for d in range(3))
        ).ravel() * np.linalg.det(jac)
        ue = exact(pts)
        ref = np.sqrt(np.sum(w * (u.ravel() - ue) ** 2) / np.sum(w * ue**2))
        assert abs(rep.rel_l2_error - ref) <= 1e-9 * ref
        assert json.loads(rep.to_json())["rel_l2_error"] == rep.rel_l2_error
        # a different quantity from the relative L1 error kept as l2_error
        assert abs(rep.rel_l2_error - rep.l2_error) > 0.01 * rep.l2_error

    def test_zero_reference_rejected(self):
        patch, _, disc = discretize(cube_cfg(1, 2))
        u = TtTensor.ones(disc.mode_sizes)
        with pytest.raises(DriverError):
            l2_error(u, lambda pts: np.zeros(pts.shape[0]), patch, disc)

    @pytest.mark.parametrize("cfg", [ring_cfg(4), LSHAPE_4], ids=["ring", "lshape"])
    def test_each_point_evaluated_once_in_blocks(self, monkeypatch, cfg):
        """One kernel call per block of whole i3 slabs, on grid lines only,
        every quadrature point exactly once, and every block's sums in one
        workspace."""
        from ttiga.geometry import GridEvaluator

        patch, cfg, disc = discretize(cfg)
        calls, buffers = [], []
        sums = GridEvaluator._sums

        def count(self, axis, fixed, pointwise, out=None):
            calls.append((axis, pointwise, np.array(fixed)))
            buffers.append(out)
            return sums(self, axis, fixed, pointwise, out)

        monkeypatch.setattr(GridEvaluator, "_sums", count)
        u = TtTensor.random(disc.mode_sizes, (2, 2), np.random.default_rng(7))
        error_norms(u, driver.ANALYTIC[cfg.analytic](cfg, patch), patch, disc)
        n1, n2, n3 = disc.quad_shape
        per_block = max(1, driver._BLOCK // (n1 * n2))
        assert len(calls) == -(-n3 // per_block)
        assert all(axis == 0 and not pointwise for axis, pointwise, _ in calls)
        lines = np.concatenate([fixed[:, 1:] for *_, fixed in calls])
        assert len(lines) == len({tuple(row) for row in lines}) == n2 * n3
        assert buffers[0] is not None and all(b is buffers[0] for b in buffers)

    @pytest.mark.parametrize("slabs", [1, 5, "all"])
    @pytest.mark.parametrize("cfg", [ring_cfg(4), LSHAPE_4], ids=["ring", "lshape"])
    def test_block_size_does_not_change_errors(self, monkeypatch, cfg, slabs):
        rep = solve_poisson(cfg)
        patch, cfg, disc = discretize(cfg)
        exact = driver.ANALYTIC[cfg.analytic](cfg, patch)
        ref = np.array(error_norms(rep.u, exact, patch, disc))
        n1, n2, n3 = disc.quad_shape
        assert n3 % 5 != 0  # 5 slabs leave a short last block
        monkeypatch.setattr(driver, "_BLOCK", n1 * n2 * (n3 if slabs == "all" else slabs))
        got = np.array(error_norms(rep.u, exact, patch, disc))
        assert np.all(np.abs(got - ref) <= 1e-14 * ref)


class TestFullGridReference:
    def test_single_element_matches_trilinear(self):
        cfg = SolveConfig(
            geometry="unit_cube",
            degree=1,
            elements=1,
            source="one",
            seed=0,
            bc=BoundarySpec({(0, 0): FaceCondition("dirichlet", 0.0)}),
        )
        ref = full_grid_reference(cfg)
        dense = ref.K.toarray()
        nodes = [(i, j, k) for i in range(2) for j in range(2) for k in range(2)]
        pattern = {0: 1 / 3, 1: 0.0, 2: -1 / 12, 3: -1 / 12}
        for a, na in enumerate(nodes):
            for b, nb in enumerate(nodes):
                h = sum(x != y for x, y in zip(na, nb))
                assert abs(dense[a, b] - pattern[h]) < 1e-12

    def test_tt_solution_matches_reference(self):
        cfg = ring_cfg(4)
        rep = solve_poisson(cfg)
        ref = full_grid_reference(ring_cfg(4))
        diff = np.linalg.norm(rep.u.full().ravel() - ref.u) / np.linalg.norm(ref.u)
        assert diff <= 10 * cfg.eps_solve

    def test_reference_l2_close_to_tt_l2(self):
        rep = solve_poisson(ring_cfg(8))
        ref = full_grid_reference(ring_cfg(8))
        assert ref.l2_error == pytest.approx(rep.l2_error, rel=0.01)

    @pytest.mark.parametrize("name,degree", [("ring", 1), ("lshape", 1)])
    def test_degree_one_oracle_equivalence(self, name, degree):
        cfg = SolveConfig(
            geometry=name, degree=degree, elements=4, source="sin_pi_xyz", seed=0
        )
        rep = solve_poisson(cfg)
        ref = full_grid_reference(
            SolveConfig(
                geometry=name, degree=degree, elements=4, source="sin_pi_xyz", seed=0
            )
        )
        diff = np.linalg.norm(rep.u.full().ravel() - ref.u) / np.linalg.norm(ref.u)
        assert diff <= 10 * cfg.eps_solve

    def test_guard_refuses_large(self):
        cfg = SolveConfig(geometry="unit_cube", degree=1, elements=128, seed=0)
        with pytest.raises(OracleRefusedError):
            full_grid_reference(cfg)

    def test_tt_path_leaves_scipy_sparse_unloaded(self):
        """Only the oracle uses scipy.sparse: importing ttiga and solving in
        TT format never loads it, and the oracle still runs after."""
        code = "\n".join([
            "import sys",
            "import ttiga",
            "from ttiga import driver",
            "cfg = driver.SolveConfig(geometry='quarter_torus', degree=2,",
            "                         elements=8, source='sin_pi_xyz')",
            "rep = driver.solve_poisson(cfg)",
            "assert rep.solver_converged",
            "loaded = [m for m in sys.modules if m.startswith('scipy.sparse')]",
            "assert not loaded, loaded",
            "assert driver.full_grid_reference(cfg).u.size == rep.dofs",
            "assert 'scipy.sparse' in sys.modules",
        ])
        src = str(Path(driver.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr


class TestMetrics:
    def test_compression_ratio_rank_one(self):
        t = TtTensor.ones((8, 8, 8))
        assert compression_ratio(t) == pytest.approx(8**2 / 3)

    def test_compression_ratio_operator_counts(self):
        A = TtMatrix.identity((8, 8, 8))
        assert compression_ratio(A) == pytest.approx(8**6 / A.n_params)

    def test_fit_slope_exact_power(self):
        ns = np.array([4, 8, 16, 32], dtype=float)
        errs = 3.0 / ns**2
        assert fit_slope(ns, errs) == pytest.approx(2.0, abs=1e-12)
