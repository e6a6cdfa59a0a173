"""Acceptance suite: the six exit criteria, one test each.

Each test prints a ``[PASS]``/``[FAIL]`` line with the measured numbers
(visible with ``pytest -s`` or in the captured-output summary). Tolerances
are fixed here and nowhere else.
"""

import resource

import numpy as np
import pytest

from ttiga.assembly import (
    BoundarySpec,
    FaceCondition,
    apply_dirichlet,
    assemble_load,
    assemble_stiffness,
    build_quadrature,
)
from ttiga.driver import (
    SOURCES,
    OracleRefusedError,
    SolveConfig,
    discretize,
    evaluate_field,
    fit_slope,
    full_grid_reference,
    solve_poisson,
)
from ttiga.geometry import GEOMETRY_NAMES, make_geometry
from ttiga.splines import Basis1D, KnotVector, eval_basis
from ttiga.tensor_train import (
    CrossOracle,
    TtMatrix,
    TtTensor,
    amen_solve,
    tt_add,
    tt_cross,
    tt_from_full,
    tt_matvec,
    tt_norm,
    tt_round,
    tt_scale,
    tt_sub,
)

RING_BC = BoundarySpec(
    {
        (1, 0): FaceCondition("dirichlet", 1.0),
        (1, 1): FaceCondition("dirichlet", 2.0),
    }
)

SIX_GEOMETRIES = [g for g in GEOMETRY_NAMES if g != "unit_cube"]


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def test_criterion_1_lshape_convergence_order():
    """L-shape, p=1, f = sin(pi x) sin(pi y): slope of the error ladder."""
    errors, elements = [], []
    for e in (4, 8, 16, 32):
        cfg = SolveConfig(
            geometry="lshape",
            degree=1,
            elements=e,
            source="sin_pi_xy",
            analytic="lshape_exact",
            seed=0,
        )
        rep = solve_poisson(cfg)
        assert rep.solver_converged
        errors.append(rep.l2_error)
        elements.append(e)
    slope = fit_slope(elements, errors)
    ok = 1.8 <= slope <= 2.2
    _verdict(
        "criterion 1 (L-shape p=1 convergence)",
        ok,
        f"slope={slope:.3f} over meshes {elements}, errors={[f'{x:.3e}' for x in errors]}",
    )
    assert ok


def test_criterion_2_ring_convergence_and_midpoint():
    """Ring, p=2, Laplace with u_in=1, u_out=2: slope and mid-radius value."""
    errors, elements = [], []
    rep = None
    for e in (4, 8, 16):
        cfg = SolveConfig(
            geometry="ring",
            degree=2,
            elements=e,
            source="zero",
            analytic="ring_radial",
            bc=RING_BC,
            seed=0,
        )
        rep = solve_poisson(cfg)
        assert rep.solver_converged
        errors.append(rep.l2_error)
        elements.append(e)
    slope = fit_slope(elements, errors)

    _, _, disc = discretize(cfg)
    mid = evaluate_field(disc, rep.u, [0.3, 0.5, 0.5])
    exact = (np.log(4.0 / 3.0) + 2.0 * np.log(1.5)) / np.log(2.0)
    ok_slope = 2.7 <= slope <= 3.3
    ok_mid = abs(mid - exact) <= 1e-3
    _verdict(
        "criterion 2 (ring p=2 convergence)",
        ok_slope and ok_mid,
        f"slope={slope:.3f}, u(r=0.75)={mid:.6f} vs {exact:.6f} "
        f"(diff {abs(mid - exact):.2e})",
    )
    assert ok_slope and ok_mid


@pytest.mark.parametrize("name", SIX_GEOMETRIES)
def test_criterion_3_oracle_equivalence(name):
    """TT assembly and solve match the classical full-grid pipeline."""
    cfg = SolveConfig(
        geometry=name,
        degree=2,
        elements=4,
        source="sin_pi_xyz",
        eps_cross=1e-10,
        eps_round=1e-10,
        eps_solve=1e-8,
        seed=0,
    )
    rep = solve_poisson(cfg)
    ref = full_grid_reference(
        SolveConfig(
            geometry=name,
            degree=2,
            elements=4,
            source="sin_pi_xyz",
            eps_cross=1e-10,
            eps_round=1e-10,
            eps_solve=1e-8,
            seed=0,
        )
    )

    patch, _, disc = discretize(cfg)
    rng = np.random.default_rng(123)
    K, _ = assemble_stiffness(patch, disc, 1e-10, 1e-10, rng=rng)
    f, _ = assemble_load(patch, disc, SOURCES["sin_pi_xyz"], 1e-10, rng=rng)

    K_ref = ref.K.toarray()
    err_K = np.linalg.norm(K.full() - K_ref) / np.linalg.norm(K_ref)
    err_f = np.linalg.norm(f.full().ravel() - ref.f) / np.linalg.norm(ref.f)
    err_u = np.linalg.norm(rep.u.full().ravel() - ref.u) / np.linalg.norm(ref.u)
    ok = err_K <= 1e-7 and err_f <= 1e-7 and err_u <= 1e-6
    _verdict(
        f"criterion 3 (oracle equivalence, {name})",
        ok,
        f"K {err_K:.2e} (<=1e-7), f {err_f:.2e} (<=1e-7), u {err_u:.2e} (<=1e-6)",
    )
    assert ok


def test_criterion_4_ring_compression_trend():
    """Compression ratios of K and u grow strictly under refinement."""
    cr_K, cr_u = [], []
    for e in (16, 32, 64):
        cfg = SolveConfig(
            geometry="ring",
            degree=2,
            elements=e,
            source="zero",
            bc=RING_BC,
            seed=0,
        )
        rep = solve_poisson(cfg)
        assert rep.solver_converged
        cr_K.append(rep.compression_K)
        cr_u.append(rep.compression_u)
    ok = all(b > a for a, b in zip(cr_K, cr_K[1:])) and all(
        b > a for a, b in zip(cr_u, cr_u[1:])
    )
    _verdict(
        "criterion 4 (ring compression trend)",
        ok,
        f"cr_K={[f'{x:.3g}' for x in cr_K]}, cr_u={[f'{x:.3g}' for x in cr_u]}",
    )
    assert ok


def test_criterion_5_scaling_trend():
    """A multi-million-dof TT solve completes in bounded memory while the
    full-grid oracle refuses the same problem."""
    cfg = SolveConfig(
        geometry="ring",
        degree=2,
        elements=160,
        source="zero",
        bc=RING_BC,
        seed=0,
    )
    rep = solve_poisson(cfg)
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e6
    refused = False
    try:
        full_grid_reference(
            SolveConfig(
                geometry="ring",
                degree=2,
                elements=160,
                source="zero",
                bc=RING_BC,
                seed=0,
            )
        )
    except OracleRefusedError:
        refused = True
    ok = (
        rep.dofs >= 4_000_000
        and rep.solver_converged
        and peak_gb <= 4.0
        and refused
    )
    _verdict(
        "criterion 5 (scaling trend)",
        ok,
        f"dofs={rep.dofs}, residual={rep.residual:.2e}, peak={peak_gb:.2f} GB, "
        f"oracle refused={refused}",
    )
    assert ok


class TestCriterion6PropertySuites:
    """Fast property bundle; every sub-check prints its own verdict."""

    def test_partition_of_unity_and_derivative_sum(self):
        rng = np.random.default_rng(0)
        worst_v, worst_d = 0.0, 0.0
        for _ in range(2000):
            p = int(rng.integers(1, 5))
            kv = KnotVector.open_uniform(p, int(rng.integers(1, 7)))
            w = rng.uniform(0.2, 3.0, kv.n_basis) if rng.random() < 0.5 else None
            ev = eval_basis(Basis1D(kv, w), float(rng.uniform(0, 1)))
            worst_v = max(worst_v, abs(ev.values.sum() - 1.0))
            worst_d = max(worst_d, abs(ev.derivs.sum()))
        ok = worst_v < 1e-12 and worst_d < 1e-9
        _verdict(
            "criterion 6a (partition of unity)",
            ok,
            f"max |sum(N)-1|={worst_v:.2e}, max |sum(N')|={worst_d:.2e}",
        )
        assert ok

    def test_jacobian_finite_differences(self):
        rng = np.random.default_rng(1)
        h = 1e-6
        worst = 0.0
        for name in GEOMETRY_NAMES:
            patch = make_geometry(name)
            for xi in rng.uniform(2 * h, 1 - 2 * h, (30, 3)):
                jac = patch.eval_metric(xi).jacobian
                fd = np.empty((3, 3))
                for d in range(3):
                    lo, hi = xi.copy(), xi.copy()
                    lo[d] -= h
                    hi[d] += h
                    fd[:, d] = (patch.eval_point(hi) - patch.eval_point(lo)) / (2 * h)
                worst = max(worst, np.abs(jac - fd).max() / max(np.abs(jac).max(), 1))
        ok = worst <= 1e-6
        _verdict("criterion 6b (analytic vs FD Jacobians)", ok, f"worst={worst:.2e}")
        assert ok

    def test_tt_arithmetic_densification_oracle(self):
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(20):
            shape = tuple(rng.integers(3, 9, 3))
            a = TtTensor.random(shape, rng.integers(1, 4, 2), rng)
            b = TtTensor.random(shape, rng.integers(1, 4, 2), rng)
            scale = max(tt_norm(a), tt_norm(b))
            worst = max(
                worst,
                np.abs(tt_add(a, b).full() - (a.full() + b.full())).max() / scale,
                np.abs(tt_scale(a, 3.25).full() - 3.25 * a.full()).max() / scale,
            )
            A = TtMatrix.identity(shape)
            worst = max(
                worst, np.abs(tt_matvec(A, a).full() - a.full()).max() / scale
            )
        ok = worst <= 1e-12
        _verdict("criterion 6c (densification oracle)", ok, f"worst={worst:.2e}")
        assert ok

    def test_round_error_bound(self):
        rng = np.random.default_rng(3)
        ok = True
        detail = []
        for eps in (1e-2, 1e-6, 1e-10):
            X = rng.standard_normal((8, 8, 8))
            err = np.linalg.norm(tt_round(tt_from_full(X), eps).full() - X)
            ok = ok and err <= eps * np.linalg.norm(X) + 1e-15
            detail.append(f"eps={eps:g}: {err / np.linalg.norm(X):.2e}")
        _verdict("criterion 6d (tt_round bound)", ok, ", ".join(detail))
        assert ok

    def test_cross_rank_one_exactness(self):
        def f(idx):
            return np.exp(-0.3 * idx[:, 0]) * (idx[:, 1] + 1.0) * np.cos(idx[:, 2])

        res = tt_cross(
            CrossOracle(f, (16, 16, 16)), 1e-10, rng=np.random.default_rng(4)
        )
        grid = np.indices((16, 16, 16)).reshape(3, -1).T
        ref = f(grid).reshape(16, 16, 16)
        err = np.abs(res.tensor.full() - ref).max() / np.abs(ref).max()
        ok = res.ranks == (1, 1, 1, 1) and err < 1e-13
        _verdict(
            "criterion 6e (cross separable exactness)",
            ok,
            f"ranks={res.ranks}, err={err:.2e}",
        )
        assert ok

    def test_trilinear_element_stiffness(self):
        cube = make_geometry("unit_cube")
        basis = Basis1D(KnotVector.open_uniform(1, 1), None)
        disc = build_quadrature((basis, basis, basis))
        K, _ = assemble_stiffness(
            cube, disc, 1e-12, 1e-12, rng=np.random.default_rng(5)
        )
        dense = K.full()
        nodes = [(i, j, k) for i in range(2) for j in range(2) for k in range(2)]
        pattern = {0: 1 / 3, 1: 0.0, 2: -1 / 12, 3: -1 / 12}
        worst = max(
            abs(dense[a, b] - pattern[sum(x != y for x, y in zip(na, nb))])
            for a, na in enumerate(nodes)
            for b, nb in enumerate(nodes)
        )
        ok = worst < 1e-12
        _verdict("criterion 6f (trilinear element)", ok, f"worst={worst:.2e}")
        assert ok

    def test_stiffness_structure_small_mesh(self):
        patch, _, disc = discretize(
            SolveConfig(geometry="ring", degree=2, elements=4)
        )
        rng = np.random.default_rng(6)
        K, _ = assemble_stiffness(patch, disc, 1e-11, 1e-11, rng=rng)
        f, _ = assemble_load(patch, disc, SOURCES["one"], 1e-11, rng=rng)
        dense = K.full()
        sym = np.linalg.norm(dense - dense.T) / np.linalg.norm(dense)
        row = np.abs(dense.sum(axis=1)).max() / np.abs(dense).max()
        system = apply_dirichlet(K, f, RING_BC, disc)
        lam_min = float(np.linalg.eigvalsh(system.K.full()).min())
        ok = sym <= 1e-10 and row <= 1e-10 and lam_min > 0
        _verdict(
            "criterion 6g (K symmetry/kernel/PD)",
            ok,
            f"asym={sym:.2e}, rowsum={row:.2e}, lambda_min={lam_min:.3e}",
        )
        assert ok

    def test_amen_residual_certificate(self):
        rng = np.random.default_rng(7)
        n = 10
        L = (2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) * (n + 1) ** 2
        Id = np.eye(n)
        A = tt_round(
            tt_add(
                tt_add(
                    TtMatrix.rank_one([L, Id, Id]), TtMatrix.rank_one([Id, L, Id])
                ),
                TtMatrix.rank_one([Id, Id, L]),
            ),
            1e-14,
        )
        f = tt_round(TtTensor.random((n, n, n), (2, 2), rng), 1e-14)
        eps = 1e-8
        res = amen_solve(A, f, eps)
        recomputed = tt_norm(tt_sub(f, tt_matvec(A, res.solution))) / tt_norm(f)
        ok = (
            res.converged
            and res.residual <= eps
            and abs(recomputed - res.residual) <= 1e-12
        )
        _verdict(
            "criterion 6h (amen residual certificate)",
            ok,
            f"residual={res.residual:.2e} (<= {eps:g}), "
            f"recomputed drift={abs(recomputed - res.residual):.2e}",
        )
        assert ok
