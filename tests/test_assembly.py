import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttiga import assembly
from ttiga.assembly import (
    AssemblyError,
    BoundarySpec,
    FaceCondition,
    _contract_matrix_core,
    apply_dirichlet,
    assemble_load,
    assemble_stiffness,
    build_quadrature,
    metric_oracle,
)
from ttiga.geometry import GridEvaluator, make_geometry
from ttiga.splines import Basis1D, KnotVector
from ttiga.tensor_train import (
    TtMatrix,
    TtTensor,
    tt_cross,
    tt_matvec,
    tt_norm,
)
from ttiga.driver import SolveConfig, discretize

from test_geometry import scaling_patch
from test_tensor_train import band_outside


def cube_disc(elements=1, degree=1):
    basis = Basis1D(KnotVector.open_uniform(degree, elements), None)
    return build_quadrature((basis, basis, basis))


def disc_for(name, degree, elements):
    patch, _, disc = discretize(
        SolveConfig(geometry=name, degree=degree, elements=elements)
    )
    return patch, disc


def metric_cross(patch, disc, i, j, eps, rng):
    ev = GridEvaluator(patch, disc.quad_axes())
    return tt_cross(metric_oracle(ev, i, j), eps, rng=rng)


TRILINEAR_PATTERN = {0: 1.0 / 3.0, 1: 0.0, 2: -1.0 / 12.0, 3: -1.0 / 12.0}


class TestQuadrature:
    def test_two_point_gauss_single_span(self):
        disc = cube_disc()
        t = disc.tables[0]
        third = 1.0 / (2.0 * np.sqrt(3.0))
        assert np.allclose(sorted(t.points), [0.5 - third, 0.5 + third])
        assert np.allclose(t.weights, [0.5, 0.5])

    def test_cubic_exactness(self):
        basis = Basis1D(KnotVector.open_uniform(2, 1), None)
        disc = build_quadrature((basis, basis, basis))
        t = disc.tables[0]
        assert abs(np.sum(t.weights * t.points**3) - 0.25) <= 1e-15

    def test_two_span_weights_sum(self):
        disc = cube_disc(elements=2)
        assert abs(disc.tables[0].weights.sum() - 1.0) <= 1e-15

    def test_rational_solution_basis_rejected(self):
        kv = KnotVector.open_uniform(2, 1)
        rational = Basis1D(kv, np.array([1.0, 0.5, 1.0]))
        with pytest.raises(AssemblyError):
            build_quadrature((rational, rational, rational))


class TestMetricCross:
    def test_unit_cube_is_kronecker_delta(self):
        cube = make_geometry("unit_cube")
        disc = cube_disc()
        rng = np.random.default_rng(0)
        for i in range(3):
            for j in range(3):
                res = metric_cross(cube, disc, i, j, 1e-10, rng)
                expected = 1.0 if i == j else 0.0
                assert np.abs(res.tensor.full() - expected).max() < 1e-12
                if i == j:
                    assert res.ranks == (1, 1, 1, 1)

    def test_uniform_scaling_doubles(self):
        patch = scaling_patch(2.0)
        disc = cube_disc()
        rng = np.random.default_rng(1)
        for i in range(3):
            res = metric_cross(patch, disc, i, i, 1e-10, rng)
            assert np.abs(res.tensor.full() - 2.0).max() < 1e-10

    @pytest.mark.parametrize("name", ["ring", "lshape"])
    def test_off_diagonal_symmetry(self, name):
        patch, disc = disc_for(name, 2, 4)
        r12 = metric_cross(patch, disc, 0, 1, 1e-10, np.random.default_rng(2))
        r21 = metric_cross(patch, disc, 1, 0, 1e-10, np.random.default_rng(3))
        a, b = r12.tensor.full(), r21.tensor.full()
        scale = max(np.abs(a).max(), np.abs(b).max(), 1e-30)
        assert np.abs(a - b).max() <= 1e-8 * max(scale, 1.0)

    def test_unit_cube_det_is_rank_one_constant(self):
        from ttiga.assembly import load_oracle

        cube = make_geometry("unit_cube")
        disc = cube_disc(elements=2)
        ev = GridEvaluator(cube, disc.quad_axes())
        oracle = load_oracle(ev, lambda p: np.ones(p.shape[0]))  # source 1 => det J
        res = tt_cross(oracle, 1e-10, rng=np.random.default_rng(99))
        assert res.ranks == (1, 1, 1, 1)
        assert np.abs(res.tensor.full() - 1.0).max() < 1e-12


class TestStiffness:
    def test_trilinear_element_matrix(self):
        cube = make_geometry("unit_cube")
        K, info = assemble_stiffness(
            cube, cube_disc(), 1e-12, 1e-12, rng=np.random.default_rng(4)
        )
        dense = K.full()
        nodes = [(i, j, k) for i in range(2) for j in range(2) for k in range(2)]
        for a, na in enumerate(nodes):
            for b, nb in enumerate(nodes):
                h = sum(x != y for x, y in zip(na, nb))
                assert abs(dense[a, b] - TRILINEAR_PATTERN[h]) < 1e-12

    def test_unit_cube_ranks_small(self):
        cube = make_geometry("unit_cube")
        K, _ = assemble_stiffness(
            cube, cube_disc(elements=3), 1e-12, 1e-12, rng=np.random.default_rng(5)
        )
        assert all(r <= 4 for r in K.ranks)

    @pytest.mark.parametrize("name,degree", [("lshape", 1), ("ring", 2)])
    def test_row_sums_vanish(self, name, degree):
        patch, disc = disc_for(name, degree, 4)
        K, _ = assemble_stiffness(
            patch, disc, 1e-11, 1e-11, rng=np.random.default_rng(6)
        )
        dense = K.full()
        scale = np.abs(dense).max()
        assert np.abs(dense.sum(axis=1)).max() <= 1e-10 * max(scale, 1.0)

    @pytest.mark.parametrize("name,degree", [("lshape", 1), ("ring", 2)])
    def test_symmetry_corewise_transpose(self, name, degree):
        patch, disc = disc_for(name, degree, 4)
        K, _ = assemble_stiffness(
            patch, disc, 1e-11, 1e-11, rng=np.random.default_rng(7)
        )
        dense = K.full()
        rel = np.linalg.norm(dense - dense.T) / np.linalg.norm(dense)
        assert rel <= 1e-10

    def test_constants_in_kernel(self):
        patch, disc = disc_for("ring", 2, 4)
        K, _ = assemble_stiffness(
            patch, disc, 1e-11, 1e-11, rng=np.random.default_rng(8)
        )
        from ttiga.tensor_train import TtTensor

        ones = TtTensor.ones(disc.mode_sizes)
        knorm = np.linalg.norm(K.full())
        assert tt_norm(tt_matvec(K, ones)) <= 1e-9 * knorm

    def test_reduced_system_positive_definite(self):
        patch, disc = disc_for("lshape", 1, 4)
        K, _ = assemble_stiffness(
            patch, disc, 1e-11, 1e-11, rng=np.random.default_rng(9)
        )
        f, _ = assemble_load(
            patch, disc, lambda p: np.ones(p.shape[0]), 1e-11,
            rng=np.random.default_rng(10),
        )
        bc = BoundarySpec.all_dirichlet(0.0)
        system = apply_dirichlet(K, f, bc, disc)
        eigs = np.linalg.eigvalsh(system.K.full())
        assert eigs.min() > 0

    @pytest.mark.parametrize(
        "name,degree,elements",
        [("quarter_torus", 2, 4), ("hyperboloid", 2, 8), ("lshape", 1, 8)],
    )
    def test_cores_exactly_banded(self, name, degree, elements):
        """K and its Dirichlet restriction are band cores of width 2p + 1
        whose outermost diagonals are used and whose slots outside the
        matrix are exactly zero, whatever rounding or slicing left there."""
        patch, disc = disc_for(name, degree, elements)
        K, _ = assemble_stiffness(
            patch, disc, 1e-10, 1e-10, rng=np.random.default_rng(25)
        )
        sizes = disc.mode_sizes
        system = apply_dirichlet(
            K, TtTensor.ones(sizes), BoundarySpec.all_dirichlet(0.0), disc
        )
        for op in (K, system.K):
            for G, basis in zip(op.cores, disc.solution_bases):
                p = basis.degree
                assert G.shape[2] == 2 * p + 1
                assert G[:, :, 0].any() and G[:, :, -1].any()
                assert np.all(G[:, band_outside(G)] == 0.0)

    def test_six_crosses(self, monkeypatch):
        """R is symmetric: R_ij and R_ji share one cross."""
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return tt_cross(*args, **kwargs)

        monkeypatch.setattr(assembly, "tt_cross", counting)
        patch, disc = disc_for("quarter_torus", 2, 4)
        _, info = assemble_stiffness(
            patch, disc, 1e-10, 1e-10, rng=np.random.default_rng(26)
        )
        assert len(calls) == 6
        assert list(info["cross_errors"]) == ["R11", "R12", "R13", "R22", "R23", "R33"]


@settings(max_examples=30, deadline=None)
@given(
    degree=st.integers(1, 3),
    breaks=st.lists(st.floats(0.01, 0.99), max_size=5, unique=True),
    ranks=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    derivs=st.tuples(st.booleans(), st.booleans()),
    seed=st.integers(0, 2**16),
)
def test_band_core_matches_dense_scatter(degree, breaks, ranks, derivs, seed):
    """Each rank slice of the band core, as a TtMatrix, densifies to the
    dense scatter of the same quadrature contributions into the (n, n)
    window pairs."""
    knots = np.r_[[0.0] * (degree + 1), sorted(breaks), [1.0] * (degree + 1)]
    basis = Basis1D(KnotVector(knots, degree), None)
    tab = build_quadrature((basis,) * 3).tables[0]
    rng = np.random.default_rng(seed)
    core = rng.standard_normal((ranks[0], tab.points.size, ranks[1]))
    X = tab.ders if derivs[0] else tab.vals
    Y = tab.ders if derivs[1] else tab.vals
    n, p1 = basis.n_basis, degree + 1
    dense = np.zeros((ranks[0], n, n, ranks[1]))
    for q, start in enumerate(tab.starts):
        for a in range(p1):
            for b in range(p1):
                dense[:, start + a, start + b] += (
                    tab.weights[q] * X[q, a] * Y[q, b] * core[:, q, :]
                )
    band = _contract_matrix_core(core, tab, *derivs)
    for a in range(ranks[0]):
        for b in range(ranks[1]):
            got = TtMatrix([band[a: a + 1, :, :, b: b + 1]]).full()
            assert np.allclose(
                got, dense[a, :, :, b], rtol=1e-13, atol=1e-14 * np.abs(dense).max()
            )


class TestLoad:
    def test_constant_source_unit_cube(self):
        cube = make_geometry("unit_cube")
        f, _ = assemble_load(
            cube, cube_disc(), lambda p: np.ones(p.shape[0]), 1e-12,
            rng=np.random.default_rng(11),
        )
        assert np.abs(f.full() - 0.125).max() < 1e-12

    def test_zero_source(self):
        cube = make_geometry("unit_cube")
        f, _ = assemble_load(
            cube, cube_disc(), lambda p: np.zeros(p.shape[0]), 1e-12,
            rng=np.random.default_rng(12),
        )
        assert f.ranks == (1, 1, 1, 1)
        assert np.all(f.full() == 0.0)


class TestDirichlet:
    def test_homogeneous_keeps_rhs(self):
        patch = make_geometry("unit_cube")
        disc = cube_disc(elements=3)
        K, _ = assemble_stiffness(
            patch, disc, 1e-12, 1e-12, rng=np.random.default_rng(13)
        )
        f, _ = assemble_load(
            patch, disc, lambda p: np.ones(p.shape[0]), 1e-12,
            rng=np.random.default_rng(14),
        )
        bc = BoundarySpec.all_dirichlet(0.0)
        system = apply_dirichlet(K, f, bc, disc)
        sl = system.interior
        assert np.allclose(
            system.f.full(), f.full()[sl[0], sl[1], sl[2]], atol=1e-15
        )
        assert np.all(system.lift.full() == 0.0)

    def test_interior_counting(self):
        patch = make_geometry("unit_cube")
        disc = cube_disc(elements=4)  # 5 basis functions per direction
        K, _ = assemble_stiffness(
            patch, disc, 1e-12, 1e-12, rng=np.random.default_rng(15)
        )
        f, _ = assemble_load(
            patch, disc, lambda p: np.ones(p.shape[0]), 1e-12,
            rng=np.random.default_rng(16),
        )
        bc = BoundarySpec(
            {
                (0, 0): FaceCondition("dirichlet", 0.0),
                (0, 1): FaceCondition("dirichlet", 0.0),
            }
        )
        system = apply_dirichlet(K, f, bc, disc)
        assert system.K.row_sizes == (3, 5, 5)

    def test_no_dirichlet_raises(self):
        patch = make_geometry("unit_cube")
        disc = cube_disc()
        K, _ = assemble_stiffness(
            patch, disc, 1e-12, 1e-12, rng=np.random.default_rng(17)
        )
        f, _ = assemble_load(
            patch, disc, lambda p: np.ones(p.shape[0]), 1e-12,
            rng=np.random.default_rng(18),
        )
        with pytest.raises(AssemblyError):
            apply_dirichlet(K, f, BoundarySpec({}), disc)

    def test_lift_reproduces_constant_faces(self):
        patch, disc = disc_for("ring", 2, 4)
        K, _ = assemble_stiffness(
            patch, disc, 1e-11, 1e-11, rng=np.random.default_rng(19)
        )
        f, _ = assemble_load(
            patch, disc, lambda p: np.zeros(p.shape[0]), 1e-11,
            rng=np.random.default_rng(20),
        )
        bc = BoundarySpec(
            {
                (1, 0): FaceCondition("dirichlet", 1.0),
                (1, 1): FaceCondition("dirichlet", 2.0),
            }
        )
        system = apply_dirichlet(K, f, bc, disc)
        lift = system.lift.full()
        assert np.all(lift[:, 0, :] == 1.0)
        assert np.all(lift[:, -1, :] == 2.0)
        assert np.all(lift[:, 1:-1, :] == 0.0)

    @settings(max_examples=30, deadline=None)
    @given(
        name=st.sampled_from(["unit_cube", "ring", "quarter_torus"]),
        elements=st.integers(1, 4),
        axis=st.integers(0, 2),
        sides=st.sampled_from([(0,), (1,), (0, 1)]),
        values=st.lists(
            st.one_of(
                st.just(0),
                st.integers(-5, 5),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            min_size=2,
            max_size=2,
        ),
    )
    def test_lift_is_rank_one_face_constants(self, name, elements, axis, sides, values):
        """Constant Dirichlet data give a rank-1 lift whose face layers hold
        the values exactly and whose other entries are all zero."""
        _, disc = disc_for(name, 2, elements)
        sizes = disc.mode_sizes
        bc = BoundarySpec(
            {(axis, s): FaceCondition("dirichlet", v) for s, v in zip(sides, values)}
        )
        K = TtMatrix.rank_one([np.eye(n) for n in sizes])
        system = apply_dirichlet(K, TtTensor.ones(sizes), bc, disc)
        assert system.lift.ranks == (1, 1, 1, 1)
        lift = np.moveaxis(system.lift.full(), axis, 0)
        expect = np.zeros_like(lift)
        for s, v in zip(sides, values):
            expect[0 if s == 0 else -1] = v
        assert np.array_equal(lift, expect)

    @pytest.mark.parametrize(
        "value", ["1.0", None, True, np.nan, np.inf, -np.inf, [1.0], lambda p: p]
    )
    def test_face_value_must_be_finite_number(self, value):
        with pytest.raises(AssemblyError):
            FaceCondition("dirichlet", value)

    def test_face_value_stored_as_float(self):
        fc = FaceCondition("dirichlet", 2)
        assert fc.value == 2.0 and type(fc.value) is float
        assert FaceCondition("natural").value == 0.0

    def test_ring_reduced_matches_dense_elimination(self):
        patch, disc = disc_for("ring", 2, 4)
        K, _ = assemble_stiffness(
            patch, disc, 1e-11, 1e-11, rng=np.random.default_rng(21)
        )
        f, _ = assemble_load(
            patch, disc, lambda p: np.zeros(p.shape[0]), 1e-11,
            rng=np.random.default_rng(22),
        )
        bc = BoundarySpec(
            {
                (1, 0): FaceCondition("dirichlet", 1.0),
                (1, 1): FaceCondition("dirichlet", 2.0),
            }
        )
        system = apply_dirichlet(K, f, bc, disc)
        sizes = disc.mode_sizes
        Kd = K.full()
        fd = f.full().ravel()
        mask = np.zeros(sizes, dtype=bool)
        sl = system.interior
        mask[sl[0], sl[1], sl[2]] = True
        interior = np.nonzero(mask.ravel())[0]
        lift = system.lift.full().ravel()
        rhs_ref = fd[interior] - (Kd @ lift)[interior]
        K_ref = Kd[np.ix_(interior, interior)]
        assert (
            np.linalg.norm(system.K.full() - K_ref) / np.linalg.norm(K_ref) <= 1e-9
        )
        rhs_scale = max(np.linalg.norm(rhs_ref), 1e-30)
        assert np.linalg.norm(system.f.full().ravel() - rhs_ref) / rhs_scale <= 1e-9

    def test_adjacent_nonzero_faces_rejected(self):
        patch = make_geometry("unit_cube")
        disc = cube_disc(elements=2)
        K, _ = assemble_stiffness(
            patch, disc, 1e-12, 1e-12, rng=np.random.default_rng(23)
        )
        f, _ = assemble_load(
            patch, disc, lambda p: np.ones(p.shape[0]), 1e-12,
            rng=np.random.default_rng(24),
        )
        bc = BoundarySpec(
            {
                (0, 0): FaceCondition("dirichlet", 1.0),
                (1, 0): FaceCondition("dirichlet", 2.0),
            }
        )
        with pytest.raises(AssemblyError):
            apply_dirichlet(K, f, bc, disc)
