import numpy as np
import pytest

from ttiga.geometry import (
    GEOMETRY_NAMES,
    GeometryError,
    GeometryPatch,
    GridEvaluator,
    make_geometry,
    patch_from_json,
    patch_to_json,
)
from ttiga.splines import Basis1D, KnotVector


def _det3(jac):
    """Reference determinants (N,) of Jacobians (N, 3, 3) by cofactor
    expansion along the first row."""
    (a, b, c), (d, e, f), (g, h, i) = np.moveaxis(jac, 0, -1)
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _lu_metric(jac):
    """Reference metric factors det J inv(J) inv(J)^T by LU."""
    inv = np.linalg.inv(jac)
    return np.linalg.det(jac)[:, None, None] * (inv @ inv.transpose(0, 2, 1))


def scaling_patch(factor=2.0) -> GeometryPatch:
    """x = factor * xi, a uniform dilation of the unit cube."""
    lin = Basis1D(KnotVector(np.array([0, 0, 1, 1.0]), 1), None)
    corners = np.array([0.0, factor])
    ctrl = np.stack(np.meshgrid(corners, corners, corners, indexing="ij"), axis=-1)
    return GeometryPatch((lin, lin, lin), ctrl, np.ones((2, 2, 2)), {})


class TestFactories:
    def test_unit_cube_identity(self):
        patch = make_geometry("unit_cube")
        rng = np.random.default_rng(0)
        for xi in rng.uniform(0, 1, (100, 3)):
            assert np.allclose(patch.eval_point(xi), xi, atol=1e-14)

    @pytest.mark.parametrize("name", GEOMETRY_NAMES)
    def test_corners_map_to_corner_controls(self, name):
        patch = make_geometry(name)
        cp = patch.control_points
        for i, s1 in enumerate((0, -1)):
            for j, s2 in enumerate((0, -1)):
                for k, s3 in enumerate((0, -1)):
                    xi = np.array([float(i), float(j), float(k)])
                    assert np.allclose(
                        patch.eval_point(xi), cp[s1, s2, s3], atol=1e-12
                    )

    def test_ring_radius_bounds(self):
        patch = make_geometry("ring", {"r_in": 0.5, "r_out": 1.0, "h": 1.0})
        rng = np.random.default_rng(1)
        pts = np.array([patch.eval_point(xi) for xi in rng.uniform(0, 1, (500, 3))])
        r = np.hypot(pts[:, 0], pts[:, 1])
        assert np.all(r >= 0.5 - 1e-10) and np.all(r <= 1.0 + 1e-10)

    def test_quarter_torus_centerline_distance(self):
        patch = make_geometry("quarter_torus", {"r_in": 0.5, "r_out": 1.0, "R": 3.0})
        rng = np.random.default_rng(2)
        for xi in rng.uniform(0, 1, (300, 3)):
            x = patch.eval_point(xi)
            dist = np.hypot(np.hypot(x[0], x[1]) - 3.0, x[2])
            assert 0.5 - 1e-10 <= dist <= 1.0 + 1e-10

    def test_hemisphere_radii_exact(self):
        patch = make_geometry("closed_hemisphere")
        rng = np.random.default_rng(3)
        for xi in rng.uniform(0, 1, (300, 3)):
            r = np.linalg.norm(patch.eval_point(xi))
            assert 0.5 - 1e-10 <= r <= 1.0 + 1e-10

    def test_opened_hemisphere_hole(self):
        patch = make_geometry("opened_hemisphere", {"hole_deg": 18.0})
        rng = np.random.default_rng(4)
        for xi in rng.uniform(0, 1, (200, 3)):
            x = patch.eval_point(xi)
            r = np.linalg.norm(x)
            polar = np.degrees(np.arccos(np.clip(x[2] / r, -1, 1)))
            assert polar >= 18.0 - 1e-9  # hole on top

    def test_hyperboloid_waist(self):
        patch = make_geometry("hyperboloid")
        # mid-surface at the waist
        x = patch.eval_point(np.array([0.0, 0.5, 0.5]))
        assert abs(np.hypot(x[0], x[1]) - 0.5) < 1e-12
        assert abs(x[2]) < 1e-12
        # mid-surface stays on the hyperbola rho^2 = rw^2 + c z^2
        c = (1.0**2 - 0.5**2) / 1.0**2
        for t in np.linspace(0.05, 0.95, 17):
            x = patch.eval_point(np.array([0.3, t, 0.5]))
            rho2 = x[0] ** 2 + x[1] ** 2
            assert abs(rho2 - (0.25 + c * x[2] ** 2)) < 1e-12

    def test_lshape_image(self):
        patch = make_geometry("lshape")
        rng = np.random.default_rng(5)
        for xi in rng.uniform(0.001, 0.999, (300, 3)):
            x, y, z = patch.eval_point(xi)
            inside_outer = -1 - 1e-12 <= x <= 1 + 1e-12 and -1 - 1e-12 <= y <= 1 + 1e-12
            in_cutout = x > 1e-12 and y > 1e-12
            assert inside_outer and not in_cutout
            assert -1e-12 <= z <= 1 + 1e-12

    @pytest.mark.parametrize(
        "name,params", [("ring", {"h": 2.0}), ("lshape", {"zmax": 2.0})]
    )
    def test_height_runs_down(self, name, params):
        """xi3 = 0 is the top face (z = h on the ring, z = zmax on the
        L-shape) and xi3 = 1 the bottom, which makes both maps right-handed."""
        patch = make_geometry(name, params)
        rng = np.random.default_rng(6)
        for xi1, xi2 in rng.uniform(0, 1, (20, 2)):
            assert abs(patch.eval_point([xi1, xi2, 0.0])[2] - 2.0) < 1e-14
            assert abs(patch.eval_point([xi1, xi2, 1.0])[2]) < 1e-14

    def test_invalid_params(self):
        with pytest.raises(GeometryError):
            make_geometry("ring", {"r_in": 1.5, "r_out": 1.0})
        with pytest.raises(GeometryError):
            make_geometry("ring", {"radius": 1.0})
        with pytest.raises(GeometryError):
            make_geometry("banana")
        with pytest.raises(GeometryError, match="orientation"):
            make_geometry("hyperboloid", {"zmin": -1e308, "zmax": 1e308})


class TestMetric:
    def test_unit_cube_identity_metric(self):
        patch = make_geometry("unit_cube")
        m = patch.eval_metric(np.array([0.3, 0.8, 0.1]))
        assert np.allclose(m.jacobian, np.eye(3), atol=1e-14)
        assert abs(m.det - 1.0) < 1e-14
        assert np.allclose(m.metric, np.eye(3), atol=1e-14)

    def test_uniform_scaling(self):
        patch = scaling_patch(2.0)
        m = patch.eval_metric(np.array([0.4, 0.6, 0.2]))
        assert abs(m.det - 8.0) < 1e-12
        assert np.allclose(m.metric, 2.0 * np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("name", GEOMETRY_NAMES)
    def test_jacobian_vs_finite_differences(self, name):
        patch = make_geometry(name)
        rng = np.random.default_rng(11)
        h = 1e-6
        for xi in rng.uniform(2 * h, 1 - 2 * h, (100, 3)):
            jac = patch.eval_metric(xi).jacobian
            fd = np.empty((3, 3))
            for d in range(3):
                lo, hi = xi.copy(), xi.copy()
                lo[d] -= h
                hi[d] += h
                fd[:, d] = (patch.eval_point(hi) - patch.eval_point(lo)) / (2 * h)
            scale = max(np.abs(jac).max(), 1.0)
            assert np.abs(jac - fd).max() < 1e-6 * scale

    @pytest.mark.parametrize("name", GEOMETRY_NAMES)
    def test_metric_symmetric_positive_definite(self, name):
        patch = make_geometry(name)
        rng = np.random.default_rng(12)
        for xi in rng.uniform(0.01, 0.99, (50, 3)):
            m = patch.eval_metric(xi)
            assert np.array_equal(m.metric, m.metric.T)
            # leading principal minors of the symmetrized factor
            assert m.metric[0, 0] > 0
            assert np.linalg.det(m.metric[:2, :2]) > 0
            assert np.linalg.det(m.metric) > 0

    @pytest.mark.parametrize("name", GEOMETRY_NAMES)
    def test_det_positive_on_interior_grid(self, name):
        """Every solid is built right-handed: det J > 0 throughout."""
        ax = np.linspace(0.02, 0.98, 9)
        ev = GridEvaluator(make_geometry(name), [ax, ax, ax])
        idx = np.indices((9, 9, 9)).reshape(3, -1).T
        assert np.all(ev.at(idx).det > 0)

    def test_det_consistency(self):
        patch = make_geometry("ring")
        xi = np.array([0.21, 0.45, 0.83])
        m = patch.eval_metric(xi)
        # the determinant is the grid evaluator's det J bit for bit, and
        # agrees with the cofactor expansion of the sample's own Jacobian
        # and with LU to a few ulps
        ev = GridEvaluator(patch, xi.reshape(3, 1))
        assert m.det == ev.at(np.zeros((1, 3), int)).det[0]
        for ref in (_det3(m.jacobian[None])[0], np.linalg.det(m.jacobian)):
            assert abs(m.det - ref) <= 4 * np.finfo(float).eps * abs(ref)

    def test_ring_det_positive_sampled(self):
        patch = make_geometry("ring")
        rng = np.random.default_rng(13)
        for xi in rng.uniform(0.0, 1.0, (1000, 3)):
            assert patch.eval_metric(xi).det > 0


class TestGridEvaluator:
    def test_matches_pointwise(self):
        """eval_point/eval_metric are one-row calls of the grid evaluator."""
        patch = make_geometry("hyperboloid")
        axes = [np.linspace(0.05, 0.95, 6)] * 3
        ev = GridEvaluator(patch, axes)
        rng = np.random.default_rng(14)
        idx = rng.integers(0, 6, (64, 3))
        jac, pts = ev.jacobians(idx)
        det, metric = ev.metric(idx)
        for k in range(64):
            xi = np.array([axes[d][idx[k, d]] for d in range(3)])
            m = patch.eval_metric(xi)
            assert np.array_equal(jac[k], m.jacobian)
            assert np.array_equal(pts[k], patch.eval_point(xi))
            assert det[k] == m.det
            assert np.array_equal(metric[k], m.metric)


def _line_index(shape, axis, fixed):
    """Reference enumeration of the points on the lines, line by line."""
    rows = []
    for anchor in fixed:
        for q in range(shape[axis]):
            row = list(anchor)
            row[axis] = q
            rows.append(row)
    return np.array(rows)


def _gauss_axes(n_spans, g=3):
    """Interior Gauss-like points over n_spans uniform spans per direction."""
    ref = 0.5 + 0.5 * np.polynomial.legendre.leggauss(g)[0]
    return [
        np.concatenate([(s + ref) / n for s in range(n)]) for n in n_spans
    ]


class TestLines:
    @pytest.mark.parametrize("name", GEOMETRY_NAMES)
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_lines_match_points(self, name, axis):
        patch = make_geometry(name)
        ev = GridEvaluator(patch, _gauss_axes((5, 4, 3)))
        shape = ev.shape
        rng = np.random.default_rng(20 + axis)
        # first and last grid index in each fixed direction, plus random ones
        corners = [[0, 0, 0], [s - 1 for s in shape], [0] + [s - 1 for s in shape[1:]]]
        fixed = np.vstack([corners, np.stack(
            [rng.integers(0, n, 7) for n in shape], axis=1
        )])
        fixed[:, axis] = rng.integers(0, shape[axis], fixed.shape[0])  # ignored
        idx = _line_index(shape, axis, fixed)
        m, m_p = ev.along(axis, fixed), ev.at(idx)
        jac, pts, jac_p, pts_p = m.jac, m.pts, m_p.jac, m_p.pts
        assert jac.shape == (len(idx), 3, 3) and pts.shape == (len(idx), 3)
        assert np.abs(jac - jac_p).max() <= 1e-13 * np.abs(jac_p).max()
        assert np.abs(pts - pts_p).max() <= 1e-13 * np.abs(pts_p).max()
        det_p, metric_p = ev.metric(idx)
        assert np.abs(m.det - det_p).max() <= 1e-13 * np.abs(det_p).max()
        for i, j in zip(*np.triu_indices(3)):
            err = np.abs(ev.metric_entry(m, idx, i, j) - metric_p[:, i, j]).max()
            assert err <= 1e-13 * np.abs(metric_p).max()

    @pytest.mark.parametrize("name", GEOMETRY_NAMES)
    def test_det3_matches_lu_det(self, name):
        """det J from the homogeneous sums agrees with LU on whole i3 slabs,
        which error_norms evaluates in blocks: lines along axis 0 through
        each i2."""
        ev = GridEvaluator(make_geometry(name), _gauss_axes((6, 5, 4)))
        shape = ev.shape
        fixed = np.zeros((shape[1], 3), dtype=np.intp)
        fixed[:, 1] = np.arange(shape[1])
        for i3 in range(shape[2]):
            fixed[:, 2] = i3
            m = ev.along(0, fixed)
            ref = np.linalg.det(m.jac)
            assert np.all(np.abs(m.det - ref) <= 1e-13 * np.abs(ref))

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_lines_into_a_workspace(self, axis):
        """With a buffer, the sums go to its leading elements, and a smaller
        block reuses them; the map is bit for bit that of fresh arrays."""
        ev = GridEvaluator(make_geometry("quarter_torus"), _gauss_axes((5, 4, 3)))
        rng = np.random.default_rng(50 + axis)
        fixed = np.stack([rng.integers(0, n, 6) for n in ev.shape], axis=1)
        buf = np.full(16 * 6 * ev.shape[axis] + 5, np.nan)
        for rows in (fixed, fixed[:4]):
            m, ref = ev.along(axis, rows, out=buf), ev.along(axis, rows)
            assert np.shares_memory(m.A, buf) and np.shares_memory(m.x, buf)
            for got, want in zip(m, ref):
                assert np.array_equal(got, want)
        assert np.isnan(buf[-5:]).all()

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize(
        "name,params",
        [(name, {}) for name in GEOMETRY_NAMES] + [("quarter_torus", {"R": 4.0})],
        ids=[*GEOMETRY_NAMES, "quarter_torus-R4"],
    )
    def test_det_from_homogeneous_sums(self, name, params, axis):
        """det J = det(w J) / w^3 from the homogeneous sums, with no Jacobian
        formed, against the cofactor expansion of the pointwise Jacobians;
        R = 4 puts the torus's points far from the origin."""
        ev = GridEvaluator(make_geometry(name, params), _gauss_axes((5, 4, 3)))
        rng = np.random.default_rng(40 + axis)
        fixed = np.stack([rng.integers(0, n, 9) for n in ev.shape], axis=1)
        m = ev.along(axis, fixed)
        jac, pts = ev.jacobians(_line_index(ev.shape, axis, fixed))
        ref = _det3(jac)
        assert np.all(np.abs(m.det - ref) <= 1e-14 * np.abs(ref))
        assert np.abs(m.pts - pts).max() <= 1e-15 * np.abs(pts).max()

    @pytest.mark.parametrize("name", GEOMETRY_NAMES)
    def test_load_oracle_points_match_lines(self, name):
        from ttiga.assembly import load_oracle

        ev = GridEvaluator(make_geometry(name), _gauss_axes((5, 4, 3)))
        oracle = load_oracle(ev, lambda p: np.sin(np.pi * p[:, 0]) + p[:, 1] * p[:, 2])
        rng = np.random.default_rng(50)
        for axis in range(3):
            fixed = np.stack([rng.integers(0, n, 6) for n in ev.shape], axis=1)
            on_lines = oracle.lines(axis, fixed).ravel()
            at_points = oracle.fn(_line_index(ev.shape, axis, fixed))
            assert np.abs(on_lines - at_points).max() <= 1e-14 * np.abs(at_points).max()

    def test_pole_raises_like_points(self):
        from ttiga.assembly import metric_oracle
        from ttiga.geometry import SingularMapError

        patch = make_geometry("closed_hemisphere")
        axes = [np.linspace(0.0, 1.0, 6), np.linspace(0.0, 1.0, 5), [0.2, 0.7]]
        ev = GridEvaluator(patch, axes)
        fixed = np.array([[0, 0, 1], [0, 2, 0], [0, 4, 1], [0, 4, 0]])
        with pytest.raises(SingularMapError) as by_metric:
            ev.metric(_line_index(ev.shape, 0, fixed))
        # a diagonal and an off-diagonal entry raise the same error as the
        # whole metric, at the same first singular point
        for i, j in ((0, 0), (1, 2)):
            oracle = metric_oracle(ev, i, j)
            with pytest.raises(SingularMapError) as by_points:
                oracle.fn(_line_index(ev.shape, 0, fixed))
            with pytest.raises(SingularMapError) as by_lines:
                oracle.lines(0, fixed)
            assert "xi=(0.0, 1.0, 0.7)" in str(by_points.value)
            assert str(by_lines.value) == str(by_points.value)
            assert str(by_points.value) == str(by_metric.value)

    @pytest.mark.parametrize("name", GEOMETRY_NAMES)
    def test_metric_oracle_matches_metric(self, name):
        from ttiga.assembly import metric_oracle

        ev = GridEvaluator(make_geometry(name), _gauss_axes((5, 4, 3)))
        shape = ev.shape
        rng = np.random.default_rng(30)
        idx = np.stack([rng.integers(0, n, 200) for n in shape], axis=1)
        fixed = np.stack([rng.integers(0, n, 6) for n in shape], axis=1)
        # against LU on the Jacobians, relative to the whole metric, as the
        # crosses measure each entry: entries that vanish analytically hold
        # only round-off
        for axis in range(3):
            R = _lu_metric(ev.jacobians(idx)[0])
            R_lines = _lu_metric(ev.jacobians(_line_index(shape, axis, fixed))[0])
            scale, scale_lines = np.abs(R).max(), np.abs(R_lines).max()
            for i in range(3):
                for j in range(i, 3):
                    oracle = metric_oracle(ev, i, j)
                    got = oracle.fn(idx)
                    assert np.abs(got - R[:, i, j]).max() <= 1e-13 * scale
                    got = oracle.lines(axis, fixed).ravel()
                    err = np.abs(got - R_lines[:, i, j]).max()
                    assert err <= 1e-13 * scale_lines


def test_json_round_trip():
    patch = make_geometry("quarter_torus")
    text = patch_to_json(patch)
    back = patch_from_json(text)
    assert back.degrees == patch.degrees
    assert np.allclose(back.control_points, patch.control_points)
    assert np.allclose(back.weights, patch.weights)
    xi = np.array([0.3, 0.6, 0.9])
    assert np.allclose(back.eval_point(xi), patch.eval_point(xi), atol=1e-15)
