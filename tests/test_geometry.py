import numpy as np
import pytest

from ttiga.geometry import (
    GEOMETRY_NAMES,
    GeometryError,
    GeometryPatch,
    GridEvaluator,
    det3,
    make_geometry,
    patch_from_json,
    patch_to_json,
)
from ttiga.splines import Basis1D, KnotVector


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

    def test_invalid_params(self):
        with pytest.raises(GeometryError):
            make_geometry("ring", {"r_in": 1.5, "r_out": 1.0})
        with pytest.raises(GeometryError):
            make_geometry("ring", {"radius": 1.0})
        with pytest.raises(GeometryError):
            make_geometry("banana")


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

    def test_det_consistency(self):
        patch = make_geometry("ring")
        xi = np.array([0.21, 0.45, 0.83])
        m = patch.eval_metric(xi)
        assert m.det == np.linalg.det(m.jacobian)

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
        jac, pts = ev.lines(axis, fixed)
        jac_p, pts_p = ev.jacobians(idx)
        assert jac.shape == (len(idx), 3, 3) and pts.shape == (len(idx), 3)
        assert np.abs(jac - jac_p).max() <= 1e-13 * np.abs(jac_p).max()
        assert np.abs(pts - pts_p).max() <= 1e-13 * np.abs(pts_p).max()
        det, metric = ev._metric_of(jac, idx)
        det_p, metric_p = ev.metric(idx)
        assert np.abs(det - det_p).max() <= 1e-13 * np.abs(det_p).max()
        assert np.abs(metric - metric_p).max() <= 1e-13 * np.abs(metric_p).max()

    @pytest.mark.parametrize("name", GEOMETRY_NAMES)
    def test_det3_matches_lu_det(self, name):
        # the i3 slabs l2_error evaluates: lines along axis 0 through each i2
        ev = GridEvaluator(make_geometry(name), _gauss_axes((6, 5, 4)))
        shape = ev.shape
        fixed = np.zeros((shape[1], 3), dtype=np.intp)
        fixed[:, 1] = np.arange(shape[1])
        for i3 in range(shape[2]):
            fixed[:, 2] = i3
            jac, _ = ev.lines(0, fixed)
            ref = np.linalg.det(jac)
            assert np.all(np.abs(det3(jac) - ref) <= 1e-13 * np.abs(ref))

    def test_pole_raises_like_points(self):
        from ttiga.assembly import metric_oracle
        from ttiga.geometry import SingularMapError

        patch = make_geometry("closed_hemisphere")
        axes = [np.linspace(0.0, 1.0, 6), np.linspace(0.0, 1.0, 5), [0.2, 0.7]]
        ev = GridEvaluator(patch, axes)
        oracle = metric_oracle(ev, 0, 0)
        fixed = np.array([[0, 0, 1], [0, 2, 0], [0, 4, 1], [0, 4, 0]])
        with pytest.raises(SingularMapError) as by_points:
            oracle.fn(_line_index(ev.shape, 0, fixed))
        with pytest.raises(SingularMapError) as by_lines:
            oracle.lines(0, fixed)
        assert "xi=(0.0, 1.0, 0.7)" in str(by_points.value)
        assert str(by_lines.value) == str(by_points.value)


def test_json_round_trip():
    patch = make_geometry("quarter_torus")
    text = patch_to_json(patch)
    back = patch_from_json(text)
    assert back.degrees == patch.degrees
    assert np.allclose(back.control_points, patch.control_points)
    assert np.allclose(back.weights, patch.weights)
    xi = np.array([0.3, 0.6, 0.9])
    assert np.allclose(back.eval_point(xi), patch.eval_point(xi), atol=1e-15)
