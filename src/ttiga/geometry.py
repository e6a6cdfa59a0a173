"""Exact NURBS volume patches for the benchmark solids.

Each factory returns a :class:`GeometryPatch` whose mapped image matches the
named solid exactly: circular sections are rational quadratic arcs (90-degree
arcs carry the 1/sqrt(2) midpoint weight), the hyperboloid profile is a
rational quadratic conic segment, and straight profiles are linear. Weight
grids therefore separate per direction, but evaluation supports a general
3D weight grid.

Axis convention per patch is recorded in ``metadata["directions"]``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .splines import Basis1D, KnotVector, tabulate

__all__ = [
    "GeometryError",
    "SingularMapError",
    "GeometryPatch",
    "MetricSample",
    "GridEvaluator",
    "GEOMETRY_NAMES",
    "det3",
    "make_geometry",
    "patch_to_json",
    "patch_from_json",
]

GEOMETRY_NAMES = (
    "unit_cube",
    "lshape",
    "ring",
    "closed_hemisphere",
    "opened_hemisphere",
    "hyperboloid",
    "quarter_torus",
)


class GeometryError(ValueError):
    """Invalid geometry parameters or construction failure."""


class SingularMapError(GeometryError):
    """Jacobian determinant below the singularity threshold."""


@dataclass(frozen=True)
class MetricSample:
    """Jacobian data at one parametric point.

    ``metric`` is the symmetric geometry factor inv(J) inv(J)^T det(J)
    that appears in every pulled-back gradient-gradient integrand.
    """

    jacobian: np.ndarray
    det: float
    metric: np.ndarray


@dataclass(frozen=True)
class GeometryPatch:
    """Trivariate NURBS map from the unit cube onto a physical solid."""

    bases: tuple[Basis1D, Basis1D, Basis1D]
    control_points: np.ndarray  # (n1, n2, n3, 3)
    weights: np.ndarray  # (n1, n2, n3), strictly positive
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        cp = np.asarray(self.control_points, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "control_points", cp)
        object.__setattr__(self, "weights", w)
        shape = tuple(b.n_basis for b in self.bases)
        if cp.shape != shape + (3,):
            raise GeometryError(f"control grid shape {cp.shape} != {shape + (3,)}")
        if w.shape != shape:
            raise GeometryError(f"weight grid shape {w.shape} != {shape}")
        if np.any(w <= 0):
            raise GeometryError("weights must be strictly positive")

    @property
    def degrees(self) -> tuple[int, int, int]:
        return tuple(b.degree for b in self.bases)

    @property
    def scale(self) -> float:
        """Bounding-box diagonal of the control net; sets the length unit."""
        span = self.control_points.reshape(-1, 3)
        return float(np.linalg.norm(span.max(axis=0) - span.min(axis=0)))

    def eval_point(self, xi) -> np.ndarray:
        """Physical coordinates of the parametric point ``xi``."""
        return GridEvaluator(self, np.reshape(xi, (3, 1))).points(_ORIGIN)[0]

    def eval_metric(self, xi) -> MetricSample:
        """Jacobian, determinant, and stiffness metric factor at ``xi``."""
        ev = GridEvaluator(self, np.reshape(xi, (3, 1)))
        jac, _ = ev.jacobians(_ORIGIN)
        det, metric = ev._metric_of(jac, _ORIGIN)
        return MetricSample(jac[0], float(det[0]), metric[0])


_ORIGIN = np.zeros((1, 3), dtype=np.intp)  # the one point of a 1x1x1 grid


class GridEvaluator:
    """Batched patch evaluation on a fixed tensor grid of parameters.

    Tabulates dense basis value and derivative rows per direction once, then
    evaluates points, Jacobians, and metric factors either at arbitrary
    batches of grid multi-indices or on whole grid lines (:meth:`lines`).
    Both contract the homogeneous control net [w P, w] with the rows of two
    directions first; the net of an exact geometry is coarse, so this costs
    a few hundred flops per point or line. This is the evaluation backend
    for the cross-interpolation oracles and the error quadrature.
    """

    def __init__(self, patch: GeometryPatch, axes_points):
        self.patch = patch
        self.axes_points = [np.asarray(a, dtype=float) for a in axes_points]
        self._rows = [
            tabulate(basis, pts) for basis, pts in zip(patch.bases, self.axes_points)
        ]
        w = patch.weights[..., None]
        self._hom = np.concatenate([w * patch.control_points, w], axis=-1)
        self._sing_tol = 1e-12 * patch.scale**3

    @property
    def shape(self):
        return tuple(a.size for a in self.axes_points)

    def _fixed_sums(self, axis, fixed):
        """The net contracted over the two directions other than ``axis``.

        Returns (3, M, n_axis, 4): at each row of ``fixed``, the sum with
        both value rows, then with the derivative row of the first and of
        the second other direction. One GEMM against the outer products of
        the row pairs does all three.
        """
        b, c = (d for d in range(3) if d != axis)
        H = np.moveaxis(self._hom, axis, 2)  # (n_b, n_c, n_axis, 4)
        (Vb, Db), (Vc, Dc) = self._rows[b], self._rows[c]
        vb, db = Vb[fixed[:, b], :, None], Db[fixed[:, b], :, None]
        vc, dc = Vc[fixed[:, c], None, :], Dc[fixed[:, c], None, :]
        W = np.stack([vb * vc, db * vc, vb * dc])  # (3, M, n_b, n_c)
        M = fixed.shape[0]
        G = W.reshape(3 * M, -1) @ H.reshape(-1, H.shape[2] * 4)
        return G.reshape(3, M, H.shape[2], 4)

    @staticmethod
    def _quotient(h, dh):
        """Jacobians (N, 3, 3) and points (N, 3) from the homogeneous sums
        h (N, 4) and their parametric derivatives dh (N, 4, 3)."""
        w = h[:, 3:]
        pts = h[:, :3] / w
        jac = (dh[:, :3, :] - pts[:, :, None] * dh[:, 3:, :]) / w[:, :, None]
        return jac, pts

    def points(self, idx) -> np.ndarray:
        """Physical coordinates for grid multi-indices ``idx`` of shape (N, 3)."""
        return self.jacobians(idx)[1]

    def jacobians(self, idx):
        """Jacobians (N, 3, 3) and physical points (N, 3) for ``idx``."""
        idx = np.asarray(idx, dtype=np.intp)
        G = self._fixed_sums(0, idx)
        V, D = (R[idx[:, 0]] for R in self._rows[0])
        hv = np.einsum("na,knax->knx", V, G)  # h, d2 h, d3 h
        d1 = np.einsum("na,nax->nx", D, G[0])
        return self._quotient(hv[0], np.stack([d1, hv[1], hv[2]], axis=2))

    def lines(self, axis: int, fixed):
        """Jacobians and points on whole grid lines along ``axis``.

        Row m of ``fixed`` (M, 3) anchors the line through the grid in the
        two other directions; its ``axis`` column is ignored. Returns
        Jacobians (M*nq, 3, 3) and points (M*nq, 3), line by line, where nq
        is the grid size along ``axis``. After the per-line contraction of
        the net, one GEMM per table runs along the free direction.
        """
        fixed = np.asarray(fixed, dtype=np.intp)
        b, c = (d for d in range(3) if d != axis)
        G = self._fixed_sums(axis, fixed)
        _, M, na, _ = G.shape
        S = G.transpose(2, 0, 1, 3).reshape(na, 3 * M * 4)
        V, D = self._rows[axis]
        nq = V.shape[0]
        hv = (V @ S).reshape(nq, 3, M, 4).transpose(1, 2, 0, 3)
        dh = np.empty((M, nq, 4, 3))
        dh[..., axis] = (D @ S[:, : M * 4]).reshape(nq, M, 4).transpose(1, 0, 2)
        dh[..., b] = hv[1]
        dh[..., c] = hv[2]
        return self._quotient(hv[0].reshape(M * nq, 4), dh.reshape(M * nq, 4, 3))

    def metric(self, idx):
        """Determinants (N,) and metric factors (N, 3, 3) for ``idx``."""
        jac, _ = self.jacobians(idx)
        return self._metric_of(jac, idx)

    def _metric_of(self, jac, idx):
        """Determinants and metric factors of the Jacobians ``jac`` at ``idx``.

        The metric is adj(J) adj(J)^T / det J, exactly symmetric. Raises
        :class:`SingularMapError` where |det J| falls below the singularity
        threshold.
        """
        det = np.linalg.det(jac)
        bad = np.abs(det) < self._sing_tol
        if np.any(bad):
            k = int(np.nonzero(bad)[0][0])
            xi = tuple(
                float(self.axes_points[d][np.asarray(idx)[k, d]]) for d in range(3)
            )
            raise SingularMapError(f"singular geometry map at xi={xi}")
        # rows of the cofactor matrix C = adj(J)^T: J1 x J2, J2 x J0, J0 x J1
        cof = np.cross(jac[:, [1, 2, 0], :], jac[:, [2, 0, 1], :])
        metric = np.einsum("nki,nkj->nij", cof, cof) / det[:, None, None]
        return det, metric


def det3(jac) -> np.ndarray:
    """Determinants (N,) of Jacobians (N, 3, 3) by cofactor expansion along
    the first row, with no LU factorization per matrix."""
    (a, b, c), (d, e, f), (g, h, i) = np.moveaxis(jac, 0, -1)
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _line_index(shape, axis: int, fixed) -> np.ndarray:
    """Grid multi-indices (M*nq, 3) of the points :meth:`GridEvaluator.lines`
    returns for ``fixed``, in the same order."""
    fixed = np.asarray(fixed, dtype=np.intp)
    nq = shape[axis]
    idx = np.repeat(fixed, nq, axis=0)
    idx[:, axis] = np.tile(np.arange(nq), fixed.shape[0])
    return idx


# ---------------------------------------------------------------------------
# construction helpers

_SQ2INV = 1.0 / np.sqrt(2.0)


def _linear_basis() -> Basis1D:
    return Basis1D(KnotVector(np.array([0.0, 0.0, 1.0, 1.0]), 1))


def _full_circle_net():
    """Exact unit circle: 9 control points, four 90-degree arcs."""
    kv = KnotVector(
        np.array([0, 0, 0, 0.25, 0.25, 0.5, 0.5, 0.75, 0.75, 1, 1, 1], dtype=float),
        2,
    )
    ctrl = np.array(
        [
            [1, 0], [1, 1], [0, 1], [-1, 1], [-1, 0],
            [-1, -1], [0, -1], [1, -1], [1, 0],
        ],
        dtype=float,
    )
    w = np.array([1, _SQ2INV, 1, _SQ2INV, 1, _SQ2INV, 1, _SQ2INV, 1], dtype=float)
    return kv, ctrl, w


def _arc_net(angle0: float, angle1: float):
    """Exact circular arc spanning less than 180 degrees (one segment)."""
    sweep = angle1 - angle0
    if not 0 < abs(sweep) < np.pi:
        raise GeometryError("single-segment arc must span (0, 180) degrees")
    mid = 0.5 * (angle0 + angle1)
    wmid = np.cos(0.5 * sweep)
    kv = KnotVector(np.array([0, 0, 0, 1, 1, 1], dtype=float), 2)
    ctrl = np.array(
        [
            [np.cos(angle0), np.sin(angle0)],
            [np.cos(mid) / wmid, np.sin(mid) / wmid],
            [np.cos(angle1), np.sin(angle1)],
        ]
    )
    return kv, ctrl, np.array([1.0, wmid, 1.0])


def _hyperbola_net(r_end: float, r_waist: float, z0: float, z1: float):
    """Conic segment tracing rho(z) = sqrt(rw^2 + c (z - zm)^2), rho(z0|z1) = r_end.

    The midpoint weight r_end / r_waist places the curve shoulder exactly on
    the waist, which pins the conic to the hyperbola.
    """
    if not 0 < r_waist < r_end:
        raise GeometryError("need 0 < waist radius < end radius")
    zm = 0.5 * (z0 + z1)
    kv = KnotVector(np.array([0, 0, 0, 1, 1, 1], dtype=float), 2)
    ctrl = np.array([[r_end, z0], [r_waist**2 / r_end, zm], [r_end, z1]])
    return kv, ctrl, np.array([1.0, r_end / r_waist, 1.0])


def _flip_axis(ctrl: np.ndarray, w: np.ndarray, bases, axis: int):
    """Reverse one parametric direction (mirrors the knot vector)."""
    ctrl = np.flip(ctrl, axis=axis)
    w = np.flip(w, axis=axis)
    kv = bases[axis].knot_vector
    mirrored = KnotVector((kv.start + kv.end) - kv.knots[::-1], kv.degree)
    bases = list(bases)
    bases[axis] = Basis1D(mirrored, None)
    return ctrl, w, tuple(bases)


def _finalize(bases, ctrl, w, metadata) -> GeometryPatch:
    """Fix orientation so det(J) > 0, then verify on an interior sample."""
    patch = GeometryPatch(tuple(bases), ctrl, w, metadata)
    probe = np.array([0.37, 0.51, 0.43])
    if patch.eval_metric(probe).det < 0:
        ctrl, w, bases = _flip_axis(ctrl, w, bases, 2)
        patch = GeometryPatch(tuple(bases), ctrl, w, metadata)
    for xi in ([0.11, 0.62, 0.29], [0.83, 0.24, 0.77], [0.5, 0.5, 0.5]):
        if patch.eval_metric(np.asarray(xi)).det <= 0:
            raise GeometryError("orientation check failed: det(J) <= 0")
    return patch


def _product_patch(kvs, builder, metadata) -> GeometryPatch:
    """Assemble a patch from three knot vectors and a pointwise control builder."""
    bases = tuple(Basis1D(kv, None) for kv in kvs)
    n = tuple(kv.n_basis for kv in kvs)
    ctrl = np.empty(n + (3,))
    w = np.empty(n)
    for i in range(n[0]):
        for j in range(n[1]):
            for k in range(n[2]):
                ctrl[i, j, k], w[i, j, k] = builder(i, j, k)
    return _finalize(bases, ctrl, w, metadata)


def _require(cond: bool, msg: str):
    if not cond:
        raise GeometryError(msg)


def make_geometry(name: str, params: dict | None = None) -> GeometryPatch:
    """Build one of the benchmark solids by name.

    Supported names and parameters (all optional, with defaults):

    * ``unit_cube`` -- identity map, test fixture.
    * ``lshape`` -- ``zmax`` (default 1.0): outer box [-1,1]^2 x [0,zmax]
      minus the cutout [0,1]^2 x [0,zmax], folded into one patch with a
      C0 knot line along the reentrant diagonal.
    * ``ring`` -- ``r_in`` (0.5), ``r_out`` (1.0), ``h`` (1.0).
    * ``closed_hemisphere`` -- ``r_in`` (0.5), ``r_out`` (1.0); the pole
      face is flagged degenerate in the metadata.
    * ``opened_hemisphere`` -- ``r_in``, ``r_out``, ``hole_deg`` (18.0).
    * ``hyperboloid`` -- ``r_middle`` (0.5), ``r_top`` (1.0),
      ``thickness`` (0.3), ``zmin`` (-1.0), ``zmax`` (1.0).
    * ``quarter_torus`` -- ``r_in`` (0.5), ``r_out`` (1.0), ``R`` (3.0).
    """
    params = dict(params or {})
    if name not in GEOMETRY_NAMES:
        raise GeometryError(f"unknown geometry {name!r}; choose from {GEOMETRY_NAMES}")
    return _FACTORIES[name](params)


def _take(params: dict, defaults: dict) -> dict:
    unknown = set(params) - set(defaults)
    if unknown:
        raise GeometryError(f"unknown geometry parameters: {sorted(unknown)}")
    out = dict(defaults)
    out.update(params)
    return out


def _make_unit_cube(params):
    p = _take(params, {})
    lin = _linear_basis()
    corners = np.array([0.0, 1.0])
    ctrl = np.stack(
        np.meshgrid(corners, corners, corners, indexing="ij"), axis=-1
    )
    w = np.ones((2, 2, 2))
    meta = {
        "name": "unit_cube",
        "params": p,
        "directions": ("x", "y", "z"),
        "default_dirichlet": [[0, 0], [0, 1], [1, 0], [1, 1], [2, 0], [2, 1]],
    }
    return _finalize((lin, lin, lin), ctrl, w, meta)


def _make_lshape(params):
    p = _take(params, {"zmax": 1.0})
    _require(p["zmax"] > 0, "zmax must be positive")
    # Bent bar: xi1 runs along the L, xi2 from the inner to the outer
    # boundary, xi3 in z. The reentrant corner square is split along its
    # diagonal by the C0 line at xi1 = 0.5, so det(J) stays bounded away
    # from zero everywhere.
    kv1 = KnotVector(np.array([0, 0, 0.5, 1, 1], dtype=float), 1)
    inner = np.array([[0, 1], [0, 0], [1, 0]], dtype=float)
    outer = np.array([[-1, 1], [-1, -1], [1, -1]], dtype=float)
    zs = np.array([0.0, p["zmax"]])
    ctrl = np.empty((3, 2, 2, 3))
    for i in range(3):
        for j, row in enumerate((inner, outer)):
            for k in range(2):
                ctrl[i, j, k] = (row[i, 0], row[i, 1], zs[k])
    w = np.ones((3, 2, 2))
    lin = _linear_basis()
    meta = {
        "name": "lshape",
        "params": p,
        "directions": ("path", "across", "height"),
        "default_dirichlet": [[0, 0], [0, 1], [1, 0], [1, 1]],
    }
    return _finalize((Basis1D(kv1, None), lin, lin), ctrl, w, meta)


def _make_ring(params):
    p = _take(params, {"r_in": 0.5, "r_out": 1.0, "h": 1.0})
    _require(0 < p["r_in"] < p["r_out"], "need 0 < r_in < r_out")
    _require(p["h"] > 0, "height must be positive")
    kv_c, c_ctrl, c_w = _full_circle_net()
    lin = _linear_basis().knot_vector
    radii = np.array([p["r_in"], p["r_out"]])
    zs = np.array([0.0, p["h"]])

    def build(i, j, k):
        x, y = c_ctrl[i] * radii[j]
        return (x, y, zs[k]), c_w[i]

    meta = {
        "name": "ring",
        "params": p,
        "directions": ("angular", "radial", "height"),
        "default_dirichlet": [[1, 0], [1, 1]],
    }
    return _product_patch(
        [kv_c, lin, lin], build, meta
    )


def _make_closed_hemisphere(params):
    p = _take(params, {"r_in": 0.5, "r_out": 1.0})
    _require(0 < p["r_in"] < p["r_out"], "need 0 < r_in < r_out")
    kv_c, c_ctrl, c_w = _full_circle_net()
    kv_a, a_ctrl, a_w = _arc_net(0.0, 0.5 * np.pi)  # equator to pole
    lin = _linear_basis().knot_vector
    radii = np.array([p["r_in"], p["r_out"]])

    def build(i, j, k):
        rho, z = a_ctrl[j] * radii[k]
        return (c_ctrl[i, 0] * rho, c_ctrl[i, 1] * rho, z), c_w[i] * a_w[j]

    meta = {
        "name": "closed_hemisphere",
        "params": p,
        "directions": ("longitude", "latitude", "radial"),
        "default_dirichlet": [[2, 0], [2, 1]],
        "degenerate_faces": [[1, 1]],  # pole: longitude circle collapses
    }
    return _product_patch(
        [kv_c, kv_a, lin], build, meta
    )


def _make_opened_hemisphere(params):
    p = _take(params, {"r_in": 0.5, "r_out": 1.0, "hole_deg": 18.0})
    _require(0 < p["r_in"] < p["r_out"], "need 0 < r_in < r_out")
    _require(0 < p["hole_deg"] < 90, "hole angle must be in (0, 90) degrees")
    kv_c, c_ctrl, c_w = _full_circle_net()
    top = 0.5 * np.pi - np.deg2rad(p["hole_deg"])
    kv_a, a_ctrl, a_w = _arc_net(0.0, top)
    lin = _linear_basis().knot_vector
    radii = np.array([p["r_in"], p["r_out"]])

    def build(i, j, k):
        rho, z = a_ctrl[j] * radii[k]
        return (c_ctrl[i, 0] * rho, c_ctrl[i, 1] * rho, z), c_w[i] * a_w[j]

    meta = {
        "name": "opened_hemisphere",
        "params": p,
        "directions": ("longitude", "latitude", "radial"),
        "default_dirichlet": [[1, 0], [1, 1]],
    }
    return _product_patch(
        [kv_c, kv_a, lin], build, meta
    )


def _make_hyperboloid(params):
    p = _take(
        params,
        {"r_middle": 0.5, "r_top": 1.0, "thickness": 0.3, "zmin": -1.0, "zmax": 1.0},
    )
    _require(0 < p["r_middle"] < p["r_top"], "need 0 < r_middle < r_top")
    _require(0 < p["thickness"] < 2 * p["r_middle"], "invalid shell thickness")
    _require(p["zmin"] < p["zmax"], "need zmin < zmax")
    kv_c, c_ctrl, c_w = _full_circle_net()
    kv_h, h_ctrl, h_w = _hyperbola_net(p["r_top"], p["r_middle"], p["zmin"], p["zmax"])
    lin = _linear_basis().knot_vector
    offs = np.array([-0.5, 0.5]) * p["thickness"]

    def build(i, j, k):
        rho = h_ctrl[j, 0] + offs[k]
        z = h_ctrl[j, 1]
        return (c_ctrl[i, 0] * rho, c_ctrl[i, 1] * rho, z), c_w[i] * h_w[j]

    meta = {
        "name": "hyperboloid",
        "params": p,
        "directions": ("angular", "height", "thickness"),
        "default_dirichlet": [[1, 0], [1, 1]],
    }
    return _product_patch(
        [kv_c, kv_h, lin], build, meta
    )


def _make_quarter_torus(params):
    p = _take(params, {"r_in": 0.5, "r_out": 1.0, "R": 3.0})
    _require(0 < p["r_in"] < p["r_out"], "need 0 < r_in < r_out")
    _require(p["R"] > p["r_out"], "toroidal radius must exceed r_out")
    kv_t, t_ctrl, t_w = _arc_net(0.0, 0.5 * np.pi)  # toroidal quarter sweep
    kv_p, p_ctrl, p_w = _full_circle_net()  # poloidal section
    lin = _linear_basis().knot_vector
    radii = np.array([p["r_in"], p["r_out"]])

    def build(i, j, k):
        rho = p["R"] + p_ctrl[j, 0] * radii[k]
        z = p_ctrl[j, 1] * radii[k]
        return (t_ctrl[i, 0] * rho, t_ctrl[i, 1] * rho, z), t_w[i] * p_w[j]

    meta = {
        "name": "quarter_torus",
        "params": p,
        "directions": ("toroidal", "poloidal", "radial"),
        "default_dirichlet": [[2, 0], [2, 1]],
    }
    return _product_patch(
        [kv_t, kv_p, lin], build, meta
    )


_FACTORIES = {
    "unit_cube": _make_unit_cube,
    "lshape": _make_lshape,
    "ring": _make_ring,
    "closed_hemisphere": _make_closed_hemisphere,
    "opened_hemisphere": _make_opened_hemisphere,
    "hyperboloid": _make_hyperboloid,
    "quarter_torus": _make_quarter_torus,
}


# ---------------------------------------------------------------------------
# serialization

def patch_to_json(patch: GeometryPatch) -> str:
    """Serialize a patch (knots, degrees, control grid, weights) to JSON."""
    doc = {
        "degrees": list(patch.degrees),
        "knots": [b.knot_vector.knots.tolist() for b in patch.bases],
        "control_points": patch.control_points.tolist(),
        "weights": patch.weights.tolist(),
        "metadata": patch.metadata,
    }
    return json.dumps(doc, indent=2)


def patch_from_json(text: str) -> GeometryPatch:
    doc = json.loads(text)
    bases = tuple(
        Basis1D(KnotVector(np.asarray(kn, dtype=float), p), None)
        for kn, p in zip(doc["knots"], doc["degrees"])
    )
    return GeometryPatch(
        bases,
        np.asarray(doc["control_points"], dtype=float),
        np.asarray(doc["weights"], dtype=float),
        doc.get("metadata", {}),
    )
