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
from numbers import Real
from typing import NamedTuple

import numpy as np

from .splines import Basis1D, KnotVector, tabulate

__all__ = [
    "GeometryError",
    "SingularMapError",
    "GeometryPatch",
    "MetricSample",
    "MapEval",
    "GridEvaluator",
    "GEOMETRY_NAMES",
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
        if not np.all(np.isfinite(w) & (w > 0)):
            raise GeometryError("weights must be finite and strictly positive")
        if not np.all(np.isfinite(cp)):
            raise GeometryError("control points must be finite")

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
        return GridEvaluator(self, np.reshape(xi, (3, 1))).at(_ORIGIN).pts[0]

    def eval_metric(self, xi) -> MetricSample:
        """Jacobian, determinant, and stiffness metric factor at ``xi``."""
        ev = GridEvaluator(self, np.reshape(xi, (3, 1)))
        m = ev.at(_ORIGIN)
        det, metric = ev._metric(m, _ORIGIN)
        return MetricSample(m.jac[0], float(det[0]), metric[0])


_ORIGIN = np.zeros((1, 3), dtype=np.intp)  # the one point of a 1x1x1 grid

# points per block of grid evaluation, shared by the cross oracles' line
# chunks and the error quadrature's slabs (one ring e=32 slab). A block's
# homogeneous sums hold 16 doubles per point, and the rows its consumers
# form from them about as many again, so larger blocks raise the peak
# memory; on the torus, 2^15 was no faster.
_BLOCK = 1 << 13


class MapEval(NamedTuple):
    """The map at N points, held in the homogeneous form it is computed in.

    ``x`` (3, N) are the physical points, ``A`` (3, 3, N) the scaled
    Jacobians w J (``A[i, d]`` = w dx_i/dxi_d) and ``w`` (N,) the NURBS
    weight sums, one contiguous row per quantity. Each property forms only
    what it returns: :attr:`det` needs no Jacobian.
    """

    x: np.ndarray
    A: np.ndarray
    w: np.ndarray

    @property
    def pts(self) -> np.ndarray:
        """Physical points (N, 3), a view of the rows of ``x``."""
        return self.x.T

    @property
    def jac(self) -> np.ndarray:
        """Jacobians (N, 3, 3), a view of component rows of J = A / w."""
        return (self.A / self.w).transpose(2, 0, 1)

    @property
    def det(self) -> np.ndarray:
        """det J (N,) straight from the homogeneous sums: det(A) / w^3."""
        det = _det_rows(self.A)
        det /= self.w**3
        return det


class GridEvaluator:
    """Batched patch evaluation on a fixed tensor grid of parameters.

    Tabulates dense basis value and derivative rows per direction once, then
    evaluates the map at arbitrary batches of grid multi-indices (:meth:`at`)
    or on whole grid lines (:meth:`along`), both through one kernel. The
    kernel contracts the homogeneous control net [w P, w] with the rows of
    two directions first; the net of an exact geometry is coarse, so this
    costs a few hundred flops per point or line. Its results are laid out by
    component, one contiguous row per quantity, and carried as a
    :class:`MapEval`, from which det J and the metric entries are formed
    without forming J. This is the evaluation backend for the
    cross-interpolation oracles and the error quadrature.
    """

    def __init__(self, patch: GeometryPatch, axes_points):
        self.patch = patch
        self.axes_points = [np.asarray(a, dtype=float) for a in axes_points]
        self._rows = [
            tabulate(basis, pts) for basis, pts in zip(patch.bases, self.axes_points)
        ]
        w = patch.weights[..., None]
        hom = np.concatenate([w * patch.control_points, w], axis=-1)
        # per axis, the net as (n_b * n_c, n_axis * 4) over the two other
        # directions b < c
        self._nets = [
            np.moveaxis(hom, axis, 2).reshape(-1, 4 * hom.shape[axis])
            for axis in range(3)
        ]
        self._sing_tol = 1e-12 * patch.scale**3

    @property
    def shape(self):
        return tuple(a.size for a in self.axes_points)

    def _sums(self, axis, fixed, pointwise, out=None):
        """The homogeneous sums (4, 4, N) for the rows of ``fixed``, in the
        leading 16 N elements of the flat buffer ``out`` if one is given.

        Entry [k, 0] is the row h_k (the sum of basis products times w P_k,
        or times w for k = 3) and [k, 1 + d] its derivative along direction
        d. With ``pointwise`` each row of ``fixed`` is one grid point (N = M);
        otherwise it anchors the grid line along ``axis`` through it, whose
        ``axis`` column is ignored (N = M * nq, line by line). One GEMM
        against the outer products of the two other directions' rows
        contracts the net; then one GEMM per derivative slot runs along
        ``axis`` and writes that slot's rows, or one product per point.
        """
        b, c = (d for d in range(3) if d != axis)
        (Vb, Db), (Vc, Dc) = self._rows[b], self._rows[c]
        vb, db = Vb[fixed[:, b], :, None], Db[fixed[:, b], :, None]
        vc, dc = Vc[fixed[:, c], None, :], Dc[fixed[:, c], None, :]
        W = np.stack([vb * vc, db * vc, vb * dc])  # tables (3, M, n_b, n_c)
        M = fixed.shape[0]
        G = (W.reshape(3 * M, -1) @ self._nets[axis]).reshape(3, M, -1, 4)
        V, D = self._rows[axis]
        N = M if pointwise else M * V.shape[0]
        out = np.empty(16 * N) if out is None else out[: 16 * N]
        # out[1 + d, k] is the row of d h_k / d xi_d, out[0, k] that of h_k
        if pointwise:
            V, D = V[fixed[:, axis]], D[fixed[:, axis]]
            out = out.reshape(4, 4, M)
            out[0], out[1 + b], out[1 + c] = np.einsum("na,tnax->txn", V, G)
            out[1 + axis] = np.einsum("na,nax->xn", D, G[0])
        else:
            S = G.transpose(0, 3, 1, 2).reshape(3, 4 * M, -1)  # S[t]: rows (k, m)
            out = out.reshape(4, 4 * M, V.shape[0])
            for t, slot in enumerate((0, 1 + b, 1 + c)):
                np.matmul(S[t], V.T, out=out[slot])
            np.matmul(S[0], D.T, out=out[1 + axis])
        return out.reshape(4, 4, -1).swapaxes(0, 1)

    def _evaluate(self, axis, fixed, pointwise, out=None) -> MapEval:
        """The :class:`MapEval` of the sums of :meth:`_sums`, formed in place."""
        S = self._sums(axis, np.asarray(fixed, dtype=np.intp), pointwise, out)
        w, x, A = S[3, 0], S[:3, 0], S[:3, 1:]
        x /= w
        A -= x[:, None] * S[3, 1:]  # d(h_i / w) w = dh_i - x_i dw
        return MapEval(x, A, w)

    def at(self, idx) -> MapEval:
        """The map at the grid multi-indices ``idx`` (N, 3)."""
        return self._evaluate(0, idx, pointwise=True)

    def along(self, axis: int, fixed, out=None) -> MapEval:
        """The map on whole grid lines along ``axis``.

        Row m of ``fixed`` (M, 3) anchors the line through the grid in the
        two other directions; its ``axis`` column is ignored. The M * nq
        points come line by line, where nq is the grid size along ``axis``.
        The result is formed in ``out``, if given, as in :meth:`_sums`.
        """
        return self._evaluate(axis, fixed, False, out)

    def jacobians(self, idx):
        """Jacobians (N, 3, 3) and physical points (N, 3) for ``idx``."""
        m = self.at(idx)
        return m.jac, m.pts

    def metric(self, idx):
        """Determinants (N,) and metric factors (N, 3, 3) for ``idx``."""
        return self._metric(self.at(idx), idx)

    def _metric(self, m: MapEval, idx):
        """det J (N,) and the exactly symmetric metric factors (N, 3, 3) of
        the map ``m`` at ``idx``, each entry as in :meth:`metric_entry`."""
        det = m.det
        self._check_regular(det, idx)
        denom = det * m.w**4
        R = np.empty((3, 3, m.w.size))
        for i, j in zip(*np.triu_indices(3)):
            R[i, j] = R[j, i] = _metric_entry(m.A, denom, i, j)
        return det, R.transpose(2, 0, 1)

    def metric_entry(self, m: MapEval, idx, i: int, j: int) -> np.ndarray:
        """Entry (i, j) (N,) of the metric factors adj(J) adj(J)^T / det J of
        the map ``m`` at ``idx``, forming no other entry and no Jacobian.

        R_ij = (c_i . c_j) / (w^4 det J), where c_i = A[:, i+1] x A[:, i+2]
        (indices mod 3) is column i of the cofactor matrix of A = w J, all on
        the component rows of ``m``. Raises :class:`SingularMapError` where
        |det J| falls below the singularity threshold.
        """
        det = m.det
        self._check_regular(det, idx)
        return _metric_entry(m.A, det * m.w**4, i, j)

    def _check_regular(self, det, idx):
        """Raise :class:`SingularMapError` at the first grid point of ``idx``
        whose |det J| falls below the singularity threshold."""
        bad = np.abs(det) < self._sing_tol
        if np.any(bad):
            k = int(np.nonzero(bad)[0][0])
            xi = tuple(
                float(self.axes_points[d][np.asarray(idx)[k, d]]) for d in range(3)
            )
            raise SingularMapError(f"singular geometry map at xi={xi}")


def _metric_entry(A, denom, i: int, j: int) -> np.ndarray:
    """(c_i . c_j) / denom, c_i the cofactor columns of the rows ``A``."""
    ci = _cofactor_column(A, i)
    cj = ci if j == i else _cofactor_column(A, j)
    return (ci[0] * cj[0] + ci[1] * cj[1] + ci[2] * cj[2]) / denom


def _cofactor_column(A, i: int):
    """Column i of the cofactor matrices of the component rows ``A``
    (3, 3, N), as three rows: A[:, i+1] x A[:, i+2]."""
    a, b = A[:, (i + 1) % 3], A[:, (i + 2) % 3]
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _det_rows(R) -> np.ndarray:
    """Determinants (N,) of the matrices whose entries are the rows of ``R``
    (3, 3, N), by cofactor expansion along the first row."""
    (a, b, c), (d, e, f), (g, h, i) = R
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


# ---------------------------------------------------------------------------
# construction helpers

_SQ2INV = 1.0 / np.sqrt(2.0)


def _linear_knots() -> KnotVector:
    return KnotVector(np.array([0.0, 0.0, 1.0, 1.0]), 1)


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


def _finalize(kvs, ctrl, w, metadata) -> GeometryPatch:
    """Build the patch and verify det(J) > 0 on interior probes."""
    patch = GeometryPatch(tuple(Basis1D(kv, None) for kv in kvs), ctrl, w, metadata)
    probes = np.array(
        [[0.37, 0.51, 0.43], [0.11, 0.62, 0.29], [0.83, 0.24, 0.77], [0.5] * 3]
    )
    # probe k is the point (k, k, k) of the grid spanned by the probes
    diagonal = np.stack([np.arange(len(probes))] * 3, axis=1)
    # a net too large for double precision gives a NaN det(J), which fails
    with np.errstate(over="ignore", invalid="ignore"):
        det, _ = GridEvaluator(patch, probes.T).metric(diagonal)
    if not np.all(det > 0):
        raise GeometryError("orientation check failed: det(J) is not positive")
    return patch


def _revolve(sweep, section, metadata) -> GeometryPatch:
    """Sweep a rational planar section about the z axis (Piegl & Tiller,
    *The NURBS Book*, 2nd ed., section 8.5).

    ``sweep`` is ``(kv_i, xy, w_i)``: the knots, the (n_i, 2) control points
    (X_i, Y_i) and the weights of the sweep curve in the xy plane.
    ``section`` is ``(kv_j, kv_k, rho, z, w_jk)``: the two knot vectors and
    arrays broadcastable to (n_j, n_k) of the section's distance from the
    axis, height and weight. The net is P_ijk = (X_i rho_jk, Y_i rho_jk,
    z_jk) with weights w_i w_jk.
    """
    kv_i, xy, w_i = sweep
    kv_j, kv_k, rho, z, w_jk = section
    n_i, plane = kv_i.n_basis, (kv_j.n_basis, kv_k.n_basis)
    rho, z, w_jk = (np.broadcast_to(a, plane) for a in (rho, z, w_jk))
    X, Y = xy[:, 0, None, None], xy[:, 1, None, None]
    ctrl = np.stack([X * rho, Y * rho, np.broadcast_to(z, (n_i,) + plane)], axis=-1)
    w = w_i[:, None, None] * w_jk
    return _finalize((kv_i, kv_j, kv_k), ctrl, w, metadata)


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
    if params is None:
        params = {}
    if not isinstance(params, dict):
        raise GeometryError(f"geometry params must be an object, got {params!r}")
    if name not in GEOMETRY_NAMES:
        raise GeometryError(f"unknown geometry {name!r}; choose from {GEOMETRY_NAMES}")
    return _FACTORIES[name](params)


def _is_finite_real(x) -> bool:
    """A finite real number; bools are not numbers here."""
    return isinstance(x, Real) and not isinstance(x, bool) and bool(np.isfinite(x))


def _take(params: dict, defaults: dict) -> dict:
    unknown = set(params) - set(defaults)
    if unknown:
        raise GeometryError(f"unknown geometry parameters: {sorted(unknown)}")
    for key, val in params.items():
        msg = f"geometry parameter {key} must be a finite number, got {val!r}"
        _require(_is_finite_real(val), msg)
    out = dict(defaults)
    out.update(params)
    return out


def _make_unit_cube(params):
    p = _take(params, {})
    lin = _linear_knots()
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
    # boundary, xi3 down from z = zmax to 0 (which makes the map
    # right-handed). The reentrant corner square is split along its
    # diagonal by the C0 line at xi1 = 0.5, so det(J) stays bounded away
    # from zero everywhere.
    kv1 = KnotVector(np.array([0, 0, 0.5, 1, 1], dtype=float), 1)
    inner = np.array([[0, 1], [0, 0], [1, 0]], dtype=float)
    outer = np.array([[-1, 1], [-1, -1], [1, -1]], dtype=float)
    ctrl = np.empty((3, 2, 2, 3))
    ctrl[..., :2] = np.stack([inner, outer], axis=1)[:, :, None, :]
    ctrl[..., 2] = [p["zmax"], 0.0]
    meta = {
        "name": "lshape",
        "params": p,
        "directions": ("path", "across", "height"),
        "default_dirichlet": [[0, 0], [0, 1], [1, 0], [1, 1]],
    }
    lin = _linear_knots()
    return _finalize((kv1, lin, lin), ctrl, np.ones((3, 2, 2)), meta)


def _make_ring(params):
    p = _take(params, {"r_in": 0.5, "r_out": 1.0, "h": 1.0})
    _require(0 < p["r_in"] < p["r_out"], "need 0 < r_in < r_out")
    _require(p["h"] > 0, "height must be positive")
    lin = _linear_knots()
    # xi3 runs down from z = h to 0, which makes the map right-handed
    radii = np.array([p["r_in"], p["r_out"]])
    section = (lin, lin, radii[:, None], [p["h"], 0.0], 1.0)
    meta = {
        "name": "ring",
        "params": p,
        "directions": ("angular", "radial", "height"),
        "default_dirichlet": [[1, 0], [1, 1]],
    }
    return _revolve(_full_circle_net(), section, meta)


def _hemisphere_shell(p, top: float, meta) -> GeometryPatch:
    """Spherical shell r_in..r_out from the equator to latitude ``top``."""
    kv_a, a_ctrl, a_w = _arc_net(0.0, top)
    rho, z = a_ctrl.T[:, :, None] * np.array([p["r_in"], p["r_out"]])
    section = (kv_a, _linear_knots(), rho, z, a_w[:, None])
    return _revolve(_full_circle_net(), section, meta)


def _make_closed_hemisphere(params):
    p = _take(params, {"r_in": 0.5, "r_out": 1.0})
    _require(0 < p["r_in"] < p["r_out"], "need 0 < r_in < r_out")
    meta = {
        "name": "closed_hemisphere",
        "params": p,
        "directions": ("longitude", "latitude", "radial"),
        "default_dirichlet": [[2, 0], [2, 1]],
        "degenerate_faces": [[1, 1]],  # pole: longitude circle collapses
    }
    return _hemisphere_shell(p, 0.5 * np.pi, meta)  # equator to pole


def _make_opened_hemisphere(params):
    p = _take(params, {"r_in": 0.5, "r_out": 1.0, "hole_deg": 18.0})
    _require(0 < p["r_in"] < p["r_out"], "need 0 < r_in < r_out")
    _require(0 < p["hole_deg"] < 90, "hole angle must be in (0, 90) degrees")
    meta = {
        "name": "opened_hemisphere",
        "params": p,
        "directions": ("longitude", "latitude", "radial"),
        "default_dirichlet": [[1, 0], [1, 1]],
    }
    return _hemisphere_shell(p, 0.5 * np.pi - np.deg2rad(p["hole_deg"]), meta)


def _make_hyperboloid(params):
    p = _take(
        params,
        {"r_middle": 0.5, "r_top": 1.0, "thickness": 0.3, "zmin": -1.0, "zmax": 1.0},
    )
    _require(0 < p["r_middle"] < p["r_top"], "need 0 < r_middle < r_top")
    _require(0 < p["thickness"] < 2 * p["r_middle"], "invalid shell thickness")
    _require(p["zmin"] < p["zmax"], "need zmin < zmax")
    kv_h, h_ctrl, h_w = _hyperbola_net(p["r_top"], p["r_middle"], p["zmin"], p["zmax"])
    offs = np.array([-0.5, 0.5]) * p["thickness"]
    rho = h_ctrl[:, 0, None] + offs
    section = (kv_h, _linear_knots(), rho, h_ctrl[:, 1, None], h_w[:, None])
    meta = {
        "name": "hyperboloid",
        "params": p,
        "directions": ("angular", "height", "thickness"),
        "default_dirichlet": [[1, 0], [1, 1]],
    }
    return _revolve(_full_circle_net(), section, meta)


def _make_quarter_torus(params):
    p = _take(params, {"r_in": 0.5, "r_out": 1.0, "R": 3.0})
    _require(0 < p["r_in"] < p["r_out"], "need 0 < r_in < r_out")
    _require(p["R"] > p["r_out"], "toroidal radius must exceed r_out")
    kv_p, p_ctrl, p_w = _full_circle_net()  # poloidal section
    rho, z = p_ctrl.T[:, :, None] * np.array([p["r_in"], p["r_out"]])
    section = (kv_p, _linear_knots(), p["R"] + rho, z, p_w[:, None])
    meta = {
        "name": "quarter_torus",
        "params": p,
        "directions": ("toroidal", "poloidal", "radial"),
        "default_dirichlet": [[2, 0], [2, 1]],
    }
    # toroidal quarter sweep
    return _revolve(_arc_net(0.0, 0.5 * np.pi), section, meta)


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


def _float_array(value, what: str) -> np.ndarray:
    """``value``, a JSON number or nested lists of them, as a float array."""
    def numeric(v):
        if isinstance(v, list):
            return all(numeric(x) for x in v)
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    if not numeric(value):
        raise GeometryError(f"{what} must hold numbers only")
    try:
        return np.asarray(value, dtype=float)
    except ValueError as exc:  # ragged nesting
        raise GeometryError(f"{what} must be a regular array of numbers") from exc


def patch_from_json(text: str) -> GeometryPatch:
    """The patch :func:`patch_to_json` wrote. A document without its four
    fields, or with a field of the wrong type, raises GeometryError."""
    doc = json.loads(text)
    fields = ("knots", "degrees", "control_points", "weights")
    if not (isinstance(doc, dict) and all(k in doc for k in fields)):
        raise GeometryError(f"a patch is an object with fields {', '.join(fields)}")
    knots, degrees = doc["knots"], doc["degrees"]
    if not (isinstance(knots, list) and len(knots) == 3):
        raise GeometryError("knots must be a list of three knot vectors")
    if not (isinstance(degrees, list) and len(degrees) == 3
            and all(type(p) is int for p in degrees)):
        raise GeometryError("degrees must be a list of three integers")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise GeometryError("metadata must be an object")
    bases = tuple(
        Basis1D(KnotVector(_float_array(kn, "knots"), p), None)
        for kn, p in zip(knots, degrees)
    )
    return GeometryPatch(
        bases,
        _float_array(doc["control_points"], "control_points"),
        _float_array(doc["weights"], "weights"),
        metadata,
    )
