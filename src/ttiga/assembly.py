"""TT-format Galerkin assembly of the Poisson stiffness operator and load.

The nine stiffness contributions K_ij pair a cross-interpolated metric
entry R_ij on the quadrature grid with per-direction contractions of
basis values or derivatives: the derivative-derivative factor when the
direction matches both gradient indices, the value-value factor when it
matches neither, and the mixed factor otherwise (derivative on the test
side where the direction equals i, on the trial side where it equals j).
The metric is symmetric, so six crosses serve the nine terms: R_ij with
i < j feeds both K_ij and K_ji, which makes the operator exactly
symmetric, and each cross's oracle forms only its own entry. Each 1D
factor is banded with half-bandwidth p, so the terms are contracted into
band cores (r, n, 2p+1, r') and summed in TT with rounding after each
addition; the sum is unpacked to dense operator cores once, which leaves K
exactly banded.

Dirichlet data are constant per face. By the B-spline partition of unity
a face's coefficient layer equals its value, so the boundary lift is an
exact rank-1 train built with no geometry evaluation. The conditions are
eliminated by interior core slicing plus a right-hand-side correction with
the lift, which preserves both symmetry and TT ranks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import GeometryPatch, GridEvaluator, _is_finite_real, _line_index, det3
from .splines import Basis1D, basis_windows
from .tensor_train import (
    CrossOracle,
    TtMatrix,
    TtTensor,
    tt_cross,
    tt_matvec,
    tt_round,
    tt_sub,
)

__all__ = [
    "AssemblyError",
    "Discretization",
    "FaceCondition",
    "BoundarySpec",
    "AssembledSystem",
    "build_quadrature",
    "assemble_stiffness",
    "assemble_load",
    "apply_dirichlet",
]

FACES = tuple((axis, side) for axis in range(3) for side in range(2))


class AssemblyError(ValueError):
    """Invalid discretization or boundary setup."""


@dataclass(frozen=True)
class _DirTables:
    """Per-direction quadrature rule and active-window basis tables."""

    points: np.ndarray  # (nq,)
    weights: np.ndarray  # (nq,)
    starts: np.ndarray  # (nq,) first active basis index per point
    vals: np.ndarray  # (nq, p+1)
    ders: np.ndarray  # (nq, p+1)


@dataclass(frozen=True)
class Discretization:
    """Solution spaces plus the tensorized Gauss rule over their knot spans."""

    solution_bases: tuple[Basis1D, Basis1D, Basis1D]
    tables: tuple[_DirTables, _DirTables, _DirTables]
    n_gauss: tuple[int, int, int]

    @property
    def mode_sizes(self) -> tuple:
        return tuple(b.n_basis for b in self.solution_bases)

    @property
    def quad_shape(self) -> tuple:
        return tuple(t.points.size for t in self.tables)

    @property
    def n_dofs(self) -> int:
        return int(np.prod(self.mode_sizes, dtype=np.int64))

    def quad_axes(self):
        return [t.points for t in self.tables]


def build_quadrature(solution_bases, n_gauss=None) -> Discretization:
    """Per-span Gauss-Legendre rule, concatenated per direction.

    ``n_gauss`` defaults to degree + 1 points per span, which integrates the
    polynomial part of every stiffness integrand exactly; the rational
    geometry factors are controlled by the cross tolerance instead.
    """
    solution_bases = tuple(solution_bases)
    if len(solution_bases) != 3:
        raise AssemblyError("need exactly three solution bases")
    if n_gauss is None:
        per_dir = [b.degree + 1 for b in solution_bases]
    elif np.isscalar(n_gauss):
        per_dir = [int(n_gauss)] * 3
    else:
        per_dir = [int(g) for g in n_gauss]
    tables = []
    for basis, g in zip(solution_bases, per_dir):
        if basis.is_rational:
            raise AssemblyError("solution bases must be polynomial B-splines")
        if g < basis.degree + 1:
            raise AssemblyError(
                f"need at least degree+1={basis.degree + 1} Gauss points, got {g}"
            )
        ref_x, ref_w = np.polynomial.legendre.leggauss(g)
        kv = basis.knot_vector
        kn = kv.knots
        pts, wts = [], []
        for i in kv.spans():
            a, b = kn[i], kn[i + 1]
            pts.append(0.5 * (a + b) + 0.5 * (b - a) * ref_x)
            wts.append(0.5 * (b - a) * ref_w)
        pts = np.concatenate(pts)
        wts = np.concatenate(wts)
        starts, vals, ders = basis_windows(basis, pts)
        tables.append(_DirTables(pts, wts, starts, vals, ders))
    return Discretization(solution_bases, tuple(tables), tuple(per_dir))


# ---------------------------------------------------------------------------
# cross oracles on the quadrature grid

# points per block of grid evaluation, shared by the cross oracles' line
# chunks and the error quadrature's slabs (one ring e=32 slab). A block's
# Jacobians and basis sums take some 50 doubles per point, so larger blocks
# raise the peak memory; on the torus, 2^15 was no faster.
_BLOCK = 1 << 13


def _grid_oracle(ev: GridEvaluator, values) -> CrossOracle:
    """Cross oracle of ``values(jac, pts, idx)`` on the grid of ``ev``:
    pointwise (the cross's holdout samples), and on whole grid lines in
    chunks of at most ``_BLOCK`` points (its fibers), at least one line."""

    def fn(idx):
        jac, pts = ev.jacobians(idx)
        return values(jac, pts, idx)

    def lines(k, fixed):
        step = max(1, _BLOCK // ev.shape[k])
        out = []
        for m in range(0, fixed.shape[0], step):
            part = fixed[m: m + step]
            jac, pts = ev.lines(k, part)
            out.append(values(jac, pts, _line_index(ev.shape, k, part)))
        return np.concatenate(out).reshape(fixed.shape[0], ev.shape[k])

    return CrossOracle(fn, ev.shape, lines)


def metric_oracle(ev: GridEvaluator, i: int, j: int) -> CrossOracle:
    """Entry (i, j) of the metric factor, sampled on the quadrature grid;
    only that entry is formed at each point."""
    return _grid_oracle(ev, lambda jac, pts, idx: ev.metric_entry(jac, idx, i, j))


def load_oracle(ev: GridEvaluator, source) -> CrossOracle:
    """Source times Jacobian determinant on the quadrature grid.

    det J is :func:`det3` of J, not the homogeneous-sum form of
    :attr:`~ttiga.geometry.MapEval.det`: the two differ in the last bit, and
    AMEn, which solves only to ``eps_solve``, carries such a change in f to
    ~1e-10 of the L-shape ladder's errors.
    """
    return _grid_oracle(ev, lambda jac, pts, idx: source(pts) * det3(jac))


def metric_scale(ev: GridEvaluator, rng: np.random.Generator):
    """RMS magnitude of the whole metric tensor on 512 random grid points.

    Used as the common error scale for the six per-entry cross calls, so
    entries that vanish identically (orthogonal parameterizations) resolve
    as zero instead of fitting round-off noise.
    """
    idx = np.stack([rng.integers(0, n, size=512) for n in ev.shape], axis=1)
    _, R = ev.metric(idx)
    return float(np.sqrt(np.mean(R**2)))


# ---------------------------------------------------------------------------
# contraction of quadrature-grid trains against basis windows

def _contract_matrix_core(core, tab: _DirTables, test_deriv: bool, trial_deriv: bool):
    """Quadrature-weighted operator core from one grid core, in band form
    (r, n, 2p+1, r'): entry [:, a, m, :] couples test function a with trial
    function a + m - p."""
    r, nq, s = core.shape
    p1 = tab.vals.shape[1]
    n = tab.starts.max() + p1  # == n_basis for clamped bases
    X = tab.ders if test_deriv else tab.vals
    Y = tab.ders if trial_deriv else tab.vals
    E = np.einsum("rqs,q,qa,qb->qabrs", core, tab.weights, X, Y, optimize=True)
    offs = np.arange(p1)
    rows = tab.starts[:, None, None] + offs[None, :, None]
    band = (offs[None, :] - offs[:, None] + p1 - 1)[None]
    rows, band = np.broadcast_arrays(rows, band)
    B = np.zeros((n, 2 * p1 - 1, r, s))
    np.add.at(B, (rows, band), E)
    return B.transpose(2, 0, 1, 3)


def _unband(B):
    """Dense (r, n, n, r') operator core of a band core (r, n, 2p+1, r').

    Band slots that fall outside the matrix are dropped, so the result is
    exactly banded whatever rounding left in them.
    """
    r, n, w, s = B.shape
    cols = np.arange(n)[:, None] + np.arange(w)[None, :] - w // 2
    a, m = np.nonzero((cols >= 0) & (cols < n))
    M = np.zeros((r, n, n, s))
    M[:, a, cols[a, m], :] = B[:, a, m, :]
    return M


def _contract_vector_core(core, tab: _DirTables):
    """Quadrature-weighted (r, n, r') load core from one grid core."""
    r, nq, s = core.shape
    n = tab.starts.max() + tab.vals.shape[1]
    E = np.einsum("rqs,q,qa->qars", core, tab.weights, tab.vals, optimize=True)
    a_idx = tab.starts[:, None] + np.arange(tab.vals.shape[1])[None, :]
    V = np.zeros((n, r, s))
    np.add.at(V, (a_idx,), E)
    return V.transpose(1, 0, 2)


def assemble_stiffness(
    patch: GeometryPatch,
    disc: Discretization,
    eps_cross: float,
    eps_round: float,
    rank_cap: int = 64,
    rng: np.random.Generator | None = None,
):
    """Assemble the stiffness operator in TT format.

    Six crosses interpolate the distinct metric entries R_ij, i <= j; each
    off-diagonal one is contracted into both K_ij and K_ji, which gives the
    nine terms. The terms are summed in band form, as trains over the fused
    n*(2p+1) mode, and unpacked to dense operator cores once at the end.

    ``eps_cross`` is the tolerance of the six metric crosses and
    ``eps_round`` that of the rounding after each term is added. Returns
    ``(K, info)`` where ``info`` records per-entry cross errors (keys R11,
    R12, R13, R22, R23, R33) and both tolerances. ``K`` covers the full
    coefficient space; apply :func:`apply_dirichlet` to eliminate
    constrained layers.
    """
    rng = rng or np.random.default_rng()
    ev = GridEvaluator(patch, disc.quad_axes())
    scale = metric_scale(ev, rng)
    info = {
        "eps_cross": eps_cross,
        "eps_round": eps_round,
        "cross_errors": {},
        "cross_converged": {},
        "n_evals": 0,
    }
    K = None
    for i, j in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)):
        res = tt_cross(
            metric_oracle(ev, i, j), eps_cross, rank_cap=rank_cap, rng=rng,
            scale=scale,
        )
        info["cross_errors"][f"R{i + 1}{j + 1}"] = res.holdout_error
        info["cross_converged"][f"R{i + 1}{j + 1}"] = res.converged
        info["n_evals"] += res.n_evals
        for test, trial in ((i, j),) if i == j else ((i, j), (j, i)):
            term = TtTensor(
                [
                    _contract_matrix_core(
                        G, tab, test_deriv=(d == test), trial_deriv=(d == trial)
                    ).reshape(G.shape[0], -1, G.shape[2])
                    for d, (G, tab) in enumerate(zip(res.tensor.cores, disc.tables))
                ]
            )
            K = term if K is None else tt_round(K + term, eps_round)
    cores = [
        _unband(G.reshape(G.shape[0], n, -1, G.shape[2]))
        for G, n in zip(K.cores, disc.mode_sizes)
    ]
    return TtMatrix(cores), info


def assemble_load(
    patch: GeometryPatch,
    disc: Discretization,
    source,
    eps: float,
    rank_cap: int = 64,
    rng: np.random.Generator | None = None,
):
    """Assemble the volumetric load vector in TT format.

    ``source`` maps physical points (N, 3) to values (N,); it is sampled
    jointly with the Jacobian determinant in a single cross call. Returns
    ``(f, info)``.
    """
    rng = rng or np.random.default_rng()
    ev = GridEvaluator(patch, disc.quad_axes())
    res = tt_cross(load_oracle(ev, source), eps, rank_cap=rank_cap, rng=rng)
    cores = [
        _contract_vector_core(res.tensor.cores[d], disc.tables[d]) for d in range(3)
    ]
    info = {
        "eps_cross": eps,
        "cross_error": res.holdout_error,
        "cross_converged": res.converged,
        "n_evals": res.n_evals,
    }
    return TtTensor(cores), info


# ---------------------------------------------------------------------------
# boundary conditions

@dataclass(frozen=True)
class FaceCondition:
    """Condition on one face of the parametric box.

    A Dirichlet ``value`` is constant over the face: any finite real number
    (not a bool), stored as a float.
    """

    kind: str  # "dirichlet" | "natural"
    value: float = 0.0

    def __post_init__(self):
        if self.kind not in ("dirichlet", "natural"):
            raise AssemblyError(f"unknown face condition {self.kind!r}")
        if not _is_finite_real(self.value):
            raise AssemblyError(
                f"face value must be a finite number, got {self.value!r}"
            )
        object.__setattr__(self, "value", float(self.value))


@dataclass(frozen=True)
class BoundarySpec:
    """Per-face conditions; faces are keyed by (axis, side) with side 0 or 1."""

    faces: dict = field(default_factory=dict)

    def __post_init__(self):
        for key, fc in self.faces.items():
            if key not in FACES:
                raise AssemblyError(f"bad face key {key!r}")
            if not isinstance(fc, FaceCondition):
                raise AssemblyError("face values must be FaceCondition")

    def condition(self, axis: int, side: int) -> FaceCondition:
        return self.faces.get((axis, side), FaceCondition("natural"))

    def dirichlet_faces(self):
        return [
            (axis, side)
            for (axis, side) in FACES
            if self.condition(axis, side).kind == "dirichlet"
        ]

    @staticmethod
    def all_dirichlet(value=0.0) -> "BoundarySpec":
        return BoundarySpec(
            {f: FaceCondition("dirichlet", value) for f in FACES}
        )

    def interior_slices(self, mode_sizes):
        out = []
        for axis, n in enumerate(mode_sizes):
            lo = 1 if self.condition(axis, 0).kind == "dirichlet" else 0
            hi = n - (1 if self.condition(axis, 1).kind == "dirichlet" else 0)
            if hi - lo < 1:
                raise AssemblyError(f"no interior freedom left along axis {axis}")
            out.append(slice(lo, hi))
        return tuple(out)


@dataclass
class AssembledSystem:
    """Dirichlet-reduced system plus the boundary lift in full space."""

    K: TtMatrix  # interior operator
    f: TtTensor  # interior right-hand side
    lift: TtTensor  # boundary extension over the full coefficient space
    interior: tuple  # per-direction slices into the full space
    metadata: dict = field(default_factory=dict)


def _restrict_tensor(t: TtTensor, slices) -> TtTensor:
    return TtTensor([G[:, s, :] for G, s in zip(t.cores, slices)])


def _restrict_matrix(K: TtMatrix, slices) -> TtMatrix:
    return TtMatrix([G[:, s, s, :] for G, s in zip(K.cores, slices)])


def _lift_tensor(bc: BoundarySpec, sizes) -> TtTensor:
    """Rank-1 TT boundary extension of the constant Dirichlet data.

    Faces with nonzero data must not share an edge (the benchmark problems
    prescribe nonzero values only on opposite faces), so they all lie on
    one axis. The lift is ones in the two other directions times a vector
    along that axis holding each face's value at its end, zero elsewhere.
    """
    nonzero = [
        (axis, side)
        for (axis, side) in bc.dirichlet_faces()
        if bc.condition(axis, side).value != 0.0
    ]
    axes = {axis for axis, _ in nonzero}
    if len(axes) > 1:
        raise AssemblyError(
            "nonzero Dirichlet data on adjacent faces is not supported"
        )
    if not axes:
        return TtTensor.zeros(sizes)
    (axis,) = axes
    vectors = [np.ones(n) for n in sizes]
    vectors[axis] = np.zeros(sizes[axis])
    for _, side in nonzero:
        vectors[axis][0 if side == 0 else -1] = bc.condition(axis, side).value
    return TtTensor.rank_one(vectors)


def apply_dirichlet(
    K: TtMatrix,
    f: TtTensor,
    bc: BoundarySpec,
    disc: Discretization,
    eps: float = 1e-12,
) -> AssembledSystem:
    """Reduce to the interior unknowns; boundary data moves to the RHS.

    The lift is the rank-1 train of the constant face values (see
    :func:`_lift_tensor`); no geometry is evaluated. The reduced
    right-hand side is restrict(f) - restrict(K @ lift), rounded to
    ``eps``, and the reduced operator is the interior core slice of K,
    which keeps symmetry and ranks intact.
    """
    if not bc.dirichlet_faces():
        raise AssemblyError("Poisson operator is singular without a Dirichlet face")
    sizes = disc.mode_sizes
    if K.row_sizes != sizes or f.mode_sizes != sizes:
        raise AssemblyError("operator/load sizes do not match the discretization")
    slices = bc.interior_slices(sizes)
    lift = _lift_tensor(bc, sizes)
    f_int = _restrict_tensor(f, slices)
    if all(G.any() for G in lift.cores):  # a rank-1 train is zero iff a core is
        correction = _restrict_tensor(tt_matvec(K, lift), slices)
        f_int = tt_round(tt_sub(f_int, correction), eps)
    K_int = _restrict_matrix(K, slices)
    return AssembledSystem(
        K_int,
        f_int,
        lift,
        slices,
        {
            "eps": eps,
            "dirichlet_faces": bc.dirichlet_faces(),
            "ranks_K": K_int.ranks,
            "ranks_f": f_int.ranks,
            "ranks_lift": lift.ranks,
        },
    )
