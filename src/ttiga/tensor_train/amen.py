"""Alternating minimal-energy solver for linear systems in TT format.

Sweeps update one solution core at a time by solving the Galerkin-projected
local system in the orthogonal frame of the remaining cores; after each
update the core basis is enriched with a low-rank projection of the current
residual, which restores global convergence of the alternating scheme
(Dolgov & Savostyanov, SIAM J. Sci. Comput. 36, 2014). As in their
``amen_solve2``, the residual is approximated by a TT z of its own, of rank
``kick_rank``, whose cores are updated from local projections of f - A u, so
no sweep forms the exact residual; one exact residual certifies the result.

Intended for the symmetric positive definite operators produced by the
stiffness assembly. Each local operator is sum phiL (x) M_k (x) phiR with
M_k banded (half-bandwidth p), and the core's shape alone picks its solver:

* a core with a unit rank on either side (the edge cores, and rank-1 middle
  cores) is solved directly by a banded Cholesky factorization with the
  unknowns ordered mode-major, (i, x, z), which bounds the half-bandwidth by
  (p + 1) r0 r1 - 1; a matrix that is not positive definite falls back to a
  banded LU;
* every other core is solved by conjugate gradients preconditioned with
  block Jacobi in per-side frames that diagonalize the interface slices:
  the banded n x n diagonal blocks of each (x, z) rank pair of the rotated
  operator, factored once per system. A side with at most two slices is
  diagonalized exactly by a generalized eigenbasis, so with two slices on
  both sides the preconditioner is the exact inverse. This is the fast
  diagonalization of Lynch, Rice & Thomas (Numer. Math. 6, 1964) applied to
  the local Kronecker sum; ``amen_solve2``'s ``cjacobi`` is the special case
  of identity frames.

A half-sweep starts at the core where the previous one ended, with the same
interfaces and right-hand side, so that core's solution is reused.

Operator cores are held as their 2p + 1 diagonals, which is where the
banded 1D factors of the IGA operator put them (Bunger, Dolgov & Stoll, SIAM
J. Sci. Comput. 42, 2020). Every contraction with a core (the local matvec,
the interface updates and the certificate) runs over the band one block of
mode rows at a time, as GEMMs over the ranks, so no step holds a whole
(rank, n, rank, rank) intermediate. The certificate ||f - A u|| is streamed
the same way: a right-to-left sweep of R factors over the train f - A u,
whose cores are formed block by block and folded in by a running QR, so
neither A u nor f - A u is ever formed.

Each half-sweep logs one debug record: the z estimate, the largest
pre-solve local residual, ranks, banded and CG local solve counts, and total
CG iterations; each certificate logs the estimate, the exact residual and
pass or fail.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

# tt_matvec and tt_sub are not called here; they stay importable because the
# benchmark's layer trace (perfbench/layertrace.py) wraps them by name
from .core import TtMatrix, TtTensor, _orth_sweep, tt_matvec, tt_norm, tt_round, tt_sub

__all__ = ["AmenOptions", "AmenResult", "amen_solve"]

log = logging.getLogger(__name__)

# z's projection reads the residual low, by 1.4x to 170x (median ~9x) at the
# half-sweep ends of the benchmark's systems. Certifying only within
# eps / _CERTIFY_MARGIN skipped most failing certificates there and never
# cost a half-sweep, which is dearer than several certificates.
_CERTIFY_MARGIN = 10.0
_CG_MAXITER = 1500
# elements in one block of the band kernel's arrays (its column window and
# its product): blocks of mode rows are sized from it, so no contraction
# holds a whole (rank, n, rank, rank) intermediate. On quarter_torus e=128 a
# middle-core block has 3 (certificate) to 18 rows; smaller blocks cost
# Python overhead per block, larger ones memory
_BLOCK_ELEMS = 1 << 17


@dataclass
class AmenOptions:
    kick_rank: int = 4
    max_sweeps: int = 50


@dataclass
class AmenResult:
    solution: TtTensor
    residual: float
    converged: bool
    sweeps: int

    @property
    def ranks(self):
        return self.solution.ranks


class _OpCore:
    """One operator core held as its band, the layouts the band kernel reads.

    ``fwd[i, a, t, b]`` is entry (i, i + t - hb) of the dense core's slice
    (a, b), for t = 0..2 hb; slots whose column falls outside the matrix are
    zero. ``hb`` is the largest |i - j| of a nonzero entry, the spline
    degree for stiffness cores. ``rev`` holds the same band with the rank
    axes swapped, ``rev[i, b, t, a]``, for contractions over the right
    rank. Every contraction with the core goes through
    :func:`_band_blocks`, so its cost and memory follow the band.
    """

    def __init__(self, M: np.ndarray):
        a, n, _, b = M.shape
        rows = np.arange(n)
        dist = np.abs(rows[:, None] - rows[None, :])
        self.hb = int(np.max(dist, where=np.any(M, axis=(0, 3)), initial=0))
        cols = rows[:, None] + np.arange(-self.hb, self.hb + 1)
        inside = (cols >= 0) & (cols < n)
        band = M[:, rows[:, None], np.clip(cols, 0, n - 1), :] * inside[:, :, None]
        self.n = n
        self.fwd = np.ascontiguousarray(band.transpose(1, 0, 2, 3))
        self.rev = np.ascontiguousarray(band.transpose(1, 3, 2, 0))

    def lower(self, m: int) -> np.ndarray:
        """Diagonal m below the main one: D[j, a, b] = M[a, j + m, j, b]."""
        return self.fwd[m:, :, self.hb - m, :]


def _band_blocks(D, phi, Ut):
    """An operator core applied between an interface and a core, one block
    of mode rows at a time.

    ``D`` is :attr:`_OpCore.fwd` or :attr:`_OpCore.rev`, with axes (i, c, t,
    e); ``phi`` is (s, c, v) and ``Ut`` is (j, w, v), the core with its mode
    axis first. Yields (i0, i1, Y) for consecutive blocks of rows, with

        Y[i - i0, w, s, e] = sum_(c, v, j) D_i(c, j, e) phi[s, c, v] Ut[j, w, v],

    D_i(c, j, e) being the core's entry (i, j). T = phi contracted with Ut
    is formed once per column j, into a window that holds a block's columns
    i0 - hb .. i1 + hb - 1; each of the 2 hb + 1 offsets adds one GEMM over
    c, batched over the block's rows. A block's arrays hold about
    ``_BLOCK_ELEMS`` elements besides the window's halo of 2 hb columns.
    """
    n, c, width, e = D.shape
    h = width // 2
    w, s, nv = Ut.shape[1], phi.shape[0], phi.shape[2]
    P = w * s
    step = min(n, max(1, _BLOCK_ELEMS // (P * (c + 2 * e))))
    Up = np.pad(Ut, ((h, h), (0, 0), (0, 0)))
    rhs = phi.transpose(2, 0, 1).reshape(nv, s * c)
    T = np.empty((step + 2 * h, P, c))
    buf = np.empty((step, P, e))

    def fill(rows, j0, j1):  # T rows <- padded columns j0 .. j1 - 1
        np.matmul(Up[j0:j1].reshape(-1, nv), rhs, out=rows.reshape(-1, s * c))

    fill(T[: 2 * h], 0, 2 * h)
    for i0 in range(0, n, step):
        i1 = min(i0 + step, n)
        B = i1 - i0
        fill(T[2 * h: 2 * h + B], i0 + 2 * h, i1 + 2 * h)
        Y = np.matmul(T[:B], D[i0:i1, :, 0])
        for t in range(1, width):
            Y += np.matmul(T[t: t + B], D[i0:i1, :, t], out=buf[:B])
        yield i0, i1, Y.reshape(B, w, s, e)
        T[: 2 * h] = T[B: B + 2 * h]


def _env_left_A(phi, V, U, op: _OpCore):
    """Left interface V^T A U advanced past one core; V is the row side."""
    out = sum(
        np.tensordot(V[:, i0:i1], Y, axes=([0, 1], [2, 0]))
        for i0, i1, Y in _band_blocks(op.fwd, phi, U.transpose(1, 2, 0))
    )
    return np.ascontiguousarray(out.transpose(0, 2, 1))  # (u, b, v)


def _env_right_A(phi, V, U, op: _OpCore):
    """Right interface V^T A U advanced past one core; V is the row side."""
    out = sum(
        np.tensordot(V[:, i0:i1], Y, axes=([1, 2], [0, 2]))
        for i0, i1, Y in _band_blocks(op.rev, phi, U.transpose(1, 0, 2))
    )
    return np.ascontiguousarray(out.transpose(0, 2, 1))  # (z, a, w)


def _env_step(env, V, U, op: _OpCore, F, forward: bool):
    """Interface pair (A environment, f environment) advanced past one core
    in the sweep's direction; V is the row-side core and U is u's."""
    if forward:
        phif = np.einsum("xc,xiu,cif->uf", env[1], V, F, optimize=True)
        return _env_left_A(env[0], V, U, op), phif
    phif = np.einsum("vf,ziv,cif->zc", env[1], V, F, optimize=True)
    return _env_right_A(env[0], V, U, op), phif


def _residual_norm(ops, f: TtTensor, u) -> float:
    """||f - A u|| for the operator cores ``ops`` and u's cores ``u``.

    One right-to-left sweep of R factors over the train f - A u, as
    :func:`tt_norm` runs it, without forming that train: core k of f - A u
    is block diagonal in f's core and A_k u_k, and its rows (i, m) after
    contraction with the R factor of the cores to its right are formed one
    block of mode rows at a time and folded into the next R factor by a
    running QR. The columns of A u's block are ordered (u rank, A rank).
    """
    R = np.array([[1.0, -1.0]])  # f - A u: the one place the sign enters
    sq = 0.0
    for k in range(len(u) - 1, -1, -1):
        F, U, op = f.cores[k], u[k], ops[k]
        m, rf = R.shape[0], F.shape[2]
        Rf = R[:, :rf]
        Ry = R[:, rf:].reshape(m, U.shape[2], -1).transpose(0, 2, 1)  # (m, b, y)
        Rk = None
        for i0, i1, Y in _band_blocks(op.rev, Ry, U.transpose(1, 0, 2)):
            Fb = np.tensordot(F[:, i0:i1], Rf, axes=([2], [1]))  # (c, i, m)
            Yb = Y.transpose(0, 2, 1, 3)  # (i, m, x, a)
            if k == 0:  # the first cores add up: both have left rank 1
                sq += float(np.sum((Fb[0] + Yb[:, :, 0, 0]) ** 2))
            else:
                rows = np.concatenate(
                    [Fb.transpose(1, 2, 0), Yb.reshape(i1 - i0, m, -1)], axis=2
                ).reshape((i1 - i0) * m, -1)
                if Rk is not None:
                    rows = np.concatenate([Rk, rows])
                Rk = np.linalg.qr(rows, mode="r")
        R = Rk
    return math.sqrt(sq)


def _banded_solver(ab: np.ndarray):
    """Solve callable for the symmetric matrix with lower band ``ab``.

    ``ab[m, j]`` holds entry (j + m, j). The band is Cholesky-factored once;
    a matrix that is not positive definite falls back to a pivoted LU of
    the mirrored full band.
    """
    try:
        c = sla.cholesky_banded(ab, lower=True, check_finite=False)
        return lambda b: sla.cho_solve_banded((c, True), b, check_finite=False)
    except np.linalg.LinAlgError:
        bw = ab.shape[0] - 1
        full = np.zeros((2 * bw + 1, ab.shape[1]))
        full[bw:] = ab
        for m in range(1, bw + 1):
            full[bw - m, m:] = ab[m, :-m]
        return lambda b: sla.solve_banded((bw, bw), full, b, check_finite=False)


def _side_frame(phi, weight, trace_w):
    """Frame of one interface side; see :meth:`_LocalSystem.frames`.

    ``weight[a]`` is slice a's Frobenius weight in the Kronecker sum and
    ``trace_w[a]`` its coefficient in the side's partial trace.
    """
    S = phi[:, int(np.argmax(weight)), :]
    S = 0.5 * (S + S.T)
    if phi.shape[1] <= 2:
        T = np.einsum("xay,a->xy", phi, trace_w)
        try:
            C = np.linalg.cholesky(0.5 * (T + T.T))
        except np.linalg.LinAlgError:
            pass
        else:
            # S q = lam T q through T = C C^T: Q = C^-T W, W the
            # eigenvectors of C^-1 S C^-T
            Ci = sla.solve_triangular(C, np.eye(C.shape[0]), lower=True)
            return Ci.T @ np.linalg.eigh(Ci @ S @ Ci.T)[1]
    return np.linalg.eigh(S)[1]


class _LocalSystem:
    """Projected operator at one core: y -> phiL * A_k * phiR applied to y.

    Unknowns are stored as (x, i, z): left rank, mode index, right rank.
    """

    def __init__(self, phiL, op: _OpCore, phiR):
        self.phiL = phiL
        self.op = op
        self.phiR = phiR
        self.shape3 = (phiL.shape[2], op.n, phiR.shape[2])
        self.size = int(np.prod(self.shape3))

    def matvec3(self, v):
        out = np.empty((self.phiL.shape[0], self.op.n, self.phiR.shape[0]))
        for i0, i1, Y in _band_blocks(self.op.fwd, self.phiL, v.transpose(1, 2, 0)):
            Y = np.tensordot(Y, self.phiR, axes=([1, 3], [2, 1]))  # (i, x, z)
            out[:, i0:i1] = Y.transpose(1, 0, 2)
        return out

    def mode_major_band(self):
        """Lower band of the whole matrix with unknowns ordered (i, x, z).

        With R = r0 r1 unknowns per mode index the half-bandwidth is
        (hb + 1) R - 1; entry (j + m, xz), (j, yw) sits at band row
        m R + xz - yw, column j R + yw.
        """
        r0, n, r1 = self.shape3
        R = r0 * r1
        ab = np.zeros(((self.op.hb + 1) * R, n * R))
        e = np.arange(R)
        for m in range(self.op.hb + 1):
            blocks = np.einsum(
                "xay,nab,zbw->nxzyw", self.phiL, self.op.lower(m), self.phiR,
                optimize=True,
            ).reshape(n - m, R, R)
            rows = m * R + e[:, None] - e[None, :]
            cols = (np.arange(n - m) * R)[:, None, None] + np.tile(e, (R, 1))
            keep = rows >= 0  # the upper half of the m = 0 blocks
            ab[rows[keep], cols[:, keep]] = blocks[:, keep]
        return ab

    def block_jacobi_band(self):
        """Lower band of the (x, z) diagonal blocks, ordered (x, z, i).

        Block (x, z) is the banded n x n matrix
        sum_ab phiL[x,a,x] M[a,:,:,b] phiR[z,b,z]; placed one after the
        other they form one band of half-width hb with no coupling across
        blocks.
        """
        r0, n, r1 = self.shape3
        dL = np.einsum("xax->xa", self.phiL)
        dR = np.einsum("zbz->zb", self.phiR)
        ab = np.zeros((self.op.hb + 1, r0 * r1 * n))
        for m in range(self.op.hb + 1):
            ab[m].reshape(r0, r1, n)[:, :, : n - m] = np.einsum(
                "xa,nab,zb->xzn", dL, self.op.lower(m), dR, optimize=True
            )
        return ab

    def frames(self):
        """Per-side frames Q_L, Q_R in which the interface slices
        phiL[:, a, :] and phiR[:, b, :] are diagonal, or nearly so.

        Each side starts from its heaviest slice S, the one with the
        largest Frobenius weight in the Kronecker sum, and its partial trace
        T (phiL's is Tr_(i,z) of the local operator, SPD whenever that is).
        A side with at most two slices takes the eigenvectors of the pencil
        (S, T), which diagonalize every slice; a side with more, or whose T
        is not positive definite, takes the orthonormal eigenvectors of S.
        """
        band, hb = self.op.fwd, self.op.hb
        nM = np.sqrt(np.einsum("iatb,iatb->ab", band, band))
        trM = band[:, :, hb, :].sum(axis=0)
        nL = np.linalg.norm(self.phiL, axis=(0, 2))
        nR = np.linalg.norm(self.phiR, axis=(0, 2))
        trL = np.einsum("xax->a", self.phiL)
        trR = np.einsum("zbz->b", self.phiR)
        return (
            _side_frame(self.phiL, nL * (nM @ nR), trM @ trR),
            _side_frame(self.phiR, nR * (nM.T @ nL), trM.T @ trL),
        )

    def preconditioner(self):
        """P^-1 as a callable on flat (x, i, z) vectors: block Jacobi in the
        frames of :meth:`frames`.

        With Q = Q_L (x) I (x) Q_R, P^-1 = Q B^-1 Q^T, where B holds the
        (x, z) diagonal blocks of Q^T A Q, factored once; P is SPD by
        congruence whenever B is.
        """
        r0, n, r1 = self.shape3
        QL, QR = self.frames()
        rot = _LocalSystem(
            np.einsum("xp,xay,yq->paq", QL, self.phiL, QL, optimize=True),
            self.op,
            np.einsum("zp,zbw,wq->pbq", QR, self.phiR, QR, optimize=True),
        )
        blocks = _banded_solver(rot.block_jacobi_band())

        def apply(v):
            w = (QL.T @ v.reshape(r0, n * r1)).reshape(r0 * n, r1) @ QR
            w = w.reshape(r0, n, r1).transpose(0, 2, 1).ravel()
            y = blocks(w).reshape(r0, r1, n).transpose(0, 2, 1)
            y = (QL @ y.reshape(r0, n * r1)).reshape(r0 * n, r1) @ QR.T
            return y.ravel()

        return apply

    def solve(self, rhs3, x0, rtol):
        """Local solution and its CG iteration count (None when direct).

        A core with a unit rank on either side is solved directly through
        its mode-major band; any other core by CG preconditioned with
        :meth:`preconditioner`.
        """
        r0, n, r1 = self.shape3
        if min(r0, r1) == 1:
            x = _banded_solver(self.mode_major_band())(
                rhs3.transpose(1, 0, 2).ravel()
            )
            return x.reshape(n, r0, r1).transpose(1, 0, 2), None

        A = spla.LinearOperator(
            (self.size, self.size),
            matvec=lambda v: self.matvec3(v.reshape(self.shape3)).ravel(),
        )
        M = spla.LinearOperator((self.size, self.size), matvec=self.preconditioner())
        iters = 0

        def count(_):
            nonlocal iters
            iters += 1

        x, _ = spla.cg(
            A,
            rhs3.ravel(),
            x0=None if x0 is None else x0.ravel(),
            rtol=max(rtol, 1e-14),
            atol=0.0,
            maxiter=_CG_MAXITER,
            M=M,
            callback=count,
        )
        return x.reshape(self.shape3), iters


def _first_passing(passes, top: int, guess: int) -> int:
    """Smallest q in [1, top] with ``passes(q)``, for a monotone ``passes``
    known to hold at ``top``.

    Probes gallop outwards from ``guess`` until they bracket the answer,
    then bisect; a good guess costs two probes instead of a full binary
    search.
    """
    lo, hi = 0, top  # passes(hi) holds; lo = 0 stands for "fails"
    q, step = min(max(guess, 1), top - 1), 1
    while hi - lo > 1:
        if not lo < q < hi:
            q = (lo + hi) // 2
        if passes(q):
            hi, q = q, q - step
        else:
            lo, q = q, q + step
        step *= 2
    return hi


def _unfold(G, forward: bool):
    """Core as the matrix whose columns a sweep in this direction
    orthonormalizes: (r0 n, r1) forward, (n r1, r0) backward."""
    r0, n, r1 = G.shape
    return G.reshape(r0 * n, r1) if forward else G.reshape(r0, n * r1).T


def _fold(mat, shape, forward: bool):
    """Inverse of :func:`_unfold`, for any number of columns."""
    r0, n, r1 = shape
    return mat.reshape(r0, n, -1) if forward else mat.T.reshape(-1, n, r1)


def _truncate_by_residual(
    sys_: _LocalSystem, x3, rhs3, tau, forward: bool, guess: int
):
    """Smallest SVD rank of the solved core whose local residual stays <= tau.

    Ties the rank of the stored core to the accuracy that the local solve
    actually delivers, so truncation never undoes solver progress and never
    hoards ranks the residual cannot justify. The full rank reproduces the
    solved core, whose residual is within tau by construction; the search
    for the smallest passing rank starts from ``guess``. Returns the kept
    basis and the carry to the next core, both in :func:`_unfold` layout.
    """
    U, s, Vt = np.linalg.svd(_unfold(x3, forward), full_matrices=False)

    def passes(q):
        xq = _fold((U[:, :q] * s[:q]) @ Vt[:q], x3.shape, forward)
        return np.linalg.norm(sys_.matvec3(xq) - rhs3) <= tau

    q = _first_passing(passes, s.size, guess)
    return U[:, :q], s[:q, None] * Vt[:q]


def _local(left, op: _OpCore, F, right):
    """Projected operator and right-hand side between two interfaces, each
    a pair (A environment, f environment) whose column side is u's."""
    rhs3 = np.einsum("xc,cif,zf->xiz", left[1], F, right[1], optimize=True)
    return _LocalSystem(left[0], op, right[0]), rhs3


def _residual(left, op: _OpCore, F, right, x3):
    """f - A u projected onto the row sides of ``left`` and ``right``, for
    the iterate whose core between them is ``x3``."""
    sys_, rhs3 = _local(left, op, F, right)
    return rhs3 - sys_.matvec3(x3)


def _estimate(zl, op: _OpCore, F, zr, x3) -> float:
    """||f - A u|| projected onto z's interfaces at a half-sweep's end core.

    A projection, so it never exceeds the true residual norm."""
    return float(np.linalg.norm(_residual(zl, op, F, zr, x3)))


def amen_solve(
    A: TtMatrix,
    f: TtTensor,
    eps: float,
    opts: AmenOptions | None = None,
) -> AmenResult:
    """Solve A u = f to relative residual ``eps`` in TT format.

    The residual is tracked by its own TT z of rank ``kick_rank``, updated
    core by core from projections of f - A u onto z's interfaces; z's
    projections enrich u. A half-sweep ends with the estimate
    ||z-projected residual|| / ||f|| at its end core, and only an estimate
    within ``eps / _CERTIFY_MARGIN`` triggers an exact certificate
    ||f - A u|| / ||f||; a failed certificate means more sweeps. The
    returned solution is the certified iterate and its residual is always
    exact; non-convergence after ``max_sweeps`` is reported through the
    ``converged`` flag rather than an exception.
    """
    if A.row_sizes != A.col_sizes:
        raise ValueError("operator must be square in the TT-matrix sense")
    if A.col_sizes != f.mode_sizes:
        raise ValueError("operator and right-hand side sizes differ")
    if eps <= 0:
        raise ValueError("eps must be positive")
    opts = opts or AmenOptions()
    d = A.d
    sizes = f.mode_sizes

    fnorm = tt_norm(f)
    if fnorm == 0.0:
        return AmenResult(TtTensor.zeros(sizes), 0.0, True, 0)

    ops = [_OpCore(M) for M in A.cores]

    u = _orth_sweep(tt_round(f, 0.5, max_rank=2).cores)
    # z's ranks are capped by the mode-size products on either side
    z_ranks = [
        min(opts.kick_rank, math.prod(sizes[:k]), math.prod(sizes[k:]))
        for k in range(1, d)
    ]
    z = _orth_sweep(TtTensor.random(sizes, z_ranks, np.random.default_rng(0)).cores)

    def exact_residual():
        return _residual_norm(ops, f, u) / fnorm

    # interfaces (A environment, f environment) with row side u or z
    one = (np.ones((1, 1, 1)), np.ones((1, 1)))
    uL, zL, uR, zR = ([one] * (d + 1) for _ in range(4))
    for k in range(d - 1, 0, -1):
        for env, V in ((uR, u), (zR, z)):
            env[k] = _env_step(env[k + 1], V[k], u[k], ops[k], f.cores[k], False)

    # the last truncation rank at each interface seeds the next search
    last_rank = list(TtTensor(u).ranks)
    est = 1.0  # relative residual estimate; that of the zero iterate
    # the last end core solved; the next half-sweep starts there, with the
    # same interfaces and right-hand side, so its solution is u's core
    solved = None
    rel_res = None  # exact relative residual of the current iterate
    converged = False
    sweeps = 0

    while not converged and sweeps < opts.max_sweeps:
        sweeps += 1
        for forward in (True, False):
            # local accuracy target, in absolute local-residual units
            tau_abs = 0.3 * max(eps, 0.03 * est) * fnorm
            order = range(d) if forward else range(d - 1, -1, -1)
            n_banded = n_pcg = cg_iters = 0
            pre_res = 0.0  # largest pre-solve local residual, when logged
            for k in order:
                F = f.cores[k]
                sys_, rhs3 = _local(uL[k], ops[k], F, uR[k + 1])
                if log.isEnabledFor(logging.DEBUG):
                    pre_res = max(pre_res, np.linalg.norm(sys_.matvec3(u[k]) - rhs3))
                rtol = min(0.1, tau_abs / max(np.linalg.norm(rhs3), 1e-300))
                if k == solved:
                    x3 = u[k]
                else:
                    x3, iters = sys_.solve(rhs3, u[k], rtol)
                    if iters is None:
                        n_banded += 1
                    else:
                        n_pcg += 1
                        cg_iters += iters
                if k == (d - 1 if forward else 0):
                    u[k], solved = x3, k
                    est = _estimate(zL[k], ops[k], F, zR[k + 1], x3) / fnorm
                    break
                achieved = np.linalg.norm(sys_.matvec3(x3) - rhs3)
                tau = max(tau_abs, achieved * (1.0 + 1e-12))
                bond = k + 1 if forward else k
                basis, carry = _truncate_by_residual(
                    sys_, x3, rhs3, tau, forward, last_rank[bond]
                )
                last_rank[bond] = basis.shape[1]
                xt = _fold(basis @ carry, x3.shape, forward)
                # z's new core spans f - A xt between z's interfaces; u is
                # enriched by f - A xt between u's and z's
                yz = _residual(zL[k], ops[k], F, zR[k + 1], xt)
                z[k] = _fold(np.linalg.qr(_unfold(yz, forward))[0], yz.shape, forward)
                if forward:
                    yu = _residual(uL[k], ops[k], F, zR[k + 1], xt)
                else:
                    yu = _residual(zL[k], ops[k], F, uR[k + 1], xt)
                Q, R = np.linalg.qr(
                    np.concatenate([basis, _unfold(yu, forward)], axis=1)
                )
                u[k] = _fold(Q, x3.shape, forward)
                pad = np.zeros((R.shape[1] - carry.shape[0], carry.shape[1]))
                nxt = R @ np.vstack([carry, pad])
                if forward:
                    u[k + 1] = np.tensordot(nxt, u[k + 1], axes=([1], [0]))
                    envs, src, dst = ((uL, u), (zL, z)), k, k + 1
                else:
                    u[k - 1] = np.tensordot(u[k - 1], nxt.T, axes=([2], [0]))
                    envs, src, dst = ((uR, u), (zR, z)), k + 1, k
                for env, V in envs:
                    env[dst] = _env_step(env[src], V[k], u[k], ops[k], F, forward)
            rel_res = None
            log.debug(
                "amen sweep %d %s: est=%.3e pre_res=%.3e ranks=%s banded=%d "
                "pcg=%d cg_iters=%d",
                sweeps, "fwd" if forward else "bwd", est, pre_res / fnorm,
                TtTensor(u).ranks, n_banded, n_pcg, cg_iters,
            )
            if est <= eps / _CERTIFY_MARGIN:
                rel_res = exact_residual()
                converged = rel_res <= eps
                log.debug(
                    "amen certificate: est=%.3e exact=%.3e %s",
                    est, rel_res, "pass" if converged else "fail",
                )
                if converged:
                    break

    if rel_res is None:
        rel_res = exact_residual()
    return AmenResult(TtTensor(u), float(rel_res), bool(rel_res <= eps), sweeps)
