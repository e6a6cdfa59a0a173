"""Alternating minimal-energy solver for linear systems in TT format.

Sweeps update one solution core at a time by solving the Galerkin-projected
local system in the orthogonal frame of the remaining cores; after each
update the core basis is enriched with a low-rank projection of the current
residual, which restores global convergence of the alternating scheme
(Dolgov & Savostyanov, SIAM J. Sci. Comput. 36, 2014).

Intended for the symmetric positive definite operators produced by the
stiffness assembly. Each local operator is sum phiL (x) M_k (x) phiR with
M_k banded (half-bandwidth p), and the core's shape alone picks its solver:

* a core with a unit rank on either side (the edge cores, and rank-1 middle
  cores) is solved directly by a banded Cholesky factorization with the
  unknowns ordered mode-major, (i, x, z), which bounds the half-bandwidth by
  (p + 1) r0 r1 - 1; a matrix that is not positive definite falls back to a
  banded LU;
* every other core is solved by conjugate gradients preconditioned with the
  banded n x n diagonal blocks of each (x, z) rank pair (block Jacobi, the
  ``cjacobi`` preconditioner of ``amen_solve2``), factored once per system.

Each half-sweep logs one debug record: residual, ranks, banded and CG local
solve counts, and total CG iterations.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .core import TtMatrix, TtTensor, _orth_sweep, tt_matvec, tt_norm, tt_round, tt_sub

__all__ = ["AmenOptions", "AmenResult", "amen_solve"]

log = logging.getLogger(__name__)


@dataclass
class AmenOptions:
    kick_rank: int = 4
    max_sweeps: int = 50
    cg_maxiter: int = 1500
    max_rank: int | None = None
    initial: TtTensor | None = None


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
    """One operator core with sparse contraction kernels and its band.

    Stiffness cores are banded in their (row, col) pair with half-bandwidth
    ``hb`` equal to the spline degree. The contractions run as sparse
    products, so their cost follows the band, and the band's diagonals feed
    the band storage of the local solvers.
    """

    def __init__(self, M: np.ndarray):
        self.M = M
        a, n, _, b = M.shape
        ka, ki, kj, kb = np.nonzero(M)
        vals = M[ka, ki, kj, kb]
        self.hb = int(np.max(np.abs(ki - kj))) if ki.size else 0
        # rows (i, b) by columns (a, j), and rows (i, a) by columns (b, j)
        self.fwd = sp.csr_matrix(
            (vals, (ki * b + kb, ka * n + kj)), shape=(n * b, a * n)
        )
        self.rev = sp.csr_matrix(
            (vals, (ki * a + ka, kb * n + kj)), shape=(n * a, b * n)
        )

    def lower(self):
        """Pairs (m, D) for m = 0..hb with D[a, j, b] = M[a, j + m, j, b]."""
        n = self.M.shape[1]
        return [
            (m, self.M[:, np.arange(m, n), np.arange(n - m), :])
            for m in range(self.hb + 1)
        ]

    @staticmethod
    def _contract(S, T):
        X, c, n, W = T.shape
        out = S @ T.transpose(1, 2, 0, 3).reshape(c * n, X * W)
        return out.reshape(n, -1, X, W).transpose(2, 0, 1, 3)

    def apply(self, T: np.ndarray) -> np.ndarray:
        """Contract (a=left rank, j=col): T (X,a,j,W) -> (X,i,b,W)."""
        return self._contract(self.fwd, T)

    def apply_rev(self, T: np.ndarray) -> np.ndarray:
        """Contract (b=right rank, j=col): T (X,b,j,W) -> (X,i,a,W)."""
        return self._contract(self.rev, T)


def _env_left_A(phi, U, op: _OpCore):
    t = np.einsum("xay,yjv->xajv", phi, U, optimize=True)
    t = op.apply(t)
    return np.einsum("xiu,xibv->ubv", U, t, optimize=True)


def _env_right_A(phi, U, op: _OpCore):
    t = np.einsum("sbv,wjv->sbjw", phi, U, optimize=True)
    t = op.apply_rev(t)  # (s, i, a, w)
    return np.einsum("zis,siaw->zaw", U, t, optimize=True)


def _env_left_vec(phi, U, F):
    return np.einsum("xc,xiu,cif->uf", phi, U, F, optimize=True)


def _env_right_vec(phi, U, F):
    return np.einsum("vf,ziv,cif->zc", phi, U, F, optimize=True)


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


class _LocalSystem:
    """Projected operator at one core: y -> phiL * A_k * phiR applied to y.

    Unknowns are stored as (x, i, z): left rank, mode index, right rank.
    """

    def __init__(self, phiL, op: _OpCore, phiR):
        self.phiL = phiL
        self.op = op
        self.phiR = phiR
        self.shape3 = (phiL.shape[2], op.M.shape[1], phiR.shape[2])
        self.size = int(np.prod(self.shape3))

    def matvec3(self, v):
        t = self.op.apply(np.tensordot(self.phiL, v, axes=([2], [0])))
        return np.tensordot(t, self.phiR, axes=([2, 3], [1, 2]))

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
        for m, D in self.op.lower():
            blocks = np.einsum(
                "xay,anb,zbw->nxzyw", self.phiL, D, self.phiR, optimize=True
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
        for m, D in self.op.lower():
            ab[m].reshape(r0, r1, n)[:, :, : n - m] = np.einsum(
                "xa,anb,zb->xzn", dL, D, dR, optimize=True
            )
        return ab

    def solve(self, rhs3, x0, rtol, cg_maxiter):
        """Local solution and its CG iteration count (None when direct).

        A core with a unit rank on either side is solved directly through
        its mode-major band; any other core by CG preconditioned with the
        block-Jacobi band.
        """
        r0, n, r1 = self.shape3
        if min(r0, r1) == 1:
            x = _banded_solver(self.mode_major_band())(
                rhs3.transpose(1, 0, 2).ravel()
            )
            return x.reshape(n, r0, r1).transpose(1, 0, 2), None
        blocks = _banded_solver(self.block_jacobi_band())

        def precond(v):
            v = v.reshape(self.shape3).transpose(0, 2, 1).ravel()
            return blocks(v).reshape(r0, r1, n).transpose(0, 2, 1).ravel()

        A = spla.LinearOperator(
            (self.size, self.size),
            matvec=lambda v: self.matvec3(v.reshape(self.shape3)).ravel(),
        )
        M = spla.LinearOperator((self.size, self.size), matvec=precond)
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
            maxiter=cg_maxiter,
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


def _truncate_by_residual(
    sys_: _LocalSystem, x3, rhs3, tau, forward: bool, guess: int
):
    """Smallest SVD rank of the solved core whose local residual stays <= tau.

    Ties the rank of the stored core to the accuracy that the local solve
    actually delivers, so truncation never undoes solver progress and never
    hoards ranks the residual cannot justify. The full rank reproduces the
    solved core, whose residual is within tau by construction; the search
    for the smallest passing rank starts from ``guess``.
    """
    r0, n, r1 = x3.shape
    if forward:
        mat = x3.reshape(r0 * n, r1)
    else:
        mat = x3.reshape(r0, n * r1)
    U, s, Vt = np.linalg.svd(mat, full_matrices=False)

    def passes(q):
        xq = (U[:, :q] * s[:q]) @ Vt[:q]
        return np.linalg.norm(sys_.matvec3(xq.reshape(r0, n, r1)) - rhs3) <= tau

    q = _first_passing(passes, s.size, guess)
    return U[:, :q], s[:q], Vt[:q]


def amen_solve(
    A: TtMatrix,
    f: TtTensor,
    eps: float,
    opts: AmenOptions | None = None,
) -> AmenResult:
    """Solve A u = f to relative residual ``eps`` in TT format.

    Returns the best iterate with its recomputed residual; non-convergence
    after ``max_sweeps`` is reported through the ``converged`` flag rather
    than an exception.
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

    if opts.initial is not None:
        u = [G.copy() for G in opts.initial.cores]
    else:
        u = [G.copy() for G in tt_round(f, 0.5, max_rank=2).cores]
    u = _orth_sweep(u)

    def current_residual():
        diff = tt_sub(f, tt_matvec(A, TtTensor(u)))
        return tt_norm(diff) / fnorm, diff

    # right environments against the initial right-orthogonal cores
    phiA_R = [None] * (d + 1)
    phif_R = [None] * (d + 1)
    phiA_R[d] = np.ones((1, 1, 1))
    phif_R[d] = np.ones((1, 1))
    for k in range(d - 1, -1, -1):
        phiA_R[k] = _env_right_A(phiA_R[k + 1], u[k], ops[k])
        phif_R[k] = _env_right_vec(phif_R[k + 1], u[k], f.cores[k])

    phiA_L = [None] * (d + 1)
    phif_L = [None] * (d + 1)
    phiA_L[0] = np.ones((1, 1, 1))
    phif_L[0] = np.ones((1, 1))

    # the last truncation rank at each interface seeds the next search
    last_rank = list(TtTensor(u).ranks)

    # one exact residual serves the end of a sweep and the start of the next
    rel_res, diff = current_residual()
    converged = rel_res <= eps
    sweeps = 0
    best = ([G.copy() for G in u], rel_res)

    while not converged and sweeps < opts.max_sweeps:
        sweeps += 1
        for forward in (True, False):
            if not forward:
                rel_res, diff = current_residual()
            if rel_res < best[1]:
                best = ([G.copy() for G in u], rel_res)
            if rel_res <= eps:
                converged = True
                break
            z = tt_round(diff, 0.5, max_rank=opts.kick_rank)
            # enrichment interfaces between u and z, grown along the sweep
            phiz_L = [None] * (d + 1)
            phiz_R = [None] * (d + 1)
            phiz_L[0] = np.ones((1, 1))
            phiz_R[d] = np.ones((1, 1))

            # local accuracy target, in absolute local-residual units
            tau_abs = 0.3 * max(eps, 0.03 * rel_res) * fnorm
            order = range(d) if forward else range(d - 1, -1, -1)
            n_banded = n_pcg = cg_iters = 0
            for k in order:
                sys_ = _LocalSystem(phiA_L[k], ops[k], phiA_R[k + 1])
                rhs3 = np.einsum(
                    "xc,cif,zf->xiz",
                    phif_L[k],
                    f.cores[k],
                    phif_R[k + 1],
                    optimize=True,
                )
                rhs_nrm = np.linalg.norm(rhs3)
                rtol = min(0.1, tau_abs / max(rhs_nrm, 1e-300))
                x3, iters = sys_.solve(rhs3, u[k], rtol, opts.cg_maxiter)
                if iters is None:
                    n_banded += 1
                else:
                    n_pcg += 1
                    cg_iters += iters
                achieved = np.linalg.norm(sys_.matvec3(x3) - rhs3)
                tau = max(tau_abs, achieved * (1.0 + 1e-12))

                if forward and k < d - 1:
                    Uq, s, Vt = _truncate_by_residual(
                        sys_, x3, rhs3, tau, True, last_rank[k + 1]
                    )
                    last_rank[k + 1] = s.size
                    carry = s[:, None] * Vt  # (q, r1)
                    zeta = np.einsum(
                        "xe,eic->xic", phiz_L[k], z.cores[k], optimize=True
                    )
                    r0, n, r1 = x3.shape
                    W = np.concatenate(
                        [Uq, zeta.reshape(r0 * n, -1)], axis=1
                    )
                    if opts.max_rank is not None and W.shape[1] > opts.max_rank:
                        W = W[:, : max(opts.max_rank, Uq.shape[1])]
                    Q, R = np.linalg.qr(W)
                    u[k] = Q.reshape(r0, n, Q.shape[1])
                    pad = np.zeros((R.shape[1] - carry.shape[0], r1))
                    nxt = np.tensordot(
                        R @ np.vstack([carry, pad]), u[k + 1], axes=([1], [0])
                    )
                    u[k + 1] = nxt
                    phiA_L[k + 1] = _env_left_A(phiA_L[k], u[k], ops[k])
                    phif_L[k + 1] = _env_left_vec(phif_L[k], u[k], f.cores[k])
                    phiz_L[k + 1] = _env_left_vec(phiz_L[k], u[k], z.cores[k])
                elif not forward and k > 0:
                    Uq, s, Vt = _truncate_by_residual(
                        sys_, x3, rhs3, tau, False, last_rank[k]
                    )
                    last_rank[k] = s.size
                    carry = Uq * s  # (r0, q)
                    zeta = np.einsum(
                        "eiz,wz->eiw", z.cores[k], phiz_R[k + 1], optimize=True
                    )
                    r0, n, r1 = x3.shape
                    W = np.concatenate([Vt, zeta.reshape(-1, n * r1)], axis=0)
                    if opts.max_rank is not None and W.shape[0] > opts.max_rank:
                        W = W[: max(opts.max_rank, Vt.shape[0])]
                    Q, R = np.linalg.qr(W.T)
                    u[k] = Q.T.reshape(Q.shape[1], n, r1)
                    pad = np.zeros((r0, R.shape[1] - carry.shape[1]))
                    prev = np.tensordot(
                        u[k - 1], np.hstack([carry, pad]) @ R.T, axes=([2], [0])
                    )
                    u[k - 1] = prev
                    phiA_R[k] = _env_right_A(phiA_R[k + 1], u[k], ops[k])
                    phif_R[k] = _env_right_vec(phif_R[k + 1], u[k], f.cores[k])
                    phiz_R[k] = _env_right_vec(phiz_R[k + 1], u[k], z.cores[k])
                else:
                    u[k] = x3
            log.debug(
                "amen sweep %d %s: res=%.3e ranks=%s banded=%d pcg=%d cg_iters=%d",
                sweeps, "fwd" if forward else "bwd", rel_res, TtTensor(u).ranks,
                n_banded, n_pcg, cg_iters,
            )
        else:
            rel_res, diff = current_residual()
            converged = rel_res <= eps

    if rel_res > best[1]:
        u, rel_res = best
    solution = TtTensor(u)
    cleaned = tt_round(solution, eps * 0.1)
    res_clean = tt_norm(tt_sub(f, tt_matvec(A, cleaned))) / fnorm
    if res_clean <= max(rel_res, eps):
        solution = cleaned
        rel_res = res_clean
    return AmenResult(solution, float(rel_res), bool(rel_res <= eps), sweeps)
