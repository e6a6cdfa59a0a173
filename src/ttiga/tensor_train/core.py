"""Tensor-train vectors and operators with exact arithmetic and rounding.

A :class:`TtTensor` stores a chain of order-3 cores ``G_k`` of shape
``(r_{k-1}, n_k, r_k)`` with boundary ranks 1; a :class:`TtMatrix` is a
square operator that stores each core as its band, ``(r_{k-1}, n_k, 2 h_k +
1, r_k)``, the layout of the banded 1D factors of the IGA operator (Bunger,
Dolgov & Stoll, SIAM J. Sci. Comput. 42, 2020). Addition concatenates cores
block-diagonally (ranks add), operator application contracts core-wise
(ranks multiply), and :func:`tt_round` recompresses via an orthogonalization
sweep followed by truncated SVDs per bond (Oseledets, SIAM J. Sci. Comput.
33, 2011).

All operations return new objects; cores are never mutated in place.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "TtShapeError",
    "TtTensor",
    "TtMatrix",
    "tt_add",
    "tt_sub",
    "tt_scale",
    "tt_norm",
    "tt_matvec",
    "tt_round",
    "tt_from_full",
]


class TtShapeError(ValueError):
    """Mode sizes or bond ranks do not conform."""


def _check_chain(cores, order):
    if not cores:
        raise TtShapeError("empty core list")
    for k, G in enumerate(cores):
        if G.ndim != order:
            raise TtShapeError(f"core {k} must have {order} axes, got {G.ndim}")
        if 0 in G.shape:
            raise TtShapeError(f"core {k} has an empty axis: shape {G.shape}")
    if cores[0].shape[0] != 1 or cores[-1].shape[-1] != 1:
        raise TtShapeError("boundary ranks must be 1")
    for k in range(len(cores) - 1):
        if cores[k].shape[-1] != cores[k + 1].shape[0]:
            raise TtShapeError(
                f"rank mismatch between cores {k} and {k + 1}: "
                f"{cores[k].shape[-1]} != {cores[k + 1].shape[0]}"
            )


class TtTensor:
    """Chain-of-cores representation of a d-dimensional array."""

    def __init__(self, cores):
        self.cores = [np.ascontiguousarray(G, dtype=float) for G in cores]
        _check_chain(self.cores, 3)

    # -- structure ---------------------------------------------------------

    @property
    def d(self) -> int:
        return len(self.cores)

    @property
    def mode_sizes(self) -> tuple:
        return tuple(G.shape[1] for G in self.cores)

    @property
    def ranks(self) -> tuple:
        return (1,) + tuple(G.shape[2] for G in self.cores)

    @property
    def n_params(self) -> int:
        return int(sum(G.size for G in self.cores))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zeros(mode_sizes) -> "TtTensor":
        return TtTensor([np.zeros((1, n, 1)) for n in mode_sizes])

    @staticmethod
    def ones(mode_sizes) -> "TtTensor":
        return TtTensor([np.ones((1, n, 1)) for n in mode_sizes])

    @staticmethod
    def rank_one(vectors) -> "TtTensor":
        """Outer product of 1D factors as an exact rank-1 train."""
        return TtTensor([np.asarray(v, dtype=float)[None, :, None] for v in vectors])

    @staticmethod
    def random(mode_sizes, ranks, rng) -> "TtTensor":
        full = (1,) + tuple(int(r) for r in ranks) + (1,)
        if len(full) != len(mode_sizes) + 1:
            raise TtShapeError("need len(ranks) == d - 1")
        return TtTensor(
            [
                rng.standard_normal((full[k], n, full[k + 1]))
                for k, n in enumerate(mode_sizes)
            ]
        )

    # -- evaluation --------------------------------------------------------

    def full(self) -> np.ndarray:
        """Densify. Intended for small instances (tests, oracles)."""
        out = self.cores[0][0]  # (n_1, r_1)
        for G in self.cores[1:]:
            out = np.tensordot(out, G, axes=([out.ndim - 1], [0]))
        return out[..., 0]

    def gather(self, idx) -> np.ndarray:
        """Entries at multi-indices ``idx`` of shape (N, d)."""
        idx = np.asarray(idx, dtype=np.intp)
        v = self.cores[0][0, idx[:, 0], :]
        for k in range(1, self.d):
            v = np.einsum("nr,rns->ns", v, self.cores[k][:, idx[:, k], :])
        return v[:, 0]


def _band_columns(n: int, width: int):
    """Column of each band slot, ``cols[i, t] = i + t - width // 2``, and
    the mask of the slots whose column lies inside 0..n-1."""
    cols = np.arange(n)[:, None] + np.arange(width) - width // 2
    return cols, (cols >= 0) & (cols < n)


class TtMatrix:
    """Square linear operator on a TtTensor as a chain of band cores.

    Core k has shape ``(r_{k-1}, n_k, 2 h_k + 1, r_k)``: entry ``[:, i, t,
    :]`` couples row i with column i + t - h_k. The width must be odd. The
    constructor zeroes, in a copy, the slots whose column falls outside
    0..n_k - 1, so rounding noise there never reaches the operator.
    """

    def __init__(self, cores):
        cores = [np.ascontiguousarray(G, dtype=float) for G in cores]
        _check_chain(cores, 4)
        for k, G in enumerate(cores):
            if G.shape[2] % 2 == 0:
                raise TtShapeError(f"core {k} has even band width {G.shape[2]}")
            outside = ~_band_columns(G.shape[1], G.shape[2])[1]
            if G[:, outside].any():
                G = G.copy()
                G[:, outside] = 0.0
                cores[k] = G
        self.cores = cores

    @property
    def d(self) -> int:
        return len(self.cores)

    @property
    def row_sizes(self) -> tuple:
        return tuple(G.shape[1] for G in self.cores)

    @property
    def band_widths(self) -> tuple:
        return tuple(G.shape[2] for G in self.cores)

    @property
    def ranks(self) -> tuple:
        return (1,) + tuple(G.shape[3] for G in self.cores)

    @property
    def n_params(self) -> int:
        return int(sum(G.size for G in self.cores))

    @staticmethod
    def identity(mode_sizes) -> "TtMatrix":
        return TtMatrix([np.ones((1, n, 1, 1)) for n in mode_sizes])

    @staticmethod
    def rank_one(factors) -> "TtMatrix":
        """Kronecker product of dense square per-mode matrices as an exact
        rank-1 train; each factor is packed into the narrowest band that
        holds its nonzero entries."""
        cores = []
        for A in factors:
            A = np.asarray(A, dtype=float)
            n = A.shape[0]
            if A.shape != (n, n):
                raise TtShapeError(f"factor of shape {A.shape} is not square")
            dist = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
            h = int(np.max(dist, where=A != 0, initial=0))
            cols, inside = _band_columns(n, 2 * h + 1)
            band = A[np.arange(n)[:, None], np.clip(cols, 0, n - 1)] * inside
            cores.append(band[None, :, :, None])
        return TtMatrix(cores)

    def full(self) -> np.ndarray:
        """Densify to an N x N matrix, N = prod(row_sizes). Small sizes only."""
        dense = []
        for G in self.cores:
            r, n, w, s = G.shape
            cols, inside = _band_columns(n, w)
            i, t = np.nonzero(inside)
            D = np.zeros((r, n, n, s))
            D[:, i, cols[i, t], :] = G[:, i, t, :]
            dense.append(D.reshape(r, n * n, s))
        out = TtTensor(dense).full().reshape([m for n in self.row_sizes for m in (n, n)])
        N, d = int(np.prod(self.row_sizes)), self.d
        return out.transpose([*range(0, 2 * d, 2), *range(1, 2 * d, 2)]).reshape(N, N)


# ---------------------------------------------------------------------------
# shared helpers: operator cores are handled through their vector view, where
# the (row, band slot) mode pair is fused into one mode of size n*(2h+1).

def _to_vector_view(t):
    if isinstance(t, TtMatrix):
        cores = [
            G.reshape(G.shape[0], G.shape[1] * G.shape[2], G.shape[3])
            for G in t.cores
        ]
        return cores, ("matrix", t.row_sizes, t.band_widths)
    return [G for G in t.cores], ("tensor",)


def _from_vector_view(cores, tag):
    if tag[0] == "matrix":
        _, rows, widths = tag
        return TtMatrix(
            [
                G.reshape(G.shape[0], n, w, G.shape[2])
                for G, n, w in zip(cores, rows, widths)
            ]
        )
    return TtTensor(cores)


def _same_kind(a, b):
    if isinstance(a, TtMatrix) != isinstance(b, TtMatrix):
        raise TtShapeError("cannot combine a TT tensor with a TT operator")
    if isinstance(a, TtMatrix):
        if a.row_sizes != b.row_sizes:
            raise TtShapeError("operator mode sizes differ")
    elif a.mode_sizes != b.mode_sizes:
        raise TtShapeError("tensor mode sizes differ")


def tt_add(a, b):
    """Exact sum, ranks adding: each core holds a's in its leading block and
    b's, added, in its trailing one, and the boundary ranks stay 1, so the
    cores of one-core trains add up. The narrower of two operator bands is
    padded with zero diagonals."""
    _same_kind(a, b)
    if isinstance(a, TtMatrix):
        w = [max(wa, wb) for wa, wb in zip(a.band_widths, b.band_widths)]
        a, b = (
            TtMatrix([
                np.pad(G, ((0, 0), (0, 0), ((wk - G.shape[2]) // 2,) * 2, (0, 0)))
                for G, wk in zip(t.cores, w)
            ])
            for t in (a, b)
        )
    ca, tag = _to_vector_view(a)
    cb, _ = _to_vector_view(b)
    d = len(ca)
    out = []
    for k, (Ga, Gb) in enumerate(zip(ca, cb)):
        ra0, n, ra1 = Ga.shape
        rb0, _, rb1 = Gb.shape
        G = np.zeros((1 if k == 0 else ra0 + rb0, n, 1 if k == d - 1 else ra1 + rb1))
        G[:ra0, :, :ra1] = Ga
        G[-rb0:, :, -rb1:] += Gb
        out.append(G)
    return _from_vector_view(out, tag)


def tt_sub(a, b):
    return tt_add(a, tt_scale(b, -1.0))


def tt_scale(a, c: float):
    """Scalar multiple; the factor is absorbed into the first core, and
    the result shares the other cores with ``a``."""
    cores, tag = _to_vector_view(a)
    return _from_vector_view([cores[0] * float(c)] + cores[1:], tag)


def _unfold(G, forward: bool):
    """Core as the matrix whose columns a sweep in this direction
    orthonormalizes: (r0 n, r1) forward, (n r1, r0) backward."""
    r0, n, r1 = G.shape
    return G.reshape(r0 * n, r1) if forward else G.reshape(r0, n * r1).T


def _fold(mat, shape, forward: bool):
    """Inverse of :func:`_unfold`, for any number of columns."""
    r0, n, r1 = shape
    return mat.reshape(r0, n, -1) if forward else mat.T.reshape(-1, n, r1)


def _orth_sweep(cores):
    """Right-to-left QR sweep over vector-view cores.

    Returns new cores whose cores 1..d-1 are right-orthonormal, so the
    first core carries the whole Frobenius norm.
    """
    cores = list(cores)
    for k in range(len(cores) - 1, 0, -1):
        Q, R = np.linalg.qr(_unfold(cores[k], False))
        cores[k] = _fold(Q, cores[k].shape, False)
        cores[k - 1] = np.tensordot(cores[k - 1], R.T, axes=([2], [0]))
    return cores


def tt_norm(a) -> float:
    """Frobenius norm, computed through an orthogonalization sweep.

    Unlike the square root of a chain-contracted inner product, this does
    not suffer cancellation when the represented tensor is small relative
    to its cores, which matters for residual certificates.
    """
    return float(np.linalg.norm(_orth_sweep(_to_vector_view(a)[0])[0]))


def tt_matvec(A: TtMatrix, x: TtTensor) -> TtTensor:
    """Exact operator application; output ranks are products of input ranks.

    Each band core is contracted against a sliding window of x's core padded
    by h zero rows per side: window slot t of row i is x's row i + t - h.
    """
    if A.row_sizes != x.mode_sizes:
        raise TtShapeError(
            f"operator sizes {A.row_sizes} != vector sizes {x.mode_sizes}"
        )
    out = []
    for M, G in zip(A.cores, x.cores):
        h = M.shape[2] // 2
        Gp = np.pad(G, ((0, 0), (h, h), (0, 0)))
        # window[c, i, e, t] = Gp[c, i + t, e]
        window = np.lib.stride_tricks.sliding_window_view(Gp, M.shape[2], axis=1)
        Y = np.einsum("aitb,ciet->acibe", M, window, optimize=True)
        s = Y.shape
        out.append(Y.reshape(s[0] * s[1], s[2], s[3] * s[4]))
    return TtTensor(out)


def _chop(s: np.ndarray, delta: float, max_rank: int | None = None) -> int:
    """Largest truncation with Frobenius tail <= delta; rank at least 1."""
    tails = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]  # tails[r] = ||s[r:]||
    keep = int(np.searchsorted(tails <= delta, True))
    keep = max(1, keep)
    if max_rank is not None:
        keep = min(keep, max_rank)
    return keep


def tt_round(t, eps: float, max_rank: int | None = None):
    """Recompress within ``eps`` relative Frobenius error.

    A right-to-left QR sweep orthogonalizes the chain, after which the total
    norm is known; a left-to-right sweep then truncates each bond by SVD with
    the budget ``eps * ||t|| / sqrt(max(d - 1, 1))``; a one-core train
    comes back as it is.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    cores, tag = _to_vector_view(t)
    d = len(cores)
    cores = _orth_sweep(cores)
    total = np.linalg.norm(cores[0])
    if total == 0.0:
        zero = [np.zeros((1, G.shape[1], 1)) for G in cores]
        return _from_vector_view(zero, tag)
    delta = eps * total / np.sqrt(max(d - 1, 1))

    # left-to-right truncation
    for k in range(d - 1):
        U, s, Vt = np.linalg.svd(_unfold(cores[k], True), full_matrices=False)
        keep = _chop(s, delta, max_rank)
        cores[k] = _fold(U[:, :keep], cores[k].shape, True)
        carry = s[:keep, None] * Vt[:keep]
        cores[k + 1] = np.tensordot(carry, cores[k + 1], axes=([1], [0]))
    return _from_vector_view(cores, tag)


def tt_from_full(X: np.ndarray, eps: float = 1e-14) -> TtTensor:
    """Exact-to-eps TT-SVD of a dense array (small instances)."""
    X = np.asarray(X, dtype=float)
    d = X.ndim
    sizes = X.shape
    total = np.linalg.norm(X)
    delta = eps * total / np.sqrt(max(d - 1, 1))
    cores = []
    C = X.reshape(1, -1)
    r = 1
    for k in range(d - 1):
        C = C.reshape(r * sizes[k], -1)
        U, s, Vt = np.linalg.svd(C, full_matrices=False)
        keep = _chop(s, delta) if total > 0 else 1
        cores.append(U[:, :keep].reshape(r, sizes[k], keep))
        C = s[:keep, None] * Vt[:keep]
        r = keep
    cores.append(C.reshape(r, sizes[-1], 1))
    return TtTensor(cores)
