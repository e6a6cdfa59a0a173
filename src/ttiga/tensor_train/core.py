"""Tensor-train vectors and operators with exact arithmetic and rounding.

A :class:`TtTensor` stores a chain of order-3 cores ``G_k`` of shape
``(r_{k-1}, n_k, r_k)`` with boundary ranks 1; a :class:`TtMatrix` stores
order-4 cores ``(r_{k-1}, n_k, m_k, r_k)``. Addition concatenates cores
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
    "tt_matrix_from_full",
]


class TtShapeError(ValueError):
    """Mode sizes or bond ranks do not conform."""


def _check_chain(cores, order):
    if not cores:
        raise TtShapeError("empty core list")
    for k, G in enumerate(cores):
        if G.ndim != order:
            raise TtShapeError(f"core {k} must have {order} axes, got {G.ndim}")
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

    def copy(self) -> "TtTensor":
        return TtTensor([G.copy() for G in self.cores])

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

    # -- arithmetic sugar ---------------------------------------------------

    def __add__(self, other):
        return tt_add(self, other)

    def __sub__(self, other):
        return tt_sub(self, other)

    def __mul__(self, c):
        return tt_scale(self, c)

    __rmul__ = __mul__

    def __neg__(self):
        return tt_scale(self, -1.0)

    def norm(self) -> float:
        return tt_norm(self)

    def round(self, eps: float, max_rank: int | None = None) -> "TtTensor":
        return tt_round(self, eps, max_rank)


class TtMatrix:
    """Chain-of-cores representation of a linear operator on a TtTensor."""

    def __init__(self, cores):
        self.cores = [np.ascontiguousarray(G, dtype=float) for G in cores]
        _check_chain(self.cores, 4)

    @property
    def d(self) -> int:
        return len(self.cores)

    @property
    def row_sizes(self) -> tuple:
        return tuple(G.shape[1] for G in self.cores)

    @property
    def col_sizes(self) -> tuple:
        return tuple(G.shape[2] for G in self.cores)

    @property
    def ranks(self) -> tuple:
        return (1,) + tuple(G.shape[3] for G in self.cores)

    @property
    def n_params(self) -> int:
        return int(sum(G.size for G in self.cores))

    def copy(self) -> "TtMatrix":
        return TtMatrix([G.copy() for G in self.cores])

    @staticmethod
    def identity(mode_sizes) -> "TtMatrix":
        return TtMatrix([np.eye(n)[None, :, :, None] for n in mode_sizes])

    @staticmethod
    def rank_one(factors) -> "TtMatrix":
        """Kronecker product of per-mode matrices as an exact rank-1 train."""
        return TtMatrix(
            [np.asarray(A, dtype=float)[None, :, :, None] for A in factors]
        )

    def transpose(self) -> "TtMatrix":
        """Core-wise swap of row and column indices."""
        return TtMatrix([G.transpose(0, 2, 1, 3) for G in self.cores])

    def full(self) -> np.ndarray:
        """Densify to a (prod rows) x (prod cols) matrix. Small sizes only."""
        out = self.cores[0][0]  # (n_1, m_1, r_1)
        for G in self.cores[1:]:
            out = np.tensordot(out, G, axes=([out.ndim - 1], [0]))
        out = out[..., 0]
        d = self.d
        rows = self.row_sizes
        cols = self.col_sizes
        perm = [2 * k for k in range(d)] + [2 * k + 1 for k in range(d)]
        return out.transpose(perm).reshape(int(np.prod(rows)), int(np.prod(cols)))

    def __add__(self, other):
        return tt_add(self, other)

    def __sub__(self, other):
        return tt_sub(self, other)

    def __mul__(self, c):
        return tt_scale(self, c)

    __rmul__ = __mul__

    def __matmul__(self, x):
        return tt_matvec(self, x)

    def round(self, eps: float, max_rank: int | None = None) -> "TtMatrix":
        return tt_round(self, eps, max_rank)


# ---------------------------------------------------------------------------
# shared helpers: matrix cores are handled through their vector view, where
# the (row, col) mode pair is fused into one mode of size n*m.

def _to_vector_view(t):
    if isinstance(t, TtMatrix):
        cores = [
            G.reshape(G.shape[0], G.shape[1] * G.shape[2], G.shape[3])
            for G in t.cores
        ]
        return cores, ("matrix", t.row_sizes, t.col_sizes)
    return [G for G in t.cores], ("tensor",)


def _from_vector_view(cores, tag):
    if tag[0] == "matrix":
        _, rows, cols = tag
        return TtMatrix(
            [
                G.reshape(G.shape[0], n, m, G.shape[2])
                for G, n, m in zip(cores, rows, cols)
            ]
        )
    return TtTensor(cores)


def _same_kind(a, b):
    if isinstance(a, TtMatrix) != isinstance(b, TtMatrix):
        raise TtShapeError("cannot combine a TT tensor with a TT operator")
    if isinstance(a, TtMatrix):
        if a.row_sizes != b.row_sizes or a.col_sizes != b.col_sizes:
            raise TtShapeError("operator mode sizes differ")
    elif a.mode_sizes != b.mode_sizes:
        raise TtShapeError("tensor mode sizes differ")


def tt_add(a, b):
    """Exact sum by block-diagonal core concatenation (ranks add)."""
    _same_kind(a, b)
    ca, tag = _to_vector_view(a)
    cb, _ = _to_vector_view(b)
    d = len(ca)
    out = []
    for k, (Ga, Gb) in enumerate(zip(ca, cb)):
        ra0, n, ra1 = Ga.shape
        rb0, _, rb1 = Gb.shape
        if k == 0:
            G = np.concatenate([Ga, Gb], axis=2)
        elif k == d - 1:
            G = np.concatenate([Ga, Gb], axis=0)
        else:
            G = np.zeros((ra0 + rb0, n, ra1 + rb1))
            G[:ra0, :, :ra1] = Ga
            G[ra0:, :, ra1:] = Gb
        out.append(G)
    return _from_vector_view(out, tag)


def tt_sub(a, b):
    return tt_add(a, tt_scale(b, -1.0))


def tt_scale(a, c: float):
    """Scalar multiple; the factor is absorbed into the first core."""
    cores, tag = _to_vector_view(a)
    cores = [G.copy() for G in cores]
    cores[0] = cores[0] * float(c)
    return _from_vector_view(cores, tag)


def _orth_sweep(cores):
    """Right-to-left QR sweep over vector-view cores.

    Returns new cores whose cores 1..d-1 are right-orthonormal, so the
    first core carries the whole Frobenius norm.
    """
    cores = list(cores)
    for k in range(len(cores) - 1, 0, -1):
        r0, n, r1 = cores[k].shape
        Q, R = np.linalg.qr(cores[k].reshape(r0, n * r1).T)
        cores[k] = Q.T.reshape(-1, n, r1)
        cores[k - 1] = np.tensordot(cores[k - 1], R.T, axes=([2], [0]))
    return cores


def tt_norm(a) -> float:
    """Frobenius norm, computed through an orthogonalization sweep.

    Unlike the square root of a chain-contracted inner product, this does
    not suffer cancellation when the represented tensor is small relative
    to its cores, which matters for residual certificates. Only the R
    factors of the sweep are formed.
    """
    cores, _ = _to_vector_view(a)
    G = cores[-1]
    for prev in reversed(cores[:-1]):
        r0, n, r1 = G.shape
        R = np.linalg.qr(G.reshape(r0, n * r1).T, mode="r")
        G = np.tensordot(prev, R.T, axes=([2], [0]))
    return float(np.linalg.norm(G))


def tt_matvec(A: TtMatrix, x: TtTensor) -> TtTensor:
    """Exact operator application; output ranks are products of input ranks."""
    if A.col_sizes != x.mode_sizes:
        raise TtShapeError(
            f"operator column sizes {A.col_sizes} != vector sizes {x.mode_sizes}"
        )
    out = []
    for M, G in zip(A.cores, x.cores):
        Y = np.einsum("aijb,cjd->acibd", M, G, optimize=True)
        s = Y.shape
        out.append(Y.reshape(s[0] * s[1], s[2], s[3] * s[4]))
    return TtTensor(out)


def _chop(s: np.ndarray, delta: float, max_rank: int | None) -> int:
    """Largest truncation with Frobenius tail <= delta; rank at least 1."""
    if s.size == 0:
        return 1
    tails = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]  # tails[r] = ||s[r:]||
    keep = int(np.searchsorted(tails <= delta, True))
    keep = max(1, keep)
    if max_rank is not None:
        keep = min(keep, max_rank)
    return min(keep, s.size)


def tt_round(t, eps: float, max_rank: int | None = None):
    """Recompress within ``eps`` relative Frobenius error.

    A right-to-left QR sweep orthogonalizes the chain, after which the total
    norm is known; a left-to-right sweep then truncates each bond by SVD with
    the budget ``eps * ||t|| / sqrt(d - 1)``.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    cores, tag = _to_vector_view(t)
    d = len(cores)
    if d == 1:
        return _from_vector_view([G.copy() for G in cores], tag)
    cores = _orth_sweep(cores)
    total = np.linalg.norm(cores[0])
    if total == 0.0:
        zero = [np.zeros((1, G.shape[1], 1)) for G in cores]
        return _from_vector_view(zero, tag)
    delta = eps * total / np.sqrt(d - 1)

    # left-to-right truncation
    for k in range(d - 1):
        r0, n, r1 = cores[k].shape
        U, s, Vt = np.linalg.svd(cores[k].reshape(r0 * n, r1), full_matrices=False)
        keep = _chop(s, delta, max_rank)
        cores[k] = U[:, :keep].reshape(r0, n, keep)
        carry = s[:keep, None] * Vt[:keep]
        cores[k + 1] = np.tensordot(carry, cores[k + 1], axes=([1], [0]))
    return _from_vector_view(cores, tag)


def tt_from_full(X: np.ndarray, eps: float = 1e-14, max_rank: int | None = None) -> TtTensor:
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
        keep = _chop(s, delta, max_rank) if total > 0 else 1
        cores.append(U[:, :keep].reshape(r, sizes[k], keep))
        C = s[:keep, None] * Vt[:keep]
        r = keep
    cores.append(C.reshape(r, sizes[-1], 1))
    return TtTensor(cores)


def tt_matrix_from_full(X: np.ndarray, eps: float = 1e-14) -> TtMatrix:
    """TT-SVD of a dense operator given as a (n1, m1, n2, m2, ...) array."""
    X = np.asarray(X, dtype=float)
    if X.ndim % 2:
        raise TtShapeError("operator array needs paired row/col axes")
    d = X.ndim // 2
    rows = X.shape[0::2]
    cols = X.shape[1::2]
    fused = tt_from_full(
        X.reshape([rows[k] * cols[k] for k in range(d)]), eps
    )
    return TtMatrix(
        [
            G.reshape(G.shape[0], rows[k], cols[k], G.shape[2])
            for k, G in enumerate(fused.cores)
        ]
    )
