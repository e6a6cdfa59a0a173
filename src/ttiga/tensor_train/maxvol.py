"""Quasi-maximum-volume row selection (Goreinov et al., 2010).

Given a tall matrix with full column rank, pick rows whose square submatrix
A dominates the rest: every entry of M A^{-1} has magnitude at most
``_TOL``. Row swaps use the Sherman-Morrison rank-1 update of the
coefficient matrix, at most ``_MAX_ITERS`` of them.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MaxvolError", "maxvol"]

_TOL = 1.01
_MAX_ITERS = 200


class MaxvolError(np.linalg.LinAlgError):
    """Rank-deficient input: no nonsingular pivot submatrix exists."""


def _pivot_rows(M: np.ndarray) -> np.ndarray:
    """Row order from Gaussian elimination with partial pivoting."""
    A = np.array(M, dtype=float)
    n, r = A.shape
    perm = np.arange(n)
    scale = np.max(np.abs(A), initial=0.0)
    for k in range(r):
        piv = k + int(np.argmax(np.abs(A[k:, k])))
        if abs(A[piv, k]) <= 1e-14 * max(scale, 1e-300):
            raise MaxvolError("degenerate pivot: matrix has deficient column rank")
        if piv != k:
            A[[k, piv]] = A[[piv, k]]
            perm[[k, piv]] = perm[[piv, k]]
        A[k + 1:, k] /= A[k, k]
        A[k + 1:, k + 1:] -= np.outer(A[k + 1:, k], A[k, k + 1:])
    return perm[:r]


def maxvol(M: np.ndarray) -> np.ndarray:
    """Indices of ``r`` rows spanning a ``_TOL``-dominant square submatrix.

    Ties in the greedy swap are broken toward the lowest row index, so the
    selection is deterministic for a given input.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError("maxvol expects a matrix")
    n, r = M.shape
    if n <= r:
        return np.arange(n)
    rows = _pivot_rows(M)
    C = np.linalg.solve(M[rows].T, M.T).T  # C = M @ inv(M[rows])
    for _ in range(_MAX_ITERS):
        i, j = np.unravel_index(int(np.argmax(np.abs(C))), C.shape)
        if abs(C[i, j]) <= _TOL:
            break
        # replace selected row j by row i (Sherman-Morrison on inv(A))
        coef = C[i].copy()
        coef[j] -= 1.0
        C -= np.outer(C[:, j], coef) / C[i, j]
        rows[j] = i
    return np.sort(rows)
