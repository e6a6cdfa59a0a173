"""Rank-adaptive cross interpolation driven by maxvol pivoting.

One half-sweep body runs in both directions: forward it rebuilds the
nested row index sets from the column ones, backward the column sets from
the row ones, each chosen by :func:`maxvol` on a core's fiber unfolding,
and builds an interpolating train from its fibers. After every half the
train is validated on a fixed random holdout sample, and the cross stops
at the first half whose holdout relative RMS error meets the tolerance.
Ranks double after each sweep that misses it, until the rank cap is
reached. Each half-sweep logs one debug record: its direction, the ranks,
the evaluations so far and the holdout error.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import TtTensor, _fold, _unfold, tt_round
from .maxvol import maxvol

__all__ = ["CrossOracle", "CrossResult", "tt_cross"]

log = logging.getLogger(__name__)

_MAX_SWEEPS = 20
_RANK_CAP = 64
# random grid entries the train is validated on
_HOLDOUT = 1000


@dataclass(frozen=True)
class CrossOracle:
    """Entry evaluator on a d-dimensional grid.

    ``fn`` maps an integer index array of shape (N, d) to N values and must
    be deterministic: repeated queries at the same multi-index return the
    same value. The optional ``lines`` evaluates whole fibers: given a mode
    k and an index array ``fixed`` of shape (M, d) whose column k is
    ignored, it returns the (M, n_k) values along mode k through each row.
    The cross fetches its fibers through it when set, and through ``fn`` at
    the points of :func:`_line_index` otherwise; it must agree with ``fn``.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    mode_sizes: tuple
    lines: Callable[[int, np.ndarray], np.ndarray] | None = None


@dataclass
class CrossResult:
    tensor: TtTensor
    holdout_error: float
    converged: bool
    n_evals: int
    sweeps: int

    @property
    def ranks(self):
        return self.tensor.ranks


class _Counter:
    """The oracle's evaluators, counting every grid entry they return."""

    def __init__(self, oracle: CrossOracle):
        self.oracle = oracle
        self.n = 0

    def __call__(self, idx):
        idx = np.asarray(idx, dtype=np.intp)
        self.n += idx.shape[0]
        vals = np.asarray(self.oracle.fn(idx), dtype=float)
        if vals.shape != (idx.shape[0],):
            raise ValueError("oracle must return one value per multi-index")
        return vals

    def lines(self, k, fixed):
        shape = (fixed.shape[0], int(self.oracle.mode_sizes[k]))
        if self.oracle.lines is None:
            return self(_line_index(self.oracle.mode_sizes, k, fixed)).reshape(shape)
        self.n += shape[0] * shape[1]
        vals = np.asarray(self.oracle.lines(k, fixed), dtype=float)
        if vals.shape != shape:
            raise ValueError("oracle lines must return (M, n_k) values")
        return vals


def _line_index(shape, axis: int, fixed) -> np.ndarray:
    """Grid multi-indices (M*n, d) of the lines along ``axis`` through the
    rows of ``fixed`` (M, d), whose column ``axis`` is ignored, line by line."""
    fixed = np.asarray(fixed, dtype=np.intp)
    nq = shape[axis]
    idx = np.repeat(fixed, nq, axis=0)
    idx[:, axis] = np.tile(np.arange(nq), fixed.shape[0])
    return idx


def _random_tuples(rng, sizes, count, existing=()):
    """Distinct multi-indices over the given mode sizes."""
    out = list(existing)
    seen = set(out)
    guard = 0
    while len(out) < count:
        cand = tuple(int(rng.integers(0, n)) for n in sizes)
        if cand not in seen:
            out.append(cand)
            seen.add(cand)
        guard += 1
        if guard > 100 * count + 1000:
            break  # tiny grids may not have enough distinct tuples
    return out


def _fiber_matrix(fn: _Counter, left, nk, right, k, d):
    """Evaluate the unfolding C[(i_left, i_k), j_right] at the cross fibers:
    one line along mode k per (left, right) pair."""
    nl, nr = len(left), len(right)
    fixed = np.zeros((nl, nr, d), dtype=np.intp)
    fixed[:, :, :k] = np.asarray(left, dtype=np.intp).reshape(nl, 1, k)
    fixed[:, :, k + 1:] = np.asarray(right, dtype=np.intp).reshape(1, nr, d - k - 1)
    vals = fn.lines(k, fixed.reshape(nl * nr, d)).reshape(nl, nr, nk)
    return vals.transpose(0, 2, 1).reshape(nl * nk, nr)


def tt_cross(
    oracle: CrossOracle,
    eps: float,
    rng: np.random.Generator | None = None,
    scale: float | None = None,
) -> CrossResult:
    """Build a TT approximation of the oracle's grid function.

    Each sweep is a left-to-right half, then a right-to-left one, run by
    one body: at each core but the last it visits, Q is the QR factor of
    the fibers' unfolding in the half's direction, the core is Q inv(Q[sel])
    for the maxvol rows ``sel``, and those rows of the unfolding are the
    next core's index set; the last core is its fibers. The backward half
    starts from the forward half's last fibers instead of evaluating them
    again. The relative root-mean-square error on ``_HOLDOUT`` random
    entries is checked after every half, and the cross stops at the first
    half that meets ``eps``. A sweep that misses ``eps`` doubles the ranks
    for the next one. The cross also stops when the ranks reach
    ``_RANK_CAP`` or after ``_MAX_SWEEPS`` sweeps; ``sweeps`` counts the
    sweeps begun. Hitting the cap with error above ``10 * eps`` flags
    ``converged=False`` in the result rather than raising.

    ``scale`` normalizes the holdout error; it defaults to the holdout RMS
    of the function itself. Callers approximating one term of a sum should
    pass the magnitude of the whole sum, so that terms which are tiny
    against it (down to exact zeros polluted by round-off) resolve as zero
    instead of chasing noise into the rank cap.
    """
    if not (np.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    if scale is not None and not np.isfinite(scale):
        raise ValueError(f"scale must be finite, got {scale!r}")
    rng = rng or np.random.default_rng()
    sizes = tuple(int(n) for n in oracle.mode_sizes)
    d = len(sizes)
    fn = _Counter(oracle)

    hold_idx = np.stack([rng.integers(0, n, size=_HOLDOUT) for n in sizes], axis=1)
    hold_vals = fn(hold_idx)
    hold_rms = float(np.sqrt(np.mean(hold_vals**2)))
    if scale is None or scale <= 0.0:
        scale = hold_rms
    if hold_rms <= eps * scale:
        # the zero train already meets the tolerance
        err = hold_rms / scale if scale > 0 else 0.0
        return CrossResult(TtTensor.zeros(sizes), err, True, fn.n, 0)

    max_rank_at = [
        min(int(np.prod(sizes[: k + 1])), int(np.prod(sizes[k + 1:])), _RANK_CAP)
        for k in range(d - 1)
    ]
    # index sets per core over the modes before and after it
    left_sets = [[()]] + [None] * (d - 1)
    right_sets = [_random_tuples(rng, sizes[k + 1:], 1) for k in range(d - 1)] + [[()]]

    def holdout_error(tt):
        approx = tt.gather(hold_idx)
        return float(np.sqrt(np.mean((approx - hold_vals) ** 2))) / scale

    def check(cores, sweep, half):
        tt = TtTensor(cores)
        err = holdout_error(tt)
        log.debug(
            "cross sweep %d %s: ranks=%s evals=%d holdout=%.3e",
            sweep, half, tt.ranks, fn.n, err,
        )
        return err

    def fibers(k):
        C = _fiber_matrix(fn, left_sets[k], sizes[k], right_sets[k], k, d)
        return C.reshape(len(left_sets[k]), sizes[k], len(right_sets[k]))

    cores = [None] * d
    for sweep in range(1, _MAX_SWEEPS + 1):
        for forward in (True, False):
            order = range(d) if forward else range(d - 1, -1, -1)
            for k in order[:-1]:
                # only a backward half passes core d - 1 before its end;
                # the forward half's end core there is its fiber tensor
                C3 = cores[k] if k == d - 1 else fibers(k)
                Q, _ = np.linalg.qr(_unfold(C3, forward))
                sel = maxvol(Q)
                # Q inv(Q[sel])
                cores[k] = _fold(np.linalg.solve(Q[sel].T, Q.T).T, C3.shape, forward)
                # the rows of the unfolding: (i_left, i_k) or (i_k, j_right)
                if forward:
                    rows = [a + (i,) for a in left_sets[k] for i in range(sizes[k])]
                    left_sets[k + 1] = [rows[s] for s in sel]
                else:
                    rows = [(i,) + b for i in range(sizes[k]) for b in right_sets[k]]
                    right_sets[k - 1] = [rows[s] for s in sel]
            cores[order[-1]] = fibers(order[-1])
            err = check(cores, sweep, "fwd" if forward else "bwd")
            if err <= eps:
                break
        if err <= eps or all(len(s) >= m for s, m in zip(right_sets, max_rank_at)):
            break

        # double the ranks, extending the column sets with fresh tuples
        for k in range(d - 1):
            target = min(2 * len(right_sets[k]), max_rank_at[k])
            right_sets[k] = _random_tuples(
                rng, sizes[k + 1:], target, existing=right_sets[k]
            )

    # the adaptive index sets overshoot the true ranks; trim what the
    # tolerance cannot justify, keeping the better of the two candidates
    tensor = TtTensor(cores)
    trimmed = tt_round(tensor, eps * 0.5)
    err_trimmed = holdout_error(trimmed)
    if err_trimmed <= max(eps, err):
        tensor, err = trimmed, err_trimmed
    return CrossResult(tensor, err, err <= 10 * eps, fn.n, sweep)
