"""Rank-adaptive cross interpolation driven by maxvol pivoting.

Alternating left/right half-sweeps maintain nested row/column index sets
chosen by :func:`maxvol` on the unfolding fibers, and each half builds an
interpolating train from its fibers. After every half-sweep the train is
validated on a fixed random holdout sample, and the cross stops at the
first half whose holdout relative RMS error meets the tolerance. Ranks
double after each sweep that misses it, until the rank cap is reached.
Each half-sweep logs one debug record: its direction, the ranks, the
evaluations so far and the holdout error.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import TtTensor, tt_round
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
    The cross fetches its fibers through it when set; it must agree with
    ``fn``.
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
        self.n += shape[0] * shape[1]
        vals = np.asarray(self.oracle.lines(k, fixed), dtype=float)
        if vals.shape != shape:
            raise ValueError("oracle lines must return (M, n_k) values")
        return vals


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
    """Evaluate the unfolding C[(i_left, i_k), j_right] at the cross fibers.

    Through the oracle's ``lines`` when it has one: one fiber along mode k
    per (left, right) pair. Else entry by entry.
    """
    nl, nr = len(left), len(right)
    left_arr = np.asarray(left, dtype=np.intp).reshape(nl, k)
    right_arr = np.asarray(right, dtype=np.intp).reshape(nr, d - k - 1)
    if fn.oracle.lines is not None:
        fixed = np.zeros((nl * nr, d), dtype=np.intp)
        fixed[:, :k] = np.repeat(left_arr, nr, axis=0)
        fixed[:, k + 1:] = np.tile(right_arr, (nl, 1))
        vals = fn.lines(k, fixed).reshape(nl, nr, nk)
        return vals.transpose(0, 2, 1).reshape(nl * nk, nr)
    idx = np.empty((nl * nk * nr, d), dtype=np.intp)
    idx[:, :k] = np.repeat(left_arr, nk * nr, axis=0)
    idx[:, k] = np.tile(np.repeat(np.arange(nk), nr), nl)
    idx[:, k + 1:] = np.tile(right_arr, (nl * nk, 1))
    return fn(idx).reshape(nl * nk, nr)


def tt_cross(
    oracle: CrossOracle,
    eps: float,
    rng: np.random.Generator | None = None,
    scale: float | None = None,
) -> CrossResult:
    """Build a TT approximation of the oracle's grid function.

    Each sweep is a left-to-right half, which builds the row sets and the
    interpolation train Q inv(Q[sel]) ... C_last, then a right-to-left
    half, which builds the column sets and the train C_first inv(Q[sel])^T
    Q^T ... . The relative root-mean-square error on ``_HOLDOUT`` random
    entries is checked after every half, and the cross stops at the first
    half that meets ``eps``. The right-to-left half starts from the
    left-to-right half's last fiber matrix instead of evaluating it again.
    A sweep that misses ``eps`` doubles the ranks for the next one. The cross also stops when the
    ranks reach ``_RANK_CAP`` or after ``_MAX_SWEEPS`` sweeps; ``sweeps``
    counts the sweeps begun. Hitting the cap with error above ``10 * eps``
    flags ``converged=False`` in the result rather than raising.

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
    ranks = [1] * (d - 1)
    right_sets = [
        _random_tuples(rng, sizes[k + 1:], ranks[k]) for k in range(d - 1)
    ]

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

    for sweep in range(_MAX_SWEEPS):
        sweeps_done = sweep + 1
        # left-to-right: rebuild nested row sets and the interpolation cores
        cores = [None] * d
        left_sets = [[()]]
        for k in range(d - 1):
            C = _fiber_matrix(fn, left_sets[k], sizes[k], right_sets[k], k, d)
            Q, _ = np.linalg.qr(C)
            sel = maxvol(Q)
            core = np.linalg.solve(Q[sel].T, Q.T).T  # Q inv(Q[sel])
            cores[k] = core.reshape(len(left_sets[k]), sizes[k], len(sel))
            combined = [
                il + (ik,)
                for il in left_sets[k]
                for ik in range(sizes[k])
            ]
            left_sets.append([combined[s] for s in sel])
            ranks[k] = len(sel)
        C = _fiber_matrix(fn, left_sets[d - 1], sizes[d - 1], [()], d - 1, d)
        cores[d - 1] = C.reshape(len(left_sets[d - 1]), sizes[d - 1], 1)
        err = check(cores, sweeps_done, "fwd")
        if err <= eps:
            break

        # right-to-left: rebuild nested column sets and the cores, starting
        # from the last fiber matrix C of the left-to-right half
        cores = [None] * d
        right_sets = [None] * (d - 1)
        cur_right = [()]
        for k in range(d - 1, 0, -1):
            if k < d - 1:
                C = _fiber_matrix(fn, left_sets[k], sizes[k], cur_right, k, d)
            nl, nr = len(left_sets[k]), len(cur_right)
            Ct = C.reshape(nl, sizes[k] * nr).T
            Q, _ = np.linalg.qr(Ct)
            sel = maxvol(Q)
            core = np.linalg.solve(Q[sel].T, Q.T)  # inv(Q[sel])^T Q^T
            cores[k] = core.reshape(len(sel), sizes[k], nr)
            combined = [
                (ik,) + jr for ik in range(sizes[k]) for jr in cur_right
            ]
            cur_right = [combined[s] for s in sel]
            right_sets[k - 1] = cur_right
            ranks[k - 1] = len(sel)
        C = _fiber_matrix(fn, [()], sizes[0], cur_right, 0, d)
        cores[0] = C.reshape(1, sizes[0], len(cur_right))
        err = check(cores, sweeps_done, "bwd")
        if err <= eps:
            break
        if all(r >= m for r, m in zip(ranks, max_rank_at)):
            break

        # double the ranks, extending the column sets with fresh tuples
        for k in range(d - 1):
            target = min(2 * ranks[k], max_rank_at[k])
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
    return CrossResult(tensor, err, err <= 10 * eps, fn.n, sweeps_done)
