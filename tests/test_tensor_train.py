import logging
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttiga.tensor_train import amen, cross
from ttiga.tensor_train import (
    CrossOracle,
    MaxvolError,
    TtMatrix,
    TtShapeError,
    TtTensor,
    amen_solve,
    load_tt,
    maxvol,
    save_tt,
    tt_add,
    tt_cross,
    tt_from_full,
    tt_info,
    tt_matvec,
    tt_norm,
    tt_round,
    tt_scale,
    tt_sub,
)


def laplacian_tt(n: int) -> TtMatrix:
    L = (2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) * (n + 1) ** 2
    Id = np.eye(n)
    A = tt_add(
        tt_add(TtMatrix.rank_one([L, Id, Id]), TtMatrix.rank_one([Id, L, Id])),
        TtMatrix.rank_one([Id, Id, L]),
    )
    return tt_round(A, 1e-14)


def band_outside(G):
    """Mask of the slots of band core ``G`` whose column falls outside the
    matrix."""
    n, w = G.shape[1:3]
    cols = np.arange(n)[:, None] + np.arange(w) - w // 2
    return (cols < 0) | (cols >= n)


def band_of(M, hb):
    """Band core (a, n, 2 hb + 1, b) of the dense core M (a, n, n, b), slot
    by slot: slot t of row i holds column i + t - hb."""
    a, n, _, b = M.shape
    B = np.zeros((a, n, 2 * hb + 1, b))
    for i in range(n):
        for t in range(2 * hb + 1):
            if 0 <= i + t - hb < n:
                B[:, i, t, :] = M[:, i, i + t - hb, :]
    return B


def op_core(M, hb):
    """AMEn's view of the dense core M of half-bandwidth hb."""
    return amen._OpCore(band_of(M, hb))


class TestArithmetic:
    def test_add_matches_dense(self):
        rng = np.random.default_rng(0)
        a = TtTensor.random((5, 6, 7), (3, 4), rng)
        b = TtTensor.random((5, 6, 7), (2, 5), rng)
        assert np.abs(tt_add(a, b).full() - (a.full() + b.full())).max() < 1e-13

    def test_scale_and_sub(self):
        rng = np.random.default_rng(1)
        a = TtTensor.random((4, 4, 4), (2, 2), rng)
        assert np.allclose(tt_scale(a, -2.0).full(), -2.0 * a.full(), atol=1e-13)
        assert np.abs(tt_sub(a, a).full()).max() < 1e-13

    @pytest.mark.parametrize("kind", ["tensor", "matrix"])
    def test_scale_leaves_operand_unchanged(self, kind):
        # the scaled train shares a's untouched cores instead of copying them
        rng = np.random.default_rng(3)
        if kind == "tensor":
            a = TtTensor.random((4, 5, 6), (2, 3), rng)
        else:
            a = TtMatrix([rng.standard_normal(s) for s in
                          ((1, 3, 3, 2), (2, 4, 1, 3), (3, 2, 3, 1))])
        before = [G.copy() for G in a.cores]
        s = tt_scale(a, -2.5)
        assert np.allclose(s.full(), -2.5 * a.full(), atol=1e-13)
        assert all(np.array_equal(G, H) for G, H in zip(a.cores, before))

    @pytest.mark.parametrize("op", ["add", "sub", "round", "add_operator"])
    def test_one_core_trains_match_dense(self, op):
        rng = np.random.default_rng(7)
        if op == "add_operator":
            a = TtMatrix([rng.standard_normal((1, 6, 1, 1))])
            b = TtMatrix([rng.standard_normal((1, 6, 3, 1))])
        else:
            a, b = (TtTensor([rng.standard_normal((1, 6, 1))]) for _ in range(2))
        before = [G.copy() for G in a.cores]
        if op == "round":
            got, ref = tt_round(a, 1e-12), a.full()
        elif op == "sub":
            got, ref = tt_sub(a, b), a.full() - b.full()
        else:
            got, ref = tt_add(a, b), a.full() + b.full()
        assert got.ranks == (1, 1)
        assert np.abs(got.full() - ref).max() <= 1e-15 * np.abs(ref).max()
        assert all(np.array_equal(G, H) for G, H in zip(a.cores, before))

    def test_dot_vs_norm(self):
        """tt_norm equals the dense norm sqrt(x . x), also for (a + delta) - a
        with |delta| / |a| = 1e-12, where a chain-contracted inner product
        would lose every digit to cancellation."""
        rng = np.random.default_rng(2)
        a = TtTensor.random((5, 5, 5), (3, 3), rng)
        ref = np.linalg.norm(a.full())
        assert abs(tt_norm(a) - ref) <= 1e-14 * ref
        b = TtTensor.random((5, 5, 5), (2, 2), rng)
        delta = tt_scale(b, 1e-12 * ref / np.linalg.norm(b.full()))
        x = tt_sub(tt_add(a, delta), a)
        ref_x = np.linalg.norm(x.full())
        assert abs(ref_x - 1e-12 * ref) <= 1e-3 * ref_x
        assert abs(tt_norm(x) - ref_x) <= 1e-3 * ref_x

    def test_matvec_identity(self):
        rng = np.random.default_rng(3)
        x = TtTensor.random((5, 6, 7), (2, 3), rng)
        y = tt_round(tt_matvec(TtMatrix.identity((5, 6, 7)), x), 1e-12)
        assert np.abs(y.full() - x.full()).max() < 1e-12 * tt_norm(x)

    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(4)
        sizes, ranks = (4, 5, 6), (1, 3, 2, 1)
        x = TtTensor.random(sizes, (2, 2), rng)
        # half-bandwidths 0 (diagonal), 1, and n - 1 (every column)
        for h in (0, 1, None):
            A = TtMatrix(
                [
                    rng.standard_normal(
                        (ranks[k], n, 2 * (n - 1 if h is None else h) + 1, ranks[k + 1])
                    )
                    for k, n in enumerate(sizes)
                ]
            )
            ref = A.full() @ x.full().ravel()
            assert np.allclose(tt_matvec(A, x).full().ravel(), ref, atol=1e-10)

    def test_add_pads_the_narrower_band(self):
        rng = np.random.default_rng(5)
        a = TtMatrix([rng.standard_normal(s) for s in ((1, 5, 1, 2), (2, 6, 5, 1))])
        b = TtMatrix([rng.standard_normal(s) for s in ((1, 5, 3, 3), (3, 6, 3, 1))])
        c = tt_add(a, b)
        assert c.band_widths == (3, 5)
        assert np.abs(c.full() - (a.full() + b.full())).max() < 1e-13

    def test_shape_mismatch(self):
        rng = np.random.default_rng(5)
        a = TtTensor.random((4, 4, 4), (2, 2), rng)
        b = TtTensor.random((4, 5, 4), (2, 2), rng)
        with pytest.raises(TtShapeError):
            tt_add(a, b)
        with pytest.raises(TtShapeError):
            tt_matvec(TtMatrix.identity((4, 4, 5)), a)

    def test_even_band_width_rejected(self):
        with pytest.raises(TtShapeError, match="even band width"):
            TtMatrix([np.ones((1, 4, 2, 1))])

    def test_slots_outside_the_matrix_zeroed_in_a_copy(self):
        G = np.random.default_rng(6).standard_normal((1, 4, 5, 1))
        before = G.copy()
        A = TtMatrix([G])
        assert np.array_equal(G, before)
        assert not band_outside(A.cores[0]).all() and band_outside(A.cores[0]).any()
        assert np.all(A.cores[0][:, band_outside(A.cores[0])] == 0.0)
        inside = ~band_outside(G)
        assert np.array_equal(A.cores[0][:, inside], G[:, inside])


class TestRounding:
    def test_rank_one_stays_rank_one(self):
        t = TtTensor.rank_one([np.arange(1.0, 5), np.ones(6), np.arange(3.0)])
        r = tt_round(t, 1e-12)
        assert r.ranks == (1, 1, 1, 1)
        assert np.abs(r.full() - t.full()).max() < 1e-14 * max(1, tt_norm(t))

    def test_self_sum_recompresses(self):
        rng = np.random.default_rng(7)
        a = TtTensor.random((6, 6, 6), (3, 3), rng)
        s = tt_round(tt_add(a, a), 1e-12)
        assert all(rs <= ra for rs, ra in zip(s.ranks, a.ranks))
        assert np.abs(s.full() - 2 * a.full()).max() < 1e-12 * tt_norm(a)

    @pytest.mark.parametrize("eps", [1e-2, 1e-6, 1e-10])
    def test_error_bound_random(self, eps):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((8, 8, 8))
        t = tt_from_full(X)
        r = tt_round(t, eps)
        assert np.linalg.norm(r.full() - X) <= eps * np.linalg.norm(X) + 1e-14

    def test_zero_tensor(self):
        z = tt_round(TtTensor.zeros((4, 5, 6)), 1e-8)
        assert z.ranks == (1, 1, 1, 1)
        assert np.all(z.full() == 0.0)

    def test_round_trip_from_full(self):
        rng = np.random.default_rng(9)
        for shape in [(4, 4, 4), (12, 12, 12), (3, 7, 5)]:
            X = rng.standard_normal(shape)
            assert np.abs(tt_from_full(X).full() - X).max() < 1e-12 * np.linalg.norm(X)

    def test_matrix_round_trip(self):
        """Rounding a band operator keeps its band widths and the zeros
        outside the matrix, and the operator within eps."""
        rng = np.random.default_rng(10)
        A = TtMatrix([rng.standard_normal(s) for s in
                      ((1, 5, 5, 3), (3, 4, 3, 4), (4, 6, 7, 1))])
        r = tt_round(tt_add(A, tt_scale(A, 0.5)), 1e-12)
        assert r.band_widths == A.band_widths
        assert r.ranks == A.ranks
        for G in r.cores:
            assert np.all(G[:, band_outside(G)] == 0.0)
        ref = 1.5 * A.full()
        assert np.linalg.norm(r.full() - ref) <= 1e-12 * np.linalg.norm(ref)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31), eps=st.sampled_from([1e-3, 1e-6, 1e-9]))
def test_round_error_bound_property(seed, eps):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((6, 7, 5))
    r = tt_round(tt_from_full(X), eps)
    assert np.linalg.norm(r.full() - X) <= eps * np.linalg.norm(X) + 1e-14


class TestMaxvol:
    def test_identity_rows(self):
        M = np.vstack([np.eye(4), np.zeros((8, 4))])
        assert sorted(maxvol(M)) == [0, 1, 2, 3]

    def test_monte_carlo_dominance(self):
        rng = np.random.default_rng(20)
        M = rng.standard_normal((50, 5))
        sel = maxvol(M)
        vol = abs(np.linalg.det(M[sel]))
        subsets = np.array([rng.choice(50, 5, replace=False) for _ in range(100_000)])
        vols = np.abs(np.linalg.det(M[subsets]))
        assert vol >= vols.max() * (1 - 1e-12)

    def test_dominance_certificate(self):
        rng = np.random.default_rng(21)
        M = rng.standard_normal((200, 8))
        sel = maxvol(M)
        C = np.linalg.solve(M[sel].T, M.T).T
        assert np.abs(C).max() <= 1.01 + 1e-9

    def test_duplicate_rows_lowest_index(self):
        v = np.array([10.0, 0.0])
        M = np.vstack([v, v, [0.0, 10.0], [0.1, 0.2], [0.3, 0.1]])
        sel = set(maxvol(M).tolist())
        assert sel == {0, 2}
        assert np.array_equal(maxvol(M), maxvol(M))

    def test_rank_deficient_raises(self):
        M = np.zeros((10, 3))
        M[:, 0] = np.arange(10)
        M[:, 1] = 2 * np.arange(10)  # dependent columns
        M[:, 2] = np.arange(10) + 1
        with pytest.raises(MaxvolError):
            maxvol(M)


class TestCross:
    def test_separable_rank_one(self):
        def f(idx):
            return (
                np.sin(idx[:, 0] + 1.0)
                * np.cos(0.3 * idx[:, 1])
                / (idx[:, 2] + 2.0)
            )

        res = tt_cross(
            CrossOracle(f, (16, 16, 16)), eps=1e-10, rng=np.random.default_rng(0)
        )
        assert res.ranks == (1, 1, 1, 1)
        grid = np.indices((16, 16, 16)).reshape(3, -1).T
        ref = f(grid).reshape(16, 16, 16)
        assert np.abs(res.tensor.full() - ref).max() < 1e-13 * np.abs(ref).max()
        assert res.converged

    def test_two_term_sum(self):
        def f(idx):
            a = np.sin(idx[:, 0]) * np.cos(idx[:, 1]) * (idx[:, 2] + 1.0)
            b = np.exp(-0.1 * idx[:, 0]) * idx[:, 1] * np.cos(0.2 * idx[:, 2])
            return a + b

        res = tt_cross(
            CrossOracle(f, (16, 16, 16)), eps=1e-10, rng=np.random.default_rng(1)
        )
        assert max(res.ranks) <= 2
        grid = np.indices((16, 16, 16)).reshape(3, -1).T
        ref = f(grid).reshape(16, 16, 16)
        err = np.linalg.norm(res.tensor.full() - ref) / np.linalg.norm(ref)
        assert err <= 1e-9
        assert res.holdout_error <= 1e-10

    @pytest.mark.parametrize("sizes", [(9,), (9, 7), (9, 7, 6, 5)], ids=["d1", "d2", "d4"])
    def test_two_term_sum_any_order(self, sizes):
        """The half-sweeps' end cores on grids of one, two and four modes."""
        def f(idx):
            x = idx + 1.0
            a = np.prod(np.sin(0.3 * x + 0.1 * np.arange(len(sizes))), axis=1)
            b = np.prod(np.exp(-0.1 * x) * np.cos(0.2 * x), axis=1)
            return a + b

        eps = 1e-10
        res = tt_cross(CrossOracle(f, sizes), eps, rng=np.random.default_rng(8))
        assert res.tensor.mode_sizes == sizes
        assert max(res.ranks) <= 2
        grid = np.indices(sizes).reshape(len(sizes), -1).T
        ref = f(grid).reshape(sizes)
        err = np.linalg.norm(res.tensor.full() - ref) / np.linalg.norm(ref)
        assert err <= eps
        assert res.holdout_error <= eps and res.converged

    def test_constant_field(self):
        res = tt_cross(
            CrossOracle(lambda idx: np.full(idx.shape[0], 3.5), (8, 8, 8)),
            eps=1e-10,
            rng=np.random.default_rng(2),
        )
        assert res.ranks == (1, 1, 1, 1)
        assert np.abs(res.tensor.full() - 3.5).max() < 1e-12

    def test_synthetic_tt_rank_recovery(self):
        rng = np.random.default_rng(3)
        target = tt_round(TtTensor.random((12, 12, 12), (3, 3), rng), 1e-14)

        res = tt_cross(
            CrossOracle(lambda idx: target.gather(idx), (12, 12, 12)),
            eps=1e-10,
            rng=np.random.default_rng(4),
        )
        assert max(res.ranks) <= 3 + 2
        err = np.linalg.norm(res.tensor.full() - target.full())
        assert err <= 1e-9 * tt_norm(target)

    def test_noise_against_scale_resolves_to_zero(self):
        rng = np.random.default_rng(5)

        def noisy_zero(idx):
            return 1e-16 * rng.standard_normal(idx.shape[0])

        res = tt_cross(
            CrossOracle(noisy_zero, (12, 12, 12)),
            eps=1e-10,
            rng=np.random.default_rng(6),
            scale=1.0,
        )
        assert res.ranks == (1, 1, 1, 1)
        assert np.all(res.tensor.full() == 0.0)
        assert res.converged


def _separable_sum(n_terms):
    """Sum of n_terms separable products on a 3D grid: TT ranks n_terms."""
    def f(idx):
        i, j, k = idx[:, 0] + 1.0, idx[:, 1] + 1.0, idx[:, 2] + 1.0
        out = np.sin(0.3 * i) * np.cos(0.2 * j) / (k + 1.0)
        if n_terms > 1:
            out = out + np.exp(-0.1 * i) * j * np.cos(0.4 * k)
        return out

    return f


class TestHalfSweeps:
    sizes = (9, 7, 6)

    @pytest.fixture(autouse=True)
    def small_holdout(self, monkeypatch):
        monkeypatch.setattr(cross, "_HOLDOUT", 100)

    def test_rank_one_stops_after_first_forward_half(self):
        n1, n2, n3 = self.sizes
        res = tt_cross(
            CrossOracle(_separable_sum(1), self.sizes), 1e-10,
            rng=np.random.default_rng(0),
        )
        # holdout, then one fiber per mode at rank 1; no backward half
        assert res.n_evals == 100 + n1 + n2 + n3
        assert (res.sweeps, res.ranks) == (1, (1, 1, 1, 1))
        assert res.holdout_error <= 1e-10

    def test_rank_two_stops_after_second_forward_half(self):
        n1, n2, n3 = self.sizes
        res = tt_cross(
            CrossOracle(_separable_sum(2), self.sizes), 1e-10,
            rng=np.random.default_rng(0),
        )
        # sweep 1 at rank 1: forward n1 + n2 + n3, backward n2 + n1 (its
        # first fiber matrix is the forward half's last); sweep 2's forward
        # half at column sets of size 2: n1*2 + 2*n2*2 + 2*n3
        sweep1 = (n1 + n2 + n3) + (n2 + n1)
        sweep2 = 2 * n1 + 4 * n2 + 2 * n3
        assert res.n_evals == 100 + sweep1 + sweep2
        assert (res.sweeps, res.ranks) == (2, (1, 2, 2, 1))
        assert res.holdout_error <= 1e-10

    def test_backward_half_reuses_last_fiber_matrix(self):
        calls = []
        f = _separable_sum(2)

        def lines(k, fixed):
            calls.append((k, fixed.copy()))
            idx = np.repeat(fixed, self.sizes[k], axis=0)
            idx[:, k] = np.tile(np.arange(self.sizes[k]), fixed.shape[0])
            return f(idx).reshape(fixed.shape[0], self.sizes[k])

        tt_cross(
            CrossOracle(f, self.sizes, lines), 1e-10, rng=np.random.default_rng(0)
        )
        # forward mode 0, 1, last mode 2; backward mode 1, 0 (mode 2 reused);
        # forward mode 0, 1, 2
        assert [k for k, _ in calls] == [0, 1, 2, 1, 0, 0, 1, 2]
        for (k, a), (m, b) in zip(calls, calls[1:]):
            assert k != m or not np.array_equal(a, b)

    def test_half_sweep_log_records(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="ttiga.tensor_train.cross"):
            res = tt_cross(
                CrossOracle(_separable_sum(2), self.sizes), 1e-10,
                rng=np.random.default_rng(0),
            )
        lines = [r.getMessage() for r in caplog.records]
        assert [line.split(":")[0] for line in lines] == [
            "cross sweep 1 fwd", "cross sweep 1 bwd", "cross sweep 2 fwd",
        ]
        assert "ranks=(1, 2, 2, 1)" in lines[-1]
        assert f"evals={res.n_evals} " in lines[-1]
        assert "holdout=" in lines[-1]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eps": float("nan")},
            {"eps": float("inf")},
            {"scale": float("nan")},
            {"scale": float("inf")},
        ],
        ids=["eps_nan", "eps_inf", "scale_nan", "scale_inf"],
    )
    def test_bad_arguments_rejected(self, kwargs):
        args = {"eps": 1e-10, "rng": np.random.default_rng(0)}
        args.update(kwargs)
        calls = []

        def f(idx):
            calls.append(len(idx))
            return np.ones(len(idx))

        with pytest.raises(ValueError):
            tt_cross(CrossOracle(f, (20, 20, 20)), **args)
        assert not calls


def _fiber_oracle(sizes, seed):
    """A random TT's entries, pointwise and along whole fibers."""
    target = TtTensor.random(sizes, (2,) * (len(sizes) - 1), np.random.default_rng(seed))

    def lines(k, fixed):
        idx = np.repeat(fixed, sizes[k], axis=0)
        idx[:, k] = np.tile(np.arange(sizes[k]), fixed.shape[0])
        return target.gather(idx).reshape(fixed.shape[0], sizes[k])

    return CrossOracle(target.gather, sizes), CrossOracle(target.gather, sizes, lines)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fiber_matrix_lines_match_points(data):
    from ttiga.tensor_train.cross import _Counter, _fiber_matrix

    d = data.draw(st.integers(2, 4))
    sizes = tuple(data.draw(st.lists(st.integers(1, 6), min_size=d, max_size=d)))
    k = data.draw(st.integers(0, d - 1))
    tuples = lambda dims: st.lists(  # noqa: E731
        st.tuples(*(st.integers(0, n - 1) for n in dims)), min_size=1, max_size=5
    )
    left = data.draw(tuples(sizes[:k])) if k > 0 else [()]
    right = data.draw(tuples(sizes[k + 1:])) if k + 1 < d else [()]
    by_points, by_lines = (
        _Counter(o) for o in _fiber_oracle(sizes, data.draw(st.integers(0, 999)))
    )
    C_points = _fiber_matrix(by_points, left, sizes[k], right, k, d)
    C_lines = _fiber_matrix(by_lines, left, sizes[k], right, k, d)
    assert C_lines.shape == (len(left) * sizes[k], len(right))
    assert np.array_equal(C_lines, C_points)
    assert by_lines.n == by_points.n == len(left) * sizes[k] * len(right)


def test_cross_through_lines_matches_points():
    plain, with_lines = _fiber_oracle((7, 5, 6, 4), 8)
    a = tt_cross(plain, 1e-10, rng=np.random.default_rng(9))
    b = tt_cross(with_lines, 1e-10, rng=np.random.default_rng(9))
    assert (a.ranks, a.n_evals, a.sweeps) == (b.ranks, b.n_evals, b.sweeps)
    assert np.array_equal(a.tensor.full(), b.tensor.full())


def test_bad_lines_shape_rejected():
    plain, _ = _fiber_oracle((4, 4, 4), 1)
    oracle = CrossOracle(plain.fn, (4, 4, 4), lambda k, fixed: np.zeros((1, 4)))
    with pytest.raises(ValueError, match="lines"):
        tt_cross(oracle, 1e-10, rng=np.random.default_rng(0))


class TestAmen:
    def test_identity_system(self):
        rng = np.random.default_rng(30)
        f = TtTensor.random((6, 7, 8), (3, 2), rng)
        res = amen_solve(TtMatrix.identity((6, 7, 8)), f, 1e-12)
        assert res.residual <= 1e-14
        assert res.converged
        assert np.abs(res.solution.full() - f.full()).max() < 1e-10 * tt_norm(f)

    def test_laplacian_vs_dense_solve(self):
        rng = np.random.default_rng(31)
        A = laplacian_tt(8)
        f = tt_round(TtTensor.random((8, 8, 8), (2, 2), rng), 1e-14)
        res = amen_solve(A, f, 1e-8)
        assert res.converged
        ref = np.linalg.solve(A.full(), f.full().ravel())
        err = np.linalg.norm(res.solution.full().ravel() - ref) / np.linalg.norm(ref)
        assert err < 1e-8

    def test_scaling_equivariance(self):
        rng = np.random.default_rng(32)
        A = laplacian_tt(8)
        f = tt_round(TtTensor.random((8, 8, 8), (2, 2), rng), 1e-14)
        u1 = amen_solve(A, f, 1e-9).solution
        u2 = amen_solve(A, tt_round(tt_scale(f, 2.0), 1e-14), 1e-9).solution
        diff = tt_norm(tt_sub(u2, tt_scale(u1, 2.0))) / tt_norm(u2)
        assert diff < 1e-7

    def test_residual_certificate(self):
        rng = np.random.default_rng(33)
        A = laplacian_tt(8)
        f = tt_round(TtTensor.random((8, 8, 8), (2, 2), rng), 1e-14)
        res = amen_solve(A, f, 1e-8)
        recomputed = tt_norm(tt_sub(f, tt_matvec(A, res.solution))) / tt_norm(f)
        assert abs(recomputed - res.residual) <= 1e-12

    def test_zero_rhs(self):
        res = amen_solve(TtMatrix.identity((4, 4, 4)), TtTensor.zeros((4, 4, 4)), 1e-8)
        assert res.converged
        assert np.all(res.solution.full() == 0.0)

    def test_nonconvergence_flagged(self, monkeypatch):
        monkeypatch.setattr(amen, "_MAX_SWEEPS", 1)
        rng = np.random.default_rng(34)
        A = laplacian_tt(16)
        f = tt_round(TtTensor.random((16, 16, 16), (3, 3), rng), 1e-14)
        res = amen_solve(A, f, 1e-30)
        assert not res.converged
        assert res.residual > 0

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.integers(2, 7), min_size=2, max_size=4),
        st.integers(1, 2),
        st.integers(0, 2**32 - 1),
    )
    def test_kronecker_sum_vs_dense_solve(self, sizes, hb, seed):
        rng = np.random.default_rng(seed)
        d = len(sizes)
        # diagonally dominant banded SPD terms keep cond(A) below ~20
        terms = []
        for n in sizes:
            B = rng.uniform(-1.0, 1.0, (n, n))
            B = np.triu(np.tril(B + B.T, hb), -hb)
            np.fill_diagonal(B, np.abs(B).sum(axis=1) + 1.0)
            terms.append(B)
        A = None
        for k in range(d):
            term = TtMatrix.rank_one(
                [terms[j] if j == k else np.eye(n) for j, n in enumerate(sizes)]
            )
            A = term if A is None else tt_add(A, term)
        A = tt_round(A, 1e-14)
        f = tt_round(TtTensor.random(tuple(sizes), (2,) * (d - 1), rng), 1e-14)
        res = amen_solve(A, f, 1e-10)
        assert res.converged
        ref = np.linalg.solve(A.full(), f.full().ravel())
        err = np.linalg.norm(res.solution.full().ravel() - ref) / np.linalg.norm(ref)
        assert err < 1e-8


def count_exact_residuals(monkeypatch):
    """Counter of the exact residuals amen_solve forms (its certificates)."""
    calls = []
    residual_norm = amen._residual_norm

    def counting(*args):
        calls.append(1)
        return residual_norm(*args)

    monkeypatch.setattr(amen, "_residual_norm", counting)
    return calls


def relative_residual(A, f, u):
    return tt_norm(tt_sub(f, tt_matvec(A, u))) / tt_norm(f)


class TestProjectedResidual:
    def test_every_half_sweep_certified(self, monkeypatch):
        # an estimate of 0 certifies at every half-sweep until one passes
        monkeypatch.setattr(amen, "_estimate", lambda *args: 0.0)
        calls = count_exact_residuals(monkeypatch)
        rng = np.random.default_rng(35)
        A = laplacian_tt(8)
        f = tt_round(TtTensor.random((8, 8, 8), (2, 2), rng), 1e-14)
        res = amen_solve(A, f, 1e-8)
        assert res.converged and res.residual <= 1e-8
        assert abs(relative_residual(A, f, res.solution) - res.residual) <= 1e-12
        # one certificate per half-sweep run
        assert 2 * res.sweeps - 1 <= len(calls) <= 2 * res.sweeps

    def test_failed_certificates_keep_sweeping(self, monkeypatch):
        monkeypatch.setattr(amen, "_estimate", lambda *args: 0.0)
        calls = count_exact_residuals(monkeypatch)
        rng = np.random.default_rng(36)
        A = laplacian_tt(8)
        f = tt_round(TtTensor.random((8, 8, 8), (2, 2), rng), 1e-14)
        monkeypatch.setattr(amen, "_MAX_SWEEPS", 3)
        res = amen_solve(A, f, 1e-30)
        assert not res.converged and res.sweeps == 3
        assert len(calls) == 2 * 3
        assert res.residual == pytest.approx(relative_residual(A, f, res.solution), abs=1e-15)

    def test_max_sweeps_certifies_last_iterate(self, monkeypatch):
        calls = count_exact_residuals(monkeypatch)
        rng = np.random.default_rng(37)
        A = laplacian_tt(16)
        f = tt_round(TtTensor.random((16, 16, 16), (3, 3), rng), 1e-14)
        monkeypatch.setattr(amen, "_MAX_SWEEPS", 2)
        res = amen_solve(A, f, 1e-30)
        assert not res.converged and res.sweeps == 2
        # no estimate reaches 1e-31: one certificate at the end
        assert len(calls) == 1
        assert 0 < res.residual
        assert res.residual == pytest.approx(relative_residual(A, f, res.solution), abs=1e-15)

    @pytest.mark.parametrize("kick_rank", [1, 4, 8])
    def test_z_rank_capped_by_mode_sizes(self, kick_rank, monkeypatch):
        # d = 4 with mode sizes 2: z's ranks are capped at (2, 4, 2), which
        # the end cores see as the row sizes of z's interfaces
        seen = set()
        estimate = amen._estimate

        def spy(zl, op, F, zr, x3):
            seen.add((zl[0].shape[0], zr[0].shape[0]))
            return estimate(zl, op, F, zr, x3)

        monkeypatch.setattr(amen, "_estimate", spy)
        monkeypatch.setattr(amen, "_KICK_RANK", kick_rank)
        rng = np.random.default_rng(38)
        sizes = (2, 2, 2, 2)
        terms = [np.array([[3.0, -1.0], [-1.0, 2.0]]) * (k + 1) for k in range(4)]
        A = None
        for k in range(4):
            term = TtMatrix.rank_one(
                [terms[j] if j == k else np.eye(2) for j in range(4)]
            )
            A = term if A is None else tt_add(A, term)
        A = tt_round(A, 1e-14)
        f = tt_round(TtTensor.random(sizes, (2, 2, 2), rng), 1e-14)
        res = amen_solve(A, f, 1e-10)
        assert res.converged
        edge = min(kick_rank, 2)
        assert seen <= {(edge, 1), (1, edge)} and (edge, 1) in seen
        ref = np.linalg.solve(A.full(), f.full().ravel())
        err = np.linalg.norm(res.solution.full().ravel() - ref) / np.linalg.norm(ref)
        assert err < 1e-8

    def test_log_records(self, caplog):
        rng = np.random.default_rng(39)
        A = laplacian_tt(8)
        f = tt_round(TtTensor.random((8, 8, 8), (2, 2), rng), 1e-14)
        with caplog.at_level(logging.DEBUG, logger=amen.log.name):
            res = amen_solve(A, f, 1e-8)
        msgs = [r.getMessage() for r in caplog.records if r.name == amen.log.name]
        sweeps = [m for m in msgs if m.startswith("amen sweep")]
        certs = [m for m in msgs if m.startswith("amen certificate")]
        assert len(sweeps) in (2 * res.sweeps - 1, 2 * res.sweeps)
        for m in sweeps:
            for key in ("est=", "pre_res=", "ranks=", "pcg=", "cg_iters="):
                assert key in m
        # the first half-sweep starts from a rough iterate
        assert float(sweeps[0].split("pre_res=")[1].split()[0]) > 1e-3
        assert certs and certs[-1].endswith("pass")
        assert all(m.endswith(("pass", "fail")) and "exact=" in m for m in certs)
        assert float(certs[-1].split("exact=")[1].split()[0]) <= 1e-8


def test_end_core_solution_reused(monkeypatch, caplog):
    # every half-sweep after the first starts at the previous end core and
    # takes its solution instead of solving it again
    solves = []
    solve = amen._LocalSystem.solve

    def counting(self, *args):
        solves.append(1)
        return solve(self, *args)

    monkeypatch.setattr(amen._LocalSystem, "solve", counting)
    rng = np.random.default_rng(39)
    A = laplacian_tt(8)
    f = tt_round(TtTensor.random((8, 8, 8), (2, 2), rng), 1e-14)
    with caplog.at_level(logging.DEBUG, logger=amen.log.name):
        res = amen_solve(A, f, 1e-10)
    halves = [r for r in caplog.records if r.getMessage().startswith("amen sweep")]
    assert res.converged and len(halves) >= 2
    assert len(solves) == 3 + 2 * (len(halves) - 1)


def random_local_system(r0, a, n, b, r1, hb, rng, spd=True):
    """Symmetric local system sum_ab phiL_a (x) M_ab (x) phiR_b and its
    explicit (x, i, z)-ordered matrix; term (0, 0) carries a shift that
    makes it positive definite or indefinite."""
    def sym(m):
        X = rng.standard_normal((m, m))
        return X + X.T

    phiL = np.stack([np.eye(r0)] + [sym(r0) for _ in range(a - 1)], axis=1)
    phiR = np.stack([np.eye(r1)] + [sym(r1) for _ in range(b - 1)], axis=1)
    M = np.zeros((a, n, n, b))
    for i in range(a):
        for j in range(b):
            M[i, :, :, j] = np.triu(np.tril(sym(n), hb), -hb)

    def dense():
        B = np.einsum("xay,aijb,zbw->xizyjw", phiL, M, phiR)
        return B.reshape(r0 * n * r1, r0 * n * r1)

    ev = np.linalg.eigvalsh(dense())
    shift = 1.0 - ev[0] if spd else -np.median(ev) + 0.5
    M[0, :, :, 0] += shift * np.eye(n)
    return phiL, M, phiR, dense()


class TestLocalSolve:
    @pytest.mark.parametrize(
        "r0,a,b,r1",
        [(1, 1, 2, 3), (3, 2, 1, 1), (1, 2, 3, 2), (2, 3, 2, 1), (1, 2, 2, 1)],
        ids=["left-edge", "right-edge", "rank1-left", "rank1-right", "rank1-both"],
    )
    def test_banded_matches_dense(self, r0, a, b, r1):
        rng = np.random.default_rng(50 + r0 + 3 * r1 + 7 * a)
        phiL, M, phiR, B = random_local_system(r0, a, 9, b, r1, 2, rng)
        sys_ = amen._LocalSystem(phiL, op_core(M, 2), phiR)
        rhs3 = rng.standard_normal(sys_.shape3)
        x3, iters = sys_.solve(rhs3, None, 1e-3)
        assert iters is None
        ref = np.linalg.solve(B, rhs3.ravel())
        assert np.linalg.norm(x3.ravel() - ref) <= 1e-10 * np.linalg.norm(ref)
        assert np.allclose(sys_.matvec3(x3).ravel(), B @ x3.ravel())

    def test_non_spd_band_falls_back(self, monkeypatch):
        rng = np.random.default_rng(60)
        phiL, M, phiR, B = random_local_system(1, 2, 8, 2, 3, 1, rng, spd=False)
        assert np.linalg.eigvalsh(B)[0] < 0
        calls = []
        orig = amen.sla.solve_banded

        def counting(*args, **kwargs):
            calls.append(1)
            return orig(*args, **kwargs)

        monkeypatch.setattr(amen.sla, "solve_banded", counting)
        sys_ = amen._LocalSystem(phiL, op_core(M, 1), phiR)
        rhs3 = rng.standard_normal(sys_.shape3)
        x3, _ = sys_.solve(rhs3, None, 1e-3)
        assert calls == [1]
        ref = np.linalg.solve(B, rhs3.ravel())
        assert np.linalg.norm(x3.ravel() - ref) <= 1e-9 * np.linalg.norm(ref)

    def test_pcg_middle_core(self):
        rng = np.random.default_rng(61)
        r0, n, r1 = 3, 10, 2
        phiL, M, phiR, B = random_local_system(r0, 2, n, 3, r1, 2, rng)
        sys_ = amen._LocalSystem(phiL, op_core(M, 2), phiR)
        # the preconditioner band holds exactly the (x, z) diagonal blocks
        ab = sys_.block_jacobi_band().reshape(3, r0, r1, n)
        Bt = B.reshape(r0, n, r1, r0, n, r1)
        for x in range(r0):
            for z in range(r1):
                blk = Bt[x, :, z, x, :, z]
                for m in range(3):
                    assert np.allclose(ab[m, x, z, : n - m], np.diagonal(blk, -m))
        rhs3 = rng.standard_normal(sys_.shape3)
        x3, iters = sys_.solve(rhs3, None, 1e-12)
        assert iters is not None and iters > 0
        ref = np.linalg.solve(B, rhs3.ravel())
        assert np.linalg.norm(x3.ravel() - ref) <= 1e-8 * np.linalg.norm(ref)

    @pytest.mark.parametrize("warm", [False, True], ids=["zero", "warm"])
    def test_pcg_application_counts(self, monkeypatch, warm):
        """Each PCG iteration applies the operator and the preconditioner
        once each; a warm start adds one operator application for its first
        residual, and neither is applied to probe its dtype."""
        rng = np.random.default_rng(64)
        phiL, M, phiR, B = random_local_system(3, 3, 10, 4, 2, 2, rng)
        sys_ = amen._LocalSystem(phiL, op_core(M, 2), phiR)
        counts = {"A": 0, "M": 0}
        matvec3, preconditioner = sys_.matvec3, sys_.preconditioner

        def counted_matvec3(v, out=None):
            counts["A"] += 1
            return matvec3(v, out=out)

        def counted_preconditioner():
            apply = preconditioner()

            def counted(v, out=None):
                counts["M"] += 1
                return apply(v, out=out)

            return counted

        monkeypatch.setattr(sys_, "matvec3", counted_matvec3)
        monkeypatch.setattr(sys_, "preconditioner", counted_preconditioner)
        rhs3 = rng.standard_normal(sys_.shape3)
        x0 = rng.standard_normal(sys_.shape3) if warm else None
        x3, iters = sys_.solve(rhs3, x0, 1e-10)
        assert iters > 2  # three and four slices: the preconditioner is inexact
        assert counts == {"A": iters + warm, "M": iters}
        ref = np.linalg.solve(B, rhs3.ravel())
        assert np.linalg.norm(x3.ravel() - ref) <= 1e-8 * np.linalg.norm(ref)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 4), st.integers(1, 4), st.integers(1, 4), st.integers(2, 4),
        st.integers(3, 10), st.integers(0, 2), st.booleans(), st.integers(0, 2**32 - 1),
    )
    def test_pcg_matches_dense_solve(self, r0, a, b, r1, n, hb, warm, seed):
        # from zero or a warm start, PCG stops at its relative residual
        rng = np.random.default_rng(seed)
        phiL, M, phiR, B = random_local_system(r0, a, n, b, r1, hb, rng)
        sys_ = amen._LocalSystem(phiL, op_core(M, hb), phiR)
        rhs3 = rng.standard_normal(sys_.shape3)
        x0 = rng.standard_normal(sys_.shape3) if warm else None
        x3, iters = sys_.solve(rhs3, x0, 1e-12)
        assert 0 < iters < amen._CG_MAXITER
        ref = np.linalg.solve(B, rhs3.ravel())
        assert np.linalg.norm(x3.ravel() - ref) <= 1e-7 * np.linalg.norm(ref)
        x3, _ = sys_.solve(rhs3, x0, 1e-6)
        res = np.linalg.norm(B @ x3.ravel() - rhs3.ravel())
        assert res <= 1.001e-6 * np.linalg.norm(rhs3)

    def test_pcg_stops_at_maxiter(self, monkeypatch):
        monkeypatch.setattr(amen, "_CG_MAXITER", 2)
        rng = np.random.default_rng(65)
        phiL, M, phiR, _ = random_local_system(3, 3, 10, 4, 2, 2, rng)
        sys_ = amen._LocalSystem(phiL, op_core(M, 2), phiR)
        rhs3 = rng.standard_normal(sys_.shape3)
        assert sys_.solve(rhs3, None, 1e-12)[1] == 2

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 4), st.integers(1, 2), st.integers(1, 2), st.integers(2, 4),
        st.integers(4, 10), st.integers(0, 2), st.integers(0, 2**32 - 1),
    )
    def test_two_slice_frames_invert_exactly(self, r0, a, b, r1, n, hb, seed):
        # with at most two slices per side the frames diagonalize every
        # slice, so the rotated block Jacobi is the exact inverse
        rng = np.random.default_rng(seed)
        phiL, M, phiR, B = random_local_system(r0, a, n, b, r1, hb, rng)
        sys_ = amen._LocalSystem(phiL, op_core(M, hb), phiR)
        rhs3 = rng.standard_normal(sys_.shape3)
        x3, iters = sys_.solve(rhs3, None, 1e-12)
        assert iters is not None and iters <= 2
        ref = np.linalg.solve(B, rhs3.ravel())
        assert np.linalg.norm(x3.ravel() - ref) <= 1e-8 * np.linalg.norm(ref)

    @pytest.mark.parametrize("a,b", [(3, 3), (3, 4), (4, 3), (4, 4)])
    def test_many_slice_preconditioner_spd(self, a, b):
        rng = np.random.default_rng(62 + 4 * a + b)
        r0, n, r1 = 3, 9, 4
        phiL, M, phiR, B = random_local_system(r0, a, n, b, r1, 2, rng)
        # a congruence G (x) I (x) H keeps the system SPD and makes the
        # identity slices the helper puts first non-diagonal
        G = np.eye(r0) + 0.3 * rng.standard_normal((r0, r0))
        H = np.eye(r1) + 0.3 * rng.standard_normal((r1, r1))
        phiL = np.einsum("xp,xay,yq->paq", G, phiL, G)
        phiR = np.einsum("zp,zbw,wq->pbq", H, phiR, H)
        K = np.kron(np.kron(G, np.eye(n)), H)
        B = K.T @ B @ K
        sys_ = amen._LocalSystem(phiL, op_core(M, 2), phiR)
        QL, QR = sys_.frames()
        assert not np.allclose(np.abs(QL), np.eye(r0))
        assert not np.allclose(np.abs(QR), np.eye(r1))
        apply = sys_.preconditioner()
        P = np.column_stack([apply(e) for e in np.eye(sys_.size)])
        assert np.allclose(P, P.T, atol=1e-10 * np.abs(P).max())
        assert np.linalg.eigvalsh(0.5 * (P + P.T))[0] > 0
        rhs3 = rng.standard_normal(sys_.shape3)
        x3, iters = sys_.solve(rhs3, None, 1e-12)
        assert iters is not None and iters > 0
        ref = np.linalg.solve(B, rhs3.ravel())
        assert np.linalg.norm(x3.ravel() - ref) <= 1e-8 * np.linalg.norm(ref)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40), st.data())
    def test_rank_search_finds_smallest_passing(self, top, data):
        answer = data.draw(st.integers(1, top))
        guess = data.draw(st.integers(0, top + 2))
        probes = []

        def passes(q):
            probes.append(q)
            return q >= answer

        assert amen._first_passing(passes, top, guess) == answer
        assert top not in probes
        if guess == answer and 1 < answer < top:
            assert len(probes) == 2


def banded_core(a, n, b, hb, rng):
    """Random dense operator core (a, n, n, b) of half-bandwidth exactly hb."""
    M = rng.standard_normal((a, n, n, b))
    M[:, np.abs(np.subtract.outer(np.arange(n), np.arange(n))) > hb, :] = 0.0
    return M


def banded_op(sizes, rank, hb, rng):
    """Random TT operator with inner ranks ``rank``; ``hb=None`` fills every
    column of its cores (half-bandwidth n - 1)."""
    full = (1,) + (rank,) * (len(sizes) - 1) + (1,)
    widths = [2 * (n - 1 if hb is None else hb) + 1 for n in sizes]
    return TtMatrix(
        [
            rng.standard_normal((full[k], n, widths[k], full[k + 1]))
            for k, n in enumerate(sizes)
        ]
    )


# (hb, n): diagonal, banded, n <= 2 hb, and dense (hb = n - 1)
BAND_CASES = [(0, 7), (2, 8), (2, 4), (6, 7)]


def close(got, ref):
    return np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


class TestBandKernels:
    @pytest.mark.parametrize("hb,n", BAND_CASES)
    def test_core_band_holds_the_diagonals(self, hb, n):
        M = banded_core(2, n, 3, hb, np.random.default_rng(70))
        op = op_core(M, hb)
        assert op.hb == hb
        for m in range(hb + 1):
            diag = np.diagonal(M, -m, axis1=1, axis2=2).transpose(2, 0, 1)
            assert np.array_equal(op.lower(m), diag)
        # slot t of row i is column i + t - hb; slots outside the matrix are 0
        for i in range(n):
            for t in range(2 * hb + 1):
                j = i + t - hb
                want = M[:, i, j, :] if 0 <= j < n else np.zeros((2, 3))
                assert np.array_equal(op.fwd[i, :, t, :], want)
                assert np.array_equal(op.rev[i, :, t, :], op.fwd[i, :, t, :].T)
        # rank_one packs a dense factor into the narrowest band that holds it
        packed = TtMatrix.rank_one([M[0, :, :, 0]]).cores[0]
        assert np.array_equal(packed, band_of(M[:1, :, :, :1], hb))

    @pytest.mark.parametrize("block_elems", [1, 200, amen._BLOCK_ELEMS])
    @pytest.mark.parametrize("hb,n", BAND_CASES)
    def test_contractions_match_dense(self, monkeypatch, hb, n, block_elems):
        # row sides (x, z, and the row cores' ranks) differ from column sides
        monkeypatch.setattr(amen, "_BLOCK_ELEMS", block_elems)
        rng = np.random.default_rng(71 + n + hb)
        a, b, x, y, z, w = 2, 3, 3, 2, 4, 3
        M = banded_core(a, n, b, hb, rng)
        op = op_core(M, hb)
        phiL = rng.standard_normal((x, a, y))
        phiR = rng.standard_normal((z, b, w))
        v = rng.standard_normal((y, n, w))
        ref = np.einsum("xay,aijb,yjw,zbw->xiz", phiL, M, v, phiR)
        assert close(amen._LocalSystem(phiL, op, phiR).matvec3(v), ref)
        V, U = rng.standard_normal((x, n, 5)), rng.standard_normal((y, n, 4))
        ref = np.einsum("xay,aijb,xiu,yjv->ubv", phiL, M, V, U)
        assert close(amen._env_left_A(phiL, V, U, op), ref)
        V, U = rng.standard_normal((5, n, z)), rng.standard_normal((4, n, w))
        ref = np.einsum("sbv,aijb,zis,wjv->zaw", phiR, M, V, U)
        assert close(amen._env_right_A(phiR, V, U, op), ref)

    def test_blocks_cover_rows_with_a_short_last_block(self, monkeypatch):
        # P (c + 2 e) = 6 (2 + 2 * 3) = 48 elements per row: 3 rows a block
        monkeypatch.setattr(amen, "_BLOCK_ELEMS", 3 * 48)
        rng = np.random.default_rng(72)
        op = op_core(banded_core(2, 8, 3, 2, rng), 2)
        phi, Ut = rng.standard_normal((2, 2, 3)), rng.standard_normal((8, 3, 3))
        blocks = [(i0, i1) for i0, i1, _ in amen._band_blocks(op.fwd, phi, Ut)]
        assert blocks == [(0, 3), (3, 6), (6, 8)]

    @pytest.mark.parametrize("hb,n", BAND_CASES)
    def test_solver_bands_match_dense(self, hb, n):
        rng = np.random.default_rng(73 + n + hb)
        r0, r1 = 3, 2
        phiL, M, phiR, B = random_local_system(r0, 2, n, 3, r1, hb, rng)
        sys_ = amen._LocalSystem(phiL, op_core(M, hb), phiR)
        # mode-major order (i, x, z): the lower band of the permuted matrix
        R = r0 * r1
        Bm = B.reshape(r0, n, r1, r0, n, r1).transpose(1, 0, 2, 4, 3, 5)
        Bm = Bm.reshape(n * R, n * R)
        ab = sys_.mode_major_band()
        assert ab.shape == ((hb + 1) * R, n * R)
        assert ab.flags.f_contiguous  # LAPACK's layout: factored in place
        for k in range(ab.shape[0]):
            assert close(ab[k, : n * R - k], np.diagonal(Bm, -k))
        # block Jacobi: the (x, z) diagonal blocks, one after the other
        ab = sys_.block_jacobi_band()
        assert ab.flags.f_contiguous
        ab = ab.reshape(hb + 1, r0, r1, n)
        Bt = B.reshape(r0, n, r1, r0, n, r1)
        for xx in range(r0):
            for zz in range(r1):
                blk = Bt[xx, :, zz, xx, :, zz]
                for m in range(hb + 1):
                    assert close(ab[m, xx, zz, : n - m], np.diagonal(blk, -m))

    @pytest.mark.parametrize("hb,n", BAND_CASES)
    def test_frames_read_norms_and_traces_from_band(self, monkeypatch, hb, n):
        rng = np.random.default_rng(74 + n + hb)
        phiL, M, phiR, _ = random_local_system(3, 2, n, 3, 4, hb, rng)
        seen = []
        side_frame = amen._side_frame

        def spy(phi, weight, trace_w):
            seen.append((weight, trace_w))
            return side_frame(phi, weight, trace_w)

        monkeypatch.setattr(amen, "_side_frame", spy)
        amen._LocalSystem(phiL, op_core(M, hb), phiR).frames()
        nM = np.sqrt(np.einsum("aijb,aijb->ab", M, M))
        trM = np.einsum("aiib->ab", M)
        nL, nR = (np.linalg.norm(p, axis=(0, 2)) for p in (phiL, phiR))
        trL, trR = np.einsum("xax->a", phiL), np.einsum("zbz->b", phiR)
        want = [(nL * (nM @ nR), trM @ trR), (nR * (nM.T @ nL), trM.T @ trL)]
        for (weight, trace_w), (w_ref, t_ref) in zip(seen, want, strict=True):
            assert close(weight, w_ref) and close(trace_w, t_ref)


class TestResidualNorm:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("hb", [1, None], ids=["banded", "dense"])
    @pytest.mark.parametrize("n,rank", [(7, 2), (3, 5)], ids=["ranks<n", "ranks>n"])
    def test_matches_formed_residual(self, d, hb, n, rank):
        # d = 4 checks that the sign of f - A u enters once, not per core
        rng = np.random.default_rng(80 + d + n)
        sizes = tuple(n + k for k in range(d))
        A = banded_op(sizes, 2, hb, rng)
        f = TtTensor.random(sizes, (rank + 1,) * (d - 1), rng)
        u = TtTensor.random(sizes, (rank,) * (d - 1), rng)
        ref = tt_norm(tt_sub(f, tt_matvec(A, u)))
        got = amen._residual_norm([amen._OpCore(M) for M in A.cores], f, u.cores)
        assert abs(got - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_zero_residual(self, d):
        sizes = (5,) * d
        u = TtTensor.random(sizes, (7,) * (d - 1), np.random.default_rng(85))
        ops = [amen._OpCore(M) for M in TtMatrix.identity(sizes).cores]
        assert amen._residual_norm(ops, u, u.cores) <= 1e-14 * tt_norm(u)


def peak_bytes(fn):
    """Peak bytes that ``fn()`` allocates on top of what is already live."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryGuards:
    """Transient memory of AMEn's contractions at quarter_torus e=128's
    shapes: K ranks (2, 9), f ranks (8, 10), u ranks (24, 23), n = 128.
    Forming A u and whole (x, i, b, w) intermediates took 27.4 MB for the
    certificate, 8.9 MB for a middle-core matvec and 11.2 MB for a middle-core
    interface update."""

    n = 128

    @pytest.fixture(scope="class")
    def system(self):
        rng = np.random.default_rng(90)
        n = self.n
        shapes = ((1, n, 5, 2), (2, n, 5, 9), (9, n, 5, 1))
        A = TtMatrix([rng.standard_normal(s) for s in shapes])
        f = TtTensor.random((n,) * 3, (8, 10), rng)
        u = TtTensor.random((n,) * 3, (24, 23), rng)
        return [amen._OpCore(M) for M in A.cores], f, u, rng

    def test_certificate(self, system):
        ops, f, u, _ = system
        # A u's middle core alone: (2 * 24, n, 9 * 23) doubles, 10.2 MB
        au_core = 2 * 24 * self.n * 9 * 23 * 8
        assert peak_bytes(lambda: amen._residual_norm(ops, f, u.cores)) < au_core / 2

    def test_middle_core_matvec(self, system):
        ops, _, u, rng = system
        sys_ = amen._LocalSystem(
            rng.standard_normal((24, 2, 24)), ops[1], rng.standard_normal((23, 9, 23))
        )
        assert peak_bytes(lambda: sys_.matvec3(u.cores[1])) < 4.4e6

    @pytest.mark.parametrize("forward", [True, False], ids=["left", "right"])
    def test_middle_core_environment_step(self, system, forward):
        ops, f, u, rng = system
        if forward:
            env = (rng.standard_normal((24, 2, 24)), rng.standard_normal((24, 8)))
        else:
            env = (rng.standard_normal((23, 9, 23)), rng.standard_normal((23, 10)))
        U = u.cores[1]

        def step():
            return amen._env_step(env, U, U, ops[1], f.cores[1], forward)

        assert peak_bytes(step) < 5.6e6

    def spd_system(self, r0, a, b, r1, rng):
        """SPD local system at these shapes: slice (0, 0) is
        I (x) tridiag(-1, 6, -1) (x) I, and every other slice a small
        symmetric perturbation."""
        def sym(m):
            X = rng.standard_normal((m, m))
            return 0.01 * (X + X.T)

        phiL = np.stack([np.eye(r0)] + [sym(r0) for _ in range(a - 1)], axis=1)
        phiR = np.stack([np.eye(r1)] + [sym(r1) for _ in range(b - 1)], axis=1)
        B = np.zeros((a, self.n, 5, b))
        B[:, :, 2, :] = 0.01 * rng.standard_normal((a, self.n, b))
        B[0, :, 1:4, 0] = [-1.0, 6.0, -1.0]
        B[0, 0, 1, 0] = B[0, -1, 3, 0] = 0.0  # columns outside the matrix
        return amen._LocalSystem(phiL, amen._OpCore(B), phiR)

    def test_edge_core_banded_solve(self):
        # the band is built column-major and factored in place; a factored
        # copy and index arrays as large as the blocks took 2.4x
        sys_ = self.spd_system(1, 1, 2, 24, np.random.default_rng(91))
        rhs3 = np.random.default_rng(92).standard_normal(sys_.shape3)
        band = 3 * 24 * self.n * 24 * 8
        assert peak_bytes(lambda: sys_.solve(rhs3, None, 1e-8)) <= 1.9 * band

    def test_middle_core_pcg_solve(self):
        # one PCG loop in fixed buffers; scipy's cg with two LinearOperators
        # peaked at 7.2 MB
        sys_ = self.spd_system(24, 2, 9, 23, np.random.default_rng(93))
        rhs3 = np.random.default_rng(94).standard_normal(sys_.shape3)
        assert peak_bytes(lambda: sys_.solve(rhs3, None, 1e-10)) <= 6.6e6


def container_bytes(magic, kind, cores):
    """A container laid out by hand from its cores, with a valid CRC-32:
    the header sizes are read off the core shapes."""
    d = len(cores)
    head = [magic, struct.pack("<BB", kind, d)]
    for axis in range(1, cores[0].ndim - 1):
        head.append(struct.pack(f"<{d}I", *(G.shape[axis] for G in cores)))
    head.append(struct.pack(f"<{d + 1}I", 1, *(G.shape[-1] for G in cores)))
    body = b"".join(head) + b"".join(
        np.ascontiguousarray(G, dtype="<f8").tobytes() for G in cores
    )
    return body + struct.pack("<I", zlib.crc32(body))


def ttc2_bytes(kind):
    """A well-formed container in the TTC2 layout; operator cores are dense
    (r, n, n, r'), with odd n."""
    rng = np.random.default_rng(47)
    sizes, ranks = (3, 5, 3), (1, 2, 2, 1)
    square = kind == "operator"
    cores = [
        rng.standard_normal((ranks[k], n) + ((n,) if square else ()) + (ranks[k + 1],))
        for k, n in enumerate(sizes)
    ]
    return container_bytes(b"TTC2", int(square), cores)


class TestSerialization:
    def test_tensor_round_trip(self, tmp_path):
        rng = np.random.default_rng(40)
        t = TtTensor.random((5, 6, 7), (3, 4), rng)
        path = tmp_path / "t.tt"
        save_tt(path, t)
        back = load_tt(path)
        assert isinstance(back, TtTensor)
        assert back.mode_sizes == t.mode_sizes and back.ranks == t.ranks
        for a, b in zip(back.cores, t.cores):
            assert np.array_equal(a, b)

    def test_matrix_round_trip(self, tmp_path):
        rng = np.random.default_rng(41)
        M = TtMatrix(
            [
                rng.standard_normal((1, 3, 3, 2)),
                rng.standard_normal((2, 5, 5, 3)),
                rng.standard_normal((3, 4, 1, 1)),
            ]
        )
        path = tmp_path / "m.tt"
        save_tt(path, M)
        # the header holds the band widths, the payload the band cores
        assert path.read_bytes() == container_bytes(b"TTC3", 1, M.cores)
        back = load_tt(path)
        assert isinstance(back, TtMatrix)
        assert back.row_sizes == M.row_sizes and back.band_widths == M.band_widths
        for a, b in zip(back.cores, M.cores):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("kind", ["tensor", "operator"])
    def test_ttc2_rejected(self, tmp_path, kind):
        """The superseded layout, whose operator cores were dense: with odd
        mode sizes its payload would parse as band cores."""
        path = tmp_path / "old.tt"
        path.write_bytes(ttc2_bytes(kind))
        with pytest.raises(ValueError, match="magic"):
            load_tt(path)

    def test_even_band_width_rejected(self, tmp_path):
        rng = np.random.default_rng(48)
        cores = [rng.standard_normal(s) for s in ((1, 4, 3, 2), (2, 5, 4, 1))]
        path = tmp_path / "even.tt"
        path.write_bytes(container_bytes(b"TTC3", 1, cores))
        with pytest.raises(ValueError, match="even band width"):
            load_tt(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.tt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError):
            load_tt(path)

    @pytest.mark.parametrize("kind", [2, 7, 255])
    def test_bad_kind_rejected(self, tmp_path, kind):
        path = tmp_path / "t.tt"
        save_tt(path, TtTensor.random((5, 6, 7), (3, 4), np.random.default_rng(45)))
        raw = bytearray(path.read_bytes())
        raw[4] = kind
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="kind"):
            load_tt(path)

    def test_any_byte_flip_rejected(self, tmp_path):
        """The CRC-32 trailer catches a changed byte anywhere, the core
        payload included; header bytes may trip a header check first."""
        t = TtTensor.random((5, 6, 4), (3, 2), np.random.default_rng(46))
        path = tmp_path / "t.tt"
        save_tt(path, t)
        raw = path.read_bytes()
        header = 6 + 4 * 3 + 4 * 4
        assert len(raw) == header + 8 * t.n_params + 4
        for pos in range(len(raw)):
            bad = bytearray(raw)
            bad[pos] ^= 0x5A
            path.write_bytes(bytes(bad))
            with pytest.raises(ValueError, match=None if pos < header else "checksum"):
                load_tt(path)

    def test_failed_write_leaves_no_file(self, tmp_path):
        good = TtTensor.random((5, 6, 7), (3, 4), np.random.default_rng(42))
        bad = TtTensor.random((5, 6, 7), (3, 4), np.random.default_rng(43))
        # the header and first cores write, then this core fails to convert
        bad.cores[2] = np.full(bad.cores[2].shape, object(), dtype=object)
        path = tmp_path / "t.tt"
        with pytest.raises(TypeError):
            save_tt(path, bad)
        assert list(tmp_path.iterdir()) == []
        save_tt(path, good)
        before = path.read_bytes()
        with pytest.raises(TypeError):
            save_tt(path, bad)
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == before
        for a, b in zip(load_tt(path).cores, good.cores):
            assert np.array_equal(a, b)

    def test_info(self):
        t = TtTensor.ones((8, 8, 8))
        info = tt_info(t)
        assert info["full_entries"] == 512
        assert info["n_params"] == 24
        assert info["compression_ratio"] == 512 / 24
        info = tt_info(TtMatrix.identity((8, 8, 8)))
        assert info["band_widths"] == [1, 1, 1]
        assert info["full_entries"] == 512**2
        assert info["compression_ratio"] == 512**2 / 24
