import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import BSpline

from ttiga.splines import (
    Basis1D,
    KnotVector,
    SplineError,
    basis_windows,
    eval_basis,
    find_span,
    tabulate,
)


def naive_bspline(knots, p, i, xi):
    """Textbook Cox-de Boor recursion, one basis function at a time."""
    if p == 0:
        return 1.0 if knots[i] <= xi < knots[i + 1] else 0.0
    total = 0.0
    den = knots[i + p] - knots[i]
    if den != 0.0:
        total += (xi - knots[i]) / den * naive_bspline(knots, p - 1, i, xi)
    den = knots[i + p + 1] - knots[i + 1]
    if den != 0.0:
        total += (knots[i + p + 1] - xi) / den * naive_bspline(knots, p - 1, i + 1, xi)
    return total


def random_basis(rng) -> Basis1D:
    p = int(rng.integers(1, 5))
    spans = int(rng.integers(1, 7))
    kv = KnotVector.open_uniform(p, spans)
    if rng.random() < 0.5:
        w = rng.uniform(0.2, 3.0, kv.n_basis)
        return Basis1D(kv, w)
    return Basis1D(kv, None)


class TestFindSpan:
    def test_single_span(self, quadratic_basis):
        kv = quadratic_basis.knot_vector
        assert find_span(kv, 0.5) == 2

    def test_right_endpoint_clamps(self, quadratic_basis):
        kv = quadratic_basis.knot_vector
        assert find_span(kv, 1.0) == find_span(kv, 0.999)

    def test_interior_knot(self):
        kv = KnotVector(np.array([0, 0, 0, 0.5, 1, 1, 1], dtype=float), 2)
        assert find_span(kv, 0.75) == 3
        # direct scan agrees
        kn = kv.knots
        scan = max(i for i in range(len(kn) - 1) if kn[i] <= 0.75 < kn[i + 1])
        assert find_span(kv, 0.75) == scan

    def test_outside_raises(self, quadratic_basis):
        with pytest.raises(SplineError):
            find_span(quadratic_basis.knot_vector, 1.5)
        with pytest.raises(SplineError):
            find_span(quadratic_basis.knot_vector, -0.1)


class TestEvalBasis:
    def test_quadratic_midpoint(self, quadratic_basis):
        ev = eval_basis(quadratic_basis, 0.5)
        assert np.allclose(ev.values, [0.25, 0.5, 0.25], atol=1e-15)
        assert np.allclose(ev.derivs, [-1.0, 0.0, 1.0], atol=1e-15)

    def test_circle_basis_start(self, circle_basis):
        ev = eval_basis(circle_basis, 0.0)
        assert ev.first_index == 0
        assert np.allclose(ev.values, [1.0, 0.0, 0.0], atol=1e-15)

    def test_partition_of_unity_random(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            basis = random_basis(rng)
            xi = float(rng.uniform(0, 1))
            ev = eval_basis(basis, xi)
            assert np.all(ev.values >= -1e-14)
            assert abs(ev.values.sum() - 1.0) < 1e-12
            assert abs(ev.derivs.sum()) < 1e-9

    def test_matches_naive_recursion_dense(self):
        rng = np.random.default_rng(3)
        grid = np.linspace(0.0, 1.0, 65)[:-1]
        for _ in range(10):
            p = int(rng.integers(1, 4))
            kv = KnotVector.open_uniform(p, int(rng.integers(1, 6)))
            basis = Basis1D(kv, None)
            V, _ = tabulate(basis, grid)
            for qi, xi in enumerate(grid):
                for i in range(kv.n_basis):
                    ref = naive_bspline(kv.knots, p, i, xi)
                    assert abs(V[qi, i] - ref) < 1e-13

    def test_nurbs_derivative_vs_finite_differences(self, circle_basis):
        rng = np.random.default_rng(7)
        h = 1e-6
        for _ in range(50):
            xi = float(rng.uniform(2 * h, 1 - 2 * h))
            ev = eval_basis(circle_basis, xi)
            lo = eval_basis(circle_basis, xi - h)
            hi = eval_basis(circle_basis, xi + h)
            if lo.span != ev.span or hi.span != ev.span:
                continue
            fd = (hi.values - lo.values) / (2 * h)
            scale = max(1.0, np.abs(ev.derivs).max())
            assert np.allclose(ev.derivs, fd, atol=1e-6 * scale)


@st.composite
def clamped_bases(draw):
    """Clamped knot vectors on [0, 1] with interior multiplicities up to p."""
    p = draw(st.integers(1, 4))
    interior = draw(st.lists(st.integers(1, 15), max_size=6, unique=True))
    knots = [0.0] * (p + 1)
    for k in sorted(interior):
        knots += [k / 16.0] * draw(st.integers(1, p))
    knots += [1.0] * (p + 1)
    return Basis1D(KnotVector(np.array(knots), p), None)


@settings(max_examples=80, deadline=None)
@given(basis=clamped_bases(), inside=st.lists(st.floats(0.0, 1.0), max_size=20))
def test_basis_windows_match_scipy(basis, inside):
    """Values and first derivatives agree with scipy's B-splines, including
    at every knot and at both ends of the parameter range."""
    kv = basis.knot_vector
    p, n = kv.degree, kv.n_basis
    xs = np.concatenate([kv.knots, inside])
    spl = BSpline(kv.knots, np.eye(n), p)
    V_ref, D_ref = spl(xs), spl(xs, nu=1)
    starts, vals, ders = basis_windows(basis, xs)
    rows = np.arange(xs.size)[:, None]
    cols = starts[:, None] + np.arange(p + 1)
    scale = max(1.0, np.abs(D_ref).max())
    assert np.abs(vals - V_ref[rows, cols]).max() <= 1e-12
    assert np.abs(ders - D_ref[rows, cols]).max() <= 1e-12 * scale
    V, D = tabulate(basis, xs)
    assert np.abs(V - V_ref).max() <= 1e-12
    assert np.abs(D - D_ref).max() <= 1e-12 * scale


def test_nurbs_windows_are_quotient_of_weighted_polynomials():
    rng = np.random.default_rng(11)
    for _ in range(50):
        basis = random_basis(rng)
        if not basis.is_rational:
            continue
        xs = np.concatenate([rng.uniform(0, 1, 40), [0.0, 1.0]])
        s_r, R, dR = basis_windows(basis, xs)
        s_b, N, dN = basis_windows(Basis1D(basis.knot_vector, None), xs)
        w = basis.weights[s_b[:, None] + np.arange(basis.degree + 1)]
        W = (N * w).sum(axis=1, keepdims=True)
        dW = (dN * w).sum(axis=1, keepdims=True)
        assert np.array_equal(s_r, s_b)
        assert np.allclose(R, N * w / W, rtol=1e-14, atol=1e-15)
        assert np.allclose(dR, dN * w / W - N * w * dW / W**2, rtol=1e-12, atol=1e-12)


def test_knot_vector_validation():
    with pytest.raises(SplineError):
        KnotVector(np.array([0, 0, 1, 0.5, 1, 1.0]), 1)  # decreasing
    with pytest.raises(SplineError):
        KnotVector(np.array([0, 0.5, 1.0]), 1)  # not clamped
    with pytest.raises(SplineError):
        KnotVector(np.array([0, 0, 0, 0.5, 0.5, 0.5, 1, 1, 1.0]), 2)  # mult > p
    with pytest.raises(SplineError, match="finite"):
        KnotVector(np.array([0, 0, 1, np.inf, np.inf]), 1)
    with pytest.raises(SplineError, match="finite"):
        KnotVector(np.array([0, 0, np.nan, 1, 1.0]), 1)
    with pytest.raises(SplineError, match="end knots"):
        KnotVector(np.array([0, 0, 0, 1, 1, 1.0]), 1)  # end mult > p + 1
    with pytest.raises(SplineError, match="end knots"):
        KnotVector(np.array([0, 0, 0, 0.5, 1, 1.0]), 1)  # left end only


def test_weights_validation():
    kv = KnotVector.open_uniform(2, 1)
    with pytest.raises(SplineError):
        Basis1D(kv, np.array([1.0, -1.0, 1.0]))
    with pytest.raises(SplineError):
        Basis1D(kv, np.array([1.0, 1.0]))
    for bad in (np.inf, np.nan):
        with pytest.raises(SplineError, match="finite"):
            Basis1D(kv, np.array([1.0, bad, 1.0]))
