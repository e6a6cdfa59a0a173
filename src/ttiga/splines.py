"""Univariate B-spline / NURBS basis evaluation.

Conventions used throughout:

* knot vectors are open (clamped): the first and last knot are repeated
  ``degree + 1`` times, so the basis interpolates at both ends;
* the parametric domain is normalized to ``[0, 1]``;
* evaluation at the right endpoint is clamped into the last nonempty span,
  which makes evaluation total on the closed interval;
* the ``0/0 := 0`` convention resolves repeated-knot denominators in the
  Cox-de Boor recursion.

See Piegl & Tiller, "The NURBS Book" (2nd ed.) for the underlying
algorithms (A2.1, A2.2, A2.3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SplineError",
    "KnotVector",
    "Basis1D",
    "BasisEval",
    "find_span",
    "basis_windows",
    "eval_basis",
    "tabulate",
]


class SplineError(ValueError):
    """Invalid knot data, evaluation point, or refinement request."""


@dataclass(frozen=True)
class KnotVector:
    """Open knot vector of a clamped B-spline basis.

    ``len(knots) == n + degree + 1`` where ``n`` is the number of basis
    functions.
    """

    knots: np.ndarray
    degree: int

    def __post_init__(self):
        kn = np.asarray(self.knots, dtype=float)
        object.__setattr__(self, "knots", kn)
        p = self.degree
        if p < 0:
            raise SplineError("degree must be non-negative")
        if kn.ndim != 1 or kn.size < 2 * (p + 1):
            raise SplineError("knot vector needs at least 2*(degree+1) entries")
        if not np.all(np.isfinite(kn)):
            raise SplineError("knots must be finite")
        if np.any(np.diff(kn) < 0):
            raise SplineError("knots must be non-decreasing")
        if not (np.all(kn[: p + 1] == kn[0]) and np.all(kn[-p - 1:] == kn[-1])
                and kn[0] < kn[p + 1] and kn[-p - 2] < kn[-1]):
            raise SplineError("end knots must have multiplicity degree+1 (clamped)")
        interior = kn[p + 1: -p - 1]
        if interior.size:
            _, counts = np.unique(interior, return_counts=True)
            if np.any(counts > p):
                raise SplineError("interior knot multiplicity exceeds degree")

    @property
    def n_basis(self) -> int:
        return self.knots.size - self.degree - 1

    @property
    def start(self) -> float:
        return float(self.knots[0])

    @property
    def end(self) -> float:
        return float(self.knots[-1])

    def breakpoints(self) -> np.ndarray:
        """Distinct knot values (the span boundaries)."""
        return np.unique(self.knots)

    def spans(self) -> np.ndarray:
        """Indices i of the nonempty spans [knots[i], knots[i+1])."""
        kn = self.knots
        return np.nonzero(kn[1:] > kn[:-1])[0]

    @staticmethod
    def open_uniform(degree: int, n_spans: int) -> "KnotVector":
        """Clamped knot vector on [0, 1] with ``n_spans`` equal spans."""
        if n_spans < 1:
            raise SplineError("need at least one span")
        interior = np.linspace(0.0, 1.0, n_spans + 1)[1:-1]
        kn = np.concatenate([np.zeros(degree + 1), interior, np.ones(degree + 1)])
        return KnotVector(kn, degree)


@dataclass(frozen=True)
class Basis1D:
    """Univariate basis: polynomial B-spline, or NURBS when weights are set."""

    knot_vector: KnotVector
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            object.__setattr__(self, "weights", w)
            if w.shape != (self.knot_vector.n_basis,):
                raise SplineError("weight count must equal basis count")
            if not np.all(np.isfinite(w) & (w > 0)):
                raise SplineError("weights must be finite and strictly positive")

    @property
    def degree(self) -> int:
        return self.knot_vector.degree

    @property
    def n_basis(self) -> int:
        return self.knot_vector.n_basis

    @property
    def is_rational(self) -> bool:
        return self.weights is not None


@dataclass(frozen=True)
class BasisEval:
    """Nonzero basis values and first derivatives at one parameter value.

    ``values[j]`` belongs to basis function ``span - degree + j``.
    """

    span: int
    values: np.ndarray
    derivs: np.ndarray

    @property
    def first_index(self) -> int:
        return self.span - self.values.size + 1


def _spans(kv: KnotVector, xs: np.ndarray) -> np.ndarray:
    """Span index i with knots[i] <= x < knots[i+1] for every x in ``xs``.

    The right endpoint clamps into the last nonempty span so that the whole
    closed parameter interval is evaluable.
    """
    kn = kv.knots
    if xs.size and (xs.min() < kn[0] or xs.max() > kn[-1]):
        bad = xs[(xs < kn[0]) | (xs > kn[-1])][0]
        raise SplineError(f"parameter {bad} outside knot range [{kn[0]}, {kn[-1]}]")
    spans = np.searchsorted(kn, xs, side="right") - 1
    n = kv.n_basis
    last = n - 1
    while kn[last] == kn[last + 1]:
        last -= 1
    spans[xs >= kn[n]] = last  # right-endpoint clamp
    return spans


def find_span(kv: KnotVector, xi: float) -> int:
    """Index i of the knot span with knots[i] <= xi < knots[i+1]."""
    return int(_spans(kv, np.array([float(xi)]))[0])


def basis_windows(basis: Basis1D, xs):
    """Nonzero basis values and first derivatives at every point of ``xs``.

    Returns ``(starts, vals, ders)``: ``starts[q]`` is the index of the first
    of the degree+1 basis functions active at ``xs[q]``, and ``vals[q]``,
    ``ders[q]`` hold their values and derivatives. The triangular Cox-de
    Boor scheme (A2.2) runs over all points at once, and the degree-(p-1)
    row feeds the derivative formula (A2.3). Repeated-knot denominators
    never occur in the triangle for a valid span; the derivative terms drop
    them. Rational (NURBS) bases apply the quotient rule against the weight
    sum W(xi).
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    kv = basis.knot_vector
    kn, p = kv.knots, kv.degree
    span = _spans(kv, xs)
    m = xs.size
    left = np.empty((m, p + 1))
    right = np.empty((m, p + 1))
    N = np.ones((m, 1))
    for j in range(1, p + 1):
        left[:, j] = xs - kn[span + 1 - j]
        right[:, j] = kn[span + j] - xs
        if j == p:
            N_pm1 = N  # degree p-1 values, kept for the derivatives
        saved = np.zeros(m)
        N_next = np.empty((m, j + 1))
        for r in range(j):
            den = right[:, r + 1] + left[:, j - r]
            temp = np.divide(N[:, r], den, out=np.zeros(m), where=den != 0.0)
            N_next[:, r] = saved + right[:, r + 1] * temp
            saved = left[:, j - r] * temp
        N_next[:, j] = saved
        N = N_next
    ders = np.zeros((m, p + 1))
    if p > 0:
        for j in range(p + 1):
            i = span - p + j
            if j > 0:  # term p/(kn[i+p]-kn[i]) * N_{i}^{p-1}
                den = kn[i + p] - kn[i]
                c = np.divide(p, den, out=np.zeros(m), where=den != 0.0)
                ders[:, j] += c * N_pm1[:, j - 1]
            if j < p:  # term -p/(kn[i+p+1]-kn[i+1]) * N_{i+1}^{p-1}
                den = kn[i + p + 1] - kn[i + 1]
                c = np.divide(p, den, out=np.zeros(m), where=den != 0.0)
                ders[:, j] -= c * N_pm1[:, j]
    starts = span - p
    if basis.weights is None:
        return starts, N, ders
    w = basis.weights[starts[:, None] + np.arange(p + 1)]
    W = np.einsum("qa,qa->q", N, w)[:, None]
    dW = np.einsum("qa,qa->q", ders, w)[:, None]
    return starts, N * w / W, (ders * w * W - N * w * dW) / W**2


def eval_basis(basis: Basis1D, xi: float) -> BasisEval:
    """Evaluate the degree+1 nonzero basis functions and derivatives at xi."""
    starts, vals, ders = basis_windows(basis, float(xi))
    return BasisEval(int(starts[0]) + basis.degree, vals[0], ders[0])


def tabulate(basis: Basis1D, xis: np.ndarray):
    """Dense value and derivative tables at the given parameters.

    Returns ``(values, derivs)`` with shape (len(xis), n_basis); entries
    outside the local support window are zero.
    """
    starts, vals, ders = basis_windows(basis, xis)
    rows = np.arange(starts.size)[:, None]
    cols = starts[:, None] + np.arange(basis.degree + 1)
    V = np.zeros((starts.size, basis.n_basis))
    D = np.zeros((starts.size, basis.n_basis))
    V[rows, cols] = vals
    D[rows, cols] = ders
    return V, D
