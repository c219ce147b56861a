"""Symmetric multiaffine polynomials in the elementary-symmetric basis,
the classical Walsh coincidence solver, and its extension to total degree
m <= n over circular regions (hypothesis on the zeros of the (n-m)-th
derivative of the root polynomial).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .apolarity import WITNESS_TOL, apolarity_functional, _apolarity_scale
from .errors import (
    DegenerateDiagonal,
    HypothesisViolated,
    InvalidInput,
    TheoremViolation,
)
from .poly import Polynomial, binomial, elementary_symmetric_all, from_roots
from .regions import CircularRegion, contains
from .rootfind import DEFAULT_TOL, RootSet, drive


@dataclass(frozen=True)
class SymmetricMultiaffine:
    """p(z_1..z_n) = sum_k E_k * e_k, degree at most 1 in each variable.

    Only trailing E_k that are exactly 0 are dropped, as in Polynomial, so
    the total degree is the index of the last nonzero E_k. trim is ignored;
    it is kept so that callers passing it keep working.
    """

    n: int
    E: tuple[complex, ...]

    def __init__(self, n: int, E: Sequence[complex], trim: bool = True):
        if n < 1:
            raise InvalidInput("need at least one variable")
        cs = tuple(complex(c) for c in E)
        if not cs:
            raise InvalidInput("E must be nonempty")
        k = len(cs)
        while k > 1 and cs[k - 1] == 0:
            k -= 1
        cs = cs[:k]
        if len(cs) - 1 > n:
            raise InvalidInput(f"total degree {len(cs) - 1} exceeds n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "E", cs)

    @property
    def total_degree(self) -> int:
        return len(self.E) - 1


@dataclass(frozen=True)
class HypothesisReport:
    holds: bool
    derivative_roots: RootSet
    outside: tuple[complex, ...]


def evaluate_multiaffine(P: SymmetricMultiaffine, points: Sequence[complex]) -> complex:
    if len(points) != P.n:
        raise InvalidInput(f"expected {P.n} points, got {len(points)}")
    e = elementary_symmetric_all(points)
    return sum(Ek * e[k] for k, Ek in enumerate(P.E))


def diagonal(P: SymmetricMultiaffine) -> Polynomial:
    """r(z) = p(z,...,z); coefficient of z^k is E_k * C(n,k)."""
    return Polynomial([Ek * binomial(P.n, k) for k, Ek in enumerate(P.E)])


def _hypothesis_core(points: Sequence[complex], m: int, region: CircularRegion):
    """theorem1_hypothesis as a core: yields q^(n-m) for its roots."""
    n = len(points)
    if not 1 <= m <= n:
        raise InvalidInput(f"need 1 <= m <= {n}, got m={m}")
    q = from_roots(points)
    d = q.derivative(n - m)
    droots = yield d
    outside = tuple(r for r in droots.roots if not contains(region, r))
    return HypothesisReport(not outside, droots, outside)


def theorem1_hypothesis(
    points: Sequence[complex],
    m: int,
    region: CircularRegion,
    root_tol: float = DEFAULT_TOL,
) -> HypothesisReport:
    """Do all zeros of q^(n-m) lie in the region, q = prod (z - w_i)?

    m = n means the zeroth derivative: the points themselves.
    """
    return drive(_hypothesis_core(points, m, region), root_tol)


def _coincidence_core(
    P: SymmetricMultiaffine,
    points: Sequence[complex],
    region: CircularRegion,
    check_hypothesis: bool = True,
    classic: bool = False,
    hypothesis: HypothesisReport | None = None,
):
    """coincidence_witness as a core: yields q^(n-m) (unless classic or
    given its hypothesis), then the diagonal equation, for their roots."""
    if len(points) != P.n:
        raise InvalidInput(f"expected {P.n} points, got {len(points)}")
    m = P.total_degree

    if check_hypothesis:
        if classic:
            bad = [w for w in points if not contains(region, w)]
            if bad:
                raise HypothesisViolated(f"points outside region: {bad}")
        else:
            if hypothesis is None:
                hypothesis = yield from _hypothesis_core(points, max(m, 1), region)
            if not hypothesis.holds:
                raise HypothesisViolated(
                    f"derivative zeros outside region: {list(hypothesis.outside)}",
                    report=hypothesis,
                )

    c = evaluate_multiaffine(P, points)
    if m == 0:
        # constant P: the equation is an identity; any member will do
        return region.representative_point()

    g = diagonal(P).shifted_constant(-c)
    if g.degree() < 1:
        if g.is_zero:
            return region.representative_point()
        raise DegenerateDiagonal("diagonal minus value is a nonzero constant")

    groots = yield g
    inside = [
        (res, abs(r), r)
        for r, res in zip(groots.roots, groots.residuals)
        if contains(region, r, WITNESS_TOL)
    ]
    if not inside:
        raise TheoremViolation(
            f"no solution of the diagonal equation inside the region "
            f"(roots {list(groots.roots)})",
            report=hypothesis,
        )
    return min(inside)[2]


def coincidence_witness(
    P: SymmetricMultiaffine,
    points: Sequence[complex],
    region: CircularRegion,
    root_tol: float = DEFAULT_TOL,
    check_hypothesis: bool = True,
    classic: bool = False,
    hypothesis: HypothesisReport | None = None,
) -> complex:
    """A point z in the region with p(w_1..w_n) = p(z,...,z).

    classic=True checks the original Walsh hypothesis (the points
    themselves in the region) instead of the derivative-zero hypothesis.
    hypothesis is a theorem1_hypothesis report already computed for these
    points and region; it is used instead of computing one.
    """
    return drive(_coincidence_core(P, points, region, check_hypothesis, classic, hypothesis),
                 root_tol)


def theorem1_apolarity_residual(
    P: SymmetricMultiaffine, points: Sequence[complex]
) -> float:
    """Relative magnitude of A(q^(n-m), r) after normalizing p(w..) = 0.

    The extension theorem's proof asserts this pairing vanishes
    identically; the returned residual is its numerical size.
    """
    if len(points) != P.n:
        raise InvalidInput(f"expected {P.n} points, got {len(points)}")
    m = P.total_degree
    if m < 1:
        raise InvalidInput("need total degree >= 1")
    n = P.n

    c = evaluate_multiaffine(P, points)
    E = list(P.E)
    E[0] -= c
    Pn = SymmetricMultiaffine(n, E)

    q = from_roots(points)
    d = q.derivative(n - m)
    r = diagonal(Pn)
    value = abs(apolarity_functional(d, r, m))
    scale = _apolarity_scale(d, r, m)
    return value / scale if scale > 0 else value
