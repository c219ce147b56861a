"""Symmetric multiaffine polynomials in the elementary-symmetric basis,
the classical Walsh coincidence solver, and its extension to total degree
m <= n over circular regions (hypothesis on the zeros of the (n-m)-th
derivative of the root polynomial).

Grace's theorem is the classical case with P the polar form of b: for a
monic a with roots alpha, A(a, b) = (-1)^n P_b(alpha), and the diagonal
of P_b is b, so a Grace witness is a coincidence witness at alpha.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .apolarity import apolarity_functional, apolarity_residual, is_apolar
from .errors import DegreeTooLarge, HypothesisViolated, InvalidInput, TheoremViolation
from .poly import (
    N_MAX,
    Polynomial,
    _symmetric_from_product,
    binomial,
    elementary_symmetric_all,
    from_roots,
)
from .regions import CircularRegion, _modulus, contains
from .rootfind import Product, drive

# the band around a region within which a computed root counts as a witness
WITNESS_TOL = 1e-6


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
    derivative_roots: tuple[complex, ...]
    outside: tuple[complex, ...]


def evaluate_multiaffine(P: SymmetricMultiaffine, points: Sequence[complex]) -> complex:
    if len(points) != P.n:
        raise InvalidInput(f"expected {P.n} points, got {len(points)}")
    e = elementary_symmetric_all(points)
    return sum(Ek * e[k] for k, Ek in enumerate(P.E))


def diagonal(P: SymmetricMultiaffine) -> Polynomial:
    """r(z) = p(z,...,z); coefficient of z^k is E_k * C(n,k)."""
    return Polynomial([Ek * binomial(P.n, k) for k, Ek in enumerate(P.E)])


def _diagonal_equation(P: SymmetricMultiaffine, product: Sequence[complex]) -> Polynomial:
    """g(z) = p(z,...,z) - p(w_1..w_n), whose zeros are the coincidence
    points, given the coefficients of prod (z - w_i). The coincidence
    core and the theorem 1 campaign generator, which asks for its roots
    ahead, both build it here, so that they ask for the same bytes."""
    e = _symmetric_from_product(product)
    return diagonal(P).shifted_constant(-sum(Ek * e[k] for k, Ek in enumerate(P.E)))


def polar(b: Polynomial, n: int) -> SymmetricMultiaffine:
    """The polar form of b in the degree-n frame: E_k = b_k / C(n,k), so
    that its diagonal is b."""
    return SymmetricMultiaffine(n, [bk / binomial(n, k) for k, bk in enumerate(b.coeffs)])


def _hypothesis_core(points: Sequence[complex], m: int, region: CircularRegion):
    """theorem1_hypothesis as a core, and the one place a coincidence
    hypothesis is tested: yields the points, as a Product, then q^(n-m),
    for its roots, unless m = n, where the zeros are the points
    themselves, so that Walsh's hypothesis is the m = n case. The report
    holds the zeros it tested."""
    n = len(points)
    if n > N_MAX:
        raise DegreeTooLarge(f"n={n} exceeds N_MAX={N_MAX}")
    if not 1 <= m <= n:
        raise InvalidInput(f"need 1 <= m <= {n}, got m={m}")
    if m == n:
        droots = tuple(complex(w) for w in points)
    else:
        droots = (yield Polynomial((yield Product(points))).derivative(n - m)).roots
    outside = tuple(r for r in droots if not contains(region, r))
    return HypothesisReport(not outside, droots, outside)


def theorem1_hypothesis(points: Sequence[complex], m: int,
                        region: CircularRegion) -> HypothesisReport:
    """Do all zeros of q^(n-m) lie in the region, q = prod (z - w_i)?

    m = n means the zeroth derivative: the points themselves, which is
    Walsh's classical hypothesis. At most N_MAX points.
    """
    return drive(_hypothesis_core(points, m, region))


def _coincidence_core(
    P: SymmetricMultiaffine,
    points: Sequence[complex],
    region: CircularRegion,
    check_hypothesis: bool = True,
    classic: bool = False,
):
    """coincidence_witness as a core, and the one place a witness is
    picked: yields what the hypothesis core yields, at m = n when classic
    and at the total degree (at least 1) otherwise, then the points, as a
    Product, for the e_k of the coincidence value, then the diagonal
    equation, for its roots. Returns the witness and the theorem 1
    hypothesis report (None when classic)."""
    if len(points) != P.n:
        raise InvalidInput(f"expected {P.n} points, got {len(points)}")

    hypothesis = yield from _hypothesis_core(
        points, P.n if classic else max(P.total_degree, 1), region)
    report = None if classic else hypothesis
    if not hypothesis.holds and check_hypothesis:
        what = "points" if classic else "derivative zeros"
        raise HypothesisViolated(f"{what} outside region: {list(hypothesis.outside)}",
                                 report=report)

    g = _diagonal_equation(P, (yield Product(points)))
    if g.is_zero:
        # a constant P: the equation is an identity. Otherwise g has the
        # degree m >= 1 of P, with leading coefficient E_m C(n, m)
        return region.representative_point(), report

    groots = yield g
    inside = [
        (res, _modulus(r), r)
        for r, res in zip(groots.roots, groots.residuals)
        if contains(region, r, WITNESS_TOL)
    ]
    if not inside:
        raise TheoremViolation(
            f"no solution of the diagonal equation inside the region "
            f"(roots {list(groots.roots)})",
            report=report,
        )
    # the smallest residual, then the smallest modulus, then the first
    return min(inside, key=lambda t: t[:2])[2], report


def coincidence_witness(
    P: SymmetricMultiaffine,
    points: Sequence[complex],
    region: CircularRegion,
    check_hypothesis: bool = True,
    classic: bool = False,
) -> complex:
    """A point z in the region with p(w_1..w_n) = p(z,...,z).

    classic=True checks the original Walsh hypothesis (the points
    themselves in the region), which is the derivative-zero hypothesis at
    m = n, instead of the one at P's total degree. At most N_MAX points,
    whichever hypothesis is checked.
    """
    return drive(_coincidence_core(P, points, region, check_hypothesis, classic))[0]


def _grace_core(a: Polynomial, b: Polynomial, n: int, region: CircularRegion,
                a_roots: Sequence[complex] | None = None):
    """grace_witness as a core: checks the degrees and apolarity, then runs
    the classical coincidence core on the polar form of b at the roots of
    a. Yields a, for its roots, unless a_roots are given: then it yields
    them, as a Product, and they must rebuild a exactly. Then it yields
    what the coincidence core yields."""
    if a.degree() != n or b.degree() != n:
        raise InvalidInput(f"both polynomials must have degree exactly {n} "
                           f"(got {a.degree()} and {b.degree()})")
    if a_roots is not None and Polynomial((yield Product(a_roots))) != a:
        raise InvalidInput("a_roots do not rebuild a")
    if not is_apolar(a, b, n):
        raise HypothesisViolated(
            f"pair is not apolar: A(a,b) = {apolarity_functional(a, b, n)}")
    if a_roots is None:
        a_roots = (yield a).roots
    w, _ = yield from _coincidence_core(polar(b, n), a_roots, region, classic=True)
    return w


def theorem1_apolarity_residual(
    P: SymmetricMultiaffine, points: Sequence[complex]
) -> float:
    """Relative magnitude of A(q^(n-m), r) after normalizing p(w..) = 0.

    The extension theorem's proof asserts this pairing vanishes
    identically; the returned residual is its numerical size.
    """
    m = P.total_degree
    if m < 1:
        raise InvalidInput("need total degree >= 1")
    if len(points) != P.n:
        raise InvalidInput(f"expected {P.n} points, got {len(points)}")
    q = from_roots(points)
    return apolarity_residual(q.derivative(P.n - m), _diagonal_equation(P, q.coeffs), m)
