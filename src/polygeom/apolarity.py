"""The apolarity pairing of degree-n coefficient frames and numerical
Grace witnesses.

Apolarity is a statement about forms of formal degree n, not about the
polynomials' natural degrees, so every operation takes the frame n
explicitly and zero-pads both coefficient vectors to length n+1.
"""

from __future__ import annotations

import random

from .errors import HypothesisViolated, InvalidInput, TheoremViolation
from .poly import Polynomial, binomial
from .regions import CircularRegion, contains
from .rootfind import DEFAULT_TOL, drive

DEFAULT_APOLARITY_RTOL = 1e-8
# the band around a region within which a computed root counts as a witness
WITNESS_TOL = 1e-6


def _framed(p: Polynomial, n: int) -> list[complex]:
    if n < 1:
        raise InvalidInput("frame degree must be >= 1")
    if p.degree() > n:
        raise InvalidInput(f"degree {p.degree()} exceeds frame {n}")
    cs = list(p.coeffs) + [0j] * (n + 1 - len(p.coeffs))
    return cs


def apolarity_functional(a: Polynomial, b: Polynomial, n: int) -> complex:
    """Sum of (-1)^k a_k b_{n-k} / C(n,k) over the degree-n frame."""
    ac = _framed(a, n)
    bc = _framed(b, n)
    total = 0j
    for k in range(n + 1):
        term = ac[k] * bc[n - k] / binomial(n, k)
        total += -term if k % 2 else term
    return total


def _apolarity_scale(a: Polynomial, b: Polynomial, n: int) -> float:
    ac = _framed(a, n)
    bc = _framed(b, n)
    return sum(abs(ac[k]) * abs(bc[n - k]) / binomial(n, k) for k in range(n + 1))


def is_apolar(
    a: Polynomial, b: Polynomial, n: int, rtol: float = DEFAULT_APOLARITY_RTOL
) -> bool:
    """True iff the pairing vanishes relative to its own magnitude scale."""
    value = abs(apolarity_functional(a, b, n))
    scale = _apolarity_scale(a, b, n)
    return value <= rtol * scale if scale > 0 else value == 0


def make_apolar(a: Polynomial, n: int, seed: int) -> Polynomial:
    """Random b with A(a, b) = 0, deterministic given seed.

    All coefficients of b are drawn from the unit box except the one
    paired against the largest |a_{n-j}|/C(n,j), which is solved for; that
    choice keeps the one-unknown linear solve well-conditioned.
    """
    if a.is_zero:
        raise InvalidInput("make_apolar needs a nonzero polynomial")
    ac = _framed(a, n)

    j_best = max(range(n + 1), key=lambda j: abs(ac[n - j]) / binomial(n, j))
    rng = random.Random(seed)
    bc = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n + 1)]

    # coefficient of b_j in A(a,b) is (-1)^{n-j} a_{n-j} / C(n,j)
    coef = ac[n - j_best] / binomial(n, j_best)
    if (n - j_best) % 2:
        coef = -coef
    bc[j_best] = 0j
    rest = apolarity_functional(a, Polynomial(bc), n)
    bc[j_best] = -rest / coef
    return Polynomial(bc)


def _grace_core(a: Polynomial, b: Polynomial, n: int, region: CircularRegion):
    """grace_witness as a core: yields a, then b, for their roots."""
    if a.degree() != n or b.degree() != n:
        raise InvalidInput(
            f"both polynomials must have degree exactly {n} "
            f"(got {a.degree()} and {b.degree()})"
        )
    if not is_apolar(a, b, n):
        value = apolarity_functional(a, b, n)
        raise HypothesisViolated(f"pair is not apolar: A(a,b) = {value}")

    a_roots = yield a
    for r in a_roots.roots:
        if not contains(region, r):
            raise HypothesisViolated(
                f"root {r} of a outside region (signed distance "
                f"{region.signed_distance(r):.3e})"
            )

    b_roots = yield b
    inside = [
        (res, abs(r), r)
        for r, res in zip(b_roots.roots, b_roots.residuals)
        if contains(region, r, WITNESS_TOL)
    ]
    if not inside:
        raise TheoremViolation("no root of b found inside the region")
    return min(inside)[2]


def grace_witness(
    a: Polynomial,
    b: Polynomial,
    n: int,
    region: CircularRegion,
    root_tol: float = DEFAULT_TOL,
) -> complex:
    """A root of b inside the region, as Grace's theorem guarantees.

    Checks the hypotheses first (full degree n on both sides, apolarity,
    all roots of a in the region); returns the in-region root of b with
    the smallest residual, ties broken by modulus.
    """
    return drive(_grace_core(a, b, n, region), root_tol)
