"""The apolarity pairing of degree-n coefficient frames and numerical
Grace witnesses.

Apolarity is a statement about forms of formal degree n, not about the
polynomials' natural degrees, so every operation takes the frame n
explicitly and zero-pads both coefficient vectors to length n+1.
"""

from __future__ import annotations

import math
import random

from .errors import DegreeTooLarge, InvalidInput
from .poly import N_MAX, Polynomial, binomial
from .regions import CircularRegion, _modulus
from .rootfind import drive

# the relative band of the apolarity test
APOLARITY_RTOL = 1e-8


def _framed(p: Polynomial, n: int) -> list[complex]:
    if n < 1:
        raise InvalidInput("frame degree must be >= 1")
    if n > N_MAX:
        raise DegreeTooLarge(f"frame degree {n} exceeds N_MAX={N_MAX}")
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


def apolarity_residual(a: Polynomial, b: Polynomial, n: int) -> float:
    """|A(a, b)| relative to its scale sum |a_k b_{n-k}| / C(n,k) over the terms
    with no zero factor (0 when that scale is 0); inf where a modulus, or the
    scale of a nonzero A, is beyond the largest float."""
    value = _modulus(apolarity_functional(a, b, n))
    ac, bc = _framed(a, n), _framed(b, n)
    scale = sum(_modulus(ac[k]) * _modulus(bc[n - k]) / binomial(n, k)
                for k in range(n + 1) if ac[k] and bc[n - k])
    if value and scale == math.inf:
        return math.inf
    return value / scale if scale > 0 else value


def is_apolar(a: Polynomial, b: Polynomial, n: int) -> bool:
    """True iff the pairing vanishes relative to its own magnitude scale.
    A residual that is NaN or inf, where the pairing or its scale
    overflows, decides nothing: that pair is invalid input."""
    res = apolarity_residual(a, b, n)
    if not math.isfinite(res):
        raise InvalidInput(f"the apolarity pairing overflows: A(a,b) = "
                           f"{apolarity_functional(a, b, n)}")
    return res <= APOLARITY_RTOL


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


def grace_witness(a: Polynomial, b: Polynomial, n: int, region: CircularRegion) -> complex:
    """A root of b inside the region, as Grace's theorem guarantees.

    Checks the hypotheses first (full degree n on both sides, apolarity,
    all roots of a in the region), then solves b(z) = P_b(alpha) with
    Walsh's coincidence theorem (see coincidence._grace_core); returns the
    in-region solution with the smallest residual, ties broken by modulus.
    """
    # coincidence builds on this module's pairing, so it is imported here
    from .coincidence import _grace_core
    return drive(_grace_core(a, b, n, region))
