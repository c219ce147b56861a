"""Dense complex polynomials, ascending coefficient order.

A polynomial is stored as a tuple of complex coefficients where
``coeffs[k]`` multiplies ``z**k``. Construction canonicalizes by
dropping trailing coefficients that are exactly zero, and nothing else,
so ``degree()`` is the index of the last nonzero coefficient.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DegreeTooLarge, InvalidDegree, InvalidIndex, InvalidInput

# Degrees above N_MAX would overflow the exact-binomial guarantee the
# apolarity functional relies on.
N_MAX = 60


def _as_finite_complex(values: Iterable[complex]) -> tuple[complex, ...]:
    values = tuple(values)  # an iterator is read once
    try:
        out = tuple(map(complex, values))
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or not all(map(cmath.isfinite, out)):
        # value by value, so that the error raised is the one for the
        # first value that is not finite or will not convert
        for v in values:
            c = complex(v)
            if not cmath.isfinite(c):
                raise InvalidInput(f"non-finite value {c!r}")
    return out


@dataclass(frozen=True)
class Polynomial:
    coeffs: tuple[complex, ...]

    def __init__(self, coeffs: Sequence[complex]):
        cs = _as_finite_complex(coeffs)
        n = len(cs)
        while n > 0 and cs[n - 1] == 0:
            n -= 1
        object.__setattr__(self, "coeffs", cs[:n])

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree of the canonical form; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __call__(self, z: complex) -> complex:
        """Horner evaluation."""
        z = complex(z)
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def derivative(self, order: int = 1) -> "Polynomial":
        """Formal derivative of the given order (order 0 is identity)."""
        if order < 0:
            raise InvalidInput("derivative order must be >= 0")
        if order == 0:
            return self
        if order > self.degree():
            return Polynomial(())
        try:
            out = [self.coeffs[k + order] * math.perm(k + order, order)
                   for k in range(len(self.coeffs) - order)]
        except OverflowError:
            raise InvalidInput(f"derivative of order {order} overflows a float") from None
        return Polynomial(out)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial(())
            out = [0j] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Polynomial(out)
        return Polynomial([c * complex(other) for c in self.coeffs])

    __rmul__ = __mul__

    def shifted_constant(self, delta: complex) -> "Polynomial":
        """Return self + delta (as a polynomial in z)."""
        if self.is_zero:
            return Polynomial([delta])
        out = list(self.coeffs)
        out[0] += complex(delta)
        return Polynomial(out)


def _product(pts: tuple[complex, ...]) -> list[complex]:
    """The coefficients of prod (z - w) over the points, ascending; they
    may not be finite."""
    coeffs = [1.0 + 0j]
    for w in pts:
        coeffs.append(0j)
        for k in range(len(coeffs) - 1, 0, -1):
            coeffs[k] = coeffs[k - 1] - w * coeffs[k]
        coeffs[0] = -w * coeffs[0]
    return coeffs


# CPython rounds each product and each sum of a complex multiplication on
# its own, unless its compiler fuses a*b - c*d into one operation: at
# x = 1 + 2**-27, x*x - x*x and x*x + x*-x are 0 only when both products
# are rounded. _products emulates the separate rounding, so where this
# probe finds it fused _build_products builds every product with _product
_PROBE = complex(1 + 2.0**-27, 1 + 2.0**-27)
_SEPARATE_ROUNDING = ((_PROBE * _PROBE).real == 0.0
                      and (_PROBE * _PROBE.conjugate()).imag == 0.0)


# _product costs about c * L**2 for a set of L points, and the batched
# pass about 320 * c per point of its longest set (measured at 1-128 sets
# of 3-60 points); _build_products batches only sets whose squared
# lengths sum to at least _BATCH_MIN times the longest length
_BATCH_MIN = 320


def _products(sets: list[tuple[complex, ...]]) -> np.ndarray:
    """_product of every point set, in one batched pass with its bits:
    row i holds the coefficients of sets[i], ascending, then zeros.

    numpy's complex multiply may fuse a multiply and an add, so CPython's
    w*c, (w.re*c.re - w.im*c.im, w.re*c.im + w.im*c.re), is emulated with
    float64 ufuncs, each rounded alone. The rows are sorted by length,
    longest first, so the step for point j updates a prefix of them.
    """
    order = sorted(range(len(sets)), key=lambda i: -len(sets[i]))
    lens = np.array([len(sets[i]) for i in order])
    n = lens[0]
    w = np.zeros((len(sets), n), dtype=complex)
    for r, i in enumerate(order):
        w[r, :lens[r]] = sets[i]
    wr, wi = w.real.copy(), w.imag.copy()
    cr, ci = np.zeros((len(sets), n + 1)), np.zeros((len(sets), n + 1))
    cr[:, 0] = 1.0
    with np.errstate(all="ignore"):
        for j, m in enumerate((lens[:, None] > np.arange(n)).sum(axis=0)):
            a, b = wr[:m, j, None], wi[:m, j, None]
            hr, hi = cr[:m, 1:j + 2], ci[:m, 1:j + 2]
            # c[k] <- c[k-1] - w*c[k] for k = j+1 down to 1, where c[j+1]
            # is the 0j appended; each reads the c[k-1] of the step before
            tr = cr[:m, :j + 1] - (a * hr - b * hi)
            ti = ci[:m, :j + 1] - (a * hi + b * hr)
            # c[0] <- (-w)*c[0]
            na, nb, c0r, c0i = -a[:, 0], -b[:, 0], cr[:m, 0], ci[:m, 0]
            r0, i0 = na * c0r - nb * c0i, na * c0i + nb * c0r
            cr[:m, 1:j + 2], ci[:m, 1:j + 2] = tr, ti
            cr[:m, 0], ci[:m, 0] = r0, i0
    out = np.empty((len(sets), n + 1), dtype=complex)
    out.real[order], out.imag[order] = cr, ci
    return out


def _build_products(sets: list[tuple[complex, ...]]) -> list[list[complex]]:
    """_product of every set of finite points: in one batched pass where
    this CPython rounds a complex multiply as _products emulates and the
    sets are many and long enough for the pass to pay, one by one
    otherwise. A row that the pass leaves non-finite is built again with
    _product, whose non-finite bits the pass need not match."""
    lens = [len(pts) for pts in sets]
    if not _SEPARATE_ROUNDING or not lens or sum(n * n for n in lens) < _BATCH_MIN * max(lens):
        return [_product(pts) for pts in sets]
    out = []
    for pts, c in zip(sets, _products(sets)):
        c = c[:len(pts) + 1].tolist()
        out.append(c if all(map(cmath.isfinite, c)) else _product(pts))
    return out


def _root_points(roots: Sequence[complex]) -> tuple[complex, ...]:
    """The roots as complex numbers, which must be finite and at least one."""
    pts = _as_finite_complex(roots)
    if not pts:
        raise InvalidInput("from_roots requires at least one root")
    return pts


def from_roots(roots: Sequence[complex]) -> Polynomial:
    """Monic polynomial with exactly the given roots (with multiplicity)."""
    return Polynomial(_product(_root_points(roots)))


def _symmetric_from_product(c: Sequence[complex]) -> list[complex]:
    """e_0..e_n of the points whose product prod (z - w) has the
    ascending coefficients c: e_k is (-1)^k times c[n - k]."""
    n = len(c) - 1
    return [-c[n - k] if k % 2 else c[n - k] for k in range(n + 1)]


def elementary_symmetric_all(points: Sequence[complex]) -> list[complex]:
    """All e_0..e_n of the points, read from the product from_roots builds."""
    return _symmetric_from_product(_product(_as_finite_complex(points)))


def elementary_symmetric(points: Sequence[complex], k: int) -> complex:
    """e_k of the points; e_0 = 1."""
    if k < 0 or k > len(points):
        raise InvalidIndex(f"k={k} out of range for {len(points)} points")
    return elementary_symmetric_all(points)[k]


# Pascal's triangle up to N_MAX: _PASCAL[n][k] is C(n, k)
_PASCAL = [[math.comb(n, k) for k in range(n + 1)] for n in range(N_MAX + 1)]


def binomial(n: int, k: int) -> int:
    """Exact C(n,k) for 0 <= k <= n <= N_MAX."""
    if n < 0 or k < 0 or k > n:
        raise InvalidIndex(f"binomial({n},{k}) undefined")
    if n > N_MAX:
        raise DegreeTooLarge(f"n={n} exceeds N_MAX={N_MAX}")
    return _PASCAL[n][k]


def mean_of_roots(p: Polynomial) -> complex:
    """Arithmetic mean of the zeros, from coefficients alone."""
    n = p.degree()
    if n < 1:
        raise InvalidDegree("mean_of_roots needs degree >= 1")
    return -p.coeffs[n - 1] / (n * p.coeffs[n])
