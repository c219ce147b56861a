"""Lower bound on k-th-derivative zeros inside a disk.

A closed disk containing n-1 zeros of p, centered at their arithmetic
mean, contains at least floor((n-2k+1)/2) zeros of p^(k). This module
verifies that bound on concrete instances, checks the closed-form
derivative identity the proof rests on, and runs Gauss-Lucas checks.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from .errors import DegreeTooLarge, InvalidInput, InvalidInstance
from .poly import N_MAX, Polynomial, from_roots, mean_of_roots
from .regions import CircularRegion, contains, convex_hull, disk, hull_distance
from .rootfind import Product, drive

_MEAN_RTOL = 1e-12
# the largest relative distance between the mean zero of p and of p^(k)
# (equal in exact arithmetic) at which a theorem 2 check still passes
MEAN_RESIDUAL_TOL = 1e-12
# the band of the disk test of a zero count, of inner-zero membership and
# of the Gauss-Lucas hull distance
_COUNT_TOL = 1e-7
# the disk of a theorem 2 instance in its own frame
_UNIT_DISK = disk(0j, 1.0)


@dataclass(frozen=True)
class Theorem2Instance:
    inner_zeros: tuple[complex, ...]
    outer_zero: complex
    disk: CircularRegion

    def validate(self) -> None:
        m = len(self.inner_zeros)
        if m < 2:
            raise InvalidInstance("need at least two inner zeros (n >= 3)")
        if m + 1 > N_MAX:
            raise DegreeTooLarge(f"n={m + 1} exceeds N_MAX={N_MAX}")
        mean = sum(self.inner_zeros) / m
        c = self.disk.center
        if abs(mean - c) > _MEAN_RTOL * (1.0 + abs(c)):
            raise InvalidInstance(
                f"disk center {c} is not the mean of the inner zeros ({mean})"
            )
        for z in self.inner_zeros:
            if not contains(self.disk, z, _COUNT_TOL):
                raise InvalidInstance(f"inner zero {z} outside the closed disk")


@dataclass(frozen=True)
class Theorem2Report:
    """The count of the zeros of p^(k) in the closed disk against the
    bound; derivative_roots are those zeros in the instance's frame."""

    n: int
    k: int
    bound: int
    derivative_roots: tuple[complex, ...]
    count_in_disk: int
    satisfied: bool
    mean_residual: float
    vacuous: bool


def theorem2_bound(n: int, k: int) -> int:
    """floor((n-2k+1)/2), clamped at 0 (a count cannot go negative)."""
    if not 1 <= k <= n - 1:
        raise InvalidInput(f"need 1 <= k <= n-1, got n={n}, k={k}")
    return max(0, (n - 2 * k + 1) // 2)


def _disk_frame_points(inst: Theorem2Instance) -> list[complex]:
    """The zeros of p in the disk's own frame (center 0, radius 1):
    (z - c) / r for each zero z."""
    c, r = inst.disk.center, inst.disk.radius
    return [(z - c) / r for z in list(inst.inner_zeros) + [inst.outer_zero]]


def _theorem2_core(inst: Theorem2Instance, k: int):
    """check_theorem2 as a core: yields the disk-frame points, as a
    Product, then p^(k), for its roots."""
    inst.validate()
    n = len(inst.inner_zeros) + 1
    bound = theorem2_bound(n, k)

    # derivative zeros are affine-equivariant, so work in the disk's own
    # frame (center 0, radius 1); this keeps tightly clustered instances
    # well-conditioned without changing any count
    c, r = inst.disk.center, inst.disk.radius
    p = Polynomial((yield Product(_disk_frame_points(inst))))
    d = p.derivative(k)
    droots = yield d
    count = sum(contains(_UNIT_DISK, z, _COUNT_TOL) for z in droots.roots)

    mu_p = mean_of_roots(p)
    mu_d = mean_of_roots(d)
    mean_residual = abs(mu_p - mu_d) / (1.0 + abs(mu_p))

    return Theorem2Report(
        n=n,
        k=k,
        bound=bound,
        derivative_roots=tuple(c + r * z for z in droots.roots),
        count_in_disk=count,
        satisfied=count >= bound,
        mean_residual=mean_residual,
        vacuous=(bound == 0),
    )


def check_theorem2(inst: Theorem2Instance, k: int) -> Theorem2Report:
    return drive(_theorem2_core(inst, k))


def kth_derivative_identity(n: int, k: int, y: complex) -> float:
    """Residual of d^k/dz^k [z (z-y)^(n-1)] against its closed form.

    Closed form: k! C(n-1,k) z (z-y)^(n-k-1) + k! C(n-1,k-1) (z-y)^(n-k).
    Returns the max coefficient deviation relative to the largest
    coefficient magnitude.
    """
    if not 1 <= k <= n - 1:
        raise InvalidInput(f"need 1 <= k <= n-1, got n={n}, k={k}")
    if n > N_MAX:
        raise DegreeTooLarge(f"n={n} exceeds N_MAX={N_MAX}")
    y = complex(y)
    lhs = from_roots([0j] + [y] * (n - 1)).derivative(k)

    fact = math.factorial(k)
    shell = from_roots([y] * (n - k - 1)) if n - k - 1 > 0 else Polynomial([1])
    t1 = fact * math.comb(n - 1, k) * (Polynomial([0, 1]) * shell)
    t2 = fact * math.comb(n - 1, k - 1) * from_roots([y] * (n - k))
    rhs = t1 + t2

    la, lb = lhs.coeffs, rhs.coeffs
    top = max(max(abs(c) for c in la), max(abs(c) for c in lb), 1e-300)
    return max(abs(x - z) for x, z in zip(la, lb, strict=True)) / top


def factorization_roots(n: int, k: int, y: complex) -> list[complex]:
    """Zeros of the closed form: y with multiplicity n-k-1, plus (k/n) y."""
    if not 1 <= k <= n - 1:
        raise InvalidInput(f"need 1 <= k <= n-1, got n={n}, k={k}")
    y = complex(y)
    return [y] * (n - k - 1) + [(k / n) * y]


def _gauss_lucas_core(p: Polynomial):
    """gauss_lucas_check as a core: yields p, then p', for their roots."""
    if p.degree() < 2:
        raise InvalidInput("gauss_lucas_check needs degree >= 2")
    if p.degree() > N_MAX:
        raise DegreeTooLarge(f"n={p.degree()} exceeds N_MAX={N_MAX}")
    hull = convex_hull((yield p).roots)
    crit = yield p.derivative()
    return all(hull_distance(hull, z) <= _COUNT_TOL for z in crit.roots)


def gauss_lucas_check(p: Polynomial) -> bool:
    """Every critical point within _COUNT_TOL of the convex hull of the zeros."""
    return drive(_gauss_lucas_core(p))


def _theorem2_instance_core(n: int, seed: int, radius: float, outer_distance: float,
                            center: complex):
    """generate_theorem2_instance as a core: yields the disk-frame points,
    as a Product, for the disk-frame polynomial."""
    if n < 3:
        raise InvalidInput("need n >= 3")
    if n > N_MAX:
        raise DegreeTooLarge(f"n={n} exceeds N_MAX={N_MAX}")
    if not (0 < radius < math.inf and 0 < outer_distance < math.inf):
        raise InvalidInput("radius and outer_distance must be finite and positive")
    rng = random.Random(seed)
    center = complex(center)

    pts = []
    for _ in range(n - 1):
        r = radius * math.sqrt(rng.random())
        th = rng.uniform(0.0, 2.0 * math.pi)
        pts.append(cmath.rect(r, th))
    mean = sum(pts) / len(pts)
    pts = [z - mean for z in pts]
    top = max(abs(z) for z in pts)
    if top > 0.999 * radius:
        s = 0.999 * radius / top
        pts = [s * z for z in pts]
    inner = tuple(center + z for z in pts)

    d = outer_distance * (1.0 + rng.random())
    outer = center + cmath.rect(d, rng.uniform(0.0, 2.0 * math.pi))
    if not cmath.isfinite(outer):
        raise InvalidInput(f"the outer zero overflows at outer_distance={outer_distance}")
    inst = Theorem2Instance(inner, outer, disk(center, radius))
    try:
        # p^(k) multiplies a_j by j!/(j-k)! <= j!: when every a_j * j! is
        # finite, so is every derivative a check can ask for
        p = Polynomial((yield Product(_disk_frame_points(inst))))
        Polynomial([a * math.factorial(j) for j, a in enumerate(p.coeffs)])
    except InvalidInput:
        raise InvalidInput(
            f"the disk-frame polynomial or a derivative overflows at radius={radius}, "
            f"outer_distance={outer_distance}") from None
    return inst


def generate_theorem2_instance(
    n: int,
    seed: int,
    radius: float = 1.0,
    outer_distance: float = 2.0,
    center: complex = 0j,
) -> Theorem2Instance:
    """Hypothesis-respecting sampler, deterministic given seed.

    n-1 points are drawn in the disk and recentered so their mean is
    exactly the disk center (kept at most 0.999*radius from it); the
    remaining zero goes at distance >= outer_distance from the center.
    """
    return drive(_theorem2_instance_core(n, seed, radius, outer_distance, center))
