"""Circular regions (disk, half-plane, exterior of a disk) and the
convex-geometry predicates the verifiers rely on.

Half-planes are kept in Hesse normal form: a unit direction u and an
offset d, with membership Re(z * conj(u)) <= d. The exterior of a
half-plane is again a half-plane, so only three variants exist.
"""

from __future__ import annotations

import cmath
import functools
import math
import random
from dataclasses import dataclass, replace
from typing import Sequence

from .errors import InvalidInput
from .poly import _as_finite_complex

# the membership band of every hypothesis check
MEMBERSHIP_TOL = 1e-9

DISK = "disk"
HALFPLANE = "halfplane"
EXTERIOR = "exterior"


@dataclass(frozen=True)
class CircularRegion:
    kind: str
    closed: bool = True
    center: complex = 0j
    radius: float = 0.0
    direction: complex = 1 + 0j
    offset: float = 0.0

    def __post_init__(self):
        if not all(map(cmath.isfinite, (self.center, self.radius, self.direction, self.offset))):
            raise InvalidInput(f"region parameters must be finite: {self}")

    def signed_distance(self, z: complex) -> float:
        """Negative inside, zero on the boundary, positive outside."""
        if self.kind == DISK:
            return abs(z - self.center) - self.radius
        if self.kind == EXTERIOR:
            return self.radius - abs(z - self.center)
        return (z * self.direction.conjugate()).real - self.offset

    def representative_point(self) -> complex:
        """Some member of the region (used for degenerate witnesses)."""
        if self.kind == DISK:
            return self.center
        if self.kind == EXTERIOR:
            off = self.radius if self.closed else 2.0 * self.radius
            return self.center + off
        off = self.offset if self.closed else self.offset - 1.0
        return self.direction * off


def disk(center: complex, radius: float, closed: bool = True) -> CircularRegion:
    if radius <= 0:
        raise InvalidInput("disk radius must be positive")
    return CircularRegion(DISK, closed, center=complex(center), radius=float(radius))


def exterior_disk(center: complex, radius: float, closed: bool = True) -> CircularRegion:
    if radius <= 0:
        raise InvalidInput("disk radius must be positive")
    return CircularRegion(EXTERIOR, closed, center=complex(center), radius=float(radius))


def half_plane(direction: complex, offset: float, closed: bool = True) -> CircularRegion:
    try:
        mag = abs(complex(direction))
    except OverflowError:
        # |direction| is beyond the largest float: the same half-plane,
        # from the direction and the offset halved, where it is not
        return half_plane(complex(direction) * 0.5, float(offset) * 0.5, closed)
    if mag == 0:
        raise InvalidInput("half-plane direction must be nonzero")
    return CircularRegion(
        HALFPLANE, closed, direction=complex(direction) / mag, offset=float(offset) / mag
    )


def contains(region: CircularRegion, z: complex, tol: float = MEMBERSHIP_TOL) -> bool:
    """Tolerance-aware membership.

    Closed regions accept the boundary band, open regions reject it; the
    open/closed flag only matters within tol*(1+|z|) of the boundary.
    Where |z| or the distance from z to a disk's centre is beyond the
    largest float, the test is taken at a quarter of the scale, so it
    decides by the same geometry and never overflows.
    """
    if not tol >= 0:  # NaN too
        raise InvalidInput(f"tol must be >= 0, got {tol!r}")
    try:
        band = tol * (1.0 + abs(z))
        s = region.signed_distance(z)
    except OverflowError:
        # |z| or |z - center| is beyond the largest float: the same test
        # with the point, the region and the band scaled by 1/4, where
        # neither is
        band = tol * (0.25 + abs(z * 0.25))
        s = replace(region, center=region.center * 0.25, radius=region.radius * 0.25,
                    offset=region.offset * 0.25).signed_distance(z * 0.25)
    return s <= band if region.closed else s < -band


def _modulus(z: complex) -> float:
    """|z|, or inf where it is beyond the largest float."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def is_convex(region: CircularRegion) -> bool:
    return region.kind in (DISK, HALFPLANE)


# Welzl's candidate circles are plain (center, radius) pairs: a
# near-collinear circumcentre may be non-finite, which CircularRegion rejects
def _circle_two(a: complex, b: complex) -> tuple[complex, float]:
    c = (a + b) / 2.0
    return c, max(abs(a - c), abs(b - c))


def _circle_three(a: complex, b: complex, c: complex) -> tuple[complex, float] | None:
    d = 2.0 * (a.real * (b.imag - c.imag) + b.real * (c.imag - a.imag) + c.real * (a.imag - b.imag))
    if d == 0:
        return None
    ux = (
        abs(a) ** 2 * (b.imag - c.imag)
        + abs(b) ** 2 * (c.imag - a.imag)
        + abs(c) ** 2 * (a.imag - b.imag)
    ) / d
    uy = (
        abs(a) ** 2 * (c.real - b.real)
        + abs(b) ** 2 * (a.real - c.real)
        + abs(c) ** 2 * (b.real - a.real)
    ) / d
    center = complex(ux, uy)
    return center, max(abs(a - center), abs(b - center), abs(c - center))


def _in_disk(d: tuple[complex, float], z: complex) -> bool:
    return abs(z - d[0]) <= d[1] + 1e-12 * (1.0 + abs(z))


@functools.lru_cache(maxsize=128)
def _welzl_order(count: int) -> tuple[int, ...]:
    """The order in which Welzl's algorithm takes count points: a fixed
    shuffle, which depends only on how many points there are."""
    order = list(range(count))
    random.Random(0x5EED).shuffle(order)
    return tuple(order)


def smallest_enclosing_disk(points: Sequence[complex]) -> CircularRegion:
    """Minimal closed disk containing all points (Welzl, incremental)."""
    pts = _as_finite_complex(points)
    if not pts:
        raise InvalidInput("need at least one point")
    shuffled = [pts[i] for i in _welzl_order(len(pts))]

    best = (shuffled[0], 0.0)
    for i, p in enumerate(shuffled):
        if _in_disk(best, p):
            continue
        best = (p, 0.0)
        for j in range(i):
            q = shuffled[j]
            if _in_disk(best, q):
                continue
            best = _circle_two(p, q)
            for k in range(j):
                r = shuffled[k]
                if _in_disk(best, r):
                    continue
                cand = _circle_three(p, q, r)
                if cand is None:
                    # collinear support set: fall back to the diameter pair
                    cand = max(
                        (_circle_two(p, r), _circle_two(q, r), _circle_two(p, q)),
                        key=lambda d: d[1],
                    )
                best = cand

    # post-hoc certification: never report a disk missing an input point;
    # a single point gives radius 0, which disk() would reject
    center, radius = best
    radius = max(radius, max(abs(p - center) for p in pts))
    return CircularRegion(DISK, center=center, radius=radius)


def _cross(o: complex, a: complex, b: complex) -> float:
    """A number with the sign of the turn o -> a -> b (positive to the left).
    Where the plain products are not normal floats, each factor is split as
    m * 2**e and the products are compared as if exponents had no bounds."""
    u, v = a - o, b - o
    p, q = u.real * v.imag, u.imag * v.real
    if 2.0 ** -1021 <= abs(p) + abs(q) < math.inf:
        return p - q
    if not (cmath.isfinite(u) and cmath.isfinite(v)):  # beyond the largest float
        u, v = a * 0.5 - o * 0.5, b * 0.5 - o * 0.5
    (m1, e1), (m2, e2), (m3, e3), (m4, e4) = map(math.frexp, (u.real, v.imag, u.imag, v.real))
    p, q, e = m1 * m2, m3 * m4, e1 + e2 - e3 - e4
    if p and q:
        p, q = math.ldexp(p, min(e, 0)), math.ldexp(q, min(-e, 0))
    return p - q


def convex_hull(points: Sequence[complex]) -> list[complex]:
    """Hull vertices in counterclockwise order; collinear points dropped."""
    pts = sorted({(p.real, p.imag) for p in _as_finite_complex(points)})
    if not pts:
        raise InvalidInput("need at least one point")
    pts = [complex(x, y) for x, y in pts]
    if len(pts) <= 2:
        return pts

    # Andrew's monotone chain, lower then upper
    hull: list[complex] = []
    for order in (pts, pts[::-1]):
        chain: list[complex] = []
        for p in order:
            while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        hull += chain[:-1]
    return hull if len(hull) >= 3 else [pts[0], pts[-1]]


def _frame(*ws: complex) -> float:
    """The exact power of two that a hull distance scales by: 1.0 while the
    binary exponent of twice the largest coordinate of ws lies in (-100, 500],
    else the one bringing it into [1/2, 1) (at most 2**1023): no product of
    two coordinates overflows, nor underflows unless one is 2**-822 of the other."""
    e = 1 + math.frexp(max(abs(x) for w in ws for x in (w.real, w.imag)))[1]
    return 1.0 if -100 < e <= 500 else math.ldexp(1.0, min(-e, 1023))


def _segment_distance(a: complex, b: complex, z: complex) -> float:
    # the projection in the frame of the differences (t = 0 for a point),
    # then the offset from the foot in its own frame
    f = _frame(b * 0.5 - a * 0.5, z * 0.5 - a * 0.5)
    ab = b * f - a * f
    t = ((z * f - a * f) * ab.conjugate()).real / (abs(ab) ** 2 or math.inf)
    t = min(1.0, max(0.0, t))
    d = z - (a + t * ab / f)
    if not cmath.isfinite(d):  # the edge is longer than the largest float
        return abs(z * f - a * f - t * ab) / f
    g = _frame(d * 0.5)
    return abs(d * g) / g


def hull_distance(hull: Sequence[complex], z: complex) -> float:
    """0 when z is inside or on the hull, else Euclidean distance to it."""
    if not hull:
        raise InvalidInput("hull must be nonempty")
    z, = _as_finite_complex((z,))
    n = len(hull)
    if n >= 3 and all(_cross(hull[i - 1], hull[i], z) >= 0 for i in range(n)):
        return 0.0
    return min(_segment_distance(hull[i - 1], hull[i], z) for i in range(n))
