import cmath
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polygeom import regions
from polygeom.errors import InvalidInput
from polygeom.regions import (
    contains,
    convex_hull,
    disk,
    exterior_disk,
    half_plane,
    hull_distance,
    is_convex,
    smallest_enclosing_disk,
)


class TestContains:
    def test_boundary_of_closed_disk(self):
        assert contains(disk(0, 1), 1, tol=1e-9)

    def test_boundary_of_open_disk(self):
        assert not contains(disk(0, 1, closed=False), 1)

    def test_origin_outside_closed_exterior(self):
        assert not contains(exterior_disk(0, 1), 0)

    def test_half_plane_side_convention(self):
        hp = half_plane(1, 0.0)  # Re(z) <= 0
        assert contains(hp, -1)
        assert not contains(hp, 1)
        assert contains(hp, 0)
        assert not contains(half_plane(1, 0.0, closed=False), 0)

    def test_half_plane_normalizes_direction(self):
        hp = half_plane(2 + 0j, 4.0)  # same as Re(z) <= 2
        assert contains(hp, 1.9)
        assert not contains(hp, 2.1)

    def test_complement_duality(self):
        rng = random.Random(5)
        for _ in range(300):
            c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            r = rng.uniform(0.1, 3)
            z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            if abs(abs(z - c) - r) < 1e-6 * (1 + abs(z)):
                continue  # stay off the boundary band
            assert contains(exterior_disk(c, r, closed=True), z) != contains(
                disk(c, r, closed=False), z
            )
            assert contains(exterior_disk(c, r, closed=False), z) != contains(
                disk(c, r, closed=True), z
            )



NAN, INF = float("nan"), float("inf")


class TestOverflow:
    # |z|, or the distance from z to a disk's centre, beyond the largest
    # float: decided at a quarter of the scale, never raised
    BIG = complex(1.5e308, 1.5e308)

    @pytest.mark.parametrize("region,inside", [
        (disk(0, 1), False),
        (disk(complex(1.5e308, 1.5e308), 1), True),
        # the band, tol * (1 + |z|), is about 2.1e299 here
        (disk(complex(1.5e308, 1.5e308), 1, closed=False), False),
        (disk(complex(1.5e308, 1.5e308), 1e300, closed=False), True),
        (exterior_disk(0, 1), True),
        (exterior_disk(complex(1.5e308, 1.5e308), 1e300), False),
        (half_plane(1, 0.0), False),
        (half_plane(-1, 0.0), True),
        (half_plane(1, 1.6e308), True),
    ])
    def test_huge_point(self, region, inside):
        assert contains(region, self.BIG) is inside

    @pytest.mark.parametrize("make,inside", [(disk, False), (exterior_disk, True)])
    def test_huge_distance_between_finite_moduli(self, make, inside):
        region = make(complex(-7e307, -7e307), 1)
        assert contains(region, complex(7e307, 7e307)) is inside

    def test_band_scales_with_the_point(self):
        # 1e299 outside a disk around the point, within tol * |z|
        # (about 2.1e299) of the boundary
        z = self.BIG
        region = disk(z - 1e299 - 1.0, 1.0)
        assert contains(region, z)
        assert not contains(disk(z - 1e299 - 1.0, 1.0, closed=False), z)
        assert not contains(region, z, tol=1e-10)


class TestConstructors:
    @pytest.mark.parametrize("make, args", [
        (disk, (0, NAN)),
        (disk, (NAN, 1)),
        (disk, (complex(0, INF), 1)),
        (exterior_disk, (0, NAN)),
        (exterior_disk, (INF, 1)),
        (half_plane, (1, INF)),
        (half_plane, (complex(NAN, 1), 0)),
    ])
    def test_non_finite_parameters_rejected(self, make, args):
        with pytest.raises(InvalidInput):
            make(*args)

    def test_half_plane_direction_beyond_the_largest_float(self):
        # |direction| overflows: built from the direction and the offset
        # halved, the same half-plane Re(z * conj(u)) <= 1 / |direction|
        hp = half_plane(complex(1.5e308, 1.5e308), 1.0)
        assert hp.direction == pytest.approx(complex(math.sqrt(0.5), math.sqrt(0.5)))
        assert hp.offset == pytest.approx(0.5 / abs(complex(0.75e308, 0.75e308)))
        assert contains(hp, -1) and not contains(hp, 1)


class TestNonFinitePoints:
    # every point set is converted by poly._as_finite_complex: a NaN or
    # an infinity is invalid input, never a hull, a disk or a distance
    @pytest.mark.parametrize("call", [
        lambda bad: convex_hull([0, 1, bad]),
        lambda bad: smallest_enclosing_disk([0, bad]),
        lambda bad: hull_distance([0, 1, 1j], bad),
    ], ids=["convex-hull", "smallest-enclosing-disk", "hull-distance"])
    @pytest.mark.parametrize("bad", [NAN, complex(0, INF)], ids=["nan", "inf"])
    def test_rejected(self, call, bad):
        with pytest.raises(InvalidInput, match="non-finite value"):
            call(bad)


@pytest.mark.parametrize("call, args", [
    (contains, (disk(0, 1), 0, -1e-9)),
    (contains, (disk(0, 1), 0, NAN)),
    (convex_hull, ([],)),
    (hull_distance, ([], 0)),
], ids=["contains-negative-tol", "contains-nan-tol", "convex-hull-no-points",
        "hull-distance-empty-hull"])
def test_invalid_arguments_rejected(call, args):
    with pytest.raises(InvalidInput):
        call(*args)


class TestIsConvex:
    def test_variants(self):
        assert is_convex(disk(0, 1))
        assert is_convex(half_plane(1j, 2))
        assert not is_convex(exterior_disk(0, 1))

    def test_midpoints_of_members_are_members(self):
        rng = random.Random(11)
        regions = [disk(1 + 1j, 2), half_plane(cmath.rect(1, 0.7), 1.5)]
        for region in regions:
            assert is_convex(region)
            for _ in range(200):
                a = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
                b = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
                if contains(region, a) and contains(region, b):
                    assert contains(region, (a + b) / 2, tol=1e-7)


class TestSmallestEnclosingDisk:
    def test_singleton(self):
        d = smallest_enclosing_disk([0])
        assert d.center == 0 and d.radius == 0

    def test_diameter_pair(self):
        d = smallest_enclosing_disk([-1, 1])
        assert abs(d.center) <= 1e-12
        assert abs(d.radius - 1) <= 1e-12

    def test_right_triangle_circumcircle(self):
        d = smallest_enclosing_disk([0, 1, 1j])
        assert abs(d.center - (0.5 + 0.5j)) <= 1e-12
        assert abs(d.radius - math.sqrt(2) / 2) <= 1e-12

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            smallest_enclosing_disk([])

    def test_contains_all_and_minimal(self):
        rng = random.Random(29)
        for _ in range(60):
            pts = [
                complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                for _ in range(rng.randint(1, 25))
            ]
            d = smallest_enclosing_disk(pts)
            assert all(abs(p - d.center) <= d.radius + 1e-12 * (1 + abs(p)) for p in pts)
            # no random candidate enclosing disk may be smaller
            for _ in range(100):
                c = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
                r = max(abs(p - c) for p in pts)
                assert d.radius <= r + 1e-9


    def test_welzl_order_is_the_seeded_shuffle(self):
        # the order is cached by point count; it is the shuffle the
        # algorithm drew for every call before
        rng = random.Random(31)
        for _ in range(50):
            pts = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                   for _ in range(rng.randint(1, 60))]
            shuffled = list(pts)
            random.Random(0x5EED).shuffle(shuffled)
            assert [pts[i] for i in regions._welzl_order(len(pts))] == shuffled


class TestConvexHull:
    def test_interior_point_dropped(self):
        hull = convex_hull([0, 1, 1j, 0.2 + 0.2j])
        assert set(hull) == {0, 1, 1j}

    def test_degenerate_segment(self):
        assert convex_hull([0, 1]) == [0, 1]

    def test_cube_roots_of_unity(self):
        w = cmath.exp(2j * math.pi / 3)
        hull = convex_hull([1, w, w**2])
        assert len(hull) == 3

    def test_counterclockwise_orientation(self):
        hull = convex_hull([0, 1, 1 + 1j, 1j, 0.5 + 0.5j])
        area2 = sum(
            (hull[i].real * hull[(i + 1) % len(hull)].imag
             - hull[(i + 1) % len(hull)].real * hull[i].imag)
            for i in range(len(hull))
        )
        assert area2 > 0

    def test_collinear_points_collapse(self):
        assert convex_hull([0, 1, 2, 3]) == [0, 3]


class TestHullDistance:
    def test_on_segment(self):
        assert hull_distance([-1, 1], 0) == 0

    def test_segment_of_equal_ends(self):
        assert hull_distance([1, 1], 2) == 1

    def test_above_segment(self):
        assert abs(hull_distance([-1, 1], 1j) - 1) <= 1e-12

    def test_outside_triangle(self):
        # nearest point of {0,1,i} to 1+i is the midpoint of the hypotenuse
        d = hull_distance(convex_hull([0, 1, 1j]), 1 + 1j)
        assert abs(d - math.sqrt(2) / 2) <= 1e-12

    def test_inside_is_zero(self):
        assert hull_distance(convex_hull([0, 1, 1j]), 0.25 + 0.25j) == 0

    @pytest.mark.parametrize("z,expected", [
        (5e199, 0.0), (5e199 + 3e199j, 3e199), (-2e200, 2e200), (3e200j, 3e200),
    ])
    def test_edge_whose_squared_length_overflows(self, z, expected):
        # |b - a|**2 of the points as given overflows a float; in the
        # frame it does not, and the distance is scaled back
        assert hull_distance([0, 1e200], z) == pytest.approx(expected, rel=1e-15)

    def test_squared_length_that_fits_keeps_its_bits(self):
        a, b, z = 0.3 + 0.1j, 1e150 + 2e149j, 3e149 + 7e149j
        ab = b - a
        t = min(1.0, max(0.0, ((z - a) * ab.conjugate()).real / abs(ab) ** 2))
        assert hull_distance([a, b], z) == abs(z - (a + t * ab))


# the hull formulas as they stood before the frame: the same chain and
# projection, taken on the points as given
def _cross_as_given(o, a, b):
    return (a.real - o.real) * (b.imag - o.imag) - (a.imag - o.imag) * (b.real - o.real)


def _hull_as_given(points):
    pts = [complex(x, y) for x, y in sorted({(complex(p).real, complex(p).imag) for p in points})]
    if len(pts) <= 2:
        return pts
    lower, upper = [], []
    for chain, order in ((lower, pts), (upper, pts[::-1])):
        for p in order:
            while len(chain) >= 2 and _cross_as_given(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
    hull = lower[:-1] + upper[:-1]
    return hull if len(hull) >= 3 else [pts[0], pts[-1]]


def _distance_as_given(hull, z):
    n = len(hull)
    if n == 1:
        return abs(z - hull[0])
    if n >= 3 and all(_cross_as_given(hull[i], hull[(i + 1) % n], z) >= 0 for i in range(n)):
        return 0.0
    out = []
    for i in range(n):
        a, b = hull[i], hull[(i + 1) % n]
        ab = b - a
        try:
            t = ((z - a) * ab.conjugate()).real / abs(ab) ** 2
        except ZeroDivisionError:
            out.append(abs(z - a))
            continue
        t = min(1.0, max(0.0, t))
        out.append(abs(z - (a + t * ab)))
    return min(out)


_grid = st.builds(complex, st.integers(-64, 64), st.integers(-64, 64))


class TestHullFrame:
    @pytest.mark.parametrize("s", [1e160, 1e300, 1e-170, 1e-300])
    def test_triangle_beyond_the_range_of_the_products(self, s):
        # taken as given, the orientation products overflow to inf at 1e160
        # and 1e300 (the interior point stays a vertex, and 0.6 s (1 + i)
        # reads 0.485 s away) and underflow to 0 at 1e-170 and 1e-300 (the
        # hull collapses to an edge)
        hull = convex_hull([0, s, s * 1j, s * (0.2 + 0.2j)])
        assert [(v.real, v.imag) for v in hull] == [(0.0, 0.0), (s, 0.0), (0.0, s)]
        assert hull_distance(hull, s * (0.2 + 0.2j)) == 0
        assert hull_distance(hull, s * (0.6 + 0.6j)) == pytest.approx(
            0.1 * math.sqrt(2) * s, rel=1e-14)

    @pytest.mark.parametrize("pts, expected", [
        ([-1, 1, -1j, 1e300], [-1, -1j, 1e300]),
        ([-1e-200, 1e-200, -1e-200j, 1e300], [-1e-200, -1e-200j, 1e300]),
        ([-1e-300, 1e-300, -1e-300j, 1], [-1e-300, -1e-300j, 1]),
        ([0, 2.0 ** 1000 + 2.0 ** -1000 * 1j, 2.0 ** 1000 + 2.0 ** -999 * 1j],
         [0, 2.0 ** 1000 + 2.0 ** -1000 * 1j, 2.0 ** 1000 + 2.0 ** -999 * 1j]),
    ])
    def test_mixed_scales(self, pts, expected):
        # a small triangle next to a far point. One factor for the whole set,
        # or for the differences of one orientation test, sends the small
        # differences to 0 and the hull to an edge; the last set turns by
        # 2 - 1 in products of 2**1000 and 2**-999, which one factor also loses
        assert convex_hull(pts) == expected

    @pytest.mark.parametrize("s, far", [(1, 1e300), (1e-200, 1e300), (1e-300, 1)])
    def test_distance_next_to_a_far_point(self, s, far):
        hull = convex_hull([-s, s, -s * 1j, far])
        # the critical points of (z^2 - s^2)(z + is), inside the hull
        for x in (1, -1):
            assert hull_distance(hull, s * complex(x * math.sqrt(2) / 3, -1 / 3)) == 0
        # outside the edge from -s to -is
        assert hull_distance(hull, s * (-1 - 1j)) == pytest.approx(
            s * math.sqrt(0.5), rel=1e-15)

    def test_subnormal_coordinates(self):
        # the distance factor for a subnormal edge is capped at 2**1023
        assert convex_hull([0, 5e-324, 5e-324j, 1e-324 + 1e-324j]) == [0, 5e-324, 5e-324j]
        assert hull_distance([1e-320, 2e-320], 5e-324) == pytest.approx(1e-320, rel=1e-3)

    def test_distance_beyond_the_largest_float_is_inf(self):
        assert hull_distance([1e308, 1.5e308], -1.5e308) == math.inf

    def test_edge_longer_than_the_largest_float(self):
        # each edge of this square is 3.4e308 long: the edge divided back
        # out of its frame overflows, and the foot a + t ab was inf - inf
        hull = convex_hull([complex(x, y) for x in (1.7e308, -1.7e308)
                            for y in (1.7e308, -1.7e308)])
        z = complex(1.53e308, -1.7000024e308)
        assert hull_distance(hull, z) == pytest.approx(2.4e302, rel=1e-9)

    # the grid spans 2**7 per coordinate, so no square of a difference of
    # its points goes subnormal at any scale the frame leaves alone
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(_grid, min_size=1, max_size=12), _grid, st.integers(-1000, 1000))
    def test_scaling_by_a_power_of_two_scales_the_geometry(self, pts, z, k):
        s = 2.0 ** k
        hull = convex_hull(pts)
        assert convex_hull([p * s for p in pts]) == [v * s for v in hull]
        assert hull_distance([v * s for v in hull], z * s) == pytest.approx(
            hull_distance(hull, z) * s, rel=1e-15, abs=0)

    # a cluster on the grid and a point 2**k g beyond it: with k <= 500 the
    # formulas taken as given stay in the normal floats, so at every scale
    # 2**m the hull and the distances must be theirs, scaled
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(_grid, min_size=2, max_size=8), _grid.filter(bool), st.integers(0, 500),
           st.integers(-1000, 1000), _grid)
    def test_cluster_next_to_a_far_point(self, cluster, g, k, m, z):
        assume(k + m <= 1000)
        pts, s = [*cluster, g * 2.0 ** k], 2.0 ** m
        hull = _hull_as_given(pts)
        assert convex_hull([p * s for p in pts]) == [v * s for v in hull]
        assert hull_distance([v * s for v in hull], z * s) == pytest.approx(
            _distance_as_given(hull, z) * s, rel=1e-12, abs=0)

    def test_ordinary_scales_keep_their_bits(self):
        # at scales 1e-3 to 1e5 the factor is 1.0: every hull and distance
        # is bit-equal to the formulas taken on the points as given
        rng = random.Random(2718)
        for _ in range(20000):
            s = 10.0 ** rng.uniform(-3, 5)
            c = s * complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            n = rng.randint(1, 9)
            if rng.random() < 0.2:
                u = s * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                pts = [c + rng.uniform(-1, 1) * u for _ in range(n)]
            else:
                pts = [c + s * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
            hull = convex_hull(pts)
            assert repr(hull) == repr(_hull_as_given(pts))
            i = rng.randrange(len(hull))
            a, b = hull[i], hull[(i + 1) % len(hull)]
            for z in (c + 1.5 * s * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                      a + rng.random() * (b - a), rng.choice(pts)):
                assert repr(hull_distance(hull, z)) == repr(_distance_as_given(hull, z))
