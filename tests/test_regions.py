import cmath
import math
import random

import pytest

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


@pytest.mark.parametrize("call, args", [
    (contains, (disk(0, 1), 0, -1e-9)),
    (convex_hull, ([],)),
    (hull_distance, ([], 0)),
], ids=["contains-negative-tol", "convex-hull-no-points", "hull-distance-empty-hull"])
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
        # |b - a|**2 overflows a float: the projection is made through the
        # quotient, not raised
        assert hull_distance([0, 1e200], z) == pytest.approx(expected, rel=1e-15)

    def test_squared_length_that_fits_keeps_its_bits(self):
        a, b, z = 0.3 + 0.1j, 1e150 + 2e149j, 3e149 + 7e149j
        ab = b - a
        t = min(1.0, max(0.0, ((z - a) * ab.conjugate()).real / abs(ab) ** 2))
        assert hull_distance([a, b], z) == abs(z - (a + t * ab))
