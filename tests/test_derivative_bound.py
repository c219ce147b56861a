import cmath
import math
import random

import pytest

from polygeom.derivative_bound import (
    Theorem2Instance,
    check_theorem2,
    factorization_roots,
    gauss_lucas_check,
    generate_theorem2_instance,
    kth_derivative_identity,
    theorem2_bound,
)
from polygeom.errors import DegreeTooLarge, InvalidInput, InvalidInstance, NonConvergence
from polygeom.poly import N_MAX, Polynomial, from_roots
from polygeom.regions import convex_hull, disk
from polygeom.rootfind import find_roots


class TestBound:
    def test_values(self):
        assert theorem2_bound(5, 1) == 2
        assert theorem2_bound(4, 2) == 0
        assert theorem2_bound(3, 1) == 1

    def test_clamped_at_zero(self):
        assert theorem2_bound(4, 3) == 0
        assert theorem2_bound(10, 9) == 0

    def test_k_out_of_range(self):
        with pytest.raises(InvalidInput):
            theorem2_bound(5, 5)
        with pytest.raises(InvalidInput):
            theorem2_bound(5, 0)


class TestCheckTheorem2:
    def test_worked_cubic(self):
        # p = (z^2 - 1)(z - 10); p' = 3z^2 - 20z - 1, roots from the
        # quadratic formula: (20 +- sqrt(412)) / 6
        inst = Theorem2Instance((-1 + 0j, 1 + 0j), 10 + 0j, disk(0j, 1.0))
        rep = check_theorem2(inst, 1)
        assert rep.n == 3 and rep.k == 1
        assert rep.bound == 1
        assert rep.count_in_disk == 1
        assert rep.satisfied
        assert rep.mean_residual <= 1e-12
        expected = sorted([(20 + math.sqrt(412)) / 6, (20 - math.sqrt(412)) / 6])
        got = sorted(r.real for r in rep.derivative_roots)
        assert all(abs(a - b) <= 1e-9 for a, b in zip(got, expected))

    def test_all_roots_inside_gives_full_count(self):
        rng = random.Random(1)
        for _ in range(50):
            n = rng.randint(3, 10)
            inst = generate_theorem2_instance(n, seed=rng.getrandbits(32), radius=1.0,
                                              outer_distance=2.0)
            # move the outer zero inside the disk: Gauss-Lucas applies
            inside = Theorem2Instance(inst.inner_zeros, inst.disk.center, inst.disk)
            for k in range(1, n):
                rep = check_theorem2(inside, k)
                assert rep.count_in_disk == n - k
                assert rep.satisfied

    def test_vacuous_bound(self):
        inst = generate_theorem2_instance(4, seed=5, radius=1.0, outer_distance=3.0)
        rep = check_theorem2(inst, 2)
        assert rep.bound == 0 and rep.vacuous and rep.satisfied

    def test_invalid_instance_rejected(self):
        bad = Theorem2Instance((0j, 1 + 0j), 5 + 0j, disk(0j, 2.0))  # mean is 0.5
        with pytest.raises(InvalidInstance):
            check_theorem2(bad, 1)

    def test_rigid_motion_invariance(self):
        rng = random.Random(33)
        for _ in range(30):
            n = rng.randint(3, 9)
            k = rng.randint(1, n - 1)
            inst = generate_theorem2_instance(n, seed=rng.getrandbits(32),
                                              radius=rng.uniform(0.2, 2.0),
                                              outer_distance=rng.uniform(1.0, 10.0))
            base = check_theorem2(inst, k)
            rot = cmath.rect(1.0, rng.uniform(0, 2 * math.pi))
            shift = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            moved = Theorem2Instance(
                tuple(rot * z + shift for z in inst.inner_zeros),
                rot * inst.outer_zero + shift,
                disk(rot * inst.disk.center + shift, inst.disk.radius),
            )
            after = check_theorem2(moved, k)
            assert after.count_in_disk == base.count_in_disk
            assert after.bound == base.bound
            assert after.satisfied == base.satisfied

    def test_outside_roots_match_proof_structure(self):
        # soft structural consequence: any derivative root outside D is
        # (k/n) * y for some y in D, i.e. (n/k) * w stays near D
        rng = random.Random(44)
        warnings = 0
        for _ in range(100):
            n = rng.randint(3, 10)
            k = rng.randint(1, n - 1)
            inst = generate_theorem2_instance(n, seed=rng.getrandbits(32), radius=1.0,
                                              outer_distance=rng.uniform(1.5, 20.0))
            rep = check_theorem2(inst, k)
            c, r = inst.disk.center, inst.disk.radius
            for w in rep.derivative_roots:
                if abs(w - c) > r + 1e-7 * (1 + abs(w)):
                    scaled = (n / k) * w
                    if abs(scaled - c) > r + 1e-6 * (1 + abs(scaled)):
                        warnings += 1
        # warning-level check: the structure must hold in the translated
        # frame of the proof, not verbatim in every coordinate frame
        assert warnings < 100


class TestDerivativeIdentity:
    def test_cubic_by_hand(self):
        # d/dz [z(z-1)^2] = (z-1)(3z-1) = 2z(z-1) + (z-1)^2
        assert kth_derivative_identity(3, 1, 1) <= 1e-15

    def test_y_zero_reduces_to_falling_factorial(self):
        for n in range(2, 10):
            for k in range(1, n):
                assert kth_derivative_identity(n, k, 0) == 0

    def test_random_full_sweep(self):
        rng = random.Random(55)
        for n in range(2, 21):
            for k in range(1, n):
                y = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                assert kth_derivative_identity(n, k, y) <= 1e-11


class TestFactorizationRoots:
    def test_cubic(self):
        assert factorization_roots(3, 1, 1) == [1, pytest.approx(1 / 3)]

    def test_y_zero(self):
        assert factorization_roots(5, 2, 0) == [0, 0, 0]

    def test_k_equal_n_is_invalid_input(self):
        with pytest.raises(InvalidInput, match="need 1 <= k <= n-1"):
            factorization_roots(3, 3, 1)

    def test_half_point(self):
        roots = factorization_roots(4, 2, 2j)
        assert roots == [2j, 1j]

    def test_cross_check_against_root_finder(self):
        rng = random.Random(66)
        for _ in range(50):
            n = rng.randint(2, 12)
            k = rng.randint(1, n - 1)
            y = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            expected = factorization_roots(n, k, y)
            # (z - y)^(n-k-1) (z - (k/n) y), expanded; a multiplicity-m
            # root is only recoverable to about eps**(1/m)
            p = from_roots([y] * (n - k - 1) + [(k / n) * y])
            mult = max(n - k - 1, 1)
            tol = 10.0 * (1 + abs(y)) * 1e-13 ** (1.0 / mult)
            found = list(find_roots(p).roots)
            for b in expected:
                best = min(found, key=lambda r: abs(r - b))
                assert abs(best - b) <= tol
                found.remove(best)


class TestGaussLucas:
    def test_quadratic(self):
        assert gauss_lucas_check(Polynomial([-1, 0, 1]))

    def test_cubic_roots_of_unity(self):
        assert gauss_lucas_check(Polynomial([-1, 0, 0, 1]))

    def test_triple_root_has_a_one_point_hull(self):
        # the zeros and the critical points collapse onto 1
        assert convex_hull(find_roots(from_roots([1, 1, 1])).roots) == [1]
        assert gauss_lucas_check(from_roots([1, 1, 1]))

    @pytest.mark.parametrize("a1", [-1e150, -1e200])
    def test_hull_edge_whose_squared_length_overflows(self, a1):
        # zeros near 1/a1 and a1, the critical point a1/2 on the edge
        # between them; at -1e200 the edge's squared length overflows
        assert gauss_lucas_check(Polynomial([1, a1, 1]))

    def test_random_campaign(self):
        rng = random.Random(77)
        for _ in range(100):
            deg = rng.randint(2, 15)
            cs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(deg + 1)]
            while abs(cs[-1]) < 0.1:
                cs[-1] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            assert gauss_lucas_check(Polynomial(cs))

    def test_rejects_low_degree(self):
        with pytest.raises(InvalidInput):
            gauss_lucas_check(Polynomial([1, 1]))

    def test_rejects_degree_above_n_max(self):
        # before any root is found: z^200 + 1 is refused for its degree
        with pytest.raises(DegreeTooLarge, match="n=200"):
            gauss_lucas_check(Polynomial([1] + [0] * 199 + [1]))


class TestGenerator:
    def test_invariants_hold(self):
        rng = random.Random(88)
        for _ in range(100):
            n = rng.randint(3, 15)
            inst = generate_theorem2_instance(n, seed=rng.getrandbits(32),
                                              radius=rng.uniform(0.1, 3.0),
                                              outer_distance=rng.uniform(0.5, 50.0))
            inst.validate()
            assert len(inst.inner_zeros) == n - 1

    def test_two_inner_points_symmetric(self):
        inst = generate_theorem2_instance(3, seed=9, radius=1.0, outer_distance=2.0)
        a, b = inst.inner_zeros
        assert abs((a + b) / 2 - inst.disk.center) <= 1e-14

    def test_deterministic(self):
        a = generate_theorem2_instance(6, seed=123, radius=1.5, outer_distance=4.0)
        b = generate_theorem2_instance(6, seed=123, radius=1.5, outer_distance=4.0)
        assert a == b

    @pytest.mark.parametrize("radius,distance", [(1e-300, 1e300), (1.0, 1e308),
                                                 (1.0, 1e300), (1e-150, 1e150)])
    def test_a_generated_instance_can_be_checked_at_every_k(self, radius, distance):
        # near the end of the float range the generator rejects the
        # instance, or every k gets a verdict (a non-convergence at worst)
        try:
            inst = generate_theorem2_instance(6, seed=0, radius=radius,
                                              outer_distance=distance)
        except InvalidInput:
            return
        for k in range(1, 6):
            try:
                check_theorem2(inst, k)
            except NonConvergence:
                pass

    def test_rejects_an_overflowing_disk_frame(self):
        with pytest.raises(InvalidInput, match="overflows"):
            generate_theorem2_instance(5, seed=0, radius=1e-300, outer_distance=1e300)

    def test_rejects_small_n(self):
        with pytest.raises(InvalidInput):
            generate_theorem2_instance(2, seed=0)

    @pytest.mark.parametrize("n", [N_MAX + 1, 171, 1500])
    def test_rejects_n_above_n_max(self, n):
        # 171! overflows a float: the bound comes before any draw
        with pytest.raises(DegreeTooLarge):
            generate_theorem2_instance(n, seed=0)
