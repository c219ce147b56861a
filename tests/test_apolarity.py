import math
import random

import pytest

from polygeom.apolarity import (
    apolarity_functional,
    apolarity_residual,
    grace_witness,
    is_apolar,
    make_apolar,
)
from polygeom.coincidence import _grace_core, diagonal, evaluate_multiaffine, polar
from polygeom.errors import HypothesisViolated, InvalidInput
from polygeom.poly import Polynomial, from_roots
from polygeom.regions import disk, smallest_enclosing_disk
from polygeom.rootfind import Product, find_roots


class TestFunctional:
    def test_squared_linear_gives_point_evaluation(self):
        # A((z-1)^2, b) = b(1) at frame 2, by the three-term sum
        a = Polynomial([1, -2, 1])
        b = Polynomial([5 - 1j, 2, 3j])
        expected = b.coeffs[0] + b.coeffs[1] + b.coeffs[2]
        assert abs(apolarity_functional(a, b, 2) - expected) <= 1e-14 * (1 + abs(expected))

    def test_pure_powers_vanish(self):
        for n in (1, 3, 7):
            zn = Polynomial([0] * n + [1])
            assert apolarity_functional(zn, zn, n) == 0

    def test_degree_one_frame(self):
        c = 2 - 1j
        b = Polynomial([3 + 1j, -2j])
        a = Polynomial([-c, 1])
        expected = -(b.coeffs[0] + c * b.coeffs[1])
        assert abs(apolarity_functional(a, b, 1) - expected) <= 1e-14 * (1 + abs(expected))

    def test_rejects_degree_above_frame(self):
        with pytest.raises(InvalidInput):
            apolarity_functional(Polynomial([1, 1, 1]), Polynomial([1]), 1)


class TestIsApolar:
    def test_apolar_pair(self):
        assert is_apolar(Polynomial([1, -2, 1]), Polynomial([0, -1, 1]), 2)

    def test_non_apolar_pair(self):
        assert not is_apolar(Polynomial([1, -2, 1]), Polynomial([0, 0, 1]), 2)

    def test_zero_scale(self):
        n = 4
        zn = Polynomial([0] * n + [1])
        assert is_apolar(zn, zn, n)

    def test_overflowing_pairing_is_invalid_input(self):
        # A(a, b) = (inf+nanj) over a scale of inf: the residual is inf
        a = Polynomial([1e308, 0, 1e308])
        b = Polynomial([1e308, 1e308, 1e308])
        assert apolarity_residual(a, b, 2) == math.inf
        with pytest.raises(InvalidInput, match="apolarity pairing overflows"):
            is_apolar(a, b, 2)
        with pytest.raises(InvalidInput, match="apolarity pairing overflows"):
            grace_witness(a, b, 2, disk(0, 2))

    def test_finite_pairing_over_an_overflowing_scale(self):
        # A(a, b) = 1e308 - 1e308 = 0 exactly; its scale overflows, and
        # the residual 0 / inf = 0 is still an answer
        a = Polynomial([1e308, 0, 1e308])
        b = Polynomial([1, 0, -1])
        assert apolarity_residual(a, b, 2) == 0.0
        assert is_apolar(a, b, 2)

    def test_nonzero_pairing_over_an_overflowing_scale_is_invalid_input(self):
        # A(a, b) = 1e308 - 0.99e308 is finite, but its scale 1.99e308 is
        # not: A / scale would read 0, apolar, where it is 0.005
        a = Polynomial([1e308, 0, 1e308])
        b = Polynomial([1, 0, -0.99])
        assert apolarity_residual(a, b, 2) == math.inf
        with pytest.raises(InvalidInput, match="apolarity pairing overflows"):
            is_apolar(a, b, 2)

    def test_overflowing_coefficient_paired_with_zero(self):
        # |1.5e308+1.5e308j| is inf, but its partner b_1 is 0, so the term is
        # exactly 0 in A and in the scale: A = 2e-9 over a scale of 2e-9
        a = Polynomial([1e-9, 1.5e308 + 1.5e308j, 1e-9])
        b = Polynomial([1, 0, 1])
        assert apolarity_residual(a, b, 2) == 1.0
        assert not is_apolar(a, b, 2)
        with pytest.raises(HypothesisViolated, match="pair is not apolar"):
            grace_witness(a, b, 2, disk(0, 2))


class TestMakeApolar:
    def test_squared_linear_constraint(self):
        a = Polynomial([1, -2, 1])
        for seed in range(20):
            b = make_apolar(a, 2, seed)
            total = sum(list(b.coeffs) + [0j] * (3 - len(b.coeffs)))
            assert abs(total) <= 1e-13 * (1 + sum(abs(c) for c in b.coeffs))
            assert apolarity_residual(a, b, 2) <= 1e-13

    def test_pure_power_forces_constant_term(self):
        n = 5
        b = make_apolar(Polynomial([0] * n + [1]), n, seed=3)
        assert abs(b.coeffs[0]) <= 1e-14

    def test_deterministic(self):
        a = Polynomial([-1, 0, 1])
        assert make_apolar(a, 2, 42) == make_apolar(a, 2, 42)
        assert make_apolar(a, 2, 42) != make_apolar(a, 2, 43)

    def test_rejects_zero_polynomial(self):
        with pytest.raises(InvalidInput):
            make_apolar(Polynomial([]), 3, 0)


class TestGraceWitness:
    def test_known_pair(self):
        # b = z^2 - z has roots {0, 1}; only 1 lies near the double root of a
        a = Polynomial([1, -2, 1])
        b = Polynomial([0, -1, 1])
        w = grace_witness(a, b, 2, disk(1, 0.1))
        assert abs(w - 1) <= 1e-10

    def test_concentrated_roots_pin_the_witness(self):
        # all roots of a at c: apolarity forces b(c) = 0, so c is the witness
        c = 0.3 - 0.7j
        n = 4
        a = from_roots([c] * n)
        rng = random.Random(9)
        b = make_apolar(a, n, seed=5)
        w = grace_witness(a, b, n, disk(c, 1e-6))
        assert abs(w - c) <= 1e-5

    def test_enclosing_disk_of_roots(self):
        a = Polynomial([-1, 0, 1])
        b = make_apolar(a, 2, seed=8)
        sed = smallest_enclosing_disk([-1, 1])
        w = grace_witness(a, b, 2, disk(sed.center, sed.radius))
        assert abs(w) <= 1 + 1e-6

    def test_hypothesis_rejected_when_roots_outside(self):
        a = Polynomial([-1, 0, 1])  # roots {-1, 1}
        b = make_apolar(a, 2, seed=8)
        with pytest.raises(HypothesisViolated):
            grace_witness(a, b, 2, disk(5, 0.5))

    def test_hypothesis_rejected_when_not_apolar(self):
        a = Polynomial([1, -2, 1])
        with pytest.raises(HypothesisViolated):
            grace_witness(a, Polynomial([0, 0, 1]), 2, disk(1, 2))

    def test_rejects_short_degree(self):
        with pytest.raises(InvalidInput):
            grace_witness(Polynomial([1, -2, 1]), Polynomial([1, 1]), 2, disk(0, 2))

    @staticmethod
    def run_core(core):
        """The polynomials a core requests the roots of, and what it
        returns; a Product request is answered with the product's
        coefficients, as drive does."""
        requests, sent = [], None
        try:
            while True:
                request = core.send(sent)
                if isinstance(request, Product):
                    sent = list(from_roots(request.points).coeffs)
                else:
                    requests.append(request)
                    sent = find_roots(request)
        except StopIteration as stop:
            return requests, stop.value

    def test_core_given_the_roots_of_a_yields_one_polynomial(self):
        roots = [0.9 + 0.1j, 1.1 - 0.2j, 1.0 + 0.3j, 0.8 - 0.1j]
        n, region = len(roots), disk(1, 0.5)
        a = from_roots(roots)
        b = make_apolar(a, n, seed=4)
        requests, w = self.run_core(_grace_core(a, b, n, region, roots))
        # only the diagonal equation b(z) = P_b(alpha); no root find on a
        c = evaluate_multiaffine(polar(b, n), roots)
        assert requests == [diagonal(polar(b, n)).shifted_constant(-c)]
        assert abs(c) <= 1e-14
        # without the roots, the core finds them first and reaches the same witness
        requests, w_found = self.run_core(_grace_core(a, b, n, region))
        assert len(requests) == 2 and requests[0] == a
        assert abs(w - w_found) <= 1e-9

    def test_core_rejects_roots_that_do_not_rebuild_a(self):
        a = Polynomial([1, -2, 1])
        with pytest.raises(InvalidInput, match="do not rebuild"):
            self.run_core(_grace_core(a, Polynomial([0, -1, 1]), 2, disk(1, 2), [1, 1 + 1e-15]))


class TestAlgebraicIdentities:
    def test_bilinearity_and_transposition(self):
        rng = random.Random(13)
        for _ in range(200):
            n = rng.randint(1, 20)
            rand_poly = lambda: Polynomial(
                [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n + 1)]
            )
            a, a2, b = rand_poly(), rand_poly(), rand_poly()
            alpha = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

            lin = apolarity_functional(alpha * a + a2, b, n) - (
                alpha * apolarity_functional(a, b, n) + apolarity_functional(a2, b, n)
            )
            swap = apolarity_functional(b, a, n) - (-1) ** n * apolarity_functional(a, b, n)
            scale = 1 + abs(apolarity_functional(a, b, n))
            assert abs(lin) <= 1e-12 * scale
            assert abs(swap) <= 1e-12 * scale

    def test_point_evaluation_identity(self):
        rng = random.Random(19)
        for _ in range(200):
            n = rng.randint(1, 20)
            c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            b = Polynomial(
                [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n + 1)]
            )
            value = apolarity_functional(from_roots([c] * n), b, n)
            expected = (-1) ** n * b(c)
            assert abs(value - expected) <= 1e-10 * (1 + abs(expected))

            # distinct roots: A(a, b) = (-1)^n P_b(alpha), P_b the polar form of b
            alpha = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
            value = apolarity_functional(from_roots(alpha), b, n)
            expected = (-1) ** n * evaluate_multiaffine(polar(b, n), alpha)
            assert abs(value - expected) <= 1e-12 * (1 + abs(expected))

    def test_grace_never_violated_on_constructed_pairs(self):
        rng = random.Random(31)
        for _ in range(300):
            n = rng.randint(2, 8)
            center = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            radius = rng.uniform(0.3, 2.0)
            roots = [
                center + radius * 0.9 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) / 2
                for _ in range(n)
            ]
            a = from_roots(roots)
            b = make_apolar(a, n, seed=rng.getrandbits(32))
            if b.degree() != n:
                continue
            grace_witness(a, b, n, disk(center, radius))  # must not raise
