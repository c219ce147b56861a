import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polygeom import poly, rootfind
from polygeom.coincidence import SymmetricMultiaffine, evaluate_multiaffine
from polygeom.errors import DegreeTooLarge, InvalidDegree, InvalidIndex, InvalidInput
from polygeom.poly import (
    N_MAX,
    Polynomial,
    binomial,
    elementary_symmetric,
    elementary_symmetric_all,
    from_roots,
    mean_of_roots,
)


def approx_complex(actual, expected, tol=1e-12):
    assert abs(actual - expected) <= tol * (1 + abs(expected))


# CPython rounds each product and each sum of a complex multiply on its
# own, unless its compiler fuses a*b - c*d into one operation: at
# x = 1 + 2**-27, x*x - x*x and x*x + x*-x are 0 only when both products
# are rounded alone. The batched products drive_many sends emulate the
# separate rounding, so only then do they have the scalar _product's bits
_X = complex(1 + 2.0**-27, 1 + 2.0**-27)
SEPARATE_ROUNDING = (_X * _X).real == 0.0 and (_X * _X.conjugate()).imag == 0.0
FUSED = "this CPython fuses the multiply and the add of a complex product"
separate_rounding = pytest.mark.skipif(not SEPARATE_ROUNDING, reason=FUSED)


def batched_passes(monkeypatch) -> list[int]:
    """The number of point sets of each batched pass, poly._products."""
    passes = []
    products = poly._products
    monkeypatch.setattr(poly, "_products",
                        lambda sets: passes.append(len(sets)) or products(sets))
    return passes


def sent_products(sets) -> list:
    """What one drive_many call sends cores that each ask for the product
    of one of the sets."""
    def core(pts):
        return (yield rootfind.Product(pts))

    return rootfind.drive_many([core(pts) for pts in sets])


class TestEval:
    def test_root_of_unity(self):
        p = Polynomial([1, 0, 1])  # z^2 + 1
        approx_complex(p(1j), 0)

    def test_constant(self):
        assert Polynomial([1])(7 + 3j) == 1

    def test_cubic_at_root(self):
        # z(z-1)(z-2) expanded by hand: z^3 - 3z^2 + 2z
        p = Polynomial([0, 2, -3, 1])
        approx_complex(p(1), 0)
        approx_complex(p(2), 0)


class TestDerivative:
    def test_power_rule(self):
        p = Polynomial([0, 0, 0, 1]).derivative(2)
        assert p.coeffs == (0j, 6 + 0j)

    def test_order_zero_identity(self):
        p = Polynomial([1, 2, 3])
        assert p.derivative(0) is p

    def test_term_wise(self):
        p = Polynomial([0, 2, -3, 1]).derivative()
        assert p.coeffs == (2 + 0j, -6 + 0j, 3 + 0j)

    def test_order_above_degree_is_zero(self):
        assert Polynomial([1, 1]).derivative(5).is_zero

    def test_factorial_beyond_a_float_is_invalid_input(self):
        with pytest.raises(InvalidInput):
            from_roots([0.01 * k for k in range(1, 200)]).derivative(150)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 1000))
    def test_linearity(self, seed):
        rng = random.Random(seed)
        deg = rng.randint(1, 12)
        p = Polynomial([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(deg + 1)])
        q = Polynomial([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(deg + 1)])
        alpha = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        lhs = (alpha * p + q).derivative()
        rhs = alpha * p.derivative() + q.derivative()
        width = max(len(lhs.coeffs), len(rhs.coeffs))
        la = list(lhs.coeffs) + [0j] * (width - len(lhs.coeffs))
        rb = list(rhs.coeffs) + [0j] * (width - len(rhs.coeffs))
        top = max(1e-30, max(abs(c) for c in la + rb))
        assert all(abs(x - y) <= 1e-14 * top for x, y in zip(la, rb))


class TestFromRoots:
    def test_two_roots(self):
        assert from_roots([1, 2]).coeffs == (2 + 0j, -3 + 0j, 1 + 0j)

    def test_repeated_root(self):
        assert from_roots([0, 0, 0]).coeffs == (0j, 0j, 0j, 1 + 0j)

    def test_plus_minus_one(self):
        assert from_roots([-1, 1]).coeffs == (-1 + 0j, 0j, 1 + 0j)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            from_roots([])

    def test_one_call_builds_each_point_list_once(self):
        # one drive_many call builds the product of equal points once
        def core(points):
            return (yield rootfind.Product(points))

        sets = [[1, 2j], (1 + 0j, 2j), [0.0, 1], [-0.0, 1]]
        p, same, plus, minus = rootfind.drive_many([core(pts) for pts in sets])
        assert same is p and p == list(from_roots([1, 2j]).coeffs)
        # a signed zero is another point, with other coefficient bits
        assert minus is not plus
        assert repr(minus) != repr(plus)
        # and a second call builds it again
        assert rootfind.drive(core([1, 2j])) is not p

    def test_coefficients_match_elementary_symmetric(self):
        rng = random.Random(42)
        for _ in range(200):
            n = rng.randint(1, 10)
            pts = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]
            p = from_roots(pts)
            e = elementary_symmetric_all(pts)
            top = max(abs(c) for c in e)
            for k in range(n + 1):
                expected = (-1) ** (n - k) * e[n - k]
                assert abs(p.coeffs[k] - expected) <= 1e-12 * (1 + top)


class TestElementarySymmetric:
    def test_three_points(self):
        approx_complex(elementary_symmetric([1, 2, 3], 2), 11)

    def test_e0_is_one(self):
        assert elementary_symmetric([5j, 2, -1], 0) == 1

    def test_single_point(self):
        approx_complex(elementary_symmetric([3 - 2j], 1), 3 - 2j)

    def test_out_of_range(self):
        with pytest.raises(InvalidIndex):
            elementary_symmetric([1, 2], 3)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 1000))
    def test_incremental_recurrence(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 8)
        w = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]
        x = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        e_small = elementary_symmetric_all(w)
        e_big = elementary_symmetric_all(w + [x])
        top = max(abs(c) for c in e_big)
        for k in range(1, n + 1):
            assert abs(e_big[k] - e_small[k] - x * e_small[k - 1]) <= 1e-12 * (1 + top)


def recurrence_reference(points):
    """e_0..e_n by the incremental recurrence elementary_symmetric_all
    used before it read them from the product."""
    e = [1.0 + 0j] + [0j] * len(points)
    for i, x in enumerate(points):
        for k in range(i + 1, 0, -1):
            e[k] = e[k] + x * e[k - 1]
    return e


def point_sets(rng):
    """Random point sets of 1-60 points: complex, real-only, and with
    signed zeros in either part."""
    for i in range(150):
        n = rng.randint(1, 60)
        kind = i % 3
        if kind == 0:
            yield [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]
        elif kind == 1:
            yield [complex(rng.uniform(-2, 2), rng.choice([0.0, -0.0])) for _ in range(n)]
        else:
            part = lambda: rng.choice([0.0, -0.0, 1.0, -1.0, rng.uniform(-2, 2)])
            yield [complex(part(), part()) for _ in range(n)]


class TestElementarySymmetricFromTheProduct:
    # e_k is read off the coefficients of prod (z - w): the same values as
    # the recurrence's (a zero may differ in sign)
    def test_equal_to_the_recurrence(self):
        for pts in point_sets(random.Random(14)):
            assert elementary_symmetric_all(pts) == recurrence_reference(pts)

    @separate_rounding
    def test_two_cores_of_one_call_read_one_product(self, monkeypatch):
        # two cores of one drive_many call read e_k from one product,
        # built once
        passes = batched_passes(monkeypatch)

        def core(pts):
            return poly._symmetric_from_product((yield rootfind.Product(pts)))

        for pts in point_sets(random.Random(15)):
            del passes[:]
            e, again = rootfind.drive_many([core(pts), core(pts)])
            assert passes == [1]
            assert e == again == recurrence_reference(pts)

    def test_multiaffine_value_equal_to_the_recurrence(self):
        rng = random.Random(16)
        for pts in point_sets(rng):
            n = len(pts)
            E = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                 for _ in range(rng.randint(1, n + 1))]
            P = SymmetricMultiaffine(n, E)
            e = recurrence_reference(pts)
            assert evaluate_multiaffine(P, pts) == sum(Ek * e[k] for k, Ek in enumerate(P.E))

    def test_no_points(self):
        assert elementary_symmetric_all([]) == [1]


class TestBinomial:
    def test_simple(self):
        assert binomial(5, 2) == 10

    def test_k_zero(self):
        assert binomial(17, 0) == 1

    def test_large_exact(self):
        # independent Pascal-triangle oracle
        row = [1]
        for _ in range(60):
            row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
        assert binomial(60, 30) == row[30] == 118264581564861424

    def test_rejects_above_n_max(self):
        with pytest.raises(DegreeTooLarge):
            binomial(N_MAX + 1, 2)

    def test_rejects_k_above_n(self):
        with pytest.raises(InvalidIndex):
            binomial(4, 5)


    def test_table_is_math_comb(self):
        for n in range(N_MAX + 1):
            assert [binomial(n, k) for k in range(n + 1)] == [math.comb(n, k)
                                                              for k in range(n + 1)]


class TestMeanOfRoots:
    def test_quadratic(self):
        approx_complex(mean_of_roots(Polynomial([2, -3, 1])), 1.5)

    def test_symmetric(self):
        approx_complex(mean_of_roots(Polynomial([0, 0, 0, 1])), 0)

    def test_factored_cubic(self):
        # (z^2 - 1)(z - 10): roots {-1, 1, 10}, mean 10/3
        approx_complex(mean_of_roots(Polynomial([10, -1, -10, 1])), 10 / 3)

    def test_rejects_constants(self):
        with pytest.raises(InvalidDegree):
            mean_of_roots(Polynomial([3]))

    def test_invariant_under_differentiation(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(2, 12)
            pts = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]
            p = from_roots(pts)
            mu = mean_of_roots(p)
            for k in range(1, n):
                approx_complex(mean_of_roots(p.derivative(k)), mu, tol=1e-12)


class TestCanonicalForm:
    def test_trailing_trim(self):
        # only exact zeros are dropped: a tiny leading coefficient is kept
        assert Polynomial([1, 2, 1e-20]).degree() == 2
        assert Polynomial([1, 2, 0]).degree() == 1

    def test_high_degree_from_roots_keeps_its_leading_one(self):
        p = from_roots(range(1, 21))
        assert p.degree() == 20
        assert p.coeffs[-1] == 1

    def test_zero_polynomial(self):
        assert Polynomial([0, 0]).is_zero
        assert Polynomial([]).degree() == -1

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInput):
            Polynomial([float("nan")])
        with pytest.raises(InvalidInput):
            Polynomial([complex(0, float("inf"))])

    def test_reads_an_iterator_once(self):
        assert Polynomial(c for c in [1, 2j, 3]).coeffs == (1 + 0j, 2j, 3 + 0j)
        with pytest.raises(InvalidInput, match="inf"):
            Polynomial(c for c in [1, float("inf")])

    @pytest.mark.parametrize("values,error,text", [
        ([1, float("inf"), "x"], InvalidInput, r"non-finite value \(inf\+0j\)"),
        ([1, "x", float("inf")], ValueError, "complex"),
        ([float("nan"), object()], InvalidInput, "nan"),
        ([object(), float("nan")], TypeError, "object"),
        ([10 ** 400, float("nan")], OverflowError, "int too large"),
    ])
    def test_the_first_bad_value_decides_the_error(self, values, error, text):
        with pytest.raises(error, match=text):
            Polynomial(values)


def bits(coeffs) -> bytes:
    return b"".join(struct.pack("<dd", c.real, c.imag) for c in coeffs)


def product_bits(pts) -> bytes:
    """The bits of the scalar reference, prod (z - w) built point by point."""
    return bits(SCALAR_PRODUCT(tuple(complex(w) for w in pts)))


SCALAR_PRODUCT = poly._product


class TestBatchedProducts:
    # drive_many builds a round's products in one batched pass, which
    # gives each the bits of the scalar _product where CPython rounds a
    # complex multiply's products alone
    OVERFLOWING = [[1e200, 1e200, 1], [1e300j, 1e300, 2]]
    OVERFLOW_TEXTS = ["non-finite value (-inf+nanj)", "non-finite value (nan-infj)"]

    @staticmethod
    def mixed_sets(seed):
        rng = random.Random(seed)
        sets = [[complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]
                for n in rng.sample(range(1, 61), 60) + [rng.randint(1, 60) for _ in range(140)]]
        zeros = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
        return sets + [zeros, zeros[::-1] + [1j, -1], [complex(-0.0, -0.0)] * 5,
                       [1 + 1j] * 7, [-0.5j, 2, 2, -0.5j, 2], [3 - 1j]]

    @separate_rounding
    @pytest.mark.filterwarnings("error")
    def test_equal_to_the_product_in_bits(self, monkeypatch):
        sets = self.mixed_sets(21)
        passes = batched_passes(monkeypatch)
        out = sent_products(sets)
        assert passes == [len(sets)]
        for pts, c in zip(sets, out):
            assert bits(c) == product_bits(pts)

    @separate_rounding
    @pytest.mark.filterwarnings("error")
    def test_batch_of_one(self):
        for pts in ([complex(-0.0, 0.0)], [0.25 - 3j, complex(0.0, -0.0), 0.25 - 3j],
                    self.mixed_sets(22)[0]):
            c, = poly._products([np.array(pts, dtype=complex)])
            assert bits(c) == product_bits(pts)

    @separate_rounding
    def test_few_short_sets_are_built_in_one_pass(self, monkeypatch):
        sets = [[1 + 2j, -3j], [0.5j, 2, -1]]
        passes = batched_passes(monkeypatch)
        out = sent_products(sets)
        assert passes == [2]
        assert [bits(c) for c in out] == [product_bits(pts) for pts in sets]

    @separate_rounding
    @pytest.mark.filterwarnings("error")
    def test_a_product_that_overflows_keeps_the_pass_bits(self, monkeypatch):
        # the batched pass's row of a product that overflows is sent as it
        # is: the bits of _product, for which from_roots raises
        sets = self.mixed_sets(23)
        passes = batched_passes(monkeypatch)
        out = sent_products(sets + self.OVERFLOWING)
        assert passes == [len(sets) + len(self.OVERFLOWING)]
        for pts, c in zip(sets + self.OVERFLOWING, out):
            assert bits(c) == product_bits(pts)
        for pts, c, text in zip(self.OVERFLOWING, out[len(sets):], self.OVERFLOW_TEXTS):
            for build in (lambda: Polynomial(c), lambda: from_roots(pts)):
                with pytest.raises(InvalidInput) as e:
                    build()
                assert str(e.value) == text

    @pytest.mark.filterwarnings("error")
    def test_a_product_has_the_same_bits_alone_and_in_a_batch(self, monkeypatch):
        # 200 sets, signed zeros and two overflowing ones among them, each
        # asked for by one of 200 cores of one call and by the one core of
        # a call of its own: each call builds its products in one pass,
        # with the same bits
        sets = self.mixed_sets(27)[8:] + self.OVERFLOWING
        passes = batched_passes(monkeypatch)
        together = sent_products(sets)
        alone = [sent_products([pts])[0] for pts in sets]
        assert passes == [200] + [1] * 200
        assert [bits(c) for c in together] == [bits(c) for c in alone]
        if not SEPARATE_ROUNDING:
            pytest.skip(FUSED)
        assert [bits(c) for c in together] == [product_bits(pts) for pts in sets]
        for pts, c, text in zip(self.OVERFLOWING, together[198:], self.OVERFLOW_TEXTS):
            for build in (lambda: Polynomial(c), lambda: from_roots(pts)):
                with pytest.raises(InvalidInput) as e:
                    build()
                assert str(e.value) == text

    def test_nothing_is_built_outside_a_scope(self, monkeypatch):
        # outside a drive_many call, from_roots and elementary_symmetric_all
        # build each product alone
        batches = []
        monkeypatch.setattr(poly, "_products", batches.append)
        for pts in self.mixed_sets(24):
            assert bits(from_roots(pts).coeffs) == product_bits(pts)
            elementary_symmetric_all(pts)
        assert batches == []

    @separate_rounding
    def test_non_finite_points_are_left_to_from_roots(self, monkeypatch):
        # drive_many throws from_roots' error into a core whose points it
        # rejects, and builds the others' products in one pass
        sets, bad = self.mixed_sets(26), [[1, complex("nan")], []]

        def core(pts):
            try:
                return bits((yield rootfind.Product(pts)))
            except InvalidInput as e:
                return str(e)

        passes = batched_passes(monkeypatch)
        out = rootfind.drive_many([core(pts) for pts in sets + bad])
        assert passes == [len(sets)]
        assert out[:len(sets)] == [product_bits(pts) for pts in sets]
        for pts, text in zip(bad, out[len(sets):]):
            with pytest.raises(InvalidInput) as e:
                from_roots(pts)
            assert text == str(e.value)
