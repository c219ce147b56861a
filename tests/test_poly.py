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

    def test_reuse_scope_builds_each_point_list_once(self):
        with rootfind._reuse_scope():
            p = from_roots([1, 2j])
            assert from_roots((1 + 0j, 2j)) is p
            # a signed zero is another point, with other coefficient bits
            plus, minus = from_roots([0.0, 1]), from_roots([-0.0, 1])
            assert minus is not plus
            assert repr(minus.coeffs) != repr(plus.coeffs)
        assert from_roots([1, 2j]) is not from_roots([1, 2j])

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

    def test_equal_within_a_reuse_scope(self, monkeypatch):
        # the product from_roots built in the scope is read back, not rebuilt
        built = []
        product = poly._product

        def building(pts):
            built.append(pts)
            return product(pts)

        monkeypatch.setattr(poly, "_product", building)
        with rootfind._reuse_scope():
            for pts in point_sets(random.Random(15)):
                from_roots(pts)
                del built[:]
                assert elementary_symmetric_all(pts) == recurrence_reference(pts)
                assert not built

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
    # within a reuse scope, a round's products are built in one batched
    # pass that must give each the bits of the scalar _product
    @staticmethod
    def built(monkeypatch, sets):
        """from_roots of every set after one _build_products pass in a
        scope, and the sets the scalar _product built."""
        scalar = []
        monkeypatch.setattr(poly, "_product", lambda pts: scalar.append(pts)
                            or SCALAR_PRODUCT(pts))
        with rootfind._reuse_scope():
            poly._build_products(sets)
            return [from_roots(s) for s in sets], scalar

    @staticmethod
    def mixed_sets(seed):
        rng = random.Random(seed)
        sets = [[complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]
                for n in rng.sample(range(1, 61), 60) + [rng.randint(1, 60) for _ in range(140)]]
        zeros = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
        return sets + [zeros, zeros[::-1] + [1j, -1], [complex(-0.0, -0.0)] * 5,
                       [1 + 1j] * 7, [-0.5j, 2, 2, -0.5j, 2], [3 - 1j]]

    @pytest.mark.filterwarnings("error")
    def test_equal_to_the_product_in_bits(self, monkeypatch):
        sets = self.mixed_sets(21)
        out, scalar = self.built(monkeypatch, sets)
        for pts, p in zip(sets, out):
            assert bits(p.coeffs) == product_bits(pts)
        # the batch built every one, unless this CPython fuses the
        # multiply and the add of a complex product
        assert scalar == [] or not poly._SEPARATE_ROUNDING

    @pytest.mark.filterwarnings("error")
    def test_batch_of_one(self):
        if not poly._SEPARATE_ROUNDING:
            pytest.skip("this CPython fuses the multiply and the add of a complex product")
        for pts in ([complex(-0.0, 0.0)], [0.25 - 3j, complex(0.0, -0.0), 0.25 - 3j],
                    self.mixed_sets(22)[0]):
            c, = poly._products([np.array(pts, dtype=complex)])
            assert bits(c) == product_bits(pts)

    def test_few_short_sets_are_built_one_by_one(self, monkeypatch):
        # nothing is built ahead: from_roots builds each when asked
        sets = [[1 + 2j, -3j], [0.5j, 2, -1]]
        with rootfind._reuse_scope():
            poly._build_products(sets)
            assert poly._reuse == {}
        out, scalar = self.built(monkeypatch, sets)
        assert len(scalar) == 2
        assert [bits(p.coeffs) for p in out] == [product_bits(pts) for pts in sets]

    def test_nothing_is_built_ahead_where_a_complex_multiply_fuses(self, monkeypatch):
        monkeypatch.setattr(poly, "_SEPARATE_ROUNDING", False)
        sets = self.mixed_sets(25)
        with rootfind._reuse_scope():
            poly._build_products(sets)
            assert poly._reuse == {}
        out, scalar = self.built(monkeypatch, sets)
        assert len(scalar) == len(sets)
        assert [bits(p.coeffs) for p in out] == [product_bits(pts) for pts in sets]

    @pytest.mark.filterwarnings("error")
    def test_a_product_that_overflows_is_not_kept(self, monkeypatch):
        if not poly._SEPARATE_ROUNDING:
            pytest.skip("this CPython fuses the multiply and the add of a complex product")
        sets = self.mixed_sets(23)
        over = [[1e200, 1e200, 1], [1e300j, 1e300, 2]]
        with rootfind._reuse_scope():
            poly._build_products(sets + over)
            assert len(poly._reuse) == len(sets)
            scalar = []
            monkeypatch.setattr(poly, "_product", lambda pts: scalar.append(pts)
                                or SCALAR_PRODUCT(pts))
            for pts in sets:
                assert bits(from_roots(pts).coeffs) == product_bits(pts)
            assert scalar == []
            # built again by from_roots, which raises as outside any scope
            for pts, text in zip(over, ("non-finite value (-inf+nanj)",
                                        "non-finite value (nan-infj)")):
                with pytest.raises(InvalidInput) as e:
                    from_roots(pts)
                assert str(e.value) == text

    def test_nothing_is_built_outside_a_scope(self, monkeypatch):
        batches = []
        monkeypatch.setattr(poly, "_products", batches.append)
        poly._build_products(self.mixed_sets(24))
        assert batches == [] and poly._reuse is None

    def test_non_finite_points_are_left_to_from_roots(self):
        if not poly._SEPARATE_ROUNDING:
            pytest.skip("this CPython fuses the multiply and the add of a complex product")
        sets = self.mixed_sets(26)
        with rootfind._reuse_scope():
            poly._build_products(sets + [[1, complex("nan")], [], [2j]])
            assert len(poly._reuse) == len(sets) + 1
            with pytest.raises(InvalidInput, match="non-finite value"):
                from_roots([1, complex("nan")])
