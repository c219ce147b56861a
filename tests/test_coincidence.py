import math
import random

import pytest

from polygeom import poly
from polygeom.coincidence import (
    SymmetricMultiaffine,
    coincidence_witness,
    diagonal,
    evaluate_multiaffine,
    theorem1_apolarity_residual,
    theorem1_hypothesis,
)
from polygeom.errors import HypothesisViolated, InvalidInput, TheoremViolation
from polygeom.jsonio import multiaffine_from_json
from polygeom.poly import from_roots
from polygeom.regions import contains, disk, exterior_disk, half_plane, smallest_enclosing_disk
from polygeom.rootfind import find_roots


def random_instance(rng, n_max=12):
    n = rng.randint(1, n_max)
    m = rng.randint(1, n)
    w = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]
    E = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(m + 1)]
    while abs(E[m]) < 0.1:
        E[m] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return SymmetricMultiaffine(n, E, trim=False), w


class TestEvaluateMultiaffine:
    def test_e1_at_opposite_pair(self):
        P = SymmetricMultiaffine(2, [0, 1])
        assert evaluate_multiaffine(P, [-1, 1]) == 0

    def test_e2_is_product(self):
        P = SymmetricMultiaffine(2, [0, 0, 1])
        a, b = 2 + 1j, -3j
        assert abs(evaluate_multiaffine(P, [a, b]) - a * b) <= 1e-14 * (1 + abs(a * b))

    def test_constant(self):
        P = SymmetricMultiaffine(3, [7 - 2j], trim=False)
        assert evaluate_multiaffine(P, [1, 2, 3]) == 7 - 2j

    def test_arity_mismatch(self):
        with pytest.raises(InvalidInput):
            evaluate_multiaffine(SymmetricMultiaffine(2, [0, 1]), [1, 2, 3])


class TestTotalDegree:
    def test_tiny_top_coefficient_counts(self):
        assert SymmetricMultiaffine(30, [1] * 30 + [1e-15]).total_degree == 30

    def test_trailing_exact_zero_dropped(self):
        assert SymmetricMultiaffine(2, [0, 1, 0]).total_degree == 1

    def test_all_zero_E_keeps_one_coefficient(self):
        assert SymmetricMultiaffine(2, [0, 0, 0]).E == (0j,)

    def test_E_may_be_an_iterator(self):
        assert SymmetricMultiaffine(2, iter([1, 2j, 0])).E == (1 + 0j, 2j)


NAN, INF = float("nan"), float("inf")


class TestNonFiniteInput:
    # E and the points are converted as Polynomial converts coefficients:
    # a NaN or an infinity is invalid input that names it, never a value
    # or a hypothesis violation
    def test_E(self):
        with pytest.raises(InvalidInput, match=r"non-finite value \(inf\+0j\)"):
            SymmetricMultiaffine(2, [1, INF])

    @pytest.mark.parametrize("m", [1, 2])
    def test_hypothesis_points(self, m):
        with pytest.raises(InvalidInput, match="non-finite value"):
            theorem1_hypothesis([NAN, 1], m, disk(0, 2))

    @pytest.mark.parametrize("classic", [True, False])
    def test_witness_points(self, classic):
        with pytest.raises(InvalidInput, match="non-finite value"):
            coincidence_witness(SymmetricMultiaffine(2, [0, 1]), [NAN, 1], disk(0, 2),
                                classic=classic)


class TestDiagonal:
    def test_e1_two_variables(self):
        assert diagonal(SymmetricMultiaffine(2, [0, 1])).coeffs == (0j, 2 + 0j)

    def test_top_elementary_symmetric(self):
        n = 5
        P = SymmetricMultiaffine(n, [0] * n + [1], trim=False)
        assert diagonal(P).coeffs == tuple([0j] * n + [1 + 0j])

    def test_three_variables(self):
        P = SymmetricMultiaffine(3, [1, 1])
        assert diagonal(P).coeffs == (1 + 0j, 3 + 0j)

    def test_matches_diagonal_evaluation(self):
        rng = random.Random(2)
        for _ in range(200):
            P, _ = random_instance(rng, n_max=20)
            r = diagonal(P)
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            via_e = evaluate_multiaffine(P, [z] * P.n)
            assert abs(r(z) - via_e) <= 1e-12 * (1 + abs(via_e))


class TestHypothesis:
    def test_derivative_roots_inside(self):
        # q = z(z-1)(z-2), q' = 3z^2 - 6z + 2, roots 1 +- 1/sqrt(3)
        rep = theorem1_hypothesis([0, 1, 2], 2, disk(1, 0.6))
        assert rep.holds
        expected = sorted([1 - 1 / math.sqrt(3), 1 + 1 / math.sqrt(3)])
        got = sorted(r.real for r in rep.derivative_roots)
        assert all(abs(a - b) <= 1e-10 for a, b in zip(got, expected))

    def test_m_equals_n_uses_points_themselves(self):
        rng = random.Random(4)
        w = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(5)]
        sed = smallest_enclosing_disk(w)
        assert theorem1_hypothesis(w, 5, disk(sed.center, sed.radius + 1e-9)).holds

    def test_m_below_1_is_invalid_input(self):
        with pytest.raises(InvalidInput, match="need 1 <= m <= 2, got m=0"):
            theorem1_hypothesis([-1, 1], 0, disk(0, 1))

    def test_counterexample_hypothesis_fails(self):
        rep = theorem1_hypothesis([-1, 1], 1, exterior_disk(0, 1))
        assert not rep.holds
        assert any(abs(z) <= 1e-12 for z in rep.outside)


class TestWitness:
    def test_counterexample_witness_in_disk(self):
        P = SymmetricMultiaffine(2, [0, 1])
        w = coincidence_witness(P, [-1, 1], disk(0, 1))
        assert abs(w) <= 1e-10

    def test_counterexample_no_witness_in_exterior(self):
        P = SymmetricMultiaffine(2, [0, 1])
        S = exterior_disk(0, 1)
        with pytest.raises(HypothesisViolated):
            coincidence_witness(P, [-1, 1], S)
        with pytest.raises(TheoremViolation):
            coincidence_witness(P, [-1, 1], S, check_hypothesis=False)

    def test_classic_walsh_on_enclosing_disk(self):
        rng = random.Random(6)
        for _ in range(100):
            n = rng.randint(2, 10)
            w = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]
            E = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n + 1)]
            while abs(E[n]) < 0.1:
                E[n] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            P = SymmetricMultiaffine(n, E, trim=False)
            sed = smallest_enclosing_disk(w)
            z = coincidence_witness(P, w, disk(sed.center, sed.radius + 1e-9), classic=True)
            assert abs(z - sed.center) <= sed.radius + 1e-5 * (1 + abs(z))

    def test_degenerate_constant_returns_region_member(self):
        P = SymmetricMultiaffine(3, [4 + 1j], trim=False)
        S = disk(2, 1)
        assert coincidence_witness(P, [0, 1, 2], S) == S.center

    # a constant P makes the diagonal equation an identity, so any member
    # of the region is a witness: the representative point of each kind,
    # open or closed, with points whose mean (the zero of q') lies inside
    @pytest.mark.parametrize("region,points", [
        (exterior_disk(0, 1, closed=True), [3, 5]),
        (exterior_disk(0, 1, closed=False), [3, 5]),
        (half_plane(1, 0, closed=True), [-1, -3]),
        (half_plane(1j, 2, closed=False), [-1j, -3j]),
    ], ids=["exterior-closed", "exterior-open", "halfplane-closed", "halfplane-open"])
    @pytest.mark.parametrize("classic", [False, True])
    def test_constant_witness_is_the_representative_point(self, region, points, classic):
        P = multiaffine_from_json({"n": 2, "E": [[1, 0]]})
        w = coincidence_witness(P, points, region, classic=classic)
        assert w == region.representative_point()
        assert contains(region, w)

    def test_classic_hypothesis_is_theorem1_at_m_equals_n(self):
        P = SymmetricMultiaffine(3, [1, 0, 1])
        w, region = [0, 0.5, 3], disk(0, 1)
        rep = theorem1_hypothesis(w, 3, region)
        # the zeros tested are complex, whatever numbers the points were
        assert [type(z) for z in rep.derivative_roots] == [complex] * 3
        assert rep.derivative_roots == (0j, 0.5 + 0j, 3 + 0j)
        assert rep.outside == (3 + 0j,)
        with pytest.raises(HypothesisViolated,
                           match=r"^points outside region: \[\(3\+0j\)\]$") as exc:
            coincidence_witness(P, w, region, classic=True)
        # the classic check returns no report
        assert exc.value.report is None


class TestProofIdentity:
    def test_hand_computed_counterexample_case(self):
        # q' = 2z, normalized diagonal 2z; two-term pairing at frame 1:
        # 0*2/1 - 2*0/1 = 0
        P = SymmetricMultiaffine(2, [0, 1])
        assert theorem1_apolarity_residual(P, [-1, 1]) <= 1e-15

    @pytest.mark.parametrize("E, points, text", [
        ([1, 0], [-1, 1], "total degree"),
        ([0, 1], [-1, 0, 1], "expected 2 points, got 3"),
    ], ids=["total-degree-0", "wrong-point-count"])
    def test_invalid_input(self, E, points, text):
        with pytest.raises(InvalidInput, match=text):
            theorem1_apolarity_residual(SymmetricMultiaffine(2, E), points)

    def test_random_instances(self):
        rng = random.Random(8)
        for _ in range(500):
            P, w = random_instance(rng)
            assert theorem1_apolarity_residual(P, w) <= 1e-10

    def test_builds_its_product_once(self, monkeypatch):
        # q and the diagonal equation are read from one product, with the
        # bits the residual had when each built its own
        built = []
        product = poly._product
        monkeypatch.setattr(poly, "_product", lambda pts: built.append(pts) or product(pts))
        P = SymmetricMultiaffine(5, [0.3 - 1j, 2 + 0.5j, -1.25j, 0.75])
        w = [1 + 2j, -0.5j, 3, -2 + 0.25j, 0.125 - 1j]
        assert theorem1_apolarity_residual(P, w).hex() == "0x1.b9c8e91c70e0cp-57"
        assert len(built) == 1
        theorem1_apolarity_residual(P, w)
        assert len(built) == 2

    def test_m_equals_n(self):
        rng = random.Random(10)
        for _ in range(200):
            n = rng.randint(1, 12)
            E = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n + 1)]
            while abs(E[n]) < 0.1:
                E[n] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            P = SymmetricMultiaffine(n, E, trim=False)
            w = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]
            assert theorem1_apolarity_residual(P, w) <= 1e-10


class TestEmpirical:
    def test_witness_on_enclosing_disk_of_derivative_roots(self):
        rng = random.Random(12)
        for _ in range(300):
            P, w = random_instance(rng)
            n, m = P.n, P.total_degree
            droots = (
                find_roots(from_roots(w).derivative(n - m)).roots if m < n else tuple(w)
            )
            sed = smallest_enclosing_disk(droots)
            S = disk(sed.center, sed.radius + 1e-9 * (1 + sed.radius))
            coincidence_witness(P, w, S)  # must not raise

    def test_witness_on_exterior_region(self):
        rng = random.Random(14)
        for _ in range(300):
            P, w = random_instance(rng)
            n, m = P.n, P.total_degree
            droots = (
                find_roots(from_roots(w).derivative(n - m)).roots if m < n else tuple(w)
            )
            while True:
                center = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
                d = min(abs(r - center) for r in droots)
                if d > 1e-6:
                    break
            z = coincidence_witness(P, w, exterior_disk(center, d / 2))
            assert abs(z - center) >= d / 2 - 1e-5 * (1 + abs(z))

    def test_gauss_lucas_ordering_of_hypotheses(self):
        # derivative zeros never need a larger enclosing disk than the
        # points themselves: the extension hypothesis is weaker
        rng = random.Random(16)
        for _ in range(200):
            n = rng.randint(2, 12)
            m = rng.randint(1, n - 1)
            w = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]
            droots = find_roots(from_roots(w).derivative(n - m)).roots
            r_small = smallest_enclosing_disk(droots).radius
            r_big = smallest_enclosing_disk(w).radius
            assert r_small <= r_big + 1e-9
