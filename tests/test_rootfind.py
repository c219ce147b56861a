import cmath
import math
import random
import struct
import traceback
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polygeom import poly, rootfind
from polygeom.errors import (
    HypothesisViolated,
    InvalidDegree,
    InvalidInput,
    NonConvergence,
    PolygeomError,
)
from polygeom.poly import Polynomial, from_roots
from polygeom.rootfind import (
    Product,
    _linkage,
    cauchy_bound,
    drive,
    drive_many,
    find_roots,
    find_roots_many,
)


def match_multisets(found, expected, tol):
    """Greedy nearest matching; adequate for well-separated root sets."""
    pool = list(found)
    for w in expected:
        best = min(pool, key=lambda r: abs(r - w))
        assert abs(best - w) <= tol, f"{w} unmatched (closest {best})"
        pool.remove(best)


class TestCauchyBound:
    def test_quadratic(self):
        assert cauchy_bound(Polynomial([-1, 0, 1])) == 2.0

    def test_pure_power(self):
        assert cauchy_bound(Polynomial([0, 0, 0, 1])) == 1.0

    def test_cubic(self):
        assert cauchy_bound(Polynomial([10, -1, -10, 1])) == 11.0

    def test_rejects_constant(self):
        with pytest.raises(InvalidDegree):
            cauchy_bound(Polynomial([5]))


class TestFindRoots:
    def test_cube_roots_of_unity(self):
        rs = find_roots(Polynomial([-1, 0, 0, 1]))
        expected = [1, complex(-0.5, math.sqrt(3) / 2), complex(-0.5, -math.sqrt(3) / 2)]
        match_multisets(rs.roots, expected, 1e-10)

    def test_triple_root_clusters(self):
        rs = find_roots(from_roots([2, 2, 2]))
        assert len(rs.clusters) == 1
        rep, mult = rs.clusters[0]
        assert mult == 3
        assert abs(rep - 2) <= 1e-8
        assert all(r <= 1e-12 for r in rs.residuals)

    def test_quadratic_formula_oracle(self):
        # 3z^2 - 6z + 2: roots 1 +- 1/sqrt(3)
        rs = find_roots(Polynomial([2, -6, 3]))
        expected = [1 - 1 / math.sqrt(3), 1 + 1 / math.sqrt(3)]
        match_multisets(rs.roots, expected, 1e-12)

    def test_zeros_at_origin_factored_exactly(self):
        rs = find_roots(Polynomial([0, 0, 0, 1, 1]))
        assert sum(1 for r in rs.roots if r == 0) == 3
        match_multisets(rs.roots, [0, 0, 0, -1], 1e-12)

    def test_zeros_at_origin_stay_out_of_the_collapse(self):
        # z^3 (z - 1e-4) and z^9 (z - 6.7e-6): the simple root lies within
        # the collapse's linkage radius of the zeros at the origin, which
        # are exact, so it is not merged with them
        for zeros, root in ((3, 1e-4), (9, 6.7e-6)):
            rs = find_roots(Polynomial([0] * zeros + [-root, 1]))
            (zero, m0), (rep, m1) = rs.clusters
            assert (zero, m0, m1) == (0, zeros, 1)
            assert rep == pytest.approx(root, rel=1e-12)

    def test_rejects_constant(self):
        with pytest.raises(InvalidDegree):
            find_roots(Polynomial([1]))

    def test_non_convergence_carries_best_effort(self):
        # no double-precision root set meets tol=1e-30
        with pytest.raises(NonConvergence) as exc:
            find_roots(Polynomial([-1, 0, 0, 0, 0, 1]), tol=1e-30)
        assert len(exc.value.roots) == 5
        assert len(exc.value.residuals) == 5

    def test_cluster_multiplicities_sum_to_degree(self):
        rng = random.Random(3)
        for _ in range(50):
            deg = rng.randint(1, 15)
            cs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(deg + 1)]
            while abs(cs[-1]) < 0.1:
                cs[-1] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            rs = find_roots(Polynomial(cs))
            assert sum(m for _, m in rs.clusters) == deg


class TestSoundness:
    def test_residuals_and_vieta_on_random_polynomials(self):
        rng = random.Random(17)
        for _ in range(300):
            deg = rng.randint(1, 20)
            cs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(deg + 1)]
            while abs(cs[-1]) < 0.1:
                cs[-1] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            p = Polynomial(cs)
            rs = find_roots(p)
            n = p.degree()
            for r in rs.roots:
                scale = sum(abs(c) * max(1.0, abs(r)) ** k for k, c in enumerate(p.coeffs))
                assert abs(p(r)) <= 1e-8 * scale
            root_sum = sum(rs.roots)
            root_prod = 1 + 0j
            for r in rs.roots:
                root_prod *= r
            vieta_sum = -p.coeffs[n - 1] / p.coeffs[n]
            vieta_prod = (-1) ** n * p.coeffs[0] / p.coeffs[n]
            assert abs(root_sum - vieta_sum) <= 1e-8 * (1 + abs(vieta_sum))
            assert abs(root_prod - vieta_prod) <= 1e-8 * (1 + abs(vieta_prod))

    def test_from_roots_round_trip(self):
        rng = random.Random(23)
        for _ in range(200):
            n = rng.randint(1, 12)
            pts = []
            while len(pts) < n:
                z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                if all(abs(z - w) >= 1e-2 for w in pts):
                    pts.append(z)
            rs = find_roots(from_roots(pts))
            match_multisets(rs.roots, pts, 1e-7)


def random_unit_box(rng, deg):
    """Coefficients in the unit box, leading |a_n| >= 0.1."""
    cs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(deg + 1)]
    while abs(cs[-1]) < 0.1:
        cs[-1] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return cs


class TestCertificate:
    def test_overflowing_residual_is_not_certified(self):
        # a root near -1e6 puts max(1, |z|)**60 beyond float range: the
        # scaled residual is NaN, which must not pass
        with pytest.raises(NonConvergence) as exc:
            find_roots(Polynomial([1e6] * 60 + [1]))
        assert len(exc.value.roots) == 60

    def test_small_leading_coefficient_certified(self):
        rs = find_roots(Polynomial([1] + [0] * 59 + [1e-8]))
        assert len(rs.roots) == 60
        assert all(math.isfinite(r) and r <= 1e-12 for r in rs.residuals)

    def test_returned_residuals_are_finite(self):
        # root moduli from about 1e-3 to 1e3
        rng = random.Random(41)
        certified = 0
        for deg in (2, 8, 25, 60):
            for scale in (1e-3, 1.0, 1e3):
                p = Polynomial([c * scale ** -k for k, c in enumerate(random_unit_box(rng, deg))])
                try:
                    rs = find_roots(p)
                except NonConvergence:
                    continue
                certified += 1
                assert len(rs.residuals) == p.degree()
                assert all(math.isfinite(r) and r <= 1e-12 for r in rs.residuals)
        assert certified >= 6


def box_rows(seed, lo, hi, count):
    """count rows of degree lo..hi, coefficients in the unit box times
    10**U(-3, 3), each drawn alone."""
    rng = np.random.default_rng(seed)
    rows = []
    for d in rng.integers(lo, hi + 1, count).tolist():
        box = rng.uniform(-1, 1, d + 1) + 1j * rng.uniform(-1, 1, d + 1)
        rows.append(box * 10.0 ** rng.uniform(-3, 3, d + 1))
    return rows


def ldexp(c, k):
    """c times 2**k, part by part, exact wherever no part leaves the
    normal floats."""
    return np.ldexp(c.real, k) + 1j * np.ldexp(c.imag, k)


class TestFrame:
    # every row is solved and certified on its frame, 2**-e times its
    # coefficients, which moves no zero
    def test_frame_rule(self):
        c = rootfind._framed([np.array([3 - 5j, 0.25]), np.array([1024, 2**-1020]),
                              np.array([1e308, 0, 5e-324j])])
        # padded with leading zeros to the largest degree
        assert c[0, 0] == c[0, 1] == 0
        # the largest part in [1/2, 1), where the smallest stays normal
        assert c[1:, 0].tolist() == [0.375 - 0.625j, 0.03125]
        # lowered by 9 for 2**-1020 to stay normal
        assert c[1:, 1].tolist() == [256, 2**-1022]
        # not lowered below 0: the row would grow past its own size
        assert c[:, 2].tolist() == [1e308, 0, 5e-324j]

    @pytest.mark.parametrize("coeffs", [[-1e-310, 2e-310], [-5e-324 - 5e-324j, 1e-323 + 1e-323j]])
    def test_subnormal_coefficients(self, coeffs):
        # p(z) underflowed to 0, which certified 0.2549+0.2147j for the
        # second row, and the first did not converge
        rs = find_roots(Polynomial(coeffs))
        assert rs.roots == (0.5,) and rs.residuals == (0.0,)

    def test_root_beyond_the_largest_float_is_non_convergence(self):
        # 1 + 2e-310 z: its root -5e309 has no float
        with pytest.raises(NonConvergence):
            find_roots(Polynomial([1, 2e-310]))

    def test_subnormal_part_beside_huge_ones(self):
        # 1e300 (z**21 + 1) + 5e-324 z: a frame lowered for the subnormal
        # part would bring the row near 2**1024, where the scale sum
        # overflows at |z| = 1 and every start reads as a certified root
        rs = find_roots(Polynomial([1e300, 5e-324] + [0] * 19 + [1e300]))
        for j in range(21):
            w = cmath.exp(1j * math.pi * (2 * j + 1) / 21)
            assert min(abs(z - w) for z in rs.roots) <= 1e-14

    def test_far_root_beside_near_ones(self):
        # z**4 overflowed the scale sum at 1e80 as given
        rs = find_roots(from_roots([1e80, 1, 2, 3]))
        for z, w in zip(rs.roots, [1, 2, 3, 1e80]):
            assert abs(z - w) <= 1e-15 * abs(w)

    @pytest.mark.parametrize("seed, lo, hi, count", [(6, 2, 15, 150), (5, 16, 60, 60)])
    def test_power_of_two_scale_keeps_the_outcome(self, seed, lo, hi, count):
        # a row times 2**k keeps its status and its roots; up to degree 15
        # (eigenvalue starts) every bit, and above it, where the circle
        # start reads the row as given, the roots to 1e-14 (1 + |z|)
        rows = box_rows(seed, lo, hi, count)
        base = find_roots_many([Polynomial(c.tolist()) for c in rows])
        for k in (-1000, -500, 500, 1000):
            scaled = [ldexp(c, k) for c in rows]
            assert all(np.array_equal(ldexp(s, -k), c) for s, c in zip(scaled, rows))
            for i, (a, b) in enumerate(zip(base, find_roots_many(
                    [Polynomial(c.tolist()) for c in scaled]))):
                assert type(a) is type(b), (k, i)
                if hi <= rootfind._EIGVALS_MAX_DEGREE:
                    assert outcome(a) == outcome(b), (k, i)
                elif isinstance(a, rootfind.RootSet):
                    pool = list(b.roots)
                    for z in a.roots:
                        w = min(pool, key=lambda w: abs(w - z))
                        assert abs(w - z) <= 1e-14 * (1 + abs(z)), (k, i)
                        pool.remove(w)


class TestHighPrecisionOracle:
    # relative to max(1, |root|); observed errors are near 1e-16
    ORACLE_TOL = 1e-10

    @pytest.mark.parametrize("deg,count", [(5, 3), (10, 3), (15, 3), (16, 3), (20, 3),
                                           (40, 1), (60, 1)])
    def test_roots_match_mpmath(self, deg, count):
        rng = random.Random(1000 + deg)
        for _ in range(count):
            cs = random_unit_box(rng, deg)
            rs = find_roots(Polynomial(cs))
            with mpmath.workdps(25):
                ref = mpmath.polyroots([mpmath.mpc(c.real, c.imag) for c in reversed(cs)],
                                       maxsteps=100, extraprec=30)
                pool = [complex(w) for w in ref]
            for r in rs.roots:
                w = min(pool, key=lambda w: abs(w - r))
                assert abs(w - r) <= self.ORACLE_TOL * max(1.0, abs(w)), (deg, r, w)
                pool.remove(w)


def union_find_groups(points, scale):
    """Loop reference for _linkage's groups: the same chaining rule, in
    the order of their smallest index."""
    parent = list(range(len(points)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            r = scale * (1.0 + max(abs(points[i]), abs(points[j])))
            if abs(points[i] - points[j]) <= r:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(len(points)):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


class TestArrayHelpers:
    def test_linkage_matches_loop_reference(self, monkeypatch):
        # (values, count of approximations d, radius): random rows at three
        # radii, then rows led by d approximations and padded with NaN,
        # which counts as none; a non-finite approximation is not linked
        # to itself, so its row is flagged
        rng = random.Random(5)
        table = []
        for _ in range(100):
            centers = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                       for _ in range(rng.randint(1, 6))]
            pts = [rng.choice(centers) + complex(rng.gauss(0, 1e-3), rng.gauss(0, 1e-3))
                   for _ in range(rng.randint(1, 30))]
            table += [(pts, len(pts), scale) for scale in (1e-6, 1e-3, 1e-2)]
        nan, inf = complex(np.nan, np.nan), complex(np.inf, 0)
        table += [([1, 2j, nan], 2, 1e-3), ([1, nan, nan], 2, 1e-3), ([1, inf, nan], 2, 1e-3),
                  ([1, 1, nan], 2, 1e-3)]
        for pts, d, scale in table:
            monkeypatch.setattr(rootfind, "_GROUP_RADIUS", scale)
            want = union_find_groups(pts, scale)
            # a row whose only links are its approximations' links to
            # themselves is not flagged, and holds only singletons
            with np.errstate(invalid="ignore"):
                flagged, labels = _linkage(np.asarray([pts]), [d])
            lone = all(len(g) == 1 for g in want) and np.isfinite(pts[:d]).all()
            assert flagged.tolist() == ([] if lone else [0])
            label = labels[0] if flagged.size else np.arange(len(pts))
            assert [np.flatnonzero(label == g).tolist() for g in np.unique(label)] == want

    def test_scaled_residuals_match_loop_reference(self):
        # away from the roots there is no cancellation, so only the order
        # of the scale's sum differs: a few ulps
        rng = random.Random(9)
        for deg in (1, 7, 30, 60):
            p = Polynomial(random_unit_box(rng, deg))
            zs = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(20)]
            # one column of coefficients, which every point reads
            rc = np.asarray(p.coeffs[::-1], dtype=complex)[:, None]
            got = rootfind._evaluate(rc, np.abs(rc), np.zeros(len(zs), dtype=int),
                                     np.asarray(zs))[1]
            for z, r in zip(zs, got):
                scale = sum(abs(c) * max(1.0, abs(z)) ** k for k, c in enumerate(p.coeffs))
                assert r == pytest.approx(abs(p(z)) / scale, rel=1e-12)


class TestTolerance:
    @pytest.mark.parametrize("tol", [0, -1e-12, math.inf, math.nan, "1e-12", True,
                                     pytest.param(10 ** 400, id="huge-int")])
    def test_rejected(self, tol):
        with pytest.raises(InvalidInput):
            find_roots(Polynomial([-1, 0, 1]), tol=tol)

    def test_degree_error_comes_first(self):
        with pytest.raises(InvalidDegree):
            find_roots(Polynomial([1]), tol=math.inf)


def outcome(x):
    """A find_roots result or error as comparable text; repr keeps the
    sign of a zero and prints NaN."""
    if isinstance(x, PolygeomError):
        return (type(x).__name__, str(x), tuple(map(repr, getattr(x, "roots", ()))),
                tuple(map(repr, getattr(x, "residuals", ()))))
    return ("ok", tuple(map(repr, x.roots)), tuple(map(repr, x.residuals)),
            tuple(map(repr, x.clusters)))


def alone(p, tol=1e-12):
    try:
        return find_roots(p, tol=tol)
    except PolygeomError as e:
        return e


unit = st.builds(complex, st.floats(-1, 1), st.floats(-1, 1))


@st.composite
def polynomials(draw):
    kind = draw(st.sampled_from(["random", "origin", "signed", "repeated", "overflow",
                                 "constant"]))
    # any degree, so that a batch mixes many and pads most of its rows
    deg = draw(st.integers(1, 60))
    if kind == "overflow":
        # NaN residuals: a NonConvergence row
        return Polynomial([1e6] * 60 + [1])
    if kind == "constant":
        return Polynomial([draw(unit) + 1])
    if kind == "repeated":
        # multiple roots: the rows that take the per-root collapse path
        pts = draw(st.lists(unit, min_size=1, max_size=3))
        return from_roots([pts[draw(st.integers(0, len(pts) - 1))]
                           for _ in range(min(deg, 12))])
    cs = draw(st.lists(unit, min_size=deg + 1, max_size=deg + 1))
    cs[-1] += 1.5
    if kind == "origin":
        zeros = draw(st.integers(1, deg))
        cs[:zeros] = [0j] * zeros
    if kind == "signed":
        # signed zeros: a -0.0 part counts as zero, a lowest one as a zero
        # at the origin
        signed_zero = st.sampled_from([0.0, -0.0])
        for k in draw(st.lists(st.integers(0, deg - 1), max_size=deg)):
            cs[k] = complex(draw(signed_zero), draw(signed_zero))
    return Polynomial(cs)


class TestBatch:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(polynomials(), min_size=1, max_size=12),
           st.sampled_from([1e-12, 1e-30]))
    def test_rows_equal_single_calls(self, ps, tol):
        many = find_roots_many(ps, tol=tol)
        assert [outcome(m) for m in many] == [outcome(alone(p, tol)) for p in ps]

    def test_batch_of_one_degree(self):
        rng = random.Random(8)
        ps = [Polynomial(random_unit_box(rng, 7)) for _ in range(30)]
        assert [outcome(m) for m in find_roots_many(ps)] == [outcome(alone(p)) for p in ps]

    def test_mixed_degree_batch(self):
        # one padded pass over 30 rows of many degrees, a third of them
        # with zeros at the origin
        rng = random.Random(30)
        ps = []
        for i in range(30):
            cs = random_unit_box(rng, rng.randint(1, 60))
            if i % 3 == 0:
                zeros = rng.randint(1, len(cs) - 1)
                cs[:zeros] = [0j] * zeros
            ps.append(Polynomial(cs))
        assert len({p.degree() for p in ps}) >= 20
        assert [outcome(m) for m in find_roots_many(ps)] == [outcome(alone(p)) for p in ps]

    def test_one_call_keeps_every_outcome(self, monkeypatch):
        solved = []
        solve = rootfind._solve

        def counting(cs, tol):
            solved.extend(cs)
            return solve(cs, tol)

        monkeypatch.setattr(rootfind, "_solve", counting)
        bad, good = Polynomial([1e6] * 60 + [1]), from_roots([1, 2j, -3])

        def core():
            first = yield [bad, good]
            again = yield [bad, good]
            return first, again

        (first, again), = drive_many([core()])
        assert isinstance(first[0], NonConvergence)
        # the error is kept as the root set is: each is solved once
        assert again[0] is first[0] and again[1] is first[1]
        assert len(solved) == 2
        (other_tol, _), = drive_many([core()], tol=1e-10)
        assert other_tol[1] is not first[1] and len(solved) == 4

    def test_checks_and_solves_in_the_driver(self, monkeypatch):
        # find_roots_many is drive over one core that asks for the whole
        # list: the degree is checked before the tolerance, each error
        # comes back as a value, and _solve is reached through drive_many
        # alone
        calls = []
        drive, solve = rootfind.drive_many, rootfind._solve
        monkeypatch.setattr(rootfind, "drive_many",
                            lambda cores, tol: calls.append("drive") or drive(cores, tol))
        monkeypatch.setattr(rootfind, "_solve",
                            lambda cs, tol: calls.append("solve") or solve(cs, tol))
        ps = [Polynomial([1]), Polynomial([-1, 0, 1]), Polynomial([])]
        bad = find_roots_many(ps, tol=math.inf)
        assert [type(e) for e in bad] == [InvalidDegree, InvalidInput, InvalidDegree]
        assert str(bad[0]) == "find_roots needs degree >= 1"
        assert str(bad[1]) == "tol must be finite and > 0, got inf"
        assert calls == ["drive"]
        good = find_roots_many(ps)
        assert isinstance(good[0], InvalidDegree) and len(good[1].roots) == 2
        assert calls == ["drive", "drive", "solve"]

    def test_empty_list(self):
        assert find_roots_many([]) == []

    def test_equal_polynomials_share_one_outcome(self):
        p, c = from_roots([1, 2j, -3]), Polynomial([1])
        a, e, b, f = find_roots_many([p, c, Polynomial(list(p.coeffs)), Polynomial([1])])
        assert isinstance(a, rootfind.RootSet) and a is b
        assert isinstance(e, InvalidDegree) and e is f

    def test_overflowing_derivative_is_collapsed_at_a_smaller_scale(self):
        # 1e308 (z - 0.1)^2: its derivative overflows, but the collapse
        # runs on the coefficients times 2**-1024, where it does not, and
        # collapses the pair onto one certified root
        ps = [from_roots([1, 2, 3]), Polynomial([1e306, -2e307, 1e308])]
        many = find_roots_many(ps)
        assert many[1].roots[0] == many[1].roots[1]
        (rep, mult), = many[1].clusters
        assert mult == 2 and rep == pytest.approx(0.1, rel=1e-15)
        assert all(0 < r <= 1e-12 for r in many[1].residuals)
        assert [outcome(m) for m in many] == [outcome(alone(p)) for p in ps]

    def test_singleton_test_blocks(self, monkeypatch):
        # rows with multiple roots, on both sides of each block boundary
        # of the linkage, take the collapse path as they do alone
        block = rootfind._BLOCK_ENTRIES // 60 ** 2
        multiple = {0, block - 1, block, 2 * block - 1, 2 * block, 39}
        rng = random.Random(40)
        ps = []
        for i in range(40):
            if i in multiple:
                # 58 roots near the unit circle, two of them double
                pts = [cmath.rect(rng.uniform(0.8, 1.2),
                                  2 * math.pi * (k + rng.uniform(-0.3, 0.3)) / 58)
                       for k in range(58)]
                ps.append(from_roots(pts + pts[:2]))
            else:
                ps.append(Polynomial(random_unit_box(rng, 60)))
        collapsed = []
        collapse = rootfind._collapse_multiple

        def recording(rc, roots, label, tol):
            collapsed.append(rc.tobytes())
            return collapse(rc, roots, label, tol)

        monkeypatch.setattr(rootfind, "_collapse_multiple", recording)
        many = find_roots_many(ps)
        # the collapse is handed each row in its frame
        rows = [rootfind._framed([rootfind._coeff_row(p)]).tobytes() for p in ps]
        assert sorted(rows.index(c) for c in collapsed) == sorted(multiple)
        assert [outcome(m) for m in many] == [outcome(alone(p)) for p in ps]

    @pytest.mark.parametrize("coeffs,points", [
        ("complex", "complex"), ("real", "real"), ("real", "complex"), ("complex", "empty"),
    ])
    def test_horner_is_polyval_of_the_gathered_columns(self, coeffs, points):
        # one coefficient row per step takes the same steps as np.polyval
        # of the points' columns, at NaN and inf points too
        rng = np.random.default_rng(61)
        c = rng.uniform(-1, 1, (9, 5))
        if coeffs == "complex":
            c = c + 1j * rng.uniform(-1, 1, (9, 5))
        z = rng.uniform(-2, 2, 40)
        if points == "complex":
            z = z + 1j * rng.uniform(-2, 2, 40)
        z[:4] = [np.nan, np.inf, -np.inf, 1e300]
        if points == "empty":
            z = z[:0].astype(complex)
        row = rng.integers(0, 5, z.size)
        with np.errstate(all="ignore"):
            got, want = rootfind._horner(c, row, z), np.polyval(c[:, row], z)
        assert got.dtype == want.dtype and got.shape == want.shape == z.shape
        assert got.tobytes() == want.tobytes()

    def test_horner_holds_no_coefficient_block(self):
        # 3600 points at 61 coefficients: the (61, 3600) gather of their
        # columns would take 61 * z.nbytes; the loop holds a few arrays
        # the size of z
        rng = np.random.default_rng(60)
        c = rng.uniform(-1, 1, (61, 60)) + 1j * rng.uniform(-1, 1, (61, 60))
        row = np.repeat(np.arange(60), 60)
        z = rng.uniform(-1, 1, 3600) + 1j * rng.uniform(-1, 1, 3600)
        tracemalloc.start()
        try:
            rootfind._horner(c, row, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * z.nbytes

    def test_degree_60_batch_equals_single_calls(self):
        # 60 rows of degree 60, whose sweeps, polish and residual pass
        # evaluate 3600 roots at once: each row gets its bits alone
        rng = random.Random(60)
        ps = [Polynomial(random_unit_box(rng, 60)) for _ in range(60)]
        many = find_roots_many(ps)
        for m, p in zip(many, ps):
            one = alone(p)
            assert np.array(m.roots).tobytes() == np.array(one.roots).tobytes()
            assert np.array(m.residuals).tobytes() == np.array(one.residuals).tobytes()
            assert cluster_bytes(m.clusters) == cluster_bytes(one.clusters)

    def test_non_finite_companion_is_solved_on_circles(self):
        # -a_0/a_n overflows, so there is no finite companion matrix: the
        # row is solved again from Bini's circles, and certified there
        rs = find_roots(Polynomial([1e10, 0, 1e-300]))
        match_multisets(rs.roots, [1e155j, -1e155j], 1e-15 * 1e155)
        rs = find_roots(Polynomial([1e200, 0, 0, 1e-200]))
        r = 1e133 * 10 ** (1 / 3)
        match_multisets(rs.roots, [cmath.rect(r, math.pi * (2 * k + 1) / 3) for k in range(3)],
                        1e-15 * r)


def one_pass(p, other_start, tol=1e-12):
    """p's outcome from one pass, from the start the degree rule gives it
    or from the other start, with no fallback."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return rootfind._solve_pass([np.array(p.coeffs[::-1], dtype=complex)], tol,
                                    other_start)[0]


def eigvals_start(p):
    """p's outcome from one pass started from its companion eigenvalues
    (p has no zero at the origin)."""
    return one_pass(p, p.degree() > rootfind._EIGVALS_MAX_DEGREE)


def hard_rows(seed, count):
    """Rows of degree 16-60, above the eigenvalue start's cutoff: roots of
    log-uniform modulus 1e-3..1e3, coefficients scaled by 10**(-8..8),
    and multiple roots, in turn."""
    rng = random.Random(seed)
    ps = []
    for i in range(count):
        d = rng.randint(16, 60)
        if i % 3 == 0:
            ps.append(from_roots([10 ** rng.uniform(-3, 3) * cmath.exp(1j * rng.uniform(0, 7))
                                  for _ in range(d)]))
        elif i % 3 == 1:
            ps.append(Polynomial([complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                                  * 10 ** rng.uniform(-8, 8) for _ in range(d + 1)]))
        else:
            pts = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                   for _ in range(rng.randint(1, 5))]
            ps.append(from_roots([rng.choice(pts) for _ in range(d)]))
    return ps


class TestStart:
    def test_uncertified_circle_start_falls_back_to_eigenvalues(self):
        # coefficients of mismatched scales: the circle start leaves this
        # row uncertified, and the eigenvalue start certifies it
        rng = random.Random(46)
        p = Polynomial([complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                        * 10 ** rng.uniform(-8, 8) for _ in range(41)])
        circles = one_pass(p, False)
        assert p.degree() == 40 and isinstance(circles, NonConvergence)
        assert outcome(alone(p)) == outcome(eigvals_start(p))
        assert isinstance(alone(p), rootfind.RootSet)

    def test_no_row_above_the_cutoff_loses_its_certificate(self):
        ps = hard_rows(11, 60)
        solved = find_roots_many(ps)
        lost = [i for i, (p, s) in enumerate(zip(ps, solved))
                if isinstance(eigvals_start(p), rootfind.RootSet)
                and not isinstance(s, rootfind.RootSet)]
        assert lost == []
        # an uncertified row has the eigenvalue start's outcome
        for p, s in zip(ps, solved):
            if not isinstance(s, rootfind.RootSet):
                assert outcome(s) == outcome(eigvals_start(p))

    def test_rows_up_to_the_cutoff_start_from_eigenvalues(self):
        rng = random.Random(15)
        ps = [Polynomial(random_unit_box(rng, d)) for d in range(2, 16)]
        assert ([outcome(m) for m in find_roots_many(ps)]
                == [outcome(eigvals_start(p)) for p in ps])

    def test_overflowing_modulus_is_non_convergence(self):
        # |a_0| overflows a float: the circle start reads it as inf, and
        # the row ends uncertified without stopping the row beside it
        p = Polynomial([complex(1.5e308, 1.5e308)] + [0] * 15 + [1])
        bad, good = find_roots_many([p, from_roots([1, 2j, -3])])
        assert isinstance(bad, NonConvergence) and len(bad.roots) == 16
        assert isinstance(good, rootfind.RootSet)

    def test_circle_start_follows_the_newton_polygon(self):
        # 1 + 1e-10 z^10 + 1e-30 z^20: the hull's vertices are at k = 0, 10
        # and 20, so 10 points start on |z| = 10 and 10 on |z| = 100, the
        # moduli of its roots
        p = Polynomial([1] + [0] * 9 + [1e-10] + [0] * 9 + [1e-30])
        start = rootfind._circle_start(np.array(p.coeffs[::-1], dtype=complex))
        assert [abs(z) for z in start] == pytest.approx([10.0] * 10 + [100.0] * 10, rel=1e-12)
        assert cmath.phase(start[0]) == pytest.approx(rootfind._START_ROTATION)
        assert (sorted(abs(z) for z in find_roots(p).roots)
                == pytest.approx([10.0] * 10 + [100.0] * 10, rel=1e-9))


def aberth_reference(cs, tol, other_start):
    """rootfind._aberth as it was before converged roots left the active
    set: every active root got p', w and an Aberth sum, and a converged
    root's correction was then set to 0."""
    rows, deg = len(cs), [len(cr) - 1 for cr in cs]
    dmax = deg[-1]
    c = np.zeros((dmax + 1, rows), dtype=complex)
    for r, cr in enumerate(cs):
        c[dmax - deg[r]:, r] = cr
    ac, dc = np.abs(c), rootfind._polyder(c)
    x = np.full((rows, dmax), complex(np.nan, np.nan))
    flat = x.reshape(-1)
    bounds = [r for r in range(rows) if r == 0 or deg[r] != deg[r - 1]] + [rows]
    degs = [deg[r] for r in bounds[:-1]]
    for d, lo, hi in zip(degs, bounds[:-1], bounds[1:]):
        if (d <= rootfind._EIGVALS_MAX_DEGREE) != other_start:
            x[lo:hi, :d] = rootfind._companion_eigvals(c[dmax - d:, lo:hi])
        else:
            for r in range(lo, hi):
                x[r, :d] = rootfind._circle_start(cs[r])
    active = np.flatnonzero(np.arange(dmax) < np.array(deg)[:, None])
    row, col = np.divmod(active, dmax)
    rdeg = np.take(deg, row)
    for _ in range(rootfind.MAX_ITER):
        if not active.size:
            break
        xa = flat[active]
        p = np.polyval(c[:, row], xa)
        converged = np.abs(p) / np.polyval(ac[:, row], np.maximum(1.0, np.abs(xa))) <= tol
        dp = np.polyval(dc[:, row], xa)
        w = np.where(p == 0, 0.0, p / np.where(dp == 0, 1e-300, dp))
        s = np.empty_like(xa)
        cuts = [0, *np.searchsorted(rdeg, degs[1:]).tolist(), active.size]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            if lo < hi:
                diff = xa[lo:hi, None] - x[row[lo:hi], :rdeg[lo]]
                diff[np.arange(hi - lo), col[lo:hi]] = np.inf
                s[lo:hi] = np.sum(1.0 / diff, axis=1)
        delta = w / (1.0 - w * s)
        delta = np.where(np.isfinite(delta) & ~converged, delta, 0.0)
        flat[active] = xa = xa - delta
        moving = np.abs(delta) > tol * (1.0 + np.abs(xa))
        active, row, col, rdeg = active[moving], row[moving], col[moving], rdeg[moving]
    return x


class TestSweep:
    # only the roots that still move get a correction; the others' p', w
    # and Aberth sums were computed and thrown away, so the roots are the
    # same bits
    @pytest.mark.parametrize("other_start", [False, True])
    @pytest.mark.parametrize("tol", [1e-12, 1e-30])
    def test_equal_to_the_sweep_that_corrected_every_root(self, other_start, tol):
        rng = random.Random(21)
        ps = hard_rows(22, 30) + [Polynomial(random_unit_box(rng, d)) for d in range(2, 61, 3)]
        cs = sorted((np.array(p.coeffs[::-1], dtype=complex) for p in ps), key=len)
        cs = [cr for cr in cs if cr[-1] != 0]
        with np.errstate(all="ignore"):
            got = rootfind._aberth(cs, rootfind._framed(cs), tol, other_start)
            want = aberth_reference(cs, tol, other_start)
        assert got.tobytes() == want.tobytes()


def cluster_bytes(clusters):
    """The bits of (representative, multiplicity) pairs: a signed zero
    differs from an unsigned one."""
    return b"".join(struct.pack("<ddq", c.real, c.imag, m) for c, m in clusters)


def nearest_centres(clusters, centres):
    """Each cluster as (index of its nearest centre, multiplicity), sorted."""
    return sorted((min(range(len(centres)), key=lambda i: abs(rep - centres[i])), m)
                  for rep, m in clusters)


class TestClusters:
    # a root set's clusters are its runs of equal roots, which only the
    # collapse makes
    @staticmethod
    def signed_zero_parts(monkeypatch):
        """Set the parts within 1e-9 of zero of the polished roots to exact
        zeros of alternating sign."""
        polish = rootfind._newton_polish

        def polishing(c, row, z):
            out = polish(c, row, z).copy()
            sign = np.where(np.arange(out.size) % 2, -0.0, 0.0)
            out.real = np.where(np.abs(out.real) < 1e-9, sign, out.real)
            out.imag = np.where(np.abs(out.imag) < 1e-9, sign[::-1], out.imag)
            return out

        monkeypatch.setattr(rootfind, "_newton_polish", polishing)

    def test_representatives_clear_negative_zeros(self, monkeypatch):
        self.signed_zero_parts(monkeypatch)
        # roots on the axes (zero parts, tied real parts), conjugate pairs
        # and a zero at the origin
        ps = [Polynomial([1, 0, 1]), Polynomial([-1, 0, 0, 0, 1]), Polynomial([4, 0, 5, 0, 1]),
              Polynomial([0, -1, 0, 1]), Polynomial([2, 0, 1, 0, 1]),
              from_roots([1j, -1j, 2j, -2j, 3, -3, 0.5 + 1j, 0.5 - 1j, 0.5]),
              Polynomial([-1] + [0] * 19 + [1]), Polynomial([1, 1j]), Polynomial([-2j, 1])]
        signed = 0
        for rs in find_roots_many(ps):
            assert all(m == 1 for _, m in rs.clusters)
            roots = list(rs.roots)
            signed += sum(math.copysign(1.0, x) < 0 for z in roots for x in (z.real, z.imag)
                          if x == 0)
            assert (cluster_bytes(rs.clusters)
                    == cluster_bytes([(complex(z.real + 0.0, z.imag + 0.0), 1) for z in roots]))
        # the rows hold negative zeros, which a representative clears
        assert signed > 0

    def test_multiplicities_equal_the_construction(self):
        # 1-5 centres at least 0.5 apart in the box of half-width 2, each
        # of multiplicity 1-3
        rng = random.Random(22)
        table = []
        for _ in range(1000):
            centres = []
            for _ in range(rng.randint(1, 5)):
                c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                while any(abs(c - o) < 0.5 for o in centres):
                    c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                centres.append(c)
            table.append((centres, [rng.randint(1, 3) for _ in centres]))
        ps = [from_roots([c for c, m in zip(centres, mults) for _ in range(m)])
              for centres, mults in table]
        for rs, (centres, mults) in zip(find_roots_many(ps), table):
            assert nearest_centres(rs.clusters, centres) == list(enumerate(mults))

    # degree 17 with three quadruple roots, a triple and a double
    CENTRES = [-1.2 - 1.3j, -0.4 + 1.3j, -2.0 + 1.5j, -0.8 + 0.3j, -0.1 - 1.5j]
    MULTS = [4, 4, 4, 3, 2]

    def quadruples(self, scale):
        p = from_roots([c for c, m in zip(self.CENTRES, self.MULTS) for _ in range(m)])
        return Polynomial([c * scale for c in p.coeffs])

    def test_quadruple_roots_at_a_large_scale(self):
        # scaled by 1e300, p''' and the sweeps' scale sums overflow the row
        # as given; on its frame the row has the clusters it has at scale 1
        p = self.quadruples(1e300)
        assert 2.7e305 < max(map(abs, p.coeffs)) < 2.8e305
        found = nearest_centres(find_roots(p).clusters, self.CENTRES)
        assert found == nearest_centres(find_roots(self.quadruples(1)).clusters, self.CENTRES)
        assert [c for c in found if c[1] == 4] == [(0, 4), (1, 4), (2, 4)]

    @pytest.mark.xfail(strict=True, reason=(
        "the collapse rejects the group of the triple root at -0.8+0.3j beside three "
        "quadruples, so its roots stay apart at every scale (ROADMAP item 11: "
        "repeated-root rows left split)"))
    def test_triple_root_beside_quadruple_roots_is_collapsed(self):
        assert (nearest_centres(find_roots(self.quadruples(1e300)).clusters, self.CENTRES)
                == list(enumerate(self.MULTS)))

    @pytest.mark.parametrize("centres, mults", [
        ([0.5, 1j], [6, 6]),
        ([0.784 + 0.442j, -0.861 + 0.286j, 0.687 - 0.759j, 0.509 - 0.483j, -0.403 - 0.997j],
         [3, 4, 4, 4, 2]),
        ([0.704 - 0.051j, 0.547 - 0.348j, -0.453 - 0.422j, 0.001 + 0.347j, -0.309 + 0.875j],
         [4, 3, 2, 4, 3]),
    ])
    def test_high_multiplicities_are_linked(self, centres, mults):
        # at tol 1e-12 the approximations of a quadruple or sextuple root
        # lie up to about 1.5e-2 from their centre: a 1e-3 linkage left
        # them split, (z - 0.5)^6 (z - i)^6 as twelve singletons
        p = from_roots([c for c, m in zip(centres, mults) for _ in range(m)])
        assert nearest_centres(find_roots(p).clusters, centres) == list(enumerate(mults))

    @pytest.mark.parametrize("centres, mults", [
        ([1, 1.012], [3, 1]),
        ([1, 1.012], [2, 1]),
        ([-0.7 + 1.2j, -0.7 + 1.215j], [4, 1]),
        ([0.3 - 0.4j, 0.315 - 0.4j], [3, 1]),
        ([0.5, 0.514, 0.528], [2, 1, 1]),
    ])
    def test_multiple_root_beside_simple_roots(self, centres, mults):
        # the linkage joins simple roots 1.2e-2 to 1.5e-2 away to the
        # multiple root's group, which fails as a whole; the collapse
        # drops the member farthest from its refined point until the rest
        # is certified
        p = from_roots([c for c, m in zip(centres, mults) for _ in range(m)])
        assert nearest_centres(find_roots(p).clusters, centres) == list(enumerate(mults))

    def test_close_simple_roots_stay_apart(self):
        # the product over 60 points of |z - 0.5| = 0.05 rounds to a
        # polynomial whose certified roots are simple, some 8.6e-3 apart:
        # linked, but the spread cap keeps them apart (without it, five
        # merge)
        circle = [0.5 + cmath.rect(0.05, 2 * math.pi * k / 60) for k in range(60)]
        assert [m for _, m in find_roots(from_roots(circle)).clusters] == [1] * 60

    @pytest.mark.parametrize("start, count, bound", [
        (1, 5, 1e-7), (1, 6, 1e-6), (-1.5 + 1j, 7, 1e-3)])
    def test_chains_of_simple_roots_stay_apart(self, start, count, bound):
        # simple roots 0.015 apart chain at radius 1e-2 into one group
        # whose spread passes the cap, and whose mean (a root at odd
        # count) certifies p: only the order-m certificate keeps them and
        # each smaller group the collapse tries apart. Each chain's roots
        # round-trip as well as its conditioning allows
        pts = [start + 0.015 * k for k in range(count)]
        rs = find_roots(from_roots(pts))
        assert [m for _, m in rs.clusters] == [1] * count
        found = list(rs.roots)
        for w in pts:
            best = min(found, key=lambda r: abs(r - w))
            assert abs(best - w) <= bound
            found.remove(best)

    def test_overflowing_scale_does_not_certify(self):
        # 8.6e306 (1 + z + ... + z^20): its roots are the 21st roots of
        # unity other than 1. Its scale sum |a_k| max(1, |z|)**k overflows
        # as given, where |p(z)| / inf read 0, but not on its frame
        true = [cmath.rect(1, 2 * math.pi * k / 21) for k in range(1, 21)]
        try:
            rs = find_roots(Polynomial([8.6e306] * 21))
        except NonConvergence:
            return
        assert all(min(abs(r - w) for w in true) <= 1e-6 for r in rs.roots)


class TestDrive:
    @staticmethod
    def core(p, q):
        a = yield p
        b = yield q
        return len(a.roots) + len(b.roots)

    def test_sends_root_sets(self):
        assert drive(self.core(Polynomial([-1, 0, 1]), Polynomial([0, 0, 0, 1]))) == 5

    def test_error_thrown_in_at_the_yield(self):
        seen = []

        def core():
            try:
                yield Polynomial([1])
            except InvalidDegree:
                seen.append("thrown")
                raise

        with pytest.raises(InvalidDegree):
            drive(core())
        assert seen == ["thrown"]

    def test_solves_at_its_tol_and_raises_the_core_error(self, monkeypatch):
        tols = []
        solve = rootfind._solve
        monkeypatch.setattr(rootfind, "_solve",
                            lambda cs, tol: tols.append(tol) or solve(cs, tol))
        mine = HypothesisViolated("the core's own")

        def core():
            yield Polynomial([-1, 0, 1])
            raise mine

        with pytest.raises(HypothesisViolated) as exc:
            drive(core(), 1e-10)
        assert exc.value is mine
        assert drive(self.core(Polynomial([-1, 0, 1]), Polynomial([1, 1]))) == 3
        assert tols == [1e-10, rootfind.DEFAULT_TOL, rootfind.DEFAULT_TOL]
        with pytest.raises(InvalidInput, match="got 0"):
            drive(core(), 0)

    def test_each_thrown_error_has_its_own_traceback(self):
        # the cores that ask for the same polynomial are each thrown their
        # own copy of its one error, whose traceback holds only their frames
        def core(p):
            yield p

        one, = drive_many([core(Polynomial([1]))])
        many = drive_many([core(Polynomial([1])) for _ in range(5)])
        depth = len(traceback.extract_tb(one.__traceback__))
        assert len({id(e) for e in many}) == 5
        assert all(type(e) is InvalidDegree and str(e) == str(one) for e in many)
        assert [len(traceback.extract_tb(e.__traceback__)) for e in many] == [depth] * 5
        # a copy carries the best-effort roots and residuals
        bad = Polynomial([1e6] * 60 + [1])
        a, b = drive_many([core(bad), core(bad)])
        assert isinstance(a, NonConvergence) and a is not b
        assert (a.roots, a.residuals, a.report) == (b.roots, b.residuals, b.report)
        assert len(a.roots) == 60

    def test_a_round_solves_only_what_the_call_has_not(self, monkeypatch):
        # once both cores' p1 is found, A's second p1 is answered from the
        # call's table in the round that solves B's p3 alone, and A's p2
        # is solved in the round after
        p1, p2, p3 = from_roots([1, 2]), from_roots([3j, -1, 2]), Polynomial([1, 1, 1])
        batches = []
        solve = rootfind._solve

        def solving(cs, tol):
            batches.append(sorted(c.tobytes() for c in cs))
            return solve(cs, tol)

        def a():
            yield p1
            return (yield from self.core(p1, p2))

        monkeypatch.setattr(rootfind, "_solve", solving)
        out = drive_many([a(), self.core(p1, p3)])
        assert out == [5, 4]
        rows = lambda *ps: sorted(np.array(p.coeffs[::-1], dtype=complex).tobytes() for p in ps)
        assert batches == [rows(p1), rows(p3), rows(p2)]

    def test_a_list_is_sent_every_outcome(self):
        def core():
            return (yield [Polynomial([-1, 0, 1]), Polynomial([1])])

        roots, err = drive(core())
        assert len(roots.roots) == 2 and isinstance(err, InvalidDegree)

    def test_products_are_built_before_roots_are_found(self, monkeypatch):
        # one round builds both cores' products in one call, the next
        # finds both their roots in one solve
        events = []
        products, solve = poly._products, rootfind._solve
        monkeypatch.setattr(poly, "_products",
                            lambda sets: events.append(("build", len(sets))) or products(sets))
        monkeypatch.setattr(rootfind, "_solve",
                            lambda cs, tol: events.append(("solve", len(cs))) or solve(cs, tol))

        def core(pts):
            return len((yield Polynomial((yield Product(pts)))).roots)

        assert drive_many([core([1, 2j]), core([3, -1, 0.5j])]) == [2, 3]
        assert events == [("build", 2), ("solve", 2)]
        events.clear()
        assert drive(core([1, 2j])) == 2
        assert events == [("build", 1), ("solve", 1)]

    def test_nothing_is_kept_across_calls(self, monkeypatch):
        # a second drive_many call builds the same points and solves the
        # same polynomial again
        events = []
        products, solve = poly._products, rootfind._solve
        monkeypatch.setattr(poly, "_products",
                            lambda sets: events.append("product") or products(sets))
        monkeypatch.setattr(rootfind, "_solve",
                            lambda cs, tol: events.append("solve") or solve(cs, tol))

        def core():
            return (yield Polynomial((yield Product([1, 2j, -3]))))

        first, = drive_many([core()])
        second, = drive_many([core()])
        assert events == ["product", "solve"] * 2
        assert second == first and second is not first

    def test_lockstep_keeps_order_and_errors(self):
        cores = [self.core(Polynomial([-1, 0, 1]), Polynomial([1, 1])),
                 self.core(Polynomial([1]), Polynomial([1, 1])),
                 self.core(Polynomial([1, 1]), Polynomial([2, 0, 0, 1]))]
        out = drive_many(cores)
        assert out[0] == 3 and out[2] == 4
        assert isinstance(out[1], InvalidDegree)
