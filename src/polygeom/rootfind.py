"""All-roots solver: Aberth-Ehrlich sweeps from companion eigenvalues or
Newton-polygon circles, for a batch of polynomials in one pass.

Every row takes one path. Its exact zeros at the origin come off, and
the start depends on the degree d left, d >= 1. Up to _EIGVALS_MAX_DEGREE
(15) it is the eigenvalues of the companion matrix that ``np.roots``
builds (backward stable by Edelman & Murakami 1995), one stacked
``eigvals`` call per degree. Above it, the O(d^3) eigenvalues give way to
Bini's (1996) start: circles whose radii come from the upper convex hull
of (k, log|a_k|), built per row with scalar math. Aberth-Ehrlich sweeps
run over the roots that are still active, across every polynomial of the
batch; a root freezes once its step is negligible or its scaled residual
is within tol (Bini 1996), and a sweep computes p', the Newton quotient
and the Aberth sum only for the roots whose residual is not. Every
approximate root gets one vectorized Newton polish. Near-coincident
approximations of a multiple root are collapsed onto one refined point,
kept only when its scaled residual is within tol; this is the one place
that decides multiplicity, as a root set's clusters are its runs of equal
roots. The exact zeros at the origin are written after the collapse, and
one stable sort orders every row.

One certificate decides every row: the scaled residual of each root
under the original polynomial is within tol; a NaN or inf residual
fails. A row that its start leaves uncertified (a companion matrix that
is not finite, say) is solved once more, in the same call, from the
other start, eigenvalues for circles or circles for eigenvalues, and
that second outcome is the row's.

A batch of many degrees is one pass, not one pass per degree: each row's
coefficients are padded with leading zeros to the batch's largest degree,
which Horner's rule passes through unchanged, and each row's roots are
followed by NaN pads, which no test counts. Every operation is
elementwise or per row, and each sum over a row's roots has that row's
own length, so a polynomial gets the same bits in any batch as alone.
What a pass holds does not grow with the batch: the linkage runs over
blocks of rows whose (rows, n, n) adjacency keeps near 1 MB, and
``_horner``, through which every evaluation over the batch runs (p, p',
and the scale of each residual), gathers one coefficient row at its
points' columns per Horner step, so that it holds only arrays the size
of its points.

Checks and campaign generators that need roots or products are written
as generators (cores): a core yields a Polynomial and is sent its
RootSet, or has the root finder's error thrown in at the yield; it may
yield a list of Polynomials and be sent each one's outcome; and it may
yield a ``Product`` of points and be sent the ascending coefficients of
prod (z - w), built by ``poly._products``. ``drive_many`` runs many
cores in lockstep: each round either builds the products its cores asked
for, in one ``poly._products`` pass, or finds the roots they asked for,
in one ``_solve`` call. ``drive(core, tol)`` runs one core and raises its
error; ``find_roots`` is ``drive`` over a core that asks for one
polynomial, and ``find_roots_many`` over one that asks for the whole
list, so every root find takes this path. A ``drive_many`` call (a
campaign chunk, or one check) builds each product once and solves each
polynomial once, and keeps every outcome, an error too, until it
returns.
"""

from __future__ import annotations

import cmath
import copy
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import poly
from .errors import InvalidDegree, InvalidInput, NonConvergence, PolygeomError
from .poly import Polynomial

DEFAULT_TOL = 1e-12
# Aberth sweeps before a root set is certified or given up
MAX_ITER = 200

# rows of at most this degree, once their zeros at the origin come off,
# start from companion eigenvalues, and the others on Bini's circles: the
# eigenvalues cost O(d^3) per row, while from the circles about 15 sweeps
# run, whose fixed cost only a batch spreads
_EIGVALS_MAX_DEGREE = 15
# the angle by which Bini's start circles are turned (Bini 1996)
_START_ROTATION = 0.7

# single-linkage radius of a candidate multiple-root group: at tol 1e-12
# a quadruple root's approximations lie up to 1.5e-2 from it; simple roots
# this close are linked too, and the collapse's certificate keeps them apart
_GROUP_RADIUS = 1e-2
# entries of the (rows, n, n) adjacency that one block of the linkage
# holds, whose complex differences then take about 1 MB
_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class RootSet:
    roots: tuple[complex, ...]
    residuals: tuple[float, ...]

    @property
    def clusters(self) -> tuple[tuple[complex, int], ...]:
        """Each run of equal roots as (root, length), in the sorted order
        of the roots: the collapse gives every root of a multiple group
        the same value. A representative's negative zeros are cleared."""
        return tuple((complex(z.real + 0.0, z.imag + 0.0), len(list(run)))
                     for z, run in itertools.groupby(self.roots))


def _valid_tol(tol) -> bool:
    """A root tolerance is a finite positive number."""
    return isinstance(tol, numbers.Real) and not isinstance(tol, bool) and 0 < tol < math.inf


def cauchy_bound(p: Polynomial) -> float:
    """1 + max |a_k/a_n|; every root has modulus below this."""
    n = p.degree()
    if n < 1:
        raise InvalidDegree("cauchy_bound needs degree >= 1")
    an = abs(p.coeffs[n])
    return 1.0 + max((abs(c) for c in p.coeffs[:n]), default=0.0) / an


# Coefficient arrays are descending along their first axis: c[k] holds
# the k-th coefficient of every polynomial, shaped like the points
# np.polyval evaluates it at (or a scalar, for one polynomial).


def _polyder(c: np.ndarray) -> np.ndarray:
    return c[:-1] * np.arange(len(c) - 1, 0, -1).reshape((-1,) + (1,) * (c.ndim - 1))


def _horner(c: np.ndarray, row: np.ndarray, z: np.ndarray) -> np.ndarray:
    """np.polyval(c[:, row], z) in the same steps, each gathering one
    coefficient row at the points' columns: the only gather of
    coefficients, and it holds no more than the points."""
    y = np.zeros_like(z)
    for ck in c:
        y = y * z + ck[row]
    return y


def _evaluate(c: np.ndarray, ac: np.ndarray, row: np.ndarray,
              z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p(z) and the scaled residuals |p(z)| / sum_k |a_k| max(1, |z|)**k
    of the points z[i] under the polynomial in column row[i] of c, whose
    coefficients have the moduli ac; the denominator is ac evaluated at
    max(1, |z|). NaN or inf where the evaluation overflows; neither passes
    a ``<= tol`` test."""
    pz = _horner(c, row, z)
    return pz, np.abs(pz) / _horner(ac, row, np.maximum(1.0, np.abs(z)))


def _companion_eigvals(c: np.ndarray) -> np.ndarray:
    """For each column of coefficients, the eigenvalues of the companion
    matrix np.roots builds (one row each); NaN where that matrix is not
    finite."""
    d, rows = len(c) - 1, c.shape[1]
    a = np.zeros((rows, d, d), dtype=complex)
    a[:, 0, :] = (-c[1:] / c[0]).T
    a[:, np.arange(1, d), np.arange(d - 1)] = 1.0
    bad = ~np.isfinite(a[:, 0, :]).all(axis=1)
    a[bad, 0, :] = 0.0
    x = np.linalg.eigvals(a)
    x[bad] = np.nan
    return x


def _circle_start(cr: np.ndarray) -> list[complex]:
    """Bini's (1996) start for the polynomial with coefficients cr, in
    descending order (no zero root): each edge of the upper convex hull of
    the points (k, log|a_k|), from k to k + m, puts m points on the circle
    of radius (|a_k| / |a_{k+m}|)**(1/m), edge i of a degree-d polynomial
    at the angles 2*pi*(j/m + i/d) + _START_ROTATION.

    Only scalar math on the row's own coefficients, so that a row gets the
    same start in any batch. A modulus that overflows reads inf, and such
    a row's sweeps give no certificate.
    """
    d = len(cr) - 1
    hull: list[tuple[int, float]] = []
    for k, a in enumerate(np.abs(cr[::-1]).tolist()):
        if a == 0:
            continue
        y = math.log(a)
        # drop the last vertex while it lies on or below the chord to (k, y)
        while len(hull) >= 2 and ((hull[-1][0] - hull[-2][0]) * (y - hull[-2][1])
                                  >= (hull[-1][1] - hull[-2][1]) * (k - hull[-2][0])):
            hull.pop()
        hull.append((k, y))
    start = []
    for i, ((k0, y0), (k1, y1)) in enumerate(zip(hull, hull[1:])):
        m = k1 - k0
        # the cap keeps exp finite; such a row's sweeps give no certificate
        u = math.exp(min((y0 - y1) / m, 709.0))
        start += [cmath.rect(u, 2 * math.pi * (j / m + i / d) + _START_ROTATION)
                  for j in range(m)]
    return start


def _aberth(cs: list[np.ndarray], tol: float, other_start: bool) -> np.ndarray:
    """Roots of the polynomials whose coefficients, in descending order,
    are cs (degree >= 1, no zero root, sorted by degree): row r holds the
    roots of cs[r], then NaN pads.

    Rows of degree at most _EIGVALS_MAX_DEGREE start from the eigenvalues
    of their companion matrices, one stacked call per degree, and the
    others on _circle_start's circles; with other_start, each row takes
    the start that this rule does not give it. The coefficients are
    padded with leading zeros to the largest degree. The active roots of all polynomials form
    one flat set, ordered by degree; each sweep gathers their
    coefficients, drops the roots whose scaled residual is within tol,
    and sums 1/(x_i - x_j) for the others over the roots of each degree's
    rows, so that every sum has its row's own length.
    """
    rows, deg = len(cs), [len(cr) - 1 for cr in cs]
    dmax = deg[-1]
    c = np.zeros((dmax + 1, rows), dtype=complex)
    for r, cr in enumerate(cs):
        c[dmax - deg[r]:, r] = cr
    ac, dc = np.abs(c), _polyder(c)
    x = np.full((rows, dmax), complex(np.nan, np.nan))
    flat = x.reshape(-1)
    # each degree's rows are one run
    bounds = [r for r in range(rows) if r == 0 or deg[r] != deg[r - 1]] + [rows]
    degs = [deg[r] for r in bounds[:-1]]
    for d, lo, hi in zip(degs, bounds[:-1], bounds[1:]):
        if (d <= _EIGVALS_MAX_DEGREE) != other_start:
            x[lo:hi, :d] = _companion_eigvals(c[dmax - d:, lo:hi])
        else:
            for r in range(lo, hi):
                x[r, :d] = _circle_start(cs[r])
    # the active roots: flat index, and its polynomial, position and degree
    active = np.flatnonzero(np.arange(dmax) < np.array(deg)[:, None])
    row, col = np.divmod(active, dmax)
    rdeg = np.take(deg, row)
    for _ in range(MAX_ITER):
        xa = flat[active]
        p, res = _evaluate(c, ac, row, xa)
        # a converged root stays where it is, and the sums of the others
        # read it from x: only the roots that still move get a correction
        unconverged = ~(res <= tol)
        active, row, col, rdeg, xa, p = (v[unconverged] for v in (active, row, col, rdeg, xa, p))
        if not active.size:
            break
        dp = _horner(dc, row, xa)
        w = np.where(p == 0, 0.0, p / np.where(dp == 0, 1e-300, dp))
        # each degree's roots are one run of the active set
        s = np.empty_like(xa)
        cuts = [0, *np.searchsorted(rdeg, degs[1:]).tolist(), active.size]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            if lo < hi:
                diff = xa[lo:hi, None] - x[row[lo:hi], :rdeg[lo]]
                diff[np.arange(hi - lo), col[lo:hi]] = np.inf
                s[lo:hi] = np.sum(1.0 / diff, axis=1)
        delta = w / (1.0 - w * s)
        delta = np.where(np.isfinite(delta), delta, 0.0)
        flat[active] = xa = xa - delta
        moving = np.abs(delta) > tol * (1.0 + np.abs(xa))
        active, row, col, rdeg = active[moving], row[moving], col[moving], rdeg[moving]
    return x


def _newton_polish(c: np.ndarray, row: np.ndarray, z: np.ndarray) -> np.ndarray:
    """One Newton step per root z[i] of the polynomial with coefficients
    c[:, row[i]], kept only where |p| does not grow."""
    dv = _horner(_polyder(c), row, z)
    pv = _horner(c, row, z)
    cand = z - pv / np.where(dv == 0, 1.0, dv)
    better = np.abs(_horner(c, row, cand)) <= np.abs(pv)
    return np.where((dv != 0) & np.isfinite(cand) & better, cand, z)


def _linkage(z: np.ndarray, d) -> tuple[np.ndarray, np.ndarray]:
    """The rows of the block z that may hold a multiple root, and their
    labels. z_i and z_j are linked when |z_i - z_j| <= _GROUP_RADIUS *
    (1 + max(|z_i|, |z_j|)); row r is flagged unless its only links are
    its d[r] approximations' links to themselves (a non-finite value has
    none). A label is the smallest index a chain of links reaches."""
    radius = _GROUP_RADIUS * (1.0 + np.abs(z))
    adj = (np.abs(z[:, :, None] - z[:, None, :])
           <= np.maximum(radius[:, :, None], radius[:, None, :]))
    flagged = np.flatnonzero(adj.sum(axis=(1, 2)) != d)
    adj = adj[flagged]
    # each value takes the smallest label among itself and its neighbours
    # until the labels settle
    label = np.broadcast_to(np.arange(z.shape[1]), adj.shape[:2])
    while True:
        nxt = np.minimum(label, np.min(np.where(adj, label[:, None, :], z.shape[1]), axis=2))
        if np.array_equal(nxt, label):
            return flagged, label
        label = nxt


def _collapse_multiple(rc: np.ndarray, roots: list[complex], label: np.ndarray,
                       tol: float) -> list[complex]:
    """Snap groups of approximations of one multiple root onto a single point.

    The roots of one label are a group. A size-m group is refined by
    Newton on the (m-1)-th derivative, and collapsed only when the refined
    point is a residual-certified zero of p, ..., p^(m-1) (simple roots s
    apart leave p^(m-2) a residual of order s**2) and the group's spread
    is consistent with an order-m zero at working precision. rc holds p's
    coefficients in descending order; both run on them times 2**-e, 2**e
    above their largest modulus (e >= -1023, so that 2**-e is finite):
    every step keeps its bits, and a derivative overflows only where
    math.perm does, which leaves the group as it is.
    """
    e = max(int(np.frexp(np.max(np.abs(rc)))[1]), -1023)
    rs = rc * 2.0 ** -e
    p = Polynomial(rs[::-1].tolist())
    out = list(roots)
    for k in np.unique(label):
        g = np.flatnonzero(label == k).tolist()
        while len(g) > 1:
            m = len(g)
            try:
                q = p.derivative(m - 1)
                dq = q.derivative()
            except InvalidInput:
                break
            z = sum(roots[i] for i in g) / m
            for _ in range(30):
                dv = dq(z)
                step = q(z) / dv if dv else 0
                z -= step
                if abs(step) <= 1e-16 * (1.0 + abs(z)):
                    break
            dist = [abs(roots[i] - z) for i in g]
            # column j holds p^(j), led by zeros; a NaN z fails
            ders, col = np.zeros((len(rs), m), dtype=complex), rs
            for j in range(m):
                ders[j:, j], col = col, _polyder(col)
            res = _evaluate(ders, np.abs(ders), np.arange(m), np.full(m, z))[1]
            if max(dist) <= 10.0 * (1.0 + abs(z)) * (1e-13) ** (1.0 / m) and np.all(res <= tol):
                for i in g:
                    out[i] = z
                break
            # the member farthest from z may be a simple root: try the rest
            g.pop(dist.index(max(dist)))
    return out


def _solve(cs: list[np.ndarray], tol: float) -> list[RootSet | NonConvergence]:
    """Root sets of the polynomials whose coefficients, in descending
    order, are cs (degree >= 1).

    A row that its start leaves uncertified is solved once more from the
    other start, and that second outcome is the row's.
    """
    out = _solve_pass(cs, tol, False)
    redo = [r for r, res in enumerate(out) if isinstance(res, NonConvergence)]
    if redo:
        for r, res in zip(redo, _solve_pass([cs[r] for r in redo], tol, True)):
            out[r] = res
    return out


def _solve_pass(cs: list[np.ndarray], tol: float,
                other_start: bool) -> list[RootSet | NonConvergence]:
    """_solve in one padded pass, each row started as _aberth starts it
    at other_start, with no retry.

    Each row's coefficients get leading zeros up to the largest degree;
    Horner's rule passes them through bit for bit (0*z + 0 = 0 for finite
    z). Each row's roots get NaN pads, which no test counts: a NaN is
    linked to nothing and sorts last. A row's exact zeros at the origin
    are NaN, and so out of the polish, linkage and collapse, until written
    as 0.0 after the collapse.
    """
    rows = len(cs)
    n = [len(c) - 1 for c in cs]
    # each row's degree once its exact zeros at the origin come off
    d = [int(np.flatnonzero(cr)[-1]) for cr in cs]
    nmax = max(n)
    c = np.zeros((nmax + 1, rows), dtype=complex)
    z = np.full((rows, nmax), complex(np.nan, np.nan))
    for r, cr in enumerate(cs):
        c[nmax - n[r]:, r] = cr
    # the rows left with degree >= 1, as (degree, row)
    big = sorted((d[r], r) for r in range(rows) if d[r])
    if big:
        xs = _aberth([cs[r][:dr + 1] for dr, r in big], tol, other_start)
        for (dr, r), xr in zip(big, xs):
            z[r, n[r] - dr:n[r]] = xr[:dr]

    # each row's own places, and those of its zeros at the origin
    col = np.arange(nmax)
    own = col < np.array(n)[:, None]
    origin = col < np.subtract(n, d)[:, None]
    approx = own & ~origin
    z[approx] = _newton_polish(c, np.repeat(np.arange(rows), d), z[approx])

    # rows with a candidate multiple-root group, or a non-finite value, go
    # through the collapse
    block = max(1, _BLOCK_ENTRIES // (nmax * nmax))
    for lo in range(0, rows, block):
        flagged, labels = _linkage(z[lo:lo + block], d[lo:lo + block])
        for r, label in zip((flagged + lo).tolist(), labels):
            own_r = slice(n[r] - d[r], n[r])
            z[r, own_r] = _collapse_multiple(cs[r], z[r, own_r].tolist(), label[own_r], tol)
    z[origin] = 0.0
    # every row by (real, imag), stably; the NaN pads sort last
    z = np.sort(z, axis=-1, kind="stable")

    flat = z[own]
    residuals = _evaluate(c, np.abs(c), np.repeat(np.arange(rows), n), flat)[1]
    ends = list(itertools.accumulate(n))
    certified = np.logical_and.reduceat(residuals <= tol, [0, *ends[:-1]])
    all_roots, all_res = flat.tolist(), residuals.tolist()
    out: list[RootSet | NonConvergence] = []
    for ok, lo, hi in zip(certified, [0, *ends], ends):
        roots, res = all_roots[lo:hi], all_res[lo:hi]
        out.append(RootSet(tuple(roots), tuple(res)) if ok else NonConvergence(
            f"residuals above tol={tol} after {MAX_ITER} iterations", roots=roots, residuals=res))
    return out


def _coeff_row(p: Polynomial) -> np.ndarray:
    """p's coefficients in descending order; their bytes key its outcome
    in drive_many."""
    return np.array(p.coeffs[::-1], dtype=complex)


def _asking(p: Polynomial | list[Polynomial]):
    """A core that asks once, for p's roots or for each outcome of a list,
    and returns what it is sent."""
    return (yield p)


def find_roots_many(
    polys: list[Polynomial], tol: float = DEFAULT_TOL
) -> list[RootSet | PolygeomError]:
    """find_roots of every polynomial: its RootSet, or the error
    find_roots would raise for it. drive over one core that asks for the
    whole list, so the rows are solved in one _solve pass, and each gets
    the same bits as it would alone."""
    return drive(_asking(list(polys)), tol)


def find_roots(p: Polynomial, tol: float = DEFAULT_TOL) -> RootSet:
    """All complex zeros with residuals and multiplicity clusters.

    Raises NonConvergence (carrying best-effort roots) when any scaled
    residual exceeds tol, or is NaN, after MAX_ITER sweeps and polishing;
    InvalidInput when tol is not finite and positive.
    """
    return drive(_asking(p), tol)


class Product(NamedTuple):
    """A core's request for the ascending coefficients of prod (z - w)
    over its points."""

    points: Sequence[complex]


def drive_many(cores: list, tol: float = DEFAULT_TOL) -> list:
    """Run root-requesting generators in lockstep.

    A core yields a Polynomial and is sent its RootSet, or has its own
    copy of the error find_roots would raise thrown in at the yield; or it
    yields a list of Polynomials and is sent the outcome of each, a
    RootSet or that error; or it yields a Product and is sent the
    coefficients of prod (z - w) over its points (they may not be
    finite), or has the InvalidInput thrown in that from_roots raises for
    the points. A round answers every pending Product, while there are
    any, with one poly._products pass over the point sets not built
    before; otherwise it answers every pending root request, with one
    _solve over the polynomials not solved before. A polynomial is keyed
    by its coefficient bytes when it is asked for, and a point set by its
    bytes (a signed zero is another point); each outcome, a product, a
    RootSet or an error, is kept in the call's table until it returns.
    Returns what each core returned, or the PolygeomError it raised.
    """
    out: list = [None] * len(cores)
    valid_tol = _valid_tol(tol)
    # every outcome of the call, by the request's type and bytes
    table: dict[tuple[type, bytes], list[complex] | RootSet | PolygeomError] = {}
    # the coefficient rows asked for and not yet solved, by key
    unsolved: dict[tuple[type, bytes], np.ndarray] = {}
    # what each waiting core asked for: a Product, or the keys of its
    # polynomials and whether they came as a list
    pending: dict[int, Product | tuple[list, bool]] = {}

    def key(p: Polynomial) -> tuple[type, bytes]:
        row = _coeff_row(p)
        k = (Polynomial, row.tobytes())
        if k not in table:
            if p.degree() < 1:
                table[k] = InvalidDegree("find_roots needs degree >= 1")
            elif not valid_tol:
                table[k] = InvalidInput(f"tol must be finite and > 0, got {tol!r}")
            else:
                unsolved[k] = row
        return k

    def advance(i, step, arg):
        try:
            req = step(arg)
        except StopIteration as stop:
            out[i] = stop.value
        except PolygeomError as e:
            out[i] = e
        else:
            many = isinstance(req, list)
            pending[i] = (req if isinstance(req, Product)
                          else ([key(p) for p in (req if many else [req])], many))

    for i, core in enumerate(cores):
        advance(i, core.send, None)
    while pending:
        asked = {i: req for i, req in pending.items() if isinstance(req, Product)}
        if asked:
            keys, sets = {}, {}
            for i, req in asked.items():
                del pending[i]
                try:
                    pts = poly._root_points(req.points)
                except InvalidInput as e:
                    advance(i, cores[i].throw, e)
                    continue
                keys[i] = k = (Product, np.array(pts, dtype=complex).tobytes())
                if k not in table:
                    sets[k] = pts
            if sets:
                table.update((k, c[:len(pts) + 1].tolist()) for (k, pts), c
                             in zip(sets.items(), poly._products(list(sets.values()))))
            for i, k in keys.items():
                advance(i, cores[i].send, table[k])
            continue
        if unsolved:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                table.update(zip(unsolved, _solve(list(unsolved.values()), tol)))
            unsolved.clear()
        for i, (keys, many) in list(pending.items()):
            del pending[i]
            res = [table[k] for k in keys]
            if many:
                advance(i, cores[i].send, res)
            elif isinstance(res[0], PolygeomError):
                # a copy, so that the throw adds only this core's frames
                # to its traceback
                advance(i, cores[i].throw, copy.copy(res[0]))
            else:
                advance(i, cores[i].send, res[0])
    return out


def drive(core, tol: float = DEFAULT_TOL):
    """Run one root-requesting generator to completion at tol (see
    drive_many); return what it returns, or raise what it raises."""
    out, = drive_many([core], tol)
    if isinstance(out, PolygeomError):
        raise out
    return out
