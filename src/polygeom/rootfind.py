"""All-roots solver: Aberth-Ehrlich sweeps from companion eigenvalues or
Newton-polygon circles, for a batch of polynomials in one pass.

The start depends on a row's degree once its zeros at the origin come
off. Up to _EIGVALS_MAX_DEGREE (15) it is the eigenvalues of the companion
matrix that ``np.roots`` builds (backward stable by Edelman & Murakami
1995), one stacked ``eigvals`` call per degree. Above it, the O(d^3)
eigenvalues give way to Bini's (1996) start: circles whose radii come
from the upper convex hull of (k, log|a_k|), built per row with scalar
math. A row above the cutoff that this start leaves uncertified is solved
once more from its companion eigenvalues, in the same call, and gets that
outcome. Aberth-Ehrlich sweeps run over the roots that are still active,
across every polynomial of the batch; a root freezes once its step is
negligible or its scaled residual is within tol (Bini 1996), and a sweep
computes p', the Newton quotient and the Aberth sum only for the roots
whose residual is not. Every root gets one vectorized Newton polish, and
near-coincident approximations of a multiple root are collapsed onto a
refined representative before multiplicity clustering; a row of
singletons gets its clusters in bulk. A root set is
certified only when the scaled residual of every root under the original
polynomial is within tol; a NaN or inf residual fails.

A batch of many degrees is one pass, not one pass per degree: each row's
coefficients are padded with leading zeros to the batch's largest degree,
which ``np.polyval`` passes through unchanged, and each row's roots are
followed by NaN pads, which no test counts. Every operation is
elementwise or per row, and each sum over a row's roots has that row's
own length, so a polynomial gets the same bits in any batch as alone.
What a pass holds does not grow with the batch: the singleton test runs
over blocks of rows whose (rows, n, n) adjacency keeps near 1 MB, and
``_horner``, through which every evaluation over the batch runs (p, p',
and the scale of each residual), gathers the coefficient columns of its
points in blocks of as many entries.

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

# single-linkage threshold for detecting a candidate multiple-root group,
# well below the 1e-2 separation the round-trip contract assumes
_GROUP_RADIUS = 1e-3
# single-linkage threshold for the multiplicity clusters of a root set
_CLUSTER_RADIUS = 1e-6
# entries that one block of a pass holds: of the (rows, n, n) adjacency
# of the singleton test, whose complex differences then take about 1 MB,
# and of the coefficient columns a Horner evaluation gathers, one per root
_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class RootSet:
    roots: tuple[complex, ...]
    residuals: tuple[float, ...]
    clusters: tuple[tuple[complex, int], ...]


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
    """np.polyval(c[:, row], z): the only gather of coefficient columns,
    one column per point, made in blocks of points whose columns hold at
    most _BLOCK_ENTRIES entries (at least one point each), so that what an
    evaluation gathers does not grow with the batch. The same bits as one
    gather, as every step of the evaluation is elementwise."""
    out = np.empty_like(z)
    step = max(1, _BLOCK_ENTRIES // len(c))
    for lo in range(0, z.size, step):
        b = slice(lo, lo + step)
        out[b] = np.polyval(c[:, row[b]], z[b])
    return out


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
    same start in any batch.
    """
    d = len(cr) - 1
    hull: list[tuple[int, float]] = []
    for k, a in enumerate(reversed(cr.tolist())):
        if a == 0:
            continue
        y = math.log(abs(a))
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


def _aberth(cs: list[np.ndarray], tol: float, eigvals_max: float) -> np.ndarray:
    """Roots of the polynomials whose coefficients, in descending order,
    are cs (degree >= 2, no zero root, sorted by degree): row r holds the
    roots of cs[r], then NaN pads.

    Rows of degree at most eigvals_max start from the eigenvalues of their
    companion matrices, one stacked call per degree; the others start on
    _circle_start's circles. The coefficients are padded with leading
    zeros to the largest degree. The active roots of all polynomials form
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
        if d <= eigvals_max:
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


def _adjacency(z: np.ndarray, scale: float) -> np.ndarray:
    """|z_i - z_j| <= scale * (1 + max(|z_i|, |z_j|)) over the last axis."""
    radius = scale * (1.0 + np.abs(z))
    return (np.abs(z[..., :, None] - z[..., None, :])
            <= np.maximum(radius[..., :, None], radius[..., None, :]))


def _single_linkage(points: np.ndarray, scale: float) -> list[list[int]]:
    """Groups of points chained by |z_i - z_j| <= scale * (1 + max(|z_i|, |z_j|)).

    Groups are ordered by their smallest index, members ascending.
    """
    n = len(points)
    adj = _adjacency(points, scale)
    np.fill_diagonal(adj, True)
    if np.count_nonzero(adj) == n:
        return [[i] for i in range(n)]
    # each point takes the smallest label among its neighbours until the
    # labels settle: a label is then its component's smallest index
    label = np.arange(n)
    while True:
        nxt = np.min(np.where(adj, label[None, :], n), axis=1)
        if np.array_equal(nxt, label):
            break
        label = nxt
    return [np.flatnonzero(label == g).tolist() for g in np.unique(label)]


def _collapse_multiple(rc: np.ndarray, roots: list[complex], tol: float) -> list[complex]:
    """Snap groups of approximations of one multiple root onto a single point.

    A size-m group is refined by Newton on the (m-1)-th derivative (simple
    zero there); the collapse is accepted only when the refined point is a
    residual-certified root of p and the group's spread is consistent with
    an order-m zero at working precision. rc holds p's coefficients in
    descending order.
    """
    p = Polynomial(rc[::-1].tolist())
    out = list(roots)
    for g in _single_linkage(np.asarray(roots), _GROUP_RADIUS):
        m = len(g)
        if m < 2:
            continue
        center = sum(roots[i] for i in g) / m
        q = p.derivative(m - 1)
        dq = q.derivative()
        z = center
        for _ in range(30):
            dv = dq(z)
            if dv == 0:
                break
            step = q(z) / dv
            z -= step
            if abs(step) <= 1e-16 * (1.0 + abs(z)):
                break
        spread_cap = 10.0 * (1.0 + abs(z)) * (1e-13) ** (1.0 / m)
        spread = max(abs(roots[i] - z) for i in g)
        # the scaled residual, as _evaluate takes it: a NaN z fails
        certified = (np.abs(np.polyval(rc, z))
                     / np.polyval(np.abs(rc), np.maximum(1.0, np.abs(z)))) <= tol
        if spread <= spread_cap and certified:
            for i in g:
                out[i] = z
    return out


def _stripped_degree(cr: np.ndarray) -> int:
    """The degree left once the exact zeros at the origin come off the
    polynomial with coefficients cr, in descending order."""
    return int(np.flatnonzero(cr)[-1])


def _solve(cs: list[np.ndarray], tol: float) -> list[RootSet | PolygeomError]:
    """Root sets of the polynomials whose coefficients, in descending
    order, are cs (degree >= 1).

    A row whose stripped degree is above _EIGVALS_MAX_DEGREE and which
    the circle start leaves uncertified is solved once more from its
    companion eigenvalues, and that second outcome is the row's.
    """
    out = _solve_pass(cs, tol, _EIGVALS_MAX_DEGREE)
    redo = [r for r, res in enumerate(out)
            if isinstance(res, NonConvergence) and _stripped_degree(cs[r]) > _EIGVALS_MAX_DEGREE]
    if redo:
        for r, res in zip(redo, _solve_pass([cs[r] for r in redo], tol, math.inf)):
            out[r] = res
    return out


def _solve_pass(cs: list[np.ndarray], tol: float,
                eigvals_max: float) -> list[RootSet | PolygeomError]:
    """_solve in one padded pass, with the rows of stripped degree above
    eigvals_max started on circles.

    Each row's coefficients get leading zeros up to the largest degree;
    Horner's rule passes them through bit for bit (0*z + 0 = 0 for finite
    z). Each row's roots get NaN pads, which no test counts: a NaN is
    adjacent to nothing and sorts last. A row whose multiple-root
    collapse raises gets that error as its outcome.
    """
    rows = len(cs)
    n = [len(c) - 1 for c in cs]
    nmax = max(n)
    c = np.zeros((nmax + 1, rows), dtype=complex)
    z = np.full((rows, nmax), complex(np.nan, np.nan))
    # the rows left with degree d >= 2 once their exact zeros at the
    # origin come off, as (d, row)
    big = []
    for r, cr in enumerate(cs):
        c[nmax - n[r]:, r] = cr
        z[r, :n[r]] = 0.0
        d = _stripped_degree(cr)
        if d == 1:
            z[r, n[r] - 1] = -cr[1] / cr[0]
        elif d >= 2:
            big.append((d, r))
    if big:
        big.sort()
        xs = _aberth([cs[r][:d + 1] for d, r in big], tol, eigvals_max)
        for (d, r), xr in zip(big, xs):
            z[r, n[r] - d:n[r]] = xr[:d]

    # each row's own roots, flattened, and the row each belongs to
    own = np.arange(nmax) < np.array(n)[:, None]
    row = np.repeat(np.arange(rows), n)
    z[own] = _newton_polish(c, row, z[own])

    # rows with a candidate multiple-root group, or a non-finite value (no
    # longer adjacent to itself), take the per-root path; the others are
    # sorted by (real, imag) here (a stable sort, as list.sort is), and
    # their roots are also singleton clusters, _CLUSTER_RADIUS being the
    # smaller radius
    lone = np.empty(rows, dtype=bool)
    block = max(1, _BLOCK_ENTRIES // (nmax * nmax))
    for lo in range(0, rows, block):
        adj = _adjacency(z[lo:lo + block], _GROUP_RADIUS)
        lone[lo:lo + block] = adj.sum(axis=(1, 2)) == n[lo:lo + block]
    z[lone] = np.sort(z[lone], axis=-1, kind="stable")
    failed: dict[int, PolygeomError] = {}
    for r in (~lone).nonzero()[0].tolist():
        try:
            roots = _collapse_multiple(cs[r], z[r, :n[r]].tolist(), tol)
        except PolygeomError as e:
            failed[r] = e
            continue
        roots.sort(key=lambda x: (x.real, x.imag))
        z[r, :n[r]] = roots

    flat = z[own]
    residuals = _evaluate(c, np.abs(c), row, flat)[1]
    ends = list(itertools.accumulate(n))
    certified = np.logical_and.reduceat(residuals <= tol, [0, *ends[:-1]])
    all_roots, all_res = flat.tolist(), residuals.tolist()
    # a singleton's cluster is ((0 + z) / 1, 1): z with its negative zeros
    # cleared, and a lone row's roots are already in cluster order
    all_means = (flat + 0.0).tolist()
    out: list[RootSet | PolygeomError] = []
    for r, (lo, hi) in enumerate(zip([0, *ends], ends)):
        roots, res = all_roots[lo:hi], all_res[lo:hi]
        if r in failed:
            out.append(failed[r])
            continue
        if not certified[r]:
            out.append(NonConvergence(
                f"residuals above tol={tol} after {MAX_ITER} iterations",
                roots=roots, residuals=res))
            continue
        clusters = (tuple(zip(all_means[lo:hi], itertools.repeat(1))) if lone[r]
                    else _clusters(roots, _single_linkage(flat[lo:hi], _CLUSTER_RADIUS)))
        out.append(RootSet(tuple(roots), tuple(res), clusters))
    return out


def _clusters(roots: list[complex], groups: list[list[int]]) -> tuple[tuple[complex, int], ...]:
    """Each group of roots as (mean, size), sorted by (real, imag)."""
    return tuple(sorted(((sum(roots[i] for i in g) / len(g), len(g)) for g in groups),
                        key=lambda cl: (cl[0].real, cl[0].imag)))


def exact_root_set(points) -> RootSet:
    """The RootSet of prod (z - w) over the points w, which are its zeros
    exactly: the points in their order, residual 0 each, clustered as
    find_roots clusters."""
    roots = [complex(w) for w in points]
    groups = _single_linkage(np.array(roots, dtype=complex), _CLUSTER_RADIUS)
    return RootSet(tuple(roots), (0.0,) * len(roots), _clusters(roots, groups))


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
