"""All-roots solver: companion-matrix eigenvalues polished by Aberth-Ehrlich,
for a batch of polynomials at once.

The start is the eigenvalues of the companion matrix that ``np.roots``
builds (backward stable by Edelman & Murakami 1995), one stacked
``eigvals`` call per degree. Aberth-Ehrlich sweeps then run over the
roots that are still active, across every polynomial of the batch; a root
freezes once its step is negligible or its scaled residual is within tol
(Bini 1996). Every root gets one vectorized Newton polish, and
near-coincident approximations of a multiple root are collapsed onto a
refined representative before multiplicity clustering. A root set is
certified only when the scaled residual of every root under the original
polynomial is within tol; a NaN or inf residual fails. Every operation
is elementwise or per row, so a polynomial gets the same bits in any
batch as alone.

Checks that need roots are written as generators (cores): a core yields
a Polynomial and is sent its RootSet, or has the root finder's error
thrown in at the yield. ``drive`` runs one core, ``drive_many`` runs many
in lockstep with one ``find_roots_many`` call per round.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDegree, InvalidInput, NonConvergence, PolygeomError
from .poly import Polynomial

DEFAULT_TOL = 1e-12
# Aberth sweeps before a root set is certified or given up
MAX_ITER = 200

# single-linkage threshold for detecting a candidate multiple-root group,
# well below the 1e-2 separation the round-trip contract assumes
_GROUP_RADIUS = 1e-3
# single-linkage threshold for the multiplicity clusters of a root set
_CLUSTER_RADIUS = 1e-6


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
# the k-th coefficient of every polynomial, shaped like the points it is
# evaluated at (or a scalar, for one polynomial). The evaluation is
# np.polyval's, operation for operation, so it gives the same bits.


def _polyval(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    y = np.zeros(np.shape(z), np.result_type(c, z))
    for ck in c:
        y = y * z + ck
    return y


def _polyder(c: np.ndarray) -> np.ndarray:
    return c[:-1] * np.arange(len(c) - 1, 0, -1).reshape((-1,) + (1,) * (c.ndim - 1))


def _scaled_residuals(rc: np.ndarray, z: np.ndarray, pz: np.ndarray) -> np.ndarray:
    """|p(z)| / sum_k |a_k| max(1, |z|)**k, given pz = p(z) and the
    coefficients rc of p in descending order.

    NaN or inf where the evaluation overflows; neither passes a
    ``<= tol`` test.
    """
    return np.abs(pz) / _polyval(np.abs(rc), np.maximum(1.0, np.abs(z)))


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


def _aberth(c: np.ndarray, tol: float) -> np.ndarray:
    """Roots (one row each) of the polynomials whose coefficients are the
    columns of c (degree >= 2, no zero root). The active roots of all
    polynomials form one flat set; each sweep gathers their coefficients
    once."""
    d = len(c) - 1
    # the coefficients of p, then of p', so that a sweep gathers both at once
    cd = np.concatenate([c, _polyder(c)])
    x = _companion_eigvals(c)
    flat = x.reshape(-1)
    # the active roots: flat index, and its polynomial and position
    active = np.arange(x.size)
    row, col = np.divmod(active, d)
    for _ in range(MAX_ITER):
        if not active.size:
            break
        xa, g = flat[active], cd[:, row]
        p = _polyval(g[:d + 1], xa)
        converged = _scaled_residuals(g[:d + 1], xa, p) <= tol
        dp = _polyval(g[d + 1:], xa)
        w = np.where(p == 0, 0.0, p / np.where(dp == 0, 1e-300, dp))
        diff = xa[:, None] - x[row]
        diff[np.arange(active.size), col] = np.inf
        s = np.sum(1.0 / diff, axis=1)
        delta = w / (1.0 - w * s)
        delta = np.where(np.isfinite(delta) & ~converged, delta, 0.0)
        flat[active] = xa = xa - delta
        moving = np.abs(delta) > tol * (1.0 + np.abs(xa))
        active, row, col = active[moving], row[moving], col[moving]
    return x


def _newton_polish(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """One Newton step per root, kept only where |p| does not grow."""
    pv = _polyval(c, z)
    dv = _polyval(_polyder(c), z)
    cand = z - pv / np.where(dv == 0, 1.0, dv)
    better = np.abs(_polyval(c, cand)) <= np.abs(pv)
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
        certified = _scaled_residuals(rc, z, np.polyval(rc, z)) <= tol
        if spread <= spread_cap and certified:
            for i in g:
                out[i] = z
    return out


def _solve_group(c: np.ndarray, d: int, tol: float) -> list[RootSet | PolygeomError]:
    """Root sets of polynomials of one degree n whose coefficients are the
    columns of c, each with n - d exact zeros at the origin (so c[:d + 1]
    has none)."""
    n = len(c) - 1
    approx = np.zeros((c.shape[1], n), dtype=complex)
    if d == 1:
        approx[:, -1] = -c[1] / c[0]
    elif d >= 2:
        approx[:, n - d:] = _aberth(c[:d + 1], tol)
    # each root's coefficients, as the rows of z are flattened
    cz = np.repeat(c, n, axis=1)
    z = _newton_polish(cz, approx.ravel()).reshape(approx.shape)

    # rows with a candidate multiple-root group, or a non-finite value (no
    # longer adjacent to itself), take the per-root path; the others are
    # sorted by (real, imag) here (a stable sort, as list.sort is), and
    # their roots are also singleton clusters, _CLUSTER_RADIUS being the
    # smaller radius
    lone = _adjacency(z, _GROUP_RADIUS).sum(axis=(1, 2)) == n
    z[lone] = np.sort(z[lone], axis=-1, kind="stable")
    roots = z.tolist()
    for r in (~lone).nonzero()[0]:
        roots[r] = _collapse_multiple(c[:, r], roots[r], tol)
        roots[r].sort(key=lambda x: (x.real, x.imag))
        z[r] = roots[r]

    flat = z.ravel()
    residuals = _scaled_residuals(cz, flat, _polyval(cz, flat)).reshape(z.shape)
    certified = (residuals <= tol).all(axis=1)
    out: list[RootSet | PolygeomError] = []
    for r, rs in enumerate(roots):
        res = residuals[r].tolist()
        if not certified[r]:
            out.append(NonConvergence(
                f"residuals above tol={tol} after {MAX_ITER} iterations",
                roots=rs, residuals=res))
            continue
        groups = [[i] for i in range(n)] if lone[r] else _single_linkage(z[r], _CLUSTER_RADIUS)
        clusters = sorted(((sum(rs[i] for i in g) / len(g), len(g)) for g in groups),
                          key=lambda cl: (cl[0].real, cl[0].imag))
        out.append(RootSet(tuple(rs), tuple(res), tuple(clusters)))
    return out


def find_roots_many(
    polys: list[Polynomial], tol: float = DEFAULT_TOL
) -> list[RootSet | PolygeomError]:
    """find_roots of every polynomial: its RootSet, or the error
    find_roots would raise for it.

    Rows are grouped by degree and by the degree left once exact zeros at
    the origin come off, and each group is solved with stacked array
    operations; every row gets the same bits as it would alone.
    """
    out: list[RootSet | PolygeomError | None] = [None] * len(polys)
    groups: dict[tuple[int, int], list[int]] = {}
    valid_tol = _valid_tol(tol)
    for i, p in enumerate(polys):
        n = p.degree()
        if n < 1:
            out[i] = InvalidDegree("find_roots needs degree >= 1")
        elif not valid_tol:
            out[i] = InvalidInput(f"tol must be finite and > 0, got {tol!r}")
        else:
            zeros = next(k for k, a in enumerate(p.coeffs) if a != 0)
            groups.setdefault((n, n - zeros), []).append(i)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for (_, d), rows in groups.items():
            c = np.array([polys[i].coeffs[::-1] for i in rows], dtype=complex).T.copy()
            solved = _solve_group(c, d, tol)
            for i, res in zip(rows, solved):
                out[i] = res
    return out


def find_roots(p: Polynomial, tol: float = DEFAULT_TOL) -> RootSet:
    """All complex zeros with residuals and multiplicity clusters.

    Raises NonConvergence (carrying best-effort roots) when any scaled
    residual exceeds tol, or is NaN, after MAX_ITER sweeps and polishing;
    InvalidInput when tol is not finite and positive.
    """
    out = find_roots_many([p], tol)[0]
    if isinstance(out, PolygeomError):
        raise out
    return out


def drive_many(cores: list, tol: float = DEFAULT_TOL) -> list:
    """Run root-requesting generators in lockstep.

    A core yields a Polynomial and is sent its RootSet, or has the error
    find_roots would raise thrown in at the yield. Each round solves every
    pending request with one find_roots_many call. Returns what each core
    returned, or the PolygeomError it raised.
    """
    out: list = [None] * len(cores)
    pending: dict[int, Polynomial] = {}

    def advance(i, step, arg):
        try:
            pending[i] = step(arg)
        except StopIteration as stop:
            out[i] = stop.value
        except PolygeomError as e:
            out[i] = e

    for i, core in enumerate(cores):
        advance(i, core.send, None)
    while pending:
        idx = list(pending)
        solved = find_roots_many([pending.pop(i) for i in idx], tol)
        for i, res in zip(idx, solved):
            advance(i, cores[i].throw if isinstance(res, PolygeomError) else cores[i].send, res)
    return out


def drive(core):
    """Run one root-requesting generator to completion at DEFAULT_TOL;
    raise what it raises."""
    out, = drive_many([core])
    if isinstance(out, PolygeomError):
        raise out
    return out
