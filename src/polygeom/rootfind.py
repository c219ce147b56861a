"""All-roots solver: companion-matrix eigenvalues polished by Aberth-Ehrlich.

The start is ``np.roots`` (eigenvalues of the balanced companion matrix,
backward stable by Edelman & Murakami 1995). Aberth-Ehrlich sweeps then
run over the roots that are still active; a root freezes once its step is
negligible or its scaled residual is within tol (Bini 1996). Every root
gets one vectorized Newton polish, and near-coincident approximations of
a multiple root are collapsed onto a refined representative before
multiplicity clustering. A root set is certified only when the scaled
residual of every root under the original polynomial is within tol; a
NaN or inf residual fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDegree, NonConvergence
from .poly import Polynomial

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 200

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


def cauchy_bound(p: Polynomial) -> float:
    """1 + max |a_k/a_n|; every root has modulus below this."""
    n = p.degree()
    if n < 1:
        raise InvalidDegree("cauchy_bound needs degree >= 1")
    an = abs(p.coeffs[n])
    return 1.0 + max((abs(c) for c in p.coeffs[:n]), default=0.0) / an


def _scaled_residuals(rc: np.ndarray, z: np.ndarray, pz: np.ndarray) -> np.ndarray:
    """|p(z)| / sum_k |a_k| max(1, |z|)**k, given pz = p(z) and the
    coefficients rc of p in descending order.

    NaN or inf where the evaluation overflows; neither passes a
    ``<= tol`` test.
    """
    return np.abs(pz) / np.polyval(np.abs(rc), np.maximum(1.0, np.abs(z)))


def _aberth(rc: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    """Roots of descending coefficients rc (degree >= 2, no zero root)."""
    drc = np.polyder(rc)
    x = np.roots(rc).astype(complex)
    active = np.arange(len(x))
    for _ in range(max_iter):
        xa = x[active]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            p = np.polyval(rc, xa)
            converged = _scaled_residuals(rc, xa, p) <= tol
            dp = np.polyval(drc, xa)
            w = np.where(p == 0, 0.0, p / np.where(dp == 0, 1e-300, dp))
            diff = xa[:, None] - x[None, :]
            diff[np.arange(len(active)), active] = np.inf
            s = np.sum(1.0 / diff, axis=1)
            delta = w / (1.0 - w * s)
        delta = np.where(np.isfinite(delta) & ~converged, delta, 0.0)
        x[active] = xa - delta
        moving = np.abs(delta) > tol * (1.0 + np.abs(x[active]))
        active = active[moving]
        if not active.size:
            break
    return x


def _newton_polish(rc: np.ndarray, z: np.ndarray) -> np.ndarray:
    """One Newton step per root, kept only where |p| does not grow."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        pv = np.polyval(rc, z)
        dv = np.polyval(np.polyder(rc), z)
        cand = z - pv / np.where(dv == 0, 1.0, dv)
        better = np.abs(np.polyval(rc, cand)) <= np.abs(pv)
    return np.where((dv != 0) & np.isfinite(cand) & better, cand, z)


def _single_linkage(points: np.ndarray, scale: float) -> list[list[int]]:
    """Groups of points chained by |z_i - z_j| <= scale * (1 + max(|z_i|, |z_j|)).

    Groups are ordered by their smallest index, members ascending.
    """
    n = len(points)
    radius = scale * (1.0 + np.abs(points))
    adj = np.abs(points[:, None] - points[None, :]) <= np.maximum(radius[:, None], radius[None, :])
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


def _collapse_multiple(p: Polynomial, rc: np.ndarray, roots: list[complex],
                       tol: float) -> list[complex]:
    """Snap groups of approximations of one multiple root onto a single point.

    A size-m group is refined by Newton on the (m-1)-th derivative (simple
    zero there); the collapse is accepted only when the refined point is a
    residual-certified root of p and the group's spread is consistent with
    an order-m zero at working precision. rc holds p's coefficients in
    descending order.
    """
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
        with np.errstate(over="ignore", invalid="ignore"):
            certified = _scaled_residuals(rc, z, np.polyval(rc, z)) <= tol
        if spread <= spread_cap and certified:
            for i in g:
                out[i] = z
    return out


def find_roots(
    p: Polynomial,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> RootSet:
    """All complex zeros with residuals and multiplicity clusters.

    Raises NonConvergence (carrying best-effort roots) when any scaled
    residual exceeds tol, or is NaN, after max_iter sweeps and polishing.
    """
    n = p.degree()
    if n < 1:
        raise InvalidDegree("find_roots needs degree >= 1")
    if tol <= 0:
        raise InvalidDegree("tol must be positive")

    # exact zeros at the origin come off first: rc[:d + 1] has none
    rc = np.asarray(p.coeffs[::-1], dtype=complex)
    d = int(np.flatnonzero(rc)[-1])
    approx = np.zeros(n, dtype=complex)
    if d == 1:
        approx[-1] = -rc[1] / rc[0]
    elif d >= 2:
        approx[n - d:] = _aberth(rc[:d + 1], tol, max_iter)

    roots = _collapse_multiple(p, rc, _newton_polish(rc, approx).tolist(), tol)
    roots.sort(key=lambda r: (r.real, r.imag))

    z = np.asarray(roots)
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = _scaled_residuals(rc, z, np.polyval(rc, z)).tolist()
    if not all(r <= tol for r in residuals):
        raise NonConvergence(
            f"residuals above tol={tol} after {max_iter} iterations",
            roots=roots,
            residuals=residuals,
        )

    clusters = []
    for g in _single_linkage(z, _CLUSTER_RADIUS):
        rep = sum(roots[i] for i in g) / len(g)
        clusters.append((rep, len(g)))
    clusters.sort(key=lambda c: (c[0].real, c[0].imag))

    return RootSet(tuple(roots), tuple(residuals), tuple(clusters))
