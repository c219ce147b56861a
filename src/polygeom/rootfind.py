"""All-roots solver: Aberth-Ehrlich simultaneous iteration.

All roots are iterated at once (no deflation), each gets one terminal
Newton polish, and near-coincident approximations of a multiple root are
collapsed onto a refined representative before multiplicity clustering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidDegree, NonConvergence
from .poly import Polynomial

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 200

# initial guesses live on 0.8 * cauchy_bound, rotated to break the
# symmetric stall of z**n - c
_INIT_RADIUS_FACTOR = 0.8
_INIT_PHASE = 0.4

# single-linkage threshold for detecting a candidate multiple-root group,
# well below the 1e-2 separation the round-trip contract assumes
_GROUP_RADIUS = 1e-3


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


def _residual_scale(p: Polynomial, z: complex) -> float:
    m = max(1.0, abs(z))
    s = 0.0
    t = 1.0
    for c in p.coeffs:
        s += abs(c) * t
        t *= m
    return s


def _modulus(v: complex) -> float:
    """|v|, or inf where the modulus of a finite v overflows a float."""
    try:
        return abs(v)
    except OverflowError:
        return math.inf


def _scaled_residual(p: Polynomial, z: complex) -> float:
    return _modulus(p(z)) / _residual_scale(p, z)


def _aberth(c: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    d = len(c) - 1
    dc = c[1:] * np.arange(1, d + 1)
    radius = _INIT_RADIUS_FACTOR * (1.0 + np.max(np.abs(c[:-1])) / abs(c[-1]))
    angles = 2.0 * np.pi * np.arange(d) / d + _INIT_PHASE
    x = radius * np.exp(1j * angles)

    rc = c[::-1]
    rdc = dc[::-1]
    for _ in range(max_iter):
        p = np.polyval(rc, x)
        dp = np.polyval(rdc, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.where(p == 0, 0.0, p / np.where(dp == 0, 1e-300, dp))
            diff = x[:, None] - x[None, :]
            np.fill_diagonal(diff, np.inf)
            s = np.sum(1.0 / diff, axis=1)
            delta = w / (1.0 - w * s)
        delta = np.where(np.isfinite(delta), delta, 0.0)
        x = x - delta
        if np.all(np.abs(delta) <= tol * (1.0 + np.abs(x))):
            break
    return x


def _newton_polish(p: Polynomial, z: complex) -> complex:
    dp = p.derivative()
    pv = p(z)
    dv = dp(z)
    if dv == 0:
        return z
    cand = z - pv / dv
    return cand if _modulus(p(cand)) <= _modulus(pv) else z


def _single_linkage(points: Sequence[complex], radius_of) -> list[list[int]]:
    n = len(points)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            r = max(radius_of(points[i]), radius_of(points[j]))
            if abs(points[i] - points[j]) <= r:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _collapse_multiple(p: Polynomial, roots: list[complex], tol: float) -> list[complex]:
    """Snap groups of approximations of one multiple root onto a single point.

    A size-m group is refined by Newton on the (m-1)-th derivative (simple
    zero there); the collapse is accepted only when the refined point is a
    residual-certified root of p and the group's spread is consistent with
    an order-m zero at working precision.
    """
    groups = _single_linkage(roots, lambda z: _GROUP_RADIUS * (1.0 + abs(z)))
    out = list(roots)
    for g in groups:
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
        if spread <= spread_cap and _scaled_residual(p, z) <= tol:
            for i in g:
                out[i] = z
    return out


def find_roots(
    p: Polynomial,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    cluster_radius_scale: float = 1e-6,
) -> RootSet:
    """All complex zeros with residuals and multiplicity clusters.

    Raises NonConvergence (carrying best-effort roots) when any scaled
    residual exceeds tol after max_iter sweeps and polishing.
    """
    n = p.degree()
    if n < 1:
        raise InvalidDegree("find_roots needs degree >= 1")
    if tol <= 0:
        raise InvalidDegree("tol must be positive")

    # exact zeros at the origin come off first
    coeffs = list(p.coeffs)
    zeros_at_origin = 0
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
        zeros_at_origin += 1

    roots: list[complex] = [0j] * zeros_at_origin
    d = len(coeffs) - 1
    if d == 1:
        roots.append(-coeffs[0] / coeffs[1])
    elif d >= 2:
        approx = _aberth(np.asarray(coeffs, dtype=complex), tol, max_iter)
        roots.extend(complex(z) for z in approx)

    roots = [_newton_polish(p, z) for z in roots]
    roots = _collapse_multiple(p, roots, tol)
    roots.sort(key=lambda z: (z.real, z.imag))

    residuals = [_scaled_residual(p, z) for z in roots]
    if any(r > tol for r in residuals):
        raise NonConvergence(
            f"residuals above tol={tol} after {max_iter} iterations",
            roots=roots,
            residuals=residuals,
        )

    clusters = []
    for g in _single_linkage(roots, lambda z: cluster_radius_scale * (1.0 + abs(z))):
        rep = sum(roots[i] for i in g) / len(g)
        clusters.append((rep, len(g)))
    clusters.sort(key=lambda c: (c[0].real, c[0].imag))

    return RootSet(tuple(roots), tuple(residuals), tuple(clusters))
