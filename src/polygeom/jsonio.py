"""JSON wire formats. Complex numbers are two-element [re, im] arrays;
every emitted document carries the schema tag "polygeom/1".
"""

from __future__ import annotations

import json
import math
import numbers
from typing import Any, NamedTuple, Sequence

from .coincidence import SymmetricMultiaffine
from .derivative_bound import Theorem2Instance
from .errors import InvalidInput
from .poly import Polynomial
from .regions import (
    DISK,
    EXTERIOR,
    HALFPLANE,
    CircularRegion,
    disk,
    exterior_disk,
    half_plane,
)
from .rootfind import RootSet

SCHEMA = "polygeom/1"


def _real(v: Any) -> float:
    """A finite JSON number; a string or a boolean is invalid input."""
    if not isinstance(v, numbers.Real) or isinstance(v, bool):
        raise InvalidInput(f"expected a number, got {v!r}")
    try:
        x = float(v)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise InvalidInput(f"expected a finite number, got {v!r}")
    return x


def integer_from_json(v: Any) -> int:
    """An integral JSON number; a fraction, a string or a boolean is invalid input."""
    integral = isinstance(v, int) or (isinstance(v, float) and v.is_integer())
    if isinstance(v, bool) or not integral:
        raise InvalidInput(f"expected an integer, got {v!r}")
    return int(v)


def boolean_from_json(v: Any) -> bool:
    """A JSON boolean; a string or a number is invalid input."""
    if not isinstance(v, bool):
        raise InvalidInput(f"expected true or false, got {v!r}")
    return v


def _object(v: Any, what: str) -> dict:
    if not isinstance(v, dict):
        raise InvalidInput(f"{what} JSON must be an object, got {v!r}")
    return v


def complex_to_json(z: complex) -> list[float]:
    return [z.real, z.imag]


def complex_from_json(v: Any) -> complex:
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise InvalidInput(f"expected [re, im], got {v!r}")
    return complex(_real(v[0]), _real(v[1]))


def poly_to_json(p: Polynomial) -> dict:
    return {"coeffs": [complex_to_json(c) for c in p.coeffs]}


def poly_from_json(d: dict) -> Polynomial:
    coeffs = _object(d, "polynomial")["coeffs"]
    if not isinstance(coeffs, list):
        raise InvalidInput("coeffs JSON must be a list of [re, im] pairs")
    return Polynomial([complex_from_json(c) for c in coeffs])


def points_to_json(points: Sequence[complex]) -> list[list[float]]:
    return [complex_to_json(z) for z in points]


def points_from_json(v: Any) -> list[complex]:
    if isinstance(v, dict):
        v = v.get("points")
    if not isinstance(v, list):
        raise InvalidInput("points JSON must be a list of [re, im] pairs")
    return [complex_from_json(z) for z in v]


def region_to_json(r: CircularRegion) -> dict:
    out: dict[str, Any] = {"kind": r.kind, "closed": r.closed}
    if r.kind in (DISK, EXTERIOR):
        out["center"] = complex_to_json(r.center)
        out["radius"] = r.radius
    else:
        out["direction"] = complex_to_json(r.direction)
        out["offset"] = r.offset
    return out


def region_from_json(d: dict) -> CircularRegion:
    _object(d, "region")
    kind = d.get("kind")
    closed = boolean_from_json(d.get("closed", True))
    if kind == DISK:
        return disk(complex_from_json(d["center"]), _real(d["radius"]), closed)
    if kind == EXTERIOR:
        return exterior_disk(complex_from_json(d["center"]), _real(d["radius"]), closed)
    if kind == HALFPLANE:
        return half_plane(complex_from_json(d["direction"]), _real(d["offset"]), closed)
    raise InvalidInput(f"unknown region kind {kind!r}")


def disk_to_json(d: CircularRegion) -> dict:
    """The theorem2 wire format of a closed disk: center and radius only."""
    return {"center": complex_to_json(d.center), "radius": d.radius}


def disk_from_json(d: dict) -> CircularRegion:
    _object(d, "disk")
    return disk(complex_from_json(d["center"]), _real(d["radius"]))


def multiaffine_to_json(P: SymmetricMultiaffine) -> dict:
    return {"n": P.n, "E": points_to_json(P.E)}


def multiaffine_from_json(d: dict) -> SymmetricMultiaffine:
    _object(d, "multiaffine")
    return SymmetricMultiaffine(integer_from_json(d["n"]), points_from_json(d["E"]))


def theorem2_instance_to_json(inst: Theorem2Instance) -> dict:
    return {"inner_zeros": points_to_json(inst.inner_zeros),
            "outer_zero": complex_to_json(inst.outer_zero),
            "disk": disk_to_json(inst.disk)}


def theorem2_instance_from_json(d: dict) -> Theorem2Instance:
    _object(d, "theorem2 instance")
    return Theorem2Instance(tuple(points_from_json(d["inner_zeros"])),
                            complex_from_json(d["outer_zero"]), disk_from_json(d["disk"]))


# The instance formats of the campaign properties. Each has one decoder
# (dict -> instance), which validates what it reads, and one encoder
# (instance -> dict); neither writes or reads the "property" key. A
# campaign trial keeps its instance as the object from its generator to
# its check, and each decoder is the identity on what the generators
# build, so a check sees what it would see on the encoded instance.


class GraceTrial(NamedTuple):
    """A and b of degree n and a region; a_roots, when known, are the
    roots a was built from."""

    n: int
    a: Polynomial
    b: Polynomial
    region: CircularRegion
    a_roots: tuple[complex, ...] | None = None


def grace_trial_to_json(t: GraceTrial) -> dict:
    d = {"n": t.n, "a": poly_to_json(t.a)}
    if t.a_roots is not None:
        d["a_roots"] = points_to_json(t.a_roots)
    return {**d, "b": poly_to_json(t.b), "region": region_to_json(t.region)}


def grace_trial_from_json(d: dict) -> GraceTrial:
    a = poly_from_json(d["a"])
    b = poly_from_json(d["b"])
    region = region_from_json(d["region"])
    a_roots = tuple(points_from_json(d["a_roots"])) if "a_roots" in d else None
    return GraceTrial(integer_from_json(d["n"]), a, b, region, a_roots)


class CoincidenceTrial(NamedTuple):
    """P, the points w and a region, for walsh_classic (classic) and the
    theorem 1 properties; force solves despite a failed hypothesis."""

    multiaffine: SymmetricMultiaffine
    points: tuple[complex, ...]
    region: CircularRegion
    classic: bool = False
    force: bool = False


def coincidence_trial_to_json(t: CoincidenceTrial) -> dict:
    d = {"multiaffine": multiaffine_to_json(t.multiaffine),
         "points": points_to_json(t.points),
         "region": region_to_json(t.region), "classic": t.classic}
    if t.force:
        d["force"] = True
    return d


def coincidence_trial_from_json(d: dict) -> CoincidenceTrial:
    P = multiaffine_from_json(d["multiaffine"])
    w = tuple(points_from_json(d["points"]))
    region = region_from_json(d["region"])
    classic = boolean_from_json(d.get("classic", False))
    # force is set by `polygeom coincidence --force`
    force = boolean_from_json(d.get("force", False))
    return CoincidenceTrial(P, w, region, classic, force)


class Theorem2Trial(NamedTuple):
    """A theorem 2 instance and the derivative order k it is checked at."""

    instance: Theorem2Instance
    k: int


def theorem2_trial_to_json(t: Theorem2Trial) -> dict:
    return {"k": t.k, **theorem2_instance_to_json(t.instance)}


def theorem2_trial_from_json(d: dict) -> Theorem2Trial:
    inst = theorem2_instance_from_json(d)
    return Theorem2Trial(inst, integer_from_json(d["k"]))


class GaussLucasTrial(NamedTuple):
    poly: Polynomial


def gauss_lucas_trial_to_json(t: GaussLucasTrial) -> dict:
    return {"poly": poly_to_json(t.poly)}


def gauss_lucas_trial_from_json(d: dict) -> GaussLucasTrial:
    return GaussLucasTrial(poly_from_json(d["poly"]))


class ApolarityIdentityTrial(NamedTuple):
    """The degree n, the coefficients of a, a2 and b, ascending and as
    drawn, and the points alpha and c."""

    n: int
    a: tuple[complex, ...]
    a2: tuple[complex, ...]
    b: tuple[complex, ...]
    alpha: complex
    c: complex


def apolarity_identity_trial_to_json(t: ApolarityIdentityTrial) -> dict:
    return {"n": t.n, "a": points_to_json(t.a), "a2": points_to_json(t.a2),
            "b": points_to_json(t.b), "alpha": complex_to_json(t.alpha),
            "c": complex_to_json(t.c)}


def apolarity_identity_trial_from_json(d: dict) -> ApolarityIdentityTrial:
    n = integer_from_json(d["n"])
    a, a2, b = (tuple(points_from_json(d[key])) for key in ("a", "a2", "b"))
    return ApolarityIdentityTrial(n, a, a2, b, complex_from_json(d["alpha"]),
                                  complex_from_json(d["c"]))


class DerivativeIdentityTrial(NamedTuple):
    n: int
    k: int
    y: complex


def derivative_identity_trial_to_json(t: DerivativeIdentityTrial) -> dict:
    return {"n": t.n, "k": t.k, "y": complex_to_json(t.y)}


def derivative_identity_trial_from_json(d: dict) -> DerivativeIdentityTrial:
    n, k = integer_from_json(d["n"]), integer_from_json(d["k"])
    return DerivativeIdentityTrial(n, k, complex_from_json(d["y"]))


def rootset_to_json(rs: RootSet) -> dict:
    return {
        "schema": SCHEMA,
        "roots": points_to_json(rs.roots),
        "residuals": list(rs.residuals),
        "clusters": [
            {"representative": complex_to_json(rep), "multiplicity": mult}
            for rep, mult in rs.clusters
        ],
    }


def _nulled(v: Any) -> Any:
    """v with each float that is NaN or infinite replaced by None."""
    if isinstance(v, float):
        return v if math.isfinite(v) else None
    if isinstance(v, dict):
        return {k: _nulled(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_nulled(x) for x in v]
    return v


def dumps(obj: Any) -> str:
    """Canonical serialization: sorted keys, minimal separators. A float
    that is NaN or infinite, which strict JSON cannot hold and load_file
    rejects, is written as null."""
    return json.dumps(_nulled(obj), sort_keys=True, separators=(",", ":"), allow_nan=False)


def _reject_constant(name: str) -> Any:
    raise InvalidInput(f"non-finite literal {name} in JSON")


class _Object(dict):
    """A JSON object read from a file: a missing key is invalid input."""

    def __missing__(self, key):
        raise InvalidInput(f"missing field {key!r}")


def _parse(text: str) -> Any:
    return json.loads(text, object_hook=_Object, parse_constant=_reject_constant)


def load_file(path: str) -> Any:
    """Parsed JSON; an unreadable file, malformed JSON, NaN/Infinity and
    missing keys are InvalidInput."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return _parse(f.read())
    except OSError as e:
        raise InvalidInput(f"cannot read {path}: {e.strerror}") from None
    except ValueError as e:
        raise InvalidInput(f"{path}: not valid JSON: {e}") from None


def read_instance(v: Any) -> dict:
    """A trial instance given as an object, read as load_file reads a
    file: a value that is not JSON data, a missing field, NaN and Infinity
    are InvalidInput."""
    if not isinstance(v, dict):
        raise InvalidInput("an instance must be a JSON object")
    try:
        return _parse(json.dumps(v))
    except (TypeError, ValueError) as e:
        raise InvalidInput(f"an instance must be JSON data: {e}") from None
