"""JSON wire formats. Complex numbers are two-element [re, im] arrays;
every emitted document carries the schema tag "polygeom/1".
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from typing import Any, Sequence

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
    # the float test comes first: an instance reads thousands of floats,
    # and a numbers.Real check alone costs about 1 us
    if not (isinstance(v, float) or (isinstance(v, numbers.Real) and not isinstance(v, bool))):
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


def _complex_list(v: list) -> list[complex]:
    """complex_from_json of every entry of v: in one pass when each entry
    is a list of two finite floats, as decoded JSON is, else entry by
    entry, so that the values and the first error are the same."""
    if set(map(type, v)) == {list} and set(map(len, v)) == {2}:
        flat = list(itertools.chain.from_iterable(v))
        if set(map(type, flat)) == {float} and all(map(math.isfinite, flat)):
            return list(itertools.starmap(complex, v))
    return [complex_from_json(z) for z in v]


def poly_to_json(p: Polynomial) -> dict:
    return {"coeffs": [complex_to_json(c) for c in p.coeffs]}


def poly_from_json(d: dict) -> Polynomial:
    coeffs = _object(d, "polynomial")["coeffs"]
    if not isinstance(coeffs, list):
        raise InvalidInput("coeffs JSON must be a list of [re, im] pairs")
    return Polynomial(_complex_list(coeffs))


def points_to_json(points: Sequence[complex]) -> list[list[float]]:
    return [complex_to_json(z) for z in points]


def points_from_json(v: Any) -> list[complex]:
    if isinstance(v, dict):
        v = v.get("points")
    if not isinstance(v, list):
        raise InvalidInput("points JSON must be a list of [re, im] pairs")
    return _complex_list(v)


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


def load_file(path: str) -> Any:
    """Parsed JSON; an unreadable file, malformed JSON, NaN/Infinity and
    missing keys are InvalidInput."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f, object_hook=_Object, parse_constant=_reject_constant)
    except OSError as e:
        raise InvalidInput(f"cannot read {path}: {e.strerror}") from None
    except ValueError as e:
        raise InvalidInput(f"{path}: not valid JSON: {e}") from None
