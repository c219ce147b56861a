import json
import math
import struct

import numpy as np
import pytest

from polygeom.coincidence import SymmetricMultiaffine
from polygeom.derivative_bound import generate_theorem2_instance
from polygeom.errors import InvalidInput
from polygeom.jsonio import (
    complex_from_json,
    dumps,
    load_file,
    multiaffine_from_json,
    multiaffine_to_json,
    points_from_json,
    poly_from_json,
    theorem2_instance_from_json,
    theorem2_instance_to_json,
)
from polygeom.poly import Polynomial


def per_entry(entries):
    """The decoder's entry-by-entry path: its values, or its error text."""
    try:
        return [complex_from_json(z) for z in entries]
    except InvalidInput as e:
        return str(e)


def bits(values):
    """Complex values as their bits: a signed zero differs, NaN compares."""
    return b"".join(struct.pack("<dd", z.real, z.imag) for z in values)


def outcome(decode, entries):
    try:
        return bits(decode(entries))
    except InvalidInput as e:
        return str(e)


# entries a decoded JSON document or a library caller can hand in
ENTRIES = {
    "floats": [[0.5, -1.25], [3.0, 0.0], [-0.0, -0.0]],
    "empty": [],
    "ints": [[1, 0], [-2, 3]],
    "ints-and-floats": [[1.5, 2.5], [1, 0]],
    "bools": [[1.0, 2.0], [True, 0.0]],
    "string": [[1.0, 2.0], ["1", 0.0]],
    "none": [[1.0, None]],
    "tuples": [(1.0, 2.0), (3.0, 4.0)],
    "float64": [[np.float64(1.5), np.float64(-2.0)], [1.0, 2.0]],
    "pair-of-one": [[1.0, 2.0], [1.0]],
    "pair-of-three": [[1.0, 2.0, 3.0]],
    "nested": [[[1.0, 2.0], [3.0, 4.0]]],
    "scalar-entry": [1.0, 2.0],
    "nan": [[1.0, 2.0], [math.nan, 0.0]],
    "inf": [[1.0, -math.inf]],
    "bad-after-nan": [[math.nan, 0.0], ["x", 0.0]],
    "overflowing-modulus": [[1.5e308, 1.5e308], [-7e307, 7e307]],
    "huge-int": [[10 ** 400, 0.0]],
}


class TestOnePassDecoder:
    # a list of pairs of finite floats is decoded in one pass; anything
    # else entry by entry: the same values, or the same first error
    @pytest.mark.parametrize("name", sorted(ENTRIES))
    def test_points_equal_the_per_entry_path(self, name):
        entries = ENTRIES[name]
        want = per_entry(entries)
        got = outcome(points_from_json, entries)
        assert got == (want if isinstance(want, str) else bits(want))

    @pytest.mark.parametrize("name", sorted(ENTRIES))
    def test_coefficients_equal_the_per_entry_path(self, name):
        entries = ENTRIES[name]
        want = per_entry(entries)
        if not isinstance(want, str):
            want = bits(Polynomial(want).coeffs)
        assert outcome(lambda v: poly_from_json({"coeffs": v}).coeffs, entries) == want

    def test_points_object(self):
        assert points_from_json({"points": [[1.0, 2.0]]}) == [1 + 2j]

    def test_some_entries_take_the_per_entry_path(self):
        # the table's errors come from that path
        assert per_entry(ENTRIES["bools"]) == "expected a number, got True"
        assert per_entry(ENTRIES["pair-of-three"]) == "expected [re, im], got [1.0, 2.0, 3.0]"
        assert per_entry(ENTRIES["nan"]) == "expected a finite number, got nan"


class TestDumps:
    def test_finite_document_keeps_its_bytes(self):
        doc = {"b": [1.5, -0.0, 1e308], "a": {"z": [[2.0, 3.0]], "n": None}, "k": 3}
        assert dumps(doc) == json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def test_non_finite_floats_are_null(self, tmp_path):
        doc = {"value": [math.inf, math.nan], "residuals": (np.float64(-math.inf), 1.0),
               "nested": [{"r": [[math.nan, 0.0]]}], "flag": True, "count": 2}
        text = dumps(doc)
        assert text == ('{"count":2,"flag":true,"nested":[{"r":[[null,0.0]]}],'
                        '"residuals":[null,1.0],"value":[null,null]}')
        # which load_file, which rejects NaN and Infinity, reads back
        path = tmp_path / "doc.json"
        path.write_text(text)
        assert load_file(str(path))["value"] == [None, None]


class TestInstanceFormats:
    # each instance format has one encoder and one decoder
    def test_multiaffine_round_trip(self):
        P = SymmetricMultiaffine(4, [1 + 2j, -0.5, 3j])
        doc = json.loads(dumps(multiaffine_to_json(P)))
        assert doc == {"n": 4, "E": [[1.0, 2.0], [-0.5, 0.0], [0.0, 3.0]]}
        assert multiaffine_from_json(doc) == P

    def test_theorem2_instance_round_trip(self):
        inst = generate_theorem2_instance(7, seed=3, radius=0.5, center=1 - 2j)
        doc = json.loads(dumps(theorem2_instance_to_json(inst)))
        assert sorted(doc) == ["disk", "inner_zeros", "outer_zero"]
        assert theorem2_instance_from_json(doc) == inst

    def test_theorem2_instance_must_be_an_object(self):
        with pytest.raises(InvalidInput, match="theorem2 instance JSON must be an object"):
            theorem2_instance_from_json([1.0])
