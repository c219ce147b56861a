import cmath
import json
import math
import os
import subprocess
import sys

import pytest

import polygeom
from polygeom.cli import main


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _no_constant(name):
    raise ValueError(f"non-finite literal {name} in CLI output")


def strict_json(text):
    """A document the CLI wrote, read as strict JSON: NaN and Infinity are
    an error."""
    return json.loads(text, parse_constant=_no_constant)


def read_json(path):
    with open(path) as f:
        return strict_json(f.read())


@pytest.fixture
def unit_disk(tmp_path):
    return write(tmp_path, "disk.json",
                 {"kind": "disk", "closed": True, "center": [0, 0], "radius": 1})


class TestRoots:
    def test_quadratic(self, tmp_path, capsys):
        poly = write(tmp_path, "p.json", {"coeffs": [[-1, 0], [0, 0], [1, 0]]})
        assert main(["roots", "--poly", poly]) == 0
        doc = strict_json(capsys.readouterr().out)
        assert doc["schema"] == "polygeom/1"
        roots = sorted(r[0] for r in doc["roots"])
        assert abs(roots[0] + 1) < 1e-10 and abs(roots[1] - 1) < 1e-10

    def test_json_out(self, tmp_path):
        poly = write(tmp_path, "p.json", {"coeffs": [[-1, 0], [0, 0], [1, 0]]})
        out = tmp_path / "roots.json"
        assert main(["roots", "--poly", poly, "--json-out", str(out)]) == 0
        assert len(read_json(out)["roots"]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["roots", "--poly", str(tmp_path / "missing.json")]) == 2

    def test_directory_is_invalid_input(self, tmp_path, capsys):
        assert main(["roots", "--poly", str(tmp_path)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_file_that_is_not_json_is_invalid_input(self, tmp_path, capsys):
        poly = tmp_path / "p.json"
        poly.write_text("coeffs: [1, 2]")
        assert main(["roots", "--poly", str(poly)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_non_finite_residual_is_written_as_null(self, tmp_path, capsys):
        # the root's scaled residual is NaN: strict JSON has no literal for
        # it, so it is null, and the document still parses
        poly = write(tmp_path, "p.json", {"coeffs": [[-1.5e308, -1.5e308], [1, 0]]})
        assert main(["roots", "--poly", poly]) == 3
        doc = strict_json(capsys.readouterr().out)
        assert doc["error"] == "non-convergence"
        assert doc["residuals"] == [None]
        assert doc["roots"] == [[1.5e308, 1.5e308]]

    def test_overflowing_companion_matrix_is_solved(self, tmp_path, capsys):
        # 1e200 + 1e-200 z^3: -a_0/a_3 overflows, and the roots do not
        poly = write(tmp_path, "p.json", {"coeffs": [[1e200, 0], [0, 0], [0, 0], [1e-200, 0]]})
        assert main(["roots", "--poly", poly]) == 0
        assert len(strict_json(capsys.readouterr().out)["roots"]) == 3

    def test_overflowing_coefficient_modulus_is_a_numerical_failure(self, tmp_path, capsys):
        # |a_0| of this degree-16 polynomial overflows a float: a numerical
        # failure under roots and under replay, not a crash
        coeffs = {"coeffs": [[1.5e308, 1.5e308]] + [[0, 0]] * 15 + [[1, 0]]}
        assert main(["roots", "--poly", write(tmp_path, "p.json", coeffs)]) == 3
        assert strict_json(capsys.readouterr().out)["error"] == "non-convergence"
        inst = {"property": "gauss_lucas", "poly": coeffs}
        assert main(["replay", "--instance", write(tmp_path, "i.json", inst)]) == 3
        assert strict_json(capsys.readouterr().out)["status"] == "error"


class TestTolerance:
    @pytest.mark.parametrize("tol", ["inf", "1e400", "nan"])
    def test_roots_rejects(self, tmp_path, capsys, tol):
        poly = write(tmp_path, "p.json", {"coeffs": [[-1, 0], [0, 0], [1, 0]]})
        assert main(["roots", "--poly", poly, "--tol", tol]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("tol", ["inf", "1e400", "nan"])
    def test_fuzz_rejects(self, tmp_path, capsys, tol):
        out = tmp_path / "r.json"
        assert main(["fuzz", "--property", "grace", "--trials", "2", "--tol", tol,
                     "--json-out", str(out)]) == 2
        assert not out.exists()

    def test_fuzz_rejects_a_range_below_the_least_degree(self, tmp_path, capsys):
        # grace draws degree 2 at least: no trial can be drawn from 1..1
        out = tmp_path / "r.json"
        assert main(["fuzz", "--property", "grace", "--trials", "2", "--n-min", "1",
                     "--n-max", "1", "--json-out", str(out)]) == 2
        assert "grace needs n_max >= 2" in capsys.readouterr().err
        assert not out.exists()

    def test_replay_at_the_campaign_tolerance(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        assert main(["fuzz", "--property", "grace", "--trials", "2", "--seed", "1",
                     "--tol", "1e-30", "--json-out", str(report)]) == 3
        failure = read_json(report)["failures"][0]
        inst = write(tmp_path, "inst.json", failure["instance"])
        assert main(["replay", "--instance", inst]) == 3
        doc = strict_json(capsys.readouterr().out)
        assert (doc["status"], doc["diagnostic"]) == ("error", failure["diagnostic"])


class TestApolar:
    def test_apolar_pair(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", {"coeffs": [[1, 0], [-2, 0], [1, 0]]})
        b = write(tmp_path, "b.json", {"coeffs": [[0, 0], [-1, 0], [1, 0]]})
        assert main(["apolar", "--a", a, "--b", b, "--n", "2"]) == 0
        doc = strict_json(capsys.readouterr().out)
        assert doc["apolar"] is True
        assert abs(doc["value"][0]) < 1e-12

    def test_frame_degree_0_is_invalid_input(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", _QUAD_A)
        b = write(tmp_path, "b.json", _QUAD_B)
        assert main(["apolar", "--a", a, "--b", b, "--n", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "frame degree must be >= 1" in err

    def test_overflowing_pairing_is_invalid_input(self, tmp_path, capsys):
        # A(a, b) is (inf+nanj): no residual, so no answer either way
        a = write(tmp_path, "a.json", _HUGE_A)
        b = write(tmp_path, "b.json", _HUGE_B)
        assert main(["apolar", "--a", a, "--b", b, "--n", "2"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "overflows" in err

    def test_finite_pairing_over_an_overflowing_scale(self, tmp_path, capsys):
        # A(a, b) = 1e308 - 1e308 = 0 exactly, over a scale of inf
        a = write(tmp_path, "a.json", _HUGE_A)
        b = write(tmp_path, "b.json", {"coeffs": [[1, 0], [0, 0], [-1, 0]]})
        assert main(["apolar", "--a", a, "--b", b, "--n", "2"]) == 0
        doc = strict_json(capsys.readouterr().out)
        assert doc["apolar"] is True and doc["value"] == [0.0, 0.0]


    def test_overflowing_coefficient_paired_with_zero(self, tmp_path, capsys):
        # |1.5e308+1.5e308j| is inf, but it pairs with b_1 = 0: A = 2e-9 is the
        # whole of its scale, not apolar
        a = write(tmp_path, "a.json", _HUGE_MIDDLE_A)
        b = write(tmp_path, "b.json", _ZERO_MIDDLE_B)
        assert main(["apolar", "--a", a, "--b", b, "--n", "2"]) == 0
        doc = strict_json(capsys.readouterr().out)
        assert doc["apolar"] is False


class TestGrace:
    def test_witness(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", {"coeffs": [[1, 0], [-2, 0], [1, 0]]})
        b = write(tmp_path, "b.json", {"coeffs": [[0, 0], [-1, 0], [1, 0]]})
        region = write(tmp_path, "r.json",
                       {"kind": "disk", "closed": True, "center": [1, 0], "radius": 0.1})
        assert main(["grace", "--a", a, "--b", b, "--region", region, "--n", "2"]) == 0
        doc = strict_json(capsys.readouterr().out)
        assert doc["status"] == "pass"
        assert abs(doc["witness"][0] - 1) < 1e-9

    def test_overflowing_pairing_is_invalid_input(self, tmp_path, capsys):
        # not a hypothesis violation, which a campaign would count as passed
        a = write(tmp_path, "a.json", _HUGE_A)
        b = write(tmp_path, "b.json", _HUGE_B)
        region = write(tmp_path, "r.json", {"kind": "disk", "center": [0, 0], "radius": 2})
        assert main(["grace", "--a", a, "--b", b, "--region", region]) == 2
        doc = strict_json(capsys.readouterr().out)
        assert doc["status"] == "error"
        assert doc["diagnostic"].startswith("InvalidInput: the apolarity pairing overflows")

    def test_overflowing_coefficient_paired_with_zero(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", _HUGE_MIDDLE_A)
        b = write(tmp_path, "b.json", _ZERO_MIDDLE_B)
        region = write(tmp_path, "r.json", {"kind": "disk", "center": [0, 0], "radius": 2})
        assert main(["grace", "--a", a, "--b", b, "--region", region]) == 0
        doc = strict_json(capsys.readouterr().out)
        assert doc["status"] == "hypothesis-violation"
        assert doc["diagnostic"] == "pair is not apolar: A(a,b) = (2e-09+0j)"


class TestCoincidence:
    def fixture_files(self, tmp_path):
        ma = write(tmp_path, "ma.json", {"n": 2, "E": [[0, 0], [1, 0]]})
        pts = write(tmp_path, "w.json", [[-1, 0], [1, 0]])
        return ma, pts

    def test_witness_in_disk(self, tmp_path, unit_disk, capsys):
        ma, pts = self.fixture_files(tmp_path)
        code = main(["coincidence", "--multiaffine", ma, "--points", pts,
                     "--region", unit_disk])
        assert code == 0
        doc = strict_json(capsys.readouterr().out)
        assert doc["status"] == "pass"
        assert abs(doc["witness"][0]) < 1e-10
        assert doc["hypothesis"]["holds"] is True
        assert doc["apolarity_residual"] <= 1e-10

    def test_counterexample_on_exterior(self, tmp_path, capsys):
        ma, pts = self.fixture_files(tmp_path)
        region = write(tmp_path, "ext.json",
                       {"kind": "exterior", "closed": True, "center": [0, 0], "radius": 1})
        code = main(["coincidence", "--multiaffine", ma, "--points", pts,
                     "--region", region])
        assert code == 0
        doc = strict_json(capsys.readouterr().out)
        assert doc["status"] == "hypothesis-violation"

    def test_total_degree_n_reports_the_points(self, tmp_path, unit_disk, capsys):
        # m = n: the zeroth derivative, so the points are the derivative roots
        ma = write(tmp_path, "ma.json", {"n": 3, "E": [[0, 0], [0, 0], [0, 0], [1, 0]]})
        points = [[0.5, 0.25], [-0.5, 0], [0, -0.75]]
        pts = write(tmp_path, "w.json", points)
        assert main(["coincidence", "--multiaffine", ma, "--points", pts,
                     "--region", unit_disk]) == 0
        doc = strict_json(capsys.readouterr().out)
        assert doc["status"] == "pass"
        assert doc["hypothesis"]["derivative_roots"] == points

    # Walsh's hypothesis is theorem 1's at m = n, so it has the same cap on
    # the number of points, wherever the points lie
    @pytest.mark.parametrize("where", [0.5, 5.0])
    def test_classic_above_n_max_is_invalid_input(self, tmp_path, unit_disk, capsys, where):
        n = 61
        ma = write(tmp_path, "ma.json", {"n": n, "E": [[0, 0]] * n + [[1, 0]]})
        pts = write(tmp_path, "w.json", [[where, 0]] * n)
        assert main(["coincidence", "--multiaffine", ma, "--points", pts,
                     "--region", unit_disk, "--classic"]) == 2
        doc = strict_json(capsys.readouterr().out)
        assert doc["status"] == "error"
        assert doc["diagnostic"] == "DegreeTooLarge: n=61 exceeds N_MAX=60"

    def test_forced_solve_finds_no_witness(self, tmp_path, capsys):
        ma, pts = self.fixture_files(tmp_path)
        region = write(tmp_path, "ext.json",
                       {"kind": "exterior", "closed": True, "center": [0, 0], "radius": 1})
        code = main(["coincidence", "--multiaffine", ma, "--points", pts,
                     "--region", region, "--force"])
        assert code == 1
        doc = strict_json(capsys.readouterr().out)
        assert doc["status"] == "theorem-violation"


class TestTheorem2:
    def test_generate_then_check(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        assert main(["theorem2", "--generate", "--n", "5", "--seed", "3",
                     "--radius", "1.0", "--outer-distance", "3.0",
                     "--json-out", str(out)]) == 0
        assert main(["theorem2", "--instance", str(out), "--k", "1"]) == 0
        doc = strict_json(capsys.readouterr().out)
        assert doc["satisfied"] is True
        assert doc["count_in_disk"] >= doc["bound"]

    def test_generate_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["theorem2", "--generate", "--n", "6", "--seed", "11"]
        main(args + ["--json-out", str(a)])
        main(args + ["--json-out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    # JSON has no NaN or Infinity, and 1.5e308 puts the outer zero past the
    # largest float
    @pytest.mark.parametrize("distance", ["nan", "inf", "1.5e308"])
    def test_generate_rejects_a_non_finite_outer_zero(self, capsys, distance):
        assert main(["theorem2", "--generate", "--n", "5",
                     "--outer-distance", distance]) == 2
        assert capsys.readouterr().out == ""

    # finite zeros whose disk-frame polynomial (zeros (z - c) / r), or one
    # of its derivatives, overflows: the check could not run them
    @pytest.mark.parametrize("scale", [["--radius", "1e-300", "--outer-distance", "1e300"],
                                       ["--outer-distance", "1e308"]])
    def test_generate_rejects_an_overflowing_disk_frame(self, capsys, scale):
        assert main(["theorem2", "--generate", "--n", "5", *scale]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "overflows" in err


    @pytest.mark.parametrize("n,code", [(60, 0), (61, 2), (1500, 2)])
    def test_generate_degree_bound(self, capsys, n, code):
        assert main(["theorem2", "--generate", "--n", str(n)]) == code
        assert (capsys.readouterr().out == "") == (code == 2)

    @pytest.mark.parametrize("argv,message", [
        (["--generate"], "--generate requires --n"),
        (["--k", "1"], "need --instance and --k (or --generate)"),
        (["--instance", "{list}", "--k", "1"], "a theorem2 instance must be a JSON object"),
    ], ids=["generate-without-n", "neither", "instance-a-list"])
    def test_argument_errors(self, tmp_path, capsys, argv, message):
        listed = write(tmp_path, "inst.json", [[0, 0], [1, 0]])
        assert main(["theorem2"] + [a.format(list=listed) for a in argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"


class TestUnwritableOutput:
    # exit 1 means a verified property failed: a report that cannot be
    # written is invalid input (exit 2), as an unreadable input file is
    @pytest.mark.parametrize("cmd", [
        ["roots", "--poly", "{poly}", "--json-out", "{out}.json"],
        ["fuzz", "--property", "gauss_lucas", "--trials", "5", "--json-out", "{out}.json"],
        ["plot", "--poly", "{poly}", "--svg-out", "{out}.svg"],
    ])
    def test_missing_directory_is_invalid_input(self, tmp_path, capsys, cmd):
        poly = write(tmp_path, "p.json", {"coeffs": [[-1, 0], [0, 0], [1, 0]]})
        out = str(tmp_path / "missing" / "out")
        assert main([a.format(poly=poly, out=out) for a in cmd]) == 2
        assert "cannot write" in capsys.readouterr().err


class TestFuzzAndReplay:
    def test_fuzz_report(self, tmp_path):
        out = tmp_path / "rep.json"
        code = main(["fuzz", "--property", "derivative_identity", "--trials", "20",
                     "--seed", "2", "--json-out", str(out)])
        assert code == 0
        doc = read_json(out)
        assert doc["passed"] == 20
        assert doc["passed"] + doc["failed"] + doc["errored"] == 20

    def test_fuzz_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["fuzz", "--property", "grace", "--trials", "30", "--seed", "7"]
        main(args + ["--json-out", str(a)])
        main(args + ["--json-out", str(b), "--jobs", "2"])
        assert a.read_bytes() == b.read_bytes()

    def test_replay_counterexample(self, tmp_path, capsys):
        inst = write(tmp_path, "fix.json", {
            "property": "theorem1_convex",
            "multiaffine": {"n": 2, "E": [[0, 0], [1, 0]]},
            "points": [[-1, 0], [1, 0]],
            "region": {"kind": "exterior", "closed": True,
                       "center": [0, 0], "radius": 1},
        })
        assert main(["replay", "--instance", inst]) == 0
        doc = strict_json(capsys.readouterr().out)
        assert doc["status"] == "hypothesis-violation"

    @pytest.mark.parametrize("a1", [-1e150, -1e200])
    def test_replay_gauss_lucas_with_a_long_hull_edge(self, tmp_path, capsys, a1):
        # roots near 1/a1 and a1: at -1e200 the hull edge's squared length
        # overflows a float, and the verdict is still a pass, not a traceback
        inst = write(tmp_path, "gl.json", {"property": "gauss_lucas",
                                           "poly": {"coeffs": [[1, 0], [a1, 0], [1, 0]]}})
        assert main(["replay", "--instance", inst]) == 0
        doc = strict_json(capsys.readouterr().out)
        assert doc["property"] == "gauss_lucas" and doc["status"] == "pass"


class TestPlot:
    def test_byte_stable_svg(self, tmp_path, unit_disk):
        pts = write(tmp_path, "pts.json", [[0, 0], [1, 0], [0, 1]])
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        assert main(["plot", "--points", pts, "--region", unit_disk,
                     "--svg-out", str(a)]) == 0
        assert main(["plot", "--points", pts, "--region", unit_disk,
                     "--svg-out", str(b)]) == 0
        content = a.read_bytes()
        assert content == b.read_bytes()
        assert content.count(b"<circle") >= 4  # 3 markers + region outline

    def test_three_markers_without_region(self, tmp_path):
        pts = write(tmp_path, "pts.json", [[0, 0], [2, 1], [0, 1]])
        out = tmp_path / "p.svg"
        assert main(["plot", "--points", pts, "--svg-out", str(out)]) == 0
        assert out.read_text().count('r="3.5"') == 3

    # a frame whose span overflows a float (the disk, and the half-plane
    # 1.5e308 from the zeros), and a finite frame across which the
    # half-plane's boundary line would overflow
    @pytest.mark.parametrize("region", [
        {"kind": "disk", "closed": True, "center": [0, 0], "radius": 1e308},
        {"kind": "halfplane", "closed": True, "direction": [1, 0], "offset": 1.5e308},
        {"kind": "halfplane", "closed": True, "direction": [1, 0], "offset": 1e308},
    ], ids=["disk", "halfplane", "halfplane-line"])
    def test_a_region_beyond_a_float_is_invalid(self, tmp_path, capsys, region):
        poly = write(tmp_path, "p.json", {"coeffs": [[-1, 0], [0, 0], [1, 0]]})
        out = tmp_path / "o.svg"
        assert main(["plot", "--poly", poly, "--region", write(tmp_path, "r.json", region),
                     "--svg-out", str(out)]) == 2
        assert "not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_nothing_to_draw_is_an_empty_frame(self, tmp_path):
        out = tmp_path / "o.svg"
        assert main(["plot", "--svg-out", str(out)]) == 0
        svg = out.read_text()
        assert "<rect" in svg and "<circle" not in svg and "<line" not in svg

    def test_non_convergent_zeros_are_a_numerical_failure(self, tmp_path, capsys):
        poly = write(tmp_path, "p.json", {"coeffs": [[-1.5e308, -1.5e308], [1, 0]]})
        out = tmp_path / "o.svg"
        assert main(["plot", "--poly", poly, "--svg-out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error: residuals above tol")
        assert not out.exists()


def _disk(center, radius, kind="disk"):
    return {"kind": kind, "closed": True, "center": center, "radius": radius}


_QUAD_A = {"coeffs": [[1, 0], [-2, 0], [1, 0]]}
_QUAD_B = {"coeffs": [[0, 0], [-1, 0], [1, 0]]}
# a pair whose apolarity pairing overflows to (inf+nanj)
_HUGE_A = {"coeffs": [[1e308, 0], [0, 0], [1e308, 0]]}
_HUGE_B = {"coeffs": [[1e308, 0], [1e308, 0], [1e308, 0]]}
# a pair whose one overflowing modulus, |a_1|, pairs with b_1 = 0
_HUGE_MIDDLE_A = {"coeffs": [[1e-9, 0], [1.5e308, 1.5e308], [1e-9, 0]]}
_ZERO_MIDDLE_B = {"coeffs": [[1, 0], [0, 0], [1, 0]]}
_LINEAR_P = {"n": 2, "E": [[0, 0], [1, 0]]}
# p(w) = w: total degree n = 1, so theorem 1's hypothesis is the point itself
_IDENTITY_P = {"n": 1, "E": [[0, 0], [1, 0]]}
# Re(z) <= 0
_HALF_PLANE = {"kind": "halfplane", "closed": True, "direction": [1, 0], "offset": 0}
_CONVEX_PASS = {"property": "theorem1_convex", "multiaffine": _LINEAR_P,
                "points": [[-1, 0], [1, 0]], "region": _disk([0, 0], 1), "classic": False}

# (replay instance, exit code, status) for the direct subcommand and replay
AGREEMENT_CASES = {
    "grace-pass": ({"property": "grace", "n": 2, "a": _QUAD_A, "b": _QUAD_B,
                    "region": _disk([1, 0], 0.1)}, 0, "pass"),
    "walsh-classic-pass": ({"property": "walsh_classic", "multiaffine": _LINEAR_P,
                            "points": [[-1, 0], [1, 0]], "region": _disk([0, 0], 1),
                            "classic": True}, 0, "pass"),
    "theorem1-convex-pass": (_CONVEX_PASS, 0, "pass"),
    # a point count other than n, points that are not a list, a region of
    # no known kind, an exterior disk of radius 0 or a half-plane with no
    # direction: invalid input from both
    **{f"coincidence-{name}": ({**_CONVEX_PASS, key: v}, 2, "error") for name, key, v in (
        ("two-points-for-n-3", "multiaffine", {"n": 3, "E": [[0, 0], [1, 0]]}),
        ("points-a-number", "points", 5),
        ("annulus", "region", _disk([0, 0], 1, "annulus")),
        ("exterior-radius-0", "region", _disk([0, 0], 0, "exterior")),
        ("half-plane-no-direction", "region", {**_HALF_PLANE, "direction": [0, 0]}))},
    "theorem1-exterior-pass": ({"property": "theorem1_exterior", "multiaffine": _LINEAR_P,
                                "points": [[3, 0], [5, 0]],
                                "region": _disk([0, 0], 1, "exterior"),
                                "classic": False}, 0, "pass"),
    "theorem2-pass": ({"property": "theorem2", "k": 1,
                       "inner_zeros": [[0.5, 0], [-0.5, 0], [0, 0.5], [0, -0.5]],
                       "outer_zero": [3, 0], "disk": {"center": [0, 0], "radius": 1}},
                      0, "pass"),
    # a disk radius <= 0, inner zeros at its center: invalid input from both
    **{f"theorem2-radius-{r}": ({"property": "theorem2", "k": 1,
                                 "inner_zeros": [[0, 0], [0, 0]], "outer_zero": [3, 0],
                                 "disk": {"center": [0, 0], "radius": r}}, 2, "error")
       for r in (0, -1)},
    # one inner zero (n = 2): not a theorem 2 instance
    "theorem2-one-inner-zero": ({"property": "theorem2", "k": 1, "inner_zeros": [[0, 0]],
                                 "outer_zero": [3, 0], "disk": {"center": [0, 0], "radius": 1}},
                                2, "error"),
    # the derivative identity at k = n: invalid input
    "derivative-identity-k-equal-n": ({"property": "derivative_identity", "n": 3, "k": 3,
                                       "y": [1, 0]}, 2, "error"),
    # an inner zero outside the disk: not a theorem 2 instance
    "theorem2-inner-zero-outside": ({"property": "theorem2", "k": 1,
                                     "inner_zeros": [[2, 0], [-2, 0]], "outer_zero": [3, 0],
                                     "disk": {"center": [0, 0], "radius": 1}}, 2, "error"),
    # a = (z - 1)^2 with the roots it was built from
    "grace-a-roots-pass": ({"property": "grace", "n": 2, "a": _QUAD_A,
                            "a_roots": [[1, 0], [1, 0]], "b": _QUAD_B,
                            "region": _disk([1, 0], 0.1)}, 0, "pass"),
    "grace-a-roots-outside": ({"property": "grace", "n": 2, "a": _QUAD_A,
                               "a_roots": [[1, 0], [1, 0]], "b": _QUAD_B,
                               "region": _disk([5, 0], 0.5)}, 0, "hypothesis-violation"),
    # a_roots that do not rebuild a: invalid input
    "grace-a-roots-mismatch": ({"property": "grace", "n": 2, "a": _QUAD_A,
                                "a_roots": [[1, 0], [2, 0]], "b": _QUAD_B,
                                "region": _disk([1, 0], 0.1)}, 2, "error"),
    # a multiaffine n that is not an integer or is 0, an empty E, or a
    # total degree above n: invalid input from both
    **{f"coincidence-n-{n!r}": ({"property": "theorem1_convex",
                                 "multiaffine": {"n": n, "E": [[0, 0], [1, 0]]},
                                 "points": [[-1, 0], [1, 0]], "region": _disk([0, 0], 1),
                                 "classic": False}, 2, "error")
       for n in (2.7, "2", True, 0)},
    **{f"coincidence-{name}": ({"property": "theorem1_convex",
                                "multiaffine": {"n": 2, "E": E},
                                "points": [[-1, 0], [1, 0]], "region": _disk([0, 0], 1),
                                "classic": False}, 2, "error")
       for name, E in (("empty-E", []), ("degree-above-n", [[0, 0]] * 3 + [[1, 0]]))},
    # b of degree n+1: invalid input from both
    "grace-degree-mismatch": ({"property": "grace", "n": 2, "a": _QUAD_A,
                               "b": {"coeffs": [[0, 0], [-1, 0], [1, 0], [1, 0]]},
                               "region": _disk([1, 0], 0.1)}, 2, "error"),
    # q' = 2z - 2e15: its zero 1e15 lies outside the unit disk
    "theorem1-constant-derivative": ({"property": "theorem1_convex",
                                      "multiaffine": _LINEAR_P,
                                      "points": [[1e15, 0], [1e15, 0]],
                                      "region": _disk([0, 0], 1), "classic": False},
                                     0, "hypothesis-violation"),
    # the paper's counterexample: a correctly rejected hypothesis
    "paper-exterior-counterexample": ({"property": "theorem1_convex",
                                       "multiaffine": _LINEAR_P,
                                       "points": [[-1, 0], [1, 0]],
                                       "region": _disk([0, 0], 1, "exterior"),
                                       "classic": False}, 0, "hypothesis-violation"),
    # the same, with a trailing E_2 = 0: the total degree is still 1
    "paper-exterior-counterexample-trailing-zero": (
        {"property": "theorem1_exterior", "multiaffine": {"n": 2, "E": [[0, 0], [1, 0], [0, 0]]},
         "points": [[-1, 0], [1, 0]], "region": _disk([0, 0], 1, "exterior"),
         "classic": False}, 0, "hypothesis-violation"),
    # a boolean field given as a string or a number: invalid input
    **{f"closed-{v!r}": ({"property": "theorem1_convex", "multiaffine": _LINEAR_P,
                          "points": [[-1, 0], [1, 0]],
                          "region": {**_disk([0, 0], 1), "closed": v}, "classic": False},
                         2, "error") for v in ("false", 0)},
    **{f"{key}-{v!r}": ({"property": "walsh_classic", "multiaffine": _LINEAR_P,
                         "points": [[-1, 0], [1, 0]], "region": _disk([0, 0], 1),
                         "classic": True, key: v}, 2, "error")
       for key in ("classic", "force") for v in ("false", 1)},
    # finite points whose modulus, or distance to the disk's centre, is
    # beyond the largest float: membership decides them by geometry
    **{f"{prop}-huge-{name}": ({"property": prop, "multiaffine": _IDENTITY_P,
                                "points": [point], "region": region,
                                "classic": prop == "walsh_classic"}, 0, status)
       for prop in ("walsh_classic", "theorem1_convex")
       for name, point, region, status in (
           ("point-in-unit-disk", [1.5e308, 1.5e308], _disk([0, 0], 1), "hypothesis-violation"),
           ("point-in-half-plane", [1.5e308, 1.5e308], _HALF_PLANE, "hypothesis-violation"),
           ("distance-to-disk", [7e307, 7e307], _disk([-7e307, -7e307], 1),
            "hypothesis-violation"),
           ("distance-to-exterior", [7e307, 7e307], _disk([-7e307, -7e307], 1, "exterior"),
            "pass"))},
}


# the grace subcommand reads the coefficients of a, not a_roots, so it
# cannot state a mismatch between them; the coincidence subcommand sets
# classic and force from flags, so it cannot give them a wrong type; no
# subcommand but replay checks the derivative identity
REPLAY_ONLY = {"grace-a-roots-mismatch", "derivative-identity-k-equal-n",
               *(f"{key}-{v!r}" for key in ("classic", "force") for v in ("false", 1))}


def subcommand_argv(tmp_path, inst):
    prop = inst["property"]
    if prop == "grace":
        return ["grace", "--a", write(tmp_path, "a.json", inst["a"]),
                "--b", write(tmp_path, "b.json", inst["b"]),
                "--region", write(tmp_path, "r.json", inst["region"]),
                "--n", str(inst["n"])]
    if prop == "theorem2":
        doc = {key: inst[key] for key in ("inner_zeros", "outer_zero", "disk")}
        return ["theorem2", "--instance", write(tmp_path, "t2.json", doc),
                "--k", str(inst["k"])]
    return ["coincidence", "--multiaffine", write(tmp_path, "ma.json", inst["multiaffine"]),
            "--points", write(tmp_path, "w.json", inst["points"]),
            "--region", write(tmp_path, "r.json", inst["region"])] + (
        ["--classic"] if inst["classic"] else [])


class TestSubcommandAgreesWithReplay:
    @pytest.mark.parametrize("case", sorted(AGREEMENT_CASES))
    def test_same_exit_code_and_status(self, tmp_path, capsys, case):
        inst, code, status = AGREEMENT_CASES[case]
        if case not in REPLAY_ONLY:
            assert main(subcommand_argv(tmp_path, inst)) == code
            direct = strict_json(capsys.readouterr().out)
            assert direct["status"] == status
        assert main(["replay", "--instance", write(tmp_path, "inst.json", inst)]) == code
        replayed = strict_json(capsys.readouterr().out)
        assert replayed["status"] == status

    def test_missing_key_is_invalid_input(self, tmp_path, capsys):
        inst = dict(AGREEMENT_CASES["theorem1-convex-pass"][0])
        del inst["points"]
        assert main(["replay", "--instance", write(tmp_path, "inst.json", inst)]) == 2
        region = write(tmp_path, "r.json", {"kind": "disk", "center": [1, 0]})
        assert main(["grace", "--a", write(tmp_path, "a.json", _QUAD_A),
                     "--b", write(tmp_path, "b.json", _QUAD_B), "--region", region]) == 2


class TestNonFiniteInput:
    @pytest.mark.parametrize("region_text", [
        '{"kind": "disk", "center": [0, 0], "radius": NaN}',
        '{"kind": "exterior", "center": [0, 0], "radius": Infinity}',
        '{"kind": "disk", "center": [0, 0], "radius": 1e999}',
        '{"kind": "halfplane", "direction": [1, 0], "offset": -Infinity}',
        # a JSON number must be a number, not a string or a boolean
        '{"kind": "disk", "center": [0, 0], "radius": "1"}',
        '{"kind": "disk", "center": [0, 0], "radius": true}',
    ])
    def test_region_rejected(self, tmp_path, capsys, region_text):
        region = tmp_path / "r.json"
        region.write_text(region_text)
        code = main(["grace", "--a", write(tmp_path, "a.json", _QUAD_A),
                     "--b", write(tmp_path, "b.json", _QUAD_B), "--region", str(region)])
        assert code == 2


class TestOptions:
    @pytest.mark.parametrize("flag", [["--tol", "1e-300"], ["--jobs", "-7"],
                                      ["--seed", "99"], ["--svg-out", "x.svg"]])
    def test_grace_rejects_options_it_does_not_read(self, tmp_path, flag):
        argv = subcommand_argv(tmp_path, AGREEMENT_CASES["grace-pass"][0])
        with pytest.raises(SystemExit) as exc:
            main(argv + flag)
        assert exc.value.code == 2

    def test_roots_has_no_iteration_limit_option(self, tmp_path):
        poly = write(tmp_path, "p.json", {"coeffs": [[-1, 0], [0, 0], [1, 0]]})
        with pytest.raises(SystemExit) as exc:
            main(["roots", "--poly", poly, "--max-iter", "-3"])
        assert exc.value.code == 2

    def test_theorem1_alias_removed(self, tmp_path):
        argv = subcommand_argv(tmp_path, AGREEMENT_CASES["theorem1-convex-pass"][0])
        with pytest.raises(SystemExit):
            main(["theorem1"] + argv[1:])


def _theorem1_far_region(n):
    """n points in [0, 1) with m = 1, and a disk that misses their mean."""
    return {"property": "theorem1_convex", "multiaffine": {"n": n, "E": [[0, 0], [1, 0]]},
            "points": [[j / n, 0] for j in range(n)], "region": _disk([50, 0], 0.1),
            "classic": False}


def _theorem2_symmetric(m, k):
    """m inner zeros in pairs ±z on the circle of radius 1/2 (mean exactly 0)."""
    zs = [cmath.rect(0.5, math.pi * j / m) for j in range(m // 2)]
    return {"property": "theorem2", "k": k,
            "inner_zeros": [[s * z.real, s * z.imag] for z in zs for s in (1, -1)],
            "outer_zero": [3, 0], "disk": {"center": [0, 0], "radius": 1}}


class TestWrongShapeInput:
    @pytest.mark.parametrize("key,doc", [("region", [1, 2]), ("a", [1, 2]),
                                         ("b", {"coeffs": 5}),
                                         ("a", {"coeffs": [[1, 0], ["-2", 0], [1, 0]]})])
    def test_grace_input_of_wrong_shape(self, tmp_path, key, doc):
        docs = {"a": _QUAD_A, "b": _QUAD_B, "region": _disk([1, 0], 0.1), key: doc}
        argv = ["grace"] + [x for name, d in docs.items()
                            for x in (f"--{name}", write(tmp_path, f"{name}.json", d))]
        assert main(argv) == 2

    # integer fields: an integral number is read as an integer; a fraction,
    # a string or a boolean is invalid input
    @pytest.mark.parametrize("inst,code", [
        ({**AGREEMENT_CASES["grace-pass"][0], "n": 2.0}, 0),
        ({**AGREEMENT_CASES["grace-pass"][0], "n": True}, 2),
        ({**AGREEMENT_CASES["theorem2-pass"][0], "k": 1.0}, 0),
        ({**AGREEMENT_CASES["theorem2-pass"][0], "k": 1.5}, 2),
        ({**AGREEMENT_CASES["theorem2-pass"][0], "k": "1"}, 2),
        ({"property": "derivative_identity", "n": 3.5, "k": 1, "y": [0.5, 0]}, 2),
        ({"property": "derivative_identity", "n": 4, "k": False, "y": [0.5, 0]}, 2),
        ({"property": "apolarity_identity", "n": "3", "a": [[1, 0]], "a2": [[1, 0]],
          "b": [[1, 0]], "alpha": [1, 0], "c": [1, 0]}, 2),
        # a degree above N_MAX = 60 is invalid input, rejected before any
        # polynomial of that degree is built
        ({"property": "derivative_identity", "n": 61, "k": 1, "y": [0.5, 0.5]}, 2),
        ({"property": "derivative_identity", "n": 300, "k": 1, "y": [0.5, 0.5]}, 2),
        ({"property": "apolarity_identity", "n": 10 ** 6, "a": [[1, 0]], "a2": [[1, 0]],
          "b": [[1, 0]], "alpha": [1, 0], "c": [1, 0]}, 2),
        # so are theorem 1 points and theorem 2 zeros beyond N_MAX
        (_theorem1_far_region(61), 2),
        (_theorem1_far_region(200), 2),
        (_theorem2_symmetric(70, 1), 2),
        (_theorem2_symmetric(200, 150), 2),
        # and a gauss_lucas polynomial of degree 200, z^200 + 1
        ({"property": "gauss_lucas", "poly": {"coeffs": [[1, 0]] + [[0, 0]] * 199 + [[1, 0]]}},
         2),
    ], ids=["grace-n-2.0", "grace-n-true", "theorem2-k-1.0", "theorem2-k-1.5",
            "theorem2-k-string", "derivative-n-3.5", "derivative-k-false",
            "apolarity-n-string", "derivative-n-61", "derivative-n-300",
            "apolarity-n-1e6", "theorem1-61-points", "theorem1-200-points",
            "theorem2-70-zeros", "theorem2-200-zeros", "gauss-lucas-degree-200"])
    def test_replay_reads_integer_fields(self, tmp_path, capsys, inst, code):
        assert main(["replay", "--instance", write(tmp_path, "inst.json", inst)]) == code
        assert strict_json(capsys.readouterr().out)["status"] == ("pass" if code == 0 else "error")

    def test_replay_of_an_array(self, tmp_path):
        assert main(["replay", "--instance", write(tmp_path, "inst.json", [1, 2])]) == 2

    def test_replay_of_a_non_string_property(self, tmp_path):
        inst = {**AGREEMENT_CASES["grace-pass"][0], "property": ["grace"]}
        assert main(["replay", "--instance", write(tmp_path, "inst.json", inst)]) == 2

    def test_roots_of_non_list_coeffs(self, tmp_path):
        assert main(["roots", "--poly", write(tmp_path, "p.json", {"coeffs": 5})]) == 2

    def test_coincidence_multiaffine_of_wrong_shape(self, tmp_path):
        inst = dict(AGREEMENT_CASES["theorem1-convex-pass"][0], multiaffine=[2, [0, 0]])
        assert main(subcommand_argv(tmp_path, inst)) == 2


def test_cli_start_loads_no_process_pool():
    # the pool's modules load only when a campaign starts a pool
    code = ("import sys, polygeom.cli; "
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing')"
            " if m in sys.modules))")
    src = os.path.dirname(os.path.dirname(polygeom.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
