"""polygeom command-line interface.

Exit codes: 0 all checks passed (including a correctly rejected
hypothesis), 1 a verified property failed, 2 invalid input, 3 numerical
failure (the root finder did not converge at the configured tolerance;
no relaxed tolerance is retried) or another error.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager

from . import jsonio
from .apolarity import apolarity_functional, is_apolar
from .campaign import (
    ERROR,
    FAIL,
    PASS,
    PROPERTIES,
    CampaignConfig,
    Verdict,
    replay_verdict,
    run_campaign,
)
from .coincidence import theorem1_apolarity_residual
from .derivative_bound import generate_theorem2_instance
from .errors import InvalidInput, NonConvergence, PolygeomError, TheoremViolation
from .rootfind import DEFAULT_TOL, find_roots
from .svgplot import emit_svg

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INVALID = 2
EXIT_NUMERICAL = 3


def _emit(doc: dict, args) -> None:
    text = jsonio.dumps(doc)
    if getattr(args, "json_out", None):
        with _writable(args.json_out):
            with open(args.json_out, "w", encoding="utf-8", newline="\n") as f:
                f.write(text + "\n")
    else:
        print(text)


@contextmanager
def _writable(path: str):
    """An output file that cannot be written is invalid input (exit 2),
    as jsonio.load_file makes an unreadable input file."""
    try:
        yield
    except OSError as e:
        raise InvalidInput(f"cannot write {path}: {e.strerror}") from None


def _exit_code(v: Verdict) -> int:
    """The exit code of grace, coincidence, theorem2 --instance and replay."""
    if v.status == ERROR:
        return EXIT_INVALID if isinstance(v.error, InvalidInput) else EXIT_NUMERICAL
    return EXIT_FAILURE if v.status == FAIL else EXIT_OK


def _verdict(args, prop: str, inst: dict, fields=None) -> int:
    """Print the verdict of one instance, reached as replay reaches it, plus
    fields(report) when the check produced a report; return the exit code."""
    _, v = replay_verdict(inst, prop)
    status = "theorem-violation" if isinstance(v.error, TheoremViolation) else v.status
    doc = {"schema": jsonio.SCHEMA, "status": status}
    if v.status != PASS:
        doc["diagnostic"] = v.diagnostic
    if v.witness is not None:
        doc["witness"] = jsonio.complex_to_json(v.witness)
    if fields is not None and v.report is not None:
        doc.update(fields(v.report))
    _emit(doc, args)
    return _exit_code(v)


def _cmd_roots(args) -> int:
    p = jsonio.poly_from_json(jsonio.load_file(args.poly))
    try:
        rs = find_roots(p, tol=args.tol)
    except NonConvergence as e:
        _emit({"schema": jsonio.SCHEMA, "error": "non-convergence",
               "roots": jsonio.points_to_json(e.roots),
               "residuals": list(e.residuals)}, args)
        return EXIT_NUMERICAL
    _emit(jsonio.rootset_to_json(rs), args)
    return EXIT_OK


def _cmd_apolar(args) -> int:
    a = jsonio.poly_from_json(jsonio.load_file(args.a))
    b = jsonio.poly_from_json(jsonio.load_file(args.b))
    value = apolarity_functional(a, b, args.n)
    _emit({"schema": jsonio.SCHEMA, "value": jsonio.complex_to_json(value),
           "apolar": is_apolar(a, b, args.n)}, args)
    return EXIT_OK


def _cmd_grace(args) -> int:
    a, b = jsonio.load_file(args.a), jsonio.load_file(args.b)
    n = args.n
    if n is None:
        n = max(jsonio.poly_from_json(a).degree(), jsonio.poly_from_json(b).degree())
    return _verdict(args, "grace",
                    {"a": a, "b": b, "region": jsonio.load_file(args.region), "n": n})


def _cmd_coincidence(args) -> int:
    inst = {"multiaffine": jsonio.load_file(args.multiaffine),
            "points": jsonio.load_file(args.points),
            "region": jsonio.load_file(args.region),
            "classic": args.classic, "force": args.force}

    def fields(hyp) -> dict:
        P = jsonio.multiaffine_from_json(inst["multiaffine"])
        w = jsonio.points_from_json(inst["points"])
        return {
            "hypothesis": {
                "holds": hyp.holds,
                "derivative_roots": jsonio.points_to_json(hyp.derivative_roots),
                "outside": jsonio.points_to_json(hyp.outside),
            },
            "apolarity_residual": (
                theorem1_apolarity_residual(P, w) if P.total_degree >= 1 else 0.0
            ),
        }
    return _verdict(args, "walsh_classic" if args.classic else "theorem1_convex", inst, fields)


def _cmd_theorem2(args) -> int:
    if args.generate:
        if args.n is None:
            raise InvalidInput("--generate requires --n")
        inst = generate_theorem2_instance(
            args.n, seed=args.seed, radius=args.radius,
            outer_distance=args.outer_distance,
        )
        _emit({"schema": jsonio.SCHEMA, **jsonio.theorem2_instance_to_json(inst)}, args)
        return EXIT_OK

    if args.instance is None or args.k is None:
        raise InvalidInput("need --instance and --k (or --generate)")
    inst = jsonio.load_file(args.instance)
    if not isinstance(inst, dict):
        raise InvalidInput("a theorem2 instance must be a JSON object")
    inst["k"] = args.k
    return _verdict(args, "theorem2", inst, lambda r: {
        "n": r.n, "k": r.k, "bound": r.bound, "count_in_disk": r.count_in_disk,
        "satisfied": r.satisfied, "vacuous": r.vacuous, "mean_residual": r.mean_residual,
        "derivative_roots": jsonio.points_to_json(r.derivative_roots)})


def _cmd_fuzz(args) -> int:
    cfg = CampaignConfig(
        property=args.property, trials=args.trials, seed=args.seed,
        n_min=args.n_min, n_max=args.n_max, root_tol=args.tol, jobs=args.jobs,
    )
    report = run_campaign(cfg)
    _emit(report.to_json(), args)
    if report.errored:
        return EXIT_NUMERICAL
    return EXIT_OK if report.failed == 0 else EXIT_FAILURE


def _cmd_replay(args) -> int:
    doc, v = replay_verdict(jsonio.load_file(args.instance), args.property)
    _emit(doc, args)
    return _exit_code(v)


def _cmd_plot(args) -> int:
    point_sets = []
    if args.points:
        point_sets.append(("points", jsonio.points_from_json(jsonio.load_file(args.points))))
    if args.poly:
        p = jsonio.poly_from_json(jsonio.load_file(args.poly))
        rs = find_roots(p)
        point_sets.append(("zeros", list(rs.roots)))
        if p.degree() >= 2:
            point_sets.append(("critical points", list(find_roots(p.derivative()).roots)))
    regions = []
    if args.region:
        regions.append(jsonio.region_from_json(jsonio.load_file(args.region)))
    with _writable(args.svg_out):
        emit_svg(point_sets, regions, args.svg_out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="polygeom")
    sub = ap.add_subparsers(dest="command", required=True)

    # each subcommand takes only the options it reads
    p = sub.add_parser("roots", help="all zeros of a polynomial")
    p.add_argument("--poly", required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("apolar", help="apolarity functional of two polynomials")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_apolar)

    p = sub.add_parser("grace", help="in-region root of b for an apolar pair")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--region", required=True)
    p.add_argument("--n", type=int)
    p.set_defaults(func=_cmd_grace)

    p = sub.add_parser("coincidence", help="coincidence witness over a circular region")
    p.add_argument("--multiaffine", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--region", required=True)
    p.add_argument("--classic", action="store_true",
                   help="check the classical hypothesis (points in region)")
    p.add_argument("--force", action="store_true",
                   help="attempt the witness solve even if the hypothesis fails")
    p.set_defaults(func=_cmd_coincidence)

    p = sub.add_parser("theorem2", help="derivative-zero count bound in a disk")
    p.add_argument("--instance")
    p.add_argument("--k", type=int)
    p.add_argument("--generate", action="store_true")
    p.add_argument("--n", type=int)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--outer-distance", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_theorem2)

    p = sub.add_parser("fuzz", help="deterministic randomized campaign")
    p.add_argument("--property", required=True, choices=sorted(PROPERTIES))
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=12)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("replay", help="re-run one recorded instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--property")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("plot", help="SVG scatter of points/zeros and regions")
    p.add_argument("--points")
    p.add_argument("--poly")
    p.add_argument("--region")
    p.add_argument("--svg-out", required=True)
    p.set_defaults(func=_cmd_plot)

    for name, p in sub.choices.items():
        if name != "plot":
            p.add_argument("--json-out")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidInput as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except PolygeomError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
