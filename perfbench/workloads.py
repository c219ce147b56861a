"""The four workloads: what each runs, and the reference each output is
checked against. Import only after `run.py` has put the checkout's `src`
on `sys.path` and pinned the BLAS/OpenMP thread counts.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace

from polygeom import campaign, jsonio
from polygeom.apolarity import apolarity_functional, grace_witness, is_apolar
from polygeom.campaign import PROPERTIES, CampaignConfig, replay, run_campaign
from polygeom.coincidence import (
    SymmetricMultiaffine,
    coincidence_witness,
    theorem1_hypothesis,
)
from polygeom.derivative_bound import Theorem2Instance, check_theorem2
from polygeom.errors import (
    HypothesisViolated,
    InvalidInput,
    NonConvergence,
    TheoremViolation,
)
from polygeom.rootfind import find_roots
from polygeom.svgplot import emit_svg

FAMILY = {
    "grace": "grace",
    "walsh_classic": "coincidence",
    "theorem1_convex": "coincidence",
    "theorem1_exterior": "coincidence",
    "theorem2": "theorem2",
    "gauss_lucas": "gauss_lucas",
    "apolarity_identity": "identity",
    "derivative_identity": "identity",
}
FAMILIES = ("grace", "coincidence", "theorem2", "gauss_lucas", "identity")

# the CLI/acceptance degree ranges; gauss_lucas and derivative_identity
# draw their own degree and ignore the range
LOWDEG = tuple((p, 3, 15) if p == "theorem2" else (p, 2, 12) for p in FAMILY)
HIGHDEG = tuple((p, 25, 60) for p in
                ("grace", "walsh_classic", "theorem1_convex", "theorem1_exterior", "theorem2"))
LOW_RANGE = {p: (lo, hi) for p, lo, hi in LOWDEG}

# bound at import, before any tracer wraps jsonio: the benchmark's own
# serialization of reports must not show up in the traced jsonio spans
_canonical = jsonio.dumps


def sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(len(p).to_bytes(8, "little"))
        h.update(p)
    return h.hexdigest()


@dataclass
class OpResult:
    """What one timed operation (a campaign or a CLI invocation) did."""

    key: str
    kind: str
    family: str | None
    wall_s: float
    attempted: int
    ref_s: float = 0.0  # wall_s in reference seconds, set by bench.run_op
    verified: int = 0
    failed: int = 0
    errored: int = 0
    hypothesis: int = 0
    mismatches: int = 0
    digest: str = ""
    failures: list = field(default_factory=list)
    cli: bool = False
    crashed: int = 0


class Gates:
    """Correctness gates: how many checks each ran and how many failed."""

    def __init__(self):
        self.checked: dict[str, int] = {}
        self.mismatched: dict[str, int] = {}

    def check(self, gate: str, ok: bool, detail: str = "") -> bool:
        self.checked[gate] = self.checked.get(gate, 0) + 1
        if not ok:
            self.mismatched[gate] = self.mismatched.get(gate, 0) + 1
            print(f"gate {gate} failed: {detail}", file=sys.stderr)
        return ok

    @property
    def mismatches(self) -> int:
        return sum(self.mismatched.values())

    def to_json(self) -> dict:
        return {g: {"checked": n, "mismatches": self.mismatched.get(g, 0)}
                for g, n in sorted(self.checked.items())}


# ------------------------------------------------------------ campaigns

# failures replayed per first-round campaign: at high degree a campaign
# records over a hundred, and each replay costs a trial
FAILURE_REPLAYS = 5
WARMUP_SEED = -1  # (-1 << 20) | k: negative, so no --seed >= 0 reaches it


class CampaignWorkload:
    """Rounds of one `run_campaign` call per property, all at `jobs`."""

    def __init__(self, props, trials: int, jobs: int, min_rounds: int, smoke: bool):
        self.props = props
        self.min_rounds = min_rounds
        self.trials = 3 if smoke else trials
        self.jobs = jobs
        # how bench.Clock samples the machine's speed while a campaign
        # runs: the trials run in this process, or in pool workers on
        # every vCPU
        self.sample_mode = "here" if jobs == 1 else "each-vcpu"
        self.warmup_trials = 1 if smoke else 2

    def config(self, seed: int, round_: int, j: int, trials: int | None = None):
        prop, lo, hi = self.props[j]
        return CampaignConfig(property=prop, trials=trials or self.trials,
                              seed=(seed << 20) | (round_ << 4) | j,
                              n_min=lo, n_max=hi, jobs=self.jobs)

    def prepare(self, seed: int, work_dir: str):
        """Warm-up: a tiny campaign per property. Its seeds are fixed, so
        set-up does the same work for every workload seed, and the timed
        rounds never use them."""
        reports = [run_campaign(self.config(WARMUP_SEED, 0, j, self.warmup_trials))
                   for j in range(len(self.props))]
        return seed, sha(*(_canonical(r.to_json()).encode() for r in reports))

    def rounds(self, state):
        seed = state
        for r in itertools.count():
            yield [self.config(seed, r, j) for j in range(len(self.props))]

    def run(self, cfg, gates: Gates, keep_failures: bool, trace_out: str | None) -> OpResult:
        key = f"{cfg.property}@{cfg.seed}"
        start = time.perf_counter()
        try:
            # through the module attribute, so a traced run sees the wrapper
            report = campaign.run_campaign(cfg)
        except Exception as e:
            # the program under test crashed (find_roots can let an
            # OverflowError out at high degree): a
            # reproducible outcome, counted as errored trials, not a
            # failure of the benchmark
            wall = time.perf_counter() - start
            print(f"campaign {key} raised {type(e).__name__}: {e}", file=sys.stderr)
            return OpResult(key=key, kind=cfg.property, family=FAMILY[cfg.property],
                            wall_s=wall, attempted=cfg.trials, errored=cfg.trials,
                            crashed=1, digest=sha(f"{type(e).__name__}: {e}".encode()))
        wall = time.perf_counter() - start
        hyp = len(report.notes)
        res = OpResult(
            key=key, kind=cfg.property, family=FAMILY[cfg.property],
            wall_s=wall, attempted=cfg.trials, verified=report.passed - hyp,
            failed=report.failed, errored=report.errored, hypothesis=hyp,
            digest=sha(_canonical(report.to_json()).encode()),
            failures=report.failures[:FAILURE_REPLAYS] if keep_failures else [],
        )
        if not gates.check("counts", report.passed + report.failed + report.errored
                           == cfg.trials and hyp <= report.passed, res.key):
            res.mismatches += 1
        return res

    def post_gates(self, ops: list[OpResult], configs: list, gates: Gates) -> None:
        """Replay the first recorded failures of each first-round campaign.
        For a pool workload, rerun one first-round campaign at jobs=1: same
        canonical bytes. A rerun costs as much as the campaign, so the
        workload seed picks which one; ten seeds cover the eight properties."""
        first = len(self.props)
        for op, cfg in zip(ops[:first], configs[:first]):
            differ = [f["trial_seed"] for f in op.failures
                      if f["instance"] is not None
                      and not _replays_to(replay(f["instance"], cfg.property, cfg), f)]
            gates.check("failure_replay", not differ, f"{op.key} trial seeds {differ}")
        if self.jobs > 1:
            k = (configs[0].seed >> 20) % first
            op, cfg = ops[k], configs[k]
            if not op.crashed:
                serial = run_campaign(replace(cfg, jobs=1))
                gates.check("pool_vs_serial",
                            sha(_canonical(serial.to_json()).encode()) == op.digest, op.key)


def _replays_to(verdict: dict, failure: dict) -> bool:
    return (verdict["status"] in ("fail", "error")
            and verdict["diagnostic"] == failure["diagnostic"])


# ------------------------------------------------------------------ CLI

CLI_SUBCOMMANDS = ("roots", "apolar", "grace", "coincidence", "theorem2", "replay", "plot")
_COINCIDENCE_PROPS = ("walsh_classic", "theorem1_convex", "theorem1_exterior")
_REPLAY_PROPS = tuple(FAMILY)


@dataclass
class CliSpec:
    """One CLI invocation and the output an in-process reference predicts."""

    index: int
    kind: str
    family: str | None
    argv: list[str]
    code: int
    verdict: str
    stdout: bytes | None = None      # exact expected stdout
    subset: dict | None = None       # expected values of some stdout keys
    svg_path: str | None = None
    svg: bytes | None = None


def _as_cli(compute):
    """Run a reference computation and map its exception to the CLI exit code."""
    try:
        return compute()
    except NonConvergence:
        return 3, None
    except (InvalidInput, KeyError, ValueError):
        return 2, None
    except Exception:
        # PolygeomError is exit 1 by cli.main; any other exception escapes
        # main, and the interpreter exits 1 with an empty stdout
        return 1, None


def _exit_verdict(code: int) -> str:
    return {0: "pass", 1: "fail", 3: "error"}.get(code, "invalid")


def _instance(prop: str, rng: random.Random) -> dict:
    lo, hi = LOW_RANGE[prop]
    gen, _ = PROPERTIES[prop]
    return gen(rng, CampaignConfig(property=prop, trials=1, n_min=lo, n_max=hi))


def _ref_roots(poly_doc):
    def compute():
        try:
            rs = find_roots(jsonio.poly_from_json(poly_doc))
        except NonConvergence as e:
            return 3, {"schema": jsonio.SCHEMA, "error": "non-convergence",
                       "roots": jsonio.points_to_json(e.roots),
                       "residuals": list(e.residuals)}
        return 0, jsonio.rootset_to_json(rs)
    return _as_cli(compute)


def _ref_witness(solve):
    def compute():
        try:
            z = solve()
        except HypothesisViolated:
            return 0, {"status": "hypothesis-violation"}
        except TheoremViolation:
            return 1, {"status": "theorem-violation"}
        return 0, {"status": "pass", "witness": jsonio.complex_to_json(z)}
    return _as_cli(compute)


class CliWorkload:
    """Closed loop, one client: sequential `python -m polygeom.cli` runs
    over instance files written in setup."""

    sample_mode = None  # the work is in a child process: bracketed

    def __init__(self, root: str, shim: str, min_rounds: int, smoke: bool):
        self.root = root
        self.shim = shim
        self.min_rounds = min_rounds
        self.count = len(CLI_SUBCOMMANDS) * (1 if smoke else 12)
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)

    def prepare(self, seed: int, work_dir: str):
        os.makedirs(work_dir, exist_ok=True)
        specs = [self._spec(seed, k, work_dir) for k in range(self.count)]
        digest = sha(*(repr((s.argv, s.code, s.verdict, s.stdout, s.subset, s.svg)).encode()
                       for s in specs))
        return specs, digest

    def _spec(self, seed: int, k: int, work_dir: str) -> CliSpec:
        kind = CLI_SUBCOMMANDS[k % len(CLI_SUBCOMMANDS)]
        cycle = k // len(CLI_SUBCOMMANDS)
        rng = random.Random((seed << 20) | k)

        def put(role: str, doc) -> str:
            path = os.path.join(work_dir, f"{k:03d}-{role}.json")
            with open(path, "w", encoding="utf-8", newline="\n") as f:
                f.write(_canonical(doc) + "\n")
            return path

        family = None
        stdout = subset = svg = svg_path = None
        if kind == "roots":
            poly = _instance("gauss_lucas", rng)["poly"]
            argv = ["roots", "--poly", put("poly", poly)]
            code, doc = _ref_roots(poly)
            stdout = doc
        elif kind == "apolar":
            inst = _instance("grace", rng)
            a, b, n = (jsonio.poly_from_json(inst["a"]), jsonio.poly_from_json(inst["b"]),
                       inst["n"])
            argv = ["apolar", "--a", put("a", inst["a"]), "--b", put("b", inst["b"]),
                    "--n", str(n)]
            code, stdout = _as_cli(lambda: (0, {
                "schema": jsonio.SCHEMA,
                "value": jsonio.complex_to_json(apolarity_functional(a, b, n)),
                "apolar": is_apolar(a, b, n)}))
        elif kind == "grace":
            family = "grace"
            inst = _instance("grace", rng)
            a, b = jsonio.poly_from_json(inst["a"]), jsonio.poly_from_json(inst["b"])
            region = jsonio.region_from_json(inst["region"])
            argv = ["grace", "--a", put("a", inst["a"]), "--b", put("b", inst["b"]),
                    "--region", put("region", inst["region"]), "--n", str(inst["n"])]
            code, subset = _ref_witness(lambda: grace_witness(a, b, inst["n"], region))
        elif kind == "coincidence":
            family = "coincidence"
            inst = _instance(_COINCIDENCE_PROPS[cycle % len(_COINCIDENCE_PROPS)], rng)
            ma = inst["multiaffine"]
            P = SymmetricMultiaffine(ma["n"], jsonio.points_from_json(ma["E"]), trim=False)
            w = jsonio.points_from_json(inst["points"])
            region = jsonio.region_from_json(inst["region"])
            classic = inst["classic"]
            argv = ["coincidence", "--multiaffine", put("multiaffine", ma),
                    "--points", put("points", inst["points"]),
                    "--region", put("region", inst["region"])] + (["--classic"] if classic else [])

            def solve():
                if not classic:
                    theorem1_hypothesis(w, max(P.total_degree, 1), region)
                return coincidence_witness(P, w, region, classic=classic)
            code, subset = _ref_witness(solve)
        elif kind == "theorem2":
            family = "theorem2"
            inst = _instance("theorem2", rng)
            t2 = Theorem2Instance(tuple(jsonio.points_from_json(inst["inner_zeros"])),
                                  jsonio.complex_from_json(inst["outer_zero"]),
                                  jsonio.disk_from_json(inst["disk"]))
            argv = ["theorem2", "--instance", put("instance", {
                key: inst[key] for key in ("inner_zeros", "outer_zero", "disk")}),
                "--k", str(inst["k"])]

            def compute():
                rep = check_theorem2(t2, inst["k"])
                return (0 if rep.satisfied else 1), {
                    "n": rep.n, "k": rep.k, "bound": rep.bound,
                    "count_in_disk": rep.count_in_disk, "satisfied": rep.satisfied}
            code, subset = _as_cli(compute)
        elif kind == "replay":
            prop = _REPLAY_PROPS[cycle % len(_REPLAY_PROPS)]
            family = FAMILY[prop]
            inst = _instance(prop, rng)
            argv = ["replay", "--instance", put("instance", inst)]

            def verdict_doc():
                doc = replay(inst)
                return {"fail": 1, "error": 3}.get(doc["status"], 0), doc
            code, stdout = _as_cli(verdict_doc)
            verdict = stdout["status"] if stdout else _exit_verdict(code)
        else:  # plot
            inst = _instance("walsh_classic", rng)
            poly = _instance("gauss_lucas", rng)["poly"]
            svg_path = os.path.join(work_dir, f"{k:03d}-plot.svg")
            argv = ["plot", "--poly", put("poly", poly), "--points", put("points", inst["points"]),
                    "--region", put("region", inst["region"]), "--svg-out", svg_path]
            ref_path = os.path.join(work_dir, f"{k:03d}-plot-ref.svg")

            def draw():
                p = jsonio.poly_from_json(poly)
                sets = [("points", jsonio.points_from_json(inst["points"])),
                        ("zeros", list(find_roots(p).roots))]
                if p.degree() >= 2:
                    sets.append(("critical points", list(find_roots(p.derivative()).roots)))
                emit_svg(sets, [jsonio.region_from_json(inst["region"])], ref_path)
                return 0, None
            code, _ = _as_cli(draw)
            if code == 0:
                with open(ref_path, "rb") as f:
                    svg = f.read()
            stdout = b""
        if kind != "replay":
            verdict = _exit_verdict(code)
            if subset is not None and subset.get("status") == "hypothesis-violation":
                verdict = "hypothesis-violation"
        if isinstance(stdout, dict):
            stdout = (_canonical(stdout) + "\n").encode()
        if stdout is None and subset is None:
            stdout = b""
        return CliSpec(k, kind, family, argv, code, verdict, stdout, subset, svg_path, svg)

    def rounds(self, specs):
        n = len(CLI_SUBCOMMANDS)
        for r in itertools.count():
            start = (r * n) % len(specs)
            yield specs[start:start + n]

    def run(self, spec: CliSpec, gates: Gates, keep_failures: bool,
            trace_out: str | None) -> OpResult:
        if spec.svg_path and os.path.exists(spec.svg_path):
            os.remove(spec.svg_path)
        if trace_out is None:
            cmd = [sys.executable, "-m", "polygeom.cli", *spec.argv]
        else:
            cmd = [sys.executable, self.shim, trace_out, f"i{spec.index}", *spec.argv]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                              timeout=120)
        wall = time.perf_counter() - start

        svg = b""
        if spec.svg_path and os.path.exists(spec.svg_path):
            with open(spec.svg_path, "rb") as f:
                svg = f.read()
        ok = proc.returncode == spec.code and svg == (spec.svg or b"")
        if spec.subset is None:
            ok = ok and proc.stdout == spec.stdout
        else:
            ok = ok and _subset_matches(proc.stdout, spec.subset)
        v = spec.verdict
        res = OpResult(
            key=f"{spec.kind}#{spec.index}", kind=spec.kind, family=spec.family, wall_s=wall,
            attempted=1, verified=int(ok and v == "pass"), failed=int(v == "fail"),
            errored=int(v == "error"), hypothesis=int(v == "hypothesis-violation"),
            digest=sha(str(proc.returncode).encode(), proc.stdout, svg), cli=True,
        )
        if not gates.check("cli_reference", ok,
                           f"{res.key}: exit {proc.returncode} (expected {spec.code}); "
                           f"stderr {proc.stderr[-300:]!r}"):
            res.mismatches += 1
        return res

    def post_gates(self, ops, specs, gates: Gates) -> None:
        pass


def _subset_matches(stdout: bytes, subset: dict) -> bool:
    try:
        doc = json.loads(stdout)
    except ValueError:
        return False
    expected = json.loads(_canonical(subset))
    return isinstance(doc, dict) and all(doc.get(k) == v for k, v in expected.items())
