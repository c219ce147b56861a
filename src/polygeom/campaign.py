"""Deterministic randomized verification campaigns.

Each trial derives its own generator state from (campaign seed, trial
index) through a 64-bit mixer, so trials are independent, reproducible,
and safe to run in parallel; the report is assembled in trial-index
order and is byte-identical at any --jobs setting.
"""

from __future__ import annotations

import cmath
import math
import os
import random
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

from . import jsonio
from .apolarity import apolarity_functional, make_apolar
from .coincidence import (
    WITNESS_TOL,
    SymmetricMultiaffine,
    _coincidence_core,
    _diagonal_equation,
    _grace_core,
)
from .derivative_bound import (
    MEAN_RESIDUAL_TOL,
    _gauss_lucas_core,
    _theorem2_core,
    _theorem2_instance_core,
    kth_derivative_identity,
)
from .errors import (
    HypothesisViolated,
    InvalidConfig,
    InvalidInput,
    NonConvergence,
    PolygeomError,
    TheoremViolation,
)
from .poly import N_MAX, Polynomial, from_roots
from .regions import MEMBERSHIP_TOL, disk, exterior_disk, half_plane, smallest_enclosing_disk
from .rootfind import DEFAULT_TOL, Product, _valid_tol, drive, drive_many

PASS = "pass"
FAIL = "fail"
ERROR = "error"
HYPOTHESIS_VIOLATION = "hypothesis-violation"


class Verdict(NamedTuple):
    """The outcome of one check, with the witness or report it computed,
    the exception that decided a non-pass status, and the instance that
    run_check decoded."""

    status: str
    diagnostic: str
    witness: complex | None = None
    report: object = None
    error: PolygeomError | None = None
    instance: object = None


_MASK = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def trial_seed(seed: int, index: int) -> int:
    return _splitmix64(_splitmix64(seed & _MASK) ^ ((index + 1) * 0xD1B54A32D192ED03))


@dataclass(frozen=True)
class CampaignConfig:
    property: str
    trials: int
    seed: int = 0
    n_min: int = 2
    n_max: int = 12
    root_tol: float = DEFAULT_TOL
    jobs: int = 1

    def validate(self) -> None:
        if self.property not in PROPERTIES:
            raise InvalidConfig(
                f"unknown property {self.property!r}; choose from {sorted(PROPERTIES)}"
            )
        if self.trials < 1:
            raise InvalidConfig("trials must be >= 1")
        if not 1 <= self.n_min <= self.n_max <= N_MAX:
            raise InvalidConfig(f"need 1 <= n_min <= n_max <= {N_MAX}")
        claim = CLAIMS[self.property]
        if claim.fixed is None and self.n_max < claim.least:
            raise InvalidConfig(f"{self.property} needs n_max >= {claim.least}")
        if not _valid_tol(self.root_tol):
            raise InvalidConfig(f"root_tol must be finite and > 0, got {self.root_tol!r}")
        if self.jobs < 1:
            raise InvalidConfig("jobs must be >= 1")

    def to_json(self) -> dict:
        return {
            "property": self.property,
            "trials": self.trials,
            "seed": self.seed,
            "n_min": self.n_min,
            "n_max": self.n_max,
            "root_tol": self.root_tol,
            "membership_tol": MEMBERSHIP_TOL,
            "witness_tol": WITNESS_TOL,
        }


@dataclass
class CampaignReport:
    config: CampaignConfig
    passed: int = 0
    failed: int = 0
    errored: int = 0
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "schema": jsonio.SCHEMA,
            "config": self.config.to_json(),
            "passed": self.passed,
            "failed": self.failed,
            "errored": self.errored,
            "failures": self.failures,
            "notes": self.notes,
        }


# ------------------------- instance generators -------------------------


class Claim(NamedTuple):
    """Every fact about one campaign property: its generator core
    make(rng, n), a core as its check core is (see rootfind.drive_many),
    or make(rng, n, ahead) for one told whether a chunk drives it with its
    check; its check core; the encoder and decoder of its jsonio instance
    format; and its degree rule: n is drawn from the configured range
    clipped to least..cap, or from the fixed (lo, hi) whatever the range."""

    make: Callable
    check: Callable
    encode: Callable
    decode: Callable
    least: int = 1
    cap: int = N_MAX
    fixed: tuple[int, int] | None = None
    ahead: bool = False


def _generator(prop: str, claim: Claim):
    """The instance generator of prop: gen(rng, cfg, core=False) draws n
    by its record's rule, then starts its core with n. With core=True it
    returns the core, for a chunk to drive with its trial's check; else it
    runs it through rootfind.drive at cfg.root_tol and returns the
    instance dict, or raises its error."""
    make, least, cap, fixed, ahead = claim.make, claim.least, claim.cap, claim.fixed, claim.ahead

    def gen(rng: random.Random, cfg: CampaignConfig, core: bool = False):
        n = (rng.randint(*fixed) if fixed else
             rng.randint(min(max(least, cfg.n_min), cap), min(cfg.n_max, cap)))
        started = make(rng, n, core) if ahead else make(rng, n)
        return started if core else _instance_json(prop, drive(started, cfg.root_tol))

    return gen


def _unit_box(rng: random.Random) -> complex:
    return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))


def _point_in_disk(rng: random.Random, center: complex, radius: float) -> complex:
    return center + cmath.rect(radius * math.sqrt(rng.random()), rng.uniform(0, 2 * math.pi))


def _random_region_with_points(rng: random.Random, count: int):
    """A random disk or half-plane plus `count` points inside it."""
    if rng.random() < 0.5:
        center = 2.0 * _unit_box(rng)
        radius = rng.uniform(0.3, 2.0)
        region = disk(center, radius)
        pts = [_point_in_disk(rng, center, 0.9 * radius) for _ in range(count)]
    else:
        direction = cmath.rect(1.0, rng.uniform(0, 2 * math.pi))
        offset = rng.uniform(-2.0, 2.0)
        region = half_plane(direction, offset)
        pts = [
            direction * complex(offset - rng.uniform(0.05, 2.0), rng.uniform(-2.0, 2.0))
            for _ in range(count)
        ]
    return region, pts


def _gen_grace(rng: random.Random, n: int):
    region, roots = _random_region_with_points(rng, n)
    a = Polynomial((yield Product(roots)))
    b = make_apolar(a, n, seed=rng.getrandbits(32))
    while b.degree() != n:
        b = make_apolar(a, n, seed=rng.getrandbits(32))
    # a is built from these roots, so the check needs no root find on a
    return jsonio.GraceTrial(n, a, b, region, tuple(roots))


def _check_grace(inst: jsonio.GraceTrial):
    w = yield from _grace_core(inst.a, inst.b, inst.n, inst.region, inst.a_roots)
    return Verdict(PASS, f"witness {w}", w)


def _random_multiaffine(rng: random.Random, n: int, m: int) -> SymmetricMultiaffine:
    E = [_unit_box(rng) for _ in range(m + 1)]
    while abs(E[m]) < 0.1:
        E[m] = _unit_box(rng)
    return SymmetricMultiaffine(n, E)


def _gen_walsh_classic(rng: random.Random, n: int):
    yield from ()  # requests nothing
    P = _random_multiaffine(rng, n, n)
    w = tuple(2.0 * _unit_box(rng) for _ in range(n))
    sed = smallest_enclosing_disk(w)
    region = disk(sed.center, max(sed.radius, 1e-9))
    return jsonio.CoincidenceTrial(P, w, region, classic=True)


def _gen_theorem1(rng: random.Random, n: int, ahead: bool, exterior: bool):
    """A theorem 1 instance, whose region is shaped by the zeros of q^(n-m)
    (the points w at m = n). Driven ahead of its check (ahead), it asks
    for the roots of q^(n-m) together with those of the diagonal equation
    g, which its check will ask for, so that the chunk that drives both
    finds them in one solve; g's outcome is not read here, and alone
    nothing would keep it, so g is not asked for then. A g that cannot be
    built is not asked for: the check builds it and fails as alone. A g
    that is not certified is kept with its error, which the check is
    given, as it would be alone."""
    m = rng.randint(1, n)
    P = _random_multiaffine(rng, n, m)
    w = [2.0 * _unit_box(rng) for _ in range(n)]
    c = yield Product(w)
    q = Polynomial(c).derivative(n - m) if m < n else None
    g = None
    if ahead:
        try:
            g = _diagonal_equation(P, c)
        except PolygeomError:
            pass
    found = yield [p for p in (q, g) if p is not None and p.degree() >= 1]
    if q is None:
        droots = w
    elif isinstance(found[0], PolygeomError):
        raise found[0]
    else:
        droots = found[0].roots

    if exterior:
        while True:
            center = 4.0 * _unit_box(rng)
            d = min(abs(r - center) for r in droots)
            if d > 1e-6:
                break
        region = exterior_disk(center, d / 2.0)
    elif rng.random() < 0.5:
        sed = smallest_enclosing_disk(droots)
        region = disk(sed.center, sed.radius + 1e-9 * (1.0 + sed.radius))
    else:
        direction = cmath.rect(1.0, rng.uniform(0, 2 * math.pi))
        offset = max((z * direction.conjugate()).real for z in droots)
        region = half_plane(direction, offset + 1e-9 * (1.0 + abs(offset)))

    return jsonio.CoincidenceTrial(P, tuple(w), region)


def _check_coincidence(inst: jsonio.CoincidenceTrial):
    z, hyp = yield from _coincidence_core(inst.multiaffine, inst.points, inst.region,
                                          check_hypothesis=not inst.force,
                                          classic=inst.classic)
    return Verdict(PASS, f"witness {z}", z, hyp)


def _gen_theorem2(rng: random.Random, n: int):
    k = rng.randint(1, n - 1)
    radius = rng.uniform(0.1, 3.0)
    factor = rng.uniform(1.01, 2.0) if rng.random() < 0.5 else rng.uniform(2.0, 100.0)
    inst = yield from _theorem2_instance_core(
        n,
        seed=rng.getrandbits(32),
        radius=radius,
        outer_distance=radius * factor,
        center=2.0 * _unit_box(rng),
    )
    return jsonio.Theorem2Trial(inst, k)


def _check_theorem2(inst: jsonio.Theorem2Trial):
    report = yield from _theorem2_core(inst.instance, inst.k)
    if not report.satisfied:
        return Verdict(FAIL, (
            f"count {report.count_in_disk} < bound {report.bound} "
            f"(n={report.n}, k={report.k})"
        ), report=report)
    if report.mean_residual > MEAN_RESIDUAL_TOL:
        return Verdict(FAIL, (f"mean residual {report.mean_residual:.3e} "
                              f"above {MEAN_RESIDUAL_TOL:g}"), report=report)
    return Verdict(PASS, f"count {report.count_in_disk} >= bound {report.bound}",
                   report=report)


def _gen_apolarity_identity(rng: random.Random, n: int):
    yield from ()  # requests nothing
    a, a2, b = (tuple(_unit_box(rng) for _ in range(n + 1)) for _ in range(3))
    return jsonio.ApolarityIdentityTrial(n, a, a2, b, _unit_box(rng), 2.0 * _unit_box(rng))


def _check_apolarity_identity(inst: jsonio.ApolarityIdentityTrial):
    yield from ()  # requests no roots
    n, alpha, c = inst.n, inst.alpha, inst.c
    a, a2, b = Polynomial(inst.a), Polynomial(inst.a2), Polynomial(inst.b)

    lin = apolarity_functional(alpha * a + a2, b, n) - (
        alpha * apolarity_functional(a, b, n) + apolarity_functional(a2, b, n)
    )
    swap = apolarity_functional(b, a, n) - (-1) ** n * apolarity_functional(a, b, n)
    point = apolarity_functional(from_roots([c] * n), b, n) - (-1) ** n * b(c)

    scale = 1.0 + abs(apolarity_functional(a, b, n)) + abs(b(c))
    worst = max(abs(lin), abs(swap), abs(point)) / scale
    if worst > 1e-10:
        return Verdict(FAIL, f"identity residual {worst:.3e} above 1e-10")
    return Verdict(PASS, f"residual {worst:.3e}")


def _gen_derivative_identity(rng: random.Random, n: int):
    yield from ()  # requests nothing
    k = rng.randint(1, n - 1)
    return jsonio.DerivativeIdentityTrial(n, k, _unit_box(rng))


def _check_derivative_identity(inst: jsonio.DerivativeIdentityTrial):
    yield from ()  # requests no roots
    res = kth_derivative_identity(inst.n, inst.k, inst.y)
    if res > 1e-11:
        return Verdict(FAIL, f"closed-form residual {res:.3e} above 1e-11")
    return Verdict(PASS, f"residual {res:.3e}")


def _gen_gauss_lucas(rng: random.Random, n: int):
    yield from ()  # requests nothing
    coeffs = [_unit_box(rng) for _ in range(n + 1)]
    while abs(coeffs[n]) < 0.1:
        coeffs[n] = _unit_box(rng)
    return jsonio.GaussLucasTrial(Polynomial(coeffs))


def _check_gauss_lucas(inst: jsonio.GaussLucasTrial):
    if (yield from _gauss_lucas_core(inst.poly)):
        return Verdict(PASS, "all critical points in the root hull")
    return Verdict(FAIL, "critical point outside the root hull")


# property -> its record: a new property is one row
CLAIMS = {
    "grace": Claim(_gen_grace, _check_grace, jsonio.grace_trial_to_json,
                   jsonio.grace_trial_from_json, least=2),
    "walsh_classic": Claim(_gen_walsh_classic, _check_coincidence,
                           jsonio.coincidence_trial_to_json,
                           jsonio.coincidence_trial_from_json, least=2),
    "theorem1_convex": Claim(partial(_gen_theorem1, exterior=False), _check_coincidence,
                             jsonio.coincidence_trial_to_json,
                             jsonio.coincidence_trial_from_json, least=2, ahead=True),
    "theorem1_exterior": Claim(partial(_gen_theorem1, exterior=True), _check_coincidence,
                               jsonio.coincidence_trial_to_json,
                               jsonio.coincidence_trial_from_json, least=2, ahead=True),
    "theorem2": Claim(_gen_theorem2, _check_theorem2, jsonio.theorem2_trial_to_json,
                      jsonio.theorem2_trial_from_json, least=3),
    "apolarity_identity": Claim(_gen_apolarity_identity, _check_apolarity_identity,
                                jsonio.apolarity_identity_trial_to_json,
                                jsonio.apolarity_identity_trial_from_json, cap=20),
    "derivative_identity": Claim(_gen_derivative_identity, _check_derivative_identity,
                                 jsonio.derivative_identity_trial_to_json,
                                 jsonio.derivative_identity_trial_from_json, fixed=(2, 20)),
    "gauss_lucas": Claim(_gen_gauss_lucas, _check_gauss_lucas, jsonio.gauss_lucas_trial_to_json,
                         jsonio.gauss_lucas_trial_from_json, fixed=(2, 15)),
}

# property -> (instance generator, check), each called once per trial.
# An instance is JSON only where it leaves a chunk: gen(rng, cfg) returns
# the dict, a failure record holds it, and run_check and replay take it
PROPERTIES = {prop: (_generator(prop, claim), claim.check) for prop, claim in CLAIMS.items()}


def _instance_json(prop: str, inst) -> dict:
    """The instance dict of a trial of prop."""
    return {"property": prop, **CLAIMS[prop].encode(inst)}


def _as_verdict(outcome: Verdict | PolygeomError) -> Verdict:
    """What a check returned, or the status of the error it raised: the
    only place a check's exceptions become a status. No relaxed tolerance
    is retried, so a pass rests on the tolerance its roots were found at."""
    if isinstance(outcome, Verdict):
        return outcome
    e = outcome
    if isinstance(e, HypothesisViolated):
        return Verdict(HYPOTHESIS_VIOLATION, str(e), report=e.report, error=e)
    if isinstance(e, TheoremViolation):
        return Verdict(FAIL, str(e), report=e.report, error=e)
    if isinstance(e, NonConvergence):
        return Verdict(ERROR, f"root finding did not converge: {e}", error=e)
    return Verdict(ERROR, f"{type(e).__name__}: {e}", error=e)


def run_check(prop: str, inst: dict, root_tol: float) -> Verdict:
    """One verification of an instance dict, decoded once, its roots
    found at root_tol; the verdict holds the decoded instance. What the
    decoder raises is the verdict's error, as what the check raises is."""
    _, check = PROPERTIES[prop]
    try:
        decoded = CLAIMS[prop].decode(inst)
    except PolygeomError as e:
        return _as_verdict(e)
    return _as_verdict(drive_many([check(decoded)], root_tol)[0])._replace(instance=decoded)


def _trial(generating, check, rec: dict):
    """One trial as a core: its generator's core, then its check on the
    instance object, which is kept in rec. A generator's error ends the
    trial as a failed generation."""
    try:
        rec["instance"] = yield from generating
    except PolygeomError as e:
        return Verdict(ERROR, f"generation failed: {e}")
    return (yield from check(rec["instance"]))


def _run_chunk(cfg: CampaignConfig, start: int, stop: int) -> list[dict]:
    """Trials start..stop-1: each trial's generator core, called once
    through PROPERTIES, chained with its check, and all of them advanced
    in one drive_many call, so that each round builds the chunk's pending
    products in one batched pass or solves its pending root requests in
    one batch. So the chunk finds its roots in one solve: a theorem 1
    generator, driven as a core, asks for q^(n-m) and its check's
    diagonal equation together, and a check that asks for roots already
    asked for gets the same outcome back, a RootSet or an error. The
    chunk builds each product once. A record keeps its trial's instance
    as the object the generator returned (None after a failed
    generation); nothing is encoded here."""
    gen, check = PROPERTIES[cfg.property]
    records = [{"trial_seed": trial_seed(cfg.seed, i), "instance": None}
               for i in range(start, stop)]
    trials = [_trial(gen(random.Random(rec["trial_seed"]), cfg, core=True), check, rec)
              for rec in records]
    outcomes = drive_many(trials, cfg.root_tol)
    for rec, out in zip(records, outcomes):
        v = _as_verdict(out)
        rec.update(status=v.status, diagnostic=v.diagnostic)
    return records


def _chunk_report(cfg: CampaignConfig, start: int, stop: int) -> CampaignReport:
    """Trials start..stop-1 folded into a partial report: their counts,
    failures and notes, in trial order. Only a failed trial's instance is
    encoded, as its failure record's dict; a pool worker sends back only
    this report, not every trial's instance."""
    report = CampaignReport(config=cfg)
    for r in _run_chunk(cfg, start, stop):
        if r["status"] == PASS:
            report.passed += 1
        elif r["status"] in (FAIL, ERROR):
            report.failed += r["status"] == FAIL
            report.errored += r["status"] == ERROR
            # the instance carries the tolerance that replay re-runs it at
            inst = (None if r["instance"] is None else
                    {**_instance_json(cfg.property, r["instance"]), "root_tol": cfg.root_tol})
            report.failures.append(
                {"trial_seed": r["trial_seed"], "instance": inst,
                 "diagnostic": r["diagnostic"]}
            )
        else:
            # hypothesis violations are recorded, not counted as failures
            report.passed += 1
            report.notes.append(
                {"trial_seed": r["trial_seed"], "status": r["status"],
                 "diagnostic": r["diagnostic"]}
            )
    return report


# the most trials a chunk runs
_CHUNK_TRIALS = 128


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one (a cpuset of 2 on a 64-CPU host is 2), else the
    host's count, or 1 when that is unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_worker(cfg: CampaignConfig, starts, stops, counter, conn) -> None:
    """A pool worker: it claims the next chunk index from the shared
    counter and runs the chunk, until no chunk is left, then sends back
    its (index, partial report) pairs, or the exception a chunk raised
    with its traceback's text, which does not survive pickling."""
    done = []
    try:
        while True:
            with counter.get_lock():
                i = counter.value
                counter.value = i + 1
            if i >= len(starts):
                break
            done.append((i, _chunk_report(cfg, starts[i], stops[i])))
    except Exception as e:
        import traceback

        done = (e, traceback.format_exc())
    conn.send(done)
    conn.close()


def _pool_reports(cfg: CampaignConfig, starts, stops, workers: int) -> list[CampaignReport]:
    """The partial reports of the chunks starts[i]..stops[i]-1, in chunk
    order, from `workers` processes of the default multiprocessing
    context that this call starts and joins, so that what a worker runs
    at fork and at exit (a tracer's hooks, say) has run when it returns.
    A chunk's exception is raised here, and a worker that exits without
    sending its reports raises a RuntimeError naming its exit code; on
    any error, KeyboardInterrupt too, the other workers are terminated."""
    # imported here, so that importing the package, as every CLI start
    # does, loads no pool modules
    import multiprocessing
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context()
    counter = ctx.Value("q", 0)
    procs, readers = [], {}
    try:
        for _ in range(workers):
            reader, writer = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_pool_worker, args=(cfg, starts, stops, counter, writer))
            proc.start()
            procs.append(proc)
            readers[reader] = proc
            # the worker now holds the only writer, so the reader sees EOF
            # if it exits without sending, and no later worker inherits it
            writer.close()
        parts = [None] * len(starts)
        pending = dict(readers)
        while pending:
            for reader in wait(pending):
                proc = pending.pop(reader)
                try:
                    sent = reader.recv()
                except EOFError:
                    proc.join()
                    raise RuntimeError(f"campaign worker {proc.pid} exited with code "
                                       f"{proc.exitcode} without sending its reports") from None
                if isinstance(sent, tuple):
                    error, trace = sent
                    raise error from RuntimeError(f"in campaign worker {proc.pid}:\n{trace}")
                for i, part in sent:
                    parts[i] = part
        # a worker that has sent may still run its exit handlers (a
        # tracer writes its spans then): wait for it, do not terminate it
        for proc in procs:
            proc.join()
        return parts
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
            proc.join()
        for reader in readers:
            reader.close()


def run_campaign(config: CampaignConfig) -> CampaignReport:
    config.validate()
    # a chunk finds its roots in one _solve call, so a bigger
    # chunk makes fewer calls, whose sweeps have a fixed cost each, but
    # holds more checks and root requests alive at once (the solver's
    # evaluations hold only arrays the size of their points):
    # the trials are split evenly into chunks of at most _CHUNK_TRIALS,
    # and into at least 8 per CPU when more than one can run (no more
    # than there are CPUs), to balance the workers' load
    cpus = min(config.jobs, _usable_cpus())
    chunks = max(-(-config.trials // _CHUNK_TRIALS), 8 * cpus if cpus > 1 else 1)
    size = -(-config.trials // chunks)
    starts = range(0, config.trials, size)
    stops = [min(s + size, config.trials) for s in starts]
    # no more workers than there are chunks to run or CPUs to run them on
    workers = min(cpus, len(starts))
    if workers > 1:
        parts = _pool_reports(config, starts, stops, workers)
    else:
        parts = map(_chunk_report, [config] * len(starts), starts, stops)

    report = CampaignReport(config=config)
    for part in parts:
        report.passed += part.passed
        report.failed += part.failed
        report.errored += part.errored
        report.failures += part.failures
        report.notes += part.notes
    return report


def replay_verdict(inst: dict, prop: str | None = None,
                   cfg: CampaignConfig | None = None) -> tuple[dict, Verdict]:
    """Re-run exactly one recorded trial instance: its verdict document
    and the verdict itself."""
    inst = jsonio.read_instance(inst)
    prop = prop or inst.get("property")
    if not isinstance(prop, str) or prop not in PROPERTIES:
        raise InvalidInput(f"unknown or missing property {prop!r}")
    # a failure record's instance carries its campaign's root_tol
    root_tol = cfg.root_tol if cfg is not None else inst.get("root_tol", DEFAULT_TOL)
    if not _valid_tol(root_tol):
        raise InvalidConfig(f"root_tol must be finite and > 0, got {root_tol!r}")
    v = run_check(prop, inst, root_tol)
    return {"schema": jsonio.SCHEMA, "property": prop, "status": v.status,
            "diagnostic": v.diagnostic}, v


def replay(inst: dict, prop: str | None = None,
           cfg: CampaignConfig | None = None) -> dict:
    """Re-run exactly one recorded trial instance."""
    return replay_verdict(inst, prop, cfg)[0]
