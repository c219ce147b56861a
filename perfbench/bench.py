"""The benchmark's phases and metrics; `run.py` is the entry point.

Import only through `run.py`, which puts the checkout's `src` on
`sys.path` and pins the BLAS/OpenMP thread counts first.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
import warnings

import numpy

import tracer as tr
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5
# the import of polygeom.cli is timed in this many fresh interpreters too,
# besides the benchmark's own, and setup_s takes the median import time
IMPORT_REPEATS = 4
IMPORT_PROBE = ("import time; t = time.perf_counter(); import polygeom.cli; "
                "print(time.perf_counter() - t)")
BANDS = (("d02-15", 2, 15), ("d16-30", 16, 30), ("d31-60", 31, 60))
# per-layer metrics whose span has another name than the metric prefix
SPAN_ALIAS = {"poly.derivative": "poly.Polynomial.derivative"}


def declared_metrics() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}


# Trials per campaign, from the repo's own traffic: 1000 is the default of
# `polygeom fuzz --trials` and the README's example campaign; 200 is the
# smallest campaign the acceptance tests run, and at n 25-60 a round of
# five 200-trial campaigns already takes about 20 s on the reference machine.
# lowdeg-serial is not in BENCHMARK.json (see README.md) but stays runnable.
LOWDEG_TRIALS = 1000
HIGHDEG_TRIALS = 200
# Rounds a run makes at least; it makes more only while the rounds took
# fewer than --seconds reference seconds. At this revision a round takes
# 16-18 reference seconds on highdeg-serial and lowdeg-serial and 7-10 on
# lowdeg-pool, and 15 rounds of cli-mix about 21, so a run at --seconds 10
# makes exactly these minimums, and a revision twice as fast still does.
# Two rounds, because a single 200- or 1000-trial campaign per property
# is too few inputs for a steady rate; cli_p90_ms needs at least 100
# invocations per run: 15 rounds of seven.
MIN_ROUNDS = {"lowdeg-serial": 2, "highdeg-serial": 2, "lowdeg-pool": 2, "cli-mix": 15}


def make_workload(name: str, smoke: bool):
    rounds = 1 if smoke else MIN_ROUNDS[name]
    if name == "lowdeg-serial":
        return wl.CampaignWorkload(wl.LOWDEG, LOWDEG_TRIALS, 1, rounds, smoke)
    if name == "highdeg-serial":
        return wl.CampaignWorkload(wl.HIGHDEG, HIGHDEG_TRIALS, 1, rounds, smoke)
    if name == "lowdeg-pool":
        return wl.CampaignWorkload(wl.LOWDEG, LOWDEG_TRIALS, 2, rounds, smoke)
    return wl.CliWorkload(ROOT, os.path.join(HERE, "cli_shim.py"), rounds, smoke)


def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "seed": seed,
        "mp_start_method": multiprocessing.get_start_method(),
    }


# The reference machine is a shared VM. Each of its two vCPUs switches,
# on its own, between a fast and a slow spell (up to 1.7x slower) every
# half second to minute (see README.md, "Machine speed"). So the
# benchmark times a probe, its own fixed code that polygeom cannot move,
# while it measures, and scales the wall time of every operation to the
# speed at which one probe takes REFERENCE_PROBE_S. Every time and rate
# taken from whole operations is in these reference seconds; the self
# times of traced spans stay in wall time.
REFERENCE_PROBE_S = 0.0006
# an operation is sampled every SAMPLE_S while it runs, on the vCPU that
# runs it or, for a pool, on each vCPU in turn; a CLI run is bracketed by
# probes instead
SAMPLE_S = 0.05
SAMPLE_HERE = "here"
SAMPLE_EACH_VCPU = "each-vcpu"
BRACKET_PROBES = 9
_PROBE_COEFFS = [complex(math.cos(k), math.sin(0.7 * k)) for k in range(40)]
_PROBE_ARRAY = numpy.array(_PROBE_COEFFS)


def probe() -> float:
    """Time the two kinds of work polygeom does: pure-Python complex
    arithmetic (Horner evaluation over a coefficient list) and numpy work
    on small complex vectors (an Aberth-like sweep at degree 40). CPU
    time of this thread: a probe that waits for a vCPU busy with a pool
    worker must not read as slow."""
    t = time.thread_time()
    z, acc = 0.3 + 0.4j, 0j
    for _ in range(50):
        v = 0j
        for c in _PROBE_COEFFS:
            v = v * z + c
        acc += v
        z *= 1.0001
    x = numpy.exp(1j * numpy.arange(40.0))
    for _ in range(4):
        p = numpy.polyval(_PROBE_ARRAY, x)
        d = x[:, None] - x[None, :]
        numpy.fill_diagonal(d, numpy.inf)
        x = x - 1e-9 * p / (1.0 - numpy.sum(1.0 / d, axis=1))
    return time.thread_time() - t


def trimmed_mean(values) -> float:
    """Mean of the middle 80 %: a probe that a timer tick or another
    process interrupted (seen at 7x its time) must not weigh."""
    v = sorted(values)
    k = len(v) // 10
    return statistics.fmean(v[k:len(v) - k])


class Clock:
    """Turns the wall time of an operation into reference seconds.

    `start()` and `stop()` bracket one operation and `to_ref()` converts
    its wall time. With `start(SAMPLE_HERE)` a SIGALRM handler runs a
    probe every SAMPLE_S on the vCPU that runs the operation, in this
    process; `to_ref()` takes the probes' own time out of the wall time
    and scales what is left by their mean. With `start(SAMPLE_EACH_VCPU)`
    the handler moves to the next vCPU for each probe, for an operation
    whose pool workers keep every vCPU busy; a probe there delays one
    worker, not the operation's whole path, so its time stays in. With
    `start()`, or if the operation was too short for a sample, the speed
    is the mean of the bracket probes just before and just after it.
    """

    def __init__(self):
        self.probes_s: list[float] = []
        self._cpus = os.sched_getaffinity(0)
        self._mode = None
        self._samples: list[float] = []
        self._spent = 0.0
        self._before = self._bracket()

    def _on_vcpu(self, cpu: int, fn):
        """`fn()` run with this thread pinned to `cpu`; the thread's own
        affinity is restored before anything else runs, so a pool worker
        forked later is not pinned."""
        os.sched_setaffinity(0, {cpu})
        try:
            return fn()
        finally:
            os.sched_setaffinity(0, self._cpus)

    def _bracket(self) -> float:
        """The median probe on each vCPU this process may use, averaged:
        the vCPUs change speed independently, and work in child processes
        runs on any of them."""
        return statistics.fmean(
            self._on_vcpu(cpu, lambda: statistics.median(probe() for _ in range(BRACKET_PROBES)))
            for cpu in sorted(self._cpus))

    def _on_alarm(self, signum, frame):
        t = time.perf_counter()
        if self._mode == SAMPLE_EACH_VCPU:
            cpus = sorted(self._cpus)
            self._samples.append(self._on_vcpu(cpus[len(self._samples) % len(cpus)], probe))
        else:
            self._samples.append(probe())
            self._spent += time.perf_counter() - t

    def start(self, mode: str | None = None):
        self._before = self._bracket()
        self._samples, self._spent, self._mode = [], 0.0, mode
        if mode:
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)

    def stop(self):
        if self._mode:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._mode = None

    def to_ref(self, wall_s: float) -> float:
        """The reference seconds of the operation, taking `wall_s`, that
        ended last (or of the work since the clock was made, before any
        start)."""
        if len(self._samples) >= 2:
            wall_s -= self._spent
            probes = self._samples
        else:
            after = self._bracket()
            probes = [self._before, after]
            self._before = after
        self.probes_s += probes
        self._samples = []
        return max(wall_s, 0.0) * REFERENCE_PROBE_S / trimmed_mean(probes)

    def summary(self) -> dict:
        """Probe times in ms, for the env line: a run in a slow spell shows."""
        ms = sorted(p * 1e3 for p in self.probes_s)
        return {"probes": len(ms), "p10": ms[len(ms) // 10], "median": statistics.median(ms),
                "p90": ms[len(ms) * 9 // 10]}


def child_import_s() -> float:
    """Time the import of polygeom.cli (numpy and every layer) in a fresh
    interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


# ----------------------------------------------------------------- phases


def run_op(workload, op, gates, clock, keep_failures=False, trace_out=None):
    """One operation, its time also in reference seconds; an exception is
    recorded as a failed operation."""
    clock.start(workload.sample_mode)
    start = time.perf_counter()
    try:
        res = workload.run(op, gates, keep_failures, trace_out)
    except Exception:
        traceback.print_exc()
        gates.check("no_exception", False, repr(op)[:200])
        res = wl.OpResult(key=repr(op)[:80], kind="exception", family=None,
                          wall_s=time.perf_counter() - start, attempted=1, mismatches=1)
    finally:
        clock.stop()
    res.ref_s = clock.to_ref(res.wall_s)
    return res


def measure(workload, state, seconds: float, gates, clock):
    """Whole rounds of operations until they took `seconds` reference
    seconds and the workload's minimum number of rounds is done. Counting
    reference seconds keeps a run in a slow spell from measuring fewer
    rounds, and so other inputs, than one in a fast spell."""
    ops, inputs, rounds = [], [], []
    for rnd in workload.rounds(state):
        for op in rnd:
            ops.append(run_op(workload, op, gates, clock, keep_failures=not rounds))
            inputs.append(op)
        rounds.append(len(rnd))
        if len(rounds) >= workload.min_rounds and sum(o.ref_s for o in ops) >= seconds:
            return ops, inputs, rounds


def traced_phase(workload, inputs, untraced, rounds, budget_s, gates, clock, trace_dir):
    """Replay whole rounds of the untraced operations with every layer
    wrapped, until `budget_s` has passed (at least one round); each replay
    must give the same output digest, and for a campaign its generator
    must have been traced once per trial, in whichever process ran it."""
    tracer = tr.Tracer(trace_dir)
    campaigns = not isinstance(workload, wl.CliWorkload)
    traced, children = [], []
    if campaigns:
        tracer.install()
    try:
        start, i = time.perf_counter(), 0
        for size in rounds:
            for op, ref in zip(inputs[i:i + size], untraced[i:i + size]):
                ctx = f"op{i}"
                tracer.set_context(ctx)
                first_span = len(tracer.spans)
                child_out = None if campaigns else os.path.join(trace_dir, f"cli-{i}.json")
                res = run_op(workload, op, gates, clock, trace_out=child_out)
                gates.check("timed_vs_traced", res.digest == ref.digest, ref.key)
                traced.append(res)
                tracer.collect_workers()
                if campaigns and not res.crashed:
                    generated = sum(s[0] == "campaign.generate"
                                    for s in tracer.spans[first_span:])
                    gates.check("trace_complete", generated == res.attempted,
                                f"{ref.key}: {generated} generate spans, {res.attempted} trials")
                if child_out and gates.check("cli_trace_written", os.path.exists(child_out),
                                             ref.key):
                    with open(child_out, encoding="utf-8") as f:
                        doc = json.load(f)
                    os.remove(child_out)
                    tracer.merge(doc["spans"], doc["counts"])
                    children.append((res.wall_s * 1e9, doc))
                i += 1
            if time.perf_counter() - start >= budget_s:
                break
    finally:
        tracer.uninstall()
    return tracer, traced, children


# ---------------------------------------------------------------- metrics


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def typical_round_rate(ops) -> float:
    """Verified operations per reference second of a typical round: each
    kind of operation (a property's campaign, a subcommand) at its median
    verified count and its median time over the run's rounds, so that an
    operation another tenant of the machine slowed does not weigh."""
    kinds = {}
    for o in ops:
        kinds.setdefault(o.kind, []).append(o)
    return ratio(sum(statistics.median(o.verified for o in k) for k in kinds.values()),
                 sum(statistics.median(o.ref_s for o in k) for k in kinds.values()))


def verdict_metrics(ops, gate_mismatches: int) -> dict:
    """Shares, per-family rates and CLI latency of the untraced operations,
    in reference seconds."""
    att = sum(o.attempted for o in ops)
    m = {
        "failed_share": ratio(sum(o.failed + o.errored for o in ops) + gate_mismatches, att),
        "error_share": ratio(sum(o.errored for o in ops), att),
        "hypothesis_share": ratio(sum(o.hypothesis for o in ops), att),
        "campaign.crashes": sum(o.crashed for o in ops),
    }
    for fam in wl.FAMILIES:
        mine = [o for o in ops if o.family == fam]
        m[f"{fam}.verified_per_s"] = ratio(sum(o.verified for o in mine),
                                           sum(o.ref_s for o in mine))
    cli = sorted(o.ref_s * 1e3 for o in ops if o.cli)
    m["cli_p50_ms"] = median_or_zero(cli)
    m["cli_p90_ms"] = statistics.quantiles(cli, n=10)[8] if len(cli) >= 2 else 0.0
    for sub in wl.CLI_SUBCOMMANDS:
        m[f"cli.{sub}.p50_ms"] = median_or_zero(
            [o.ref_s * 1e3 for o in ops if o.cli and o.kind == sub])
    return m


def layer_metrics(declared, prof, jobs: int, children) -> dict:
    """Per-layer metrics of the traced phase. A declared `<span>.calls` or
    `<span>.self_s` reads the span of that name (`<layer>.self_s` sums the
    layer); the others are computed one by one below."""
    m = {}
    for name in declared:
        base, _, suffix = name.rpartition(".")
        span = SPAN_ALIAS.get(base, base)
        if suffix == "calls":
            m[name] = prof.calls(span)
        elif suffix == "self_s":
            m[name] = (prof.self_s(prefix=base + ".") if base in tr.LAYERS
                       else prof.self_s(span))

    names = list(prof.self_ns)
    m["jsonio.decode.self_s"] = prof.self_s(*[n for n in names if n.startswith("jsonio.")
                                              and n.endswith("_from_json")])
    m["jsonio.encode.self_s"] = prof.self_s("jsonio.dumps", *[
        n for n in names if n.startswith("jsonio.") and n.endswith("_to_json")])
    m["jsonio.dumps.bytes"] = sum(s[6] or 0 for s in prof.named("jsonio.dumps"))
    m["svgplot.bytes_written"] = sum(s[6] or 0 for s in prof.named("svgplot.emit_svg"))

    fr = prof.named("rootfind.find_roots")
    for band, lo, hi in BANDS:
        m[f"rootfind.find_roots.p50_us.{band}"] = median_or_zero(
            [(s[4] - s[3]) / 1e3 for s in fr if lo <= s[6] <= hi])
    m["rootfind.find_roots.degree_sq_sum"] = sum(s[6] ** 2 for s in fr)
    m["rootfind.nonconvergence"] = sum(s[7] == "NonConvergence" for s in fr)
    m["rootfind.converged_ratio"] = ratio(sum(s[7] is None for s in fr), len(fr))
    m["rootfind.overflow_warnings"] = prof.counts["rootfind.overflow_warnings"]

    grace_instances = sum(s[6] == "grace" and s[7] is None
                          for s in prof.named("campaign.generate"))
    m["apolarity.make_apolar.useful_ratio"] = ratio(grace_instances,
                                                    prof.calls("apolarity.make_apolar"))
    checks_per_run = {}
    for s in prof.named("campaign.check"):
        checks_per_run[s[2]] = checks_per_run.get(s[2], 0) + 1
    m["campaign.relaxed_retries"] = sum(c >= 2 for c in checks_per_run.values())

    # a trial is its generate call plus its run_check call, wherever it ran
    busy_ns = sum(s[4] - s[3] for s in prof.spans
                  if s[0] in ("campaign.generate", "campaign.run_check"))
    campaigns = prof.named("campaign.run_campaign")
    wall_ns = sum(s[4] - s[3] for s in campaigns)
    m["campaign.pool.worker_busy_s"] = busy_ns / 1e9
    m["campaign.pool.overhead_s"] = (wall_ns - busy_ns / jobs) / 1e9 if wall_ns else 0.0
    m["campaign.pool.efficiency"] = ratio(busy_ns, jobs * wall_ns)
    # pool start: from run_campaign's start to the first span a worker
    # opened under it (perf_counter_ns is one clock for every process)
    first_worker_ns = {}
    for s in prof.spans:
        if s[2] and not tr.same_process(s[1], s[2]):
            first_worker_ns[s[2]] = min(s[3], first_worker_ns.get(s[2], s[3]))
    pooled = [s for s in campaigns if s[1] in first_worker_ns]
    m["campaign.pool.start_share"] = ratio(
        sum(first_worker_ns[s[1]] - s[3] for s in pooled), sum(s[4] - s[3] for s in pooled))

    # the parent's wall of a traced invocation, less the child's import,
    # main() and the shim's own work (tracer import, install, uninstall,
    # serialising the spans): interpreter start-up and teardown
    m["cli.import_ms"] = median_or_zero([d["import_ns"] / 1e6 for _, d in children])
    m["cli.main_ms"] = median_or_zero([d["main_ns"] / 1e6 for _, d in children])
    m["cli.shim_ms"] = median_or_zero([d["shim_ns"] / 1e6 for _, d in children])
    m["cli.interpreter_ms"] = median_or_zero([
        (wall - d["import_ns"] - d["main_ns"] - d["shim_ns"]) / 1e6 for wall, d in children])
    return m


def peak_rss_mb(launcher_children_kb: int) -> float:
    """Peak RSS of this process plus the largest peak of any child it waited for.

    A launcher that ran helpers before exec'ing this interpreter (a pyenv
    shim does) leaves their peak in RUSAGE_CHILDREN; while no child of the
    benchmark has exceeded it, the children term counts as 0.
    """
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if children_kb <= launcher_children_kb:
        children_kb = 0
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + children_kb) / 1024.0


# ------------------------------------------------------------------- run


def run(args, import_s: float, launcher_children_kb: int) -> int:
    """One benchmark run; returns the exit code."""
    declared = declared_metrics()
    # np.polyval overflow warnings from find_roots would flood stderr; the
    # traced run counts them as rootfind.overflow_warnings instead
    warnings.simplefilter("ignore", RuntimeWarning)
    os.makedirs(OUT, exist_ok=True)
    work_dir = os.path.join(OUT, f"work-{os.getpid()}")
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    print(f"# perfbench {tag} seconds={args.seconds:g}{' smoke' if args.smoke else ''}",
          flush=True)
    env = environment(args.seed)

    gates = wl.Gates()
    workload = make_workload(args.workload, args.smoke)
    clock = Clock()
    import_times = [clock.to_ref(import_s)]
    try:
        setup_times, digests = [], []
        # prepare runs in this process, or starts a pool
        setup_mode = workload.sample_mode or SAMPLE_HERE
        for _ in range(SETUP_REPEATS):
            clock.start(setup_mode)
            t = time.perf_counter()
            try:
                state, digest = workload.prepare(args.seed, work_dir)
            finally:
                clock.stop()
            setup_times.append(clock.to_ref(time.perf_counter() - t))
            digests.append(digest)
        gates.check("setup_determinism", len(set(digests)) == 1, "prepare() not repeatable")
        prepare_s = statistics.median(setup_times)

        ops, inputs, rounds = measure(workload, state, args.seconds, gates, clock)
        env["probe_ms"] = clock.summary()
        print("env " + json.dumps(env), flush=True)
        workload.post_gates(ops, inputs, gates)
        verified = sum(o.verified for o in ops)
        metrics = {
            "verified_per_s": typical_round_rate(ops),
            "verified_per_wall_s": ratio(verified, sum(o.wall_s for o in ops)),
            "verified_share": ratio(verified, sum(o.attempted for o in ops)),
            "peak_rss_mb": peak_rss_mb(launcher_children_kb),
        }
        # the fresh interpreters run after peak_rss_mb is read: their RSS
        # is not the workload's
        import_times += [clock.to_ref(child_import_s()) for _ in range(IMPORT_REPEATS)]
        metrics["setup.import_s"] = statistics.median(import_times)
        metrics["setup.prepare_s"] = prepare_s
        metrics["setup_s"] = metrics["setup.import_s"] + prepare_s
        attempted = sum(o.attempted for o in ops)

        if args.trace:
            trace_dir = os.path.join(OUT, f"trace-{os.getpid()}")
            os.makedirs(trace_dir, exist_ok=True)
            try:
                tracer, traced, children = traced_phase(
                    workload, inputs, ops, rounds, args.seconds / 2, gates, clock, trace_dir)
            finally:
                shutil.rmtree(trace_dir, ignore_errors=True)
            tracer.dump(os.path.join(OUT, f"spans-{args.workload}-s{args.seed}.json"))
            prof = tr.Profile(tracer.spans, tracer.counts)
            metrics.update(layer_metrics(declared[1], prof,
                                         getattr(workload, "jobs", 1), children))
            metrics["trace.overhead_ratio"] = ratio(
                sum(o.ref_s for o in traced), sum(o.ref_s for o in ops[:len(traced)]))
            attempted += sum(o.attempted for o in traced)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    metrics.update(verdict_metrics(ops, gates.mismatches))

    wanted = declared[args.trace]
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics declared but not computed: {missing}")
    detail = {"env": env, "gates": gates.to_json(), "metrics": metrics,
              "probes_ms": [p * 1e3 for p in clock.probes_s],
              "operations": [[o.key, o.wall_s, o.ref_s, o.attempted, o.verified] for o in ops]}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as f:
        json.dump(detail, f, indent=1, sort_keys=True)
    print("gates " + json.dumps(gates.to_json()), flush=True)
    print("detail " + json.dumps(metrics, sort_keys=True), flush=True)
    correct = gates.mismatches == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": gates.mismatches,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in wanted.items()},
    }))
    return 0 if correct else 1
