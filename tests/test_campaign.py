import dataclasses
import math
import multiprocessing
import multiprocessing.connection
import os
import random
import re
import time

import numpy as np
import pytest

from polygeom import campaign, coincidence, jsonio, poly, rootfind
from polygeom.campaign import (
    PROPERTIES,
    CampaignConfig,
    _run_chunk,
    replay,
    replay_verdict,
    run_campaign,
    trial_seed,
)
from polygeom.coincidence import diagonal, theorem1_hypothesis
from polygeom.derivative_bound import theorem2_bound
from polygeom.errors import InvalidConfig, InvalidInput, NonConvergence
from polygeom.poly import Polynomial


class TestConfig:
    def test_unknown_property(self):
        with pytest.raises(InvalidConfig):
            run_campaign(CampaignConfig(property="nope", trials=1))

    def test_bad_trials(self):
        with pytest.raises(InvalidConfig):
            run_campaign(CampaignConfig(property="grace", trials=0))

    def test_bad_range(self):
        with pytest.raises(InvalidConfig):
            run_campaign(CampaignConfig(property="grace", trials=1, n_min=5, n_max=2))

    # a range below the least degree the property's generator draws
    @pytest.mark.parametrize("prop,n_max", [
        ("grace", 1), ("walsh_classic", 1), ("theorem1_convex", 1),
        ("theorem1_exterior", 1), ("theorem2", 1), ("theorem2", 2)])
    def test_range_below_the_least_degree(self, prop, n_max):
        with pytest.raises(InvalidConfig, match=f"{prop} needs n_max >= "):
            run_campaign(CampaignConfig(property=prop, trials=2, n_min=1, n_max=n_max))

    # degree 1 is drawn, or the property draws its own degree
    @pytest.mark.parametrize("prop", ["apolarity_identity", "gauss_lucas",
                                      "derivative_identity"])
    def test_degree_one_range(self, prop):
        rep = run_campaign(CampaignConfig(property=prop, trials=3, n_min=1, n_max=1))
        assert rep.passed == 3

    def test_theorem2_runs_at_its_n_max(self):
        rep = run_campaign(CampaignConfig(property="theorem2", trials=1, n_min=3, n_max=3))
        assert rep.passed == 1

    @pytest.mark.parametrize("bad", [{"root_tol": 0}, {"root_tol": -1e-12},
                                     {"jobs": -4}, {"jobs": 0}])
    def test_bad_tolerance_or_jobs(self, bad):
        with pytest.raises(InvalidConfig):
            run_campaign(CampaignConfig(property="grace", trials=5, **bad))

    @pytest.mark.parametrize("tol", [math.inf, math.nan, "1e-12"])
    def test_non_finite_tolerance(self, tol):
        with pytest.raises(InvalidConfig):
            run_campaign(CampaignConfig(property="grace", trials=5, root_tol=tol))


class TestSeeding:
    def test_trial_seeds_distinct(self):
        seeds = {trial_seed(42, i) for i in range(10000)}
        assert len(seeds) == 10000

    def test_trial_seeds_differ_across_campaigns(self):
        assert trial_seed(1, 0) != trial_seed(2, 0)


class TestDeterminism:
    def test_identical_reports_on_rerun(self):
        cfg = CampaignConfig(property="grace", trials=100, seed=7)
        a = jsonio.dumps(run_campaign(cfg).to_json())
        b = jsonio.dumps(run_campaign(cfg).to_json())
        assert a == b

    def test_identical_reports_across_jobs(self):
        base = CampaignConfig(property="theorem2", trials=60, seed=5, n_min=3, jobs=1)
        par = CampaignConfig(property="theorem2", trials=60, seed=5, n_min=3, jobs=3)
        assert jsonio.dumps(run_campaign(base).to_json()) == jsonio.dumps(
            run_campaign(par).to_json()
        )


def as_on_cpus(monkeypatch, cpus):
    """Make run_campaign see `cpus` usable CPUs; None stands for a
    platform with no affinity mask and an unknown CPU count."""
    if cpus is None:
        monkeypatch.delattr(campaign.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(campaign.os, "cpu_count", lambda: None)
    else:
        monkeypatch.setattr(campaign.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)


def record_pool(monkeypatch):
    """Run the pool's chunks in this process; returns the list of worker
    counts the pools were started with."""
    started = []

    def pool_reports(cfg, starts, stops, workers):
        started.append(workers)
        return [campaign._chunk_report(cfg, a, b) for a, b in zip(starts, stops)]

    monkeypatch.setattr(campaign, "_pool_reports", pool_reports)
    return started


def fake_pool(monkeypatch, cpus):
    """Run the pool's chunks in this process on `cpus` CPUs; returns the
    list of worker counts the pools were started with."""
    as_on_cpus(monkeypatch, cpus)
    return record_pool(monkeypatch)


class TestChunks:
    # 53 trials: one chunk at jobs 1; at jobs 2 and 3 on two CPUs, chunks
    # of 4, not dividing 53 (3 at jobs 3 on three CPUs or more)
    @pytest.mark.parametrize("prop", sorted(PROPERTIES))
    def test_identical_reports_across_jobs(self, prop):
        n_min = 3 if prop == "theorem2" else 2
        a, b, c = (jsonio.dumps(run_campaign(CampaignConfig(
            property=prop, trials=53, seed=21, n_min=n_min, n_max=12, jobs=jobs)).to_json())
            for jobs in (1, 2, 3))
        assert a == b == c

    # 130 trials: 2 chunks at jobs 1, of 65
    @pytest.mark.parametrize("prop", sorted(PROPERTIES))
    def test_identical_reports_across_jobs_in_several_chunks(self, prop):
        n_min = 3 if prop == "theorem2" else 2
        a, b = (jsonio.dumps(run_campaign(CampaignConfig(
            property=prop, trials=130, seed=22, n_min=n_min, n_max=12, jobs=jobs)).to_json())
            for jobs in (1, 2))
        assert a == b

    @pytest.mark.parametrize("jobs,trials,cpus,workers", [
        (64, 2, 4, 2),    # no more workers than chunks
        (64, 1000, 4, 4),  # nor than CPUs
        (3, 1000, 4, 3),
        (8, 1000, None, None),  # an unknown CPU count runs in the process
        (2, 1, 4, None),  # as does a single chunk
    ])
    def test_pool_size_is_bounded(self, monkeypatch, jobs, trials, cpus, workers):
        started = fake_pool(monkeypatch, cpus)
        cfg = CampaignConfig(property="derivative_identity", trials=trials, jobs=jobs)
        assert run_campaign(cfg).passed == trials
        assert started == ([] if workers is None else [workers])

    @pytest.mark.parametrize("jobs", [2, 64])
    def test_chunks_are_sized_from_the_cpus(self, monkeypatch, jobs):
        # on 2 CPUs, jobs=64 cuts 2000 trials as jobs=2 does: 16 chunks of
        # at most 128, not single-trial chunks
        fake_pool(monkeypatch, 2)
        sizes = []
        run_chunk = campaign._run_chunk

        def recording(cfg, start, stop):
            sizes.append(stop - start)
            return run_chunk(cfg, start, stop)

        monkeypatch.setattr(campaign, "_run_chunk", recording)
        cfg = CampaignConfig(property="derivative_identity", trials=2000, jobs=jobs)
        assert run_campaign(cfg).passed == 2000
        assert sizes == [125] * 16

    def test_chunks_do_not_grow_with_the_trials(self, monkeypatch):
        sizes = []
        run_chunk = campaign._run_chunk

        def recording(cfg, start, stop):
            sizes.append(stop - start)
            return run_chunk(cfg, start, stop)

        monkeypatch.setattr(campaign, "_run_chunk", recording)
        cfg = CampaignConfig(property="derivative_identity", trials=3000, jobs=1)
        assert run_campaign(cfg).passed == 3000
        # 24 chunks, evenly cut: none above 128
        assert sizes == [125] * 24

    def test_chunk_equals_its_trials(self):
        cfg = CampaignConfig(property="theorem1_convex", trials=10, seed=4)
        assert _run_chunk(cfg, 2, 7) == [_run_chunk(cfg, i, i + 1)[0] for i in range(2, 7)]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                        or len(os.sched_getaffinity(0)) < 2,
                        reason="needs an affinity mask of two CPUs or more to pin")
    def test_cpus_are_read_from_the_affinity_mask(self, monkeypatch):
        # pinned to one of the host's CPUs, jobs=8 runs in the process, as
        # on a one-CPU host: 8 chunks of 125, not 8 workers
        started = record_pool(monkeypatch)
        sizes = []
        run_chunk = campaign._run_chunk

        def recording(cfg, start, stop):
            sizes.append(stop - start)
            return run_chunk(cfg, start, stop)

        monkeypatch.setattr(campaign, "_run_chunk", recording)
        mask = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(mask)})
        try:
            report = run_campaign(CampaignConfig(property="derivative_identity", trials=1000,
                                                 jobs=8))
        finally:
            os.sched_setaffinity(0, mask)
        assert report.passed == 1000
        assert started == [] and sizes == [125] * 8


# a chunk patched in this process runs in the workers only when they are forked
fork_only = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                               reason="the default start method is not fork")


class TestPool:
    CFG = CampaignConfig(property="derivative_identity", trials=1000, jobs=2)

    @staticmethod
    def patch_chunk(monkeypatch, second):
        """Run `second` on the second chunk, in place of its report, and
        make every other chunk sleep, so that the other worker is busy
        then. The worker started last most likely claims the second chunk."""
        def chunk_report(cfg, start, stop):
            if start == stop - start:
                second()
            time.sleep(60)

        monkeypatch.setattr(campaign, "_chunk_report", chunk_report)

    def test_campaign_leaves_no_child(self, monkeypatch):
        as_on_cpus(monkeypatch, 2)
        assert run_campaign(self.CFG).passed == 1000
        assert multiprocessing.active_children() == []

    @fork_only
    def test_chunk_error_is_raised(self, monkeypatch):
        as_on_cpus(monkeypatch, 2)

        def fail():
            raise ValueError("chunk 1 failed")

        self.patch_chunk(monkeypatch, fail)
        began = time.monotonic()
        with pytest.raises(ValueError, match="^chunk 1 failed$") as raised:
            run_campaign(self.CFG)
        # the worker's traceback is kept as the cause
        assert 'raise ValueError("chunk 1 failed")' in str(raised.value.__cause__)
        # the sleeping worker was terminated, not waited for
        assert time.monotonic() - began < 30
        assert multiprocessing.active_children() == []

    @fork_only
    def test_worker_exit_is_raised(self, monkeypatch):
        as_on_cpus(monkeypatch, 2)
        self.patch_chunk(monkeypatch, lambda: os._exit(3))
        began = time.monotonic()
        with pytest.raises(RuntimeError, match="exited with code 3 without sending"):
            run_campaign(self.CFG)
        assert time.monotonic() - began < 30
        assert multiprocessing.active_children() == []

    def test_spawn_workers_give_the_serial_report(self, monkeypatch):
        # spawn, the default start method on macOS and Windows: a worker
        # imports the package afresh and is sent its config by pickle
        as_on_cpus(monkeypatch, 2)
        cfg = CampaignConfig(property="grace", trials=60, seed=31, n_max=12, jobs=2)
        serial = jsonio.dumps(run_campaign(dataclasses.replace(cfg, jobs=1)).to_json())
        spawn, methods = multiprocessing.get_context("spawn"), []

        def get_context(method=None):
            methods.append(method)
            return spawn

        monkeypatch.setattr(multiprocessing, "get_context", get_context)
        assert jsonio.dumps(run_campaign(cfg).to_json()) == serial
        assert methods == [None]
        assert multiprocessing.active_children() == []

    def test_interrupt_terminates_the_workers(self, monkeypatch):
        as_on_cpus(monkeypatch, 2)

        def interrupted(conns):
            raise KeyboardInterrupt

        monkeypatch.setattr(multiprocessing.connection, "wait", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(self.CFG)
        assert multiprocessing.active_children() == []


def coeff_row(p: Polynomial) -> bytes:
    """The key rootfind solves p under: its coefficients, descending."""
    return np.array(p.coeffs[::-1], dtype=complex).tobytes()


class TestSolveOnce:
    @staticmethod
    def count_rows(monkeypatch):
        """The coefficient rows of the polynomials asked of drive_many, as
        each request is keyed, and of those its solver ran."""
        asked, solved = [], []
        coeff_row, solve = rootfind._coeff_row, rootfind._solve

        def asking(p):
            row = coeff_row(p)
            asked.append(row.tobytes())
            return row

        def solving(cs, tol):
            solved.extend(c.tobytes() for c in cs)
            return solve(cs, tol)

        monkeypatch.setattr(rootfind, "_coeff_row", asking)
        monkeypatch.setattr(rootfind, "_solve", solving)
        return asked, solved

    @staticmethod
    def solve_calls(monkeypatch):
        """The number of rows of each _solve call."""
        calls = []
        solve = rootfind._solve

        def solving(cs, tol):
            calls.append(len(cs))
            return solve(cs, tol)

        monkeypatch.setattr(rootfind, "_solve", solving)
        return calls

    @staticmethod
    def generated_q(records):
        """The coefficient rows of the q^(n-m) whose roots the theorem 1
        generators of these trials find (none at m = n)."""
        generated = []
        for r in records:
            P = jsonio.multiaffine_from_json(r["instance"]["multiaffine"])
            w = jsonio.points_from_json(r["instance"]["points"])
            if P.total_degree < P.n:
                generated.append(coeff_row(poly.from_roots(w).derivative(P.n - P.total_degree)))
        return generated

    def test_theorem1_chunk_solves_q_once(self, monkeypatch):
        # the generator asks for q, and the check's request for the same
        # roots is served from the chunk's drive_many call, without
        # reaching the solver
        asked, solved = self.count_rows(monkeypatch)
        cfg = CampaignConfig(property="theorem1_convex", trials=40, seed=2, n_min=2, n_max=12)
        records = _run_chunk(cfg, 0, cfg.trials)
        assert all(r["instance"] is not None for r in records)
        generated = self.generated_q(records)
        assert generated
        for q in generated:
            # asked for by the generator and by the check; solved once
            assert solved.count(q) == 1 and asked.count(q) == 2

    def test_theorem1_generators_are_solved_in_one_batch(self, monkeypatch):
        batches = []
        solve = rootfind._solve

        def solving(cs, tol):
            batches.append([c.tobytes() for c in cs])
            return solve(cs, tol)

        monkeypatch.setattr(rootfind, "_solve", solving)
        cfg = CampaignConfig(property="theorem1_convex", trials=40, seed=2, n_min=2, n_max=12)
        records = _run_chunk(cfg, 0, cfg.trials)
        generated = self.generated_q(records)
        # the diagonal equation of every trial whose check asks for its roots
        diagonals = []
        for r in records:
            P = jsonio.multiaffine_from_json(r["instance"]["multiaffine"])
            w = jsonio.points_from_json(r["instance"]["points"])
            g = diagonal(P).shifted_constant(-coincidence.evaluate_multiaffine(P, w))
            if g.degree() >= 1:
                diagonals.append(coeff_row(g))
        sizes = [len(b) for b in batches]
        assert len(generated) > 1 and len(diagonals) > len(generated)
        assert len(batches) == 1, sizes
        assert sorted(batches[0]) == sorted(generated + diagonals)

    @pytest.mark.parametrize("prop", ["grace", "walsh_classic", "theorem1_convex",
                                      "theorem1_exterior", "theorem2"])
    @pytest.mark.parametrize("high", [False, True])
    def test_chunk_solves_once(self, monkeypatch, prop, high):
        # every root a chunk asks for, of its generators and its checks, at
        # m = n and m < n alike, is found in one solve
        calls = self.solve_calls(monkeypatch)
        n_min, n_max = (25, 60) if high else (3, 15) if prop == "theorem2" else (2, 12)
        cfg = CampaignConfig(property=prop, trials=128, seed=5, n_min=n_min, n_max=n_max)
        records = _run_chunk(cfg, 0, cfg.trials)
        assert all(r["status"] != "error" for r in records)
        if prop.startswith("theorem1"):
            # trials at m = n, whose hypothesis asks for no roots, and others
            P = [r["instance"]["multiaffine"] for r in records]
            m_is_n = sum(len(p["E"]) - 1 == p["n"] for p in P)
            assert 0 < m_is_n < len(records)
        assert len(calls) == 1, calls

    def test_a_request_that_raises_loses_only_its_prefetch(self, monkeypatch):
        cfg = CampaignConfig(property="theorem1_convex", trials=20, seed=3)
        want = _run_chunk(cfg, 0, cfg.trials)
        diagonal_equation = campaign._diagonal_equation
        drawn = []

        def failing(P, w):
            drawn.append(None)
            if len(drawn) == 4:
                raise InvalidInput("cannot build ahead")
            return diagonal_equation(P, w)

        # the generator's g, which it asks for ahead of its check
        monkeypatch.setattr(campaign, "_diagonal_equation", failing)
        calls = self.solve_calls(monkeypatch)
        assert _run_chunk(cfg, 0, cfg.trials) == want
        # the fourth trial's g is solved when its check asks for it
        assert len(drawn) == 20 and len(calls) > 1 and calls[1:] == [1] * (len(calls) - 1)

    def test_a_diagonal_equation_that_fails_is_solved_once(self, monkeypatch):
        # a theorem 1 generator asks ahead for its check's g, whose root set
        # is not certified: the check is given that error, not a second
        # solve, and records the diagnostic the check alone records
        cfg = CampaignConfig(property="theorem1_convex", trials=20, seed=3)
        records = _run_chunk(cfg, 0, cfg.trials)

        def product(w):
            return (yield rootfind.Product(w))

        gs = []
        for r in records:
            P = jsonio.multiaffine_from_json(r["instance"]["multiaffine"])
            w = jsonio.points_from_json(r["instance"]["points"])
            gs.append(coincidence._diagonal_equation(P, rootfind.drive(product(w))))
        index = next(i for i, (r, g) in enumerate(zip(records, gs))
                     if r["status"] == "pass" and g.degree() >= 1)
        failing_row = coeff_row(gs[index])
        solve = rootfind._solve

        def failing(cs, tol):
            return [NonConvergence("not certified") if c.tobytes() == failing_row else res
                    for c, res in zip(cs, solve(cs, tol))]

        monkeypatch.setattr(rootfind, "_solve", failing)
        calls = self.solve_calls(monkeypatch)
        records = _run_chunk(cfg, 0, cfg.trials)
        assert len(calls) == 1
        alone = campaign.run_check(cfg.property, records[index]["instance"], cfg.root_tol)
        assert records[index]["status"] == alone.status == "error"
        assert records[index]["diagnostic"] == alone.diagnostic
        assert "not certified" in alone.diagnostic

    def test_theorem1_chunk_builds_each_q_once(self, monkeypatch):
        # q = prod (z - w_i) is asked for by the generator and by the
        # check, and built once; nothing is reused after the chunk
        asked, built = [], []
        products = poly._products

        def asking(points):
            asked.append(np.array(points, dtype=complex).tobytes())
            return rootfind.Product(points)

        def building(sets):
            built.extend(np.array(pts, dtype=complex).tobytes() for pts in sets)
            return products(sets)

        monkeypatch.setattr(campaign, "Product", asking)
        monkeypatch.setattr(coincidence, "Product", asking)
        monkeypatch.setattr(poly, "_products", building)
        cfg = CampaignConfig(property="theorem1_convex", trials=40, seed=2, n_min=2, n_max=12)
        _run_chunk(cfg, 0, cfg.trials)
        assert built and sorted(built) == sorted(set(asked))
        assert all(asked.count(w) >= 2 for w in built)
        # a second chunk builds every one again
        _run_chunk(cfg, 0, cfg.trials)
        assert sorted(built) == sorted(2 * list(set(asked)))

    @pytest.mark.parametrize("prop", ["grace", "walsh_classic", "theorem1_convex", "theorem2"])
    def test_chunk_builds_each_product_once(self, monkeypatch, prop):
        # the coincidence value reads e_k from the product the chunk built
        # for grace's a or theorem 1's q, and theorem 2's check reads its
        # generator's disk-frame polynomial: each product is built once,
        # in a round's batched pass
        built = []
        products = poly._products

        def batching(sets):
            built.extend(np.array(pts, dtype=complex).tobytes() for pts in sets)
            return products(sets)

        monkeypatch.setattr(poly, "_products", batching)
        cfg = CampaignConfig(property=prop, trials=40, seed=2, n_min=2, n_max=12)
        records = _run_chunk(cfg, 0, cfg.trials)
        assert all(r["status"] == "pass" for r in records)
        assert built and len(set(built)) == len(built)

    def test_one_check_builds_its_product_once(self, monkeypatch):
        # the hypothesis's q and the coincidence value's e_k are read from
        # one product of the points
        cfg = CampaignConfig(property="theorem1_convex", trials=1, seed=2)
        gen, _ = PROPERTIES[cfg.property]
        inst = next(inst for inst in (gen(random.Random(i), cfg) for i in range(50))
                    if len(inst["multiaffine"]["E"]) - 1 < inst["multiaffine"]["n"])
        w = np.array(jsonio.points_from_json(inst["points"]), dtype=complex).tobytes()
        built = []
        products = poly._products

        def building(sets):
            built.append([np.array(pts, dtype=complex).tobytes() for pts in sets])
            return products(sets)

        monkeypatch.setattr(poly, "_products", building)
        assert campaign.run_check(cfg.property, inst, cfg.root_tol).status == "pass"
        assert built == [[w]]

    def test_nothing_is_reused_outside_a_chunk(self, monkeypatch):
        asked, solved = self.count_rows(monkeypatch)
        cfg = CampaignConfig(property="theorem1_convex", trials=3, seed=2)
        _run_chunk(cfg, 0, cfg.trials)
        asked.clear()
        solved.clear()
        p = Polynomial([2, -3, 1])
        rootfind.find_roots(p)
        rootfind.find_roots(p)
        assert len(asked) == len(solved) == 2


class TestGeneratorCores:
    @pytest.mark.parametrize("high", [False, True])
    @pytest.mark.parametrize("prop", sorted(PROPERTIES))
    def test_plain_call_equals_the_driven_core(self, prop, high):
        # the cores of 200 trials driven together in one drive_many call,
        # as a chunk drives them, return what each plain call returns
        lo, hi = (25, 60) if high else (3, 15) if prop == "theorem2" else (2, 12)
        cfg = CampaignConfig(property=prop, trials=200, seed=6, n_min=lo, n_max=hi)
        gen, _ = PROPERTIES[prop]
        seeds = [trial_seed(cfg.seed, i) for i in range(cfg.trials)]
        driven = rootfind.drive_many(
            [gen(random.Random(ts), cfg, core=True) for ts in seeds], cfg.root_tol)
        for ts, inst in zip(seeds, driven):
            assert jsonio.dumps(inst) == jsonio.dumps(gen(random.Random(ts), cfg))

    @pytest.mark.parametrize("prop", sorted(PROPERTIES))
    def test_chunk_calls_each_generator_once_per_trial(self, monkeypatch, prop):
        # what a tracer that wraps the PROPERTIES generators counts
        gen, check = PROPERTIES[prop]
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return gen(*args, **kwargs)

        draws = []
        random_multiaffine = campaign._random_multiaffine

        def drawing(rng, n, m):
            draws.append(n)
            return random_multiaffine(rng, n, m)

        monkeypatch.setitem(PROPERTIES, prop, (counting, check))
        monkeypatch.setattr(campaign, "_random_multiaffine", drawing)
        cfg = CampaignConfig(property=prop, trials=20, seed=7)
        records = _run_chunk(cfg, 0, cfg.trials)
        assert len(records) == len(calls) == 20
        assert all(r["instance"] is not None for r in records)
        # and each trial is drawn once: the coincidence properties draw
        # one multiaffine polynomial per trial
        assert len(draws) == (20 if prop in ("walsh_classic", "theorem1_convex",
                                             "theorem1_exterior") else 0)

    def test_a_plain_theorem1_call_asks_for_q_alone(self, monkeypatch):
        # outside a chunk nothing keeps the diagonal equation's roots, so
        # a plain call neither builds it nor asks for it
        built, asked = [], []
        diagonal_equation, solve = campaign._diagonal_equation, rootfind._solve
        monkeypatch.setattr(campaign, "_diagonal_equation",
                            lambda *a: built.append(a) or diagonal_equation(*a))
        monkeypatch.setattr(rootfind, "_solve",
                            lambda cs, tol: asked.append(len(cs)) or solve(cs, tol))
        cfg = CampaignConfig(property="theorem1_convex", trials=40, seed=8)
        gen, _ = PROPERTIES[cfg.property]
        for i in range(cfg.trials):
            gen(random.Random(trial_seed(cfg.seed, i)), cfg)
        # one row at most per call, and none at m = n
        assert built == [] and 0 < len(asked) < cfg.trials and max(asked) == 1

    def test_generation_error_is_a_failed_generation(self):
        # at 1e-30 no q^(n-m) above degree 1 is certified: such a trial
        # records the error its plain generator raises, and no instance
        cfg = CampaignConfig(property="theorem1_convex", trials=20, seed=1, root_tol=1e-30)
        gen, _ = PROPERTIES[cfg.property]
        failed = [r for r in _run_chunk(cfg, 0, cfg.trials) if r["instance"] is None]
        assert failed
        for r in failed:
            with pytest.raises(NonConvergence) as e:
                gen(random.Random(r["trial_seed"]), cfg)
            assert (r["status"], r["diagnostic"]) == ("error", f"generation failed: {e.value}")


class TestAllProperties:
    @pytest.mark.parametrize("prop", sorted(PROPERTIES))
    def test_small_campaign_passes(self, prop):
        cfg = CampaignConfig(property=prop, trials=50, seed=1, n_min=2, n_max=10)
        rep = run_campaign(cfg)
        assert rep.passed + rep.failed + rep.errored == 50
        assert rep.failed == 0
        assert rep.errored == 0


class TestRootTolerance:
    # every root find of a campaign runs at its root_tol. At 1e-30 no root
    # set is certified but the exact root of a linear polynomial (residual
    # 0; theorem 1 at total degree 1, theorem 2 at k = n - 1), so a trial
    # errs unless every root it needed was such a root
    @pytest.mark.parametrize("prop", ["grace", "walsh_classic", "theorem1_convex",
                                      "theorem1_exterior", "theorem2", "gauss_lucas"])
    def test_root_finds_honour_root_tol(self, monkeypatch, prop):
        requests = []
        solve = rootfind._solve

        def recording(cs, tol):
            requests.extend((len(c) - 1, tol) for c in cs)
            return solve(cs, tol)

        monkeypatch.setattr(rootfind, "_solve", recording)
        cfg = CampaignConfig(property=prop, trials=20, seed=1,
                             n_min=3 if prop == "theorem2" else 2, root_tol=1e-30)
        for i in range(cfg.trials):
            requests.clear()
            rec = _run_chunk(cfg, i, i + 1)[0]
            assert requests and {tol for _, tol in requests} == {1e-30}
            assert rec["status"] == "error" or max(d for d, _ in requests) == 1


class TestHighDegree:
    def test_former_overflow_trial_passes_and_replays(self):
        # trial 30 is a degree-38 instance whose old circle start overflowed
        # into a NonConvergence error; the eigenvalue start certifies it.
        # Overflow itself is covered in test_rootfind.TestCertificate.
        cfg = CampaignConfig(property="theorem1_convex", trials=200,
                             seed=(9203 << 20) | (1 << 4) | 2, n_min=25, n_max=60)
        rec = _run_chunk(cfg, 30, 31)[0]
        assert rec["status"] == "pass"
        verdict = replay(rec["instance"], "theorem1_convex")
        assert (verdict["status"], verdict["diagnostic"]) == (rec["status"], rec["diagnostic"])

    def test_total_degree_n_hypothesis_is_the_points(self):
        # m = n = 60: every point lies in the region, but the roots found
        # again from the rounded coefficients of their product lay up to
        # 1.6e-4 from them, and one fell outside
        cfg = CampaignConfig(property="theorem1_convex", trials=200,
                             seed=(9701 << 20) | 2, n_min=25, n_max=60)
        rec = _run_chunk(cfg, 176, 177)[0]
        assert rec["trial_seed"] == 5489208085044210922
        inst = rec["instance"]
        P = jsonio.multiaffine_from_json(inst["multiaffine"])
        assert P.n == P.total_degree == 60
        assert rec["status"] == "pass"
        assert replay(inst)["status"] == "pass"
        w = jsonio.points_from_json(inst["points"])
        rep = theorem1_hypothesis(w, 60, jsonio.region_from_json(inst["region"]))
        assert rep.holds and rep.derivative_roots == tuple(w)

    @pytest.mark.parametrize("prop", ["theorem1_convex", "grace"])
    def test_identical_reports_across_jobs(self, prop):
        cfgs = [CampaignConfig(property=prop, trials=40, seed=11, n_min=25, n_max=60,
                               jobs=jobs) for jobs in (1, 2)]
        a, b = (jsonio.dumps(run_campaign(cfg).to_json()) for cfg in cfgs)
        assert a == b

    def test_apolarity_identity_above_degree_20(self):
        rep = run_campaign(CampaignConfig(property="apolarity_identity", trials=20,
                                          seed=3, n_min=25, n_max=60))
        assert rep.passed == 20

    def test_grace_pairs_keep_degree_n(self):
        rep = run_campaign(CampaignConfig(property="grace", trials=100,
                                          seed=(8105 << 20) | 5, n_min=25, n_max=60))
        assert not [f for f in rep.failures if "degree exactly" in f["diagnostic"]]

    def test_grace_checks_the_roots_a_was_built_from(self):
        # found again from the rounded coefficients of a, the roots of a
        # left the region in 111 of these trials
        rep = run_campaign(CampaignConfig(property="grace", trials=200,
                                          seed=(8105 << 20) | 0, n_min=25, n_max=60))
        assert (rep.passed, rep.failed, rep.errored, rep.notes) == (200, 0, 0, [])

    def test_walsh_classic_diagonal_has_degree_n(self):
        cfg = CampaignConfig(property="walsh_classic", trials=200,
                             seed=(8101 << 20) | 1, n_min=25, n_max=60)
        gen, _ = PROPERTIES["walsh_classic"]
        for i in range(cfg.trials):
            inst = gen(random.Random(trial_seed(cfg.seed, i)), cfg)
            P = jsonio.multiaffine_from_json(inst["multiaffine"])
            assert diagonal(P).degree() == P.n


class TestReplay:
    def test_replays_recorded_pass(self):
        cfg = CampaignConfig(property="derivative_identity", trials=5, seed=9)
        for i in range(5):
            rec = _run_chunk(cfg, i, i + 1)[0]
            verdict = replay(rec["instance"], "derivative_identity")
            assert verdict["status"] == rec["status"]

    def test_replays_paper_counterexample_as_hypothesis_violation(self):
        fixture = {
            "property": "theorem1_convex",
            "multiaffine": {"n": 2, "E": [[0.0, 0.0], [1.0, 0.0]]},
            "points": [[-1.0, 0.0], [1.0, 0.0]],
            "region": {"kind": "exterior", "closed": True,
                       "center": [0.0, 0.0], "radius": 1.0},
            "classic": False,
        }
        verdict = replay(fixture)
        assert verdict["status"] == "hypothesis-violation"

    def test_unknown_property_rejected(self):
        with pytest.raises(InvalidInput):
            replay({"property": "bogus"})

    def test_failure_replays_at_its_campaign_tolerance(self):
        rep = run_campaign(CampaignConfig(property="grace", trials=2, seed=1, root_tol=1e-30))
        inst = rep.failures[0]["instance"]
        assert inst["root_tol"] == 1e-30
        doc, _ = replay_verdict(inst)
        assert (doc["status"], doc["diagnostic"]) == ("error", rep.failures[0]["diagnostic"])
        # at the default tolerance the same instance passes
        assert replay({k: x for k, x in inst.items() if k != "root_tol"})["status"] == "pass"

    @pytest.mark.parametrize("tol", [0, math.inf, "1e-12", None])
    def test_bad_recorded_tolerance_is_invalid_input(self, tol):
        cfg = CampaignConfig(property="derivative_identity", trials=1)
        inst = _run_chunk(cfg, 0, 1)[0]["instance"]
        with pytest.raises(InvalidInput):
            replay({**inst, "root_tol": tol})


class TestFailurePaths:
    """Each check's failure, forced by patching what it reads: the
    campaign's counts, a failure record per trial whose instance carries
    the campaign's root_tol, and a replay of that record that gives the
    same diagnostic."""

    TOL = 1e-11

    def failures(self, prop, trials=6, seed=3):
        cfg = CampaignConfig(property=prop, trials=trials, seed=seed, root_tol=self.TOL)
        rep = run_campaign(cfg)
        assert (rep.passed, rep.failed, rep.errored, rep.notes) == (0, trials, 0, [])
        assert [f["trial_seed"] for f in rep.failures] == [
            trial_seed(seed, i) for i in range(trials)]
        for f in rep.failures:
            assert f["instance"]["property"] == prop
            assert f["instance"]["root_tol"] == self.TOL
            doc, _ = replay_verdict(f["instance"])
            assert (doc["status"], doc["diagnostic"]) == ("fail", f["diagnostic"])
        return rep.failures

    def patch_theorem2_report(self, monkeypatch, changes):
        real = campaign._theorem2_core

        def core(inst, k):
            report = yield from real(inst, k)
            return dataclasses.replace(report, **changes(report))
        monkeypatch.setattr(campaign, "_theorem2_core", core)

    def test_theorem2_count_below_the_bound(self, monkeypatch):
        self.patch_theorem2_report(monkeypatch, lambda r: {
            "count_in_disk": r.bound - 1, "satisfied": False})
        for f in self.failures("theorem2"):
            inst = f["instance"]
            n, k = len(inst["inner_zeros"]) + 1, inst["k"]
            bound = theorem2_bound(n, k)
            assert f["diagnostic"] == f"count {bound - 1} < bound {bound} (n={n}, k={k})"

    def test_theorem2_mean_residual(self, monkeypatch):
        self.patch_theorem2_report(monkeypatch, lambda r: {"mean_residual": 1.0})
        for f in self.failures("theorem2"):
            assert f["diagnostic"] == "mean residual 1.000e+00 above 1e-12"

    def test_apolarity_identity(self, monkeypatch):
        real = campaign.apolarity_functional
        monkeypatch.setattr(campaign, "apolarity_functional",
                            lambda a, b, n: real(a, b, n) + 1)
        for f in self.failures("apolarity_identity"):
            assert re.fullmatch(r"identity residual \S+ above 1e-10", f["diagnostic"])

    def test_derivative_identity(self, monkeypatch):
        monkeypatch.setattr(campaign, "kth_derivative_identity", lambda n, k, y: 1.0)
        for f in self.failures("derivative_identity"):
            assert f["diagnostic"] == "closed-form residual 1.000e+00 above 1e-11"

    def test_gauss_lucas(self, monkeypatch):
        real = campaign._gauss_lucas_core

        def core(p):
            yield from real(p)
            return False
        monkeypatch.setattr(campaign, "_gauss_lucas_core", core)
        for f in self.failures("gauss_lucas"):
            assert f["diagnostic"] == "critical point outside the root hull"

    def test_hypothesis_violations_are_notes(self, monkeypatch):
        monkeypatch.setattr(coincidence, "is_apolar", lambda a, b, n: False)
        cfg = CampaignConfig(property="grace", trials=6, seed=3)
        rep = run_campaign(cfg)
        # counted as passed, recorded as notes, not as failures
        assert (rep.passed, rep.failed, rep.errored, rep.failures) == (6, 0, 0, [])
        assert [n["trial_seed"] for n in rep.notes] == [trial_seed(3, i) for i in range(6)]
        gen, _ = PROPERTIES["grace"]
        for note in rep.notes:
            assert note["status"] == "hypothesis-violation"
            assert note["diagnostic"].startswith("pair is not apolar: A(a,b) = ")
            # a note carries no instance: its trial seed draws it again
            inst = gen(random.Random(note["trial_seed"]), cfg)
            doc = replay(inst)
            assert (doc["status"], doc["diagnostic"]) == (note["status"], note["diagnostic"])
