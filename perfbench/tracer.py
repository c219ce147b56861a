"""In-memory span recorder that wraps polygeom's public functions.

The wrappers live here, in the benchmark, not in the library: `install`
replaces every public function of each layer module (and the public
methods of `Polynomial`) by a wrapper wherever a polygeom module holds a
reference to it, and wraps the generator and check of every entry of
`campaign.PROPERTIES`. `uninstall` puts the originals back.

A span is the tuple (name, span id, parent span id, start ns, end ns,
context, attr, error). Context names the benchmark operation and trial
(or CLI invocation) the span belongs to; attr is a per-function work
figure (input degree of `find_roots`, bytes of `dumps` and `emit_svg`,
the property of a campaign generator or check);
error is the exception class name when the call raised. Spans stay in
memory and are written once, by `dump`, at the end of the traced phase.
Forked pool workers start an empty buffer and write it to their own file
when they exit; `collect_workers` merges those files.
"""

from __future__ import annotations

import functools
import glob
import importlib
import inspect
import json
import os
import time
import warnings
from collections import Counter
from multiprocessing import util as mp_util

LAYERS = ("rootfind", "poly", "apolarity", "coincidence", "derivative_bound",
          "regions", "jsonio", "campaign", "cli", "svgplot")

# Called so often (per coefficient or per root) that a span would cost
# more than the call itself: these are counted, and their time stays in
# the caller's self time.
COUNT_ONLY = frozenset({
    "poly.Polynomial.__call__", "poly.binomial", "jsonio.complex_to_json",
    "jsonio.complex_from_json", "campaign.trial_seed",
})

POLY_METHODS = ("__init__", "__call__", "derivative", "__add__", "__sub__",
                "__neg__", "__mul__", "__rmul__", "shifted_constant")

# span ids are pid * _ID_BASE + a per-process counter, so ids from forked
# workers never collide with the parent's
_ID_BASE = 10 ** 9


def _find_roots_degree(args, result, err):
    return args[0].degree()


def _text_bytes(args, result, err):
    return None if err else len(result.encode("utf-8"))


def _file_bytes(args, result, err):
    return None if err else os.path.getsize(args[2])


ATTRS = {
    "rootfind.find_roots": _find_roots_degree,
    "jsonio.dumps": _text_bytes,
    "svgplot.emit_svg": _file_bytes,
}


class Tracer:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.stack: list[int] = []
        self.base_ctx = ""
        self._patches: list[tuple[object, str, object]] = []
        self._saved_warnings = None
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self._next_id = self.pid * _ID_BASE
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.trials = 0
        self.ctx = self.base_ctx

    def set_context(self, ctx: str) -> None:
        """Name the benchmark operation that the next spans belong to."""
        self.base_ctx = self.ctx = ctx

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name: str, fn, const_attr=None):
        tracer = self
        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        attr_of = ATTRS.get(name)
        starts_trial = name == "campaign.generate"

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if starts_trial:
                tracer.trials += 1
                tracer.ctx = f"{tracer.base_ctx}/p{tracer.pid}/t{tracer.trials}"
            tracer._next_id += 1
            sid = tracer._next_id
            stack = tracer.stack
            parent = stack[-1] if stack else 0
            stack.append(sid)
            result = err = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                err = type(e).__name__
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                attr = attr_of(args, result, err) if attr_of else const_attr
                tracer.spans.append((name, sid, parent, start, end, tracer.ctx, attr, err))
        return spanned

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every layer's public functions and start counting warnings."""
        mods = {layer: importlib.import_module(f"polygeom.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in mods.items():
            for fname, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not fname.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self._wrap(f"{layer}.{fname}", obj)
        poly_cls = mods["poly"].Polynomial
        for meth in POLY_METHODS:
            fn = vars(poly_cls)[meth]
            if fn not in wrapped:
                name = "poly.Polynomial" if meth == "__init__" else f"poly.Polynomial.{meth}"
                wrapped[fn] = self._wrap(name, fn)
            self._patch(poly_cls, meth, wrapped[fn])
        # rebind every reference a polygeom module holds, so that
        # `from .rootfind import find_roots` call sites see the wrapper too
        for mod in [importlib.import_module("polygeom"), *mods.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])
        props = mods["campaign"].PROPERTIES
        for prop, (gen, check) in list(props.items()):
            self._patch_item(props, prop, (self._wrap("campaign.generate", gen, prop),
                                           self._wrap("campaign.check", check, prop)))

        self._saved_warnings = (warnings.filters[:], warnings.showwarning)
        warnings.simplefilter("always", RuntimeWarning)
        warnings.showwarning = self._count_warning
        mp_util.register_after_fork(self, Tracer._after_fork)

    def _patch_item(self, mapping: dict, key, new) -> None:
        self._patches.append((mapping, key, mapping[key]))
        mapping[key] = new

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._patches.clear()
        if self._saved_warnings is not None:
            warnings.filters[:], warnings.showwarning = self._saved_warnings
            self._saved_warnings = None

    def _count_warning(self, message, category, filename, lineno, file=None, line=None):
        if issubclass(category, RuntimeWarning) and "overflow" in str(message):
            self.counts["rootfind.overflow_warnings"] += 1
        else:
            self.counts["warnings.other"] += 1

    # ------------------------------------------------------------- output

    def _after_fork(self) -> None:
        # a fresh pool worker: drop the parent's spans, keep its open stack
        # (so worker spans point at the parent's run_campaign span) and
        # write this worker's spans when it exits
        if not self._patches:
            return
        self._reset()
        mp_util.Finalize(self, self.dump_worker, exitpriority=100)

    def dump_worker(self) -> None:
        path = os.path.join(self.out_dir, f"worker-{self.pid}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"spans": self.spans, "counts": self.counts}, f)

    def collect_workers(self) -> None:
        """Merge the span files that exited pool workers wrote."""
        for path in sorted(glob.glob(os.path.join(self.out_dir, "worker-*.json"))):
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
            os.remove(path)
            self.merge(doc["spans"], doc["counts"])

    def merge(self, spans, counts) -> None:
        self.spans.extend(tuple(s) for s in spans)
        self.counts.update(counts)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "id", "parent", "start_ns", "end_ns",
                                  "context", "attr", "error"],
                       "spans": self.spans, "counts": self.counts}, f)


def same_process(a: int, b: int) -> bool:
    return a // _ID_BASE == b // _ID_BASE


class Profile:
    """Per-name call counts, total and self time of a list of spans.

    Self time is a span's duration minus the durations of its direct
    children in the same process (children in a pool worker run in
    parallel with the parent, so they are not subtracted).
    """

    def __init__(self, spans, counts):
        self.spans = spans
        self.counts = Counter(counts)
        child_ns: Counter = Counter()
        for s in spans:
            if s[2] and same_process(s[1], s[2]):
                child_ns[s[2]] += s[4] - s[3]
        self.self_ns: Counter = Counter()
        for s in spans:
            self.counts[s[0]] += 1
            self.self_ns[s[0]] += s[4] - s[3] - child_ns[s[1]]

    def calls(self, name: str) -> int:
        return self.counts[name]

    def self_s(self, *names: str, prefix: str | None = None) -> float:
        total = sum(self.self_ns[n] for n in names)
        if prefix is not None:
            total += sum(v for n, v in self.self_ns.items() if n.startswith(prefix))
        return total / 1e9

    def named(self, name: str):
        return [s for s in self.spans if s[0] == name]
