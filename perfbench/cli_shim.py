"""One traced polygeom CLI invocation.

    python3 perfbench/cli_shim.py TRACE_OUT CONTEXT CLI-ARGS...

Imports `polygeom.cli`, installs the benchmark's tracer, runs
`polygeom.cli.main(CLI-ARGS)` and exits with its code, like
`python -m polygeom.cli CLI-ARGS` does. On the way out it writes to
TRACE_OUT as JSON the recorded spans, the import and main() times, and
the shim's own time (importing and installing the tracer, uninstalling
it and serialising the spans), so that the parent can take all three out
of the invocation's wall time. `src` must be on PYTHONPATH.
"""

import time

T_TOP = time.perf_counter_ns()

import json  # noqa: E402
import sys  # noqa: E402

from tracer import Tracer  # noqa: E402


def main() -> int:
    out, ctx, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    t0 = time.perf_counter_ns()
    import polygeom.cli

    t1 = time.perf_counter_ns()
    tracer = Tracer(out_dir="")
    tracer.install()
    tracer.set_context(ctx)
    t2 = time.perf_counter_ns()
    code = 1
    try:
        code = polygeom.cli.main(argv)
    finally:
        t3 = time.perf_counter_ns()
        tracer.uninstall()
        spans = json.dumps(tracer.spans)
        counts = json.dumps(tracer.counts)
        shim_ns = (t0 - T_TOP) + (t2 - t1) + (time.perf_counter_ns() - t3)
        with open(out, "w", encoding="utf-8") as f:
            f.write(f'{{"import_ns": {t1 - t0}, "main_ns": {t3 - t2}, "shim_ns": {shim_ns}, '
                    f'"spans": {spans}, "counts": {counts}}}')
    return code


if __name__ == "__main__":
    sys.exit(main())
