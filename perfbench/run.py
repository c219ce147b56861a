"""polygeom benchmark: verified campaign throughput and CLI latency.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lowdeg-serial --seed 1 --seconds 10 --trace 0

Workloads: lowdeg-serial, highdeg-serial, lowdeg-pool, cli-mix (see
README.md). --trace 0 reports the end-to-end metrics BENCHMARK.json
declares; --trace 1 adds a traced replay of the first operations and
reports its per-layer metrics. Progress and detail lines come first; the
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The exit code is 0 only when every correctness gate
held. --smoke shrinks every operation for a quick self-test.
"""

import argparse
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKLOADS = ("lowdeg-serial", "highdeg-serial", "lowdeg-pool", "cli-mix")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny campaigns and one CLI round, for the self-test")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    # read before anything runs: see bench.peak_rss_mb
    launcher_children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "polygeom", "__init__.py")):
        print(f"error: no polygeom sources under {SRC}", file=sys.stderr)
        return 2
    # set before numpy loads: BLAS and OpenMP read these once, and the
    # children (pool workers, CLI runs) inherit them
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)

    t0 = time.perf_counter()
    import polygeom.cli  # imports numpy and every layer

    import_s = time.perf_counter() - t0
    if os.path.dirname(os.path.abspath(polygeom.cli.__file__)) != os.path.join(SRC, "polygeom"):
        print(f"error: polygeom imported from {polygeom.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import bench

    return bench.run(args, import_s, launcher_children_kb)


if __name__ == "__main__":
    sys.exit(main())
