"""One pass of one workload, in a fresh interpreter.

Usage (from the repository root; run.py starts it once per pass):

    python3 perfbench/worker.py --workload paper --seed 1 --scale full --trace 0

A fresh interpreter per pass means every pass starts with the caches a
user's first call meets, with no list of caches to clear by hand.  Before
the timed pass the worker checks that every lru_cache on the package's
modules still holds exactly what importing the package left in it.

Prints one JSON object: set-up and pass times, each operation's key, latency
and output digest, peak RSS, the cache check and, with --trace 1, the
aggregated spans.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LR_CACHE = "schurbott.rep_ring.lr_coefficients"

sys.path.insert(0, HERE)
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]

    start = tracing.CLOCK()
    sys.path.insert(0, SRC)
    mods = workload.load()
    caches = tracing.package_caches()
    after_import = tracing.cache_state(caches)
    inputs = workload.generate(mods, args.seed, workloads.SCALES[args.scale])
    setup_s = tracing.CLOCK() - start

    package = sys.modules["schurbott"]
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        print(f"schurbott imported from {package.__file__}, not {SRC}", file=sys.stderr)
        return 2

    before = tracing.cache_state(caches)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install_layer_tracing(tracer)
    run_s, ops = workload.run(mods, inputs, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "ops": ops,
        "peak_rss_mb": peak_rss_mb,
        "cold_cache": before == after_import,
        "cache_after_import": after_import,
        "trace": None,
    }
    if tracer is not None:
        tracer.uninstall()
        lr_after = tracing.cache_state(caches)[LR_CACHE]
        result["trace"] = {
            "stats": tracer.stats,
            "counters": tracer.counters,
            "lr_hits": lr_after[0] - before[LR_CACHE][0],
            "lr_misses": lr_after[1] - before[LR_CACHE][1],
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
