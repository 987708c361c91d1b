"""schurbott benchmark: end-to-end metrics, and per-layer metrics from a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each pass runs in a fresh interpreter (perfbench/worker.py), one at a time,
until --seconds have elapsed.  Every operation's output is compared with the
committed golden digest.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  A traced run
alternates untraced and traced passes, so the overhead of tracing is the
difference of their median pass times.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
GOLDEN = os.path.join(HERE, "golden.json")
WORKLOADS = ("paper", "fibre-sweep", "grassmannian-ext")
# a run ends within this many seconds, the last pass included
RUN_LIMIT_S = 170.0
TAIL_BEYOND = 10

SELF_TIMED = [
    "partitions.Weight",
    "rep_ring.tensor",
    "rep_ring.lr_coefficients",
    "rep_ring.char_of",
    "rep_ring.decompose",
    "rep_ring.ext_power",
    "rep_ring.sym_power",
    "rep_ring.weyl_dim",
    "bwb.bwb_single",
    "bwb.cohomology",
    "bwb.BundleExpr.tensor",
    "bundle_calculus.wedge_nprime",
    "soc.check_semiorthogonal",
    "soc.check_fully_faithful",
    "soc.check_exceptional",
    "soc.ext_decomposition",
    "cli.main",
]
CALL_COUNTED = [
    "partitions.Weight",
    "rep_ring.tensor",
    "rep_ring.lr_coefficients",
    "rep_ring.weyl_dim",
    "bwb.bwb_single",
    "bundle_calculus.wedge_nprime",
]
VERIFY_CHECKS = [
    "check_counting",
    "check_kummer",
    "check_fully_faithful",
    "check_semiorthogonal",
    "check_exceptional_collection",
    "check_normal_bundle",
    "check_cotangent",
    "check_oracle_equivalence",
    "check_pieri",
    "check_rank_identity",
]


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def run_pass(workload: str, seed: int, scale: str, trace: bool, timeout: float) -> dict:
    cmd = [
        sys.executable, WORKER,
        "--workload", workload, "--seed", str(seed), "--scale", scale, "--trace", str(int(trace)),
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(timeout, 1.0)
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload} pass did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def tail(passes: list[list[float]]) -> tuple[float, float, int]:
    """(latency, percentile, samples) of the highest percentile with at least
    TAIL_BEYOND samples above it.

    Taken per pass and reported as the median over passes when a pass has
    enough operations, so that one stall of the machine moves one pass only;
    taken over the pooled operations otherwise.
    """

    def one(latencies: list[float]) -> tuple[float, float]:
        ordered = sorted(latencies)
        n = len(ordered)
        if n <= TAIL_BEYOND:
            return ordered[-1], 100.0
        return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n

    samples = sum(len(p) for p in passes)
    if min(len(p) for p in passes) > TAIL_BEYOND:
        per_pass = [one(p) for p in passes]
        return statistics.median(v for v, _ in per_pass), per_pass[0][1], samples
    value, pct = one([x for p in passes for x in p])
    return value, pct, samples


def layer_metrics(trace: dict, run_s: float) -> dict:
    stats = trace["stats"]

    def stat(name: str, index: int) -> float:
        return stats.get(name, [0, 0.0, 0.0])[index]

    out: dict[str, tuple[float, str]] = {}
    for name in CALL_COUNTED:
        out[f"{name}.calls"] = (stat(name, 0), "count")
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = (stat(name, 2), "s")
    lr_calls = trace["lr_hits"] + trace["lr_misses"]
    out["rep_ring.lr_coefficients.hit_ratio"] = (trace["lr_hits"] / lr_calls if lr_calls else 0.0, "ratio")
    bwb_calls = stat("bwb.bwb_single", 0)
    zero = trace["counters"].get("bwb.bwb_single.zero", 0)
    out["bwb.bwb_single.zero_ratio"] = (zero / bwb_calls if bwb_calls else 0.0, "ratio")
    out["soc.conditions"] = (stat("soc.conditions", 0), "count")
    for check in VERIFY_CHECKS:
        out[f"verify.{check}.s"] = (stat(f"verify.{check}", 1), "s")
    out["trace.self_sum_s"] = (sum(s[2] for s in stats.values()), "s")
    out["trace.run_s"] = (run_s, "s")
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool, scale: str, golden: dict) -> dict:
    """Run passes for `seconds`; return the metrics and the correctness tallies."""
    start = time.perf_counter()
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        elapsed = time.perf_counter() - start
        enough = plain and (traced or not trace)
        if enough and elapsed >= seconds:
            break
        use_trace = trace and len(traced) < len(plain)
        result = run_pass(workload, seed, scale, use_trace, RUN_LIMIT_S - elapsed)
        (traced if use_trace else plain).append(result)

    attempted = failed = 0
    for result in plain + traced:
        for key, _, value in result["ops"]:
            attempted += 1
            failed += value is None or golden.get(workload, {}).get(key) != value
    cold = all(r["cold_cache"] for r in plain + traced)

    pass_latencies = [[op[1] for op in r["ops"]] for r in plain]
    latencies = [x for p in pass_latencies for x in p]
    tail_value, tail_pct, tail_samples = tail(pass_latencies)
    run_s = statistics.median(r["run_s"] for r in plain)
    e2e = {
        "setup_s": (statistics.median(r["setup_s"] for r in plain + traced), "s"),
        "run_s": (run_s, "s"),
        "op_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1000 * tail_value, "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
    }
    notes = {
        "passes": len(plain),
        "traced_passes": len(traced),
        "op_tail_percentile": round(tail_pct, 3),
        "op_samples": tail_samples,
        "failed_ratio": failed / attempted if attempted else 0.0,
        "cold_cache_check": "pass" if cold else "FAIL",
        "cache_after_import": plain[0]["cache_after_import"],
    }
    layers = {}
    consistent = True
    if trace:
        traced_layers = [layer_metrics(r["trace"], r["run_s"]) for r in traced]
        # every span lies inside an operation's timed interval
        consistent = all(m["trace.self_sum_s"][0] <= m["trace.run_s"][0] for m in traced_layers)
        for name, (_, unit) in traced_layers[0].items():
            layers[name] = (statistics.median(m[name][0] for m in traced_layers), unit)
        layers["trace.untraced_run_s"] = (run_s, "s")
        layers["trace.overhead_s"] = (layers["trace.run_s"][0] - run_s, "s")
        notes["self_sum_within_run_s"] = consistent
    return {
        "e2e": e2e,
        "layers": layers,
        "notes": notes,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and cold and consistent,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the smoke test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "schurbott", "__init__.py")):
        print(f"error: no schurbott sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(GOLDEN) as fh:
        golden = json.load(fh)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    print(f"python {sys.version.split()[0]}, nproc {os.cpu_count()}, seed {args.seed}, "
          f"{args.seconds:g} s per workload, trace {args.trace}, scale {args.scale}")
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            res = measure(name, args.seed, args.seconds, bool(args.trace), args.scale, golden)
            for metric, (value, unit) in res["e2e"].items():
                print(f"{name:<17} {metric:<42} {value:>14.6f} {unit}")
            for metric, (value, unit) in res["layers"].items():
                print(f"{name:<17} {metric:<42} {value:>14.6f} {unit}")
            print(f"{name:<17} {json.dumps(res['notes'])}")
            shown = res["layers"] if args.trace else res["e2e"]
            prefix = "" if len(names) == 1 else f"{name}."
            for metric, (value, unit) in shown.items():
                summary["metrics"][prefix + metric] = {"value": value, "unit": unit}
            summary["correct"] = summary["correct"] and res["correct"]
            summary["attempted"] += res["attempted"]
            summary["failed"] += res["failed"]
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
