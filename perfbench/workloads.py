"""The benchmark's workloads: input generation, the timed pass, output digests.

Each workload is a closed loop in one process: one operation at a time, the
next issued when the previous returns.  ``generate`` builds the inputs from
the benchmark seed (it runs inside the set-up timing); ``run`` times every
operation and hashes its output between operations, outside the timed
intervals.  An operation's key names its input, so one golden digest per key
covers every seed.

``schurbott`` is imported inside ``load`` so that the worker can start the
set-up clock first.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random

from tracer import CLOCK

# Fixed draw of the grassmannian-ext pair pool; --seed sets the order the
# pool runs in.  Independently seeded draws of ~150 pairs varied 0.6-2.0 s
# per pass (the LR cost of one pair spans 1 ms to 400 ms), a spread no
# regression bound could sit above.
POOL_SEED = 2404

SCALES = {
    # paper: `verify-paper --d-max`; sweep: the fibre dimension d;
    # ext: largest d and pairs drawn per (d, k) stratum
    "full": {"paper_d_max": 12, "sweep_d": 14, "ext_d_max": 11, "ext_per_stratum": 7},
    "tiny": {"paper_d_max": 6, "sweep_d": 7, "ext_d_max": 8, "ext_per_stratum": 1},
}


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _csv(entries) -> str:
    return ",".join(str(e) for e in entries)


class Paper:
    """`schurbott --format json verify-paper --d-max 12` through cli.main.

    One operation is one run of the command, the unit a user waits for; its
    output is the JSON list of the ten checks' verdicts and details.  The
    traced run times each check separately.
    """

    name = "paper"

    def load(self):
        from schurbott import cli

        return {"cli": cli}

    def generate(self, mods, seed: int, scale: dict):
        del seed  # the command line has no random input
        d_max = scale["paper_d_max"]
        return {"d_max": d_max, "argv": ["--format", "json", "verify-paper", "--d-max", str(d_max)]}

    def run(self, mods, inputs, tracer):
        out = io.StringIO()
        start = CLOCK()
        try:
            with contextlib.redirect_stdout(out):
                mods["cli"].main(inputs["argv"])
            failed = False
        except Exception:
            failed = True
        run_s = CLOCK() - start
        with tracer.paused() if tracer else contextlib.nullcontext():
            value = None if failed else digest(json.loads(out.getvalue()))
        return run_s, [[f"{inputs['d_max']}|verify-paper", run_s, value]]


class FibreSweep:
    """soc.check_semiorthogonal on every bounded ordered pair of the 2x(d-2) box.

    Driven through soc directly: verify.check_semiorthogonal caps d at 9.
    """

    name = "fibre-sweep"

    def load(self):
        from schurbott import soc

        return {"soc": soc}

    def generate(self, mods, seed: int, scale: dict):
        d = scale["sweep_d"]
        # the box labels in the partition order: more boxes first, then lex
        labels = sorted(
            ((a1, a2) for a1 in range(d - 1) for a2 in range(a1 + 1)),
            key=lambda a: (-(a[0] + a[1]), -a[0], -a[1]),
        )
        pairs = [
            (a, b)
            for i, a in enumerate(labels)
            for b in labels[i + 1 :]
            if a[0] - b[1] <= d - 5
        ]
        random.Random(seed).shuffle(pairs)
        return {"d": d, "pairs": pairs}

    def run(self, mods, inputs, tracer):
        check = mods["soc"].check_semiorthogonal
        d = inputs["d"]
        clock = CLOCK
        ops = []
        run_s = 0.0
        for a, b in inputs["pairs"]:
            start = clock()
            try:
                report = check(a, b, d)
            except Exception:
                report = None
            latency = clock() - start
            run_s += latency
            with tracer.paused() if tracer else contextlib.nullcontext():
                value = None if report is None else digest(report.to_json())
            ops.append([f"{d}|{_csv(a)}|{_csv(b)}", latency, value])
        return run_s, ops


class GrassmannianExt:
    """H^*(E^v (x) F) for irreducible bundles E, F on G(k, d), degree by degree.

    E and F are S^gamma K (x) S^delta Q^v with entries in [-1, 1]; the pool
    draws ext_per_stratum pairs for every d in 6..ext_d_max and k in 3..d-3.
    """

    name = "grassmannian-ext"

    def load(self):
        from schurbott import bwb, partitions

        return {"bwb": bwb, "partitions": partitions}

    def generate(self, mods, seed: int, scale: dict):
        BundleExpr, Weight = mods["bwb"].BundleExpr, mods["partitions"].Weight
        draw = random.Random(POOL_SEED)

        def weight(n: int) -> tuple:
            return tuple(sorted((draw.randint(-1, 1) for _ in range(n)), reverse=True))

        pool = []
        for d in range(6, scale["ext_d_max"] + 1):
            for k in range(3, d - 2):
                for _ in range(scale["ext_per_stratum"]):
                    pool.append((d, k, weight(d - k), weight(k), weight(d - k), weight(k)))
        random.Random(seed).shuffle(pool)
        pairs = []
        for d, k, g1, q1, g2, q2 in pool:
            key = f"{d}|{k}|{_csv(g1)}|{_csv(q1)}|{_csv(g2)}|{_csv(q2)}"
            e = BundleExpr(d, k, {(Weight(g1), Weight(q1)): 1})
            f = BundleExpr(d, k, {(Weight(g2), Weight(q2)): 1})
            pairs.append((key, e, f))
        return {"pairs": pairs}

    def run(self, mods, inputs, tracer):
        cohomology = mods["bwb"].cohomology
        clock = CLOCK
        ops = []
        run_s = 0.0
        for key, e, f in inputs["pairs"]:
            start = clock()
            try:
                coh = cohomology(e.dual().tensor(f))
                coh.dimensions()
            except Exception:
                coh = None
            latency = clock() - start
            run_s += latency
            with tracer.paused() if tracer else contextlib.nullcontext():
                value = None if coh is None else digest(coh.to_json())
            ops.append([key, latency, value])
        return run_s, ops


WORKLOADS = {w.name: w for w in (Paper(), FibreSweep(), GrassmannianExt())}
