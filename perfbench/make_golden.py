"""Regenerate perfbench/golden.json: one output digest per operation key.

Run from the repository root, at the commit whose outputs are the reference:

    python3 perfbench/make_golden.py

A key names an operation's input, and every seed draws its operations from
the same keys (the seed only orders them), so two seeds are run and must
agree digest for digest.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    golden: dict[str, dict[str, str]] = {name: {} for name in run.WORKLOADS}
    for name in run.WORKLOADS:
        for scale in ("full", "tiny"):
            seen = []
            for seed in (0, 1):
                result = run.run_pass(name, seed, scale, False, run.RUN_LIMIT_S)
                ops = {key: value for key, _, value in result["ops"]}
                if None in ops.values():
                    print(f"{name}/{scale}: an operation raised", file=sys.stderr)
                    return 1
                seen.append(ops)
            if seen[0] != seen[1]:
                print(f"{name}/{scale}: outputs depend on the seed", file=sys.stderr)
                return 1
            golden[name].update(seen[0])
            print(f"{name}/{scale}: {len(seen[0])} operations")
    with open(run.GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
