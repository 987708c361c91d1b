"""Every benchmark operation's output matches its committed golden digest.

Runs each workload of perfbench/workloads.py in this process, at the full
and tiny scales with seed 0, and compares each operation's digest with
perfbench/golden.json, so an output change fails the test suite and not
only the benchmark.  Only reads the files under perfbench/.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import workloads  # noqa: E402

GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())


@pytest.mark.parametrize("scale", ["full", "tiny"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_outputs_match_golden(name, scale):
    workload = workloads.WORKLOADS[name]
    mods = workload.load()
    inputs = workload.generate(mods, 0, workloads.SCALES[scale])
    _, ops = workload.run(mods, inputs, None)
    digests = {key: value for key, _, value in ops}
    assert digests and None not in digests.values()  # None: the operation raised
    assert digests == {key: GOLDEN[name].get(key) for key in digests}
