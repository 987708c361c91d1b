"""Package-wide guards: checks that survive ``python -O`` (which strips asserts),
a public surface that imports cleanly, source that parses at the declared
Python floor, and a cold start and a suite run that stay light."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import schurbott

PACKAGE_DIR = Path(schurbott.__file__).parent


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements (stripped by -O): {found}"


def test_public_names_are_unique_and_resolve():
    names = schurbott.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(schurbott, n)] == []
    namespace = {}
    exec("from schurbott import *", namespace)
    assert set(names) <= set(namespace)


def test_cli_import_loads_no_code_generation_modules():
    # Every command starts a fresh interpreter.  `dataclasses` alone pulls in
    # `inspect`, `ast`, `dis` and `tokenize` and generates code at import;
    # the value types are plain classes, so importing the CLI needs none of them.
    code = (
        "import sys; before = set(sys.modules); import schurbott.cli; "
        "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & (set(sys.modules) - before)))"
    )
    src = str(PACKAGE_DIR.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_verify_paper_runs_the_same_under_dash_o():
    # -O strips assert statements; every guard is an explicit raise, so the
    # suite must pass with the same verdicts and details either way
    src = str(PACKAGE_DIR.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    outputs = []
    for flags in (["-O"], []):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "schurbott", "--format", "json", "verify-paper", "--d-max", "9"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, (flags, proc.stderr)
        outputs.append(proc.stdout)
    assert [r["verdict"] for r in json.loads(outputs[0])] == ["pass"] * 10
    assert outputs[0] == outputs[1]


def test_run_all_streams_its_sweeps():
    # the d-sweeping checks build each label's or pair's fibre terms once,
    # keep one at a time and keep only its threshold, in one dict per check:
    # the suite peaks near 0.44 MB, and a table of every pair's terms would
    # add about 2.3 MB
    code = (
        "import tracemalloc; from schurbott import verify; tracemalloc.start(); "
        "verify.run_all(12); print(tracemalloc.get_traced_memory()[1])"
    )
    src = str(PACKAGE_DIR.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 1_400_000


def test_source_parses_at_the_declared_python_floor():
    # tomllib is 3.11+, so the floor is read with a regex; the parse rejects
    # syntax newer than the floor (except*, type aliases, PEP 695 generics),
    # not calls to newer stdlib APIs
    root = PACKAGE_DIR.parent.parent
    match = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', (root / "pyproject.toml").read_text(), re.M)
    assert match, "pyproject.toml declares no requires-python floor"
    floor = (int(match[1]), int(match[2]))
    paths = sorted((root / "src").rglob("*.py")) + sorted((root / "tests").rglob("*.py"))
    assert len(paths) > 10
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=floor)
