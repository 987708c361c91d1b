"""Package-wide guards: checks that survive ``python -O`` (which strips asserts),
and a public surface that imports cleanly."""

import ast
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
