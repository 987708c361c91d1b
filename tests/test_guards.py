"""Guards in the package must survive ``python -O``, which strips asserts."""

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
