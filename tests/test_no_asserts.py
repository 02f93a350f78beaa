"""No verdict may rest on an `assert`: `python -O` strips them.

Scans the package sources with `ast`.  rootsys.py is exempt until its
remaining asserts (highest root, extraspecial signs, integrality, diagram
classification) become explicit errors.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "subadjoint"
EXEMPT = {"rootsys.py"}


def test_no_asserts_outside_rootsys():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py")) if path.name not in EXEMPT
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements: {found}"
