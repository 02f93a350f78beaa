"""No verdict may rest on an `assert`: `python -O` strips them.  A broken
input raises the one ConsistencyError, through the one raise-unless-ok
helper `liecore._check`, so that `verify.run` has one error to catch.

Scans the package sources with `ast`.
"""

import ast
import builtins
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "subadjoint"


def _trees():
    for path in sorted(SRC.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), str(path))


def test_no_asserts_in_package():
    found = [
        f"{module}.py:{node.lineno}"
        for module, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements: {found}"


def _base_name(node) -> str:
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")


def test_three_exception_classes():
    # a class is an exception when a base is a builtin exception or one of
    # the package's own
    bases = {node.name: {_base_name(b) for b in node.bases}
             for _, tree in _trees() for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef)}
    found = set()
    while True:
        more = {name for name, names in bases.items()
                if names & found or any(
                    isinstance(getattr(builtins, b, None), type)
                    and issubclass(getattr(builtins, b), BaseException)
                    for b in names)}
        if more == found:
            break
        found = more
    assert found == {"CaseExcludedError", "ConsistencyError",
                     "ProlongDepthError"}


def _raises_unless(fn) -> bool:
    """fn's body, its docstring aside, is `if not ...: raise ...`."""
    body = [s for s in fn.body if not (isinstance(s, ast.Expr)
                                       and isinstance(s.value, ast.Constant))]
    return (len(body) == 1 and isinstance(body[0], ast.If)
            and isinstance(body[0].test, ast.UnaryOp)
            and isinstance(body[0].test.op, ast.Not)
            and not body[0].orelse
            and [type(s) for s in body[0].body] == [ast.Raise])


def test_one_raise_unless_ok_helper():
    found = [f"{module}.{node.name}" for module, tree in _trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and _raises_unless(node)]
    assert found == ["liecore._check"]
