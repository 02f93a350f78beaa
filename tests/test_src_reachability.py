"""Every top-level function and class in src/ is reached from `cli.main`.

The package is the verifier: code that no `verify` run reaches, only
tests, belongs in tests/ (see tests/oracles.py).  The scan parses src/
with `ast` and follows names from `cli.main`:
- a top-level function, class or module-level assignment (a table such as
  `verify.CHECKS`) reaches every name its body, decorators, bases and
  default values read, annotations aside; a class reaches what its
  methods read;
- a name resolves to its own module's top-level binding or to a
  `from .module import name` import; `__init__.py` re-exports are not read.

ALLOWED lists the names kept although `cli.main` does not reach them; each
is a root of the walk, so what it uses is kept too.  Each entry expires
with its reason: a tracer-held name must still be a `perfbench/tracer.py`
TARGETS entry, a mod-p name must still be called by tests/test_linalg.py,
and no entry may be reached from `cli.main` itself.
"""

import ast
from pathlib import Path

from test_tracer_targets import _load_tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "subadjoint"
ENTRY = ("cli", "main")

TRACER = "wrapped by perfbench/tracer.py TARGETS; leaves after benchmark v2"
MODP = "mod-p rank path, tested in tests/test_linalg.py; leaves with it"
ALLOWED = {
    ("prolong", "prolongation"): TRACER,
    ("spencer", "spencer_differential"): TRACER,
    ("linalg", "modp_primes"): MODP,
}


class _Reads(ast.NodeVisitor):
    """Names read by a definition, annotations left out."""

    def __init__(self):
        self.names = set()

    def visit_Name(self, node):
        self.names.add(node.id)

    def visit_arg(self, node):
        pass  # only the annotation is under an arg

    def visit_FunctionDef(self, node):
        for child in (*node.decorator_list, node.args, *node.body):
            self.visit(child)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_AnnAssign(self, node):
        if node.value is not None:
            self.visit(node.value)


def _graph():
    """(edges, checked): edges[(module, name)] is the set of (module, name)
    its definition reads; checked holds the functions and classes."""
    edges, checked = {}, set()
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        if module.startswith("__"):
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {
            alias.asname or alias.name: (node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
            for alias in node.names
        }
        bindings = {}
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bindings.setdefault(stmt.name, []).append(stmt)
                checked.add((module, stmt.name))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    for node in ast.walk(target):
                        if isinstance(node, ast.Name):
                            bindings.setdefault(node.id, []).append(stmt)
        for name, stmts in bindings.items():
            reads = _Reads()
            for stmt in stmts:
                reads.visit(stmt)
            edges[(module, name)] = {
                (module, x) if x in bindings else imported[x]
                for x in reads.names - {name}
                if x in bindings or x in imported
            }
    return edges, checked


def _reached(edges, roots) -> set:
    seen, stack = set(), list(roots)
    while stack:
        key = stack.pop()
        if key not in seen:
            seen.add(key)
            stack.extend(edges.get(key, ()))
    return seen


def _called_in(path: Path) -> set:
    """Names called in a file, as `name(...)` or `obj.name(...)`."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                out.add(func.id)
            elif isinstance(func, ast.Attribute):
                out.add(func.attr)
    return out


def test_src_is_reachable_from_cli_main():
    edges, checked = _graph()
    assert ENTRY in checked
    unreached = checked - _reached(edges, [ENTRY, *ALLOWED])
    assert not unreached, sorted(f"{m}.{n}" for m, n in unreached)


def test_allow_list_entries_still_hold():
    edges, checked = _graph()
    from_entry = _reached(edges, [ENTRY])
    targets = {(mod, path.split(".")[0]) for mod, path, _, _ in _load_tracer().TARGETS}
    linalg_calls = _called_in(ROOT / "tests" / "test_linalg.py")
    stale = []
    for key, why in ALLOWED.items():
        name = ".".join(key)
        if key not in checked:
            stale.append(f"{name}: not defined in src/")
        elif key in from_entry:
            stale.append(f"{name}: reached from cli.main, drop the entry")
        elif why == TRACER and key not in targets:
            stale.append(f"{name}: no longer a tracer target")
        elif why == MODP and key[1] not in linalg_calls:
            stale.append(f"{name}: no longer called by test_linalg.py")
    assert not stale, stale
