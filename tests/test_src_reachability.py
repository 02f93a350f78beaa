"""Every function, class and method in src/ is reached from `cli.main`.

The package is the verifier: code that no `verify` run reaches, only
tests, belongs in tests/ (see tests/oracles.py).  The scan parses src/
with `ast` and follows names from `cli.main`:
- a top-level function, class or module-level assignment (a table such as
  `verify.CHECKS`) reaches every name its body, decorators, bases and
  default values read, annotations aside;
- a class body reaches what its bases, decorators, class-level statements
  and dunder methods read.  Any other method or property is reached only
  when its class is reached and reached code reads an attribute of that
  name (`x.name`); it then reaches what its own body reads;
- a name resolves to its own module's top-level binding or to a
  `from .module import name` import; `__init__.py` re-exports are not read.

ALLOWED lists the definitions kept although `cli.main` does not reach
them, a method as ("module", "Class.method"); each is a root of the walk,
so what it uses is kept too, and a method root reaches its class.  Each
entry must still be a `perfbench/tracer.py` TARGETS entry, and no entry
may be reached from `cli.main` itself.

A second scan reads every parameter list: each parameter of a src/
function or method is read by name in its body, so that no caller passes
a value nothing uses.  A method's receiver (self, cls) is exempt, and so
are lambdas, whose signature a table of them fixes.

A third scan reads every dataclass: each field of a src/ dataclass is read
somewhere in src/ as `.field`, so that no constructor stores a value only
tests read.  It matches attribute names only, so a same-named attribute
read anywhere else in src/ still hides a field: `SubadjointCase.v0_index`
went unnoticed that way, behind the `GAlgebra.v0_index` reads.

A fourth scan keeps verdicts in verify.py: no other src/ module holds the
string constant "PASS" or "FAIL" outside its docstrings.  The other
modules return facts, and verify.py decides.  A fifth scan keeps the
outcomes to those two: no string constant anywhere in src/, verify.py
and docstrings included, mentions "INCONCLUSIVE", "SKIPPED" or
"DEGRADED", the statuses no check produces.
"""

import ast
from pathlib import Path

from test_tracer_targets import _load

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "subadjoint"
ENTRY = ("cli", "main")

TRACER = "wrapped by perfbench/tracer.py TARGETS; leaves after benchmark v2"
ALLOWED = {
    ("prolong", "prolongation"): TRACER,
    ("spencer", "spencer_differential"): TRACER,
    ("linalg", "SparseRationalMatrix.solve"): TRACER,
    ("linalg", "ModpDenseRref.add_batch"): TRACER,
    ("linalg", "rows_to_modp_array"): TRACER,
}


class _Reads(ast.NodeVisitor):
    """Names and attribute names read by a definition, annotations left out."""

    def __init__(self):
        self.names = set()
        self.attrs = set()

    def visit_Name(self, node):
        self.names.add(node.id)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self.attrs.add(node.attr)
        self.visit(node.value)

    def visit_arg(self, node):
        pass  # only the annotation is under an arg

    def visit_FunctionDef(self, node):
        for child in (*node.decorator_list, node.args, *node.body):
            self.visit(child)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_AnnAssign(self, node):
        if node.value is not None:
            self.visit(node.value)


def _is_method(stmt) -> bool:
    """A method the scan follows by attribute name: dunders are not."""
    return (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (stmt.name.startswith("__") and stmt.name.endswith("__")))


def _graph():
    """(edges, attrs, methods, checked).

    edges[key] is the set of keys a definition reads by name and attrs[key]
    the attribute names it reads; a key is (module, name), or (module,
    "Class.method") for a method.  methods[(module, Class)] holds the
    method names of each class; checked holds the functions, classes and
    methods.
    """
    edges, attrs, methods, checked = {}, {}, {}, set()
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
        bindings = {}  # top-level name -> statements binding it
        nodes = {}     # key -> the AST nodes it reads from
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bindings.setdefault(stmt.name, []).append(stmt)
                nodes.setdefault(stmt.name, []).append(stmt)
                checked.add((module, stmt.name))
            elif isinstance(stmt, ast.ClassDef):
                bindings.setdefault(stmt.name, []).append(stmt)
                checked.add((module, stmt.name))
                own = nodes.setdefault(stmt.name, [])
                own += [*stmt.decorator_list, *stmt.bases, *stmt.keywords]
                names = methods.setdefault((module, stmt.name), set())
                for item in stmt.body:
                    if _is_method(item):
                        key = f"{stmt.name}.{item.name}"
                        nodes.setdefault(key, []).append(item)
                        names.add(item.name)
                        checked.add((module, key))
                    else:
                        own.append(item)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    for node in ast.walk(target):
                        if isinstance(node, ast.Name):
                            bindings.setdefault(node.id, []).append(stmt)
                            nodes.setdefault(node.id, []).append(stmt)
        for name, reads_from in nodes.items():
            reads = _Reads()
            for node in reads_from:
                reads.visit(node)
            edges[(module, name)] = {
                (module, x) if x in bindings else imported[x]
                for x in reads.names - {name}
                if x in bindings or x in imported
            }
            if "." in name:  # a method reaches its class
                edges[(module, name)].add((module, name.split(".")[0]))
            attrs[(module, name)] = reads.attrs
    return edges, attrs, methods, checked


def _reached(graph, roots) -> set:
    """Keys reached from roots: by name, then methods of reached classes by
    attribute name, until nothing new is reached."""
    edges, attrs, methods, _ = graph
    seen, read, stack = set(), set(), list(roots)
    while stack:
        while stack:
            key = stack.pop()
            if key not in seen:
                seen.add(key)
                read |= attrs.get(key, set())
                stack.extend(edges.get(key, ()))
        stack = [(module, f"{cls}.{name}")
                 for (module, cls), names in methods.items()
                 if (module, cls) in seen
                 for name in names & read
                 if (module, f"{cls}.{name}") not in seen]
    return seen


def test_src_is_reachable_from_cli_main():
    graph = _graph()
    checked = graph[3]
    assert ENTRY in checked
    unreached = checked - _reached(graph, [ENTRY, *ALLOWED])
    assert not unreached, sorted(f"{m}.{n}" for m, n in unreached)


def test_allow_list_entries_still_hold():
    graph = _graph()
    checked = graph[3]
    from_entry = _reached(graph, [ENTRY])
    targets = {(mod, path) for mod, path, _, _ in _load("tracer").TARGETS}
    stale = []
    for key in ALLOWED:
        name = ".".join(key)
        if key not in checked:
            stale.append(f"{name}: not defined in src/")
        elif key in from_entry:
            stale.append(f"{name}: reached from cli.main, drop the entry")
        elif key not in targets:
            stale.append(f"{name}: no longer a tracer target")
    assert not stale, stale


def _unread_parameters() -> list[str]:
    """"module.function(parameter)" for each parameter of a src/ function
    or method that its body does not read by name."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        receivers = {
            id((*item.args.posonlyargs, *item.args.args)[0])
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for item in cls.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and (item.args.posonlyargs or item.args.args)
            and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in item.decorator_list)
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                      *(x for x in (a.vararg, a.kwarg) if x)]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            out += [f"{path.stem}.{node.name}({p.arg})" for p in params
                    if id(p) not in receivers and p.arg not in read]
    return out


def test_every_parameter_is_read():
    assert not _unread_parameters()


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass"
               for d in cls.decorator_list)


def _unread_fields() -> list[str]:
    """"module.Class.field" for each field of a src/ dataclass that no src/
    code reads as an attribute of that name."""
    fields, read = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields += [(path.stem, node.name, stmt.target.id)
                           for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign)
                           and isinstance(stmt.target, ast.Name)]
    return [f"{m}.{c}.{f}" for m, c, f in fields if f not in read]


def test_every_dataclass_field_is_read():
    assert not _unread_fields()


STATUSES = {"PASS", "FAIL"}
RETIRED = ("INCONCLUSIVE", "SKIPPED", "DEGRADED")


def _constants(path: Path):
    """The string constants of a src/ file, as (node, is a docstring)."""
    tree = ast.parse(path.read_text(), str(path))
    docstrings = {
        id(node.body[0].value) for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    return [(node, id(node) in docstrings) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)]


def _status_constants() -> list[str]:
    """"module.py:line" for each status string constant outside verify.py
    that is not a docstring."""
    return [f"{path.name}:{node.lineno}"
            for path in sorted(SRC.glob("*.py")) if path.name != "verify.py"
            for node, doc in _constants(path)
            if node.value in STATUSES and not doc]


def test_statuses_are_decided_in_verify_only():
    assert not _status_constants()


def _retired_status_constants() -> list[str]:
    """"module.py:line" for each string constant in src/ that mentions a
    retired status."""
    return [f"{path.name}:{node.lineno}"
            for path in sorted(SRC.glob("*.py"))
            for node, _ in _constants(path)
            if any(word in node.value for word in RETIRED)]


def test_no_status_but_pass_and_fail():
    assert not _retired_status_constants()
