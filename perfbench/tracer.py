"""Run one `verify` invocation in-process with spans around each layer.

Usage:  python3 tracer.py SPANS_FILE [verify arguments ...]

The package must be importable (the benchmark puts the checkout's `src/` on
PYTHONPATH).  Each function named in TARGETS is replaced, in its defining
module or class and under every name another `subadjoint` module imported it
as, by a wrapper that records a span (name, start, end, parent) and, for some
layers, a count.  Spans stay in memory and are written as JSON lines to
SPANS_FILE when the invocation ends; the report goes to stdout and the exit
code is the CLI's, exactly as for `python -m subadjoint`.
"""

from __future__ import annotations

import functools
import json
import sys
import time


def _rows(args, kwargs, result):
    return len(args[1])


def _brackets(args, kwargs, result):
    return len(result.brackets)


def _levels_stopped_early(args, kwargs, result):
    return sum(1 for v in result.stopped_early.values() if v)


# (module, attribute path, span name, count taken from the call or None)
TARGETS = [
    ("rootsys", "build_root_system", "rootsys.build_root_system", None),
    ("rootsys", "chevalley_table", "rootsys.chevalley_table", _brackets),
    ("cases", "build_case", "cases.build_case", None),
    ("cases", "sample_closed_orbit", "cases.sample_closed_orbit", None),
    ("cases", "check_xvv", "cases.check_xvv", None),
    ("cases", "fundamental_forms", "cases.fundamental_forms", None),
    ("liecore", "check_jacobi", "liecore.check_jacobi", None),
    ("liecore", "contact_grading", "liecore.contact_grading", None),
    ("galg", "build_g", "galg.build_g", None),
    ("galg", "g_jacobi_violations", "galg.g_jacobi", None),
    ("galg", "verify_structure_identities", "galg.identities", None),
    ("galg", "verify_g_module_structure", "galg.identities", None),
    ("prolong", "prolongation", "prolong.prolongation",
     _levels_stopped_early),
    ("spencer", "spencer_spaces", "spencer.spencer_spaces", None),
    ("spencer", "spencer_differential", "spencer.differential", None),
    ("spencer", "q_dimension", "spencer.q_dimension", None),
    ("spencer", "partial_prime_checks", "spencer.partial_prime_checks", None),
    ("spencer", "summand_cI_table", "spencer.summand_cI_table", None),
    ("spencer", "conjugation_expansion_check", "spencer.conjugation_expansion",
     None),
    ("linalg", "rows_to_modp_array", "linalg.modp_convert", None),
    ("linalg", "ModpDenseRref.add_batch", "linalg.modp", _rows),
    ("linalg", "SparseRationalMatrix.rank", "linalg.exact", None),
    ("linalg", "SparseRationalMatrix.kernel", "linalg.exact", None),
    ("linalg", "SparseRationalMatrix.det", "linalg.exact", None),
    ("linalg", "SparseRationalMatrix.solve", "linalg.exact", None),
    ("verify", "run", "verify.run", None),
]


class Tracer:
    """Spans of one invocation, kept in memory until `write`."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start_ns, end_ns, parent, count]
        self.stack: list[int] = []
        self.solves: list[list[int]] = []   # [ncols, rank] per mod-p solver

    def wrap(self, name, fn, count=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1, None])
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[sid][2] = clock()
            if count is not None:
                spans[sid][4] = count(args, kwargs, result)
            return result

        return traced

    def install(self, modules: dict) -> None:
        for mod_name, path, name, count in TARGETS:
            owner = modules[mod_name]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, count)
            setattr(owner, attr, wrapped)
            if cls_path:
                continue
            # `from .x import f` binds f again in the importing module
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        self._track_modp_solves(modules["linalg"].ModpDenseRref)

    def _track_modp_solves(self, cls) -> None:
        """Record the width and final rank of every mod-p solver."""
        solves = self.solves
        init, add_batch = cls.__init__, cls.add_batch

        @functools.wraps(init)
        def traced_init(obj, ncols, p):
            init(obj, ncols, p)
            obj._bench_solve = len(solves)
            solves.append([ncols, 0])

        @functools.wraps(add_batch)
        def traced_add_batch(obj, B):
            add_batch(obj, B)
            solves[obj._bench_solve][1] = obj.rank

        cls.__init__ = traced_init
        cls.add_batch = traced_add_batch

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, count) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "count": count}) + "\n")
            fh.write(json.dumps({"modp_solves": self.solves}) + "\n")


def main(argv: list[str]) -> int:
    spans_path, verify_args = argv[0], argv[1:]
    import subadjoint  # noqa: F401  (imports every layer module)
    import subadjoint.cli as cli

    modules = {name.rsplit(".", 1)[-1]: mod
               for name, mod in sys.modules.items()
               if name.startswith("subadjoint.")}
    tracer = Tracer()
    tracer.install(modules)
    try:
        return cli.main(verify_args)
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
