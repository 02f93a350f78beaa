"""perfbench/tracer.py wraps package functions by name: keep every name alive.

A renamed or deleted target would otherwise surface only in a later
`perfbench/run.py --trace 1` run.  The tracer is loaded read-only and no
bytecode is written next to it.
"""

import importlib.util
import sys
from pathlib import Path

import subadjoint  # noqa: F401  (imports every layer module)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_tracer_targets_resolve():
    modules = {name.rsplit(".", 1)[-1]: mod
               for name, mod in sys.modules.items()
               if name.startswith("subadjoint.")}
    targets = _load_tracer().TARGETS
    assert targets
    missing = []
    for mod_name, path, _, _ in targets:
        owner = modules.get(mod_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{mod_name}.{path}")
    assert not missing, missing
