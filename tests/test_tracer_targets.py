"""perfbench calls the package by name: keep every name and option alive.

tracer.py wraps package functions by name, and run.py passes `verify`
options; a renamed target or a rejected option would otherwise surface only
in a later perfbench run.  Both scripts are loaded read-only: no bytecode is
written next to them, and sys.path and sys.modules are restored afterwards.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import subadjoint  # noqa: F401  (imports every layer module)
from subadjoint.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(script):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{script}", PERFBENCH / f"{script}.py")
    module = importlib.util.module_from_spec(spec)
    saved_path, saved_modules = sys.path[:], set(sys.modules)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
        sys.path[:] = saved_path
        for name in set(sys.modules) - saved_modules:
            del sys.modules[name]
    return module


def test_tracer_targets_resolve():
    modules = {name.rsplit(".", 1)[-1]: mod
               for name, mod in sys.modules.items()
               if name.startswith("subadjoint.")}
    targets = _load("tracer").TARGETS
    assert targets
    missing = []
    for mod_name, path, _, _ in targets:
        owner = modules.get(mod_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{mod_name}.{path}")
    assert not missing, missing


def test_benchmark_invocations_run(capsys):
    # every (checks, --heavy) shape of the workloads, on B3: exit 0, one
    # all-PASS JSON report, and the same bytes with and without --heavy
    bench = _load("run")
    shapes = sorted({(checks, heavy) for invocations in bench.WORKLOADS.values()
                     for _, checks, heavy in invocations})
    assert shapes
    for checks, heavy in shapes:
        outs = []
        for flag in (heavy, not heavy):
            assert main(bench.verify_args("B3", checks, flag, 7)) == 0
            outs.append(capsys.readouterr().out)
        doc = json.loads(outs[0])
        assert doc["case"] == "B3"
        assert {c["status"] for c in doc["checks"]} == {"PASS"}
        assert outs[0] == outs[1], (checks, heavy)


def test_traced_run_matches_the_untraced_run(tmp_path, capsys):
    # test_tracer_targets_resolve checks names only: a traced run must also
    # exit 0, print the untraced bytes and record the layers it wraps
    args = ["--case", "B3", "--checks", "all", "--seed", "7",
            "--format", "json"]
    spans = tmp_path / "spans.jsonl"
    path = [str(PERFBENCH.parent / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    r = subprocess.run([sys.executable, str(PERFBENCH / "tracer.py"),
                        str(spans), *args], capture_output=True, env=env)
    assert r.returncode == 0, r.stderr
    assert main(args) == 0
    assert r.stdout == capsys.readouterr().out.encode()
    names = {json.loads(line).get("name")
             for line in spans.read_text().splitlines()}
    assert {"spencer.spencer_spaces", "spencer.q_dimension",
            "galg.build_g"} <= names
