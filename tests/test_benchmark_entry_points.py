"""The library names the benchmark reaches, so that a removal that breaks
``perfbench/run.py`` (traced or not) fails here too."""

import ast
import importlib

from conftest import PERFBENCH, perfbench_module


def test_tracer_targets_resolve():
    # the tracer looks each (home, name) up with a bare getattr when it installs
    missing = [
        f"heatcov.{home}.{name}"
        for home, name, _ in perfbench_module("tracer").TARGETS
        if not callable(getattr(importlib.import_module(f"heatcov.{home}"), name, None))
    ]
    assert not missing, missing


def test_runner_calls_resolve():
    # every self.<module>.<name> in Runner._call and Runner._build, the modules being those
    # Runner.__init__ imports from heatcov
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    runner = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Runner")
    methods = {n.name: n for n in runner.body if isinstance(n, ast.FunctionDef)}
    modules = {
        alias.name
        for node in ast.walk(methods["__init__"])
        if isinstance(node, ast.ImportFrom) and node.module == "heatcov"
        for alias in node.names
    }
    used = {
        (node.value.attr, node.attr)
        for method in ("_call", "_build")
        for node in ast.walk(methods[method])
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
        and isinstance(node.value.value, ast.Name) and node.value.value.id == "self"
        and node.value.attr in modules
    }
    assert {"asymptotics", "cli", "kernel", "mc", "shapes"} <= modules
    assert ("shapes", "covariance") in used and ("cli", "main") in used
    missing = [f"heatcov.{home}.{name}" for home, name in sorted(used)
               if not hasattr(importlib.import_module(f"heatcov.{home}"), name)]
    assert not missing, missing
