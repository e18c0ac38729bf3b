"""The benchmark reaches into the package by name; every name it uses must exist.

`perfbench/tracer.py` replaces each `(owner, attr)` of its `_targets()` with a
timing wrapper and reads `vars(owner)[attr]` to do so, so a deleted or renamed
function breaks every traced benchmark run while the rest of the suite passes.
`perfbench/worker.py` imports the configs and calls `cli.main`,
`harness.replay_audit` and `entcf.EntcfParams`; a rename there breaks every
benchmark run.
"""
import ast
import importlib.util
import types
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists(monkeypatch):
    targets = _load("tracer", monkeypatch)._targets()
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr in targets
        if attr not in vars(owner)
    ]
    assert targets and not missing, missing


def test_every_worker_package_name_exists(monkeypatch):
    worker = _load("worker", monkeypatch)
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(ast.parse((PERFBENCH / "worker.py").read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
    }
    package = {
        (name, attr)
        for name, attr in used
        if isinstance(getattr(worker, name, None), types.ModuleType)
        and getattr(worker, name).__name__.startswith("selftestsim")
    }
    missing = [f"{name}.{attr}" for name, attr in sorted(package) if not hasattr(getattr(worker, name), attr)]
    assert {m for m, _ in package} >= {"cli", "harness", "entcf"} and not missing, missing
