"""The benchmark's tracer wraps package functions by name; every one must exist.

`perfbench/tracer.py` replaces each `(owner, attr)` of its `_targets()` with a
timing wrapper and reads `vars(owner)[attr]` to do so, so a deleted or renamed
function breaks every traced benchmark run while the rest of the suite passes.
"""
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    targets = _load_tracer()._targets()
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr in targets
        if attr not in vars(owner)
    ]
    assert targets and not missing, missing
