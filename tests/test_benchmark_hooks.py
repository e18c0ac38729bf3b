"""The benchmark reaches into the package by name; every name it uses must exist.

`perfbench/tracer.py` replaces each `(owner, attr)` of its `_targets()` with a
timing wrapper and reads `vars(owner)[attr]` to do so, so a deleted or renamed
function breaks every traced benchmark run while the rest of the suite passes.
`perfbench/worker.py` imports the configs and calls `cli.main`,
`harness.replay_audit` and `entcf.EntcfParams`; a rename there breaks every
benchmark run.
"""
import ast
import contextlib
import importlib.util
import io
import json
import types
from collections import Counter
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


def test_session_path_calls_the_traced_names(monkeypatch, tmp_path):
    """A fast path that skipped these module attributes would read as zero in
    `entcf.keygen_us`, `harness.streams_us` or `transport.decode_us`."""
    from selftestsim import cli, entcf, harness, transport

    calls = Counter()

    def counted(owner, attr):
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    for owner, attr in (
        (entcf, "gen_keypair"),
        (harness, "session_streams"),
        (transport.Codec, "to_payload"),
        (transport.Codec, "from_payload"),
    ):
        counted(owner, attr)
    argv = ["selftest", "run", "--n", "2", "--w", "4", "--sessions", "5", "--out", str(tmp_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert calls["gen_keypair"] == 4 * 5
    assert calls["session_streams"] == 1
    # each message is encoded once and rebuilt once on the other side
    lines = (tmp_path / "transcripts.jsonl").read_text().splitlines()
    messages = sum(len(json.loads(line)["messages"]) for line in lines)
    assert calls["to_payload"] == calls["from_payload"] == messages
