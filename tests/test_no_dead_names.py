"""Every function, class, method and module-level constant in the package is
used: referenced somewhere in `src/` outside its own definition, wrapped by
the benchmark tracer (that very function or method, not another of its name),
or a public entry point. Code that nothing calls is deleted, not kept. Nor
does any code write another object's private state."""
import ast
import dataclasses
import importlib
import importlib.util
import pkgutil
from collections import Counter
from pathlib import Path

import selftestsim

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "selftestsim"
PERFBENCH = ROOT / "perfbench"

# entry points called from outside the package: the audit of a run directory
# and the names the package exports
ENTRY_POINTS = {"replay_audit"} | set(selftestsim.__all__)


def _references(node, module: str, modules: set) -> Counter:
    """Uses under `node`, in a file of `module`, keyed by (module, name) for
    names of the package's modules and by (None, name) for any attribute: a
    bare name is `module`'s own, `qsim.trace_norm` is qsim's (and, since a
    local variable may share a module's name, also an attribute),
    `from .errors import X` is errors', and `obj.method` is (None, "method")."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out[(module, sub.id)] += 1
        elif isinstance(sub, ast.Attribute):
            out[(None, sub.attr)] += 1
            owner = sub.value.id if isinstance(sub.value, ast.Name) else None
            if owner in modules:
                out[(owner, sub.attr)] += 1
        elif isinstance(sub, ast.ImportFrom) and sub.module:
            out.update((sub.module.rsplit(".", 1)[-1], alias.name) for alias in sub.names)
    return out


def _definitions(tree):
    """(class, name, node) of the top-level functions, classes and constants
    (names a module-level assignment binds), with class None, and of the
    methods of each class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield None, node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((node.name, m.name, m) for m in node.body if isinstance(m, ast.FunctionDef))
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from ((None, sub.id, node) for sub in ast.walk(target) if isinstance(sub, ast.Name))


def _traced(monkeypatch) -> set:
    """(module, class or None, attribute) of every `(owner, attribute)` pair
    that perfbench/tracer.py's `_targets()` wraps, loaded as
    `tests/test_benchmark_hooks.py` loads it."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {
        (owner.__module__, owner.__name__, attr) if isinstance(owner, type) else (owner.__name__, None, attr)
        for owner, attr in tracer._targets()
    }


def test_every_definition_is_referenced(monkeypatch):
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    modules = set(trees)
    everywhere = sum((_references(tree, m, modules) for m, tree in trees.items()), Counter())
    traced = _traced(monkeypatch)
    dead = []
    for module, tree in trees.items():
        top_level = {id(node) for node in tree.body}
        for owner, name, node in _definitions(tree):
            if name in ENTRY_POINTS or (name.startswith("__") and name.endswith("__")):
                continue
            if (f"selftestsim.{module}", owner, name) in traced:
                continue
            # a module-level name is used as module.name; a method as obj.name
            key = (module, name) if id(node) in top_level else (None, name)
            if everywhere[key] - _references(node, module, modules)[key] <= 0:
                dead.append(f"{module}.py:{node.lineno} {name}")
    assert dead == [], "defined but never referenced in src/: " + ", ".join(dead)


def test_every_module_level_import_is_used():
    """A module-level import is read by name somewhere in its own module (or,
    in `__init__.py`, exported through `__all__`); one nothing reads is
    deleted too."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {
            sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        }
        if path.name == "__init__.py":
            read |= set(selftestsim.__all__)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".", 1)[0]
                    if name not in read:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == [], "imported but never used: " + ", ".join(unused)


def test_every_dataclass_field_is_read():
    """Every field of a dataclass in the package, whether written with
    `@dataclass` or built by `make_dataclass`, is read as an attribute
    (`obj.field`) somewhere in `src/`; a field that is only ever filled in is
    deleted with the code that fills it."""
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    read = {
        sub.attr
        for tree in trees
        for sub in ast.walk(tree)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    }
    modules = [
        importlib.import_module(f"selftestsim.{m.name}") for m in pkgutil.iter_modules(selftestsim.__path__)
    ]
    unread = [
        f"{cls.__name__}.{field.name}"
        for module in modules
        for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls)
        for field in dataclasses.fields(cls)
        if field.name not in read
    ]
    assert unread == [], "dataclass fields never read in src/: " + ", ".join(unread)


def test_no_private_attribute_is_written_from_outside():
    """An attribute with a leading underscore (dunders aside) is written only
    through `self`, by its own object's methods: state a module function
    would fill in on another object is a cached property of that object."""
    writes = [
        f"{path.name}:{node.lineno} {ast.unparse(node)}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and node.attr.startswith("_")
        and not (node.attr.startswith("__") and node.attr.endswith("__"))
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    ]
    assert writes == [], "private attributes written from outside their object: " + ", ".join(writes)
