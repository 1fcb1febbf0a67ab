"""Every definition in src/mpmsa is named by code that a CLI run reaches.

An ast walk from the process entry point cli.entry and from every runner
named in the runner table cli.RUNNERS ("module:function" strings, which name
no definition the walk could follow): a reached definition reaches
every top-level function, class, constant and method of the package whose
name its code mentions (as a name or an attribute, so matching is loose), and
a reached class also reaches its dunder methods, which Python and the
dataclass machinery call implicitly.  Code only tests use belongs in tests/.

Every field of a record class in src/mpmsa (a dataclass, a NamedTuple, or an
attribute an __init__ stores on self) is read: some code in src/, tests/ or
bench/ loads an attribute of that name (matched by name alone, as loosely).
"""

import ast
from pathlib import Path

import mpmsa
from mpmsa.cli import RUNNERS

ROOT = Path(__file__).resolve().parent.parent
ALLOWED = {"__init__.__version__"}


def _definitions():
    """(qualified name, bare name, node) for every module-level function,
    class and assigned name, and every method."""
    for path in sorted(Path(mpmsa.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield f"{path.stem}.{node.name}", node.name, node
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef):
                            yield f"{path.stem}.{node.name}.{item.name}", item.name, item
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        yield f"{path.stem}.{target.id}", target.id, node


def _names(node) -> set[str]:
    """Names and attributes mentioned in a definition; a class contributes its
    own body and its dunder methods, not its other methods."""
    parts = [node]
    if isinstance(node, ast.ClassDef):
        parts = node.bases + node.decorator_list + [
            item for item in node.body
            if not isinstance(item, ast.FunctionDef) or item.name.startswith("__")
        ]
    out = set()
    for part in parts:
        for sub in ast.walk(part):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def unreached() -> list[str]:
    defs = list(_definitions())
    by_name: dict[str, list[str]] = {}
    nodes = {}
    for qual, name, node in defs:
        by_name.setdefault(name, []).append(qual)
        nodes[qual] = node
    todo = ["cli.entry"] + [target.replace(":", ".") for target in RUNNERS.values()]
    assert all(q in nodes for q in todo), "a root names no definition"
    reached = set(todo)
    while todo:
        current = todo.pop()
        dunders = [q for q in nodes if q.startswith(current + ".__")]
        for qual in dunders + [q for name in _names(nodes[current]) for q in by_name.get(name, ())]:
            if qual not in reached:
                reached.add(qual)
                todo.append(qual)
    return sorted(q for q in nodes if q not in reached and q not in ALLOWED)


def test_every_definition_is_reached_from_the_cli():
    assert unreached() == []


def _record_fields():
    """(qualified name, field name) for every field of a record class in
    src/mpmsa: the annotated fields of a dataclass or a NamedTuple, the names
    of a NamedTuple("Name", [(field, type), ...]) base, and the attributes
    an __init__ stores on self."""
    for path in sorted(Path(mpmsa.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.ClassDef):
                continue
            names = []
            if any("dataclass" in ast.unparse(d) for d in node.decorator_list) or any(
                ast.unparse(b) == "NamedTuple" for b in node.bases
            ):
                names += [item.target.id for item in node.body
                          if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
            for base in node.bases:
                if isinstance(base, ast.Call) and ast.unparse(base.func) == "NamedTuple":
                    names += [pair.elts[0].value for pair in base.args[1].elts]
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    names += [sub.attr for sub in ast.walk(item)
                              if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                              and isinstance(sub.value, ast.Name) and sub.value.id == "self"]
            for name in dict.fromkeys(names):
                yield f"{path.stem}.{node.name}.{name}", name


def unread_fields() -> list[str]:
    read = {
        sub.attr
        for part in ("src", "tests", "bench")
        for path in sorted((ROOT / part).rglob("*.py"))
        for sub in ast.walk(ast.parse(path.read_text()))
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    }
    return [qual for qual, name in _record_fields() if name not in read]


def test_every_dataclass_field_is_read():
    assert unread_fields() == []


def test_record_classes_are_immutable():
    """Every dataclass in src/mpmsa and in the test helpers (which hold the
    oracles moved out of the package) is frozen, and every class built on a
    NamedTuple declares __slots__ down its chain, so no instance takes a new
    attribute or a new value for a field."""
    import dataclasses
    import importlib
    import inspect

    import helpers

    records = []
    modules = [importlib.import_module(f"mpmsa.{path.stem}")
               for path in sorted(Path(mpmsa.__file__).parent.glob("*.py"))]
    for module in [*modules, helpers]:
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                if dataclasses.is_dataclass(cls):
                    records.append(cls)
                    assert cls.__dataclass_params__.frozen, cls
                elif issubclass(cls, tuple) and hasattr(cls, "_fields"):
                    records.append(cls)
                    assert all("__slots__" in vars(k) for k in cls.__mro__[:-2]), cls
    assert len(records) >= 20
