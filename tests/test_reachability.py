"""Every definition in src/mpmsa is named by code that a CLI run reaches.

An ast walk from cli.main and the runner table: a reached definition reaches
every top-level function, class, constant and method of the package whose
name its code mentions (as a name or an attribute, so matching is loose), and
a reached class also reaches its dunder methods, which Python and the
dataclass machinery call implicitly.  Code only tests use belongs in tests/.

Every field of a dataclass in src/mpmsa is read: some code in src/, tests/ or
bench/ loads an attribute of that name (matched by name alone, as loosely).
"""

import ast
from pathlib import Path

import mpmsa

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
    todo = ["cli.main", "experiments.RUNNERS"]
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


def _dataclass_fields():
    """(qualified name, field name) for every field of a dataclass in src/mpmsa."""
    for path in sorted(Path(mpmsa.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        yield f"{path.stem}.{node.name}.{item.target.id}", item.target.id


def unread_fields() -> list[str]:
    read = {
        sub.attr
        for part in ("src", "tests", "bench")
        for path in sorted((ROOT / part).rglob("*.py"))
        for sub in ast.walk(ast.parse(path.read_text()))
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    }
    return [qual for qual, name in _dataclass_fields() if name not in read]


def test_every_dataclass_field_is_read():
    assert unread_fields() == []
