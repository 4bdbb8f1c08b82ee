"""Every definition in ``src/geotits`` is one that the package itself reaches.

An AST scan collects the module-level functions, classes and constants,
the methods and class constants of each class, and the attribute names
in each ``__slots__``.  A name is referenced when the package mentions
it in one of these ways:

* a bare name in its defining module;
* a by-name import (``from geotits.arrangement import FacePoset``);
* ``alias.name`` where ``alias`` is bound to its defining module;
* for a class member, any ``.name`` attribute read.

Dunder names are exempt, and so are the console entry point
``cli.main`` and ``kernel_backend``, which the benchmark worker
(``perfbench/worker.py``) records.  A definition that only tests reach
belongs in ``tests/``, or nowhere.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "geotits"
EXEMPT = {("geotits.cli", "main"), ("geotits", "kernel_backend")}


def _module_name(path):
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _assigned_names(node):
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _definitions(module, tree):
    """(module, name, is_member) for every definition the scan checks."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((module, node.name, False))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            out.extend((module, name, False) for name in _assigned_names(node))
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                out.append((module, item.name, True))
            elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                for name in _assigned_names(item):
                    if name != "__slots__":
                        out.append((module, name, True))
                        continue
                    out.extend((module, s, True) for s in ast.literal_eval(item.value))
    return [d for d in out if not (d[1].startswith("__") and d[1].endswith("__"))]


def _references(module, tree):
    """(module-level names referenced as (module, name), member names)."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.asname:
                    aliases[a.asname] = a.name
        elif isinstance(node, ast.ImportFrom) and node.module == "geotits":
            for a in node.names:
                aliases[a.asname or a.name] = f"geotits.{a.name}"
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add((module, node.id))
        elif isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("geotits"):
            names.update((node.module, a.name) for a in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attrs.add(node.attr)
            if isinstance(node.value, ast.Name) and node.value.id in aliases:
                names.add((aliases[node.value.id], node.attr))
    return names, attrs


def callerless_definitions():
    trees = {_module_name(p): ast.parse(p.read_text()) for p in sorted(SRC.rglob("*.py"))}
    defined, names, attrs = [], set(), set()
    for module, tree in trees.items():
        defined += _definitions(module, tree)
        n, a = _references(module, tree)
        names |= n
        attrs |= a
    return sorted(
        f"{module}.{name}"
        for module, name, is_member in defined
        if (module, name) not in EXEMPT
        and (name not in attrs if is_member else (module, name) not in names)
    )


def test_no_callerless_definitions():
    assert callerless_definitions() == []
