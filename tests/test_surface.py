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

Class members are matched by name alone: the AST does not say which
class a receiver belongs to.  So a member that nothing reads stays
hidden when another class has a member of the same name that is read
(``ConvexPolytope.dim`` hid behind ``Cell.dim``).  The names that more
than one class defines are pinned with their classes in
``SHARED_MEMBER_NAMES``; a new name or a new owner fails until a
reviewer has checked that each owner's member is read and listed it.
"""

import ast
import pathlib
import re

from conftest import LINEAR_PROGRAM_NAMES

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "geotits"
EXEMPT = {("geotits.cli", "main"), ("geotits", "kernel_backend")}
SHARED_MEMBER_NAMES = {
    "ambient_dim": ["geometry.Geometry", "geometry.LinearSubspace"],
    "betti": ["complexes.HomologySummary", "groups.ApartmentMatrixResult"],
    "complex": ["complexes.STModel", "complexes.SphereTriangulation"],
    "contains": ["geometry.GeoSubspace", "geometry.LinearSubspace"],
    "dim": ["arrangement.Cell", "complexes.ChainComplex", "geometry.LinearSubspace"],
    "geometry": [
        "arrangement.FacePoset", "collection.Collection", "geometry.ConvexPolytope",
        "geometry.GeoSubspace",
    ],
    "matrix": ["groups.ApartmentMatrixResult", "groups.GroupHom"],
    "sort_key": ["geometry.GeoSubspace", "geometry.LinearSubspace"],
    "top": ["collection.Collection", "complexes.STModel"],
    "torsion": ["_kernel.SnfResult", "complexes.HomologySummary", "groups.GroupPresentation"],
}


def _module_name(path):
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _assigned_names(node):
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _definitions(module, tree):
    """(module, name, owner) for every definition the scan checks: owner
    is the class of a member, None for a module-level name."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((module, node.name, None))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            out.extend((module, name, None) for name in _assigned_names(node))
        if not isinstance(node, ast.ClassDef):
            continue
        owner = node.name
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                out.append((module, item.name, owner))
            elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                for name in _assigned_names(item):
                    if name != "__slots__":
                        out.append((module, name, owner))
                        continue
                    out.extend((module, s, owner) for s in ast.literal_eval(item.value))
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


def _scan():
    """(definitions, module-level names referenced, member names read)."""
    trees = {_module_name(p): ast.parse(p.read_text()) for p in sorted(SRC.rglob("*.py"))}
    defined, names, attrs = [], set(), set()
    for module, tree in trees.items():
        defined += _definitions(module, tree)
        n, a = _references(module, tree)
        names |= n
        attrs |= a
    return defined, names, attrs


def callerless_definitions():
    defined, names, attrs = _scan()
    return sorted(
        f"{module}.{name}"
        for module, name, owner in defined
        if (module, name) not in EXEMPT
        and ((module, name) not in names if owner is None else name not in attrs)
    )


def shared_member_names():
    """Member names that more than one class defines, each with its
    classes as ``module.Class`` under ``geotits``."""
    owners = {}
    for module, name, owner in _scan()[0]:
        if owner is not None:
            owners.setdefault(name, set()).add(f"{module.removeprefix('geotits.')}.{owner}")
    return {name: sorted(classes) for name, classes in owners.items() if len(classes) > 1}


def test_no_callerless_definitions():
    assert callerless_definitions() == []


def test_shared_member_names_are_listed():
    assert shared_member_names() == SHARED_MEMBER_NAMES


def test_src_names_no_linear_program():
    """Windows are validated and restricted from the arrangement of
    their walls, so no module under ``src/geotits`` defines or names the
    Fourier-Motzkin feasibility test or the boundedness tests built on
    it; they live on as ``conftest.reference_*`` oracles."""
    pattern = re.compile(r"\b(" + "|".join(LINEAR_PROGRAM_NAMES) + r")\b")
    hits = [f"{path.relative_to(SRC)}:{i}: {line.strip()}"
            for path in sorted(SRC.rglob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)]
    assert hits == []
