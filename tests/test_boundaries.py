"""Module boundaries of the package, read off the source: each module
imports only the package modules below it in the layer table, no module uses
a private name of another package module, and the numerics (`pipeline`) do
not import the text module. A fresh interpreter that imports one module
loads no package module outside that module's closure in the table. No
record writes its fields past `frozen` through `object.__setattr__`, and
every dataclass declares a field."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nogosuper"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = {path.stem for path in SOURCES}

# the package modules each module may import: the layer order; the package
# root re-exports nothing, so it imports no module
MAY_IMPORT = {
    "__init__": set(),
    "errors": set(),
    "linalg": {"errors"},
    "states": {"errors", "linalg"},
    "superposer": {"errors", "states"},
    "discrimination": {"errors", "linalg", "states"},
    "pipeline": {"errors", "linalg", "states", "superposer", "discrimination"},
    "text": set(),
    "cli": MODULES - {"__init__", "cli"},
}


def private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def package_imports(tree: ast.Module) -> list[tuple[str, str, str]]:
    """(module, name, local name) of each `from` import out of the package,
    relative or absolute; module is "" for `from . import m`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "nogosuper" and not module.startswith("nogosuper."):
                    continue
                module = module.removeprefix("nogosuper").removeprefix(".")
            found += [(module, a.name, a.asname or a.name) for a in node.names]
    return found


@pytest.mark.parametrize("source", SOURCES, ids=[path.stem for path in SOURCES])
def test_no_private_name_of_another_module(source):
    tree = ast.parse(source.read_text(), str(source))
    imports = package_imports(tree)
    uses = [f"from .{module} import {name}" for module, name, _ in imports
            if module and private(name)]
    modules = {local for module, name, local in imports if not module and name in MODULES}
    uses += [f"{node.value.id}.{node.attr} (line {node.lineno})" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in modules and private(node.attr)]
    assert uses == []


def decorator_name(node: ast.expr) -> str | None:
    """`dataclass` for `@dataclass`, `@dataclass(...)` and `@dataclasses.dataclass`."""
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


@pytest.mark.parametrize("source", SOURCES, ids=[path.stem for path in SOURCES])
def test_records_say_what_they_are(source):
    tree = ast.parse(source.read_text(), str(source))
    writes = [f"object.__setattr__ (line {node.lineno})" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
              and isinstance(node.value, ast.Name) and node.value.id == "object"]
    fieldless = [f"dataclass {node.name} has no field" for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef)
                 and "dataclass" in map(decorator_name, node.decorator_list)
                 and not any(isinstance(stmt, ast.AnnAssign) for stmt in node.body)]
    assert writes + fieldless == []


def test_the_numerics_do_not_import_the_text_module():
    tree = ast.parse((PACKAGE / "pipeline.py").read_text())
    assert [i for i in package_imports(tree) if "text" in i[:2]] == []


def imported_modules(tree: ast.Module) -> set[str]:
    """The package modules a module imports, by `from` or by `import`."""
    found = {module.split(".")[0] or name for module, name, _ in package_imports(tree)}
    found |= {alias.name.split(".")[1] for node in ast.walk(tree) if isinstance(node, ast.Import)
              for alias in node.names if alias.name.startswith("nogosuper.")}
    return found


def test_the_layer_table_names_every_module():
    assert MAY_IMPORT.keys() == MODULES


@pytest.mark.parametrize("module", sorted(MODULES))
def test_imports_follow_the_layer_order(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    assert imported_modules(tree) <= MAY_IMPORT[module]


def closure(module: str) -> set[str]:
    """The module and every package module it may import, directly or not."""
    found, todo = set(), [module]
    while todo:
        name = todo.pop()
        if name not in found:
            found.add(name)
            todo += MAY_IMPORT[name]
    return found


def loaded_by_fresh_import(module: str) -> set[str]:
    """The package modules, and numpy if loaded, in `sys.modules` after a
    fresh interpreter imports the module (the root as `__init__`)."""
    name = "nogosuper" if module == "__init__" else f"nogosuper.{module}"
    code = (f"import sys, {name}\n"
            "print(*(m.removeprefix('nogosuper.') for m in sys.modules\n"
            "        if m.startswith('nogosuper.') or m == 'numpy'))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.mark.parametrize("module", sorted(MODULES))
def test_importing_a_module_loads_only_its_closure(module):
    loaded = loaded_by_fresh_import(module) - {"numpy"}
    assert loaded <= closure(module)


def test_the_error_classes_load_without_numpy():
    assert loaded_by_fresh_import("errors") == {"errors"}
