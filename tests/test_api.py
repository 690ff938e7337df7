"""The package's public surface, and no dead private code behind it."""

import ast
import pathlib

import siegelflow


def test_every_exported_name_resolves_once():
    names = siegelflow.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(siegelflow, name)]
    assert missing == []
    namespace = {}
    exec("from siegelflow import *", namespace)
    assert set(names) <= set(namespace)


def _private_definitions(statement) -> set:
    """The module-level private names (not dunders) one statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = {statement.name}
    elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = getattr(statement, "targets", None) or [statement.target]
        names = {node.id for target in targets for node in ast.walk(target)
                 if isinstance(node, ast.Name)}
    else:
        names = set()
    return {name for name in names if name.startswith("_") and not name.endswith("__")}


def test_every_private_module_level_name_is_used_in_the_package():
    # A private helper, class or constant that nothing in src/ reads besides
    # its own definition is dead code.  A reference is a loaded name, an
    # attribute of that name or an imported name, in any module.
    src = pathlib.Path(siegelflow.__file__).parent
    defined, referenced = {}, set()
    for path in sorted(src.glob("*.py")):
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            own = _private_definitions(statement)
            defined.update(dict.fromkeys(own, path.name))
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name not in own:
                    referenced.add(name)
    assert defined  # the scan found the package's private names
    dead = sorted(f"{module}: {name}" for name, module in defined.items()
                  if name not in referenced)
    assert dead == []


def test_the_private_names_read_across_modules_are_pinned():
    # A module may read another module's private name, as verify reads the
    # flow kernel and the public checks' private judges, but each such
    # reach-in is listed here, so a new one is a deliberate edit.  A read is
    # `from .module import _name` or `module._name` with a sibling module.
    src = pathlib.Path(siegelflow.__file__).parent
    siblings = {path.stem for path in src.glob("*.py")}
    reads = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                names = [(node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in siblings:
                names = [(node.value.id, node.attr)]
            else:
                continue
            reads.update(f"{path.stem}: {module}.{name}" for module, name in names
                         if name.startswith("_") and not name.endswith("__"))
    assert reads == {
        "flows: analysis._class_constant",
        "flows: domains._interior_and_poisson",
        "flows: domains._is_interior",
        "flows: fields._COMPLEX",
        "sampling: domains._is_interior",
        "verify: analysis._horosphere_inequality_report",
        "verify: flows._advance",
        "verify: flows._displacement_report",
        "verify: flows._displacement_start",
        "verify: flows._horosphere_image_report",
        "verify: flows._monotonicity_report",
        "verify: flows._semigroup_report",
    }
