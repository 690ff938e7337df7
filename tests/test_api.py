"""The package's public surface, and no dead private code behind it."""

import ast
import pathlib
import re

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
        "flows: analysis._tail_estimates",
        "flows: domains._check_arity",
        "flows: domains._interior_and_poisson",
        "flows: domains._is_interior",
        "sampling: domains._is_interior",
        "verify: analysis._horosphere_inequality_report",
        "verify: analysis._tail_estimates",
        "verify: flows._SELF_MAP_WINDOW",
        "verify: flows._advance",
        "verify: flows._displacement_report",
        "verify: flows._displacement_start",
        "verify: flows._horosphere_image_report",
        "verify: flows._monotonicity_report",
        "verify: flows._orbit_report",
        "verify: flows._semigroup_report",
    }


def test_the_flow_kernel_meets_its_problem_only_through_its_parts():
    # The kernel's one problem shape is a sequence of (field, domain, L_p)
    # parts, which flows._blocks turns into the step loop's fill and
    # interior test: _advance's body neither reads nor binds a name `field`
    # or `domain`, nor takes a parameter of either name.
    src = pathlib.Path(siegelflow.__file__).parent / "flows.py"
    tree = ast.parse(src.read_text(encoding="utf-8"))
    advance, = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_advance"]
    names = {node.id for node in ast.walk(advance) if isinstance(node, ast.Name)}
    names |= {node.arg for node in ast.walk(advance) if isinstance(node, ast.arg)}
    assert "parts" in names and "fill" in names and "interior" in names
    assert names & {"field", "domain"} == set()


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_OWN_SCOPES = (ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _bound_names(scope) -> dict:
    """The names a module, class or function body binds itself, each with the
    def or class node it names (None for any other binding)."""
    names = {}
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        a = scope.args
        for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg):
            if arg is not None:
                names[arg.arg] = None
    stack = list(scope.body)
    while stack:
        node = stack.pop()
        if isinstance(node, _SCOPES):
            names[node.name] = node  # its body is a scope of its own
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name.split(".")[0], None)
                         for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.setdefault(node.id, None)
        elif not isinstance(node, _OWN_SCOPES):
            stack.extend(ast.iter_child_nodes(node))
    return names


def _resolves(src: pathlib.Path, dotted: str) -> bool:
    """Whether module.name[.name...] is bound in src/: the name in its module's
    top level, each further name in the body of the class or function before."""
    module, *path = dotted.split(".")
    if not path or not (src / f"{module}.py").is_file():
        return False
    scope = ast.parse((src / f"{module}.py").read_text(encoding="utf-8"))
    for name in path:
        names = _bound_names(scope) if scope is not None else {}
        if name not in names:
            return False
        scope = names[name]
    return True


def test_resolving_a_dotted_name_walks_its_own_scopes(tmp_path):
    (tmp_path / "one.py").write_text(
        "import numpy as np\n"
        "_sum = np.add.reduce\n"
        "class Field:\n"
        "    _formula = None\n"
        "def flow(t, *, tol):\n"
        "    last = None\n"
        "    def apply(points):\n"
        "        k0 = [row for row in points]\n"
        "    return apply\n"
    )
    (tmp_path / "two.py").write_text("_max = max\n")
    for dotted in ("one._sum", "one.np", "one.Field._formula", "one.flow.last",
                   "one.flow.tol", "one.flow.apply.k0", "two._max"):
        assert _resolves(tmp_path, dotted), dotted
    # A name bound in another module or scope does not count.
    for dotted in ("one._max", "two._sum", "one.Field.last", "one.flow.k0",
                   "one.flow.apply.row", "np.where", "one", "three._sum"):
        assert not _resolves(tmp_path, dotted), dotted


def test_every_kept_perf_only_case_in_the_readme_names_live_code():
    # README's "Perf-only special cases" tables are the registry of the code
    # that is there for speed alone.  A row whose verdict is "kept" starts
    # with a backticked module.name[.name...] that says where the case
    # lives, and that name must still be bound there: a deleted case cannot
    # keep a row that says it is kept.
    src = pathlib.Path(siegelflow.__file__).parent
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Perf-only special cases\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in section.splitlines() if line.startswith("| ")]
    kept = [row[0] for row in rows if row[-1] == "kept"]
    assert len(kept) >= 10  # the tables were found and read
    located = [re.match(r"`([A-Za-z_][\w.]*)`", cell) for cell in kept]
    assert [cell for cell, where in zip(kept, located) if where is None] == []
    assert [where[1] for where in located if not _resolves(src, where[1])] == []
