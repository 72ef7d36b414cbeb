"""Static checks of the package, test and demo modules' imports, by
parsing them with `ast` (no linter is a dependency).

Every name a module imports is read in it, and every name an annotation
reads is bound at module level or is a builtin: with postponed
annotations (`from __future__ import annotations`) a missing import in
an annotation never runs, so only a parse finds it.  The package's
`__init__.py` is left out, since it imports names to export them.  No
package module imports a private module, one whose dotted path has a
`_`-prefixed component: its contents may change in any release of the
library that owns it.  No package module imports `scipy.sparse`: every
linear solve is dense, so there is one solver path.  `periodic` builds
a system only where a SuperpositionSpec forms its own, in its
`__post_init__`: a spec fixes one rescaled system, and every reader
takes that one.  The collocation starts from one loop of samples in
the clusters' co-rotating frames: no caller hands `_collocated_orbit` a
function, and the torus is sampled only where a point, the distance
to it, or the reduced functional is formed.
"""

import ast
import builtins
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "vortexlab").glob("*.py"))
MODULES = sorted(
    [p for p in PACKAGE if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py")) + list((ROOT / "demos").glob("*.py")))


def _imported(tree) -> dict:
    """{bound name: line} of the module's imports (__future__ aside)."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotation_names(tree):
    """The names each annotation reads, string annotations parsed."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield from (n.id for n in ast.walk(ast.parse(node.value))
                            if isinstance(n, ast.Name))
            elif isinstance(node, ast.Name):
                yield node.id


def _module_bindings(tree) -> set:
    """Names bound by the module's top-level statements."""
    bound = set(_imported(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return bound


def _parsed():
    for path in MODULES:
        yield (str(path.relative_to(ROOT)),
               ast.parse(path.read_text(), filename=str(path)))


def test_every_imported_name_is_read():
    unused = []
    for name, tree in _parsed():
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        read.update(_annotation_names(tree))
        unused += [f"{name}:{line} {imported}" for imported, line
                   in _imported(tree).items() if imported not in read]
    assert unused == []


def test_every_annotation_name_is_bound():
    unbound = {}
    for name, tree in _parsed():
        known = _module_bindings(tree) | set(dir(builtins))
        missing = set(_annotation_names(tree)) - known
        if missing:
            unbound[name] = sorted(missing)
    assert unbound == {}


def _package_imports():
    """(file:line, dotted path) of every absolute import of the package."""
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                paths = [alias.name for alias in node.names]
            elif (isinstance(node, ast.ImportFrom) and node.level == 0
                  and node.module != "__future__"):
                # an imported name may itself be a module
                paths = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            yield from ((f"{path.name}:{node.lineno}", dotted)
                        for dotted in paths)


def test_no_package_module_imports_a_private_module():
    private = [f"{where} {dotted}" for where, dotted in _package_imports()
               if any(part.startswith("_") for part in dotted.split("."))]
    assert private == []


def test_no_package_module_imports_scipy_sparse():
    sparse = [f"{where} {dotted}" for where, dotted in _package_imports()
              if dotted == "scipy.sparse" or dotted.startswith("scipy.sparse.")]
    assert sparse == []


def _calls(tree, names):
    """(enclosing class or function path, name) of each call of one of
    the names in the module, by name or as an attribute."""
    calls = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "id", getattr(func, "attr", None))
                if name in names:
                    calls.append((".".join(scope), name))
            visit(child, scope)

    visit(tree, ())
    return calls


def _periodic_tree():
    path = ROOT / "src" / "vortexlab" / "periodic.py"
    return ast.parse(path.read_text(), filename=str(path))


def test_periodic_builds_systems_only_in_the_spec():
    assert sorted(_calls(_periodic_tree(),
                         {"RescaledSystem", "VortexSystem"})) \
        == [("SuperpositionSpec.__post_init__", "RescaledSystem"),
            ("SuperpositionSpec.__post_init__", "VortexSystem")]


def test_periodic_collocates_from_sample_arrays_only():
    tree = _periodic_tree()
    functions = {node.name for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "_collocated_orbit"]
    passed = [ast.unparse(arg) for call in calls
              for arg in call.args + [k.value for k in call.keywords]
              if isinstance(arg, ast.Lambda) or getattr(
                  arg, "id", getattr(arg, "attr", None)) in functions]
    assert len(calls) == 2 and passed == []


def test_periodic_samples_the_torus_in_three_places():
    scopes = {scope for scope, _ in _calls(_periodic_tree(),
                                            {"torus_samples"})}
    assert scopes == {"SuperpositionSpec.torus_point", "distance_to_M",
                      "_critical_phases"}
