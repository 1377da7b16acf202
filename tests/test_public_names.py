"""Every public name of the library has a caller: another module of
`src/clopen` or an acceptance criterion.

Each module but `__init__.py` is parsed with `ast`.  A public top-level
function, class or constant counts as called when some module of
`src/clopen` or `tests/test_acceptance.py` loads it (a name or attribute
load) or imports it by name, outside its own definition.  So does a public
method of a public class, properties included, except that only an
attribute load counts: a method is reached through an instance or its
class, never as a bare name.  `__init__.py` holds only the package
docstring and binds no name.

Each name is imported from the module that defines it.  The modules import
each other in one order, at their top level only, so importing one module
loads just the modules it reaches through its imports.
"""

import ast
import graphlib
import subprocess
import sys
from pathlib import Path

from test_cli import subprocess_env

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "clopen"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
CALLERS = MODULES + [ROOT / "tests" / "test_acceptance.py"]

def definitions(path):
    """(node, names) of each top-level function, class or assignment: the
    names a module binds other than by import."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield node, [t.id for t in targets if isinstance(t, ast.Name)]


def public_definitions(path):
    """(name, first line, last line) of each public top-level definition,
    and of each public method of a public class as ``Class.method``."""
    out = []
    for node, names in definitions(path):
        out += [(n, node.lineno, node.end_lineno) for n in names if not n.startswith("_")]
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            out += [("%s.%s" % (node.name, f.name), f.lineno, f.end_lineno) for f in node.body
                    if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]
    return out


def uses(path):
    """(name, line, attribute) of every name or attribute load and every
    name imported; `attribute` is True for an attribute load."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, node.lineno, False))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.append((node.attr, node.lineno, True))
        elif isinstance(node, ast.ImportFrom):
            out += [(alias.name, node.lineno, False) for alias in node.names]
    return out


def uncalled_names():
    sites = {path: uses(path) for path in CALLERS}
    out = set()
    for module in MODULES:
        for (name, first, last) in public_definitions(module):
            owner, _, attr = name.rpartition(".")
            if not any(used == attr and (attribute or not owner)
                       and not (path == module and first <= line <= last)
                       for path, found in sites.items() for (used, line, attribute) in found):
                out.add("%s.%s" % (module.stem, name))
    return out


def test_every_public_name_has_a_caller():
    assert sorted(uncalled_names()) == []


def clopen_modules(node):
    """The modules of `clopen` that an import statement names."""
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names if a.name.startswith("clopen.")]
    if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "clopen"):
        module = (node.module or "").removeprefix("clopen").lstrip(".")
        return [module.split(".")[0]] if module else [a.name for a in node.names]
    return []


def import_graph():
    """Each module's top-level imports of `clopen` modules, and the
    `file:line` of every such import inside a function."""
    graph, in_functions = {}, []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        nested = {id(node) for f in ast.walk(tree)
                  if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for node in ast.walk(f)}
        imports = [(node, clopen_modules(node)) for node in ast.walk(tree)]
        in_functions += ["%s:%d" % (path.name, node.lineno) for node, modules in imports
                         if modules and id(node) in nested]
        graph[path.stem] = {m for node, modules in imports if id(node) not in nested
                            for m in modules}
    return graph, in_functions


def test_modules_import_each_other_at_top_level_without_a_cycle():
    """Every import of a `clopen` module sits outside any function, and
    those imports order the modules: no module imports, through others,
    a module that imports it."""
    graph, in_functions = import_graph()
    assert in_functions == []
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on a cycle


def test_importing_a_module_loads_only_its_import_closure():
    # -S: no site hooks; one fresh interpreter per module, so each sees only
    # what its own import loads
    graph, _ = import_graph()
    wrong = {}
    for module in (p.stem for p in MODULES):
        closure, todo = set(), [module]
        while todo:
            m = todo.pop()
            if m not in closure:
                closure.add(m)
                todo += graph[m]
        proc = subprocess.run(
            [sys.executable, "-S", "-c",
             "import sys, clopen.%s; print(*sorted(sys.modules))" % module],
            env=subprocess_env(), capture_output=True, text=True, check=True)
        loaded = {m for m in proc.stdout.split() if m.split(".")[0] == "clopen"}
        if loaded != {"clopen"} | {"clopen." + m for m in closure}:
            wrong[module] = sorted(loaded)
    assert wrong == {}


def test_the_package_binds_no_name():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    assert ast.get_docstring(tree) is not None and len(tree.body) == 1


def test_every_name_is_imported_from_the_module_that_defines_it():
    defined = {path.stem: {n for _, names in definitions(path) for n in names}
               for path in MODULES}
    wrong = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and clopen_modules(node):
                module = (node.module or "").removeprefix("clopen").lstrip(".")
                wrong += ["%s:%d %s.%s" % (path.name, node.lineno, module, a.name)
                          for a in node.names
                          if a.name not in (defined[module] if module else defined)]
    assert wrong == []
