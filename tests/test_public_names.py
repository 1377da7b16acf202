"""Every public name of the library has a caller: another module of
`src/clopen` or an acceptance criterion.

Each module but `__init__.py` is parsed with `ast`.  A public top-level
function, class or constant counts as called when some module of
`src/clopen` or `tests/test_acceptance.py` loads it (a name or attribute
load) or imports it by name, outside its own definition.  So does a public
method of a public class, properties included, except that only an
attribute load counts: a method is reached through an instance or its
class, never as a bare name.  `__init__.py` re-exports names and does not
count as a caller.

The modules import each other in one order, at their top level only.
"""

import ast
import graphlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "clopen"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
CALLERS = MODULES + [ROOT / "tests" / "test_acceptance.py"]

def public_definitions(path):
    """(name, first line, last line) of each public top-level definition,
    and of each public method of a public class as ``Class.method``."""
    out = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
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


def test_modules_import_each_other_at_top_level_without_a_cycle():
    """Every import of a `clopen` module sits outside any function, and
    those imports order the modules: no module imports, through others,
    a module that imports it."""
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
    assert in_functions == []
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on a cycle
