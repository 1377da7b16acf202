"""Every public name of the library has a caller: another module of
`src/clopen` or an acceptance criterion.

Each module but `__init__.py` is parsed with `ast`.  A public top-level
function, class or constant counts as called when some module of
`src/clopen` or `tests/test_acceptance.py` loads it (a name or attribute
load) or imports it by name, outside its own definition.  `__init__.py`
re-exports names and does not count as a caller.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "clopen"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
CALLERS = MODULES + [ROOT / "tests" / "test_acceptance.py"]

def public_definitions(path):
    """(name, first line, last line) of each public top-level definition."""
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
    return out


def uses(path):
    """(name, line) of every name or attribute load and every name imported."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            out += [(alias.name, node.lineno) for alias in node.names]
    return out


def uncalled_names():
    sites = {path: uses(path) for path in CALLERS}
    out = set()
    for module in MODULES:
        for (name, first, last) in public_definitions(module):
            if not any(used == name and not (path == module and first <= line <= last)
                       for path, found in sites.items() for (used, line) in found):
                out.add("%s.%s" % (module.stem, name))
    return out


def test_every_public_name_has_a_caller():
    assert sorted(uncalled_names()) == []
