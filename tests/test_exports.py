"""No name in the package that only tests read.

Every top-level function, class and assignment, and every public method, of
a module of ``src/itirel`` (``__init__.py`` aside, which only re-exports)
must be read somewhere in ``src/itirel`` outside its own definition, or in
``benchmarks``: a name that nothing but a test reads is a second way into a
stage that the pipeline never runs.  A name counts as read where it is
loaded as a name, taken as an attribute or imported; in ``benchmarks`` also
where it is a string, since the benchmark wraps functions by name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "itirel"


def _defined(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(name, node) of each top-level definition and public method."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            out += [(m.name, m) for m in node.body
                    if isinstance(m, ast.FunctionDef)
                    and not m.name.startswith("_")]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            out += [(n.id, node) for t in targets for n in ast.walk(t)
                    if isinstance(n, ast.Name)]
    return out


def _read(node: ast.AST, strings: bool, skip: ast.AST = None) -> set[str]:
    """The names read anywhere under ``node``, outside ``skip``."""
    names, stack = set(), [node]
    while stack:
        n = stack.pop()
        if n is skip:
            continue
        stack.extend(ast.iter_child_nodes(n))
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            names.update(a.name for a in n.names)
        elif strings and isinstance(n, ast.Constant) \
                and isinstance(n.value, str):
            names.add(n.value)
    return names


def unread_names() -> list[str]:
    """``module.name`` of each definition that nothing outside it reads."""
    modules = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
               for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"}
    benchmarks = set().union(*(
        _read(ast.parse(p.read_text(encoding="utf-8")), True)
        for p in sorted((ROOT / "benchmarks").glob("*.py"))))
    unread = []
    for stem, tree in modules.items():
        others = set().union(*(_read(t, False) for s, t in modules.items()
                               if s != stem))
        for name, node in _defined(tree):
            if name not in benchmarks | others | _read(tree, False, node):
                unread.append(f"{stem}.{name}")
    return unread


def test_every_package_name_is_read_outside_the_tests():
    unread = unread_names()
    assert unread == [], f"read only by the tests: {unread}"
