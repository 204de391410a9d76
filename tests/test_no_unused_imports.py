"""Every import in the package is used: per scope (module, class, function,
lambda), each name an import binds must be read somewhere in that scope,
nested scopes included. ``from __future__`` imports and ``__init__.py``
files (re-export surfaces) are exempt; a ``noqa`` comment is not."""

from __future__ import annotations

import ast
import pathlib

_PKG = pathlib.Path(__file__).resolve().parents[1] / "docprocai_service_ray"
_SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
           ast.Lambda)


def _own_imports(scope: ast.AST) -> list[tuple[int, str]]:
    """``(line, bound name)`` of the imports directly in ``scope``, not in
    a nested scope."""
    out, stack = [], list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, _SCOPES):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            out += [(node.lineno, a.asname or a.name.split(".")[0])
                    for a in node.names]
        stack.extend(ast.iter_child_nodes(node))
    return out


def _unused_imports(root: pathlib.Path) -> list[str]:
    found = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for scope in ast.walk(ast.parse(path.read_text())):
            if not isinstance(scope, _SCOPES):
                continue
            used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
            found += [f"{path.relative_to(root)}:{line} {name}"
                      for line, name in _own_imports(scope) if name not in used]
    return sorted(found)


def test_no_unused_imports():
    assert _unused_imports(_PKG) == []
