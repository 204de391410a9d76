"""Ray Data never hands a ``map_batches`` UDF, a ``map_groups`` fn or a
``partition_reduce`` reduce a zero-row frame (``test_udf_empty_batches``
pins it). So no function in the package tests its own first argument for
emptiness before it rebinds it, no ``<expr> if len(df) else df`` ternary
shields a projection, and a hand-typed ``pd.Series([], dtype=...)`` empty
column is built only where the allowlist below says why the frame can be
empty. Reachable empties are a projection's empty slice or a declared
``pa.Schema``'s ``empty_table()``."""

from __future__ import annotations

import ast
import pathlib

_PKG = pathlib.Path(__file__).resolve().parents[1] / "docprocai_service_ray"

# (module path under the package, function) → why its first argument can
# be empty
_DRIVER_CALLED = {
    ("stages/similarity.py", "_kmeans"):
        "runs on the driver over a collected sample, which can hold no row",
}

# (module path under the package, function) → why the frame it builds
# with a hand-typed empty column can be empty
_TYPED_EMPTY = {
    ("state/groupby.py", "collect_pandas"):
        "collects on the driver, and an empty Dataset collects no columns",
}

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_nodes(fn: ast.AST):
    """The nodes of ``fn``'s body, not those of functions nested in it."""
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, _FUNCS):
            todo.extend(ast.iter_child_nodes(node))


def _is_len_of(node: ast.AST, name: str) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "len" and len(node.args) == 1
            and isinstance(node.args[0], ast.Name) and node.args[0].id == name)


def _is_empty_test(node: ast.AST, name: str) -> bool:
    """``not len(name)``, ``name.empty`` or ``len(name) == 0``."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        return _is_len_of(node.operand, name)
    if isinstance(node, ast.Attribute) and node.attr == "empty":
        return isinstance(node.value, ast.Name) and node.value.id == name
    if isinstance(node, ast.Compare) and len(node.ops) == 1:
        zero = node.comparators[0]
        return (isinstance(node.ops[0], ast.Eq) and _is_len_of(node.left, name)
                and isinstance(zero, ast.Constant) and zero.value == 0)
    return False


def _is_copy_of(node: ast.AST, name: str) -> bool:
    """``name.copy()``: a rebinding that keeps the rows."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "copy" and isinstance(node.func.value, ast.Name)
            and node.func.value.id == name)


def _entry_guards(fn: ast.FunctionDef) -> list[int]:
    """Lines that test ``fn``'s first parameter for emptiness before any
    line of ``fn`` rebinds it to other rows."""
    params = fn.args.posonlyargs + fn.args.args
    if not params:
        return []
    name = params[0].arg
    nodes = list(_own_nodes(fn))
    copies = {id(a.targets[0]) for a in nodes if isinstance(a, ast.Assign)
              and _is_copy_of(a.value, name)}
    first_store = min((n.lineno for n in nodes if isinstance(n, ast.Name)
                       and n.id == name and isinstance(n.ctx, ast.Store)
                       and id(n) not in copies),
                      default=float("inf"))
    tests = [n.test for n in nodes if isinstance(n, (ast.If, ast.IfExp, ast.While))]
    return sorted({t.lineno for t in tests for part in ast.walk(t)
                   if _is_empty_test(part, name) and t.lineno < first_store})


def _is_len_ternary(node: ast.AST) -> bool:
    """``<expr> if len(p) else p``."""
    return (isinstance(node, ast.IfExp) and isinstance(node.orelse, ast.Name)
            and _is_len_of(node.test, node.orelse.id))


def _is_typed_empty(node: ast.AST) -> bool:
    """``pd.Series([], dtype=...)``."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "Series" and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "pd" and bool(node.args)
            and isinstance(node.args[0], ast.List) and not node.args[0].elts
            and any(k.arg == "dtype" for k in node.keywords))


def _scan(root: pathlib.Path, typed_allowed=_TYPED_EMPTY):
    """(entry guards, len ternaries, typed empties outside
    ``typed_allowed``), each as ``module:line function`` strings, over
    every module under ``root``."""
    guards, ternaries, typed = [], [], []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text())
        scopes = [tree] + [n for n in ast.walk(tree) if isinstance(n, _FUNCS)]
        for scope in scopes:
            name = getattr(scope, "name", "<lambda>" if scope is not tree else "<module>")
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and (rel, name) not in _DRIVER_CALLED:
                guards += [f"{rel}:{ln} {name}" for ln in _entry_guards(scope)]
            for node in _own_nodes(scope):
                if _is_len_ternary(node):
                    ternaries.append(f"{rel}:{node.lineno} {name}")
                if _is_typed_empty(node) and (rel, name) not in typed_allowed:
                    typed.append(f"{rel}:{node.lineno} {name}")
    return sorted(guards), sorted(ternaries), sorted(typed)


def test_no_entry_guard_on_udf_argument():
    assert _scan(_PKG)[0] == []


def test_no_len_ternary():
    assert _scan(_PKG)[1] == []


def test_typed_empties_only_where_allowed():
    assert _scan(_PKG)[2] == []
    assert len(_scan(_PKG, typed_allowed={})[2]) <= 10


def test_scan_finds_the_shapes_it_forbids(tmp_path):
    (tmp_path / "m.py").write_text(
        "import pandas as pd\n"
        "def udf(df):\n"
        "    if not len(df):\n"
        "        return pd.DataFrame({'a': pd.Series([], dtype='int64')})\n"
        "    out = df[df.a > 0] if len(df) else df\n"
        "    return out\n"
        "def rebound(df):\n"
        "    df = df[df.a > 0]\n"
        "    if df.empty:\n"
        "        return df\n"
        "    return df\n"
        "def later(df):\n"
        "    def inner(x):\n"
        "        return len(x) == 0\n"
        "    if len(df) == 0:\n"
        "        return df\n"
        "    return df\n")
    guards, ternaries, typed = _scan(tmp_path)
    assert guards == ["m.py:15 later", "m.py:3 udf"]
    assert ternaries == ["m.py:5 udf"]
    assert typed == ["m.py:4 udf"]
