"""Only the exchange primitives in ``state/`` decide fan-in: no stage,
pipeline or source function takes a ``num_partitions`` parameter,
``state/joins.asof_join`` sizes itself, and ``canonicalize_via_join`` takes
no bucket count. Tests and scripts vary the partition count with
``state.groupby.pin_partitions``."""

from __future__ import annotations

import ast
import pathlib

_PKG = pathlib.Path(__file__).resolve().parents[1] / "docprocai_service_ray"
# (module path under the package, function) → its forbidden parameter
_ALSO = {("state/joins.py", "asof_join"): "num_partitions",
         ("stages/materialize.py", "canonicalize_via_join"): "buckets"}


def _params(fn: ast.FunctionDef) -> set[str]:
    a = fn.args
    return {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}


def _fan_in_parameters(root: pathlib.Path) -> list[str]:
    found = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            params = _params(fn)
            if not rel.startswith("state/") and "num_partitions" in params:
                found.append(f"{rel}:{fn.lineno} {fn.name}(num_partitions)")
            bad = _ALSO.get((rel, fn.name))
            if bad in params:
                found.append(f"{rel}:{fn.lineno} {fn.name}({bad})")
    return found


def test_no_fan_in_parameter_above_state():
    assert _fan_in_parameters(_PKG) == []
