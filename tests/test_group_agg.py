"""``state.groupby.group_agg`` equals one pandas ``groupby().agg`` over the
whole input, whatever the partition count and however batches split keys."""

from __future__ import annotations

import ast
import pathlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from docprocai_service_ray.state.groupby import group_agg

AGGS = {
    "n": ("v", "size"),
    "c": ("f", "count"),
    "s_int": ("v", "sum"),
    "s_float": ("f", "sum"),
    "lo": ("v", "min"),
    "hi": ("f", "max"),
    "first_name": ("name", "min"),
    "last_name": ("name", "max"),
}


def _table(n: int = 240) -> pa.Table:
    rng = np.random.default_rng(7)
    f = rng.normal(size=n).round(3)
    f[rng.random(n) < 0.2] = np.nan  # count skips nulls, size does not
    return pa.table({
        "k": pa.array(rng.integers(0, 5, n), pa.int32()),
        "tag": pa.array([["x", "y", "z"][i % 3] for i in range(n)]),
        "v": pa.array(rng.integers(-50, 50, n), pa.int64()),
        "f": pa.array(f, pa.float64(), mask=np.isnan(f)),
        "name": pa.array([f"w{int(x):03d}" for x in rng.integers(0, 999, n)]),
    })


def _dataset(table: pa.Table):
    # 12 blocks of 20 rows: every key's rows span several batches
    return rd.from_arrow([table.slice(i, 20) for i in range(0, len(table), 20)])


def _canon(df: pd.DataFrame, keys: list[str]) -> pd.DataFrame:
    return df.sort_values(keys).reset_index(drop=True)


def _want(df: pd.DataFrame, keys: list[str], aggs: dict) -> pd.DataFrame:
    out = df.groupby(keys, as_index=False).agg(**aggs)
    ints = [o for o, (c, fn) in aggs.items()
            if fn in ("size", "count") or (fn == "sum" and df[c].dtype.kind in "iu")]
    return _canon(out.astype({o: "int64" for o in ints}), keys)


@pytest.mark.parametrize("parts", [1, 3, 16])
def test_matches_pandas_on_a_composite_key(parts):
    table = _table()
    keys = ["k", "tag"]  # int32 + string
    got = group_agg(_dataset(table), keys, AGGS, num_partitions=parts).to_pandas()
    want = _want(table.to_pandas(), keys, AGGS)
    got = _canon(got, keys)[list(want.columns)]
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    for col in ["n", "c", "s_int"]:
        assert got[col].dtype == np.int64, col
    assert got["k"].dtype == np.int32
    assert list(got["first_name"]) == list(want["first_name"])  # strings


@pytest.mark.parametrize("parts", [1, 3, 16])
def test_filter_leaves_zero_row_batches(parts):
    table = _table()
    # blocks of k < 3 rows only (sorted first), then a filter on k == 4:
    # most batches are empty after the filter
    table = table.sort_by("k")
    ds = _dataset(table).filter(expr="k == 4")
    got = group_agg(ds, ["tag"], AGGS, num_partitions=parts).to_pandas()
    df = table.to_pandas()
    want = _want(df[df["k"] == 4], ["tag"], AGGS)
    got = _canon(got, ["tag"])[list(want.columns)]
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    assert got["n"].dtype == np.int64 and got["s_int"].dtype == np.int64


@pytest.mark.parametrize("parts", [1, 3, 16])
def test_map_batches_filter_empties_batches(parts):
    table = _table()
    ds = _dataset(table).map_batches(
        lambda df: df[df["v"] > 40], batch_format="pandas")
    got = group_agg(ds, ["k"], AGGS, num_partitions=parts).to_pandas()
    df = table.to_pandas()
    want = _want(df[df["v"] > 40], ["k"], AGGS)
    got = _canon(got, ["k"])[list(want.columns)]
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_finish_runs_on_the_combined_frame():
    table = _table()
    aggs = {"n": ("v", "size"), "s": ("v", "sum")}

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(mean=(df["s"] / df["n"]).round(4))
        return df[df["n"] >= 10]

    got = _canon(group_agg(_dataset(table), ["k", "tag"], aggs, finish=finish,
                           num_partitions=3).to_pandas(), ["k", "tag"])
    want = _want(table.to_pandas(), ["k", "tag"], aggs)
    want = finish(want).reset_index(drop=True)
    pd.testing.assert_frame_equal(got[list(want.columns)], want, check_dtype=False)
    assert len(got) > 0


def test_unknown_fn_raises():
    with pytest.raises(ValueError, match="nunique"):
        group_agg(_dataset(_table()), ["k"], {"u": ("v", "nunique")})


# ------------------------------------------------------------- the guard

_PKG = pathlib.Path(__file__).resolve().parents[1] / "docprocai_service_ray"
_COMBINABLE = {"sum", "size", "count", "min", "max"}
# a reduce calling any of these does per-partition work beyond a regroup
_NOT_A_REGROUP = {"sort_values", "head", "nlargest", "nsmallest", "merge",
                  "drop_duplicates", "apply", "transform", "cumsum",
                  "cumcount", "nunique", "shift", "explode", "unique"}


def _fns(call: ast.Call) -> list:
    """The aggregation names of ``.agg(...)``: named-aggregation tuples,
    a dict of them, or plain strings."""
    specs = []
    for kw in call.keywords:  # name=(col, fn), **{...}; any other ** is unknown
        specs += (kw.value.values if isinstance(kw.value, ast.Dict)
                  else [kw.value] if kw.arg is not None else [None])
    for a in call.args:
        specs += a.values if isinstance(a, ast.Dict) else [a]
    return [s.elts[1].value if isinstance(s, ast.Tuple) and len(s.elts) == 2
            and isinstance(s.elts[1], ast.Constant) else
            s.value if isinstance(s, ast.Constant) else None for s in specs]


def _groupby_of(node):
    """The ``groupby(...)`` call under ``node`` (``g`` or ``g[cols]``)."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "groupby" and node.args):
        return node
    return None


def _key(node: ast.expr):
    """``"k"``, ``["k", col]`` and ``[col]`` as comparable column tuples."""
    elts = node.elts if isinstance(node, (ast.List, ast.Tuple)) else [node]
    if all(isinstance(e, (ast.Constant, ast.Name)) for e in elts):
        return tuple(getattr(e, "value", None) or "$" + e.id for e in elts)
    return ast.dump(node)


def _is_plain_regroup(fn, keys: ast.expr) -> bool:
    """``fn`` groups only by ``keys`` and only with combinable aggs."""
    regroups = 0
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        attr = node.func.attr
        if attr in _NOT_A_REGROUP or (
                attr == "groupby" and node.args and _key(node.args[0]) != _key(keys)):
            return False
        g = _groupby_of(node.func.value)
        if g is None:
            continue
        fns = _fns(node) if attr == "agg" else [attr]
        if not all(f in _COMBINABLE for f in fns):
            return False
        regroups += 1
    return regroups > 0


def _hand_rolled_regroups(root: pathlib.Path) -> list[str]:
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        defs = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        found += [f"{path.name}:{d.lineno} defines {d.name}" for d in defs
                  if d.name in ("_grouped_final", "_sum_to")]
        for call in ast.walk(tree):
            if not (isinstance(call, ast.Call) and len(call.args) >= 3
                    and getattr(call.func, "id", getattr(call.func, "attr", ""))
                    == "partition_reduce"):
                continue
            red = call.args[2]
            if isinstance(red, ast.Name):
                named = [d for d in defs if d.name == red.id and d.lineno < call.lineno]
                red = named[-1] if named else None
            if red is not None and _is_plain_regroup(red, call.args[1]):
                found.append(f"{path.name}:{call.lineno} partition_reduce "
                             "over a plain regroup; use group_agg")
    return found


def test_no_hand_rolled_regroup():
    assert _hand_rolled_regroups(_PKG) == []
