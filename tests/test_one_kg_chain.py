"""``run_kg`` is one stage chain with two persistence policies.

- Structure (AST): every stage of ``pipelines/kg.py`` is declared by
  exactly one ``checkpointed`` call, no branch of the chain depends on
  ``filter_langs`` or re-scans html for links, and ``stages/linkgraph.py``
  resolves hrefs in one function.
- Behavior: streaming (``out_dir=None``) and checkpointed runs return the
  same keys and rows, and with ``filter_langs`` set the link graph still
  covers every language while docs are filtered exactly as without it.
"""

from __future__ import annotations

import ast
import collections
import dataclasses
import os
import pathlib

import duckdb
import pandas as pd
import pytest

from docprocai_service_ray.config import KGConfig
from docprocai_service_ray.pipelines.kg import run_kg
from docprocai_service_ray.sources.webgen import alias_dict_table
from docprocai_service_ray.stages.linkgraph import linkgraph_sql

_PKG = pathlib.Path(__file__).resolve().parents[1] / "docprocai_service_ray"
_KG = _PKG / "pipelines" / "kg.py"
_LINKGRAPH = _PKG / "stages" / "linkgraph.py"
# calls of kg.py that name a stage without declaring it
_STAGE_READERS = {"checkpointed_partitioned", "write_stage", "_patch", "_rewrite",
                  "is_stage_done", "read_stage", "stage_output_dir", "_columns"}


def _callee(call: ast.Call) -> str | None:
    f = call.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def _checkpointed_stages(tree: ast.AST) -> collections.Counter:
    """stage name → number of ``checkpointed(ds_fn, out_dir, stage, ...)``
    calls naming it."""
    found = collections.Counter()
    for call in ast.walk(tree):
        if isinstance(call, ast.Call) and _callee(call) == "checkpointed":
            stage = call.args[2] if len(call.args) > 2 else next(
                k.value for k in call.keywords if k.arg == "stage")
            assert isinstance(stage, ast.Constant), ast.unparse(call)
            found[stage.value] += 1
    return found


def _named_stages(tree: ast.AST) -> set[str]:
    """String constants passed to the calls that read or patch a stage."""
    return {a.value for call in ast.walk(tree)
            if isinstance(call, ast.Call) and _callee(call) in _STAGE_READERS
            for a in call.args
            if isinstance(a, ast.Constant) and isinstance(a.value, str)}


def _names(node: ast.AST) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _condition_names(tree: ast.AST) -> set[str]:
    """Every name or attribute read inside a branch condition."""
    tests = [n.test for n in ast.walk(tree)
             if isinstance(n, (ast.If, ast.IfExp, ast.While, ast.Assert))]
    tests += [c for n in ast.walk(tree) if isinstance(n, ast.comprehension)
              for c in n.ifs]
    return set().union(*map(_names, tests)) if tests else set()


def test_each_stage_has_one_checkpointed_call():
    tree = ast.parse(_KG.read_text())
    stages = _checkpointed_stages(tree)
    assert {s for s, n in stages.items() if n != 1} == set()
    assert {"docs_raw", "docs", "sentences", "triples_raw", "url_links",
            "host_edges", "host_ranks", "entity_map", "triples"} <= set(stages)
    assert _named_stages(tree) - set(stages) == set()


def test_no_language_branch_or_html_rescan():
    tree = ast.parse(_KG.read_text())
    assert "filter_langs" not in _condition_names(tree)
    assert {"url_host_links", "host_link_edges"} & _names(tree) == set()


def test_one_href_resolution_function():
    tree = ast.parse(_LINKGRAPH.read_text())
    users = [fn.name for fn in tree.body
             if isinstance(fn, ast.FunctionDef) and "_HREF_RE" in _names(fn)]
    assert users == ["link_partial_arrays"]


def test_guards_catch_the_shapes_they_forbid():
    bad = ast.parse(
        "if not cfg.filter_langs:\n    pass\n"
        "x = checkpointed(f, d, 'docs') if a else checkpointed(g, d, 'docs')\n"
        "write_stage(ds, d, 'orphan')\n")
    assert "filter_langs" in _condition_names(bad)
    assert _checkpointed_stages(bad) == {"docs": 2}
    assert _named_stages(bad) == {"orphan"}


def _rows(ds) -> list:
    """Order-free comparable rows: columns by name, floats to 9 dp, lists
    as sorted tuples."""
    def canon(v):
        if isinstance(v, float):
            return round(v, 9)
        if isinstance(v, dict):
            return tuple(sorted((k, canon(x)) for k, x in v.items()))
        if hasattr(v, "tolist") and not isinstance(v, (bytes, str)):
            v = v.tolist()
        if isinstance(v, (list, tuple)):
            return tuple(sorted((canon(x) for x in v), key=repr))
        return v

    df = ds.to_pandas()
    df = df[sorted(df.columns)]
    return sorted((tuple(canon(v) for v in r) for r in df.itertuples(index=False)),
                  key=repr)


@pytest.mark.parametrize("with_link_graph", [False, True])
def test_streaming_equals_checkpointed(corpus_path, tmp_path, with_link_graph):
    cfg = KGConfig()
    alias = alias_dict_table(42, cfg.embedding_dim)
    streamed = run_kg(corpus_path, alias, cfg, with_link_graph=with_link_graph)
    stored = run_kg(corpus_path, alias, cfg, out_dir=str(tmp_path / "kg"),
                    with_link_graph=with_link_graph)
    assert set(streamed) == set(stored)
    stages = ["docs", "sentences", "triples_raw", "entity_map", "triples"]
    if with_link_graph:
        stages += ["host_edges", "host_ranks"]
    for stage in stages:
        got, want = _rows(streamed[stage]), _rows(stored[stage])
        assert got, stage
        assert got == want, stage


def test_filter_langs_with_link_graph(corpus_path, tmp_path):
    cfg = dataclasses.replace(KGConfig(), filter_langs=("de", "fr"))
    alias = alias_dict_table(42, cfg.embedding_dim)
    docs = run_kg(corpus_path, alias, cfg)["docs"].materialize()
    assert set(docs.to_pandas()["lang"]) == {"de", "fr"}
    want_docs = _rows(docs)
    cols = ["src_host", "dst_host", "n_links"]
    want_edges = duckdb.sql(linkgraph_sql(os.path.join(corpus_path, "*.parquet"))).df()
    want_edges = want_edges[cols].sort_values(cols[:2]).reset_index(drop=True)
    for out_dir in (None, str(tmp_path / "kg")):
        res = run_kg(corpus_path, alias, cfg, out_dir=out_dir, with_link_graph=True)
        assert _rows(res["docs"]) == want_docs, out_dir
        # the link graph counts the pages of every language
        edges = res["host_edges"].to_pandas()[cols]
        pd.testing.assert_frame_equal(
            edges.sort_values(cols[:2]).reset_index(drop=True), want_edges,
            check_dtype=False)
