"""Exact duplicated-span scrubbing (stages/exactsubstr): brute-force
coverage parity, SQL twin parity, within-doc repeats, all-occurrences
semantics, overlap unions, parallelism invariance. The sf0.01 parity of
the registered ``dup_span_scrub_docs`` query is covered by
tests/test_queries.py."""

from __future__ import annotations

from collections import Counter

import duckdb
import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from docprocai_service_ray.stages.exactsubstr import (dup_span_scrub,
                                                      dup_span_scrub_sql,
                                                      dup_span_scrub_stats)
from docprocai_service_ray.state.groupby import pin_partitions

pytestmark = pytest.mark.usefixtures("ray_session")


def _brute(docs: pd.DataFrame, span: int, min_count: int = 2) -> pd.DataFrame:
    toks = {r.doc_id: (r.text or "").split(" ") for r in docs.itertuples()}
    c: Counter = Counter()
    for ws in toks.values():
        for p in range(max(0, len(ws) - span + 1)):
            c[" ".join(ws[p:p + span])] += 1
    rows = []
    for d, ws in toks.items():
        mask = np.zeros(len(ws), dtype=bool)
        for p in range(max(0, len(ws) - span + 1)):
            if c[" ".join(ws[p:p + span])] >= min_count:
                mask[p:p + span] = True
        rows.append((d, " ".join(np.asarray(ws, dtype=object)[~mask]),
                     len(ws), int(mask.sum())))
    return pd.DataFrame(rows, columns=["doc_id", "text", "n_tokens",
                                       "n_removed"])


DOCS = pd.DataFrame({
    "doc_id": np.arange(7, dtype="int64"),
    "text": [
        "a b c d e f g unique one two three",
        "x y a b c d e f g z w q",       # cross-doc shared 7-token run
        "p q r s t u v",                 # clean
        "m m m m m m m m m m",           # within-doc repeats only
        "",
        None,
        "one a b c d e f two a b c d e f three",  # two in-doc copies of a 6-run
    ],
})


def test_matches_brute():
    out = (dup_span_scrub(rd.from_pandas(DOCS).repartition(3), "doc_id",
                          "text", span_tokens=6)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    exp = _brute(DOCS, 6)
    pd.testing.assert_frame_equal(
        out[["doc_id", "text", "n_tokens", "n_removed"]], exp)
    # ALL occurrences of the shared run are gone from both docs
    assert "a b c" not in out.loc[0, "text"]
    assert "a b c" not in out.loc[1, "text"]
    # doc 6: both in-doc copies of the repeated 6-run removed
    assert out.loc[6, "text"] == "one two three"


def test_sql_parity():
    stats = (dup_span_scrub_stats(rd.from_pandas(DOCS).repartition(4),
                                  "doc_id", "text", span_tokens=6)
             .to_pandas().sort_values("doc_id").reset_index(drop=True))
    con = duckdb.connect()
    con.register("t", DOCS)
    sq = (con.execute(dup_span_scrub_sql("t", "doc_id", "text",
                                         span_tokens=6)).df()
          .sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(
        stats, sq[stats.columns].astype(stats.dtypes.to_dict()))


def test_min_count_threshold():
    out = (dup_span_scrub(rd.from_pandas(DOCS), "doc_id", "text",
                          span_tokens=6, min_count=3)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    exp = _brute(DOCS, 6, 3)
    assert out["n_removed"].tolist() == exp["n_removed"].tolist()
    # 'a b c d e f' still hits (docs 0+1 plus TWICE in doc 6 = 4 ≥ 3), but
    # 'b c d e f g' occurs only twice (docs 0+1) → 'g' survives now
    assert out.loc[0, "text"].startswith("g unique")
    assert out.loc[1, "text"] == "x y g z w q"


def test_parallelism_invariance():
    ref = None
    for parts, np_ in ((1, 3), (5, 8)):
        with pin_partitions(np_):
            out = (dup_span_scrub_stats(rd.from_pandas(DOCS).repartition(parts),
                                        "doc_id", "text", span_tokens=6)
                   .to_pandas().sort_values("doc_id").reset_index(drop=True))
        if ref is None:
            ref = out
        else:
            pd.testing.assert_frame_equal(out, ref)
