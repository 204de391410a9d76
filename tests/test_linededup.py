"""Line-level corpus dedup (stages/linededup): rewrite semantics vs a
brute-force single-process reference, DuckDB SQL parity of the stats
certificate, parallelism invariance, and edge cases (null/empty text,
within-doc dups, docs losing every line, min_len gate). The sf0.01 SQL
parity of the registered ``line_dedup_docs`` query is covered by
tests/test_queries.py."""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from docprocai_service_ray.stages.linededup import (line_dedup,
                                                    line_dedup_sql,
                                                    line_dedup_stats)
from docprocai_service_ray.state.groupby import pin_partitions

pytestmark = pytest.mark.usefixtures("ray_session")


def _brute(docs: pd.DataFrame, min_len: int = 1) -> pd.DataFrame:
    """Single-process reference: first (doc_id, idx) occurrence of each
    participating line wins, everywhere else it is dropped."""
    seen: set[str] = set()
    rows = []
    for r in docs.sort_values("doc_id").itertuples():
        lines = (r.text or "").split("\n")
        kept = []
        for ln in lines:
            if len(ln) < min_len:
                kept.append(ln)
            elif ln not in seen:
                seen.add(ln)
                kept.append(ln)
        rows.append((r.doc_id, "\n".join(kept), len(lines), len(kept)))
    return pd.DataFrame(rows, columns=["doc_id", "text", "n_lines", "n_kept"])


DOCS = pd.DataFrame({
    "doc_id": np.arange(8, dtype="int64"),
    "text": [
        "alpha beta\nshared footer line\nunique one",
        "gamma delta\nshared footer line\nunique two",
        "shared footer line\nshared footer line\nx",  # within-doc dup
        "",
        None,
        "unique three\n\nafter blank",                # blank line survives
        "alpha beta\nalpha beta",                     # loses BOTH copies
        "only here",
    ],
})


def test_rewrite_matches_brute():
    out = (line_dedup(rd.from_pandas(DOCS).repartition(4), "doc_id", "text")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    exp = _brute(DOCS)
    pd.testing.assert_frame_equal(
        out[["doc_id", "text", "n_lines", "n_kept"]].astype(
            {"n_lines": "int64", "n_kept": "int64"}),
        exp.astype({"n_lines": "int64", "n_kept": "int64"}))
    # the doc whose every line is claimed elsewhere rebuilds to ''
    assert out.loc[out["doc_id"] == 6, "text"].iloc[0] == ""
    assert out.loc[out["doc_id"] == 6, "n_kept"].iloc[0] == 0


def test_sql_parity_and_fp():
    stats = (line_dedup_stats(rd.from_pandas(DOCS).repartition(3),
                              "doc_id", "text")
             .to_pandas().sort_values("doc_id").reset_index(drop=True))
    con = duckdb.connect()
    con.register("t", DOCS)
    sql = (con.execute(line_dedup_sql("t", "doc_id", "text")).df()
           .sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(
        stats, sql[stats.columns].astype(stats.dtypes.to_dict()))


def test_min_len_gate():
    docs = pd.DataFrame({
        "doc_id": np.array([0, 1], dtype="int64"),
        "text": ["ab\nlong shared line", "ab\nlong shared line"],
    })
    out = (line_dedup(rd.from_pandas(docs), "doc_id", "text", min_len=5)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    # 'ab' (< min_len) survives in BOTH docs; the long line only in doc 0
    assert out["text"].tolist() == ["ab\nlong shared line", "ab"]
    exp = _brute(docs, min_len=5)
    assert out["text"].tolist() == exp["text"].tolist()


def test_parallelism_invariance():
    rng = np.random.default_rng(7)
    vocab = ["red fox", "lazy dog", "shared boiler", "quick brown",
             "jumps over", "end line"]
    docs = pd.DataFrame({
        "doc_id": np.arange(60, dtype="int64"),
        "text": ["\n".join(rng.choice(vocab, size=rng.integers(1, 6)))
                 for _ in range(60)],
    })
    outs = []
    for parts in (1, 4, 13):
        with pin_partitions(parts + 2):
            out = (line_dedup_stats(rd.from_pandas(docs).repartition(parts),
                                    "doc_id", "text")
                   .to_pandas().sort_values("doc_id").reset_index(drop=True))
        outs.append(out)
    pd.testing.assert_frame_equal(outs[0], outs[1])
    pd.testing.assert_frame_equal(outs[0], outs[2])
    exp = _brute(docs)
    assert outs[0]["n_kept"].tolist() == exp["n_kept"].tolist()
