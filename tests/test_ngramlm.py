"""Bigram-LM perplexity scoring (stages/ngramlm): brute-force reference
parity, DuckDB twin parity, sub-2-token exclusion, parallelism
invariance, and smoothing sanity. The sf0.01 parity of the registered
``bigram_bits_by_source`` query is covered by tests/test_queries.py."""

from __future__ import annotations

import math
import re
from collections import Counter

import duckdb
import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from docprocai_service_ray.stages.ngramlm import bigram_lm_bits, bigram_lm_sql
from docprocai_service_ray.state.groupby import pin_partitions

pytestmark = pytest.mark.usefixtures("ray_session")

DOCS = pd.DataFrame({
    "doc_id": np.arange(12, dtype="int64"),
    "text": ["the cat sat on the mat", "the cat ran", "a b a b a b",
             "single", "", None, "the the the the", "cat cat",
             "on the mat sat the cat", "xyz unique words here now",
             "The CAT sat!", "mat the on"],
    "source": [f"s{i % 3}" for i in range(12)],
})


def _brute(docs: pd.DataFrame, k: float = 1.0) -> pd.DataFrame:
    toks = {r.doc_id: re.findall(r"[a-z]+", (r.text or "").lower())
            for r in docs.itertuples()}
    vocab = len({w for ws in toks.values() for w in ws})
    c2: Counter = Counter()
    for ws in toks.values():
        for a, b in zip(ws, ws[1:]):
            c2[(a, b)] += 1
    cl: Counter = Counter()
    for (a, _), n in c2.items():
        cl[a] += n
    rows = []
    for r in docs.itertuples():
        ws = toks[r.doc_id]
        if len(ws) < 2:
            continue
        bits = [-math.log2((c2[(a, b)] + k) / (cl[a] + k * vocab))
                for a, b in zip(ws, ws[1:])]
        rows.append((r.source, sum(bits) / len(bits)))
    d = pd.DataFrame(rows, columns=["source", "bits"])
    out = d.groupby("source", as_index=False).agg(
        n_docs=("bits", "size"), avg_bits=("bits", "mean"))
    out["n_docs"] = out["n_docs"].astype("int64")
    out["avg_bits"] = out["avg_bits"].round(4)
    return out


def test_matches_brute_and_sql():
    got = (bigram_lm_bits(rd.from_pandas(DOCS).repartition(3),
                          "doc_id", "text", "source")
           .to_pandas().sort_values("source").reset_index(drop=True))
    exp = _brute(DOCS).sort_values("source").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp)
    con = duckdb.connect()
    con.register("d", DOCS)
    sq = (con.execute(bigram_lm_sql("d", "doc_id", "text", "source")).df()
          .sort_values("source").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, sq[got.columns].astype(
        got.dtypes.to_dict()))


def test_short_docs_excluded():
    docs = pd.DataFrame({"doc_id": [0, 1, 2], "source": ["s", "s", "s"],
                         "text": ["one two", "single", ""]})
    out = bigram_lm_bits(rd.from_pandas(docs), "doc_id", "text",
                         "source").to_pandas()
    assert out["n_docs"].tolist() == [1]


def test_parallelism_invariance():
    ref = None
    for parts, np_ in ((1, 2), (4, 7), (11, 16)):
        with pin_partitions(np_):
            out = (bigram_lm_bits(rd.from_pandas(DOCS).repartition(parts),
                                  "doc_id", "text", "source")
                   .to_pandas().sort_values("source").reset_index(drop=True))
        if ref is None:
            ref = out
        else:
            pd.testing.assert_frame_equal(out, ref)


def test_repeated_bigram_scores_lower():
    """A doc made of ONE repeated bigram must score fewer bits than a doc
    of corpus-unique bigrams (the LM actually conditions on context)."""
    docs = pd.DataFrame({
        "doc_id": [0, 1], "source": ["rep", "uniq"],
        "text": ["go go go go go go go go", "ab cd ef gh ij kl mn op"]})
    out = bigram_lm_bits(rd.from_pandas(docs), "doc_id", "text",
                         "source").to_pandas().set_index("source")
    assert out.loc["rep", "avg_bits"] < out.loc["uniq", "avg_bits"]
