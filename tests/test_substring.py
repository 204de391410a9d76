"""Duplicate-substring stats (stages/substring): brute-force parity,
<n-word exclusion, null text, min_docs threshold, and the within-doc
repeat case (a gram repeated inside ONE doc is not duplicated). The
sf0.01 SQL parity of the registered ``dup_gram_stats`` query is covered
by tests/test_queries.py."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from docprocai_service_ray.stages.substring import dup_gram_stats
from docprocai_service_ray.state.groupby import collect_pandas, pin_partitions

pytestmark = pytest.mark.usefixtures("ray_session")

COLS = ["source", "n_docs", "dup_docs", "avg_dup_frac"]


def _docs(n=150, seed=7):
    rng = np.random.default_rng(seed)
    words = ["red", "green", "blue", "fast", "slow", "x", "y"]
    texts = [
        " ".join(rng.choice(words, size=rng.integers(0, 14)).tolist())
        for _ in range(n)
    ]
    texts[3] = ""            # no grams → excluded
    texts[7] = None          # null text → excluded
    texts[9] = "red green"   # < n words at n=3 → excluded
    # a verbatim shared sentence (the Lee-et-al target case)
    texts[12] = "alpha beta gamma delta " + (texts[12] or "")
    texts[44] = "alpha beta gamma delta"
    return pd.DataFrame({
        "doc_id": np.arange(n, dtype="int64"),
        "text": pd.array(texts, dtype=object),
        "source": [f"s{i % 3}" for i in range(n)],
    })


def _brute(docs: pd.DataFrame, n: int, min_docs: int = 2) -> pd.DataFrame:
    def grams(t):
        ws = (t or "").split(" ")
        return {" ".join(ws[i:i + n]) for i in range(len(ws) - n + 1)}

    per_doc = {r.doc_id: grams(r.text) for r in docs.itertuples()}
    from collections import Counter

    cnt = Counter(g for gs in per_doc.values() for g in gs)
    rows = []
    for r in docs.itertuples():
        g = per_doc[r.doc_id]
        if not g:
            continue
        nc = sum(1 for x in g if cnt[x] >= min_docs)
        rows.append((r.source, nc / len(g)))
    d = pd.DataFrame(rows, columns=["source", "frac"])
    out = d.groupby("source", as_index=False).agg(
        n_docs=("frac", "size"),
        dup_docs=("frac", lambda s: int((s > 0).sum())),
        avg_dup_frac=("frac", "mean"),
    )
    out["avg_dup_frac"] = out["avg_dup_frac"].round(6)
    out["n_docs"] = out["n_docs"].astype("int64")
    out["dup_docs"] = out["dup_docs"].astype("int64")
    return out.sort_values("source").reset_index(drop=True)


def _run(docs, n, min_docs=2):
    with pin_partitions(4):
        res = dup_gram_stats(
            rd.from_pandas(docs).repartition(5),
            "doc_id", "text", "source", n=n, min_docs=min_docs,
        )
    return (collect_pandas(res, COLS)
            .sort_values("source").reset_index(drop=True))


@pytest.mark.parametrize("n", [2, 3])
def test_matches_brute_force(n):
    docs = _docs()
    got = _run(docs, n)
    exp = _brute(docs, n)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_min_docs_threshold():
    docs = _docs()
    got = _run(docs, 3, min_docs=3)
    exp = _brute(docs, 3, min_docs=3)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_within_doc_repeat_not_duplicated():
    # "a b a b a b" repeats gram "a b" 3× inside one doc; no other doc
    # shares it → dup_docs must be 0 for that doc's group
    docs = pd.DataFrame({
        "doc_id": np.arange(3, dtype="int64"),
        "text": ["a b a b a b", "c d e f", "g h i j"],
        "source": ["s0", "s1", "s1"],
    })
    got = _run(docs, 2)
    assert int(got["dup_docs"].sum()) == 0
    assert got["avg_dup_frac"].tolist() == [0.0, 0.0]


def test_shared_sentence_detected():
    docs = pd.DataFrame({
        "doc_id": np.arange(3, dtype="int64"),
        "text": ["alpha beta gamma delta tail one",
                 "head two alpha beta gamma delta",
                 "nothing shared here at all"],
        "source": ["s0", "s0", "s0"],
    })
    got = _run(docs, 4)
    row = got.iloc[0]
    assert row["n_docs"] == 3 and row["dup_docs"] == 2
    # doc0: 3 grams, 1 dup; doc1: 3 grams, 1 dup; doc2: 0 dup
    assert row["avg_dup_frac"] == round((1 / 3 + 1 / 3 + 0) / 3, 6)


def test_hot_gram_ceiling_parity():
    # ceiling=3 on the word-soup corpus makes MOST duplicated grams hot
    # (routed via the batch-local sentinel path) — output must be
    # byte-identical to the unceilinged exchange and to brute force
    docs = _docs()
    plain = _run(docs, 2)
    with pin_partitions(4):
        ceiled = (collect_pandas(
            dup_gram_stats(rd.from_pandas(docs).repartition(5),
                           "doc_id", "text", "source", n=2,
                           hot_gram_ceiling=3),
            COLS).sort_values("source").reset_index(drop=True))
    pd.testing.assert_frame_equal(ceiled, plain)
    pd.testing.assert_frame_equal(ceiled, _brute(docs, 2), check_dtype=False)


def test_hot_gram_ceiling_universal_gram():
    # a boilerplate prefix shared by EVERY doc — the case the ceiling
    # exists for; with ceiling=2 every shared gram is hot, so the gram
    # exchange carries only singletons
    docs = pd.DataFrame({
        "doc_id": np.arange(40, dtype="int64"),
        "text": [f"copyright acme corp page {i} unique{i} tail{i}"
                 for i in range(40)],
        "source": [f"s{i % 2}" for i in range(40)],
    })
    for ceiling in (2, 10, None):
        with pin_partitions(4):
            got = (collect_pandas(
                dup_gram_stats(rd.from_pandas(docs).repartition(6),
                               "doc_id", "text", "source", n=3,
                               hot_gram_ceiling=ceiling),
                COLS).sort_values("source").reset_index(drop=True))
        pd.testing.assert_frame_equal(got, _brute(docs, 3),
                                      check_dtype=False)


def test_hot_gram_ceiling_guards():
    ds = rd.from_pandas(_docs(n=60))
    with pytest.raises(ValueError, match="must be >="):
        dup_gram_stats(ds, "doc_id", "text", "source", n=2,
                       min_docs=5, hot_gram_ceiling=3)
    with pytest.raises(ValueError, match="min_docs >= 2"):
        dup_gram_stats(ds, "doc_id", "text", "source", n=2,
                       min_docs=1, hot_gram_ceiling=3)


def test_parallelism_invariance():
    docs = _docs(n=80, seed=3)
    with pin_partitions(2):
        a = collect_pandas(
            dup_gram_stats(rd.from_pandas(docs).repartition(1),
                           "doc_id", "text", "source", n=3),
            COLS).sort_values("source").reset_index(drop=True)
    with pin_partitions(7):
        b = collect_pandas(
            dup_gram_stats(rd.from_pandas(docs).repartition(9),
                           "doc_id", "text", "source", n=3),
            COLS).sort_values("source").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
