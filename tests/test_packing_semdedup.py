"""Sequence packing (stages/packing) and SemDeDup semantic dedup
(stages/similarity.semantic_dedup) + Gopher repetition stats
(stages/textstats.repetition_stats): brute-force parity, parallelism
invariance, planted duplicates, guard rails. The sf0.01 SQL/golden
parity of the registered queries is covered by tests/test_queries.py."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from docprocai_service_ray.stages.packing import pack_spans
from docprocai_service_ray.stages.similarity import semantic_dedup
from docprocai_service_ray.stages.textstats import repetition_stats
from docprocai_service_ray.state.groupby import pin_partitions

pytestmark = pytest.mark.usefixtures("ray_session")


def _docs(n=97, seed=7):
    rng = np.random.default_rng(seed)
    words = ["alpha", "beta", "gamma", "x1", "...", ""]
    texts = [
        " ".join(rng.choice(words, size=rng.integers(0, 30)).tolist())
        for _ in range(n)
    ]
    texts[5] = ""        # zero tokens → dropped from spans
    texts[11] = None     # null text → zero tokens
    return pd.DataFrame({
        "doc_id": np.arange(n, dtype="int64"),
        "text": pd.array(texts, dtype=object),
        "source": [f"s{i % 3}" for i in range(n)],
    })


def _brute_spans(df: pd.DataFrame, budget: int) -> pd.DataFrame:
    import re

    pat = re.compile(r"[A-Za-z]+|\d+|[^\sA-Za-z\d]")
    d = df.sort_values("doc_id")
    toks = [len(pat.findall(t or "")) for t in d["text"]]
    rows, cum = [], 0
    for i, n in zip(d["doc_id"], toks):
        start, cum = cum, cum + n
        if n > 0:
            rows.append((i, n, start // budget, (cum - 1) // budget))
    return pd.DataFrame(rows, columns=["doc_id", "n_tokens",
                                       "start_seq", "end_seq"])


class TestPackSpans:
    def test_matches_brute_force_and_bucket_invariant(self):
        df = _docs()
        want = _brute_spans(df, budget=17)
        for nb in (1, 4, 64):
            got = (pack_spans(rd.from_pandas(df), "doc_id", "text", 17,
                              num_buckets=nb)
                   .to_pandas().sort_values("doc_id").reset_index(drop=True))
            pd.testing.assert_frame_equal(got, want.reset_index(drop=True))

    def test_zero_token_docs_dropped_but_do_not_shift_stream(self):
        df = _docs()
        got = pack_spans(rd.from_pandas(df), "doc_id", "text", 17).to_pandas()
        assert 5 not in set(got["doc_id"]) and 11 not in set(got["doc_id"])
        # spans tile the concatenated stream: total tokens consistent
        assert got["n_tokens"].sum() == _brute_spans(df, 17)["n_tokens"].sum()

    def test_spans_are_contiguous_chunks(self):
        df = _docs()
        got = (pack_spans(rd.from_pandas(df), "doc_id", "text", 17)
               .to_pandas().sort_values("doc_id"))
        assert (got["end_seq"] >= got["start_seq"]).all()
        # consecutive docs overlap or abut in sequence space (concat-chunk)
        e = got["end_seq"].to_numpy()[:-1]
        s = got["start_seq"].to_numpy()[1:]
        assert ((s - e) <= 1).all() and (s >= got["start_seq"].to_numpy()[:-1]).all()

    def test_empty_dataset(self):
        empty = rd.from_pandas(pd.DataFrame({
            "doc_id": pd.Series(dtype="int64"),
            "text": pd.Series(dtype="object")}))
        assert pack_spans(empty, "doc_id", "text", 17).to_pandas().empty


def _vecs(n=60, dim=8, seed=3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, dim))
    return pd.DataFrame({
        "vec_id": np.arange(n, dtype="int64"),
        "v": [r.astype("float64") for r in x],
    })


class TestSemanticDedup:
    def test_planted_duplicates_drop_later_ids(self):
        df = _vecs()
        # plant: 50 == 10 exactly, 55 = 1.0000001 * 20 (cos == 1)
        df.at[50, "v"] = df.at[10, "v"].copy()
        df.at[55, "v"] = df.at[20, "v"] * 1.0000001
        out = (semantic_dedup(rd.from_pandas(df), "vec_id", "v", 8, 3,
                              threshold=0.999, iters=4)
               .to_pandas().set_index("vec_id"))
        assert len(out) == len(df)
        assert bool(out.loc[10, "kept"]) and not bool(out.loc[50, "kept"])
        assert bool(out.loc[20, "kept"]) and not bool(out.loc[55, "kept"])

    def test_threshold_above_one_keeps_all_and_partition_invariant(self):
        df = _vecs()
        df.at[50, "v"] = df.at[10, "v"].copy()
        keep_all = semantic_dedup(rd.from_pandas(df), "vec_id", "v", 8, 3,
                                  threshold=1.5, iters=4).to_pandas()
        assert keep_all["kept"].all()
        with pin_partitions(1):
            a = (semantic_dedup(rd.from_pandas(df), "vec_id", "v", 8, 3,
                                threshold=0.9, iters=4)
                 .to_pandas().sort_values("vec_id").reset_index(drop=True))
        with pin_partitions(7):
            b = (semantic_dedup(rd.from_pandas(df), "vec_id", "v", 8, 3,
                                threshold=0.9, iters=4)
                 .to_pandas().sort_values("vec_id").reset_index(drop=True))
        pd.testing.assert_frame_equal(a, b)

    def test_oversized_cluster_raises_loudly(self):
        df = _vecs(n=40)
        with pytest.raises(Exception, match="max_cluster_rows"):
            semantic_dedup(rd.from_pandas(df), "vec_id", "v", 8, 1,
                           threshold=0.9, iters=2,
                           max_cluster_rows=10).to_pandas()


class TestRepetitionStats:
    def test_matches_brute_force(self):
        df = _docs()
        got = (repetition_stats(rd.from_pandas(df), "doc_id", "text",
                                "source", flag_threshold=0.5)
               .to_pandas().sort_values("source").reset_index(drop=True))

        toks = df["text"].fillna("").str.split(" ")
        nw = toks.str.len().astype(float)
        nd = toks.map(lambda ws: len(set(ws))).astype(float)
        tc = toks.map(lambda ws: max(Counter(ws).values())).astype(float)
        per = pd.DataFrame({"source": df["source"],
                            "dup": 1.0 - nd / nw, "top": tc / nw})
        want = (per.groupby("source", as_index=False)
                .agg(n_docs=("dup", "size"), d=("dup", "mean"),
                     t=("top", "mean"),
                     n_flagged=("dup", lambda s: int((s > 0.5).sum())))
                .sort_values("source").reset_index(drop=True))
        assert got["n_docs"].tolist() == want["n_docs"].tolist()
        assert got["n_flagged"].tolist() == want["n_flagged"].tolist()
        np.testing.assert_allclose(got["avg_dup_word_frac"], want["d"],
                                   atol=1e-6)
        np.testing.assert_allclose(got["avg_top_word_frac"], want["t"],
                                   atol=1e-6)
