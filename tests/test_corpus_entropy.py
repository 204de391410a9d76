"""Corpus-self unigram cross-entropy (stages/textstats.unigram_logprob_stats)
and embedding centroid-distance outlier stats
(stages/similarity.centroid_distance_stats): DuckDB-twin parity on
synthetic data, parallelism invariance, doc-exclusion semantics, and the
driver-size guard. The sf0.01 SQL parity of the registered
``unigram_bits_by_source`` / ``embedding_outlier_stats`` queries is
covered by tests/test_queries.py."""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from docprocai_service_ray.stages.similarity import (
    centroid_distance_sql,
    centroid_distance_stats,
)
from docprocai_service_ray.stages.textstats import (
    unigram_logprob_sql,
    unigram_logprob_stats,
)
from docprocai_service_ray.state.groupby import pin_partitions

pytestmark = pytest.mark.usefixtures("ray_session")


def _docs(n=90, seed=5):
    rng = np.random.default_rng(seed)
    words = ["alpha", "beta", "gamma", "delta", "Zeta9", "the"]
    texts = [
        " ".join(rng.choice(words, size=rng.integers(1, 30)).tolist())
        for _ in range(n)
    ]
    texts[2] = ""        # zero tokens → excluded from per-doc stats
    texts[5] = None      # null text → excluded
    texts[8] = "123 456"  # no [a-z]+ match → excluded
    return pd.DataFrame({
        "doc_id": np.arange(n, dtype="int64"),
        "text": pd.array(texts, dtype=object),
        "source": [f"s{i % 3}" for i in range(n)],
    })


def _sql_expected(df: pd.DataFrame) -> pd.DataFrame:
    con = duckdb.connect()
    con.register("documents", df)
    out = con.execute(
        unigram_logprob_sql("documents", "doc_id", "text", "source")
    ).df()
    con.close()
    return out.sort_values("source").reset_index(drop=True)


class TestUnigramLogprob:
    def test_matches_sql_twin(self):
        df = _docs()
        got = unigram_logprob_stats(
            rd.from_pandas(df).repartition(7), "doc_id", "text", "source"
        ).sort_values("source").reset_index(drop=True)
        exp = _sql_expected(df)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    def test_parallelism_invariant(self):
        df = _docs(n=60, seed=9)
        outs = []
        for p, np_ in ((1, 2), (11, 16)):
            with pin_partitions(np_):
                outs.append(unigram_logprob_stats(
                    rd.from_pandas(df).repartition(p), "doc_id", "text",
                    "source",
                ).sort_values("source").reset_index(drop=True))
        pd.testing.assert_frame_equal(outs[0], outs[1])

    def test_tokenless_docs_excluded(self):
        df = _docs(n=12, seed=1)
        got = unigram_logprob_stats(
            rd.from_pandas(df), "doc_id", "text", "source")
        # docs 2 (empty), 5 (null), 8 (digits only) are excluded
        assert int(got["n_docs"].sum()) == 9

    def test_uniform_corpus_entropy(self):
        # every doc is the same single word → p(w)=1 → 0 bits/token
        df = pd.DataFrame({
            "doc_id": np.arange(8, dtype="int64"),
            "text": ["word word word"] * 8,
            "source": ["a"] * 8,
        })
        got = unigram_logprob_stats(rd.from_pandas(df), "doc_id", "text",
                                    "source")
        assert got["avg_bits_per_token"].tolist() == [0.0]
        assert got["n_tokens"].tolist() == [24]


def _vecs(n=80, dim=6, seed=3):
    rng = np.random.default_rng(seed)
    mat = rng.normal(size=(n, dim)).astype(np.float32)
    return pd.DataFrame({
        "vec_id": np.arange(n, dtype="int64"),
        "label": (np.arange(n) % 4).astype("int32"),
        "embedding": [row for row in mat],
    })


class TestCentroidDistance:
    def test_matches_sql_twin(self):
        df = _vecs()
        got = centroid_distance_stats(
            rd.from_pandas(df).repartition(5), "label", "embedding", 6
        ).to_pandas().sort_values("label").reset_index(drop=True)
        con = duckdb.connect()
        sqldf = df.assign(embedding=df["embedding"].map(
            lambda v: np.asarray(v, dtype=np.float32).tolist()))
        con.register("embeddings", sqldf)
        exp = con.execute(
            centroid_distance_sql("embeddings", "label", "embedding")
        ).df().sort_values("label").reset_index(drop=True)
        con.close()
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    def test_parallelism_invariant(self):
        df = _vecs(n=50, seed=8)
        outs = []
        for p, np_ in ((1, 2), (9, 8)):
            with pin_partitions(np_):
                outs.append(centroid_distance_stats(
                    rd.from_pandas(df).repartition(p), "label", "embedding", 6,
                ).to_pandas().sort_values("label").reset_index(drop=True))
        pd.testing.assert_frame_equal(outs[0], outs[1])

    def test_single_member_label_near_zero_distance(self):
        df = _vecs(n=4, dim=3, seed=2)
        df["label"] = np.arange(4, dtype="int32")  # each label one vector
        got = centroid_distance_stats(
            rd.from_pandas(df), "label", "embedding", 3
        ).to_pandas()
        # centroid coordinates are rounded to 6 dp BY CONTRACT (shared with
        # the SQL twin), so a lone member sits within √dim·5e-7 of its own
        # rounded centroid — near zero, not exactly zero
        assert (got["avg_dist"] <= 1e-5).all()
        assert (got["max_dist"] <= 1e-5).all()

    def test_label_count_guard(self):
        df = _vecs(n=30, dim=3, seed=4)
        df["label"] = np.arange(30, dtype="int32")
        with pytest.raises(ValueError, match="max_labels"):
            centroid_distance_stats(
                rd.from_pandas(df), "label", "embedding", 3, max_labels=10)
