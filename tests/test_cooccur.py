"""Token co-occurrence PMI (stages/cooccur): SQL-twin parity, stopword
ceiling parity, forced shuffle-join tier parity, parallelism invariance.
The sf0.01 parity of the registered ``token_pmi`` query is covered by
tests/test_queries.py."""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from docprocai_service_ray.stages.cooccur import (
    cooccurrence_pmi,
    cooccurrence_pmi_sql,
)
from docprocai_service_ray.state.groupby import pin_partitions
from docprocai_service_ray.state.tier import forced

pytestmark = pytest.mark.usefixtures("ray_session")


def _docs(n=120, seed=13):
    rng = np.random.default_rng(seed)
    words = ["sun", "moon", "tide", "rock", "fern", "THE"]
    texts = [
        "the " + " ".join(rng.choice(words, size=rng.integers(0, 6)).tolist())
        for _ in range(n)
    ]
    texts[3] = None
    texts[6] = "solo"        # single token → no pairs, still counts in N
    texts[9] = "42 17"       # tokenless → still counts in N
    return pd.DataFrame({
        "doc_id": np.arange(n, dtype="int64"),
        "text": pd.array(texts, dtype=object),
    })


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(["w1", "w2"]).reset_index(drop=True)


def _got(df, **kw):
    out = cooccurrence_pmi(rd.from_pandas(df).repartition(6), "doc_id",
                           "text", **kw)
    return _norm(out.to_pandas()[["w1", "w2", "pair_n", "pmi"]])


def _exp(df, **kw):
    con = duckdb.connect()
    con.register("t", df)
    out = con.execute(cooccurrence_pmi_sql("t", "doc_id", "text", **kw)).df()
    con.close()
    return _norm(out)


class TestCooccurrencePMI:
    def test_matches_sql_twin(self):
        df = _docs()
        pd.testing.assert_frame_equal(_got(df), _exp(df), check_dtype=False)

    def test_stopword_ceiling_parity_and_filtering(self):
        df = _docs()
        got = _got(df, max_df=60)
        exp = _exp(df, max_df=60)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)
        assert "the" not in set(got["w1"]) | set(got["w2"])
        # ceiling changes WHICH pairs are reported, never their scores
        plain = _got(df)
        merged = got.merge(plain, on=["w1", "w2"], suffixes=("_c", "_p"))
        assert (merged["pmi_c"] == merged["pmi_p"]).all()

    def test_forced_shuffle_join_tier_identical(self):
        df = _docs(n=80, seed=4)
        auto = _got(df)
        with forced("distributed"):
            shuffled = _got(df)
        pd.testing.assert_frame_equal(auto, shuffled)

    def test_parallelism_invariant(self):
        df = _docs(n=60, seed=9)
        outs = []
        for p, np_ in ((1, 2), (7, 16)):
            with pin_partitions(np_):
                out = cooccurrence_pmi(
                    rd.from_pandas(df).repartition(p), "doc_id", "text")
            outs.append(_norm(out.to_pandas()[["w1", "w2", "pair_n", "pmi"]]))
        pd.testing.assert_frame_equal(outs[0], outs[1])

    def test_perfect_association_scores_log2_n_over_df(self):
        # "alpha beta" in every one of 8 docs → pmi = log2(8·N/(8·8)) with
        # N=8 → log2(1/1) ... pair_n=8, df=8 each: log2(8·8/64) = 0;
        # make one doc tokenless → N=9, pmi = log2(9·8/64)
        df = pd.DataFrame({
            "doc_id": np.arange(9, dtype="int64"),
            "text": ["alpha beta"] * 8 + ["123"],
        })
        got = _got(df, min_pair_count=1)
        assert got["pair_n"].tolist() == [8]
        assert got["pmi"].tolist() == [round(float(np.log2(9 * 8 / 64)), 6)]
