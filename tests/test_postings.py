"""Inverted-index build (stages/postings): SQL-twin parity, stopword
ceiling (max_df) parity vs the unceilinged path, truncation semantics,
parallelism invariance. The sf0.01 parity of the registered
``token_postings`` query is covered by tests/test_queries.py."""

from __future__ import annotations

import logging

import duckdb
import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from docprocai_service_ray.stages.postings import (_doc_tokens, build_postings,
                                                   postings_sql)
from docprocai_service_ray.state.groupby import collect_pandas, pin_partitions

pytestmark = pytest.mark.usefixtures("ray_session")


def _docs(n=80, seed=7):
    rng = np.random.default_rng(seed)
    words = ["apple", "pear", "plum", "fig", "kiwi", "THE"]
    texts = [
        "the " + " ".join(rng.choice(words, size=rng.integers(1, 8)).tolist())
        for _ in range(n)  # "the" is universal → the stopword/hot token
    ]
    texts[4] = None
    texts[9] = "123"
    return pd.DataFrame({
        "doc_id": np.arange(n, dtype="int64"),
        "text": pd.array(texts, dtype=object),
        "source": [f"s{i % 2}" for i in range(n)],
    })


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df.copy()
    df["postings"] = df["postings"].map(lambda p: list(map(int, p)))
    return df.sort_values("token").reset_index(drop=True)


def _got(ds_df, **kw) -> pd.DataFrame:
    out = build_postings(rd.from_pandas(ds_df).repartition(6), "doc_id",
                         "text", **kw)
    return _norm(collect_pandas(out, ["token", "df", "postings"]))


def _exp(df, **kw) -> pd.DataFrame:
    con = duckdb.connect()
    con.register("documents", df)
    out = con.execute(
        postings_sql("documents", "doc_id", "text", **kw)).df()
    con.close()
    return _norm(out)


class TestPostings:
    def test_matches_sql_twin(self):
        df = _docs()
        pd.testing.assert_frame_equal(_got(df, min_df=2), _exp(df, min_df=2),
                                      check_dtype=False)

    def test_truncation_keeps_full_df(self):
        df = _docs()
        got = _got(df, min_df=2, max_postings=5)
        exp = _exp(df, min_df=2, max_postings=5)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)
        the = got[got["token"] == "the"].iloc[0]
        assert the["df"] > 5 and len(the["postings"]) == 5

    def test_stopword_ceiling_matches_having_filter(self):
        df = _docs()
        got = _got(df, min_df=2, max_df=30, max_postings=8)
        exp = _exp(df, min_df=2, max_df=30, max_postings=8)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)
        assert "the" not in set(got["token"])  # universal token defused

    def test_ceiling_equals_unceilinged_minus_hot(self):
        df = _docs(n=50, seed=3)
        plain = _got(df, min_df=1)
        ceiled = _got(df, min_df=1, max_df=20)
        pd.testing.assert_frame_equal(
            ceiled, _norm(plain[plain["df"] <= 20]), check_dtype=False)

    def test_parallelism_invariant(self):
        df = _docs(n=40, seed=11)
        outs = []
        for p, np_ in ((1, 2), (9, 16)):
            with pin_partitions(np_):
                out = build_postings(rd.from_pandas(df).repartition(p),
                                     "doc_id", "text", min_df=2, max_df=25)
                outs.append(_norm(collect_pandas(
                    out, ["token", "df", "postings"])))
        pd.testing.assert_frame_equal(outs[0], outs[1])

    def test_bad_ceiling_raises(self):
        with pytest.raises(ValueError, match="max_df"):
            build_postings(rd.from_pandas(_docs(20)), "doc_id", "text",
                           min_df=5, max_df=3)


@pytest.mark.parametrize("text, stop", [
    (["", None, "123 !"], None),              # no token at all
    (["the a", "a the"], np.array(["a", "the"])),  # every token stopped
])
def test_tokenless_batch_is_sized_without_error(caplog, text, stop):
    """Ray sizes blocks (and ``auto_buckets`` sizes exchanges from that)
    by sampling object columns, which fails on zero rows; a tokenless
    batch must yield a block Ray can size."""
    from ray.data.block import BlockAccessor

    batch = pd.DataFrame({"doc_id": np.arange(len(text), dtype="int64"),
                          "text": pd.array(text, dtype=object)})
    logger = logging.getLogger("ray.data._internal.pandas_block")
    logger.addHandler(caplog.handler)
    try:
        with caplog.at_level(logging.WARNING, logger=logger.name):
            out = (_doc_tokens(batch, "doc_id", "text") if stop is None
                   else _doc_tokens(batch, "doc_id", "text", stop))
            assert BlockAccessor.for_block(out).size_bytes() >= 0
    finally:
        logger.removeHandler(caplog.handler)
    assert len(out) == 0
    assert [r.getMessage() for r in caplog.records
            if "Error calculating size" in r.getMessage()] == []
