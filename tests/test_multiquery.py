"""Batched multi-query cosine top-k (stages/similarity.multi_query_topk)
— single-process numpy mirror, agreement with brute_force_topk per
query, SQL parity via list_cosine_similarity, edge cases."""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from docprocai_service_ray.stages.similarity import (
    brute_force_topk,
    multi_query_topk,
    multi_query_topk_sql,
)
from docprocai_service_ray.state.groupby import pin_partitions

pytestmark = pytest.mark.usefixtures("ray_session")

DIM = 16


@pytest.fixture(scope="module")
def table():
    rng = np.random.default_rng(3)
    n = 120
    vecs = rng.standard_normal((n, DIM)).astype(np.float32)
    return pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array(list(vecs), pa.list_(pa.float32())),
        "label": pa.array((np.arange(n) % 5).astype(np.int32)),
    })


def _np_reference(corpus: pa.Table, qmat: np.ndarray, qids, k: int):
    mat = np.asarray(corpus["embedding"].to_pylist(), dtype=np.float64)
    ids = corpus["vec_id"].to_numpy()
    norms = np.linalg.norm(mat, axis=1)
    rows = []
    for qi, q in zip(qids, qmat):
        s = (mat @ q) / (norms * np.linalg.norm(q))
        order = sorted(range(len(ids)), key=lambda i: (-s[i], ids[i]))[:k]
        rows += [{"query_id": qi, "rank": r + 1, "vec_id": ids[i]}
                 for r, i in enumerate(order)]
    return pd.DataFrame(rows)


def test_numpy_mirror(table):
    bench = table.filter(pa.compute.equal(
        pa.compute.bit_wise_and(table["vec_id"], 7), 0))
    corpus = table.filter(pa.compute.not_equal(
        pa.compute.bit_wise_and(table["vec_id"], 7), 0))
    qmat = np.asarray(bench["embedding"].to_pylist(), dtype=np.float64)
    qids = bench["vec_id"].to_numpy()
    got = (multi_query_topk(rd.from_arrow(corpus), qmat, qids, 5)
           .to_pandas().reset_index(drop=True))
    want = _np_reference(corpus, qmat, qids, 5)
    pd.testing.assert_frame_equal(
        got[["query_id", "rank", "vec_id"]].astype("int64"),
        want.astype("int64"))


def test_agrees_with_single_query_topk(table):
    q = np.asarray(table["embedding"][7].as_py(), dtype=np.float64)
    corpus = table.filter(pa.compute.not_equal(table["vec_id"], 7))
    single = (brute_force_topk(rd.from_arrow(corpus), q, 4)
              .to_pandas()["vec_id"].tolist())
    multi = (multi_query_topk(rd.from_arrow(corpus), q.reshape(1, -1),
                              np.array([7]), 4)
             .to_pandas().sort_values("rank")["vec_id"].tolist())
    assert single == multi


def test_sql_parity(table):
    con = duckdb.connect()
    con.register("embeddings", table)
    pred = "vec_id % 9 = 0"
    bench = table.to_pandas()
    mask = bench["vec_id"] % 9 == 0
    qmat = np.asarray(list(bench[mask]["embedding"]), dtype=np.float64)
    qids = bench[mask]["vec_id"].to_numpy()
    corpus = rd.from_arrow(table).map_batches(
        lambda df: df[df["vec_id"] % 9 != 0], batch_format="pandas")
    got = (multi_query_topk(corpus, qmat, qids, 3, extra_cols=("label",))
           .to_pandas().reset_index(drop=True))
    want = (con.execute(multi_query_topk_sql(
        "embeddings", pred, 3, extra_cols=("label",))).df()
        .sort_values(["query_id", "rank"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_k_exceeds_corpus(table):
    small = table.slice(0, 3)
    q = np.asarray(small["embedding"][0].as_py(), dtype=np.float64)
    out = (multi_query_topk(rd.from_arrow(small), q.reshape(1, -1),
                            np.array([99]), 10).to_pandas())
    assert len(out) == 3
    assert list(out["rank"]) == [1, 2, 3]


def test_parallelism_invariance(table):
    bench = table.to_pandas().iloc[:4]
    qmat = np.asarray(list(bench["embedding"]), dtype=np.float64)
    qids = bench["vec_id"].to_numpy()
    base = (multi_query_topk(rd.from_arrow(table), qmat, qids, 5)
            .to_pandas().reset_index(drop=True))
    with pin_partitions(2):
        again = (multi_query_topk(rd.from_arrow(table).repartition(11),
                                  qmat, qids, 5)
                 .to_pandas().reset_index(drop=True))
    pd.testing.assert_frame_equal(base, again)
