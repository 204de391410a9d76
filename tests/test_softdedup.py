"""SoftDeDup reweighting (stages/softdedup) — hand-computed weights,
SQL parity on planted duplicates, weights↔stats consistency, beta
semantics, parallelism invariance."""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from docprocai_service_ray.stages.softdedup import (
    exact_dup_cluster_sizes,
    soft_dedup_sql,
    soft_dedup_stats,
    soft_dedup_weights,
)
from docprocai_service_ray.state.groupby import pin_partitions

pytestmark = pytest.mark.usefixtures("ray_session")


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(11)
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    rows = []
    for i in range(200):
        if i % 4 == 0:  # planted exact-dup clusters, 6 templates
            text = f"dup template {i % 6}"
        else:
            text = " ".join(rng.choice(vocab, size=rng.integers(3, 12)))
        rows.append({"doc_id": i, "source": f"s{i % 3}", "text": text})
    rows.append({"doc_id": 200, "source": "s0", "text": None})
    return pd.DataFrame(rows)


def test_hand_weights():
    df = pd.DataFrame({"doc_id": [1, 2, 3, 4],
                       "text": ["A", "A", "A", "B"]})
    w = (soft_dedup_weights(rd.from_pandas(df), "doc_id", "text", beta=1.0)
         .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert list(w["dup_count"]) == [3, 3, 3, 1]
    assert list(w["weight"]) == [round(1 / 3, 6)] * 3 + [1.0]


def test_beta_zero_keeps_everything():
    df = pd.DataFrame({"doc_id": [1, 2, 3], "text": ["A", "A", "B"]})
    w = soft_dedup_weights(rd.from_pandas(df), "doc_id", "text",
                           beta=0.0).to_pandas()
    assert (w["weight"] == 1.0).all()


def test_cluster_sizes(corpus):
    sizes = exact_dup_cluster_sizes(
        rd.from_pandas(corpus), "text").to_pandas()
    # planted docs (i%4==0, real text) land in 3 templates (lcm(4,6))
    planted = corpus[(corpus["doc_id"] % 4 == 0) & corpus["text"].notna()]
    expect = planted.groupby(planted["doc_id"] % 6).size()
    big = sizes[sizes["n"] > 3].sort_values("n")
    assert sorted(big["n"]) == sorted(expect)
    assert sizes["n"].sum() == len(corpus)


def test_sql_parity(corpus):
    got = (soft_dedup_stats(rd.from_pandas(corpus), "source", "text",
                            beta=0.5).to_pandas()
           .sort_values("source").reset_index(drop=True))
    con = duckdb.connect()
    con.register("planted", corpus)
    want = (con.execute(soft_dedup_sql("planted", "source", "text",
                                       beta=0.5)).df()
            .sort_values("source").reset_index(drop=True))
    got = got[sorted(got.columns)]
    want = want[sorted(want.columns)]
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=False, atol=1e-6)


def test_weights_sum_to_effective(corpus):
    beta = 1.0
    w = soft_dedup_weights(rd.from_pandas(corpus), "doc_id", "text",
                           beta=beta, keep_cols=("source",)).to_pandas()
    stats = soft_dedup_stats(rd.from_pandas(corpus), "source", "text",
                             beta=beta).to_pandas().set_index("source")
    per_src = w.groupby("source")["weight"].sum()
    for src, val in per_src.items():
        assert abs(val - stats.loc[src, "effective_docs"]) < 1e-4
    # beta=1: every cluster contributes total weight 1 ⇒ global effective
    # size == number of distinct texts
    assert abs(w["weight"].sum() - stats["n_distinct"].sum()) < 1e-4


def test_parallelism_invariance(corpus):
    base = (soft_dedup_stats(rd.from_pandas(corpus), "source", "text")
            .to_pandas().sort_values("source").reset_index(drop=True))
    with pin_partitions(3):
        again = (soft_dedup_stats(rd.from_pandas(corpus).repartition(9),
                                  "source", "text")
                 .to_pandas().sort_values("source").reset_index(drop=True))
    base = base[sorted(base.columns)]
    again = again[sorted(again.columns)]
    pd.testing.assert_frame_equal(base, again)
