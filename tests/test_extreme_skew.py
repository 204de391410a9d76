"""Extreme hot-key stress: one triple owns (almost) every row.

The phase-0 partial aggregation must cap each (key, batch) contribution at
prov_cap entries, so the exchange for a key asserted 200k times moves
O(batches) capped rows — and weight / provenance / overflow still come out
exact (SURVEY.md §7.4 head-entity skew; the salting-equivalent)."""

from __future__ import annotations

import datetime

import pyarrow as pa
import ray
import ray.data as rd

from docprocai_service_ray.config import KGConfig
from docprocai_service_ray.stages.materialize import EMAP_SCHEMA, build_triples

N_HOT = 200_000
N_COLD = 500


def _traw_table() -> pa.Table:
    epoch = datetime.datetime(2025, 1, 1)
    urls, tss, sids, subjs, preds, objs = [], [], [], [], [], []
    for i in range(N_HOT):
        urls.append(f"https://hot.example/p{i}")
        tss.append(epoch + datetime.timedelta(seconds=i))
        sids.append(i % 7)
        subjs.append("Hot Corp")
        preds.append("acquired")
        objs.append("Cold Inc")
    for i in range(N_COLD):
        urls.append(f"https://cold.example/p{i}")
        tss.append(epoch + datetime.timedelta(seconds=i))
        sids.append(0)
        subjs.append(f"Entity {i}")
        preds.append("founded")
        objs.append(f"Thing {i}")
    return pa.Table.from_pydict(
        {
            "url": pa.array(urls),
            "warc_ts": pa.array(tss, pa.timestamp("us")),
            "sent_id": pa.array(sids, pa.int32()),
            "subj": pa.array(subjs),
            "pred": pa.array(preds),
            "obj": pa.array(objs),
        }
    )


def test_hot_key_aggregates_exactly():
    cfg = KGConfig()
    traw = rd.from_arrow(_traw_table()).repartition(16)
    emap_ref = ray.put(EMAP_SCHEMA.empty_table())
    rows = {(t["subject_id"], t["pred"], t["object_id"]): t
            for t in build_triples(traw, emap_ref, cfg).take_all()}
    assert len(rows) == 1 + N_COLD
    hot = rows[("Hot Corp", "acquired", "Cold Inc")]
    assert hot["weight"] == N_HOT
    assert len(hot["prov"]) == cfg.prov_cap
    assert hot["prov_overflow"] == N_HOT - cfg.prov_cap
    # provenance is the global min-k by (url, sent_id) — p0, p1, p10, ...
    exp_urls = sorted(f"https://hot.example/p{i}" for i in range(N_HOT))[: cfg.prov_cap]
    assert [p["url"] for p in hot["prov"]] == exp_urls
    cold = rows[("Entity 7", "founded", "Thing 7")]
    assert cold["weight"] == 1 and cold["prov_overflow"] == 0
