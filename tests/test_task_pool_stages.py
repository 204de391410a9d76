"""The KG chain's stateless maps run as plain tasks, and phase 0's Arrow
entity-map lookup keeps the ``emap.get(s, s)`` semantics."""

from __future__ import annotations

import datetime
import pickle

import pyarrow as pa
import pytest
import ray
import ray.data as rd
from ray.data import ActorPoolStrategy

from docprocai_service_ray.config import KGConfig
from docprocai_service_ray.oracle.scalar import oracle_triples
from docprocai_service_ray.stages.canonicalize import lsh_edges
from docprocai_service_ray.stages.materialize import (EMAP_SCHEMA, _partial_agg,
                                                      build_triples)
from docprocai_service_ray.stages.triple_extract import (
    TRIPLES_RAW_SCHEMA, build_triples_raw, build_triples_raw_fused,
    triples_from_docs, triples_from_sentences)

EPOCH = datetime.datetime(2025, 1, 1)
SUBJ = ["Acme", "Acme Corp", "Beta", "Gamma", "Acme", "Delta"]
OBJ = ["Beta", "Gamma", "Acme Corp", "Beta", "Zeta", "Acme"]
EMAP = {"Acme": "Q1", "Acme Corp": "Q1", "Beta": "C:beta"}


def _traw() -> pa.Table:
    n = 4 * len(SUBJ)
    return pa.table({
        "url": [f"https://e.example/p{i:02d}" for i in range(n)],
        "warc_ts": pa.array([EPOCH + datetime.timedelta(seconds=i)
                             for i in range(n)], pa.timestamp("us")),
        "sent_id": pa.array([i % 3 for i in range(n)], pa.int32()),
        "subj": SUBJ * 4,
        "pred": ["acquired"] * n,
        "obj": OBJ * 4,
    })


def _emap_table(m: dict[str, str]) -> pa.Table:
    return pa.table({"surface": list(m), "canonical_id": list(m.values())},
                    schema=EMAP_SCHEMA)


def _ops(ds):
    stack, seen = [ds._logical_plan.dag], []
    while stack:
        op = stack.pop()
        seen.append(op)
        stack.extend(op.input_dependencies)
    return seen


def test_triple_maps_use_no_actor_pool(ray_session):
    cfg = KGConfig()
    ts = pa.array([EPOCH], pa.timestamp("us"))
    docs = rd.from_arrow(pa.table({"url": ["u"], "warc_ts": ts,
                                   "text": ["Acme acquired Beta."]}))
    sents = rd.from_arrow(pa.table({"url": ["u"], "warc_ts": ts,
                                    "sent_id": pa.array([0], pa.int32()),
                                    "text": ["Acme acquired Beta."]}))
    surfaces = rd.from_arrow(pa.table({"surface": ["Acme", "Acme Corp"]}))
    for ds in (build_triples_raw_fused(docs, cfg), build_triples_raw(sents, cfg),
               build_triples(rd.from_arrow(_traw()),
                             ray.put(EMAP_SCHEMA.empty_table()), cfg),
               lsh_edges(surfaces, cfg)):
        computes = [op._compute for op in _ops(ds) if hasattr(op, "_compute")]
        assert computes, "no map operator found in the plan"
        assert not any(isinstance(c, ActorPoolStrategy) for c in computes)


@pytest.mark.parametrize("emap", [EMAP, {}], ids=["partial_map", "empty_map"])
def test_phase0_emap_lookup_is_get_or_self(ray_session, emap):
    cfg = KGConfig()
    traw = _traw()
    ref = ray.put(_emap_table(emap))
    want = {}
    for s, o in zip(traw["subj"].to_pylist(), traw["obj"].to_pylist()):
        key = (emap.get(s, s), "acquired", emap.get(o, o))
        want[key] = want.get(key, 0) + 1

    partials = _partial_agg(traw, ref, cfg, num_parts=8)
    got = {}
    for payload in partials["payload"].to_pylist():
        key, w, _ = pickle.loads(payload)
        got[key] = got.get(key, 0) + w
    assert got == want

    rows = build_triples(rd.from_arrow(traw).repartition(3), ref, cfg).take_all()
    exp = oracle_triples(traw.to_pylist(), emap, cfg)

    def norm(t):
        return (t["subject_id"], t["pred"], t["object_id"], t["weight"],
                t["prov_overflow"], [(p["url"], p["sent_id"]) for p in t["prov"]])

    assert sorted(map(norm, rows)) == sorted(map(norm, exp))


def test_empty_batch_schema():
    ts = pa.array([], pa.timestamp("us"))
    docs = pa.table({"url": pa.array([], pa.string()), "warc_ts": ts,
                     "text": pa.array([], pa.string())})
    sents = docs.append_column("sent_id", pa.array([], pa.int32()))
    assert triples_from_docs(docs).schema == TRIPLES_RAW_SCHEMA
    assert triples_from_sentences(sents).schema == TRIPLES_RAW_SCHEMA
