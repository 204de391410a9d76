"""The hash-join canonical-mapping path must equal the broadcast path —
the switch SCALE.md promises for entity maps too large for ray.put."""

from __future__ import annotations

import ray

from docprocai_service_ray.stages.materialize import (
    EMAP_SCHEMA,
    build_triples,
    canonicalize_via_join,
)


def test_join_path_equals_broadcast_path(kg_result):
    res, _, cfg = kg_result
    traw = res["triples_raw"]
    emap_ds = res["entity_map"]

    # broadcast path (the one run_kg uses)
    bc = {
        (t["subject_id"], t["pred"], t["object_id"]): (t["weight"], t["prov_overflow"])
        for t in res["triples"].take_all()
    }

    # join path: map surfaces first, then aggregate with an identity map
    mapped = canonicalize_via_join(traw, emap_ds)
    empty_ref = ray.put(EMAP_SCHEMA.empty_table())
    jn = {
        (t["subject_id"], t["pred"], t["object_id"]): (t["weight"], t["prov_overflow"])
        for t in build_triples(mapped, empty_ref, cfg).take_all()
    }
    assert jn == bc


def test_auto_tier_gate_switches_and_matches(kg_result):
    """build_triples_auto with a zeroed broadcast cap must take the join
    tier AND produce the broadcast tier's exact triples (VERDICT r2 #1)."""
    import dataclasses

    from docprocai_service_ray.stages.materialize import build_triples_auto

    res, _, cfg = kg_result
    bc = {
        (t["subject_id"], t["pred"], t["object_id"]): (t["weight"], t["prov_overflow"])
        for t in res["triples"].take_all()
    }
    forced = dataclasses.replace(cfg, emap_broadcast_max_bytes=0)
    jn = {
        (t["subject_id"], t["pred"], t["object_id"]): (t["weight"], t["prov_overflow"])
        for t in build_triples_auto(
            res["triples_raw"], res["entity_map"], forced
        ).take_all()
    }
    assert jn == bc
