"""300k-distinct-surface stress run of the fully distributed
canonicalization path (``state.tier.forced("distributed")``):
banding shuffle, partitioned candidate pairs, partitioned min-label
propagation with pointer jumping. Records wall time + row count; the
result is summarized in SCALE.md.

Run: python scripts/stress_canon.py [n_families]
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time

import pyarrow as pa
import ray
import ray.data as rd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main(n_families: int = 80_000) -> None:
    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
            include_dashboard=False,
            logging_level="ERROR",
        )
    from docprocai_service_ray.config import KGConfig
    from docprocai_service_ray.sources.webgen import alias_dict_table
    from docprocai_service_ray.stages.canonicalize import build_entity_map
    from docprocai_service_ray.state.tier import forced

    variants = ["{} inc", "{} incorporated", "the {} group"]
    subs, objs = [], []
    for i in range(n_families):
        base = f"acme{i:06d} widget works"
        forms = [base] + [v.format(base) for v in variants]
        for f in forms:
            subs.append(f)
            objs.append(forms[0])
    n_surfaces = n_families * (1 + len(variants))
    # from_arrow yields ONE block — spread it so the banding/linking actor
    # pools actually parallelize (a real triples_raw input arrives in many
    # blocks already)
    ds = (
        rd.from_arrow(pa.table({"subj": subs, "obj": objs}))
        .repartition(128)
        .materialize()
    )

    cfg = dataclasses.replace(KGConfig(), actor_pool_size=8)
    alias_ref = ray.put(alias_dict_table(42, cfg.embedding_dim))
    t0 = time.monotonic()
    with forced("distributed"):
        emap = build_entity_map(ds, alias_ref, cfg).materialize()
    wall = time.monotonic() - t0
    rows = emap.count()
    import json

    print(json.dumps({
        "n_surfaces": n_surfaces,
        "rows_out": rows,
        "rows_expected": n_surfaces,
        "wall_s": round(wall, 1),
        "surfaces_per_sec": round(n_surfaces / wall, 1),
    }))
    ray.shutdown()


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 80_000)
