"""Distributed canonicalization scale-path test (VERDICT r01 next-round #1):
force the distributed tier (``state.tier.forced``) on a surface set far
above anything the 300-page corpus produces and check the fully
distributed path (banding shuffle + partitioned min-label propagation +
pointer jumping) still matches the driver union-find exactly.

The full 300k-surface bounded-time run lives in scripts/stress_canon.py
(results recorded in SCALE.md); this in-suite version keeps the same code
path at a size a 4-CPU pytest session absorbs."""

from __future__ import annotations

import pyarrow as pa
import pytest
import ray
import ray.data as rd

from docprocai_service_ray.config import KGConfig
from docprocai_service_ray.sources.webgen import alias_dict_table
from docprocai_service_ray.stages.canonicalize import build_entity_map
from docprocai_service_ray.state.tier import forced

N_FAMILIES = 1200
VARIANTS = ["{} inc", "{} incorporated", "the {} group"]


def _surface_corpus() -> rd.Dataset:
    """~4.8k distinct surfaces: 1200 families × (1 base + 3 variants).
    Variants of one family share high char-3-gram jaccard; families are
    disjoint."""
    subs, objs = [], []
    for i in range(N_FAMILIES):
        base = f"acme{i:05d} widget works"
        forms = [base] + [v.format(base) for v in VARIANTS]
        for f in forms:
            subs.append(f)
            objs.append(forms[0])
    return rd.from_arrow(pa.table({"subj": subs, "obj": objs}))


@pytest.fixture(scope="module")
def surface_ds():
    return _surface_corpus().materialize()


def test_distributed_path_matches_driver_at_scale(surface_ds):
    alias_ref = ray.put(alias_dict_table(42, 64))
    cfg = KGConfig()  # driver path: canon_max well above 4.8k
    want = {
        (r["surface"], r["canonical_id"], r["cluster_size"])
        for r in build_entity_map(surface_ds, alias_ref, cfg).take_all()
    }
    with forced("distributed"):
        got = {
            (r["surface"], r["canonical_id"], r["cluster_size"])
            for r in build_entity_map(surface_ds, alias_ref, cfg).take_all()
        }
    assert len(want) == N_FAMILIES * (1 + len(VARIANTS))
    assert got == want
