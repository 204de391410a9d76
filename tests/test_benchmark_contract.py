"""The benchmark (perfbench/) rebinds package functions by name and reads
the tier-gate fields of ``KGConfig``. A renamed stage or a removed field
must fail here, not in a traced benchmark run."""

from __future__ import annotations

import importlib

import pytest

from docprocai_service_ray.config import KGConfig
from perfbench import layers, workloads
from perfbench.trace import Span

TARGETS = sorted(set(workloads.STATE_TARGETS).union(
    *(w.stage_targets for w in workloads.WORKLOADS.values())))


@pytest.mark.parametrize("module,fn", TARGETS)
def test_traced_target_resolves(module, fn):
    assert callable(getattr(importlib.import_module(module), fn))


def test_span_metrics_reads_the_tier_gate_fields():
    spans = [
        Span(i, f"stages.{name}", float(i), i + 0.5, None, 0,
             {"rows_in": 10, "rows_out": 8, "bytes_out": 800})
        for i, name in enumerate(
            ("dedup_urls", "build_entity_map", "build_triples_auto"))
    ]
    m = layers.span_metrics(spans, 3.0, KGConfig())
    assert m["stages.dedup_urls.driver_tier"] == 1.0
    assert m["stages.build_entity_map.driver_tier"] == 1.0
    assert m["stages.build_triples_auto.broadcast_tier"] == 1.0
