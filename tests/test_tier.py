"""state.tier: the one row-count gate (``choose_tier``) and the one way to
force a tier (``forced``)."""

from __future__ import annotations

import logging

import pyarrow as pa
import pytest
import ray.data as rd
from ray.data.dataset import MaterializedDataset

from docprocai_service_ray.state.tier import choose_tier, forced, tier_for


def _empty():
    return rd.from_arrow(pa.table({"x": pa.array([], pa.int64())}))


def test_count_at_limit_is_driver(ray_session):
    assert choose_tier(rd.range(5), 5, what="t")[0] == "driver"
    assert choose_tier(rd.range(6), 5, what="t")[0] == "distributed"
    assert tier_for(None, 5, what="t") == "distributed"  # unknown size


def test_forced_overrides_in_both_directions(ray_session):
    with forced("distributed"):
        assert choose_tier(_empty(), 0, what="t")[0] == "distributed"
        assert choose_tier(rd.range(3), 10, what="t")[0] == "distributed"
    with forced("driver"):
        assert choose_tier(rd.range(3), 0, what="t")[0] == "driver"
        assert tier_for(None, 0, what="t") == "driver"
    assert choose_tier(_empty(), 0, what="t")[0] == "driver"


def test_unknown_tier_raises():
    with pytest.raises(ValueError, match="tier"):
        with forced("broadcast"):
            pass


def test_lazy_input_comes_back_materialized(ray_session):
    lazy = rd.range(4).map_batches(lambda b: b)
    tier, ds = choose_tier(lazy, 10, what="t")
    assert isinstance(ds, MaterializedDataset) and ds.count() == 4
    assert choose_tier(ds, 10, what="t")[1] is ds


def test_forced_value_is_reset_after_the_block(ray_session):
    with forced("driver"):
        with forced("distributed"):
            assert tier_for(0, 5, what="t") == "distributed"
        assert tier_for(9, 5, what="t") == "driver"
    assert tier_for(9, 5, what="t") == "distributed"
    with pytest.raises(RuntimeError):
        with forced("driver"):
            raise RuntimeError
    assert tier_for(9, 5, what="t") == "distributed"


def test_each_decision_logs_one_line(caplog):
    with caplog.at_level(logging.INFO, logger="docprocai_service_ray.state.tier"):
        tier_for(7, 5, what="probe")
        with forced("driver"):
            tier_for(7, 5, what="probe")
    assert [r.getMessage() for r in caplog.records] == [
        "tier probe: size=7 limit=5 -> distributed (forced=False)",
        "tier probe: size=7 limit=5 -> driver (forced=True)",
    ]
