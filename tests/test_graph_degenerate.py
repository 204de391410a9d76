"""Degenerate graph parameters behave the same on both tiers, and the
distributed k-core fixpoint fails loudly instead of returning scores that
have not converged."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from docprocai_service_ray.stages import graph
from docprocai_service_ray.stages.graph import core_numbers, hits
from docprocai_service_ray.state.tier import forced


def _rows(ds) -> pd.DataFrame:
    return ds.to_pandas().sort_values("entity").reset_index(drop=True)


def test_hits_zero_iters_tiers_agree(ray_session):
    rng = np.random.RandomState(4)
    df = pd.DataFrame({"subject_id": [f"e{i}" for i in rng.randint(0, 25, 120)],
                       "object_id": [f"e{i}" for i in rng.randint(0, 25, 120)]})
    ds = rd.from_pandas(df[df.subject_id != df.object_id]).repartition(4)
    drv = _rows(hits(ds, iters=0))
    with forced("distributed"):
        dist = _rows(hits(ds, iters=0))
    pd.testing.assert_frame_equal(dist[drv.columns], drv)
    assert (drv["authority"] == 0.0).all()


def test_core_numbers_unconverged_raises(ray_session):
    # a star: degrees start at (5, 1, ...) and need one round to reach
    # coreness 1, plus a second round to observe no change
    star = rd.from_pandas(pd.DataFrame({
        "subject_id": ["hub"] * 5, "object_id": [f"l{i}" for i in range(5)]}))
    with forced("distributed"):
        with pytest.raises(RuntimeError, match="max_iters=1"):
            core_numbers(star, max_iters=1)
        got = _rows(core_numbers(star, max_iters=2))
    assert got["coreness"].tolist() == [1] * 6


@pytest.mark.parametrize("stage", ["pagerank", "connected_components",
                                   "core_numbers", "label_propagation", "hits"])
def test_empty_input_typed_and_equal_on_both_tiers(ray_session, stage):
    empty = pa.table({c: pa.array([], pa.string())
                      for c in ("subject_id", "pred", "object_id")})
    schemas = []
    for tier in ("driver", "distributed"):
        with forced(tier):
            out = getattr(graph, stage)(rd.from_arrow(empty)).materialize()
        assert out.count() == 0
        assert out.schema() is not None and out.schema().names, tier
        schemas.append(out.schema())
    assert schemas[0] == schemas[1]
