"""Ray Data never hands a pandas or pyarrow ``map_batches`` UDF, or a
``map_groups`` fn, a zero-row batch: an empty input block is passed
through without calling the UDF (ray/data/_internal/planner/
plan_udf_map_op.py, ``_generate_transform_fn_for_map_batches``). The
package's map UDFs rely on this and carry no ``if not len(df)`` branch for
the column-less empty blocks that filters and exchanges emit. numpy dict
batches are not covered by the contract and are not tested here."""

from __future__ import annotations

import pandas as pd
import pytest

from docprocai_service_ray.state.groupby import partition_reduce, pin_partitions


def _nonempty(fmt: str):
    """A pass-through UDF that fails on a zero-row batch (built inside a
    function so Ray ships it by value)."""
    def rows(batch):
        n = len(batch) if fmt == "pandas" else batch.num_rows
        assert n > 0, f"{fmt} UDF called on a zero-row batch"
        return batch

    return rows


@pytest.fixture()
def three_rows(with_empty_blocks):
    """Three rows behind the empty blocks of ``with_empty_blocks``."""
    return with_empty_blocks(pd.DataFrame({"k": [1, 2, 3], "v": [4, 5, 6]}))


@pytest.mark.parametrize("fmt", ["pandas", "pyarrow"])
def test_map_batches_skips_empty_blocks(fmt, three_rows):
    rows = three_rows.map_batches(_nonempty(fmt), batch_format=fmt)
    assert rows.count() == 3


def test_map_groups_skips_empty_blocks(three_rows):
    got = three_rows.groupby("k").map_groups(
        _nonempty("pandas"), batch_format="pandas")
    assert sorted(got.to_pandas()["k"]) == [1, 2, 3]


def test_after_partition_reduce_with_empty_partitions(three_rows):
    # 3 keys over 16 partitions: at least 13 partitions hold no row, yet
    # neither the reduce nor the map after it sees an empty frame
    with pin_partitions(16):
        reduced = partition_reduce(three_rows, ["k"], _nonempty("pandas"))
    for fmt in ["pandas", "pyarrow"]:
        assert reduced.map_batches(_nonempty(fmt), batch_format=fmt).count() == 3
