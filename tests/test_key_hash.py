"""Exchange tagging (state/groupby.key_hash and the shared tag-and-group
path): equal keys hash equally whatever their integer width, and the
shuffle tiers built on it match pandas exactly for multi-column and
mixed-width keys at any fan-in."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from docprocai_service_ray.state.groupby import (distinct_rows, key_hash,
                                                 partition_reduce)
from docprocai_service_ray.state.joins import hash_join

KEYS = np.array([-7, -5, -1, 0, 1, 5, 2**31 - 1, -2**31])


class TestKeyHash:
    @pytest.mark.parametrize("dtype", ["int8", "int16", "int32", "uint16"])
    def test_integer_widths_hash_equal(self, dtype):
        vals = KEYS[(KEYS >= np.iinfo(dtype).min) & (KEYS <= np.iinfo(dtype).max)]
        narrow = pd.DataFrame({"k": vals.astype(dtype)})
        wide = pd.DataFrame({"k": vals.astype("int64")})
        assert np.array_equal(key_hash(narrow, ["k"]), key_hash(wide, ["k"]))


class TestShuffleJoinMixedWidths:
    def test_int32_join_int64_with_negatives(self, ray_session):
        rng = np.random.RandomState(5)
        left = pd.DataFrame({"k": rng.choice(KEYS, 400).astype("int32"),
                             "v": np.arange(400)})
        right = pd.DataFrame({"k": KEYS[::2].astype("int64"),
                              "w": np.arange(len(KEYS[::2])) * 10})
        got = hash_join(rd.from_pandas(left).repartition(4),
                        rd.from_pandas(right).repartition(3), on="k",
                        strategy="shuffle", buckets=16).to_pandas()
        want = left.merge(right, on="k")
        cols = ["k", "v", "w"]
        pd.testing.assert_frame_equal(
            got[cols].sort_values(cols).reset_index(drop=True),
            want[cols].sort_values(cols).reset_index(drop=True),
            check_dtype=False)


class TestShuffleJoinKeyTypeGuard:
    @pytest.mark.parametrize("r_keys", [
        pd.Series(["1", "2"]),                                   # string
        pd.Series([1.0, 2.0]),                                   # float64
    ], ids=["string", "float64"])
    def test_int64_vs_non_integer_raises(self, ray_session, r_keys):
        left = rd.from_pandas(pd.DataFrame({"k": np.arange(4, dtype="int64"),
                                            "v": np.arange(4)}))
        right = rd.from_pandas(pd.DataFrame({"k": r_keys, "w": [1, 2]}))
        with pytest.raises(TypeError, match="join key 'k'"):
            hash_join(left, right, on="k", strategy="shuffle", buckets=4)

    def test_datetime_units_raise(self, ray_session):
        ts = pd.to_datetime(["2025-01-01", "2025-01-02"])
        left = rd.from_arrow(pa.table({"t": pa.array(ts, pa.timestamp("us"))}))
        right = rd.from_arrow(pa.table({"t": pa.array(ts, pa.timestamp("ns")),
                                        "w": [1, 2]}))
        with pytest.raises(TypeError, match="join key 't'"):
            hash_join(left, right, on="t", strategy="shuffle", buckets=4)

    def test_object_strings_join_arrow_strings(self, ray_session):
        left = rd.from_arrow(pa.table({"k": ["a", "b", "c"], "v": [1, 2, 3]}))
        right = rd.from_pandas(pd.DataFrame({"k": ["b", "c", "d"],
                                             "w": [20, 30, 40]}))
        got = hash_join(left, right, on="k", strategy="shuffle",
                        buckets=4).to_pandas().sort_values("k")
        assert got[["k", "v", "w"]].values.tolist() == [["b", 2, 20], ["c", 3, 30]]


class TestMultiColumnPartitionReduce:
    @pytest.mark.parametrize("np_", [1, 3, 16])
    def test_int_string_key_matches_pandas(self, ray_session, np_):
        rng = np.random.RandomState(9)
        df = pd.DataFrame({"a": rng.randint(-4, 4, 600),
                           "b": [f"s{i}" for i in rng.randint(0, 6, 600)],
                           "v": rng.randint(0, 1000, 600)})
        ds = rd.from_pandas(df).repartition(5)

        def reduce(part: pd.DataFrame) -> pd.DataFrame:
            return part.groupby(["a", "b"], as_index=False).agg(s=("v", "sum"))

        got = (partition_reduce(ds, ["a", "b"], reduce, num_partitions=np_)
               .to_pandas().sort_values(["a", "b"]).reset_index(drop=True))
        pd.testing.assert_frame_equal(got, reduce(df))

        dr = (distinct_rows(ds.select_columns(["a", "b"]), ["a", "b"],
                            num_partitions=np_)
              .to_pandas().sort_values(["a", "b"]).reset_index(drop=True))
        want = (df[["a", "b"]].drop_duplicates()
                .sort_values(["a", "b"]).reset_index(drop=True))
        pd.testing.assert_frame_equal(dr, want)
