"""Broadcast join tiers (state/joins.py): the map-side pyarrow join and
map-side merge_asof must produce EXACTLY the shuffle tier's rows."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from docprocai_service_ray.state.groupby import pin_partitions
from docprocai_service_ray.state.joins import asof_join, hash_join


def _sorted_rows(ds, cols):
    df = ds.to_pandas()[cols]
    rows = [
        tuple("NaN" if isinstance(v, float) and np.isnan(v) else v for v in t)
        for t in df.itertuples(index=False)
    ]
    return sorted(map(repr, rows))


@pytest.fixture()
def sides(ray_session):
    rng = np.random.RandomState(7)
    left = pd.DataFrame(
        {
            "k": rng.randint(0, 50, 500),
            "v": rng.randn(500).round(3),
            "shared": rng.randint(0, 9, 500),  # collides with right
        }
    )
    right = pd.DataFrame(
        {
            "k": np.arange(0, 60),  # some keys unmatched on either side
            "w": np.arange(0, 60) * 10,
            "shared": np.arange(0, 60) % 3,
        }
    )
    return rd.from_pandas(left), rd.from_pandas(right)


class TestBroadcastHashJoin:
    @pytest.mark.parametrize("how", ["inner", "left"])
    def test_matches_shuffle_tier(self, sides, how):
        left, right = sides
        cols = ["k", "v", "shared", "w", "shared_r"]
        b = hash_join(left, right, on="k", how=how, strategy="broadcast")
        s = hash_join(left, right, on="k", how=how, strategy="shuffle")
        assert _sorted_rows(b, cols) == _sorted_rows(s, cols)

    def test_auto_picks_broadcast_for_small_right(self, sides):
        left, right = sides
        out = hash_join(left, right, on="k")  # auto
        # broadcast tier emits no __bucket/__side plumbing columns
        assert set(out.schema().names) == {"k", "v", "shared", "w", "shared_r"}
        assert out.count() == 500

    def test_key_dtype_harmonized(self, ray_session):
        left = rd.from_pandas(pd.DataFrame({"k": np.arange(5, dtype=np.int64), "v": range(5)}))
        right = rd.from_arrow(
            __import__("pyarrow").Table.from_pydict(
                {"k": __import__("pyarrow").array([1, 2, 3], type=__import__("pyarrow").int32()),
                 "w": __import__("pyarrow").array([10, 20, 30])}
            )
        )
        out = hash_join(left, right, on="k", strategy="broadcast").to_pandas()
        assert sorted(out["k"]) == [1, 2, 3]

    def test_pandas_block_small_side(self, ray_session):
        # Regression: a small side whose blocks materialized as pandas
        # (e.g. downstream of map_groups) used to crash _collect_arrow with
        # "Cannot convert DataFrame to pyarrow.lib.Table".
        left = rd.from_pandas(
            pd.DataFrame({"k": np.arange(20) % 5, "v": np.arange(20)})
        )
        right = rd.from_pandas(
            pd.DataFrame({"k": np.arange(5), "w": np.arange(5) * 7})
        ).map_batches(lambda df: df, batch_format="pandas")  # force pandas blocks
        out = hash_join(left, right, on="k", strategy="broadcast").to_pandas()
        assert len(out) == 20
        assert (out["w"] == out["k"] * 7).all()


class TestBroadcastAsof:
    @pytest.fixture()
    def asof_sides(self, ray_session):
        rng = np.random.RandomState(11)
        left = pd.DataFrame(
            {
                "uid": rng.randint(0, 20, 300),
                "ts": pd.to_datetime("2024-01-01")
                + pd.to_timedelta(rng.randint(0, 10_000, 300), unit="m"),
                "etype": rng.choice(["a", "b"], 300),
            }
        )
        right = pd.DataFrame(
            {
                "uid": rng.randint(0, 25, 120),
                "odate": pd.to_datetime("2024-01-01")
                + pd.to_timedelta(rng.randint(0, 10_000, 120), unit="m"),
                "price": rng.randint(1, 100, 120).astype("float64"),
            }
        )
        return rd.from_pandas(left), rd.from_pandas(right)

    def test_matches_shuffle_tier(self, asof_sides):
        left, right = asof_sides
        kw = dict(by="uid", on="ts", right_on="odate")
        b = asof_join(left, right, strategy="broadcast", **kw)
        with pin_partitions(8):
            s = asof_join(left, right, strategy="shuffle", **kw)
        cols = ["uid", "ts", "etype", "price"]
        assert _sorted_rows(b, cols) == _sorted_rows(s, cols)

    def test_right_reduce_in_both_tiers(self, asof_sides):
        left, right = asof_sides

        def dedup(df: pd.DataFrame) -> pd.DataFrame:
            return df.groupby(["uid", "odate"], as_index=False).agg(
                price=("price", "max")
            )

        kw = dict(by="uid", on="ts", right_on="odate", right_reduce=dedup)
        b = asof_join(left, right, strategy="broadcast", **kw)
        with pin_partitions(8):
            s = asof_join(left, right, strategy="shuffle", **kw)
        cols = ["uid", "ts", "etype", "price"]
        rows_b = _sorted_rows(b, cols)
        assert rows_b == _sorted_rows(s, cols)
        # reduce really deduplicates: ties on (uid, odate) resolve to max
        assert len(rows_b) == 300


class TestAsofPartitionContract:
    def test_hot_key_raises_loudly(self, ray_session):
        """A synthetic hot key overflowing max_partition_rows must fail
        with the offending key named, not OOM inside pandas (VERDICT r2 #9)."""
        import numpy as np
        import pandas as pd
        import pytest
        import ray.data as rd

        n = 5000
        left = pd.DataFrame(
            {
                "u": ["hot"] * n,
                "ts": pd.to_datetime("2024-01-01")
                + pd.to_timedelta(np.arange(n), unit="s"),
            }
        )
        right = pd.DataFrame(
            {
                "u": ["hot"] * 10,
                "ots": pd.to_datetime("2024-01-01")
                + pd.to_timedelta(np.arange(10), unit="m"),
                "v": np.arange(10.0),
            }
        )
        with pin_partitions(4):
            ds = asof_join(
                rd.from_pandas(left), rd.from_pandas(right),
                by="u", on="ts", right_on="ots",
                strategy="shuffle", max_partition_rows=1000,
            )
        with pytest.raises(Exception, match="hot"):
            ds.materialize()

    def test_bound_not_hit_passes(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        left = pd.DataFrame(
            {
                "u": [f"u{i % 7}" for i in range(200)],
                "ts": pd.to_datetime("2024-01-01")
                + pd.to_timedelta(np.arange(200), unit="s"),
            }
        )
        right = pd.DataFrame(
            {
                "u": [f"u{i % 7}" for i in range(20)],
                "ots": pd.to_datetime("2024-01-01")
                + pd.to_timedelta(np.arange(20), unit="m"),
                "v": np.arange(20.0),
            }
        )
        with pin_partitions(4):
            out = asof_join(
                rd.from_pandas(left), rd.from_pandas(right),
                by="u", on="ts", right_on="ots",
                strategy="shuffle", max_partition_rows=100_000,
            )
        assert out.count() == 200


class TestFullOuterJoin:
    def test_outer_matches_pandas(self):
        import pandas as pd
        import ray.data as rd

        from docprocai_service_ray.state.joins import hash_join

        l = pd.DataFrame({"k": [1, 2, 3, 3], "a": ["w", "x", "y", "z"]})
        r = pd.DataFrame({"k": [2, 3, 4], "b": ["p", "q", "r"]})
        got = hash_join(
            rd.from_pandas(l).repartition(3), rd.from_pandas(r).repartition(2),
            on="k", how="outer",
        ).to_pandas()
        want = l.merge(r, on="k", how="outer")
        key = ["k", "a", "b"]
        pd.testing.assert_frame_equal(
            got.sort_values(key, na_position="last").reset_index(drop=True)[key],
            want.sort_values(key, na_position="last").reset_index(drop=True)[key],
        )

    def test_outer_rejects_broadcast_and_salt(self):
        import pandas as pd
        import pytest
        import ray.data as rd

        from docprocai_service_ray.state.joins import hash_join

        l = rd.from_pandas(pd.DataFrame({"k": [1]}))
        r = rd.from_pandas(pd.DataFrame({"k": [2]}))
        with pytest.raises(ValueError):
            hash_join(l, r, on="k", how="outer", strategy="broadcast")
        with pytest.raises(ValueError):
            hash_join(l, r, on="k", how="outer", salt=4)
