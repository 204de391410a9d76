"""Query surface over the driver testdata tables (TPC-H-shaped orders,
lineitem, customer, ... plus events, documents and embeddings).

Every function here takes ``sf_dir`` and returns a Dataset / DataFrame /
Table. Each is declared in the registry (pipelines/registry.py) with its
DuckDB oracle, whose output column names are IDENTICAL (the driver hashes
values after sorting columns by name). Float aggregate outputs are ROUNDed
the same way on both sides so summation-order ulps can't flip the value
hash.

Operator coverage map (SURVEY.md §2): pricing_summary A-class partial+final
aggregation; topk_orders W1; mktsegment_revenue J-broadcast;
large_part_lineitems J4 semi-join; idle_customers J5 anti-join;
customer_min_order A1; hourly_events §2.8 window; union_sources W4;
orders_lineitem_join partitioned hash join; asof_events_orders custom as-of
operator; exact_dedup/token/fingerprint/knn = training-data ops.
"""

from __future__ import annotations

import functools
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from ..config import KGConfig
from ..stages.dedup import exact_dedup
from ..stages.pivot import pivot_sql
from ..stages.quantiles import histogram_sql, quantile_disc_sql, quantile_sql
from ..stages.similarity import brute_force_topk
from ..stages.textstats import (
    boilerplate_sql,
    corr_sql,
    fingerprint_md5,
    profile_sql,
    token_counts,
)
from ..stages.topfreq import topn_sql
from ..state.groupby import group_agg
from ..state.joins import (
    anti_join_filter,
    asof_join,
    collect_broadcast_df,
    hash_join,
    semi_join_filter,
)
from .curate import curation_sql
from .registry import register

# the configuration every registered query runs with (seeds, dimensions)
_CFG = KGConfig()


def _pq(sf_dir: str, table: str, columns: list[str] | None = None):
    return rd.read_parquet(os.path.join(sf_dir, f"{table}.parquet"), columns=columns)


def _round(**cols: int):
    """``finish`` for :func:`group_agg`: round the named columns."""
    return lambda df: df.round(cols)


# ---------------------------------------------------------------- aggregates

@register("pricing_summary", sql="""
        SELECT l_returnflag, l_linestatus,
               ROUND(SUM(l_quantity), 2) AS sum_qty,
               ROUND(SUM(l_extendedprice), 2) AS sum_base_price,
               ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price,
               ROUND(SUM(l_discount) / COUNT(*), 4) AS avg_disc,
               COUNT(*) AS count_order
        FROM lineitem GROUP BY 1, 2
    """)
def pricing_summary(sf_dir: str):
    """TPC-H Q1-shaped grouped aggregate with per-batch partial combine
    before the (tiny) global groupby — the pre-aggregation pattern that
    keeps the shuffle at O(groups × batches), not O(rows)."""
    ds = _pq(sf_dir, "lineitem",
             ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"])

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        g = g.round({"sum_qty": 2, "sum_base_price": 2, "sum_disc_price": 2})
        avg_disc = (g.pop("sum_disc") / g["count_order"]).round(4)
        return g.assign(avg_disc=avg_disc, count_order=g.pop("count_order"))

    return group_agg(
        ds.map_batches(lambda df: df.assign(
            disc_price=df["l_extendedprice"] * (1 - df["l_discount"])),
            batch_format="pandas"),
        ["l_returnflag", "l_linestatus"],
        {"sum_qty": ("l_quantity", "sum"),
         "sum_base_price": ("l_extendedprice", "sum"),
         "sum_disc_price": ("disc_price", "sum"),
         "sum_disc": ("l_discount", "sum"),
         "count_order": ("l_quantity", "size")},
        finish=finish, num_partitions=4,
    )


@register("topk_orders", sql="""
        SELECT o_orderkey, ROUND(o_totalprice, 2) AS total
        FROM orders ORDER BY o_totalprice DESC, o_orderkey LIMIT 10
    """)
def topk_orders(sf_dir: str):
    ds = _pq(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    top = ds.sort(["o_totalprice", "o_orderkey"], descending=[True, False]).limit(10)
    return top.map_batches(
        lambda df: pd.DataFrame({
            "o_orderkey": df["o_orderkey"],
            "total": df["o_totalprice"].round(2),
        }),
        batch_format="pandas",
    )


@register("customer_min_order", sql="""
        SELECT o_custkey, ROUND(MIN(o_totalprice), 2) AS min_totalprice
        FROM orders GROUP BY 1
    """)
def customer_min_order(sf_dir: str):
    ds = _pq(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    return group_agg(ds, ["o_custkey"], {"min_totalprice": ("o_totalprice", "min")},
                     finish=_round(min_totalprice=2))


@register("hourly_events", sql="""
        SELECT strftime(date_trunc('hour', ts), '%Y-%m-%d %H:00:00') AS hour,
               event_type, COUNT(*) AS n, ROUND(SUM(value), 2) AS sum_value
        FROM events GROUP BY 1, 2
    """)
def hourly_events(sf_dir: str):
    """Tumbling-window aggregate (streaming-shaped; §2.8) — hour buckets as
    strings so both engines agree on the output dtype exactly."""
    ds = _pq(sf_dir, "events", ["ts", "event_type", "value"])

    hourly = ds.map_batches(lambda df: df.assign(
        hour=pd.to_datetime(df["ts"]).dt.strftime("%Y-%m-%d %H:00:00")),
        batch_format="pandas")
    return group_agg(hourly, ["hour", "event_type"],
                     {"n": ("value", "size"), "sum_value": ("value", "sum")},
                     finish=_round(sum_value=2))


@register("event_user_stats", sql="""
        SELECT event_type, COUNT(*) AS n, COUNT(DISTINCT user_id) AS users
        FROM events GROUP BY 1
    """)
def event_user_stats(sf_dir: str):
    ds = _pq(sf_dir, "events", ["event_type", "user_id"])

    def per_type(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_type": [g["event_type"].iloc[0]],
            "n": [np.int64(len(g))],
            "users": [np.int64(g["user_id"].nunique())],
        })

    return ds.groupby("event_type").map_groups(per_type, batch_format="pandas")


@register("json_props_sum", sql="""
        SELECT event_type,
               CAST(SUM(CAST(regexp_extract(props, '"k":\\s*(\\d+)', 1) AS BIGINT)) AS BIGINT) AS sum_k
        FROM events GROUP BY 1
    """)
def json_props_sum(sf_dir: str):
    """Scalar JSON-field extraction (§2.7 json ops) — vectorized regex."""
    ds = _pq(sf_dir, "events", ["event_type", "props"])

    with_k = ds.map_batches(lambda df: df.assign(
        k=df["props"].str.extract(r'"k":\s*(\d+)')[0].astype("int64")),
        batch_format="pandas")
    return group_agg(with_k, ["event_type"], {"sum_k": ("k", "sum")},
                     num_partitions=4)


# ------------------------------------------------------------------- joins

@register("mktsegment_revenue", sql="""
        SELECT c_mktsegment, COUNT(*) AS order_count,
               ROUND(SUM(o_totalprice), 2) AS revenue
        FROM orders JOIN customer ON o_custkey = c_custkey GROUP BY 1
    """)
def mktsegment_revenue(sf_dir: str):
    """orders ⋈ customer with the dimension side broadcast (ray.put once)."""
    cust = collect_broadcast_df(
        _pq(sf_dir, "customer", ["c_custkey", "c_mktsegment"]),
        ["c_custkey", "c_mktsegment"],
    )
    seg_ref = ray.put(dict(zip(cust["c_custkey"], cust["c_mktsegment"])))
    ds = _pq(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def lookup(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(c_mktsegment=df["o_custkey"].map(ray.get(seg_ref)))

    return group_agg(
        ds.map_batches(lookup, batch_format="pandas"), ["c_mktsegment"],
        {"order_count": ("o_totalprice", "size"), "revenue": ("o_totalprice", "sum")},
        finish=_round(revenue=2), num_partitions=4,
    )


@register("large_part_lineitems", sql="""
        SELECT l_returnflag, COUNT(*) AS n, ROUND(SUM(l_extendedprice), 2) AS total
        FROM lineitem
        WHERE l_partkey IN (SELECT p_partkey FROM part WHERE p_size >= 40)
        GROUP BY 1
    """)
def large_part_lineitems(sf_dir: str):
    """Semi-join via broadcast key set (J4)."""
    part = collect_broadcast_df(
        _pq(sf_dir, "part", ["p_partkey", "p_size"]), ["p_partkey", "p_size"]
    )
    keys_ref = ray.put(set(part.loc[part["p_size"] >= 40, "p_partkey"]))
    ds = _pq(sf_dir, "lineitem", ["l_partkey", "l_returnflag", "l_extendedprice"])
    ds = semi_join_filter(ds, "l_partkey", keys_ref)
    return group_agg(
        ds, ["l_returnflag"],
        {"n": ("l_extendedprice", "size"), "total": ("l_extendedprice", "sum")},
        finish=_round(total=2), num_partitions=4,
    )


@register("idle_customers", sql="""
        SELECT c_mktsegment, COUNT(*) AS idle_customers
        FROM customer
        WHERE c_custkey NOT IN (
            SELECT DISTINCT o_custkey FROM orders WHERE o_orderpriority = '1-URGENT')
        GROUP BY 1
    """)
def idle_customers(sf_dir: str):
    """Anti-join via broadcast key set (J5): customers with no URGENT order."""
    import pyarrow.compute as pc

    okeys = (
        _pq(sf_dir, "orders", ["o_custkey", "o_orderpriority"])
        .map_batches(
            lambda t: t.filter(pc.equal(t["o_orderpriority"], "1-URGENT")),
            batch_format="pyarrow",
        )
        .unique("o_custkey")
    )
    keys_ref = ray.put(set(okeys))
    ds = _pq(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    ds = anti_join_filter(ds, "c_custkey", keys_ref)
    return group_agg(ds, ["c_mktsegment"],
                     {"idle_customers": ("c_custkey", "size")}, num_partitions=4)


def _lineitem_revenue(sf_dir: str):
    """lineitem as (o_orderkey, rev = extendedprice * (1 - discount))."""
    import pyarrow.compute as pc

    def project(b: pa.Table) -> pa.Table:
        rev = pc.multiply(
            b["l_extendedprice"], pc.subtract(pa.scalar(1.0), b["l_discount"])
        )
        return pa.Table.from_arrays([b["l_orderkey"], rev], names=["o_orderkey", "rev"])

    li = _pq(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])
    return li.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)


def _revenue_by_priority(joined):
    return group_agg(joined, ["o_orderpriority"],
                     {"n_lines": ("rev", "size"), "revenue": ("rev", "sum")},
                     finish=_round(revenue=2), num_partitions=4)


_LINEITEM_REVENUE_SQL = """
        SELECT o_orderpriority, COUNT(*) AS n_lines,
               ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS revenue
        FROM lineitem JOIN orders ON l_orderkey = o_orderkey GROUP BY 1
    """


@register("orders_lineitem_join", sql=_LINEITEM_REVENUE_SQL)
def orders_lineitem_join(sf_dir: str, strategy: str = "auto"):
    """Fact-fact join (state/joins.hash_join): auto tier broadcasts the
    dimension-sized right side; ``strategy="shuffle"`` forces the
    both-sides-large partitioned path (kept oracle-checked via the
    ``orders_lineitem_join_shuffle`` query)."""
    orders = _pq(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    # buckets auto-sized from input bytes (shuffle tier only)
    return _revenue_by_priority(
        hash_join(_lineitem_revenue(sf_dir), orders, on="o_orderkey",
                  strategy=strategy))


# the same answer with the partitioned shuffle tier forced, so both join
# strategies stay oracle-checked
register("orders_lineitem_join_shuffle",
         functools.partial(orders_lineitem_join, strategy="shuffle"), sql=_LINEITEM_REVENUE_SQL)


@register("urgent_lineitem_revenue_bloom", sql="""
        SELECT o_orderpriority, COUNT(*) AS n_lines,
               ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS revenue
        FROM lineitem JOIN orders ON l_orderkey = o_orderkey
        WHERE o_orderpriority = '1-URGENT' GROUP BY 1
    """)
def urgent_lineitem_revenue(sf_dir: str, bloom: bool = True):
    """Selective fact join on the FORCED shuffle tier with the Bloom
    prefilter (state/joins.hash_join bloom_prefilter): the right side is
    orders filtered to one priority (~20%), so ~80% of lineitem rows are
    dropped before the exchange — the runtime-row-filter pattern
    (exactness preserved: Bloom false positives still meet the merge)."""
    import pyarrow.dataset as pads

    # row filter pushed to the parquet read (row-group pruning at source)
    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderpriority"],
        filter=pads.field("o_orderpriority") == "1-URGENT",
    )
    return _revenue_by_priority(hash_join(
        _lineitem_revenue(sf_dir), orders, on="o_orderkey", strategy="shuffle",
        bloom_prefilter=bloom))


@register("user_event_type_sets", sql="""
        SELECT user_id,
               string_agg(DISTINCT event_type, ',' ORDER BY event_type) AS event_types,
               COUNT(DISTINCT event_type) AS n_types
        FROM events GROUP BY user_id
    """)
def user_event_type_sets(sf_dir: str):
    """Grouped collect-set with deterministic order (the set-union /
    provenance-collect shape, SURVEY A2, as a standalone string
    aggregation): per user, the sorted distinct event types joined with
    ','. Per-batch pair dedup defuses repetition before the exchange."""
    from ..state.groupby import partition_reduce

    ds = _pq(sf_dir, "events", ["user_id", "event_type"])

    def local_dedup(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(["user_id", "event_type"])

    def reduce(part: pd.DataFrame) -> pd.DataFrame:
        part = part.drop_duplicates(["user_id", "event_type"])
        g = part.sort_values("event_type").groupby("user_id", as_index=False).agg(
            event_types=("event_type", ",".join),
            n_types=("event_type", "size"),
        )
        return g.astype({"n_types": "int64"})

    return partition_reduce(
        ds.map_batches(local_dedup, batch_format="pandas"), ["user_id"], reduce
    )


@register("distinct_users_by_type",
          sql=("SELECT event_type, COUNT(DISTINCT user_id) AS n_distinct "
              "FROM events GROUP BY event_type"))
def distinct_users_by_type(sf_dir: str):
    """Exact grouped distinct counts (stages/distinct.grouped_distinct)."""
    from ..stages.distinct import grouped_distinct

    ds = _pq(sf_dir, "events", ["event_type", "user_id"])
    return grouped_distinct(ds, "event_type", "user_id")


@register("top_users_by_type",
          sql=topn_sql("events", "event_type", "user_id", 3))
def top_users_by_type(sf_dir: str):
    """Exact grouped heavy hitters (stages/topfreq.grouped_topn_values)."""
    from ..stages.topfreq import grouped_topn_values

    ds = _pq(sf_dir, "events", ["event_type", "user_id"])
    return grouped_topn_values(ds, "event_type", "user_id", 3)


@register("curated_corpus_stats", sql=curation_sql)
def curated_corpus_stats_query(sf_dir: str):
    """End-to-end curation recipe stats (pipelines/curate.py)."""
    from .curate import curated_corpus_stats

    return curated_corpus_stats(sf_dir)


_ASOF_SQL = """
        WITH o AS (
            SELECT o_custkey, o_orderdate, MAX(o_totalprice) AS best_price
            FROM orders GROUP BY 1, 2
        )
        SELECT e.event_type, COUNT(*) AS n, ROUND(SUM(o.best_price), 2) AS matched_total
        FROM events e ASOF JOIN o
          ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate
        GROUP BY 1
    """


@register("asof_events_orders", sql=_ASOF_SQL)
def asof_events_orders(sf_dir: str, strategy: str = "auto"):
    """As-of join: each event matched to the user's latest order at or
    before the event time (custom operator; right side pre-aggregated to
    one row per (key, time) so the match is deterministic)."""
    events = _pq(sf_dir, "events", ["user_id", "ts", "event_type"])
    orders = _pq(sf_dir, "orders", ["o_custkey", "o_orderdate", "o_totalprice"])

    def pre(df: pd.DataFrame) -> pd.DataFrame:
        """Per-batch PARTIAL dedup (no shuffle) — the final merge runs
        inside asof_join via right_reduce (once at broadcast build, or per
        partition in the shuffle tier), so the right side never needs its
        own all-to-all."""
        g = df.groupby(["o_custkey", "o_orderdate"], as_index=False).agg(
            best_price=("o_totalprice", "max")
        )
        return g.rename(columns={"o_custkey": "user_id"})

    def dedup_final(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["user_id", "o_orderdate"], as_index=False).agg(
            best_price=("best_price", "max")
        )

    joined = asof_join(
        events,
        orders.map_batches(pre, batch_format="pandas"),
        by="user_id", on="ts", right_on="o_orderdate",
        right_reduce=dedup_final, strategy=strategy,
    )

    # count, not size: events with no earlier order carry a null price
    return group_agg(
        joined, ["event_type"],
        {"n": ("best_price", "count"), "matched_total": ("best_price", "sum")},
        finish=lambda g: g[g["n"] > 0].round({"matched_total": 2}),
        num_partitions=4,
    )


# the same answer with the partitioned shuffle tier forced, so both join
# strategies stay oracle-checked
register("asof_events_orders_shuffle",
         functools.partial(asof_events_orders, strategy="shuffle"), sql=_ASOF_SQL)


@register("session_stats_q", sql="""
        WITH d AS (
            SELECT user_id,
                   CASE WHEN LAG(ts) OVER (PARTITION BY user_id ORDER BY ts) IS NULL
                             OR ts - LAG(ts) OVER (PARTITION BY user_id ORDER BY ts)
                                > INTERVAL 30 MINUTE
                        THEN 1 ELSE 0 END AS new_s
            FROM events)
        SELECT user_id, CAST(SUM(new_s) AS BIGINT) AS n_sessions,
               COUNT(*) AS n_events
        FROM d GROUP BY 1
    """)
def session_stats_q(sf_dir: str):
    """Gap-based session windows (streaming-shaped, §2.8)."""
    from ..stages.windows import session_stats

    return session_stats(_pq(sf_dir, "events", ["user_id", "ts"]), gap_minutes=30)


@register("sliding_event_counts", sql="""
        SELECT strftime(date_trunc('hour', ts) - i * INTERVAL 60 MINUTE,
                        '%Y-%m-%d %H:%M:%S') AS window_start,
               event_type AS key, COUNT(*) AS n
        FROM events, range(2) t(i)
        GROUP BY 1, 2
    """)
def sliding_event_counts(sf_dir: str):
    """Sliding 2h/1h windows per event type — oracle-checked via the DuckDB
    window-explode (events × range(n_slots))."""
    from ..stages.windows import sliding_counts

    return sliding_counts(_pq(sf_dir, "events", ["ts", "event_type"]))


@register("top_orders_per_priority", sql="""
        SELECT o_orderpriority, o_orderkey, ROUND(o_totalprice, 2) AS o_totalprice, rn
        FROM (
            SELECT o_orderpriority, o_orderkey, o_totalprice,
                   ROW_NUMBER() OVER (PARTITION BY o_orderpriority
                                      ORDER BY o_totalprice DESC, o_orderkey) AS rn
            FROM orders
        ) WHERE rn <= 3
    """)
def top_orders_per_priority(sf_dir: str):
    """Per-group top-N whole rows with rank (ROW_NUMBER window analog,
    stages/windows.grouped_topn_rows): per-batch partial top-3 bounds the
    exchange at 3 rows per (priority, batch)."""
    from ..stages.windows import grouped_topn_rows

    ds = _pq(sf_dir, "orders", ["o_orderpriority", "o_orderkey", "o_totalprice"])
    top = grouped_topn_rows(
        ds, ["o_orderpriority"], "o_totalprice", 3,
        descending=True, tiebreak=["o_orderkey"],
    )
    return top.map_batches(
        lambda df: df.assign(o_totalprice=df["o_totalprice"].round(2),
                             rn=df["rn"].astype("int64")),
        batch_format="pandas",
    )


@register("customer_running_spend", sql="""
        SELECT o_custkey, o_orderkey,
               ROUND(SUM(o_totalprice) OVER (
                   PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey
                   ROWS UNBOUNDED PRECEDING), 2) AS running_spend
        FROM orders
    """)
def customer_running_spend(sf_dir: str):
    """Running per-customer order total in order-date order (cumulative
    window-sum analog, stages/windows.running_group_agg) — row-per-order
    output, each customer co-located once."""
    from ..stages.windows import running_group_agg

    ds = _pq(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_orderdate", "o_totalprice"])
    run = running_group_agg(
        ds, ["o_custkey"], ["o_orderdate", "o_orderkey"], "o_totalprice",
        out_col="running_spend",
    )
    return run.map_batches(
        lambda df: df[["o_custkey", "o_orderkey", "running_spend"]],
        batch_format="pandas",
    )


@register("revenue_rollup", sql="""
        SELECT COALESCE(l_returnflag, 'ALL') AS l_returnflag,
               COALESCE(l_linestatus, 'ALL') AS l_linestatus,
               ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS revenue,
               COUNT(*) AS n_lines
        FROM lineitem GROUP BY ROLLUP (l_returnflag, l_linestatus)
    """)
def revenue_rollup(sf_dir: str):
    """One-pass GROUP BY ROLLUP(l_returnflag, l_linestatus) on lineitem
    revenue (stages/windows.rollup_aggregate): every level computed from
    the same per-batch partials, no second scan."""
    from ..stages.windows import rollup_aggregate

    ds = _pq(sf_dir, "lineitem",
             ["l_returnflag", "l_linestatus", "l_extendedprice", "l_discount"])
    with_rev = ds.map_batches(
        lambda df: pd.DataFrame({
            "l_returnflag": df["l_returnflag"],
            "l_linestatus": df["l_linestatus"],
            "rev": df["l_extendedprice"] * (1 - df["l_discount"]),
        }),
        batch_format="pandas",
    )
    return rollup_aggregate(
        with_rev, ["l_returnflag", "l_linestatus"], "rev",
        sum_col="revenue", count_col="n_lines",
    )


_FOLLOWUP_SQL = """
        SELECT w.o_orderpriority AS w_priority, COUNT(*) AS n,
               ROUND(SUM(p.o_totalprice), 2) AS followup_total
        FROM orders p JOIN orders w
          ON p.o_custkey = w.o_custkey
         AND p.o_orderdate >= w.o_orderdate
         AND p.o_orderdate < w.o_orderdate + INTERVAL 90 DAY
         AND p.o_orderkey <> w.o_orderkey
        GROUP BY 1
    """


@register("followup_orders", sql=_FOLLOWUP_SQL)
def followup_orders(sf_dir: str, strategy: str = "auto"):
    """Point-in-interval join (state/joins.interval_join): each order
    matched to every EARLIER order by the same customer whose 90-day
    follow-up window contains it — the many-to-many inequality-join shape
    neither hash nor as-of joins express. Aggregated per window priority."""
    from ..state.joins import interval_join

    points = _pq(sf_dir, "orders",
                 ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"])
    windows_src = _pq(sf_dir, "orders",
                      ["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"])

    def windows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "w_orderkey": df["o_orderkey"],
            "o_custkey": df["o_custkey"],
            "w_start": df["o_orderdate"],
            "w_end": df["o_orderdate"] + pd.Timedelta(days=90),
            "w_priority": df["o_orderpriority"],
        })

    j = interval_join(
        points,
        windows_src.map_batches(windows, batch_format="pandas"),
        on="o_orderdate", right_start="w_start", right_end="w_end",
        by=["o_custkey"], bucket_width=pd.Timedelta(days=90), strategy=strategy,
    )

    j = j.map_batches(lambda df: df[df["o_orderkey"] != df["w_orderkey"]],
                      batch_format="pandas")  # drop the self-pair
    return group_agg(
        j, ["w_priority"],
        {"n": ("o_totalprice", "size"), "followup_total": ("o_totalprice", "sum")},
        finish=_round(followup_total=2), num_partitions=4,
    )


# the same answer with the partitioned shuffle tier forced, so both join
# strategies stay oracle-checked
register("followup_orders_shuffle",
         functools.partial(followup_orders, strategy="shuffle"), sql=_FOLLOWUP_SQL)


@register("event_sessions", sql="""
        WITH d AS (
            SELECT event_id, user_id, ts,
                   CASE WHEN LAG(ts) OVER w IS NULL
                             OR ts - LAG(ts) OVER w > INTERVAL 30 MINUTE
                        THEN 1 ELSE 0 END AS new_s
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        )
        SELECT event_id, user_id,
               CAST(SUM(new_s) OVER (PARTITION BY user_id
                                     ORDER BY ts, event_id
                                     ROWS UNBOUNDED PRECEDING) AS BIGINT)
                   AS session_seq
        FROM d
    """)
def event_sessions(sf_dir: str):
    """Row-level sessionization (stages/windows.sessionize): every event
    tagged with its gap-based session ordinal — oracle = LAG() + running
    SUM() windows."""
    from ..stages.windows import sessionize

    ds = _pq(sf_dir, "events", ["event_id", "user_id", "ts"])
    return sessionize(ds, key_col="user_id", ts_col="ts", id_col="event_id",
                      gap_minutes=30)


@register("boilerplate_by_source",
          sql=boilerplate_sql("documents", "doc_id", "text", "source"))
def boilerplate_by_source(sf_dir: str):
    """Cross-doc duplicated-sentence (boilerplate) ratio per source
    (stages/textstats.boilerplate_stats) — sentence hashes exchange, text
    never does."""
    from ..stages.textstats import boilerplate_stats

    ds = _pq(sf_dir, "documents", ["doc_id", "source", "text"])
    return boilerplate_stats(ds, "doc_id", "text", "source")


@register("label_centroids", sql="""
        SELECT label, i AS dim, ROUND(AVG(embedding[i + 1]), 6) AS avg_v
        FROM embeddings, range(64) t(i)
        GROUP BY 1, 2
    """)
def label_centroids_q(sf_dir: str):
    """Grouped vector aggregate (stages/similarity.label_centroids):
    per-label embedding centroid, long-form output so DuckDB can check it
    with list indexing."""
    from ..stages.similarity import label_centroids

    ds = _pq(sf_dir, "embeddings", ["label", "embedding"])
    return label_centroids(ds, "label", "embedding", 64)


@register("customer_order_counts", sql="""
        SELECT c_custkey, c_mktsegment,
               CAST(COUNT(o_custkey) AS BIGINT) AS n_orders,
               ROUND(COALESCE(SUM(o_totalprice), 0), 2) AS total_spend
        FROM customer LEFT JOIN orders ON c_custkey = o_custkey
        GROUP BY 1, 2
    """)
def customer_order_counts(sf_dir: str):
    """LEFT OUTER hash join: every customer row survives, idle customers
    carry zero counts (null-fill after the join) — J6 lookup-with-default
    as a SQL-checked query."""
    cust = _pq(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    orders = _pq(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    counts = group_agg(
        orders, ["o_custkey"],
        {"n": ("o_totalprice", "size"), "s": ("o_totalprice", "sum")},
        finish=lambda df: df.rename(columns={"o_custkey": "c_custkey"}),
        num_partitions=8,
    )
    j = hash_join(cust, counts, on="c_custkey", how="left")
    return j.map_batches(
        lambda df: pd.DataFrame({
            "c_custkey": df["c_custkey"],
            "c_mktsegment": df["c_mktsegment"],
            "n_orders": df["n"].fillna(0).astype("int64"),
            "total_spend": df["s"].fillna(0.0).round(2),
        }),
        batch_format="pandas",
    )


_ORDER_STATUSES = ["F", "O", "P"]


@register("orders_status_pivot",
          sql=pivot_sql("orders", ["o_orderpriority"], "o_orderstatus",
                        _ORDER_STATUSES, "o_totalprice", agg="sum",
                        col_prefix="rev_"))
def orders_status_pivot(sf_dir: str):
    """Long→wide pivot (stages/pivot.pivot_table): revenue per
    (priority, status) as one wide row per priority — one wide partial row
    per (priority, batch) crosses the exchange."""
    from ..stages.pivot import pivot_table

    ds = _pq(sf_dir, "orders", ["o_orderpriority", "o_orderstatus", "o_totalprice"])
    return pivot_table(
        ds, ["o_orderpriority"], "o_orderstatus", "o_totalprice",
        agg="sum", categories=_ORDER_STATUSES, col_prefix="rev_",
    )


@register("value_quantiles_disc",
          sql=quantile_disc_sql("events", "event_type", "value",
                                [0.25, 0.5, 0.9]))
def value_quantiles_disc(sf_dir: str):
    """PERCENTILE_DISC analog: smallest actual value covering each rank
    (stages/quantiles.grouped_quantiles_disc; bit-matches DuckDB
    quantile_disc)."""
    from ..stages.quantiles import grouped_quantiles_disc

    ds = _pq(sf_dir, "events", ["event_type", "value"])
    return grouped_quantiles_disc(ds, "event_type", "value", [0.25, 0.5, 0.9])


_PROFILE_COLS = ["o_orderkey", "o_orderstatus", "o_orderpriority", "o_orderdate"]


@register("value_histogram",
          sql=histogram_sql("events", "value", 0.0, 500.0, 20,
                            by="event_type"))
def value_histogram(sf_dir: str):
    """Per-event-type equi-width value histogram (stages/quantiles.
    fixed_histogram): integer bincount partials, exactly mergeable."""
    from ..stages.quantiles import fixed_histogram

    ds = _pq(sf_dir, "events", ["event_type", "value"])
    return fixed_histogram(ds, "value", 0.0, 500.0, 20, by="event_type")


@register("orders_profile",
          sql=profile_sql("orders", _PROFILE_COLS, ts_cols={"o_orderdate"}))
def orders_profile(sf_dir: str):
    """Ingest-time data-quality profile (stages/textstats.profile_table):
    per-column rows / nulls / distincts / min / max in one pass."""
    from ..stages.textstats import profile_table

    ds = _pq(sf_dir, "orders", _PROFILE_COLS)
    return profile_table(ds, _PROFILE_COLS)


@register("event_customer_coverage", sql="""
        SELECT CASE WHEN e.event_id IS NOT NULL AND c.c_mktsegment IS NOT NULL
                    THEN 'both'
                    WHEN e.event_id IS NOT NULL THEN 'event_only'
                    ELSE 'customer_only' END AS side,
               COUNT(*) AS n
        FROM events e FULL OUTER JOIN customer c ON e.user_id = c.c_custkey
        GROUP BY 1
    """)
def event_customer_coverage(sf_dir: str):
    """FULL OUTER hash join (shuffle tier — a map-side full outer would
    re-emit unmatched right rows per batch): which event users have a
    customer record and which customers never produced an event."""
    events = _pq(sf_dir, "events", ["event_id", "user_id"])
    cust = _pq(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).map_batches(
        lambda df: df.rename(columns={"c_custkey": "user_id"}),
        batch_format="pandas",
    )
    j = hash_join(events, cust, on="user_id", how="outer")

    def classify(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"side": np.where(
            df["event_id"].notna() & df["c_mktsegment"].notna(), "both",
            np.where(df["event_id"].notna(), "event_only", "customer_only"),
        )})

    return group_agg(j.map_batches(classify, batch_format="pandas"), ["side"],
                     {"n": ("side", "size")}, num_partitions=2)


@register("lineitem_price_corr",
          sql=corr_sql("lineitem", "l_returnflag", "l_quantity",
                       "l_extendedprice"))
def lineitem_price_corr(sf_dir: str):
    """Per-returnflag Pearson corr + OLS slope of quantity vs extended
    price, from six sufficient statistics per (group, batch)
    (stages/textstats.grouped_corr) — checked against DuckDB CORR /
    REGR_SLOPE."""
    from ..stages.textstats import grouped_corr

    ds = _pq(sf_dir, "lineitem", ["l_returnflag", "l_quantity", "l_extendedprice"])
    return grouped_corr(ds, "l_returnflag", "l_quantity", "l_extendedprice")


@register("revenue_cube", sql="""
        SELECT COALESCE(l_returnflag, 'ALL') AS l_returnflag,
               COALESCE(l_linestatus, 'ALL') AS l_linestatus,
               ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS revenue,
               COUNT(*) AS n_lines
        FROM lineitem GROUP BY CUBE (l_returnflag, l_linestatus)
    """)
def revenue_cube(sf_dir: str):
    """One-pass GROUP BY CUBE (stages/windows.cube_aggregate): all 2^k
    grouping subsets from the same per-batch finest partials."""
    from ..stages.windows import cube_aggregate

    ds = _pq(sf_dir, "lineitem",
             ["l_returnflag", "l_linestatus", "l_extendedprice", "l_discount"])
    with_rev = ds.map_batches(
        lambda df: pd.DataFrame({
            "l_returnflag": df["l_returnflag"],
            "l_linestatus": df["l_linestatus"],
            "rev": df["l_extendedprice"] * (1 - df["l_discount"]),
        }),
        batch_format="pandas",
    )
    return cube_aggregate(
        with_rev, ["l_returnflag", "l_linestatus"], "rev",
        sum_col="revenue", count_col="n_lines",
    )


@register("order_price_quartiles", sql="""
        WITH t AS (
            SELECT o_orderpriority, o_totalprice,
                   NTILE(4) OVER (PARTITION BY o_orderpriority
                                  ORDER BY o_totalprice, o_orderkey) AS tile
            FROM orders
        )
        SELECT o_orderpriority, CAST(tile AS BIGINT) AS tile, COUNT(*) AS n,
               ROUND(SUM(o_totalprice), 2) AS sum_price
        FROM t GROUP BY 1, 2
    """)
def order_price_quartiles(sf_dir: str):
    """NTILE(4) per order priority (stages/windows.grouped_ntile),
    aggregated per (priority, tile) so the SQL window oracle checks every
    tile boundary exactly."""
    from ..stages.windows import grouped_ntile

    ds = _pq(sf_dir, "orders", ["o_orderpriority", "o_orderkey", "o_totalprice"])
    tiled = grouped_ntile(ds, ["o_orderpriority"], "o_totalprice", 4,
                          tiebreak=["o_orderkey"])

    return group_agg(
        tiled, ["o_orderpriority", "tile"],
        {"n": ("o_totalprice", "size"), "sum_price": ("o_totalprice", "sum")},
        finish=_round(sum_price=2), num_partitions=4,
    )


@register("region_customer_rollup", sql="""
        SELECT r_name, COUNT(*) AS customers, ROUND(SUM(c_acctbal), 2) AS total_acctbal
        FROM customer JOIN nation ON c_nationkey = n_nationkey
                      JOIN region ON n_regionkey = r_regionkey
        GROUP BY 1
    """)
def region_customer_rollup(sf_dir: str):
    """Three-way dimension join (region ⋈ nation ⋈ customer) with both tiny
    dims broadcast — the star-schema lookup shape."""
    nation = collect_broadcast_df(
        _pq(sf_dir, "nation", ["n_nationkey", "n_regionkey"]),
        ["n_nationkey", "n_regionkey"],
    )
    region = collect_broadcast_df(
        _pq(sf_dir, "region", ["r_regionkey", "r_name"]),
        ["r_regionkey", "r_name"],
    )
    n2r = dict(zip(nation["n_nationkey"], nation["n_regionkey"]))
    r2name = dict(zip(region["r_regionkey"], region["r_name"]))
    ref = ray.put((n2r, r2name))
    ds = _pq(sf_dir, "customer", ["c_nationkey", "c_acctbal"])

    def lookup(df: pd.DataFrame) -> pd.DataFrame:
        n2r_, r2name_ = ray.get(ref)
        return df.assign(r_name=df["c_nationkey"].map(n2r_).map(r2name_))

    return group_agg(
        ds.map_batches(lookup, batch_format="pandas"), ["r_name"],
        {"customers": ("c_acctbal", "size"), "total_acctbal": ("c_acctbal", "sum")},
        finish=_round(total_acctbal=2), num_partitions=4,
    )


@register("supplier_nation_stats", sql="""
        SELECT n_name, COUNT(*) AS suppliers, ROUND(SUM(s_acctbal), 2) AS s_total
        FROM supplier JOIN nation ON s_nationkey = n_nationkey GROUP BY 1
    """)
def supplier_nation_stats(sf_dir: str):
    nation = collect_broadcast_df(
        _pq(sf_dir, "nation", ["n_nationkey", "n_name"]),
        ["n_nationkey", "n_name"],
    )
    ref = ray.put(dict(zip(nation["n_nationkey"], nation["n_name"])))
    ds = _pq(sf_dir, "supplier", ["s_nationkey", "s_acctbal"])

    def lookup(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(n_name=df["s_nationkey"].map(ray.get(ref)))

    return group_agg(
        ds.map_batches(lookup, batch_format="pandas"), ["n_name"],
        {"suppliers": ("s_acctbal", "size"), "s_total": ("s_acctbal", "sum")},
        finish=_round(s_total=2), num_partitions=4,
    )


# ---------------------------------------------------------- set ops / union

@register("union_sources", sql="""
        SELECT 'doc' AS src, lang AS key, COUNT(*) AS n FROM documents GROUP BY 2
        UNION ALL
        SELECT 'event' AS src, event_type AS key, COUNT(*) AS n FROM events GROUP BY 2
    """)
def union_sources(sf_dir: str):
    """W4 analog: heterogeneous tables unioned on a common schema with a
    source discriminator."""
    docs = _pq(sf_dir, "documents", ["lang"])
    events = _pq(sf_dir, "events", ["event_type"])
    d = docs.map_batches(
        lambda t: pa.Table.from_pydict(
            {"src": ["doc"] * t.num_rows, "key": t["lang"]}
        ),
        batch_format="pyarrow",
    )
    e = events.map_batches(
        lambda t: pa.Table.from_pydict(
            {"src": ["event"] * t.num_rows, "key": t["event_type"]}
        ),
        batch_format="pyarrow",
    )

    return group_agg(d.union(e), ["src", "key"], {"n": ("src", "size")},
                     num_partitions=4)


# ------------------------------------------------- documents training-data ops

@register("exact_dedup_docs", sql="""
        SELECT MIN(doc_id) AS doc_id, COUNT(*) AS n_copies
        FROM documents GROUP BY text
    """)
def exact_dedup_docs(sf_dir: str):
    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return exact_dedup(ds, "doc_id", "text")


# split class = textstats._PY_WS_SQL (Python-\s-equivalent, not RE2's
# ASCII-only \s) so the oracle tokenizes exactly like token_counts()
@register("token_stats_by_lang", sql=r"""
        SELECT lang,
               CAST(SUM(len(list_filter(regexp_split_to_array(text, '[\t\n\x0b\f\r\x1c-\x1f\x85\p{Z}]+'), x -> x <> ''))) AS BIGINT) AS total_tokens,
               COUNT(*) AS n_docs
        FROM documents GROUP BY 1
    """)
def token_stats_by_lang(sf_dir: str):
    ds = _pq(sf_dir, "documents", ["lang", "text"])

    toks = ds.map_batches(lambda df: df.assign(tok=token_counts(df["text"])),
                          batch_format="pandas")
    return group_agg(toks, ["lang"],
                     {"total_tokens": ("tok", "sum"), "n_docs": ("tok", "size")},
                     num_partitions=4)


@register("doc_fingerprints", sql="SELECT doc_id, md5(text) AS fp FROM documents")
def doc_fingerprints(sf_dir: str):
    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(
        lambda df: pd.DataFrame({"doc_id": df["doc_id"], "fp": fingerprint_md5(df["text"])}),
        batch_format="pandas",
    )


@register("chars_by_lang_source", sql="""
        SELECT lang, source, COUNT(*) AS n_docs, ROUND(AVG(n_chars), 4) AS avg_chars
        FROM documents GROUP BY 1, 2
    """)
def chars_by_lang_source(sf_dir: str):
    ds = _pq(sf_dir, "documents", ["lang", "source", "n_chars"])

    return group_agg(
        ds, ["lang", "source"],
        {"n_docs": ("n_chars", "size"), "s": ("n_chars", "sum")},
        finish=lambda g: g.assign(avg_chars=(g.pop("s") / g["n_docs"]).round(4)),
        num_partitions=4,
    )


# -------------------------------------------------------------- similarity

def _query_vec(sf_dir: str) -> np.ndarray:
    """Deterministic query vector: the embedding of vec_id == 0."""
    import pyarrow.parquet as pq

    t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"))
    import pyarrow.compute as pc

    row = t.filter(pc.equal(t["vec_id"], 0))
    return np.asarray(row["embedding"].to_pylist()[0], dtype=np.float64)


@register("knn_topk_whitelist", sql="""
        WITH q AS (SELECT embedding FROM embeddings WHERE vec_id = 0)
        SELECT e.vec_id, e.label
        FROM embeddings e, q
        WHERE e.vec_id <> 0 AND e.label IN (1, 3, 5)
        ORDER BY list_cosine_similarity(e.embedding, q.embedding) DESC, e.vec_id
        LIMIT 5
    """)
def knn_topk_whitelist(sf_dir: str):
    """Q1-shaped search with whitelist semi-join (J4): top-5 cosine among
    labels {1,3,5} only."""
    q = _query_vec(sf_dir)
    ds = _pq(sf_dir, "embeddings", ["vec_id", "embedding", "label"])
    import pyarrow.compute as pc

    ds = ds.map_batches(
        lambda t: t.filter(
            pc.and_(
                pc.not_equal(t["vec_id"], 0),
                pc.is_in(t["label"], pa.array([1, 3, 5], pa.int32())),
            )
        ),
        batch_format="pyarrow",
    )
    top = brute_force_topk(ds, q, 5, id_col="vec_id", extra_cols=("label",))
    return top.map_batches(lambda df: df[["vec_id", "label"]], batch_format="pandas")


@register("knn_topk_cosine", sql="""
        WITH q AS (SELECT embedding FROM embeddings WHERE vec_id = 0)
        SELECT e.vec_id, e.label
        FROM embeddings e, q
        WHERE e.vec_id <> 0
        ORDER BY list_cosine_similarity(e.embedding, q.embedding) DESC, e.vec_id
        LIMIT 10
    """)
def knn_topk_cosine(sf_dir: str):
    q = _query_vec(sf_dir)
    ds = _pq(sf_dir, "embeddings", ["vec_id", "embedding", "label"])
    import pyarrow.compute as pc

    ds = ds.map_batches(
        lambda t: t.filter(pc.not_equal(t["vec_id"], 0)), batch_format="pyarrow"
    )
    top = brute_force_topk(ds, q, 10, id_col="vec_id", extra_cols=("label",))
    return top.map_batches(
        lambda df: df[["vec_id", "label"]], batch_format="pandas"
    )


_SKETCH = ("mergeable-sketch tier: approximate by design (error bound asserted "
           "in tests against the exact tier); the golden pins its determinism")


@register("value_quantiles", sql=quantile_sql("events", "event_type", "value",
                                               [0.25, 0.5, 0.9]))
def _value_quantiles(sf_dir: str):
    """Exact per-event-type value quantiles (p25/p50/p90) — grouped
    quantile aggregate, bit-matching DuckDB quantile_cont."""
    from docprocai_service_ray.stages.quantiles import grouped_quantiles

    ds = _pq(sf_dir, "events", ["event_type", "value"])
    return grouped_quantiles(ds, "event_type", "value", [0.25, 0.5, 0.9])


@register("value_quantiles_sketch", golden=_SKETCH)
def _value_quantiles_sketch(sf_dir: str):
    """Same grouped quantiles via the MERGEABLE centroid-digest tier
    (stages/quantiles.grouped_quantiles_sketch): shuffles O(groups x
    delta) centroids instead of co-locating groups — the corpus-scale
    path, deterministic at any parallelism (golden-frozen; its ~2/delta
    rank-error bound vs exact is asserted in tests/test_sampling.py)."""
    from docprocai_service_ray.stages.quantiles import grouped_quantiles_sketch

    ds = _pq(sf_dir, "events", ["event_type", "value"])
    return grouped_quantiles_sketch(ds, "event_type", "value", [0.25, 0.5, 0.9])


@register("distinct_users_sketch", golden=_SKETCH)
def _distinct_users_sketch(sf_dir: str):
    """Same counts via the MERGEABLE HyperLogLog tier
    (stages/distinct.grouped_distinct_sketch): O(groups x 2^p) register
    bytes shuffle, values never do — the corpus-scale path. Deterministic
    at ANY parallelism and arrival order (register merge is elementwise
    max), so golden-frozen; the ~1.6% (p=12) error bound vs exact is
    asserted in tests/test_distinct.py at 20k+ cardinality."""
    from docprocai_service_ray.stages.distinct import grouped_distinct_sketch

    ds = _pq(sf_dir, "events", ["event_type", "user_id"])
    return grouped_distinct_sketch(ds, "event_type", "user_id")
