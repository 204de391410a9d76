"""Windowed aggregates over event streams (SURVEY.md §2.8).

Ray Data is a batch engine — no watermarks — so stream-shaped semantics
are expressed per the guide: partition by key, order by ts *within* the
partition, window with vectorized pandas inside one grouped pass
(state/groupby.partition_reduce → all rows of a key co-located, one
vectorized call per partition, never per key).

- ``tumbling``: fixed buckets (see benchqueries.hourly_events — SQL-checked)
- ``sliding_counts``: overlapping fixed windows (each event lands in
  window_size/slide buckets — explode + aggregate)
- ``session_windows``: gap-based sessions (gaps-and-islands), SQL-checked
  against a LAG() oracle. Boundary rule depends only on ts *differences*,
  so equal-ts ties cannot change the result at any parallelism.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..state.groupby import group_agg, partition_reduce


def session_stats(events_ds, *, key_col: str = "user_id", ts_col: str = "ts",
                  gap_minutes: int = 30):
    """Per key: number of gap-based sessions and total events.
    Output columns: (key_col, n_sessions, n_events)."""
    gap = pd.Timedelta(minutes=gap_minutes)

    def reduce(part: pd.DataFrame) -> pd.DataFrame:
        part = part.sort_values([key_col, ts_col], kind="stable")
        ts = pd.to_datetime(part[ts_col])
        new_key = part[key_col] != part[key_col].shift()
        gap_break = (ts - ts.shift()) > gap
        new_session = (new_key | gap_break).astype("int64")
        out = (
            part.assign(__ns=new_session)
            .groupby(key_col, as_index=False)
            .agg(n_sessions=("__ns", "sum"), n_events=("__ns", "size"))
        )
        return out.astype({"n_sessions": "int64", "n_events": "int64"})

    return partition_reduce(
        events_ds.select_columns([key_col, ts_col]), [key_col], reduce,
    )


def sliding_counts(events_ds, *, ts_col: str = "ts", key_col: str = "event_type",
                   window_minutes: int = 120, slide_minutes: int = 60):
    """Overlapping windows: each event is exploded into the
    window/slide slots covering it, then a grouped count per
    (window_start, key). Output: (window_start: str, key, n)."""
    n_slots = window_minutes // slide_minutes
    slide = pd.Timedelta(minutes=slide_minutes)

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        ts = pd.to_datetime(df[ts_col])
        base = ts.dt.floor(f"{slide_minutes}min")
        frames = []
        for i in range(n_slots):
            start = base - i * slide
            frames.append(pd.DataFrame({
                "window_start": start.dt.strftime("%Y-%m-%d %H:%M:%S"),
                "key": df[key_col].values,
            }))
        return pd.concat(frames, ignore_index=True)

    slots = events_ds.select_columns([ts_col, key_col]).map_batches(
        explode, batch_format="pandas"
    )
    return group_agg(slots, ["window_start", "key"], {"n": ("key", "size")})


# --------------------- SQL window-function / rollup analogs -----------------
# The reference's query surface is Postgres, where per-group ranking,
# running totals and multi-level rollups are one-line window/ROLLUP SQL.
# Re-expressed for a streaming Dataset:
#  - grouped_topn_rows: ROW_NUMBER() <= n per partition. Per-batch partial
#    top-n first, so at most n rows per (group, batch) ever reach the
#    exchange — a head group's raw rows never co-locate.
#  - running_group_agg: SUM() OVER (PARTITION BY key ORDER BY ...). Output
#    is row-per-input, so each key's rows must co-locate once (the same
#    per-key partition contract asof_join documents); within a partition
#    the scan is one vectorized sort + groupby.cumsum.
#  - rollup_aggregate: GROUP BY ROLLUP in ONE pass — per-batch partials at
#    the finest level are expanded to every prefix level in-batch
#    (algebraic aggregates only), so the exchange stays
#    O(levels × finest-groups × batches) and no second scan is needed.


def grouped_topn_rows(ds, keys: list[str], order_col: str, n: int, *,
                      descending: bool = True, tiebreak: list[str] | None = None,
                      rank_col: str = "rn"):
    """Top-``n`` whole rows per group with their rank — the distributed
    ``QUALIFY ROW_NUMBER() OVER (PARTITION BY keys ORDER BY order_col
    [DESC], tiebreak) <= n``. ``tiebreak`` must make the order total or
    ranks are nondeterministic across parallelism."""
    tiebreak = tiebreak or []
    sort_cols = [order_col, *tiebreak]
    ascending = [not descending] + [True] * len(tiebreak)

    def sort_part(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(sort_cols, ascending=ascending, kind="stable")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return sort_part(df).groupby(keys, sort=False).head(n)

    def final(part: pd.DataFrame) -> pd.DataFrame:
        out = sort_part(part)
        out = out.assign(**{rank_col: out.groupby(keys, sort=False).cumcount() + 1})
        return out[out[rank_col] <= n]

    return partition_reduce(
        ds.map_batches(partial, batch_format="pandas"), keys, final,
    )


def running_group_agg(ds, key_cols: list[str], order_cols: list[str],
                      val_col: str, out_col: str = "running_sum", *,
                      round_to: int | None = 2):
    """Per-row running sum of ``val_col`` within each key group ordered by
    ``order_cols`` — ``SUM(val) OVER (PARTITION BY key ORDER BY order ROWS
    UNBOUNDED PRECEDING)``. ``order_cols`` must be a total order within
    each key (include a unique id) for cross-run determinism; the cumsum
    is sequential in that same order, so it bit-matches the SQL window."""

    def reduce(part: pd.DataFrame) -> pd.DataFrame:
        part = part.sort_values([*key_cols, *order_cols], kind="stable")
        run = part.groupby(key_cols, sort=False)[val_col].cumsum()
        if round_to is not None:
            run = run.round(round_to)
        return part.assign(**{out_col: run})

    return partition_reduce(ds, key_cols, reduce)


def _grouping_sets(ds, keys: list[str], val_col: str, rolled: list[list[str]],
                   total_label: str, sum_col: str,
                   count_col: str, round_to: int | None):
    """Grouped sum+count per grouping set in one pass: each entry of
    ``rolled`` names the key columns that set shows as ``total_label``.
    Each batch's finest partial is copied once per set, so every set's
    rows combine in the same ``group_agg``."""

    def expand(df: pd.DataFrame) -> pd.DataFrame:
        finest = df.groupby(keys, as_index=False).agg(
            **{sum_col: (val_col, "sum"), count_col: (val_col, "size")})
        return pd.concat([finest.assign(**dict.fromkeys(cols, total_label))
                          for cols in rolled], ignore_index=True)

    return group_agg(
        ds.map_batches(expand, batch_format="pandas"), keys,
        {sum_col: (sum_col, "sum"), count_col: (count_col, "sum")},
        finish=None if round_to is None else (
            lambda g: g.round({sum_col: round_to})),
    )


def rollup_aggregate(ds, keys: list[str], val_col: str, *,
                     total_label: str = "ALL",
                     sum_col: str = "total", count_col: str = "n",
                     round_to: int | None = 2):
    """Grouped sum+count at EVERY rollup level of ``keys`` (finest →
    grand total) in one pass — ``GROUP BY ROLLUP(keys)`` with rolled-up
    key columns shown as ``total_label``. Input key columns must not
    contain ``total_label`` themselves (SQL ROLLUP has the same NULL
    ambiguity)."""
    return _grouping_sets(ds, keys, val_col,
                          [keys[i:] for i in range(len(keys), -1, -1)],
                          total_label, sum_col, count_col,
                          round_to)


def sessionize(events_ds, *, key_col: str = "user_id", ts_col: str = "ts",
               id_col: str = "event_id", gap_minutes: int = 30):
    """Row-level sessionization: every event tagged with its gap-based
    session ordinal (``session_seq``, 1-based per key) — the per-row
    companion to :func:`session_stats` (which only aggregates). Output is
    row-per-event, so each key co-locates once; ``(ts, id)`` makes the
    in-group order total, hence deterministic at any parallelism."""
    gap = pd.Timedelta(minutes=gap_minutes)

    def reduce(part: pd.DataFrame) -> pd.DataFrame:
        part = part.sort_values([key_col, ts_col, id_col], kind="stable")
        ts = pd.to_datetime(part[ts_col])
        new_key = part[key_col] != part[key_col].shift()
        gap_break = (ts - ts.shift()) > gap
        seq = (new_key | gap_break).astype("int64").groupby(
            part[key_col], sort=False).cumsum()
        return pd.DataFrame({
            id_col: part[id_col],
            key_col: part[key_col],
            "session_seq": seq.astype("int64"),
        })

    return partition_reduce(
        events_ds.select_columns([id_col, key_col, ts_col]), [key_col], reduce,
    )


def cube_aggregate(ds, keys: list[str], val_col: str, *,
                   total_label: str = "ALL",
                   sum_col: str = "total", count_col: str = "n",
                   round_to: int | None = 2):
    """Grouped sum+count at EVERY subset of ``keys`` (``GROUP BY CUBE``) in
    one pass — same finest-partial expansion as :func:`rollup_aggregate`
    but over all 2^k masks instead of the k+1 prefixes. ``keys`` is
    small by contract (2^k output families)."""
    masks = [[c for i, c in enumerate(keys) if m & (1 << i)]
             for m in range(1 << len(keys))]
    return _grouping_sets(ds, keys, val_col, masks, total_label,
                          sum_col, count_col, round_to)


def grouped_ntile(ds, keys: list[str], order_col: str, n_tiles: int, *,
                  tiebreak: list[str] | None = None,
                  tile_col: str = "tile"):
    """NTILE(n) OVER (PARTITION BY keys ORDER BY order_col, tiebreak):
    every row tagged with its n-quantile bucket (1-based, SQL NTILE fill
    rule: the first ``n_rows % n`` tiles get the extra row). Row-per-input
    output ⇒ each key co-locates once (running_group_agg's contract)."""
    tiebreak = tiebreak or []

    def reduce(part: pd.DataFrame) -> pd.DataFrame:
        part = part.sort_values([*keys, order_col, *tiebreak], kind="stable")
        rank = part.groupby(keys, sort=False).cumcount().to_numpy()
        sizes = part.groupby(keys, sort=False)[order_col].transform("size").to_numpy()
        base, extra = sizes // n_tiles, sizes % n_tiles
        # first `extra` tiles have base+1 rows; SQL NTILE boundary rule
        cut = extra * (base + 1)
        tile = np.where(
            rank < cut,
            rank // np.maximum(base + 1, 1),
            np.where(base > 0, extra + (rank - cut) // np.maximum(base, 1), rank),
        )
        return part.assign(**{tile_col: (tile + 1).astype("int64")})

    return partition_reduce(ds, keys, reduce)
