"""Grouped top-n most-frequent values: exact tier + mergeable Misra-Gries
sketch tier.

The per-group heavy-hitters family (reference analog: tag frequency over
`media_records.tags`, TopicModel.py:101-141 picks top topic words by
frequency). Exact top-n-by-count needs every (group, value) pair count
co-located; at corpus scale with unbounded value domains the mergeable
heavy-hitters sketch (Misra & Gries, "Finding repeated elements", 1982;
merge analysis per Agarwal et al., "Mergeable summaries", PODS 2012) bounds
what shuffles.

- Exact tier (`grouped_topn_values`): per-batch ``groupby.size`` partials
  (in-batch repetition leaves each batch as one row) → one
  ``partition_reduce`` sum + rank. SQL-oracle-checked against
  ``ROW_NUMBER() OVER (PARTITION BY g ORDER BY COUNT(*) DESC, v)``.
- Sketch tier (`grouped_topn_sketch`): per batch per group, exact counts
  are reduced with the closed-form Misra-Gries step — subtract the
  (capacity+1)-th largest count t from every count and keep the ≤capacity
  survivors (equivalent to streaming MG over the batch, since equal values
  are interchangeable). Each batch's total undercount is ≤ batch_rows /
  (capacity+1), so summing the per-batch lower bounds undercounts any
  value by at most N_g/(capacity+1) for a group with N_g rows: every value
  with true frequency above that bound is guaranteed to survive to the
  reduce. The shuffle carries ≤ capacity rows per (batch, group) however
  wild the value domain is.
  Tail-of-top-n composition is batch-boundary-dependent (unlike the HLL
  register max in stages/distinct.py), so the sketch tier is bounded by
  tests, not golden-frozen.
- `grouped_topn_auto` gates the tiers on a metadata-only size estimate.
"""

from __future__ import annotations

import numpy as np
import pandas as pd


def _rank_topn(part: pd.DataFrame, by: str, value_col: str, n: int,
               cnt_col: str = "cnt") -> pd.DataFrame:
    """Sum counts per (by, value), keep the n largest per group with a
    deterministic (count desc, value asc) rank — the ROW_NUMBER analog."""
    summed = part.groupby([by, value_col], as_index=False)[cnt_col].sum()
    summed = summed.sort_values(
        [by, cnt_col, value_col], ascending=[True, False, True]
    )
    summed["rank"] = summed.groupby(by).cumcount() + 1
    out = summed[summed["rank"] <= n].reset_index(drop=True)
    out["rank"] = out["rank"].astype("int64")
    return out


def grouped_topn_values(ds, by: str, value_col: str, n: int):
    """→ (by, value_col, cnt, rank) EXACT, rank 1..n per group by
    (count desc, value asc)."""
    from ..state.groupby import partition_reduce

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby([by, value_col], as_index=False).size()
        return out.rename(columns={"size": "cnt"})

    partials = ds.map_batches(partial, batch_format="pandas")
    return partition_reduce(
        partials, [by], lambda p: _rank_topn(p, by, value_col, n),
    )


def grouped_topn_sketch(ds, by: str, value_col: str, n: int, *,
                        capacity: int = 256):
    """→ (by, value_col, cnt, rank) approximate: cnt is a LOWER bound
    undercounting by at most N_g/(capacity+1); any value more frequent
    than that is guaranteed present. capacity bounds the per-(batch, group)
    shuffle rows."""
    from ..state.groupby import partition_reduce

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        counts = df.groupby([by, value_col], as_index=False).size()
        counts = counts.rename(columns={"size": "cnt"})
        pieces = []
        for _key, g in counts.groupby(by, sort=False):
            if len(g) > capacity:
                c = g["cnt"].to_numpy()
                # (capacity+1)-th largest count = the MG decrement t
                t = int(np.partition(c, -capacity - 1)[-capacity - 1])
                g = g[g["cnt"] > t].copy()
                g["cnt"] -= t
            pieces.append(g)
        return pd.concat(pieces, ignore_index=True) if pieces else counts

    partials = ds.map_batches(partial, batch_format="pandas")
    return partition_reduce(
        partials, [by], lambda p: _rank_topn(p, by, value_col, n),
    )


def grouped_topn_auto(ds, by: str, value_col: str, n: int, *,
                      exact_max_bytes: int = 512 << 20, capacity: int = 256):
    """Exact while the metadata-only size estimate says per-group count
    tables co-locate comfortably; Misra-Gries above."""
    from ..state.joins import _meta_size_bytes

    sz = _meta_size_bytes(ds)
    if sz is not None and sz <= exact_max_bytes:
        return grouped_topn_values(ds, by, value_col, n)
    return grouped_topn_sketch(ds, by, value_col, n, capacity=capacity)


def topn_sql(table: str, by: str, value_col: str, n: int) -> str:
    """The DuckDB oracle for the exact tier, column-name-aligned."""
    return (
        f"SELECT {by}, {value_col}, cnt, rank FROM ("
        f"SELECT {by}, {value_col}, COUNT(*) AS cnt, "
        f"ROW_NUMBER() OVER (PARTITION BY {by} "
        f"ORDER BY COUNT(*) DESC, {value_col}) AS rank "
        f"FROM {table} GROUP BY {by}, {value_col}) t "
        f"WHERE rank <= {n}"
    )
