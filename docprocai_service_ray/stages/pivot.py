"""Pivot (long → wide conditional aggregation).

The reference's GraphQL layer reshapes grouped rows into per-category
fields on the DTO (e.g. per-media-type progress counts on one record —
DocProcAiService.py query surface); at engine level that is a pivot:
one output row per ``index_cols``, one column per category of
``pivot_col``, cells = count or sum.

Distributed shape: the category set is vocab-sized BY CONTRACT (a pivot
with 10^6 columns is a modeling bug, and Arrow tables are column-bounded)
— discovered with one column-pruned distinct pass (or passed explicitly
via ``categories`` to skip that pass), then every batch emits a partial
WIDE row per index key (vectorized crosstab) and one group_agg
sums the partials. The exchange moves one wide row per (key, batch): a
hot index key never concentrates raw rows.
"""

from __future__ import annotations

import pandas as pd

from ..state.groupby import collect_pandas, distinct_rows, group_agg


def pivot_table(ds, index_cols: list[str], pivot_col: str,
                val_col: str | None = None, *, agg: str = "count",
                categories: list | None = None, col_prefix: str = "",
                round_to: int | None = 2):
    """One row per ``index_cols``, one ``{col_prefix}{category}`` column
    per distinct ``pivot_col`` value; cells are COUNT(*) (``agg='count'``)
    or SUM(val_col) (``agg='sum'``) over matching rows, 0 where absent.
    Rows with a NULL index or pivot value are EXCLUDED (crosstab
    semantics; the SQL twin filters the same rows explicitly)."""
    if agg not in ("count", "sum"):
        raise ValueError(f"agg must be 'count' or 'sum', got {agg!r}")
    if agg == "sum" and val_col is None:
        raise ValueError("agg='sum' needs val_col")

    if categories is None:
        cats_df = collect_pandas(
            distinct_rows(ds.select_columns([pivot_col]), [pivot_col]),
            [pivot_col],
        )
        categories = sorted(cats_df[pivot_col])
    cols = [f"{col_prefix}{c}" for c in categories]

    def wide_rows(df: pd.DataFrame) -> pd.DataFrame:
        vals = df[val_col] if agg == "sum" else None
        wide = pd.crosstab(
            index=[df[c] for c in index_cols],
            columns=df[pivot_col],
            values=vals,
            aggfunc="sum" if agg == "sum" else None,
        ).reindex(columns=categories, fill_value=0).fillna(0)
        wide.columns = cols
        wide.index.names = index_cols
        return wide.reset_index()

    rounded = agg == "sum" and round_to is not None
    return group_agg(
        ds.map_batches(wide_rows, batch_format="pandas"), index_cols,
        {c: (c, "sum") for c in cols},
        finish=(lambda g: g.round({c: round_to for c in cols})) if rounded else None,
    )


def pivot_sql(table: str, index_cols: list[str], pivot_col: str,
              categories: list, val_col: str | None = None, *,
              agg: str = "count", col_prefix: str = "",
              round_to: int | None = 2) -> str:
    """DuckDB twin of :func:`pivot_table` (FILTER-ed conditional aggs,
    identical output column names)."""
    cells = []
    for c in categories:
        name = f'"{col_prefix}{c}"'
        if agg == "count":
            cells.append(
                f"CAST(COUNT(*) FILTER ({pivot_col} = '{c}') AS BIGINT) AS {name}"
            )
        else:
            expr = f"COALESCE(SUM({val_col}) FILTER ({pivot_col} = '{c}'), 0)"
            if round_to is not None:
                expr = f"ROUND({expr}, {round_to})"
            cells.append(f"{expr} AS {name}")
    idx = ", ".join(index_cols)
    # mirror pandas crosstab: NULL index/pivot rows never aggregate
    not_null = " AND ".join(f"{c} IS NOT NULL" for c in [*index_cols, pivot_col])
    return (f"SELECT {idx}, {', '.join(cells)} FROM {table} "
            f"WHERE {not_null} GROUP BY {idx}")
