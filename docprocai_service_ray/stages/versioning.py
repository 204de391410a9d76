"""Corpus version diff — the dataset-release comparison (what changed
between dump N and dump N+1): per doc id, ``added`` / ``removed`` /
``changed`` / ``same`` by content fingerprint. Release notes, cache
invalidation and incremental re-embedding all key off this table (only
``added``+``changed`` rows need re-processing — the incremental analog
of pipelines/kg.ingest_shard's per-record staleness).

Scale shape: one fingerprint map per side (md5 of the text column —
16 B/doc crosses the exchange, never text), then ONE full-outer hash
join on id (state/joins shuffle tier — full outer never broadcasts, by
its documented contract) and a vectorized status map.
"""

from __future__ import annotations

import numpy as np
import pandas as pd


def corpus_diff(old_ds, new_ds, id_col: str, text_col: str):
    """(id, status) for every id present in either corpus version."""
    from ..state.joins import hash_join
    from .textstats import fingerprint_md5

    def fp(col):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({id_col: df[id_col],
                                 col: fingerprint_md5(df[text_col])})
        return fn

    old_fp = old_ds.map_batches(fp("fp_old"), batch_format="pandas")
    new_fp = new_ds.map_batches(fp("fp_new"), batch_format="pandas")
    joined = hash_join(old_fp, new_fp, on=id_col, how="outer")

    def status(df: pd.DataFrame) -> pd.DataFrame:
        o, n = df["fp_old"], df["fp_new"]
        st = np.where(o.isna(), "added",
                      np.where(n.isna(), "removed",
                               np.where(o == n, "same", "changed")))
        return pd.DataFrame({id_col: df[id_col], "status": st})

    return joined.map_batches(status, batch_format="pandas")


def corpus_diff_sql(old_sel: str, new_sel: str, id_col: str,
                    text_col: str) -> str:
    """DuckDB twin of :func:`corpus_diff` (same md5 fingerprint; the
    selections are FROM-able fragments)."""
    return f"""
        WITH dv_old AS (SELECT {id_col}, md5(coalesce({text_col}, '')) AS fp
                        FROM {old_sel}),
             dv_new AS (SELECT {id_col}, md5(coalesce({text_col}, '')) AS fp
                        FROM {new_sel})
        SELECT coalesce(dv_old.{id_col}, dv_new.{id_col}) AS {id_col},
               CASE WHEN dv_old.fp IS NULL THEN 'added'
                    WHEN dv_new.fp IS NULL THEN 'removed'
                    WHEN dv_old.fp = dv_new.fp THEN 'same'
                    ELSE 'changed' END AS status
        FROM dv_old FULL OUTER JOIN dv_new
          ON dv_old.{id_col} = dv_new.{id_col}
    """
