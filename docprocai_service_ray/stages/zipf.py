"""Zipf-law corpus health statistics — the standard sanity scan run over
a crawl corpus before training (Zipf 1949; Piantadosi 2014 review):
natural language shows log-freq ≈ a + slope·log-rank with slope ≈ −1 and
a near-perfect fit over the head ranks; boilerplate-heavy, deduplicated
or synthetic corpora bend away from it. Also reports the type/token and
hapax-legomenon shares (the vocabulary-growth signals the BPE and OOV
stages consume).

Scale shape: ONE word-count exchange (the stages/bpe.py word-count
shape); everything downstream is vocab-sized — scalar partials reduce
per partition, and the rank fit sees only the global top-K rows
(per-block partial top-K, then a ≤ num_blocks·K-row merge on the
driver). Raw text never exchanges; no global sort.

Reference anchor: reference has no corpus-statistics scan (its scale
doesn't need one); this is the standard public recipe re-expressed.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .ngramlm import _TOKEN_RE


def _word_counts(ds, text_col: str):
    from ..state.groupby import group_agg

    def toks(df: pd.DataFrame) -> pd.DataFrame:
        t = df[text_col].fillna("").str.lower().str.findall(_TOKEN_RE)
        return pd.DataFrame({"w": t}).explode("w").dropna()

    return group_agg(ds.map_batches(toks, batch_format="pandas"), ["w"],
                     {"c": ("w", "size")})


def zipf_law_stats(ds, text_col: str, *, top_k: int = 1000,
                   round_to: int = 6) -> pd.DataFrame:
    """One-row corpus scan: (n_types, n_tokens, tt_ratio, hapax_frac,
    zipf_slope, zipf_r2). The slope/r² are the least-squares fit of
    log2(freq) on log2(rank) over the top-``top_k`` ranks (rank ties
    broken by word, matching the SQL twin's ROW_NUMBER), the standard
    head-of-distribution Zipf fit. Returns a pandas DataFrame — the
    result is a single row of scalars."""
    from ..state.groupby import collect_pandas

    wc = _word_counts(ds, text_col).materialize()

    def scalars(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "types": [np.int64(len(df))],
            "tokens": [df["c"].sum()],
            "hapax": [np.int64((df["c"] == 1).sum())],
        })

    sc = collect_pandas(wc.map_batches(scalars, batch_format="pandas"),
                        ["types", "tokens", "hapax"]).sum()
    n_types, n_tokens, n_hapax = (int(sc["types"]), int(sc["tokens"]),
                                  int(sc["hapax"]))

    def local_top(df: pd.DataFrame, k=top_k) -> pd.DataFrame:
        return df.sort_values(["c", "w"], ascending=[False, True]).head(k)

    top = (collect_pandas(
        wc.map_batches(local_top, batch_size=None, batch_format="pandas"),
        ["w", "c"])
        .sort_values(["c", "w"], ascending=[False, True]).head(top_k))

    slope = r2 = float("nan")
    if len(top) >= 2:
        x = np.log2(np.arange(1, len(top) + 1, dtype=np.float64))
        y = np.log2(top["c"].to_numpy(dtype=np.float64))
        cov = ((x - x.mean()) * (y - y.mean())).mean()
        vx = ((x - x.mean()) ** 2).mean()
        vy = ((y - y.mean()) ** 2).mean()
        slope = cov / vx
        r2 = (cov * cov) / (vx * vy) if vy > 0 else float("nan")
    return pd.DataFrame({
        "n_types": [np.int64(n_types)],
        "n_tokens": [np.int64(n_tokens)],
        "tt_ratio": [round(n_types / n_tokens, round_to)
                     if n_tokens else float("nan")],
        "hapax_frac": [round(n_hapax / n_types, round_to)
                       if n_types else float("nan")],
        "zipf_slope": [round(slope, round_to)],
        "zipf_r2": [round(r2, round_to)],
    })


def zipf_law_sql(table: str, text_col: str, *, top_k: int = 1000,
                 round_to: int = 6) -> str:
    """DuckDB twin of :func:`zipf_law_stats` — same tokenizer, same
    rank tie-break, REGR_SLOPE/REGR_R2 (the population covariance
    formula the engine mirrors)."""
    return f"""
        WITH toks AS (
            SELECT unnest(regexp_extract_all(lower(coalesce({text_col},
                          '')), '{_TOKEN_RE}')) AS w
            FROM {table}
        ), wc AS (
            SELECT w, COUNT(*) AS c FROM toks GROUP BY 1
        ), scal AS (
            SELECT CAST(COUNT(*) AS BIGINT) AS n_types,
                   CAST(SUM(c) AS BIGINT) AS n_tokens,
                   CAST(SUM(CASE WHEN c = 1 THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_hapax
            FROM wc
        ), top AS (
            SELECT c, ROW_NUMBER() OVER (ORDER BY c DESC, w) AS rnk
            FROM wc QUALIFY rnk <= {top_k}
        ), fit AS (
            SELECT ROUND(regr_slope(log2(c), log2(rnk)), {round_to})
                       AS zipf_slope,
                   ROUND(regr_r2(log2(c), log2(rnk)), {round_to})
                       AS zipf_r2
            FROM top
        )
        SELECT n_types, n_tokens,
               ROUND(n_types / n_tokens, {round_to}) AS tt_ratio,
               ROUND(n_hapax / n_types, {round_to}) AS hapax_frac,
               zipf_slope, zipf_r2
        FROM scal, fit
    """
