"""N-gram diversity (distinct-n) per source — the standard text-
degeneration signal (Li et al. 2016 "distinct"; Zhu et al. 2018 Texygen
report it beside Self-BLEU): the share of DISTINCT n-grams among all
n-gram positions. Template-heavy, looped or machine-generated sources
score low; diverse prose scores high. Curation recipes read it next to
the repetition and compression-ratio gates.

Gram semantics shared with stages/decontam.py / stages/overlap.py
(single-space split, consecutive n-word grams); the engine exchanges u64
gram hashes WITH multiplicity counts — collisions can only undercount
distinct grams at ~(#grams)²/2⁶⁴, and the SQL twin compares gram STRINGS
so a collision would surface as a mismatch.

Scale shape: per-batch (source, gram-hash, count) partials → ONE
gram-hash-keyed exchange (each gram lands in exactly one partition, so
per-partition per-source distinct/total counts sum globally) → a
#sources×#partitions-row fold. Text never ships.

No reference analog — "beyond the reference" training-data op.
"""

from __future__ import annotations

import numpy as np
import pandas as pd


def _gram_hash_counts(texts: pd.Series, n: int) -> tuple[np.ndarray,
                                                         np.ndarray]:
    """All n-gram positions (WITH multiplicity) of each row, hashed u64;
    returns (row_lengths, flat_hashes)."""
    grams: list[str] = []
    lens = np.zeros(len(texts), dtype=np.int64)
    for i, t in enumerate(texts.fillna("")):
        ws = t.split(" ")
        row = [" ".join(ws[j:j + n]) for j in range(len(ws) - n + 1)]
        grams.extend(row)
        lens[i] = len(row)
    if grams:
        h = pd.util.hash_pandas_object(
            pd.Series(grams, dtype="object"), index=False).to_numpy()
    else:
        h = np.empty(0, dtype="uint64")
    return lens, h


def distinct_ngram_stats(ds, text_col: str, group_col: str, *, n: int = 3,
                         round_to: int = 6):
    """Per-source (n_grams, n_distinct, distinct_ratio) over word
    n-grams. distinct_ratio = n_distinct / n_grams (6dp); sources whose
    every doc has < n words have no grams and are excluded (matching
    the SQL twin's grouping over an empty gram set)."""
    from ..state.groupby import group_agg, partition_reduce

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):  # column-less empty blocks carry no text col
            return pd.DataFrame({"s": pd.Series([], dtype=object),
                                 "gh": pd.Series([], dtype="uint64"),
                                 "c": pd.Series([], dtype="int64")})
        lens, h = _gram_hash_counts(df[text_col], n)
        out = pd.DataFrame({
            "s": np.repeat(df[group_col].to_numpy(), lens),
            "gh": h,
        })
        return out.groupby(["s", "gh"], as_index=False).agg(
            c=("gh", "size"))

    def reduce_grams(part: pd.DataFrame) -> pd.DataFrame:
        g = part.groupby(["s", "gh"], as_index=False).agg(c=("c", "sum"))
        agg = g.groupby("s", as_index=False).agg(
            n_distinct=("gh", "size"), n_grams=("c", "sum"))
        return agg.astype({"n_distinct": "int64", "n_grams": "int64"})

    partials = partition_reduce(
        ds.map_batches(explode, batch_format="pandas"),
        ["gh"], reduce_grams)

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            group_col: g["s"],
            "n_grams": g["n_grams"],
            "n_distinct": g["n_distinct"],
            "distinct_ratio": (g["n_distinct"] / g["n_grams"]).round(
                round_to),
        })

    return group_agg(partials, ["s"],
                     {"n_grams": ("n_grams", "sum"),
                      "n_distinct": ("n_distinct", "sum")},
                     finish=finish, num_partitions=4)


def distinct_ngram_sql(table: str, text_col: str, group_col: str, *,
                       n: int = 3, round_to: int = 6) -> str:
    """DuckDB twin of :func:`distinct_ngram_stats` — decontam_sql's gram
    construction WITHOUT the per-doc DISTINCT, string-compared grams."""
    return f"""
        WITH d_w AS (
            SELECT {group_col} AS s,
                   string_split(coalesce({text_col}, ''), ' ') AS w
            FROM {table}
        ), d_g AS (
            SELECT s,
                   array_to_string(list_slice(w, CAST(i AS BIGINT),
                                              CAST(i + {n - 1} AS BIGINT)),
                                   ' ') AS g
            FROM d_w,
                 UNNEST(range(1, greatest(len(w) - {n} + 2, 1))) AS t(i)
        )
        SELECT s AS {group_col},
               CAST(COUNT(*) AS BIGINT) AS n_grams,
               CAST(COUNT(DISTINCT g) AS BIGINT) AS n_distinct,
               ROUND(COUNT(DISTINCT g) / COUNT(*), {round_to})
                   AS distinct_ratio
        FROM d_g GROUP BY 1
    """
