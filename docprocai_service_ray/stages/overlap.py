"""Cross-source n-gram overlap matrix — pairwise Jaccard between the
DISTINCT word-n-gram sets of every pair of corpus sources. The mixture-
design companion to decontamination: before weighting sources into a
training mix (UniMax / DoReMi-style allocators) you measure how
redundant they are with each other; a near-duplicate source pair wastes
its combined budget (Lee et al. 2021 §6 measure exactly this between
C4 and Wiki shards).

Gram semantics are SHARED with stages/decontam.py (single-space split,
consecutive n-word grams, distinct per side — here per SOURCE); the
engine exchanges u64 gram hashes only (collisions → false merges at
~(#grams)²/2⁶⁴; the SQL twin compares gram STRINGS so a collision would
surface as a mismatch, not hide).

Scale shape: per-batch (source, gram-hash) dedup partials → ONE
gram-hash-keyed exchange; inside each partition the per-gram source
sets are tiny (≤ #sources), so the pair fan-out is bounded by
#sources²·#grams-in-partition and the reduce emits only (s1, s2, cnt)
partials. The driver folds #sources² rows. Text never ships; no
all-pairs join over docs.

No reference analog — "beyond the reference" training-data op; nearest
reference shape is SURVEY §2 W3's normalized-key dedup family.
"""

from __future__ import annotations

import itertools

import numpy as np
import pandas as pd

from .decontam import _gram_hashes


def source_overlap_jaccard(ds, text_col: str, group_col: str, *,
                           n: int = 3, round_to: int = 6
                           ) -> pd.DataFrame:
    """Pairwise (source_a < source_b) overlap of distinct n-gram sets:
    (n_a, n_b, n_common, jaccard). Returns a pandas DataFrame —
    #sources² rows of scalars."""
    from ..state.groupby import collect_pandas, partition_reduce

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        hs = _gram_hashes(df[text_col], n)
        lens = np.fromiter((len(a) for a in hs), dtype=np.int64,
                           count=len(hs))
        out = pd.DataFrame({
            "s": np.repeat(df[group_col].to_numpy(), lens),
            "gh": (np.concatenate(hs) if len(hs)
                   else np.empty(0, dtype="uint64")),
        })
        return out.drop_duplicates()

    def reduce_grams(part: pd.DataFrame) -> pd.DataFrame:
        part = part.drop_duplicates(["s", "gh"])
        ones = part.groupby("s", as_index=False).agg(cnt=("gh", "size"))
        # per-source marker rows use a NULL s2 — a source literally named
        # "" must not collide with the marker
        ones = pd.DataFrame({"s1": ones["s"], "s2": None, "cnt": ones["cnt"]})
        ones["s2"] = ones["s2"].astype(object)
        m = part.merge(part, on="gh")
        m = m[m["s_x"] < m["s_y"]]
        pairs = m.groupby(["s_x", "s_y"], as_index=False).agg(
            cnt=("gh", "size"))
        pairs = pd.DataFrame({"s1": pairs["s_x"], "s2": pairs["s_y"],
                              "cnt": pairs["cnt"]})
        return pd.concat([ones, pairs], ignore_index=True).astype(
            {"cnt": "int64"})

    partials = collect_pandas(
        partition_reduce(ds.map_batches(explode, batch_format="pandas"),
                         ["gh"], reduce_grams),
        ["s1", "s2", "cnt"])

    unary = partials["s2"].isna()
    per_src = partials[unary].groupby("s1")["cnt"].sum().to_dict()
    per_pair = (partials[~unary]
                .groupby(["s1", "s2"])["cnt"].sum().to_dict())
    rows = []
    for a, b in itertools.combinations(sorted(per_src), 2):
        inter = int(per_pair.get((a, b), 0))
        na, nb = int(per_src[a]), int(per_src[b])
        rows.append({
            "source_a": a, "source_b": b, "n_a": na, "n_b": nb,
            "n_common": inter,
            "jaccard": round(inter / (na + nb - inter), round_to),
        })
    return pd.DataFrame(
        rows, columns=["source_a", "source_b", "n_a", "n_b", "n_common",
                       "jaccard"])


def source_overlap_sql(table: str, text_col: str, group_col: str, *,
                       n: int = 3, round_to: int = 6) -> str:
    """DuckDB twin of :func:`source_overlap_jaccard` — decontam_sql's
    gram construction, string-compared grams, the same pair ordering."""
    return f"""
        WITH d_w AS (
            SELECT {group_col} AS s,
                   string_split(coalesce({text_col}, ''), ' ') AS w
            FROM {table}
        ), d_g AS (
            SELECT DISTINCT s,
                   array_to_string(list_slice(w, CAST(i AS BIGINT),
                                              CAST(i + {n - 1} AS BIGINT)),
                                   ' ') AS g
            FROM d_w,
                 UNNEST(range(1, greatest(len(w) - {n} + 2, 1))) AS t(i)
        ), sc AS (
            SELECT s, COUNT(*) AS cnt FROM d_g GROUP BY 1
        ), inter AS (
            SELECT a.s AS source_a, b.s AS source_b, COUNT(*) AS n_common
            FROM d_g a JOIN d_g b ON a.g = b.g AND a.s < b.s
            GROUP BY 1, 2
        )
        SELECT sa.s AS source_a, sb.s AS source_b,
               CAST(sa.cnt AS BIGINT) AS n_a, CAST(sb.cnt AS BIGINT) AS n_b,
               CAST(COALESCE(inter.n_common, 0) AS BIGINT) AS n_common,
               ROUND(COALESCE(inter.n_common, 0)
                     / (sa.cnt + sb.cnt - COALESCE(inter.n_common, 0)),
                     {round_to}) AS jaccard
        FROM sc sa JOIN sc sb ON sa.s < sb.s
        LEFT JOIN inter ON inter.source_a = sa.s AND inter.source_b = sb.s
        ORDER BY 1, 2
    """
