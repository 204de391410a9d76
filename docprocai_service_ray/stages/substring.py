"""Duplicate-substring statistics: for every document, the fraction of
its word n-grams that also occur in OTHER documents of the corpus — the
corpus-self-overlap signal behind suffix-array substring dedup (Lee et
al. 2021, "Deduplicating Training Data Makes Language Models Better";
they remove exact spans ≥50 tokens, we report the per-group gram-level
overlap stats a curation pass thresholds on).

Semantics (shared EXACTLY by the SQL twin): split each text on single
spaces, form all consecutive ``n``-word grams joined by single spaces,
DISTINCT per document; a gram is *duplicated* iff it occurs in at least
``min_docs`` distinct documents. Docs with fewer than ``n`` words have no
grams and are excluded from the output. Per ``group_col``: ``n_docs``,
``dup_docs`` (≥1 duplicated gram), ``avg_dup_frac`` (mean over docs of
duplicated-distinct-grams / distinct-grams, rounded).

Scale shape — unlike :mod:`decontam` there is NO small side (the corpus
is compared against itself), so there is no broadcast tier: the one
correct shape is a gram-hash-keyed exchange. Each doc batch explodes to
distinct (gram-hash u64, doc, group, n_grams) rows — 8-byte hashes, text
never ships; a single ``partition_reduce`` on the hash co-locates every
occurrence of a gram, so the distinct-doc count per gram is exact within
the partition (rows are per-doc-distinct by construction, so the count
is just the row count). Per-doc hit partials then exchange once on the
doc id and roll up to the group. Two int-keyed exchanges total, both on
pre-aggregated partials; skew is bounded because a single gram's rows
are one row per containing doc.

Hash collisions can only create FALSE POSITIVES at ~(#grams)^2 / 2^64 —
the same trade Lee et al. make; the SQL twin compares gram STRINGS, so a
collision would surface as an oracle mismatch rather than hide.

No reference analog — "beyond the reference" training-data op; nearest
reference shape is the content-hash dedup family (SURVEY §2 W3).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .decontam import _gram_hashes


def dup_gram_stats(docs_ds, id_col: str, text_col: str, group_col: str, *,
                   n: int = 5, min_docs: int = 2,
                   round_to: int = 6, hot_gram_ceiling: int | None = None):
    """Per-``group_col`` duplicate-gram stats of ``docs_ds`` against
    itself: ``n_docs``, ``dup_docs``, ``avg_dup_frac`` (see module doc).
    ``min_docs`` is the distinct-document threshold for a gram to count
    as duplicated (Lee-et-al substring dedup uses 2).

    ``hot_gram_ceiling`` (corpus-scale skew defuse): when set, a
    pre-aggregated (gram-hash, count) partial exchange — one row per
    gram per BATCH, so a universal boilerplate gram costs
    n_docs/batch_size rows, never n_docs — first finds grams in ≥
    ceiling docs. There are at most total_grams/ceiling of those, a
    broadcastable list; they are (by min_docs ≤ ceiling) certainly
    duplicated, so their per-doc hits are counted batch-locally via
    ``np.isin`` and only the remaining grams — fan-in < ceiling by
    construction — go through the per-doc flag exchange. Output is
    IDENTICAL to the unceilinged path (parity-tested); cost is one
    extra streaming pass for the count phase."""
    import ray

    from ..state.groupby import collect_pandas, group_agg, partition_reduce

    hot_ref = None
    if hot_gram_ceiling is not None:
        if min_docs > hot_gram_ceiling:
            raise ValueError(
                f"hot_gram_ceiling ({hot_gram_ceiling}) must be >= "
                f"min_docs ({min_docs}) so hot grams are certainly "
                f"duplicated")
        if min_docs < 2:
            raise ValueError("hot_gram_ceiling requires min_docs >= 2 "
                             "(the per-doc sentinel rows have count 1)")

        def grams(df: pd.DataFrame) -> pd.DataFrame:
            hs = _gram_hashes(df[text_col], n)
            return pd.DataFrame({"gh": np.concatenate(hs) if hs
                                 else np.empty(0, dtype="uint64")})

        hot = group_agg(
            docs_ds.map_batches(grams, batch_format="pandas"), ["gh"],
            {"c": ("gh", "size")},
            finish=lambda g: g.loc[g["c"] >= hot_gram_ceiling, ["gh"]])
        hot_arr = np.sort(
            collect_pandas(hot, ["gh"])["gh"].to_numpy(dtype="uint64"))
        hot_ref = ray.put(hot_arr)

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        hs = _gram_hashes(df[text_col], n)
        ids = df[id_col].to_numpy()
        grp = df[group_col].to_numpy()
        reps = np.array([len(h) for h in hs], dtype="int64")
        flat = (np.concatenate(hs) if hs else np.empty(0, dtype="uint64"))
        out = pd.DataFrame({
            "gh": flat,
            "doc": np.repeat(ids, reps),
            "grp": np.repeat(grp, reps),
            "ng": np.repeat(reps, reps),  # per-doc distinct-gram total
            "nc0": np.zeros(len(flat), dtype="int64"),  # pre-counted hits
        })
        if hot_ref is None:
            return out
        # ceiling mode: count hot hits batch-locally and route them as
        # one per-doc row keyed by a doc-unique sentinel hash (spreads
        # uniformly over partitions instead of co-locating); only
        # sub-ceiling grams ride the gram-keyed exchange
        hot_set = ray.get(hot_ref)
        is_hot = np.isin(flat, hot_set, assume_unique=False)
        cold = out.loc[~is_hot]
        has_g = reps > 0
        csum = np.r_[0, np.cumsum(is_hot.astype("int64"))]
        starts = np.cumsum(np.r_[0, reps])[:-1] if len(reps) else \
            np.empty(0, dtype="int64")
        hot_per_doc = csum[starts + reps] - csum[starts]
        doc_rows = pd.DataFrame({
            "gh": pd.util.hash_pandas_object(
                pd.Series(ids[has_g]).astype(str) + "\x1fdocrow",
                index=False).to_numpy(),
            "doc": ids[has_g],
            "grp": grp[has_g],
            "ng": reps[has_g],
            "nc0": hot_per_doc[has_g],
        })
        return pd.concat([cold, doc_rows], ignore_index=True)

    exploded = docs_ds.map_batches(explode, batch_format="pandas")

    def mark(part: pd.DataFrame) -> pd.DataFrame:
        # rows are distinct (gh, doc) pairs, so per-gh row count IS the
        # distinct-doc count; every row of a gh lands in this partition.
        # (doc-sentinel rows from ceiling mode are per-doc unique, so
        # their count is 1 < min_docs and only their nc0 carries through)
        gh = part["gh"].to_numpy(dtype="uint64")
        order = np.argsort(gh, kind="stable")
        sg = gh[order]
        bounds = np.flatnonzero(np.r_[True, sg[1:] != sg[:-1], True])
        counts = np.diff(bounds)
        hit_sorted = np.repeat(counts >= min_docs, counts)
        hit = np.empty(len(gh), dtype="int64")
        hit[order] = hit_sorted.astype("int64")
        g = pd.DataFrame({"doc": part["doc"], "grp": part["grp"],
                          "ng": part["ng"],
                          "hit": hit + part["nc0"].to_numpy()})
        return g.groupby("doc", as_index=False).agg(
            grp=("grp", "first"), ng=("ng", "first"), nc=("hit", "sum"))

    per_doc_partials = partition_reduce(exploded, ["gh"], mark)

    # a doc fixes its group and gram total, so they ride in the key
    def per_doc(d: pd.DataFrame) -> pd.DataFrame:
        frac = d["nc"].to_numpy() / d["ng"].to_numpy()
        return pd.DataFrame({group_col: d["grp"], "frac": frac,
                             "dup": (frac > 0).astype("int64")})

    docs = group_agg(per_doc_partials, ["doc", "grp", "ng"],
                     {"nc": ("nc", "sum")}, finish=per_doc)

    def finish(out: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            group_col: out[group_col],
            "n_docs": out["n_docs"],
            "dup_docs": out["dup_docs"],
            "avg_dup_frac": (out["fr"] / out["n_docs"]).round(round_to),
        })

    return group_agg(
        docs, [group_col],
        {"n_docs": ("frac", "size"), "dup_docs": ("dup", "sum"),
         "fr": ("frac", "sum")},
        finish=finish)


def dup_gram_sql(docs_sel: str, id_col: str, text_col: str, group_col: str,
                 n: int = 5, min_docs: int = 2, round_to: int = 6) -> str:
    """DuckDB twin of :func:`dup_gram_stats` (compares gram STRINGS — a
    u64 collision on the Ray side would surface here as a mismatch, not
    hide). ``docs_sel`` is a FROM-able fragment."""
    return f"""
        WITH d_w AS (
            SELECT {id_col}, {group_col},
                   string_split(coalesce({text_col}, ''), ' ') AS w
            FROM {docs_sel}
        ),
        d_g AS (
            SELECT DISTINCT {id_col}, {group_col},
                   array_to_string(list_slice(w, CAST(i AS BIGINT),
                                              CAST(i + {n - 1} AS BIGINT)),
                                   ' ') AS g
            FROM d_w,
                 UNNEST(range(1, greatest(len(w) - {n} + 2, 1))) AS t(i)
        ),
        dup AS (
            SELECT g FROM d_g GROUP BY g HAVING COUNT(*) >= {min_docs}
        ),
        per_doc AS (
            SELECT d_g.{id_col}, any_value(d_g.{group_col}) AS {group_col},
                   COUNT(*) AS ng,
                   SUM(CASE WHEN dup.g IS NOT NULL THEN 1 ELSE 0 END) AS nc
            FROM d_g LEFT JOIN dup ON d_g.g = dup.g
            GROUP BY d_g.{id_col}
        )
        SELECT {group_col},
               COUNT(*) AS n_docs,
               CAST(SUM(CASE WHEN nc > 0 THEN 1 ELSE 0 END) AS BIGINT)
                   AS dup_docs,
               ROUND(AVG(CAST(nc AS DOUBLE) / ng), {round_to})
                   AS avg_dup_frac
        FROM per_doc GROUP BY {group_col}
    """
