"""Benchmark decontamination: flag training documents whose word
n-grams overlap a held-out benchmark set (the GPT-3 appendix-C /
Gopher-style 13-gram decontamination pass every serious pretraining
pipeline runs before training; Brown et al. 2020 §C, Rae et al. 2021).

Semantics (shared EXACTLY by the SQL twin): split each text on single
spaces, form all consecutive ``n``-word grams joined by single spaces,
DISTINCT per document; a doc is contaminated iff any of its grams occurs
in the benchmark side's distinct-gram set. Docs with fewer than ``n``
words have no grams and are excluded from the output (both sides).

Scale shape — two tiers behind one metadata gate (``state.tier``;
``BENCH_BROADCAST_MAX`` benchmark gram-hash rows):

- **broadcast** (the driver tier; benchmark fits a worker): the
  benchmark's distinct gram HASHES (u64 siphash — 8 bytes/gram, ~80 MB
  per 10^7 grams; text never ships) are collected once, ``ray.put``
  once, and every doc batch counts membership with a vectorized
  ``np.isin`` against the sorted array. One streaming pass over the
  corpus, zero shuffle.
- **distributed** (benchmark above the gate): both sides explode to
  gram-hash rows, a gram-hash-keyed exchange marks doc grams seen on the
  bench side, and a doc-keyed exchange sums the per-doc contaminated
  counts. Only (hash, id) int64 pairs move.

Hash collisions can only create FALSE POSITIVES (a clean gram flagged),
at ~(#grams)^2 / 2^64 — negligible below ~10^8 distinct grams and the
standard trade (Lee et al. 2021 make the same one for dedup). The SQL
twin compares gram STRINGS, so an (astronomically unlikely) collision
would surface as an oracle mismatch rather than hide.

No reference analog — "beyond the reference" training-data op; nearest
reference shape is the content-hash dedup family (SURVEY §2 W3).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray

# benchmark gram-hash rows (one per distinct gram per batch) at or below
# which the benchmark side is broadcast; above it both sides shuffle
BENCH_BROADCAST_MAX = 20_000_000


def _gram_hashes(texts: pd.Series, n: int) -> list[np.ndarray]:
    """Per-row array of DISTINCT n-gram u64 hashes (stable siphash via
    pd.util.hash_pandas_object — the same cross-process-deterministic
    hash partition_reduce keys on)."""
    out: list[np.ndarray] = []
    offsets = [0]
    grams: list[str] = []
    for t in texts.fillna(""):
        ws = t.split(" ")
        seen = {" ".join(ws[i:i + n]) for i in range(len(ws) - n + 1)}
        grams.extend(seen)
        offsets.append(len(grams))
    if grams:
        h = pd.util.hash_pandas_object(
            pd.Series(grams, dtype="object"), index=False).to_numpy()
    else:
        h = np.empty(0, dtype="uint64")
    for a, b in zip(offsets, offsets[1:]):
        out.append(h[a:b])
    return out


def _bench_gram_partials(bench_ds, text_col: str, n: int):
    def explode(df: pd.DataFrame) -> pd.DataFrame:
        hs = _gram_hashes(df[text_col], n)
        flat = (np.concatenate(hs) if hs else np.empty(0, dtype="uint64"))
        return pd.DataFrame({"gh": pd.unique(flat)})

    return bench_ds.map_batches(explode, batch_format="pandas")


def ngram_decontaminate(docs_ds, bench_ds, id_col: str, text_col: str,
                        group_col: str, *, n: int = 5,
                        num_partitions: int | None = None, round_to: int = 6):
    """Per-``group_col`` contamination stats of ``docs_ds`` against
    ``bench_ds``: ``n_docs``, ``contaminated_docs`` (≥1 gram shared with
    the benchmark), ``avg_contam_frac`` (mean over docs of
    contaminated-distinct-grams / distinct-grams, rounded).

    The tier gates on the benchmark's per-batch-distinct gram count, an
    upper bound of its distinct grams.
    """
    from ..state.groupby import collect_pandas, partition_reduce
    from ..state.tier import choose_tier

    tier, bench_partials = choose_tier(
        _bench_gram_partials(bench_ds, text_col, n), BENCH_BROADCAST_MAX,
        what="ngram_decontaminate")

    def finalize(part: pd.DataFrame) -> pd.DataFrame:
        out = part.groupby(group_col, as_index=False).agg(
            n_docs=("nd", "sum"), c_docs=("cd", "sum"), fr=("fr", "sum"))
        return pd.DataFrame({
            group_col: out[group_col],
            "n_docs": out["n_docs"].astype("int64"),
            "contaminated_docs": out["c_docs"].astype("int64"),
            "avg_contam_frac": (out["fr"] / out["n_docs"]).round(round_to),
        })

    if tier == "driver":
        bench_df = collect_pandas(bench_partials, ["gh"])
        bench_sorted = np.sort(
            pd.unique(bench_df["gh"].to_numpy(dtype="uint64")))
        ref = ray.put(bench_sorted)

        def score(df: pd.DataFrame) -> pd.DataFrame:
            bs = ray.get(ref)
            hs = _gram_hashes(df[text_col], n)
            ng = np.array([len(h) for h in hs], dtype="int64")
            nc = np.array(
                [int(np.isin(h, bs, assume_unique=True).sum()) for h in hs],
                dtype="int64")
            keep = ng > 0
            g = pd.DataFrame({
                group_col: df[group_col].to_numpy()[keep],
                "frac": nc[keep] / ng[keep],
            })
            return g.groupby(group_col, as_index=False).agg(
                nd=("frac", "size"),
                cd=("frac", lambda s: int((s > 0).sum())),
                fr=("frac", "sum"),
            )

        partials = docs_ds.map_batches(score, batch_format="pandas")
        return partition_reduce(partials, [group_col], finalize,
                                num_partitions=num_partitions)

    # ---- distributed tier: gram-hash exchange, then doc-keyed rollup ----
    def explode_docs(df: pd.DataFrame) -> pd.DataFrame:
        hs = _gram_hashes(df[text_col], n)
        ids = df[id_col].to_numpy()
        grp = df[group_col].to_numpy()
        reps = np.array([len(h) for h in hs], dtype="int64")
        return pd.DataFrame({
            "gh": (np.concatenate(hs) if hs
                   else np.empty(0, dtype="uint64")),
            "doc": np.repeat(ids, reps),
            "grp": np.repeat(grp, reps),
            "ng": np.repeat(reps, reps),  # per-doc distinct-gram total
            "is_bench": np.zeros(int(reps.sum()), dtype="bool"),
        })

    def bench_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "gh": df["gh"].to_numpy(dtype="uint64"),
            "doc": np.full(len(df), -1, dtype="int64"),
            "grp": np.full(len(df), "", dtype="object"),
            "ng": np.zeros(len(df), dtype="int64"),
            "is_bench": np.ones(len(df), dtype="bool"),
        })

    union = docs_ds.map_batches(explode_docs, batch_format="pandas").union(
        bench_partials.map_batches(bench_rows, batch_format="pandas"))

    def mark(part: pd.DataFrame) -> pd.DataFrame:
        bench_h = np.unique(
            part.loc[part["is_bench"], "gh"].to_numpy(dtype="uint64"))
        d = part.loc[~part["is_bench"]]
        if not len(d):
            return pd.DataFrame({
                "doc": pd.Series(dtype="int64"),
                "grp": pd.Series(dtype="object"),
                "ng": pd.Series(dtype="int64"),
                "nc": pd.Series(dtype="int64"),
            })
        hit = np.isin(d["gh"].to_numpy(dtype="uint64"), bench_h,
                      assume_unique=False)
        g = pd.DataFrame({"doc": d["doc"], "grp": d["grp"], "ng": d["ng"],
                          "hit": hit.astype("int64")})
        out = g.groupby("doc", as_index=False).agg(
            grp=("grp", "first"), ng=("ng", "first"), nc=("hit", "sum"))
        return out

    per_doc_partials = partition_reduce(union, ["gh"], mark,
                                        num_partitions=num_partitions)

    def rollup(part: pd.DataFrame) -> pd.DataFrame:
        d = part.groupby("doc", as_index=False).agg(
            grp=("grp", "first"), ng=("ng", "first"), nc=("nc", "sum"))
        frac = d["nc"].to_numpy() / d["ng"].to_numpy()
        g = pd.DataFrame({group_col: d["grp"], "frac": frac})
        return g.groupby(group_col, as_index=False).agg(
            nd=("frac", "size"),
            cd=("frac", lambda s: int((s > 0).sum())),
            fr=("frac", "sum"),
        )

    grouped = partition_reduce(per_doc_partials, ["doc"], rollup,
                               num_partitions=num_partitions)
    return partition_reduce(grouped, [group_col], finalize,
                            num_partitions=num_partitions)


def decontam_sql(docs_sel: str, bench_sel: str, id_col: str, text_col: str,
                 group_col: str, n: int = 5, round_to: int = 6) -> str:
    """DuckDB twin of :func:`ngram_decontaminate` over two SELECTable
    relations (compares gram STRINGS — a u64 collision on the Ray side
    would surface here as a mismatch, not hide). ``docs_sel`` /
    ``bench_sel`` are FROM-able fragments, e.g. ``documents`` or a
    parenthesised subquery."""
    def grams(rel: str, alias: str) -> str:
        return f"""
        {alias}_w AS (
            SELECT {id_col}, {group_col},
                   string_split(coalesce({text_col}, ''), ' ') AS w
            FROM {rel}
        ),
        {alias}_g AS (
            SELECT DISTINCT {id_col}, {group_col},
                   array_to_string(list_slice(w, CAST(i AS BIGINT),
                                              CAST(i + {n - 1} AS BIGINT)),
                                   ' ') AS g
            FROM {alias}_w,
                 UNNEST(range(1, greatest(len(w) - {n} + 2, 1))) AS t(i)
        )"""

    return f"""
        WITH {grams(docs_sel, "d")}, {grams(bench_sel, "b")},
        bench AS (SELECT DISTINCT g FROM b_g),
        per_doc AS (
            SELECT d_g.{id_col}, any_value(d_g.{group_col}) AS {group_col},
                   COUNT(*) AS ng,
                   SUM(CASE WHEN bench.g IS NOT NULL THEN 1 ELSE 0 END) AS nc
            FROM d_g LEFT JOIN bench ON d_g.g = bench.g
            GROUP BY d_g.{id_col}
        )
        SELECT {group_col},
               COUNT(*) AS n_docs,
               CAST(SUM(CASE WHEN nc > 0 THEN 1 ELSE 0 END) AS BIGINT)
                   AS contaminated_docs,
               ROUND(AVG(CAST(nc AS DOUBLE) / ng), {round_to})
                   AS avg_contam_frac
        FROM per_doc GROUP BY {group_col}
    """
