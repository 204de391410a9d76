"""SoftDeDup — duplication-aware REWEIGHTING instead of removal (He et
al. 2024, "SoftDedup: an Efficient Data Reweighting Method for Speeding
Up Language Model Pre-training"). Hard exact-dedup (stages/dedup.py)
throws away every copy but one; the soft variant keeps all copies and
downweights each by its cluster's "commonness": a doc whose normalized
text occurs ``n`` times in the corpus gets sampling weight ``n**-beta``
(beta=1 ⇒ each cluster contributes total weight 1 — the paper's
inverse-commonness rule; beta<1 interpolates toward no dedup).

Reference anchor: the reference suppresses duplicate ingests whole
(DocProcAiService.py skip-if-seen); this is the published softening of
that rule for training-mixture design.

Kernels:

- :func:`exact_dup_cluster_sizes` — (text-hash, n) global cluster sizes;
- :func:`soft_dedup_weights` — per-doc (id, dup_count, weight) via one
  auto-tier hash join of the doc→hash map against the sizes table;
- :func:`soft_dedup_stats` — per-group corpus shape: doc counts, distinct
  texts, docs-in-dup-clusters, and the effective (weight-summed) corpus
  size — the headline number soft dedup exists to compute.

Scale shape: text is reduced to a u64 hash in the same batch that reads
it (``pd.util.hash_pandas_object`` — the repo's cross-process-
deterministic hash; the SQL twin groups by the text itself, so a
collision would be CAUGHT as an oracle mismatch, not hidden). The only
exchange is hash-keyed (h, group, cnt) partials — ~25 B/row of the
DEDUPED batch-local key space, never the corpus, never text. Each hash
lands in exactly one partition, so per-partition distinct/size math is
exact; the final reduce is a |groups|-row sum. Weight join-back rides
``state/joins.hash_join`` auto tiers. Float policy: ``effective_docs``
is a sum of O(1)-magnitude ``cnt * n**-beta`` terms rounded to 6 dp —
partition-order wiggle is ~1e-13, far inside the rounding.
"""

from __future__ import annotations

import numpy as np
import pandas as pd


def _text_hash(texts: pd.Series) -> np.ndarray:
    """u64 content hash of the (null-filled) text — deterministic across
    processes and parallelism (same primitive as stages/dsir.py)."""
    return pd.util.hash_pandas_object(texts.fillna(""),
                                      index=False).to_numpy()


def exact_dup_cluster_sizes(ds, text_col: str, *, id_col: str | None = None):
    """→ Dataset(h, n): global exact-dup cluster size per text hash.
    Per-batch partial counts, one hash-keyed grouped-sum exchange."""
    from ..state.groupby import group_agg

    hashes = ds.map_batches(
        lambda df: pd.DataFrame({"h": _text_hash(df[text_col])}),
        batch_format="pandas")
    return group_agg(hashes, ["h"], {"n": ("h", "size")})


def soft_dedup_weights(ds, id_col: str, text_col: str, *, beta: float = 1.0,
                       round_to: int = 6, keep_cols: tuple[str, ...] = ()):
    """→ Dataset(id, *keep_cols, dup_count, weight): the per-doc SoftDeDup
    sampling weights, ``weight = dup_count ** -beta`` rounded. The sizes
    table (one row per DISTINCT text) joins back on the u64 hash via the
    auto-tier hash join; text itself never exchanges."""
    from ..state.joins import hash_join

    sizes = exact_dup_cluster_sizes(ds, text_col)

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({id_col: df[id_col].to_numpy(),
                            "h": _text_hash(df[text_col])})
        for c in keep_cols:
            out[c] = df[c].to_numpy()
        return out

    joined = hash_join(ds.map_batches(keyed, batch_format="pandas"),
                       sizes, on="h")

    def weigh(df: pd.DataFrame) -> pd.DataFrame:
        n = df["n"].to_numpy(dtype="int64")
        out = pd.DataFrame({id_col: df[id_col].to_numpy()})
        for c in keep_cols:
            out[c] = df[c].to_numpy()
        out["dup_count"] = n
        out["weight"] = np.round(np.power(n.astype("float64"), -beta),
                                 round_to)
        return out

    return joined.map_batches(weigh, batch_format="pandas")


def soft_dedup_stats(ds, group_col: str, text_col: str, *, beta: float = 1.0,
                     round_to: int = 6):
    """→ Dataset(group, n_docs, n_distinct, dup_docs, effective_docs):
    the corpus-shape scorecard soft dedup exists for. ``effective_docs``
    = Σ_docs dup_count**-beta — the corpus size a sampler weighted by
    :func:`soft_dedup_weights` effectively trains on. One hash-keyed
    exchange of (h, group, cnt) partials; each hash resolves its global
    size inside its partition, then a |groups|-row final sum."""
    from ..state.groupby import group_agg, partition_reduce

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({"h": _text_hash(df[text_col]),
                            group_col: df[group_col].to_numpy()})
        out = out.groupby(["h", group_col], as_index=False).size()
        return out.rename(columns={"size": "cnt"}).astype({"cnt": "int64"})

    def per_partition(part: pd.DataFrame) -> pd.DataFrame:
        # every row of a hash lives in THIS partition → exact global n
        g = part.groupby(["h", group_col], as_index=False).agg(
            cnt=("cnt", "sum"))
        n_h = g.groupby("h")["cnt"].transform("sum").to_numpy(dtype="int64")
        cnt = g["cnt"].to_numpy(dtype="int64")
        eff = cnt * np.power(n_h.astype("float64"), -beta)
        rows = pd.DataFrame({
            group_col: g[group_col],
            "n": cnt,
            "d": np.ones(len(g), dtype="int64"),
            "dup": np.where(n_h > 1, cnt, 0).astype("int64"),
            "e": eff,
        })
        return rows.groupby(group_col, as_index=False).agg(
            n=("n", "sum"), d=("d", "sum"), dup=("dup", "sum"),
            e=("e", "sum"))

    partials = ds.map_batches(partial, batch_format="pandas")
    reduced = partition_reduce(partials, ["h"], per_partition)
    return group_agg(
        reduced, [group_col],
        {"n_docs": ("n", "sum"), "n_distinct": ("d", "sum"),
         "dup_docs": ("dup", "sum"), "e": ("e", "sum")},
        finish=lambda g: g.assign(effective_docs=g.pop("e").round(round_to)),
        num_partitions=4)


def soft_dedup_sql(planted_view: str, group_col: str, text_col: str, *,
                   beta: float = 1.0, round_to: int = 6) -> str:
    """DuckDB twin of :func:`soft_dedup_stats` over a planted-docs view —
    groups by the TEXT itself (the engine groups by its u64 hash, so a
    hash collision shows up as an oracle mismatch)."""
    return f"""
        WITH p AS (SELECT {group_col},
                          coalesce({text_col}, '') AS t FROM {planted_view}),
        sizes AS (SELECT t, COUNT(*) AS n FROM p GROUP BY t)
        SELECT {group_col},
               COUNT(*) AS n_docs,
               COUNT(DISTINCT p.t) AS n_distinct,
               SUM(CASE WHEN n > 1 THEN 1 ELSE 0 END)::BIGINT AS dup_docs,
               ROUND(SUM(POWER(n, {-beta})), {round_to}) AS effective_docs
        FROM p JOIN sizes USING (t)
        GROUP BY {group_col}
    """
