"""Near-duplicate cluster canonicalization — the step AFTER pair
finding that an actual dedup pipeline ships: transitively close the
near-dup pair graph into clusters and keep exactly ONE survivor per
cluster, chosen by quality (the RefinedWeb/Gopher "keep the best copy"
rule; doc-level exact dedup keeps the min id, this is the fuzzy-cluster
generalization).

Composition of existing scale-audited machinery, no new exchange
shapes:
1. pairs — stages/dedup.minhash_lsh_pairs (banded LSH, exact-jaccard
   verified, auto-tiered);
2. clusters — the canonicalization engine's components kernels
   (stages/canonicalize): driver union-find under
   ``DRIVER_EDGES_MAX`` distinct edges, pointer-jumping
   min-label propagation beyond it — duplicate-pair edge sets are a
   vanishing fraction of corpus size, so the gate almost always holds;
3. survivor — docs join their cluster label (state/joins auto tier,
   INNER: docs in no cluster never leave their batch), quality scored
   in-batch (stages/textstats.quality_score), then one cluster-keyed
   exchange picks (quality DESC, id ASC) per cluster.

Output: one row per CLUSTERED doc (id, cluster_id, quality, keep) —
docs outside any cluster are implicit keepers and are not emitted (the
table is dup-cluster-sized, not corpus-sized). ``keep=False`` rows are
the delete list a curation run applies.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from ..config import KGConfig
from ..state.groupby import collect_pandas, distinct_rows, partition_reduce
from ..state.joins import hash_join
from ..state.tier import choose_tier


def _cluster_labels(ds, id_col: str, text_col: str, *, threshold: float,
                    shingle_words: int, seed: int, cfg: KGConfig,
                    label_col: str):
    """Shared closure machinery: MinHash-LSH pair graph → components →
    Dataset(__sid, <label_col>) with one row per CLUSTERED doc (the
    cluster label is the lexicographic-min member id as a string).
    Tier choice (driver union-find vs distributed min-label propagation)
    follows ``DRIVER_EDGES_MAX`` exactly like canonicalization."""
    from .canonicalize import (
        DRIVER_EDGES_MAX,
        _components_distributed,
        _components_driver,
    )
    from .dedup import minhash_lsh_pairs

    pairs = minhash_lsh_pairs(
        ds, id_col, text_col, threshold=threshold,
        shingle_words=shingle_words, seed=seed)
    tier, edges = choose_tier(pairs.map_batches(
        lambda t: pa.table({
            "src": t["id_a"].cast(pa.string()),
            "dst": t["id_b"].cast(pa.string()),
        }), batch_format="pyarrow"), DRIVER_EDGES_MAX, what="near_dup_clusters")
    surfaces = distinct_rows(
        edges.map_batches(
            lambda t: pa.table({"surface": pa.concat_arrays(
                [t["src"].combine_chunks(), t["dst"].combine_chunks()])}),
            batch_format="pyarrow"),
        ["surface"]).materialize()
    if tier == "driver":
        comp = _components_driver(
            collect_pandas(edges, ["src", "dst"]),
            collect_pandas(surfaces, ["surface"])["surface"].tolist())
        return ray.data.from_arrow(pa.table({
            "__sid": pa.array(sorted(comp), pa.string()),
            label_col: pa.array([comp[n] for n in sorted(comp)],
                                pa.string()),
        }))
    return _components_distributed(edges, surfaces, cfg).map_batches(
        lambda t: pa.table({"__sid": t["node"], label_col: t["label"]}),
        batch_format="pyarrow")


def near_dup_keep_best(ds, id_col: str, text_col: str, *,
                       threshold: float = 0.8, shingle_words: int = 5,
                       seed: int = 42, cfg: KGConfig | None = None):
    """(id, cluster_id, quality, keep) over every doc that belongs to a
    near-dup cluster at ``threshold``. Ids are carried as strings inside
    the component kernels (their contract) and joined back on the
    original column."""
    from .textstats import quality_score

    cfg = cfg or KGConfig()
    labels = _cluster_labels(
        ds, id_col, text_col, threshold=threshold,
        shingle_words=shingle_words, seed=seed, cfg=cfg,
        label_col="cluster_id")

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            id_col: df[id_col],
            "__sid": df[id_col].astype(str),
            "quality": quality_score(df[text_col]),
        })

    scored = hash_join(ds.map_batches(tag, batch_format="pandas"),
                       labels, on="__sid")

    def pick(part: pd.DataFrame) -> pd.DataFrame:
        part = part.sort_values(["cluster_id", "quality", "__sid"],
                                ascending=[True, False, True], kind="stable")
        keep = ~part["cluster_id"].duplicated()
        return pd.DataFrame({
            id_col: part[id_col], "cluster_id": part["cluster_id"],
            "quality": part["quality"], "keep": keep.to_numpy(),
        })

    return partition_reduce(scored, ["cluster_id"], pick)


def leakage_safe_split(ds, id_col: str, text_col: str, *,
                       holdout_rate: float = 0.1, threshold: float = 0.8,
                       shingle_words: int = 5, seed: int = 42,
                       cfg: KGConfig | None = None):
    """Train/holdout split that CANNOT leak near-duplicates across the
    boundary (the contamination mode Lee et al. 2021 §6.2 measure in
    real splits): the split unit is the near-dup CLUSTER — every member
    of a cluster hashes to the same side; singletons split by their own
    id. Deterministic (stable_u64 of the unit key), so the split is
    reproducible from (corpus, threshold, seed) alone.

    Returns (id, unit, split) with split ∈ {"train", "holdout"} —
    cluster closure reuses :func:`near_dup_keep_best`'s machinery."""
    from ..functions.hashing import stable_u64

    cfg = cfg or KGConfig()
    labels = _cluster_labels(
        ds, id_col, text_col, threshold=threshold,
        shingle_words=shingle_words, seed=seed, cfg=cfg,
        label_col="__unit")

    def sid(df: pd.DataFrame) -> pd.DataFrame:
        out = df[[id_col]].copy()
        out["__sid"] = df[id_col].astype(str)
        return out

    tagged = hash_join(ds.map_batches(sid, batch_format="pandas"),
                       labels, on="__sid", how="left")
    cut = int(holdout_rate * (1 << 32))

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        unit = df["__unit"].fillna(df["__sid"])
        h = unit.map(lambda u: stable_u64(u, seed) >> 32)  # top 32 bits
        return pd.DataFrame({
            id_col: df[id_col], "unit": unit,
            "split": np.where(h < cut, "holdout", "train"),
        })

    return tagged.map_batches(assign, batch_format="pandas")


def keep_best_and_split(ds, id_col: str, text_col: str, *,
                        threshold: float = 0.8, shingle_words: int = 5,
                        holdout_rate: float = 0.1, seed: int = 42,
                        cfg: KGConfig | None = None):
    """One pass over the pair graph serving BOTH downstream decisions a
    curation release needs: the per-cluster survivor pick (keep-best) and
    the leakage-safe train/holdout assignment. The MinHash-LSH pairs and
    the component closure — the expensive parts — are computed ONCE and
    shared; running :func:`near_dup_keep_best` then
    :func:`leakage_safe_split` separately would shingle the corpus twice
    for identical (threshold, seed) clusters.

    The split unit is the ORIGINAL cluster (computed before survivor
    removal), so a survivor inherits its cluster's side and dropping the
    losers cannot move anything across the boundary.

    Returns one row per INPUT doc: (id, quality, keep, unit, split) —
    singletons keep=True and split by their own id; clustered docs keep
    the (quality DESC, id ASC) best and split by cluster label."""
    from ..functions.hashing import stable_u64
    from .textstats import quality_score

    cfg = cfg or KGConfig()
    labels = _cluster_labels(
        ds, id_col, text_col, threshold=threshold,
        shingle_words=shingle_words, seed=seed, cfg=cfg,
        label_col="__unit")

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            id_col: df[id_col],
            "__sid": df[id_col].astype(str),
            "quality": quality_score(df[text_col]),
        })

    joined = hash_join(ds.map_batches(tag, batch_format="pandas"),
                       labels, on="__sid", how="left")
    cut = int(holdout_rate * (1 << 32))

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        clustered = df["__unit"].notna()
        unit = df["__unit"].fillna(df["__sid"])
        h = unit.map(lambda u: stable_u64(u, seed) >> 32)  # top 32 bits
        return pd.DataFrame({
            id_col: df[id_col], "__sid": df["__sid"],
            "quality": df["quality"], "clustered": clustered.to_numpy(),
            "unit": unit, "split": np.where(h < cut, "holdout", "train"),
        })

    assigned = joined.map_batches(assign, batch_format="pandas")
    out_cols = [id_col, "quality", "keep", "unit", "split"]

    # singletons never exchange — keep=True in-batch
    def single(df: pd.DataFrame) -> pd.DataFrame:
        return df[~df["clustered"]].assign(keep=True)[out_cols]

    # clustered docs: one unit-keyed exchange picks the survivor
    def clustered_only(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["clustered"]]

    def pick(part: pd.DataFrame) -> pd.DataFrame:
        part = part.sort_values(["unit", "quality", "__sid"],
                                ascending=[True, False, True], kind="stable")
        keep = ~part["unit"].duplicated()
        return part.assign(keep=keep.to_numpy())[out_cols]

    singles = assigned.map_batches(single, batch_format="pandas")
    picked = partition_reduce(
        assigned.map_batches(clustered_only, batch_format="pandas"),
        ["unit"], pick)
    return singles.union(picked)
