"""Exchange tagging: one key hash and one tag-and-group path.

:func:`key_hash` is the package's only key → partition mapping. A batch
gets ``__part = key_hash % P`` inside its own ``map_batches``
(``_tag_part``), and one ``groupby("__part").map_groups`` sort shuffle
(``_group_parts``) hands each of the P partitions, holding *all* rows of
its keys, to a VECTORIZED function (pandas groupby.agg / drop_duplicates /
merge): P udf calls instead of ``groupby(key)``'s one per key.
:func:`partition_reduce`, the ``state/joins`` shuffle tiers, the Bloom
prefilter, the triple aggregation's partials and PageRank's edge buckets
all place keys this way. Outputs depend only on the keys, never on the
partition a key lands in.

Skew note: a head key's rows land in one partition, so callers must
pre-aggregate per batch first (phase 0) so no single key's row count is
proportional to the corpus — the standard partial+final pattern.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd


def key_hash(df: pd.DataFrame, cols: list[str]) -> np.ndarray:
    """uint64 hash of the composite key ``cols``, one value per row.

    The key columns are hashed directly (``pd.util.hash_pandas_object``
    with its fixed hash key: deterministic across processes and runs),
    with no string cast. Integer columns are widened to int64 first, so an
    int32 side and an int64 side of a join hash equal keys equally."""
    key = [s.astype(np.int64, copy=False)
           if isinstance(s.dtype, np.dtype) and s.dtype.kind in "iu" else s
           for s in (df[c] for c in cols)]
    # a lone column hashes as a Series: no one-column frame to build
    key = key[0] if len(key) == 1 else pd.concat(key, axis=1)
    return pd.util.hash_pandas_object(key, index=False).to_numpy(np.uint64)


def _tag_part(df: pd.DataFrame, key_cols: list[str],
              num_partitions: int) -> pd.DataFrame:
    """``df`` plus ``__part = key_hash % num_partitions`` (a new frame)."""
    part = key_hash(df, key_cols) % np.uint64(num_partitions)
    return df.assign(__part=part.astype(np.int64))


def _group_parts(tagged, fn: Callable[[pd.DataFrame], pd.DataFrame]):
    """Co-locate ``_tag_part``-tagged rows by ``__part`` (one sort
    shuffle) and run ``fn`` once per partition, ``__part`` dropped."""
    return tagged.groupby("__part").map_groups(
        lambda group: fn(group.drop(columns="__part")), batch_format="pandas")


def resolve_num_partitions(ds, num_partitions: int | None) -> int:
    """``None`` → auto-size from the metadata-only input-bytes estimate
    (~64 MB per partition, state/joins.auto_buckets), so grouped exchanges
    scale their fan-in with input volume exactly like hash_join sizes its
    buckets. Explicit ints pass through untouched."""
    if num_partitions is not None:
        return num_partitions
    from .joins import auto_buckets

    return auto_buckets(ds, default=64)


def partition_reduce(
    ds,
    key_cols: list[str],
    reduce_partition: Callable[[pd.DataFrame], pd.DataFrame],
    num_partitions: int | None = None,
):
    """Co-locate all rows sharing ``key_cols`` values and apply a vectorized
    per-partition reduce. ``reduce_partition`` sees every row of every key
    hashed into its partition (the ``__part`` column is already dropped).

    ``num_partitions=None`` (the default) auto-sizes the fan-in from the
    metadata-only input-bytes estimate, targeting ~64 MB per partition
    (state/joins.auto_buckets — the same self-sizing hash_join uses), so a
    100× corpus gets 100× reduce tasks instead of 100× task size. Pass an
    explicit value only for inputs known to be small by construction
    (vocab-sized partials, dimension tables)."""
    num_partitions = resolve_num_partitions(ds, num_partitions)

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        return _tag_part(df, key_cols, num_partitions)

    return _group_parts(ds.map_batches(tag, batch_format="pandas"),
                        reduce_partition)


def distinct_rows(ds, key_cols: list[str], num_partitions: int | None = None):
    """Distinct rows by ``key_cols`` (vectorized drop_duplicates per
    partition; deterministic keep=first after a sort on the keys).
    ``num_partitions=None`` auto-sizes like :func:`partition_reduce`."""

    def reduce(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(key_cols).drop_duplicates(key_cols, keep="first")

    return partition_reduce(ds, key_cols, reduce, num_partitions)


def collect_pandas(ds, columns: list[str]) -> pd.DataFrame:
    """Driver-side collect via Arrow block concat (``to_pandas``) — never
    per-row ``take_all()``, which converts every row to a Python dict
    (~3 orders of magnitude slower; 40k rows ≈ 20 s). Empty datasets
    collect to a column-less frame, so normalize to ``columns``."""
    df = ds.to_pandas()
    if len(df) == 0:
        return pd.DataFrame({c: pd.Series([], dtype="object") for c in columns})
    return df[list(columns)]  # enforce the declared schema (and prune)
