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

Fan-in: only the exchange primitives here and in ``state/joins`` take a
partition count, and :func:`resolve_num_partitions` is the one rule that
sizes every exchange: a :func:`pin_partitions` block's count, else the
call's own constant (a few call sites whose input is small by
construction pass one), else ~64 MB of estimated input per partition.
Stage, pipeline and source functions take no fan-in parameter; tests and
scripts vary P with ``with pin_partitions(p):`` (the package never pins).

Skew note: a head key's rows land in one partition, so a grouped
aggregate must pre-aggregate per batch first (phase 0) so no single key's
row count is proportional to the corpus — the standard partial+final
pattern. :func:`group_agg` does phase 0 and the final combine from one
spec; :func:`partition_reduce` is for per-partition work that is not a
regroup over its own partition key (dedup, top-k, ``nunique``, joins of
partials, grouping by a finer key than the partition key).

Empty input: Ray Data never calls a ``map_batches`` UDF, a
``map_groups`` fn or a :func:`partition_reduce` reduce on zero rows; an
empty block, typed or column-less, passes through uncalled
(``tests/test_udf_empty_batches.py`` pins this for Ray 2.49.2). So no
UDF tests its own argument for emptiness
(``tests/test_no_empty_batch_guard.py``). A frame a UDF derives itself
(a filter's or a loop's result) can be empty: it returns the empty
slice when its output is a projection of the input, else a declared
``pa.Schema``'s ``empty_table()``, which Ray can size (it cannot sample
a zero-row object column).
"""

from __future__ import annotations

import contextlib
import contextvars
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


_pinned: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "raykg_pinned_partitions", default=None)


@contextlib.contextmanager
def pin_partitions(n: int):
    """Every exchange planned inside the block uses ``n`` partitions."""
    if n < 1:
        raise ValueError(f"partition count must be >= 1, got {n}")
    token = _pinned.set(n)
    try:
        yield
    finally:
        _pinned.reset(token)


def resolve_num_partitions(ds, num_partitions: int | None, *,
                           default: int = 64) -> int:
    """The fan-in of one exchange over ``ds`` (a Dataset, or a tuple of
    them for a join's two sides): the :func:`pin_partitions` count if one
    is set, else the call's ``num_partitions``, else the metadata-only
    input-bytes estimate at ~64 MB per partition (state/joins.auto_buckets,
    ``default`` when no estimate exists), so a 100× corpus gets 100× reduce
    tasks instead of 100× task size."""
    pinned = _pinned.get()
    if pinned is not None:
        return pinned
    if num_partitions is not None:
        return num_partitions
    from .joins import auto_buckets

    return auto_buckets(*(ds if isinstance(ds, tuple) else (ds,)),
                        default=default)


def partition_reduce(
    ds,
    key_cols: list[str],
    reduce_partition: Callable[[pd.DataFrame], pd.DataFrame],
    num_partitions: int | None = None,
):
    """Co-locate all rows sharing ``key_cols`` values and apply a vectorized
    per-partition reduce. ``reduce_partition`` sees every row of every key
    hashed into its partition (the ``__part`` column is already dropped).

    The partition count comes from :func:`resolve_num_partitions`: leave
    ``num_partitions`` unset to size it from the input, and pass a
    constant only for inputs small by construction (vocab-sized partials,
    dimension tables). A :func:`pin_partitions` block overrides both."""
    num_partitions = resolve_num_partitions(ds, num_partitions)

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        return _tag_part(df, key_cols, num_partitions)

    return _group_parts(ds.map_batches(tag, batch_format="pandas"),
                        reduce_partition)


# how each phase-0 partial combines in the final phase
_COMBINE = {"sum": "sum", "size": "sum", "count": "sum", "min": "min", "max": "max"}


def group_agg(ds, keys: list[str], aggs: dict[str, tuple[str, str]], *,
              finish: Callable[[pd.DataFrame], pd.DataFrame] | None = None,
              num_partitions: int | None = None):
    """Grouped aggregate ``GROUP BY keys`` as pandas named aggregation:
    ``aggs`` maps ``out -> (col, fn)`` with ``fn`` in sum/size/count/min/
    max. Phase 0 runs ``groupby(keys).agg(**aggs)`` once per batch (so the
    exchange carries O(groups × batches) rows, never O(rows)); the final
    phase combines the partials per hash partition (:func:`partition_reduce`):
    ``size``/``count`` by sum, ``sum`` by sum, ``min``/``max`` by min/max.
    Counts and integer sums come out int64. ``finish(df)`` (rounding,
    ratios, filters) runs on each partition's combined frame. Null keys
    drop out, as in pandas and in both phases."""
    keys = list(keys)
    for out, (_, fn) in aggs.items():
        if fn not in _COMBINE:
            raise ValueError(f"group_agg: {out!r} uses {fn!r}; "
                             f"supported: {sorted(_COMBINE)}")
    final = {out: (out, _COMBINE[fn]) for out, (_, fn) in aggs.items()}
    counts = [out for out, (_, fn) in aggs.items() if fn in ("size", "count")]
    sums = [out for out, (_, fn) in aggs.items() if fn == "sum"]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(keys, as_index=False, sort=False).agg(**aggs)

    def combine(part: pd.DataFrame) -> pd.DataFrame:
        out = part.groupby(keys, as_index=False).agg(**final)
        ints = counts + [c for c in sums if out[c].dtype.kind in "iub"]
        out = out.astype({c: "int64" for c in ints})
        return finish(out) if finish else out

    return partition_reduce(ds.map_batches(partial, batch_format="pandas"),
                            keys, combine, num_partitions)


def distinct_rows(ds, key_cols: list[str], num_partitions: int | None = None):
    """Distinct rows by ``key_cols`` (vectorized drop_duplicates per
    partition; deterministic keep=first after a sort on the keys).
    Partitions are sized like :func:`partition_reduce`'s."""

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
