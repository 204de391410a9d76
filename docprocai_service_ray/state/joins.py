"""Join / lookup strategies (SURVEY.md §2.4 J1–J7).

Three tiers, chosen by the *size of the small side*, never by row count of
the big side:

- ``ray.put`` + ``lookup inside map_batches``: the small side
  (alias dictionary, entity map, dup-url winners) is ``ray.put`` ONCE and
  read in each actor's ``__init__`` / each task's first batch — never
  re-shipped per batch. This is the ST7 pattern (SURVEY.md §2.3) and
  replaces the reference's per-query candidate fetch
  (service/DocProcAiService.py:670-680).
- ``semi_join_filter`` / ``anti_join_filter``: broadcast key set, filter
  inside map_batches (J4/J5 analogs, SegmentDbConnector.py:235-252 and
  DocProcAiService.py:616-637).
- ``hash_join`` / ``asof_join`` shuffle tiers: both sides large →
  partitioned join. ``_co_partition`` aligns both sides to one schema and
  tags ``__side`` and ``__part = key_hash(key) % B`` inside each side's
  own map; ``state.groupby._group_parts`` groups the union by ``__part``
  for one vectorized pandas merge / ``merge_asof`` per partition, so a
  key lands where ``partition_reduce`` would put it. B comes from
  ``state.groupby.resolve_num_partitions``, the one fan-in rule: by
  default a METADATA-ONLY input-bytes estimate (never by executing the
  inputs) targeting ~64 MB per bucket; ``salt=k`` splits each left key
  into k sub-keys and replicates the right side k ways for skewed keys.

The broadcast-or-shuffle choice of ``strategy="auto"`` is a
``state.tier.tier_for`` gate (``hash_join`` / ``asof_join``: ``driver``
is the broadcast tier), so it logs like every other gate and
``state.tier.forced`` pins it.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from .groupby import _group_parts, _tag_part, key_hash, resolve_num_partitions
from .tier import tier_for


_TARGET_BUCKET_BYTES = 64 << 20  # ~64 MB of input per merge task


def _meta_size_bytes(ds) -> int | None:
    """Metadata-only size estimate: the dataset's own inferred size if
    known (reads, materialized datasets), else the sum over its logical
    input dependencies (maps usually shrink their input, so this is an
    upper-bound-ish estimate). NEVER executes the dataset."""

    def walk(op) -> int | None:
        try:
            s = op.infer_metadata().size_bytes
        except Exception:
            return None
        if s is not None:
            return s
        deps = getattr(op, "input_dependencies", None)
        if not deps:
            return None
        tot = 0
        for d in deps:
            ds_ = walk(d)
            if ds_ is None:
                return None
            tot += ds_
        return tot

    try:
        return walk(ds._logical_plan.dag)
    except Exception:
        return None


def auto_buckets(*datasets, default: int = 32, lo: int = 8, hi: int = 4096) -> int:
    """Bucket count targeting ~64 MB of estimated input per bucket; falls
    back to ``default`` when no metadata estimate exists. Scales with data
    volume so a 100× corpus gets 100× merge tasks, not 100× task size."""
    total = 0
    for ds in datasets:
        s = _meta_size_bytes(ds)
        if s is None:
            return default
        total += s
    return min(hi, max(lo, (total // _TARGET_BUCKET_BYTES) + 1))


def collect_broadcast_df(ds, columns: list[str], *,
                         max_bytes: int = 256 << 20):
    """Size-gated driver collect for a BROADCAST side (dimension tables):
    prunes to ``columns`` first, then raises LOUDLY when the metadata-only
    size estimate exceeds ``max_bytes`` instead of OOMing the driver — a
    caller above the gate should ride :func:`hash_join`'s partitioned tier
    instead. Same gate discipline as ``emap_broadcast_max_bytes`` /
    ``asof_join.max_partition_rows``."""
    from .groupby import collect_pandas

    pruned = ds.select_columns(columns)
    # upper-bound-ish estimate (full input size when projection pushdown
    # isn't reflected in metadata) — a dim that trips it was never a
    # broadcast candidate anyway
    sz = _meta_size_bytes(pruned)
    if sz is not None and sz > max_bytes:
        raise ValueError(
            f"broadcast side is ~{sz >> 20} MiB (> {max_bytes >> 20} MiB "
            "gate) — too large for a driver collect + ray.put broadcast; "
            "use hash_join's partitioned tier instead"
        )
    return collect_pandas(pruned, columns)


def _key_array_once(keys_ref: ray.ObjectRef):
    """Per-task memo of the broadcast key set as a pyarrow Array — built
    on the first batch a task sees, reused for every later batch
    (ADVICE/VERDICT r4 nit: never pa.array(list(keys)) per batch)."""
    cache: dict = {}

    def get() -> pa.Array:
        arr = cache.get("arr")
        if arr is None:
            arr = cache["arr"] = pa.array(list(ray.get(keys_ref)))
        return arr

    return get


def semi_join_filter(ds, column: str, keys_ref: ray.ObjectRef):
    """Keep rows whose ``column`` value is in the broadcast key set."""
    key_arr = _key_array_once(keys_ref)

    def _filter(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.filter(pc.is_in(batch[column], key_arr()))

    return ds.map_batches(_filter, batch_format="pyarrow")


def anti_join_filter(ds, column: str, keys_ref: ray.ObjectRef):
    """Drop rows whose ``column`` value is in the broadcast key set."""
    key_arr = _key_array_once(keys_ref)

    def _filter(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.filter(
            pc.invert(pc.is_in(batch[column], key_arr()))
        )

    return ds.map_batches(_filter, batch_format="pyarrow")


_BROADCAST_MAX_BYTES = 64 << 20  # small-side cap for the map-side join tier


def _collect_arrow(ds) -> pa.Table:
    """Materialize a (small, size-gated) Dataset as one Arrow table on the
    driver — only ever called under a broadcast byte gate."""
    tables = ray.get(ds.to_arrow_refs())
    # to_arrow_refs hands back raw block refs; blocks that materialized as
    # pandas (block format after groupby/sort is execution-dependent) arrive
    # as DataFrames and must be converted before concat.
    tables = [
        t if isinstance(t, pa.Table) else pa.Table.from_pandas(t, preserve_index=False)
        for t in tables
    ]
    if not tables:
        schema = ds.schema()  # None for an empty Dataset without a schema
        return pa.Table.from_pylist(
            [], schema=None if schema is None else schema.base_schema)
    return pa.concat_tables(tables, promote_options="default").combine_chunks()


def _broadcast_join(left, right, keys: list[str], *, how: str,
                    suffixes: tuple[str, str]):
    """Map-side join: the right side is collected once (≤ the broadcast
    cap), ``ray.put`` once, and every left batch runs a vectorized
    ``pyarrow.Table.join`` against it — ZERO shuffle, no repartitioning
    of the big side. The analog of Spark's auto-broadcast tier.

    An empty side without a schema (what an exchange over no rows gives)
    has no columns to join on: an empty left joins to itself, an empty
    right keeps the left rows of a left join and none of an inner one."""
    l_schema = left.schema()
    if l_schema is None:
        return left
    r_tbl = _collect_arrow(right)
    if not r_tbl.num_columns:
        return left if how == "left" else left.limit(0)
    l_cols = l_schema.names
    rename = {
        c: c + suffixes[1]
        for c in r_tbl.schema.names
        if c in l_cols and c not in keys
    }
    if rename:
        r_tbl = r_tbl.rename_columns(
            [rename.get(c, c) for c in r_tbl.schema.names]
        )
    # harmonize key dtypes with the left side (pa.Table.join is strict);
    # left may be pandas-blocked, in which case the first batch casts
    l_schema = l_schema.base_schema
    if isinstance(l_schema, pa.Schema):
        for k in keys:
            lt = l_schema.field(k).type
            if r_tbl.schema.field(k).type != lt:
                r_tbl = r_tbl.set_column(
                    r_tbl.schema.get_field_index(k), k, r_tbl[k].cast(lt)
                )
    r_ref = ray.put(r_tbl)
    join_type = {"inner": "inner", "left": "left outer"}[how]

    def _join(batch: pa.Table) -> pa.Table:
        r = ray.get(r_ref)
        for k in keys:  # per-batch key-type harmonization (pandas blocks)
            if batch.schema.field(k).type != r.schema.field(k).type:
                batch = batch.set_column(
                    batch.schema.get_field_index(k), k,
                    batch[k].cast(r.schema.field(k).type),
                )
        return batch.join(r, keys=keys, join_type=join_type)

    # batch_size=None → one call per BLOCK: pa.Table.join rebuilds the
    # right-side hash table per call, so row-sized batches would pay that
    # build hundreds of times per block
    return left.map_batches(
        _join, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


def _bloom_positions(h1: np.ndarray, bits: int, n_hashes: int):
    """Bloom probe positions of key hashes ``h1`` by double hashing
    (h1 + i*h2 mod ``bits``, i < ``n_hashes``), as a (byte index, bit mask)
    pair of ``(n_hashes, len(h1))`` arrays."""
    h2 = (h1 * np.uint64(0x9E3779B97F4A7C15)) | np.uint64(1)
    pos = (h1 + np.arange(n_hashes, dtype=np.uint64)[:, None] * h2) % np.uint64(bits)
    return (pos >> 3).astype(np.int64), np.left_shift(1, pos & 7).astype(np.uint8)


def build_key_bloom(ds, keys: list[str], *, bits: int = 1 << 23,
                    n_hashes: int = 6) -> bytes:
    """Bloom filter over ``ds``'s key column(s): per-block partial bitmaps
    (one ``bits/8``-byte row per block, OR-merged 8-way before the driver
    sees them), probed at :func:`_bloom_positions` of the exchange
    :func:`key_hash`. Default 1 MiB bitmap ≈ 1% false positives at ~800k
    distinct keys (fp ≈ (1-e^{-kn/m})^k); size ``bits`` up for bigger key
    domains — false positives only cost shuffle bytes, never correctness."""
    nbytes = bits // 8

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        bm = np.zeros(nbytes, dtype=np.uint8)
        if len(df):
            idx, bit = _bloom_positions(key_hash(df, keys), bits, n_hashes)
            np.bitwise_or.at(bm, idx.ravel(), bit.ravel())
        return pd.DataFrame({"bloom": [bm.tobytes()]})

    def or_merge(df: pd.DataFrame) -> pd.DataFrame:
        acc = np.zeros(nbytes, dtype=np.uint8)
        for payload in df["bloom"]:
            acc |= np.frombuffer(payload, dtype=np.uint8)
        return pd.DataFrame({"bloom": [acc.tobytes()]})

    parts = (
        ds.map_batches(partial, batch_format="pandas", batch_size=None)
        .repartition(8)
        .map_batches(or_merge, batch_format="pandas")
        .take_all()
    )
    acc = np.zeros(nbytes, dtype=np.uint8)
    for row in parts:
        acc |= np.frombuffer(row["bloom"], dtype=np.uint8)
    return acc.tobytes()


def bloom_filter_batches(ds, keys: list[str], bloom_ref: ray.ObjectRef, *,
                         bits: int, n_hashes: int = 6):
    """Keep only rows whose key MIGHT be in the bloom (no false negatives)."""

    def keep(df: pd.DataFrame) -> pd.DataFrame:
        bm = np.frombuffer(ray.get(bloom_ref), dtype=np.uint8)
        idx, bit = _bloom_positions(key_hash(df, keys), bits, n_hashes)
        return df[((bm[idx] & bit) != 0).all(axis=0)]

    return ds.map_batches(keep, batch_format="pandas")


def _hash_class(t):
    """A key column's type as :func:`key_hash` sees it: every integer width
    is one class (widened to int64), a dictionary column hashes as its
    values, ``None`` (null type / unknown) is never checked."""
    if isinstance(t, pa.DataType):
        if pa.types.is_dictionary(t):
            t = t.value_type
        if pa.types.is_integer(t):
            return "int"
        if pa.types.is_string(t) or pa.types.is_large_string(t):
            return "str"
        return None if pa.types.is_null(t) else str(t)
    return "object" if t is object else None


def _check_key_types(l_schema, r_schema, keys: list[str]) -> None:
    """Raise ``TypeError`` when a join key's two column types would hash
    equal keys apart (string vs int64, float vs int, datetime64 units).
    A pandas ``object`` column may hold strings, so it pairs with str."""
    lt = dict(zip(l_schema.names, l_schema.types))
    rt = dict(zip(r_schema.names, r_schema.types))
    for k in keys:
        a, b = _hash_class(lt.get(k)), _hash_class(rt.get(k))
        if None in (a, b) or a == b or {a, b} == {"str", "object"}:
            continue
        raise TypeError(
            f"join key {k!r} has type {lt[k]} on the left and {rt[k]} on "
            "the right; equal keys would not co-locate — cast one side first")


def _co_partition(left, l_schema, right, keys: list[str],
                  suffix: str, num_partitions: int, salt: int = 1):
    """Shuffle-tier side alignment shared by :func:`hash_join` and
    :func:`asof_join`. ``l_schema`` is ``left.schema()``, read once by the
    caller; key types that cannot co-locate raise (:func:`_check_key_types`).
    Inside each side's own ``map_batches``: the right side's non-key
    columns that collide with the left's take ``suffix``, both sides are
    padded to one superset schema, tagged ``__side`` ("l"/"r") and
    ``__part`` (``_tag_part`` over ``keys``, plus the ``__salt`` sub-key
    when ``salt > 1``: a deterministic per-row sub-key on the left,
    ``salt`` replicas of each row on the right). Returns the union, ready
    for :func:`_merge_parts`, and the right-only column names."""
    r_schema = right.schema()
    _check_key_types(l_schema, r_schema, keys)
    l_cols, r_cols = l_schema.names, r_schema.names
    rename = {c: c + suffix for c in r_cols if c in l_cols and c not in keys}
    r_only = [c for c in (rename.get(c, c) for c in r_cols) if c not in l_cols]
    superset = l_cols + r_only
    part_keys = keys + (["__salt"] if salt > 1 else [])

    def side(tag: str):
        def fn(batch: pd.DataFrame) -> pd.DataFrame:
            if tag == "r" and rename:
                batch = batch.rename(columns=rename)
            fill = {c: None for c in superset if c not in batch.columns}
            batch = batch.assign(**fill, __side=tag)[superset + ["__side"]]
            if salt > 1 and tag == "l":
                # full-row hash: stable across runs/processes, never random
                rh = pd.util.hash_pandas_object(batch, index=False)
                batch = batch.assign(__salt=(rh % salt).astype("int64"))
            elif salt > 1:
                batch = pd.concat(
                    [batch.assign(__salt=np.int64(s)) for s in range(salt)],
                    ignore_index=True,
                )
            return _tag_part(batch, part_keys, num_partitions)

        return fn

    return left.map_batches(side("l"), batch_format="pandas").union(
        right.map_batches(side("r"), batch_format="pandas")
    ), r_only


def _merge_parts(both, merge, num_partitions: int):
    """Run ``merge`` once per partition of :func:`_co_partition`'s union.
    The sort exchange emits one block per input block of BOTH sides (at
    most ``num_partitions`` of them hold rows), so a join fed its own
    output (every fixpoint loop over a graph) would grow its block count,
    and the cost of each later map and sort, every round. When the
    metadata-only estimate of the union's blocks exceeds
    ``num_partitions``, the output is cut back to that many blocks."""
    out = _group_parts(both, merge)
    n = both._logical_plan.dag.estimated_num_outputs()
    if n is None or n <= num_partitions:
        return out
    return out.repartition(num_partitions)


def hash_join(
    left,
    right,
    on: str | list[str],
    *,
    buckets: int | None = None,
    how: str = "inner",
    suffixes: tuple[str, str] = ("", "_r"),
    salt: int = 1,
    strategy: str = "auto",
    bloom_prefilter: bool = False,
    bloom_bits: int = 1 << 23,
):
    """Partitioned hash join of two Datasets on ``on``.

    ``strategy="auto"`` picks the tier by the size of the SMALL side, never
    the big side: when the right side's metadata-only byte estimate fits
    ``_BROADCAST_MAX_BYTES`` (a ``tier_for`` gate), it is broadcast once
    and every left batch does a map-side ``pyarrow.Table.join`` — zero
    shuffle (the dominant case for dimension tables, label maps, dup
    winners). Otherwise (or with
    ``strategy="shuffle"``) the general both-sides-large path runs: both
    sides are aligned and tagged with ``__part = key_hash(on) % buckets``
    inside their own map (:func:`_co_partition`), unioned, and grouped by
    ``__part`` (``state.groupby._group_parts``), which brings matching
    keys together; a pandas merge runs per bucket. One all-to-all exchange
    total; no driver materialization.

    ``buckets`` goes through ``resolve_num_partitions`` (``None``: a
    metadata-only input-bytes estimate, ~64 MB per bucket). ``salt=k``
    defuses skewed keys: each LEFT row gets a deterministic sub-key in
    [0, k) and the RIGHT side is replicated k ways, so a head key's rows
    spread over k merge tasks instead of one straggler (right side should
    be the smaller side when salting; salting forces the shuffle tier).

    ``bloom_prefilter=True`` (inner shuffle joins): a Bloom filter over the
    right side's keys is built first (per-block partials, OR-merged; the
    right pipeline executes an extra time for this pass) and broadcast, and
    left rows that cannot match are dropped BEFORE the exchange — Spark's
    runtime row-level filtering analog. Exactness is preserved (Bloom false
    positives still meet the real merge); the win is shuffle bytes, so use
    it when the left side dominates the exchange and the join is selective.
    """
    keys = [on] if isinstance(on, str) else list(on)
    if how == "outer":
        # full outer CANNOT broadcast (a map-side join would re-emit each
        # unmatched right row once per left batch) and CANNOT salt (right
        # replication would duplicate unmatched right rows salt times)
        if strategy == "broadcast" or salt > 1:
            raise ValueError("how='outer' requires the shuffle tier with salt=1")
        strategy = "shuffle"
    if strategy == "auto" and salt == 1 and how in ("inner", "left"):
        if tier_for(_meta_size_bytes(right), _BROADCAST_MAX_BYTES,
                    what="hash_join") == "driver":
            strategy = "broadcast"
    if strategy == "broadcast":
        return _broadcast_join(left, right, keys, how=how, suffixes=suffixes)
    buckets = resolve_num_partitions((left, right), buckets, default=32)
    # column + bucket metadata comes from the UNFILTERED left (the bloom
    # filter keeps the schema but hides it from metadata-only inference;
    # its byte estimate would also undersize the buckets)
    l_schema = left.schema()
    if how != "outer" and (l_schema is None or right.schema() is None):
        # a side with no schema has no columns: as in _broadcast_join
        return left if l_schema is None or how == "left" else left.limit(0)
    l_cols = l_schema.names
    if bloom_prefilter and how == "inner":
        bloom_ref = ray.put(build_key_bloom(right, keys, bits=bloom_bits))
        left = bloom_filter_batches(left, keys, bloom_ref, bits=bloom_bits)
    both, r_only = _co_partition(left, l_schema, right, keys, suffixes[1],
                                 buckets, salt)
    merge_keys = keys + (["__salt"] if salt > 1 else [])
    l_side_cols = l_cols + (["__salt"] if salt > 1 else [])
    r_side_cols = merge_keys + r_only

    def _merge(group: pd.DataFrame) -> pd.DataFrame:
        # each side's blocks carry the other side's columns as nulls, so a
        # column arrives here as object: restore each side's own dtypes (an
        # int key must hash as int when this output is joined again)
        l = group[group["__side"] == "l"][l_side_cols].infer_objects(copy=False)
        r = group[group["__side"] == "r"][r_side_cols].infer_objects(copy=False)
        out = l.merge(r, on=merge_keys, how=how)
        return out.drop(columns="__salt") if salt > 1 else out

    return _merge_parts(both, _merge, buckets)


def _broadcast_asof(left, right, *, by: str, on: str, right_on: str,
                    direction: str, right_reduce=None):
    """Map-side as-of: right side collected (size-gated), renamed,
    time-sorted once; every left batch sorts itself and merge_asofs
    against the broadcast table."""
    l_cols = left.schema().names
    r_tbl = _collect_arrow(right)
    rename = {c: c + "_r" for c in r_tbl.schema.names if c in l_cols and c != by}
    if rename:
        r_tbl = r_tbl.rename_columns([rename.get(c, c) for c in r_tbl.schema.names])
    right_on_final = rename.get(right_on, right_on)
    r_df = r_tbl.to_pandas()
    if right_reduce is not None:
        r_df = right_reduce(r_df)
    r_df[right_on_final] = pd.to_datetime(r_df[right_on_final]).astype("datetime64[us]")
    r_df = r_df.sort_values(right_on_final, kind="stable").reset_index(drop=True)
    r_ref = ray.put(r_df)
    r_extra = [c for c in r_df.columns if c not in l_cols and c != by]

    def _merge(batch: pd.DataFrame) -> pd.DataFrame:
        r = ray.get(r_ref)
        l = batch.copy()
        l[on] = pd.to_datetime(l[on]).astype("datetime64[us]")
        l = l.sort_values(on, kind="stable")
        if r.empty:
            return l.assign(**{c: None for c in r_extra})
        return pd.merge_asof(
            l, r, left_on=on, right_on=right_on_final, by=by, direction=direction,
        )

    return left.map_batches(_merge, batch_format="pandas", batch_size=None)


def asof_join(
    left,
    right,
    *,
    by: str,
    on: str,
    right_on: str | None = None,
    direction: str = "backward",
    strategy: str = "auto",
    right_reduce=None,
    max_partition_rows: int = 20_000_000,
):
    """As-of join (custom operator — Ray Data has no native equivalent;
    SURVEY-mandated composition (a): union + groupby + per-group
    ``pd.merge_asof``).

    Partitioning assumption (documented per the custom-operator rule): all
    rows of one ``by`` key land in one hash partition (keys are users /
    entities with bounded history — by-key salting is impossible for as-of
    semantics, so a single key hotter than one partition's memory needs a
    time-bucketed pre-aggregation upstream). P comes from
    ``resolve_num_partitions`` (a metadata-only input-bytes estimate unless
    pinned). Both sides are tagged, unioned and grouped by
    ``key_hash(by) % P`` in ONE shuffle; within a partition a single
    vectorized ``pd.merge_asof(by=...)`` handles every key at once — never
    one Python call per key.

    Broadcast tier (``strategy="auto"``): as-of only needs the RIGHT side
    complete per key — the left can arrive in arbitrary chunks. So when
    the right side's metadata byte estimate fits the broadcast cap (a
    ``tier_for`` gate), it is collected + time-sorted ONCE, ``ray.put``
    once, and each left batch runs ``pd.merge_asof`` against it directly —
    zero shuffle of the big (event) side.

    ``right_reduce`` (optional): a vectorized grouped FINAL reduce for a
    right side that arrives as per-batch partials (e.g. max price per
    (key, time)). Applied once on the collected table in the broadcast
    tier, per partition in the shuffle tier — the caller then needs no
    separate pre-join shuffle of the right side at all.
    """
    right_on = right_on or on
    if strategy == "auto" and tier_for(
            _meta_size_bytes(right), _BROADCAST_MAX_BYTES,
            what="asof_join") == "driver":
        strategy = "broadcast"
    if strategy == "broadcast":
        return _broadcast_asof(
            left, right, by=by, on=on, right_on=right_on, direction=direction,
            right_reduce=right_reduce,
        )
    num_partitions = resolve_num_partitions((left, right), None, default=32)
    l_schema = left.schema()
    l_cols = l_schema.names
    both, r_only = _co_partition(left, l_schema, right, [by], "_r", num_partitions)
    right_on_final = (right_on + "_r" if right_on in l_cols and right_on != by
                      else right_on)
    r_side_cols = [by] + r_only

    def _merge(group: pd.DataFrame) -> pd.DataFrame:
        if len(group) > max_partition_rows:
            # enforce the documented single-partition-per-key memory
            # contract LOUDLY instead of letting pandas OOM: name the
            # hottest keys so the caller knows what to pre-aggregate
            hot = group[by].value_counts().head(3)
            raise ValueError(
                f"asof_join partition exceeds max_partition_rows="
                f"{max_partition_rows} ({len(group)} rows); hottest {by} "
                f"keys: {hot.to_dict()} — pre-aggregate these upstream "
                f"(e.g. time-bucketed right_reduce) or raise the bound"
            )
        l = group[group["__side"] == "l"][l_cols]
        r = group[group["__side"] == "r"][r_side_cols]
        if right_reduce is not None and not r.empty:
            r = right_reduce(r)
        if l.empty:
            return l.assign(
                **{c: pd.Series(dtype=r[c].dtype) for c in r_side_cols if c != by}
            )
        if r.empty:
            # left rows with no right side keep merge_asof's left-join
            # semantics: null-filled right columns
            return l.assign(**{c: None for c in r_side_cols if c != by})
        l = l.copy()
        r = r.copy()
        l[on] = pd.to_datetime(l[on]).astype("datetime64[us]")
        r[right_on_final] = pd.to_datetime(r[right_on_final]).astype("datetime64[us]")
        l = l.sort_values(on, kind="stable")
        r = r.sort_values(right_on_final, kind="stable")
        return pd.merge_asof(
            l, r, left_on=on, right_on=right_on_final, by=by, direction=direction,
        )

    return _merge_parts(both, _merge, num_partitions)


def _axis_raw(s: pd.Series) -> np.ndarray:
    """Join-axis values for the band predicate: datetime64 → epoch-ns
    int64; numeric dtypes are kept AS IS (floats are never truncated —
    the band compares exact raw values)."""
    if np.issubdtype(s.dtype, np.datetime64):
        return s.astype("datetime64[ns]").astype("int64").to_numpy()
    return s.to_numpy()


def _bucket_floor(vals: np.ndarray, width) -> np.ndarray:
    """floor(v / width) as int64 bucket ids — true floor for negative and
    float values (``astype(int64)`` truncates toward zero, which mis-tags
    e.g. t=-0.5 into bucket 0 instead of -1)."""
    if np.issubdtype(vals.dtype, np.floating) or isinstance(width, float):
        return np.floor(vals / float(width)).astype(np.int64)
    return vals.astype(np.int64) // int(width)


def interval_join(left, right, *, on: str, right_start: str, right_end: str,
                  by: list[str] | None = None, bucket_width,
                  strategy: str = "auto", suffixes=("", "_r")):
    """Point-in-interval join: each left row (point ``on`` = t) matched to
    every right row whose half-open interval satisfies
    ``right_start <= t < right_end``, with an optional equality prefix
    ``by`` — the inequality-join shape (sessions × maintenance windows,
    events × promo periods) that neither hash nor as-of joins express.

    Distributed via time-bucket replication: the axis is bucketed at
    ``bucket_width`` (a number, or ``pd.Timedelta`` for timestamps); each
    RIGHT interval is replicated to every bucket it overlaps while each
    LEFT point carries exactly ONE bucket tag, so every matching pair
    meets in exactly one bucket — no dedup pass. The bucketed equality
    join then rides :func:`hash_join`'s auto tier (broadcast small side /
    partitioned shuffle), and the band predicate is applied vectorized
    inside the result batches.

    Scale contract: replication per interval is
    ``ceil(interval_len / bucket_width) + 1`` copies — pick a width on the
    order of the typical interval length so the right side grows O(1)-fold.
    Degenerate (empty/negative) intervals replicate zero times and match
    nothing.
    """
    if isinstance(bucket_width, (int, np.integer)):
        width: int | float = int(bucket_width)
    elif isinstance(bucket_width, float):
        width = float(bucket_width)  # float axes take float widths
    else:
        width = int(pd.Timedelta(bucket_width).value)
    if width <= 0:
        raise ValueError(f"bucket_width must be positive, got {bucket_width}")
    by = by or []

    def tag_left(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["__tb"] = _bucket_floor(_axis_raw(df[on]), width)
        return df

    def explode_right(df: pd.DataFrame) -> pd.DataFrame:
        a0, a1 = _axis_raw(df[right_start]), _axis_raw(df[right_end])
        b0 = _bucket_floor(a0, width)
        if np.issubdtype(a1.dtype, np.floating) or isinstance(width, float):
            # exclusive end on a float axis: last covered bucket is
            # ceil(end/width)-1 (an end exactly on a boundary k*width
            # covers only up to bucket k-1)
            b1 = np.ceil(a1 / float(width)).astype(np.int64) - 1
        else:
            b1 = (a1.astype(np.int64) - 1) // int(width)
        reps = np.maximum(b1 - b0 + 1, 0)
        out = df.iloc[np.repeat(np.arange(len(df)), reps)].copy()
        offs = np.concatenate(([0], np.cumsum(reps)))[:-1]
        out["__tb"] = np.repeat(b0, reps) + (
            np.arange(int(reps.sum())) - np.repeat(offs, reps)
        )
        return out

    joined = hash_join(
        left.map_batches(tag_left, batch_format="pandas"),
        right.map_batches(explode_right, batch_format="pandas"),
        on=[*by, "__tb"],
        strategy=strategy,
        suffixes=suffixes,
    )

    def band(df: pd.DataFrame) -> pd.DataFrame:
        # exact raw-value comparison (floats included) — only the bucket
        # tags above use the int64 view
        t = _axis_raw(df[on])
        keep = (_axis_raw(df[right_start]) <= t) & (t < _axis_raw(df[right_end]))
        return df[keep].drop(columns="__tb")

    return joined.map_batches(band, batch_format="pandas")
