"""triples stage: canonicalize surfaces, dedup, aggregate provenance,
bucketed Parquet output (W3 + A2 + §4.3 "graph materialize").

- surface → canonical_id mapping applied via the broadcast entity map:
  one Arrow table (surface, canonical_id), ``ray.put`` once and read
  zero-copy by every phase-0 task (vocab-sized; ST7 broadcast pattern —
  ``canonicalize_via_join`` is the hash-join tier for an entity map too
  large to broadcast).
- exact dedup on the normalized key (subject_id, pred, object_id) — the
  W3 analog of the reference's symmetric link-dedup existence check
  (persistence/SegmentDbConnector.py:201-221) — expressed as TWO-PHASE
  aggregation:
    phase 0: per-batch partial aggregate in a plain task-pool
             ``map_batches`` — the lookup probes the map afresh per
             batch, so a worker keeps no state (a head triple
             occurring 10^6 times in a batch leaves it as ONE row with a
             capped provenance sample — this is the skew defusal: post-
             phase-0, a key's row count is bounded by #batches, never by
             corpus size). Each partial row is (part, payload) where part
             is a stable hash-partition id and payload a compact pickled
             (key, weight, prov) record — the shuffle moves two flat
             columns, never nested Arrow lists through pandas objects;
    phase 1: ``groupby(part)`` (one sort on an int64 column) → ONE merge
             call per partition that unpickles, aggregates and emits the
             final Arrow rows. Never one Python call per key — Ray's
             per-group map_groups costs ~2ms/key, hours of pure overhead
             at 10^7 distinct triples.
- provenance = the cfg.prov_cap smallest (url, sent_id) entries (matches
  the sequential oracle exactly: min-k of a union == min-k of min-ks);
  overflow is counted, never silently dropped (prov_overflow column).
- output partitioned by bucket = hash(subject_id) % cfg.output_buckets
  (resumable layout: one directory per bucket).
"""

from __future__ import annotations

import pickle

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from ..config import KGConfig
from ..functions.hashing import stable_u64
from ..state.groupby import key_hash

# triple rows per phase-0 partial-agg batch: compression grows with batch
# size (distinct keys saturate), and a batch is only ~6 MB
AGG_BATCH_SIZE = 32768

PROV_STRUCT = pa.struct(
    [
        pa.field("url", pa.string()),
        pa.field("warc_ts", pa.timestamp("us")),
        pa.field("sent_id", pa.int32()),
    ]
)

TRIPLES_SCHEMA = pa.schema(
    [
        pa.field("subject_id", pa.string()),
        pa.field("pred", pa.string()),
        pa.field("object_id", pa.string()),
        pa.field("prov", pa.list_(PROV_STRUCT)),
        pa.field("weight", pa.int64()),
        pa.field("prov_overflow", pa.int64()),
        pa.field("bucket", pa.int32()),
    ]
)

_PARTIAL_SCHEMA = pa.schema(
    [pa.field("part", pa.int64()), pa.field("payload", pa.binary())]
)

EMAP_SCHEMA = pa.schema(
    [pa.field("surface", pa.string()), pa.field("canonical_id", pa.string())]
)


def _canon(col: pa.ChunkedArray, emap: pa.Table) -> pa.ChunkedArray:
    """``emap.get(s, s)`` over a column: an Arrow ``index_in`` hash probe
    + ``take`` + ``coalesce``, never n dict ``.get()`` calls."""
    import pyarrow.compute as pc

    if emap.num_rows == 0:
        return col
    idx = pc.index_in(col, value_set=emap["surface"])
    return pc.coalesce(pc.take(emap["canonical_id"], idx), col)


def _partial_agg(batch: pa.Table, emap_ref: ray.ObjectRef, cfg: KGConfig,
                 num_parts: int) -> pa.Table:
    """Phase 0: per-batch combine, with the canonical-id lookup against the
    broadcast entity map (``ray.get`` of the Arrow table is a zero-copy
    read from the object store).

    Fully vectorized over occurrences (the hottest per-row path in the KG
    pipeline — every triples_raw row passes through): the per-key grouping
    is ONE Arrow multi-key sort (key columns first, then the prov tuple
    order (url, sent_id, warc_ts), so each key's min-k provenance is
    exactly its group's head rows), and group boundaries come from
    shifted-array compares. Python touches only DISTINCT keys (the pickle
    emit), never occurrences."""
    import pyarrow.compute as pc

    n = batch.num_rows
    if n == 0:
        return _PARTIAL_SCHEMA.empty_table()
    emap = ray.get(emap_ref)
    keyed = pa.table(
        {
            "subj": _canon(batch["subj"], emap),
            "pred": batch["pred"],
            "obj": _canon(batch["obj"], emap),
            "url": batch["url"],
            "warc_ts": batch["warc_ts"],
            "sent_id": batch["sent_id"],
        }
    )
    order = pc.sort_indices(
        keyed,
        sort_keys=[(c, "ascending")
                   for c in ("subj", "pred", "obj", "url", "sent_id", "warc_ts")],
    )
    keyed = keyed.take(order).combine_chunks()
    s, p, o = keyed["subj"], keyed["pred"], keyed["obj"]
    if n > 1:
        neq = pc.or_(
            pc.or_(
                pc.not_equal(s.slice(1), s.slice(0, n - 1)),
                pc.not_equal(p.slice(1), p.slice(0, n - 1)),
            ),
            pc.not_equal(o.slice(1), o.slice(0, n - 1)),
        ).combine_chunks().to_numpy(zero_copy_only=False)
        starts = np.concatenate(([0], np.flatnonzero(neq) + 1))
    else:
        starts = np.array([0])
    ends = np.append(starts, n)[1:]
    cap = cfg.prov_cap
    # materialize to Python only what the payloads touch: one key row
    # per group, and at most ``cap`` prov rows per group (timestamps as
    # int64 epoch-us — _merge sorts them identically and pyarrow casts
    # them back to timestamp at final emission)
    start_idx = pa.array(starts)
    sl = s.take(start_idx).to_pylist()
    pl = p.take(start_idx).to_pylist()
    ol = o.take(start_idx).to_pylist()
    counts = np.minimum(ends - starts, cap)
    offs = np.concatenate(([0], np.cumsum(counts)))
    prov_idx = np.repeat(starts - offs[:-1], counts) + np.arange(offs[-1])
    prov_take = pa.array(prov_idx)
    urls = keyed["url"].take(prov_take).to_pylist()
    sids = keyed["sent_id"].take(prov_take).combine_chunks().to_numpy().tolist()
    tss = (
        keyed["warc_ts"].take(prov_take).combine_chunks()
        .to_numpy().astype("datetime64[us]").view("i8").tolist()
    )
    weights = (ends - starts).tolist()
    payloads = []
    for i, (a, b) in enumerate(zip(offs[:-1].tolist(), offs[1:].tolist())):
        key = (sl[i], pl[i], ol[i])
        prov = list(zip(urls[a:b], sids[a:b], tss[a:b]))
        payloads.append(pickle.dumps((key, weights[i], prov), protocol=5))
    return _partials(zip(sl, pl, ol), payloads, num_parts)


def _partials(keys, payloads: list[bytes], num_parts: int) -> pa.Table:
    """(part, payload) partial rows; ``part`` is the exchange partition of
    each (subject, pred, object) key under ``state.groupby.key_hash``."""
    spo = pd.DataFrame(list(keys), columns=["s", "p", "o"])
    part = key_hash(spo, ["s", "p", "o"]) % np.uint64(num_parts)
    return pa.Table.from_arrays(
        [pa.array(part.astype(np.int64)), pa.array(payloads, pa.binary())],
        schema=_PARTIAL_SCHEMA,
    )


def _merge_payloads(group: pa.Table, cfg: KGConfig, num_parts: int) -> pa.Table:
    """Intermediate tree level: aggregate a block's partials, re-emit as
    (part, payload) partial rows (associative: min-k prov of min-ks)."""
    agg: dict[tuple[str, str, str], list] = {}
    for payload in group["payload"].to_pylist():
        key, w, prov = pickle.loads(payload)
        ent = agg.get(key)
        if ent is None:
            ent = agg[key] = [0, []]
        ent[0] += w
        ent[1].extend(prov)
    payloads = []
    cap = cfg.prov_cap
    for key, (w, prov) in agg.items():
        prov.sort()
        payloads.append(pickle.dumps((key, w, prov[:cap]), protocol=5))
    return _partials(agg, payloads, num_parts)


def _merge_partition(group: pa.Table, cfg: KGConfig) -> pa.Table:
    """Phase 1: merge ALL partial rows of one hash partition and emit final
    triple rows — a tight loop over pickled partials, no per-key frames."""
    agg: dict[tuple[str, str, str], list] = {}
    for payload in group["payload"].to_pylist():
        key, w, prov = pickle.loads(payload)
        ent = agg.get(key)
        if ent is None:
            ent = agg[key] = [0, []]
        ent[0] += w
        ent[1].extend(prov)
    cols: dict[str, list] = {n: [] for n in TRIPLES_SCHEMA.names}
    cap = cfg.prov_cap
    for (s, p, o), (w, prov) in agg.items():
        prov.sort()
        prov = prov[:cap]
        cols["subject_id"].append(s)
        cols["pred"].append(p)
        cols["object_id"].append(o)
        cols["prov"].append(
            [{"url": u, "warc_ts": t, "sent_id": i} for u, i, t in prov]
        )
        cols["weight"].append(w)
        cols["prov_overflow"].append(w - len(prov))
        cols["bucket"].append(stable_u64(s) % cfg.output_buckets)
    return pa.Table.from_arrays(
        [pa.array(cols[f.name], f.type) for f in TRIPLES_SCHEMA],
        schema=TRIPLES_SCHEMA,
    )


def build_triples(triples_raw_ds, emap_ref: ray.ObjectRef, cfg: KGConfig):
    """triples_raw + broadcast entity map → final canonical triples.
    ``emap_ref`` holds an ``EMAP_SCHEMA`` Arrow table (surface,
    canonical_id); an empty one is the identity map.

    Aggregation: after phase 0, one TREE level —
    ``repartition(~2×CPUs, no shuffle)`` + whole-block merge — compresses a
    vocab-like key space (entity inventories are bounded) by orders of
    magnitude before the grouped exchange, so the sort moves far fewer
    rows; for a corpus-sized key space the level is a cheap narrow map and
    the ``groupby(part)`` exchange does the real work. Deterministic
    either way (merge is associative + commutative; min-k prov of min-ks
    == global min-k)."""
    num_parts = cfg.output_buckets * 4
    partial = triples_raw_ds.select_columns(
        ["subj", "pred", "obj", "url", "warc_ts", "sent_id"]
    ).map_batches(
        _partial_agg,
        fn_kwargs={"emap_ref": emap_ref, "cfg": cfg, "num_parts": num_parts},
        batch_format="pyarrow",
        batch_size=AGG_BATCH_SIZE,
    )
    try:
        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        cpus = 8
    lvl1 = partial.repartition(max(16, cpus * 2)).map_batches(
        lambda g: _merge_payloads(g, cfg, num_parts),
        batch_format="pyarrow",
        batch_size=None,  # whole-block merges
    )
    lvl2 = lvl1.repartition(max(8, cpus // 2)).map_batches(
        lambda g: _merge_payloads(g, cfg, num_parts),
        batch_format="pyarrow",
        batch_size=None,
    )
    return lvl2.groupby("part").map_groups(
        lambda g: _merge_partition(g, cfg), batch_format="pyarrow"
    )


def build_triples_auto(triples_raw_ds, entity_map_ds, cfg: KGConfig):
    """Auto-tiered canonical-triple build: size-gate the driver broadcast
    of the entity map (VERDICT r2 #1 — the last driver-side materialization
    on the flagship path's scale axis).

    A metadata-only byte estimate of ``entity_map_ds`` (never executes an
    already-checkpointed map) decides the tier:
    - ≤ ``cfg.emap_broadcast_max_bytes``: collect as one Arrow table →
      ``ray.put`` once → zero-copy lookup inside each phase-0 task (the
      vocab-sized common case);
    - above: ``canonicalize_via_join`` — two bucketed left hash joins map
      surfaces to canonical ids distributed, then the same two-phase
      aggregation runs with an empty (identity) map. Identical output
      (parity: tests/test_join_canonicalize.py)."""
    from ..state.joins import _collect_arrow, _meta_size_bytes
    from ..state.tier import tier_for

    sz = _meta_size_bytes(entity_map_ds)
    if sz is None:
        # unknown (lazy streaming-mode map): the map is executed next either
        # way — materialize once so the estimate is real, not a guess
        entity_map_ds = entity_map_ds.materialize()
        sz = _meta_size_bytes(entity_map_ds)
    if tier_for(sz, cfg.emap_broadcast_max_bytes,
                what="build_triples_auto") == "driver":
        # select after collecting: empty blocks pass a projection unchanged
        emap = _collect_arrow(entity_map_ds)
        emap = (emap.select(EMAP_SCHEMA.names).cast(EMAP_SCHEMA) if emap.num_rows
                else EMAP_SCHEMA.empty_table())
        return build_triples(triples_raw_ds, ray.put(emap), cfg)
    mapped = canonicalize_via_join(triples_raw_ds, entity_map_ds)
    return build_triples(mapped, ray.put(EMAP_SCHEMA.empty_table()), cfg)


def canonicalize_via_join(triples_raw_ds, entity_map_ds):
    """Scale path for surface→canonical mapping when the entity map is too
    large to broadcast (SCALE.md §4): two bucketed left hash joins replace
    the broadcast lookup. Unmapped surfaces keep their surface form
    (same semantics as the broadcast path's ``emap.get(s, s)``)."""
    from ..state.joins import hash_join

    def _mapped(col: str):
        return entity_map_ds.select_columns(["surface", "canonical_id"]).map_batches(
            lambda df: pd.DataFrame({col: df["surface"], "__c": df["canonical_id"]}),
            batch_format="pandas",
        )

    out = triples_raw_ds
    for col in ("subj", "obj"):
        out = hash_join(out, _mapped(col), on=col, how="left", buckets=32)
        out = out.map_batches(
            lambda df, c=col: df.assign(**{c: df["__c"].fillna(df[c])}).drop(
                columns="__c"
            ),
            batch_format="pandas",
        )
    return out

