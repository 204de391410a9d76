"""End-to-end KG construction pipeline (SURVEY.md §3.1 target shape).

``read_parquet(web_pages)`` → extract → url-dedup → segment → triples_raw
(fused segment+triple map) → entity_map (LSH shuffles + union-find) →
canonical triples (two-phase groupby), plus optional mentions, sentence
embeddings, doc summaries and the host link graph.

``run_kg`` declares this chain ONCE; every stage goes through one
``state.manifest.checkpointed`` call, and ``out_dir`` picks the
persistence policy:

- ``out_dir=None`` (streaming): stages chain lazily and Ray Data's
  streaming executor pipelines them; only the stages more than one
  consumer reads (``docs_raw`` with the link graph, ``triples_raw``,
  ``host_edges``) materialize once in the object store (``_tee``).
- ``out_dir`` set (checkpointed): every stage lands as Parquet with a
  manifest row carrying its input lineage signature, and a re-run resumes
  from the DONE stages whose lineage still matches (§4.4 /
  state/manifest).

One ``run_kg()`` call replaces the reference's event queue + background
thread (service/DocProcAiService.py:72-80,694-707) entirely; Ray Data's
streaming executor provides the pipelining, backpressure and retries the
reference hand-rolled (SURVEY.md §4.2). ``reprocess_urls`` and
``ingest_shard`` re-derive per-record stages through the same front end
(``_front_end``).
"""

from __future__ import annotations

import pyarrow as pa
import ray
import ray.data as rd

from ..config import DEFAULT_CONFIG, KGConfig
from ..stages.canonicalize import build_entity_map
from ..stages.extract import (
    DOCS_SCHEMA,
    build_docs,
    dedup_urls,
    drop_empty,
    extract_docs,
    filter_langs,
)
from ..stages.materialize import build_triples_auto
from ..stages.mention import build_mentions
from ..stages.segment import build_sentences
from ..stages.triple_extract import build_triples_raw_fused
from ..state.manifest import chain_signature, checkpointed, read_stage, write_stage

# input-bytes estimate above which STREAMING-mode fused link extraction
# refuses to materialize the docs-sized fused table in the object store (it
# would spill at scale) and raises pointing at out_dir — the checkpointed
# mode writes Parquet instead
STREAMING_FUSED_MAX_BYTES = 32 << 30
# the docs_raw columns the link graph reads
_LINK_COLUMNS = ["url", "src_host", "link_dst", "link_n"]


def read_web_pages(path: str | list[str]):
    """Prune at the read: the `text` hint column never leaves storage.

    Blocks are coalesced to ~4 tasks per CPU — hundreds of tiny file-sized
    tasks cost more in dispatch than they buy in balance (measured: 480
    blocks → 128 halved extraction wall time at 32 CPUs)."""
    try:
        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        cpus = 8
    return rd.read_parquet(
        path,
        columns=["url", "warc_ts", "html", "lang"],
        override_num_blocks=max(32, cpus * 4),
    )


def _page_files(pages_path: str) -> list[str]:
    import glob
    import os

    if os.path.isdir(pages_path):
        return sorted(glob.glob(os.path.join(pages_path, "**", "*.parquet"), recursive=True))
    return [pages_path]


def _tee(ds, out_dir: str | None):
    """A stage more than one consumer reads: streaming materializes it
    once in the object store; a checkpointed run tees it through its
    Parquet checkpoint instead."""
    return ds.materialize() if out_dir is None else ds


def _columns(ds, names: list[str], out_dir: str | None, stage: str):
    """``names`` of a stage's output; a checkpointed stage prunes them at
    the Parquet read (Ray Data does not push a projection into the read)."""
    if out_dir is None:
        return ds.select_columns(names)
    return read_stage(out_dir, stage, columns=names)


def _front_end(pages, cfg: KGConfig, links: bool, out_dir: str | None = None,
               resume: bool = True, sig: dict | None = None, files=()):
    """``(docs_raw, docs)``: the one front end of ``run_kg`` and
    ``reprocess_urls``. ``pages()`` builds the web_pages Dataset.

    With the link graph on, every capture — of every language, since the
    link graph counts them all — is parsed once with its link partials
    (``extract_docs(emit_links=True)``) into ``docs_raw``, the tee point
    both docs and ``url_links`` read; ``cfg.filter_langs`` then applies to
    the docs side, before url-dedup. Without it, a streaming call has no
    ``docs_raw`` (``build_docs`` dedups before parsing, so only winner
    captures parse), and a checkpointed one parses the language-filtered
    pages into ``docs_raw`` — per input-file shard when
    ``cfg.ingest_partitions`` is set (``files``) — and dedups from it."""
    sig = {} if sig is None else sig
    salt = (f"langs={sorted(cfg.filter_langs or [])}", f"links={links}")
    sig["docs_raw"] = chain_signature("docs_raw", sig.get("src"), *salt)
    docs_raw = None
    if out_dir is not None and cfg.ingest_partitions > 0:
        # partition-granular resume for the (expensive, map-only) ingest:
        # each input-file shard extracts and lands independently; a killed
        # run recomputes only shards without a DONE manifest row
        from ..state.manifest import checkpointed_partitioned

        docs_raw = checkpointed_partitioned(
            lambda fs: extract_docs(read_web_pages(fs), cfg, emit_links=links),
            list(files), out_dir, "docs_raw", resume,
            num_partitions=cfg.ingest_partitions, salt="|".join(salt),
        )
    elif links or out_dir is not None:
        docs_raw = checkpointed(
            lambda: _tee(extract_docs(pages(), cfg, emit_links=links), out_dir),
            out_dir, "docs_raw", resume, input_sig=sig["docs_raw"],
        )

    def docs():
        if docs_raw is None:
            return build_docs(pages(), cfg)
        src = _columns(docs_raw, list(DOCS_SCHEMA.names), out_dir, "docs_raw")
        return drop_empty(dedup_urls(filter_langs(src, cfg) if links else src, cfg))

    sig["docs"] = chain_signature("docs", sig["docs_raw"])
    return docs_raw, checkpointed(docs, out_dir, "docs", resume,
                                  input_sig=sig["docs"])


def reprocess_urls(
    pages_path: str,
    urls: list[str],
    alias_table: pa.Table,
    cfg: KGConfig = DEFAULT_CONFIG,
    out_dir: str = "",
) -> dict:
    """Per-record re-ingest over a checkpointed ``run_kg`` output — the
    delete-cascade → reprocess flow of the reference (one record is
    deleted then re-derived end-to-end, service/DocProcAiService.py:102-103
    + the persistence cascade): for each per-record stage output (docs,
    sentences, triples_raw, and mentions / sentence_embeddings when
    present) the given urls' rows are DELETED and recomputed from source
    — extraction runs over only those pages — then the stage directory is
    atomically replaced (idempotent upsert, W6). The corpus-level stages
    (entity_map, triples) are re-derived from the patched triples_raw,
    because canonical ids are corpus-global (union-find) — that cascade is
    aggregate-priced, never a re-extraction of the corpus. ``docs_raw``
    (the pre-dedup ingest checkpoint) is intentionally left stale: once
    ``docs`` is DONE it is never re-read.

    Atomicity across stages: the per-stage writes are individually atomic
    but the CASCADE is not (a crash between the docs patch and the triples
    rebuild leaves stage DONE rows that are mutually inconsistent) — so an
    in-flight marker recording each url's SOURCE ``pages_path`` is written
    before the first patch and cleared after the last; an interrupted
    cascade's urls are merged into the next ``reprocess_urls`` call and
    re-driven against their ORIGINAL source (merging them into a different
    call's pages_path — e.g. a later ``ingest_shard`` over another shard
    dir — would find no pages there and silently delete their rows), and
    ``run_kg(resume=True)`` refuses to resume over a pending marker.

    Returns the refreshed stage Datasets (same keys as ``run_kg``)."""
    import pyarrow.compute as pc

    from ..state.manifest import (
        begin_inflight,
        clear_inflight,
        get_inflight,
        is_stage_done,
    )

    # (pages_path → urls) source groups: this call's request plus any
    # half-applied cascade's pending groups. A url requested NOW is
    # re-driven from THIS call's path (latest request wins) even if a
    # pending group also lists it.
    groups: dict[str, set[str]] = {pages_path: set(urls)}
    pending = get_inflight(out_dir, "reprocess")
    if pending:
        pend_groups = pending.get("sources")
        if pend_groups is None and pending.get("urls"):
            # legacy marker (pre path-recording): written by this same
            # driver against the caller's path — merge as before
            pend_groups = [{"pages_path": pages_path,
                            "urls": pending["urls"]}]
        for g in pend_groups or []:
            p = g.get("pages_path") or pages_path
            groups.setdefault(p, set()).update(g.get("urls", []))
    for p in [p for p in groups if p != pages_path]:
        groups[p] -= groups[pages_path]
        if not groups[p]:
            del groups[p]
    begin_inflight(out_dir, "reprocess", {
        "sources": [{"pages_path": p, "urls": sorted(us)}
                    for p, us in sorted(groups.items())]
    })
    urls = set().union(*groups.values())

    url_arr = pa.array(sorted(urls), pa.string())
    url_ref = ray.put(url_arr)

    def _drop_urls(t: pa.Table) -> pa.Table:
        return t.filter(pc.invert(pc.is_in(t["url"], ray.get(url_ref))))

    # recompute each group's rows from ITS source (url-dedup is per url,
    # so the filtered slice is self-contained; distinct sources union)
    def _filtered(path: str, us: set[str]):
        ref = ray.put(pa.array(sorted(us), pa.string()))
        return read_web_pages(path).map_batches(
            lambda t, _r=ref: t.filter(pc.is_in(t["url"], ray.get(_r))),
            batch_format="pyarrow",
        )

    parts = [_filtered(p, us) for p, us in sorted(groups.items())]
    pages = parts[0] if len(parts) == 1 else parts[0].union(*parts[1:])
    # per-record recomputes are bounded by len(urls) — materialize them up
    # front so each stage's pool spins up and RETIRES before the patch
    # writes run, and so re-use below never re-executes extraction. With
    # the link graph checkpointed, the slice's url_links patch derives
    # from the same extraction pass as its docs (run_kg's front end).
    links = is_stage_done(out_dir, "url_links")
    docs_raw_new, docs_new = _front_end(lambda: pages, cfg, links)
    docs_new = docs_new.materialize()
    sentences_new = build_sentences(docs_new, cfg).materialize()
    triples_raw_new = build_triples_raw_fused(docs_new, cfg).materialize()

    def _rewrite(stage: str, ds, **write_kwargs):
        write_stage(ds, out_dir, stage, extra={"reprocessed_urls": len(urls)},
                    write_kwargs=write_kwargs)
        return read_stage(out_dir, stage)

    def _patch(stage: str, new_ds):
        old = read_stage(out_dir, stage)
        return _rewrite(stage, old.map_batches(_drop_urls, batch_format="pyarrow")
                        .union(new_ds))

    out: dict = {}
    out["docs"] = _patch("docs", docs_new)
    out["sentences"] = _patch("sentences", sentences_new)
    out["triples_raw"] = _patch("triples_raw", triples_raw_new)
    if is_stage_done(out_dir, "sentence_embeddings"):
        from .queries import build_sentence_embeddings

        out["sentence_embeddings"] = _patch(
            "sentence_embeddings", build_sentence_embeddings(sentences_new, cfg)
        )
    if is_stage_done(out_dir, "doc_summaries"):
        # per-record derived table: a url's digest depends only on its own
        # sentences/triples, so the patch shape applies
        from ..stages.summarize import build_doc_summaries

        out["doc_summaries"] = _patch(
            "doc_summaries",
            build_doc_summaries(sentences_new, triples_raw_new, cfg),
        )
    alias_ref = ray.put(alias_table)
    if is_stage_done(out_dir, "mentions"):
        out["mentions"] = _patch("mentions", build_mentions(triples_raw_new, alias_ref, cfg))
    if links:
        # per-record link partials patch like docs; the host-level stages
        # re-derive by aggregation below (same cascade shape as entity_map)
        from ..stages.linkgraph import (
            host_edges_from_url_links,
            host_pagerank,
            url_links_from_docs,
        )

        out["url_links"] = _patch("url_links", url_links_from_docs(docs_raw_new))
        out["host_edges"] = _rewrite("host_edges",
                                     host_edges_from_url_links(out["url_links"]))
        out["host_ranks"] = _rewrite("host_ranks",
                                     host_pagerank(edges=out["host_edges"]))

    # corpus-level cascade: canonical ids + aggregates from patched raw
    out["entity_map"] = _rewrite(
        "entity_map", build_entity_map(out["triples_raw"], alias_ref, cfg))
    out["triples"] = _rewrite(
        "triples", build_triples_auto(out["triples_raw"], out["entity_map"], cfg),
        partition_cols=["bucket"])
    clear_inflight(out_dir, "reprocess")
    return out


def ingest_shard(
    new_pages_path: str,
    alias_table: pa.Table,
    cfg: KGConfig = DEFAULT_CONFIG,
    out_dir: str = "",
) -> dict:
    """Incremental corpus growth: append a NEW shard of pages to an
    existing checkpointed ``run_kg`` output (the continuous-ingest flow
    the reference serializes through its task queue,
    service/DocProcAiService.py:694-707 — here a batch of records at
    once). Per-record stages (extract / sentences / triples_raw /
    mentions / summaries) run over ONLY the shard; the corpus-level
    stages (entity_map, triples) re-derive by aggregation over the
    accumulated raw tables, because canonical ids are corpus-global.
    Brand-new urls insert; re-crawled urls REPLACE their previous rows
    (idempotent upsert, W6) — so re-ingesting the same shard is a no-op
    and the result always equals a clean full run over old ∪ new
    (tests/test_ingest_shard.py proves equality stage by stage).

    Driver cost is the shard's distinct-url list (the same contract as
    ``reprocess_urls``); split a huge shard into sub-shards and call this
    per sub-shard — each call is atomic via the reprocess in-flight
    marker."""
    shard_urls = rd.read_parquet(
        _page_files(new_pages_path), columns=["url"]
    ).unique("url")
    return reprocess_urls(new_pages_path, shard_urls, alias_table, cfg,
                          out_dir=out_dir)


def _streaming_pages(pages_path: str):
    """The corpus of a streaming link-graph run, refused above
    ``STREAMING_FUSED_MAX_BYTES``: its docs-sized ``docs_raw`` tee would
    spill out of the object store."""
    from ..state.joins import _meta_size_bytes

    pages = read_web_pages(pages_path)
    est = _meta_size_bytes(pages)
    if est is not None and est > STREAMING_FUSED_MAX_BYTES:
        raise ValueError(
            f"streaming-mode fused link graph would materialize a "
            f"~{est >> 30} GiB docs-sized table in the object store "
            f"(> STREAMING_FUSED_MAX_BYTES="
            f"{STREAMING_FUSED_MAX_BYTES >> 30} GiB) and spill; "
            f"pass out_dir=... to run the checkpointed mode, which "
            f"tees the fused table through Parquet instead"
        )
    return pages


def run_kg(
    pages_path: str,
    alias_table: pa.Table,
    cfg: KGConfig = DEFAULT_CONFIG,
    out_dir: str | None = None,
    resume: bool = True,
    with_mentions: bool = False,
    with_sentence_embeddings: bool = False,
    with_doc_summaries: bool = False,
    with_link_graph: bool = False,
    with_ann_index: bool = False,
) -> dict:
    """Run the full pipeline; returns dict of stage Datasets (streaming
    with ``out_dir=None``, else checkpointed — module docstring).

    ``alias_table`` is the small side: broadcast once via ray.put and read
    inside actor __init__ (never re-shipped per batch).

    ``with_ann_index=True`` (requires ``with_sentence_embeddings`` and an
    ``out_dir``) additionally persists an ANN probe index over the stored
    sentence vectors (stages/annindex.py — bucket/IVF assignments written
    once at ingest, the pgvector-column analog); queries then probe
    ``out['ann_index_dir']`` with zero corpus re-hashing.
    """
    if with_ann_index and (out_dir is None or not with_sentence_embeddings):
        raise ValueError(
            "with_ann_index requires out_dir (the index is a persisted "
            "checkpoint) and with_sentence_embeddings (it indexes the "
            "stored vectors)"
        )
    alias_ref = ray.put(alias_table)

    # stage lineage (checkpointed runs only): every checkpoint records an
    # input fingerprint chained from its parents' (source files → docs_raw
    # → docs → ...), so a resumed run detects upstream edits — a changed
    # corpus with an equal row count no longer resumes silently over stale
    # stages. Streaming leaves every sig None.
    sig: dict[str, str | None] = {}
    files: list[str] = []
    if out_dir is not None:
        from ..state.manifest import files_signature, get_inflight, table_signature

        # a pending reprocess marker means the per-stage DONE rows may be
        # mutually inconsistent (half-applied cascade) — refuse to resume
        # over it; finish via reprocess_urls([])
        pending = get_inflight(out_dir, "reprocess") if resume else None
        if pending:
            # current markers list urls per source group; legacy ones flat
            urls = set(pending.get("urls", [])).union(
                *(g.get("urls", []) for g in pending.get("sources") or []))
            raise RuntimeError(
                f"out_dir {out_dir} has an interrupted reprocess cascade "
                f"({len(urls)} urls) — stage checkpoints "
                "may be mutually inconsistent. Re-drive it with "
                "reprocess_urls(..., urls=[]) or pass resume=False."
            )
        files = _page_files(pages_path)
        sig["src"] = files_signature(files)
        sig["alias"] = table_signature(alias_table)

    def pages():
        if out_dir is None and with_link_graph:
            return _streaming_pages(pages_path)
        return read_web_pages(pages_path)

    docs_raw, docs = _front_end(pages, cfg, with_link_graph, out_dir, resume,
                                sig, files)
    sig["sentences"] = chain_signature("sentences", sig["docs"])
    sentences = checkpointed(
        lambda: build_sentences(docs, cfg), out_dir, "sentences", resume,
        input_sig=sig["sentences"],
    )
    # fused segment+extract: the triple path never builds the sentences
    # table (tests/test_fused.py checks parity with the two-stage form)
    sig["triples_raw"] = chain_signature("triples_raw", sig["docs"])
    triples_raw = checkpointed(
        lambda: _tee(build_triples_raw_fused(docs, cfg), out_dir),
        out_dir, "triples_raw", resume, input_sig=sig["triples_raw"],
    )
    out: dict = {"docs": docs, "sentences": sentences, "triples_raw": triples_raw}

    if with_sentence_embeddings:
        # embed-at-ingest, stored once (reference analog: pgvector columns
        # written at ingest, persistence/SegmentDbConnector.py:25-36); the
        # query surface scores these stored vectors instead of re-embedding
        # the corpus per query
        from .queries import build_sentence_embeddings

        out["sentence_embeddings"] = checkpointed(
            lambda: build_sentence_embeddings(sentences, cfg),
            out_dir,
            "sentence_embeddings",
            resume,
            input_sig=chain_signature("sentence_embeddings", sig["sentences"]),
        )
        if with_ann_index:
            # persisted probe index over the stored vectors; idempotent
            # via its _SUCCESS marker (resume-friendly), one streaming
            # pass — text stays out of the index (url/sent_id + vector +
            # bucket/ivf_list only)
            import os as _os

            from ..stages.annindex import build_ann_index

            out["ann_index_dir"] = build_ann_index(
                out["sentence_embeddings"],
                _os.path.join(out_dir, "ann_index"),
                dim=cfg.embedding_dim,
                seed=cfg.seed,
                id_col="url",
                emb_col="embedding",
                extra_cols=("sent_id",),
            )

    if with_mentions:
        out["mentions"] = checkpointed(
            lambda: build_mentions(triples_raw, alias_ref, cfg),
            out_dir,
            "mentions",
            resume,
            input_sig=chain_signature("mentions", sig["triples_raw"], sig.get("alias")),
        )

    if with_doc_summaries:
        # per-doc digest table (doc_info analog: reference
        # MediaRecordInfoDbConnector.py:16-24 summary/tags columns)
        from ..stages.summarize import build_doc_summaries

        out["doc_summaries"] = checkpointed(
            lambda: build_doc_summaries(sentences, triples_raw, cfg),
            out_dir,
            "doc_summaries",
            resume,
            input_sig=chain_signature(
                "doc_summaries", sig["sentences"], sig["triples_raw"]),
        )

    if with_link_graph:
        from ..stages.linkgraph import (
            host_edges_from_url_links,
            host_pagerank,
            url_links_from_docs,
        )

        # per-url partials are the PATCHABLE checkpoint (reprocess/ingest
        # delete a url's rows and re-derive them like docs/sentences), read
        # from docs_raw's link columns — no second html scan; the
        # host-level stages re-derive by aggregation (corpus-level cascade)
        sig["url_links"] = chain_signature("url_links", sig["docs_raw"])
        url_links = checkpointed(
            lambda: url_links_from_docs(
                _columns(docs_raw, _LINK_COLUMNS, out_dir, "docs_raw")),
            out_dir, "url_links", resume, input_sig=sig["url_links"],
        )
        out["url_links"] = url_links
        sig["host_edges"] = chain_signature("host_edges", sig["url_links"])
        host_edges = checkpointed(
            lambda: _tee(host_edges_from_url_links(url_links), out_dir),
            out_dir, "host_edges", resume, input_sig=sig["host_edges"],
        )
        out["host_edges"] = host_edges
        out["host_ranks"] = checkpointed(
            lambda: host_pagerank(edges=host_edges),
            out_dir,
            "host_ranks",
            resume,
            input_sig=chain_signature("host_ranks", sig["host_edges"]),
        )

    sig["entity_map"] = chain_signature(
        "entity_map", sig["triples_raw"], sig.get("alias"))
    entity_map = checkpointed(
        lambda: build_entity_map(triples_raw, alias_ref, cfg),
        out_dir,
        "entity_map",
        resume,
        input_sig=sig["entity_map"],
    )
    out["entity_map"] = entity_map
    # auto-tiered: broadcast Arrow map under cfg.emap_broadcast_max_bytes,
    # distributed canonicalize_via_join above it; the checkpoint is
    # partitioned by subject bucket (resumable layout)
    out["triples"] = checkpointed(
        lambda: build_triples_auto(triples_raw, entity_map, cfg),
        out_dir,
        "triples",
        resume,
        input_sig=chain_signature("triples", sig["triples_raw"], sig["entity_map"]),
        partition_cols=["bucket"],
    )
    return out
