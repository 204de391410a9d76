"""docs stage: web_pages → extracted docs (M1/M7/W6 analogs).

``read_parquet(web_pages)`` → stateless ``map_batches`` HTML→text
extraction (one output row per page, empty text kept until after url-dedup)
→ url-dedup (max (warc_ts, content_hash) wins) → empty-text drop.

Semantics (aligned with oracle/scalar.oracle_docs — same order of steps):
1. extract every capture (empty-text rows KEPT so a url whose latest
   capture extracts empty is dropped, not resurrected by an older capture);
2. per url keep the max (warc_ts, content_hash) row; rows tying on all of
   (url, warc_ts, content_hash) are byte-identical — exactly ONE copy is
   kept (a tiny distinct pass over only the tied urls);
3. drop rows whose extracted text is empty (PdfProcessor.py:53-59 analog).

Scale notes (SURVEY.md §7.4):
- the ``html`` binary column is dropped INSIDE the extraction batch fn —
  nothing downstream ever shuffles raw HTML;
- url-dedup does NOT shuffle or pin document text: only a tiny metadata
  projection is materialized (streaming mode: the 2-column (url, warc_ts)
  projection — winners are decided BEFORE extraction, so HTML parses once
  and only for winner rows; checkpointed mode: the 3-column projection
  re-read from the docs_raw Parquet). The winners map is broadcast via
  ``ray.put`` and losers are filtered out in place. ``content_hash`` only
  breaks exact max-warc_ts ties — a vocab-sized post-extraction pass over
  just the tied urls.
"""

from __future__ import annotations

import pyarrow as pa
import ray

from ..config import KGConfig
from ..functions.html_extract import content_hash, extract_text
from ..state.joins import anti_join_filter, semi_join_filter
from ..state.tier import choose_tier

# url-dedup winner rows above which losers are filtered by a distributed
# left hash join instead of a broadcast winners map (the driver never
# holds the winners)
WINNERS_BROADCAST_MAX = 2_000_000
# html/docs rows per batch of the per-page maps here, in segment and in
# triple_extract (rows are KB..MB: keep batches small)
EXTRACT_BATCH_SIZE = 256

DOCS_SCHEMA = pa.schema(
    [
        pa.field("url", pa.string()),
        pa.field("warc_ts", pa.timestamp("us")),
        pa.field("lang", pa.string()),
        pa.field("text", pa.string()),
        pa.field("n_chars", pa.int64()),
        pa.field("content_hash", pa.binary(16)),
    ]
)


DOCS_LINKS_SCHEMA = pa.schema(
    list(DOCS_SCHEMA)
    + [
        pa.field("src_host", pa.string()),
        pa.field("link_dst", pa.list_(pa.string())),
        pa.field("link_n", pa.list_(pa.int64())),
    ]
)


def _passthrough(batch: pa.Table, name: str, typ: pa.DataType):
    """Reuse the input column zero-copy (cast only on type drift — e.g.
    an all-null block read as null-typed) instead of a to_pylist
    round-trip per batch (ADVICE/VERDICT r4 vectorization nit)."""
    col = batch[name]
    return col if col.type == typ else col.cast(typ)


def _doc_arrays(batch: pa.Table, decoded: list[str]) -> list[pa.Array]:
    from ..functions.html_extract import extract_text_str

    out_text, out_n, out_h = [], [], []
    for raw in decoded:
        text = extract_text_str(raw) if raw else ""
        out_text.append(text)
        out_n.append(len(text))
        out_h.append(content_hash(text))
    return [
        _passthrough(batch, "url", pa.string()),
        _passthrough(batch, "warc_ts", pa.timestamp("us")),
        _passthrough(batch, "lang", pa.string()),
        pa.array(out_text, pa.string()),
        pa.array(out_n, pa.int64()),
        pa.array(out_h, pa.binary(16)),
    ]


def _decode(htmls: list) -> list[str]:
    return [
        h.decode("utf-8", errors="replace") if h else "" for h in htmls
    ]


def extract_batch(batch: pa.Table) -> pa.Table:
    """Pure per-row extraction; drops the html column. Empty-text rows are
    KEPT (url-dedup must see every capture; drop_empty runs after dedup)."""
    return pa.Table.from_arrays(
        _doc_arrays(batch, _decode(batch["html"].to_pylist())),
        schema=DOCS_SCHEMA,
    )


def extract_batch_links(batch: pa.Table) -> pa.Table:
    """``extract_batch`` + per-row cross-host link partials computed from
    the SAME decoded html string — the link graph rides the main
    extraction pass instead of a second raw-html corpus scan (the one
    duplicated full read+parse VERDICT r3 flagged). Text output is
    byte-identical to ``extract_batch`` (shared ``extract_text_str``)."""
    from .linkgraph import link_partial_arrays

    urls = batch["url"].to_pylist()
    decoded = _decode(batch["html"].to_pylist())
    src_host, link_dst, link_n = link_partial_arrays(urls, decoded)
    return pa.Table.from_arrays(
        _doc_arrays(batch, decoded) + [src_host, link_dst, link_n],
        schema=DOCS_LINKS_SCHEMA,
    )


def drop_empty(docs_ds):
    """Drop rows whose extracted text is empty — AFTER url-dedup, so an
    empty latest capture suppresses its url entirely."""
    import pyarrow.compute as pc

    return docs_ds.map_batches(
        lambda t: t.filter(pc.greater(t["n_chars"], 0)), batch_format="pyarrow"
    )


def dedup_urls(docs_ds, cfg: KGConfig):
    """Keep the max (warc_ts, content_hash) row per url without shuffling
    text: project → winners over the tiny projection → broadcast winners →
    filter. Rows tying on ALL of (url, warc_ts, content_hash) are
    byte-identical; exactly one copy survives (a distinct pass over only
    the tied urls — a crawl shard almost never produces them)."""
    import pandas as pd

    from ..state.groupby import collect_pandas, distinct_rows, partition_reduce

    # one execution of the upstream pipeline feeds this 3-column projection;
    # everything below it is metadata / vocab-sized
    tier, proj = choose_tier(
        docs_ds.select_columns(["url", "warc_ts", "content_hash"]),
        cfg.driver_dedup_max, what="dedup_urls")
    if proj.count() == 0:  # nothing to dedup; the input keeps its typed schema
        return docs_ds

    def winners(part: pd.DataFrame) -> pd.DataFrame:
        # all rows of a url are in this partition → global per-url decision,
        # fully vectorized (sort + drop_duplicates + duplicated mask)
        dup_mask = part.duplicated("url", keep=False)
        dups = part[dup_mask]
        if dups.empty:
            return part.iloc[0:0].assign(n_win_copies=pd.Series(dtype="int64"))
        best = dups.sort_values(
            ["url", "warc_ts", "content_hash"], ascending=[True, False, False]
        ).drop_duplicates("url", keep="first")
        counts = (
            dups.merge(best, on=["url", "warc_ts", "content_hash"])
            .groupby("url", as_index=False)
            .size()
            .rename(columns={"size": "n_win_copies"})
        )
        return best.merge(counts, on="url")

    if tier == "driver":
        # small-side fast path: the 40-byte/row projection fits on the
        # driver — one collect, no shuffle
        win_df = winners(collect_pandas(proj, ["url", "warc_ts", "content_hash"]))
    else:
        tier, dup_winners = choose_tier(
            partition_reduce(proj, ["url"], winners, num_partitions=None),
            WINNERS_BROADCAST_MAX, what="dedup_urls_winners")
        if tier == "distributed":
            # scale tier: the winners table is too large for a driver
            # collect + broadcast map — filter via a distributed left hash
            # join instead (the driver never holds a winner row)
            return _dedup_join_tier(docs_ds, dup_winners)
        # small: only urls that appear 2+ times; Arrow-concat collect,
        # never per-row take_all
        win_df = collect_pandas(
            dup_winners, ["url", "warc_ts", "content_hash", "n_win_copies"])
    tie_urls = sorted(win_df.loc[win_df["n_win_copies"] > 1, "url"])
    if win_df.empty:
        return docs_ds
    # parallel winner arrays broadcast once; the filter is pure
    # pyarrow.compute (index_in + take + equal) — no per-row Python
    # (the _canon pattern, stages/materialize.py)
    ref = ray.put(
        (
            pa.array(win_df["url"], pa.string()),
            pa.array(win_df["warc_ts"]).cast(pa.timestamp("us")),
            pa.array(win_df["content_hash"], pa.binary()),
        )
    )

    def keep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        w_url, w_ts, w_h = ray.get(ref)
        idx = pc.index_in(batch["url"], value_set=w_url)
        mask = pc.or_kleene(
            pc.is_null(idx),
            pc.and_(
                pc.equal(batch["warc_ts"], pc.take(w_ts, idx)),
                pc.equal(
                    batch["content_hash"].cast(pa.binary()),
                    pc.take(w_h, idx),
                ),
            ),
        )
        return batch.filter(mask)

    filtered = docs_ds.map_batches(keep, batch_format="pyarrow")
    if not tie_urls:
        return filtered

    # exact-tie multiplicity: byte-identical winner copies collapse to one
    # row via a distinct pass over ONLY the tied urls (vanishingly rare, so
    # the extra upstream execution + row shuffle touch almost nothing)
    tie_ref = ray.put(tie_urls)
    base = anti_join_filter(filtered, "url", tie_ref)
    tied_once = distinct_rows(
        semi_join_filter(filtered, "url", tie_ref), ["url"],
        num_partitions=None,  # auto-size
    ).map_batches(
        # pandas round-trip loses binary(16)/timestamp[us] — restore DOCS_SCHEMA
        # so the union with the arrow-block base has one schema
        lambda df: pa.Table.from_pandas(df, schema=DOCS_SCHEMA, preserve_index=False),
        batch_format="pandas",
    )
    return base.union(tied_once)


def _dedup_join_tier(docs_ds, dup_winners):
    """Winners-too-large-to-broadcast tier of ``dedup_urls``: a distributed
    left hash join pulls each doc row's winner (if its url is duplicated)
    onto the row, a vectorized mask keeps non-duplicated urls and winner
    rows, and byte-identical full ties collapse via ``distinct_rows`` —
    selected on the tied rows by the joined ``n_win_copies`` column, so no
    tie set is ever broadcast either. Same semantics as the broadcast path
    (parity: tests/test_dedup_join_tier.py)."""
    import pandas as pd

    from ..state.groupby import distinct_rows
    from ..state.joins import hash_join

    win = dup_winners.map_batches(
        lambda df: pd.DataFrame(
            {"url": df["url"], "win_ts": df["warc_ts"],
             "win_hash": df["content_hash"], "n_win_copies": df["n_win_copies"]}
        ),
        batch_format="pandas",
    )
    joined = hash_join(docs_ds, win, on="url", how="left")

    def _to_docs(df: pd.DataFrame) -> pa.Table:
        # pandas round-trip loses binary(16)/timestamp[us] — restore schema
        return pa.Table.from_pandas(
            df[list(DOCS_SCHEMA.names)], schema=DOCS_SCHEMA, preserve_index=False
        )

    def _base(df: pd.DataFrame) -> pa.Table:
        keep = df["win_ts"].isna() | (
            (df["warc_ts"] == df["win_ts"]) & (df["content_hash"] == df["win_hash"])
        )
        return _to_docs(df[keep & (df["n_win_copies"].fillna(1) <= 1)])

    def _tied(df: pd.DataFrame) -> pd.DataFrame:
        keep = (df["warc_ts"] == df["win_ts"]) & (df["content_hash"] == df["win_hash"])
        return df[keep & (df["n_win_copies"].fillna(1) > 1)][list(DOCS_SCHEMA.names)]

    base = joined.map_batches(_base, batch_format="pandas")
    tied_once = distinct_rows(
        joined.map_batches(_tied, batch_format="pandas"), ["url"],
        num_partitions=None,  # auto-size
    ).map_batches(_to_docs, batch_format="pandas")
    return base.union(tied_once)


def dedup_urls_meta(pages_ds, cfg: KGConfig):
    """Metadata-first url-dedup (streaming mode): the winner per url is the
    max ``warc_ts`` capture — decidable from the 2-column (url, warc_ts)
    projection BEFORE any HTML is parsed. ``content_hash`` only breaks
    exact max-ts ties, so extraction runs ONCE, over winner rows only, plus
    a vocab-sized hash tiebreak over the (vanishingly rare) tied captures.
    Semantics are identical to ``dedup_urls`` over extracted docs (both
    mirror oracle/scalar.oracle_docs): per url max (warc_ts, content_hash),
    one copy of byte-identical full ties, empty-text drop AFTER dedup.

    vs the old streaming flow (extract → project → winners → filter, i.e.
    extraction twice over every capture): here the winners pass is a
    metadata read and losers are never parsed at all."""
    import pandas as pd

    from ..state.groupby import collect_pandas, partition_reduce

    pages_ds = filter_langs(pages_ds, cfg)  # dedup must see post-filter rows
    tier, proj = choose_tier(pages_ds.select_columns(["url", "warc_ts"]),
                             cfg.driver_dedup_max, what="dedup_urls_meta")
    if proj.count() == 0:  # no pages: typed empty docs on either tier
        return ray.data.from_arrow(DOCS_SCHEMA.empty_table())

    def winners(part: pd.DataFrame) -> pd.DataFrame:
        """Per duplicated url: max warc_ts + how many captures tie at it."""
        dups = part[part.duplicated("url", keep=False)]
        if dups.empty:
            return pd.DataFrame(
                {"url": pd.Series(dtype=part["url"].dtype),
                 "warc_ts": pd.Series(dtype=part["warc_ts"].dtype),
                 "n_at_max": pd.Series(dtype="int64")}
            )
        mx = dups.groupby("url", as_index=False)["warc_ts"].max()
        at_max = (
            dups.merge(mx, on=["url", "warc_ts"])
            .groupby("url", as_index=False)
            .size()
            .rename(columns={"size": "n_at_max"})
        )
        return mx.merge(at_max, on="url")

    if tier == "driver":
        win_df = winners(collect_pandas(proj, ["url", "warc_ts"]))
    else:
        tier, dup_winners = choose_tier(
            partition_reduce(proj, ["url"], winners, num_partitions=None),
            WINNERS_BROADCAST_MAX, what="dedup_urls_meta_winners")
        if tier == "distributed":
            return _dedup_meta_join_tier(pages_ds, dup_winners, cfg)
        # Arrow-concat collect, never per-row take_all
        win_df = collect_pandas(dup_winners, ["url", "warc_ts", "n_at_max"])
    tie_urls = sorted(win_df.loc[win_df["n_at_max"] > 1, "url"])
    if win_df.empty:
        return extract_docs(pages_ds, cfg)
    # parallel winner arrays + pure pyarrow.compute filter (see dedup_urls)
    ref = ray.put(
        (
            pa.array(win_df["url"], pa.string()),
            pa.array(win_df["warc_ts"]).cast(pa.timestamp("us")),
        )
    )

    def keep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        w_url, w_ts = ray.get(ref)
        idx = pc.index_in(batch["url"], value_set=w_url)
        mask = pc.or_kleene(
            pc.is_null(idx),
            pc.equal(batch["warc_ts"], pc.take(w_ts, idx)),
        )
        return batch.filter(mask)

    docs = extract_docs(pages_ds.map_batches(keep, batch_format="pyarrow"), cfg)
    if not tie_urls:
        return docs

    # hash tiebreak over ONLY the tied urls (``_best_hash``)
    tie_ref = ray.put(tie_urls)
    base = anti_join_filter(docs, "url", tie_ref)
    tied_best = partition_reduce(
        semi_join_filter(docs, "url", tie_ref), ["url"], _best_hash,
        num_partitions=None,  # auto-size
    ).map_batches(
        # pandas round-trip loses binary(16)/timestamp[us] — restore DOCS_SCHEMA
        lambda df: pa.Table.from_pandas(df, schema=DOCS_SCHEMA, preserve_index=False),
        batch_format="pandas",
    )
    return base.union(tied_best)


def _best_hash(part):
    """Per url the max content_hash wins among tied captures; keep-first
    also collapses byte-identical full ties to one copy."""
    return part.sort_values(
        ["url", "content_hash"], ascending=[True, False]
    ).drop_duplicates("url", keep="first")


def _dedup_meta_join_tier(pages_ds, dup_winners, cfg: KGConfig):
    """Winners-too-large-to-broadcast tier of ``dedup_urls_meta``: the
    max-ts winner (and its tie count) is joined onto the PAGES rows before
    extraction — losers are dropped by a vectorized mask and never parsed,
    tied captures (``n_at_max > 1``) take the max-content_hash tiebreak
    via a distributed ``partition_reduce`` selected by the joined column.
    The trade at this tier: the pages' html shuffles once by url bucket
    (unavoidable when the winner set itself exceeds broadcast size); the
    broadcast tier below the gate shuffles nothing."""
    import pandas as pd

    from ..state.groupby import partition_reduce
    from ..state.joins import hash_join

    win = dup_winners.map_batches(
        lambda df: pd.DataFrame(
            {"url": df["url"], "win_ts": df["warc_ts"], "n_at_max": df["n_at_max"]}
        ),
        batch_format="pandas",
    )
    joined = hash_join(pages_ds, win, on="url", how="left")
    page_cols = ["url", "warc_ts", "html", "lang"]

    def _keep(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["win_ts"].isna() | (df["warc_ts"] == df["win_ts"])]

    kept = joined.map_batches(_keep, batch_format="pandas")
    base_pages = kept.map_batches(
        lambda df: df[df["n_at_max"].fillna(1) <= 1][page_cols],
        batch_format="pandas",
    )
    tied_pages = kept.map_batches(
        lambda df: df[df["n_at_max"].fillna(1) > 1][page_cols],
        batch_format="pandas",
    )

    base = extract_docs(base_pages, cfg)
    tied_best = partition_reduce(
        extract_docs(tied_pages, cfg), ["url"], _best_hash, num_partitions=None
    ).map_batches(
        lambda df: pa.Table.from_pandas(
            df[list(DOCS_SCHEMA.names)], schema=DOCS_SCHEMA, preserve_index=False
        ),
        batch_format="pandas",
    )
    return base.union(tied_best)


def extract_docs(pages_ds, cfg: KGConfig, *, emit_links: bool = False):
    """web_pages Dataset → raw extracted docs (not yet url-deduped; includes
    empty-text rows — see module docstring step ordering).

    ``emit_links=True`` adds the per-row link-partial columns
    (``src_host``/``link_dst``/``link_n``, DOCS_LINKS_SCHEMA) so the host
    link graph derives from THIS pass instead of re-scanning raw html."""
    pages_ds = filter_langs(pages_ds, cfg)
    return pages_ds.map_batches(
        extract_batch_links if emit_links else extract_batch,
        batch_format="pyarrow",
        batch_size=EXTRACT_BATCH_SIZE,
        zero_copy_batch=True,
    )


def filter_langs(ds, cfg: KGConfig):
    """Optional language dispatch (the content-type-dispatch analog of
    DocumentProcessor.py:25-30): drop rows whose lang isn't configured.
    Applied pre-extraction so filtered html is never parsed."""
    if not cfg.filter_langs:
        return ds
    import pyarrow.compute as pc

    langs = pa.array(sorted(cfg.filter_langs))
    return ds.map_batches(
        lambda t: t.filter(pc.is_in(t["lang"], langs)), batch_format="pyarrow"
    )


def build_docs(pages_ds, cfg: KGConfig):
    """web_pages Dataset → docs Dataset (extracted, url-deduped, empty rows
    dropped). Streaming path: metadata-first dedup (``dedup_urls_meta``) —
    winners come from the 2-column (url, warc_ts) projection, so HTML is
    parsed exactly ONCE, and only for winner rows. (The checkpointed
    pipeline in pipelines/kg.py instead writes extraction to Parquet and
    runs ``dedup_urls`` over the stored docs.)"""
    return drop_empty(dedup_urls_meta(pages_ds, cfg))
