"""Training-data curation recipe: the end-to-end composition a pretraining
pipeline runs over a raw document table before anything expensive —
filter → exact dedup → deterministic sample → stats.

This is the flagship COMPOSED pipeline over the existing operator family
(quality gate stages/textstats.py, exact dedup shape stages/dedup.py,
hash sampling stages/sampling.py), and every step is chosen to be exactly
SQL-expressible so the whole recipe stays oracle-checked end to end
(reference analog: the ingest-time gatekeeping the service applies before
embedding, e.g. blank-page suppression DocProcAiService.py:118-140 —
here generalized to corpus curation).

Stage order is load-bearing for scale:

1. quality + lang gate runs per batch FIRST (needs ``text``) and the text
   column is reduced to a 16-byte hash in the same batch — the exchange
   that follows never carries text;
2. exact dedup keeps the min-doc_id row per text hash among SURVIVORS
   (one ``partition_reduce`` on the hash; blake2b-128 collisions are
   negligible, and the SQL oracle groups by the text itself, so a
   collision would be CAUGHT as an oracle mismatch, not hidden);
3. the deterministic md5-prefix sample (stages/sampling.py) is a pure map
   with an exact SQL predicate twin;
4. per-lang stats are a partial+final grouped count/sum.

Zero driver state, one all-to-all total (the dedup exchange, carrying
~40 B/row), sample AFTER dedup so the kept set is stable under re-runs
and under corpus growth of duplicate pages.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pandas as pd
import ray.data as rd

from ..stages.sampling import hash_sample, sample_sql_predicate
from ..stages.textstats import quality_score, token_counts
from ..state.groupby import group_agg

DEFAULT_LANGS = ("en", "de")
DEFAULT_MIN_QUALITY = 0.7
DEFAULT_SAMPLE_RATE = 0.5


def curate_documents(sf_dir: str, *, langs=DEFAULT_LANGS,
                     min_quality: float = DEFAULT_MIN_QUALITY,
                     sample_rate: float = DEFAULT_SAMPLE_RATE,
                     seed: int = 42):
    """→ Dataset(doc_id, lang, tok, quality): the curated keep-set."""
    from ..state.groupby import partition_reduce

    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "lang"],
    )
    lang_set = set(langs)

    def gate_and_hash(df: pd.DataFrame) -> pd.DataFrame:
        q = quality_score(df["text"])
        keep = df["lang"].isin(lang_set) & (q >= min_quality)
        kept = df[keep]
        return pd.DataFrame(
            {
                "h": kept["text"].fillna("").map(
                    lambda t: hashlib.blake2b(t.encode(), digest_size=16).hexdigest()
                ),
                "doc_id": kept["doc_id"],
                "lang": kept["lang"],
                "tok": token_counts(kept["text"]),
                "quality": q[keep],
            }
        )

    hashed = docs.map_batches(gate_and_hash, batch_format="pandas")

    def keep_min_id(part: pd.DataFrame) -> pd.DataFrame:
        return (
            part.sort_values("doc_id")
            .drop_duplicates("h", keep="first")
            .drop(columns="h")
        )

    deduped = partition_reduce(hashed, ["h"], keep_min_id)
    return hash_sample(deduped, "doc_id", sample_rate, seed=seed)


def curated_corpus_stats(sf_dir: str, **kwargs):
    """→ (lang, n_docs, n_tokens): per-language size of the curated set."""
    return group_agg(curate_documents(sf_dir, **kwargs), ["lang"],
                     {"n_docs": ("doc_id", "size"), "n_tokens": ("tok", "sum")},
                     num_partitions=4)


def curation_sql(langs=DEFAULT_LANGS, min_quality: float = DEFAULT_MIN_QUALITY,
                 sample_rate: float = DEFAULT_SAMPLE_RATE, seed: int = 42) -> str:
    """The DuckDB twin of the WHOLE recipe (same quality formula as
    textqueries._quality_sql, group-by-text dedup with min doc_id, same
    md5 sample predicate) — stats grouped per lang."""
    from ..stages.textstats import _STOPWORDS

    word_re = "[a-zàâäéèêëîïôöùûüß]+"
    en = "[" + ", ".join(f"'{w}'" for w in sorted(_STOPWORDS["en"])) + "]"
    lang_list = ", ".join(f"'{l}'" for l in langs)
    pred = sample_sql_predicate("doc_id", sample_rate, seed=seed)
    return f"""
        WITH d AS (SELECT doc_id, lang, coalesce(text, '') AS t FROM documents),
        m AS (
            SELECT doc_id, lang, t,
                   len(regexp_extract_all(t, '\\S+')) AS tok,
                   length(t) AS n,
                   len(regexp_extract_all(t, '[.!?,;:]'))::DOUBLE
                       / greatest(length(t), 1) AS pr,
                   len(list_filter(regexp_extract_all(lower(t), '{word_re}'),
                                   x -> list_contains({en}, x)))::DOUBLE
                       / greatest(len(regexp_extract_all(lower(t), '{word_re}')), 1)
                       AS swr
            FROM d
        ),
        q AS (
            SELECT doc_id, lang, t, tok,
                   ROUND(0.4::DOUBLE * (CASE WHEN n BETWEEN 50 AND 100000 THEN 1 ELSE 0 END)
                       + 0.3::DOUBLE * (CASE WHEN pr > 0.0 AND pr < 0.2 THEN 1 ELSE 0 END)
                       + 0.3::DOUBLE * (CASE WHEN swr > 0.02 THEN 1 ELSE 0 END), 6) AS q
            FROM m
        ),
        f AS (SELECT * FROM q WHERE lang IN ({lang_list}) AND q >= {min_quality}),
        dd AS (
            SELECT doc_id, lang, tok FROM (
                SELECT f.*, ROW_NUMBER() OVER (PARTITION BY t ORDER BY doc_id) AS rn
                FROM f) WHERE rn = 1
        ),
        s AS (SELECT * FROM dd WHERE {pred})
        SELECT lang, COUNT(*) AS n_docs, SUM(tok)::BIGINT AS n_tokens
        FROM s GROUP BY lang
    """


# --------------------------------------------------------------------------
# Full release flow (VERDICT r4 #5): the flagship 100-TB user journey as
# ONE composed recipe instead of separate ops.
# --------------------------------------------------------------------------

# the synthetic corpus vocabulary is dense (every real token appears in
# ~75%+ of docs), so the demo blocklist is a PLANTED marker — queries and
# tests union a few marker docs in (the stages/pii.py planting pattern);
# real runs pass their own list
DEFAULT_RELEASE_BLOCKWORDS = ("xblocked",)


def release_documents(sf_dir: str | None, *, docs=None,
                      blockwords=DEFAULT_RELEASE_BLOCKWORDS,
                      min_words: int = 20, stop_min: int = 0,
                      nd_threshold: float = 0.9,
                      residual_min_words: int = 5,
                      holdout_rate: float = 0.2, seed: int = 42,
                      cfg=None,
                      stage_counts: dict | None = None):
    """The end-to-end curation RELEASE flow over the documents table —
    the chain an open-data corpus release actually runs (C4 §2.2 /
    Gopher A1 / RefinedWeb §3, composed):

        gopher gate → blockword gate → line dedup (rewrite) →
        minhash keep-best + leakage-safe split (shared pair graph) →
        pii scrub

    Returns Dataset(doc_id, lang, source, text, n_tokens, split) — the
    released corpus with scrubbed, line-deduped text, every doc tagged
    train/holdout by its near-dup-cluster unit. Stage order is
    load-bearing: cheap per-batch gates FIRST (losers never shingle),
    the line rewrite BEFORE near-dup closure (boilerplate lines would
    otherwise glue unrelated docs into clusters), the scrub LAST (it
    must not perturb dedup shingles). Every exchange in the chain is the
    already-audited one inside its stage (hashes / cluster labels, never
    text beyond the line-dedup join-back).

    ``stage_counts``: pass a dict to record the funnel — doc counts after
    each macro stage ({raw, gopher_gate, blockword_gate,
    line_dedup_residual, keep_best}). Counting an intermediate requires
    executing it, so funnel mode materializes each counted stage and
    chains from the materialized handle (each stage still runs exactly
    once; the object store holds one extra corpus-sized table per live
    stage — observability mode, not the 100-TB default, which leaves
    ``stage_counts=None`` and materializes only ``rewritten``)."""

    def _count(ds_, name):
        if stage_counts is None:
            return ds_
        ds_ = ds_.materialize()
        stage_counts[name] = ds_.count()
        return ds_

    from ..stages.gopher import gopher_filter
    from ..stages.keepbest import keep_best_and_split
    from ..stages.lexgate import blockword_filter
    from ..stages.linededup import line_dedup
    from ..stages.pii import pii_scrub
    from ..state.joins import hash_join

    if docs is None:
        docs = rd.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "text", "lang", "source"],
        )
    docs = _count(docs, "raw")
    # gate calibration for the synthetic corpus: min_words=20 (short docs
    # exercise both sides of R1, same as the gopher_rules_by_source query)
    # and stop_min=0 (word-soup text has no English stop words — R7 at
    # its Gopher default would empty the corpus; real runs pass 2)
    gated = _count(gopher_filter(docs, "text", min_words=min_words,
                                 stop_min=stop_min), "gopher_gate")
    clean = _count(blockword_filter(gated, "text", list(blockwords)),
                   "blockword_gate")
    deduped_lines = line_dedup(clean, "doc_id", "text").drop_columns(
        ["n_lines", "n_kept"])

    # residual gate: a doc whose text line dedup mostly emptied (e.g. the
    # loser of a whole-doc duplicate — every line was a corpus duplicate)
    # is a husk, not a document; C4-style releases drop it here rather
    # than publish empty rows. Pure map.
    def residual(df: pd.DataFrame) -> pd.DataFrame:
        return df[token_counts(df["text"]) >= residual_min_words]

    rewritten = deduped_lines.map_batches(
        residual, batch_format="pandas"
    ).materialize()  # tee: kbs + join-back reuse it
    if stage_counts is not None:
        stage_counts["line_dedup_residual"] = rewritten.count()
    kbs = keep_best_and_split(
        rewritten, "doc_id", "text", threshold=nd_threshold,
        holdout_rate=holdout_rate, seed=seed, cfg=cfg)

    def keepers(df: pd.DataFrame) -> pd.DataFrame:
        return df.loc[df["keep"], ["doc_id", "split"]]

    kept = _count(hash_join(rewritten,
                            kbs.map_batches(keepers, batch_format="pandas"),
                            on="doc_id"), "keep_best")
    scrubbed = pii_scrub(kept, "text")

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        out = df[["doc_id", "lang", "source", "text", "split"]].copy()
        out["n_tokens"] = token_counts(df["text"])
        return out[["doc_id", "lang", "source", "text", "n_tokens", "split"]]

    return scrubbed.map_batches(finish, batch_format="pandas")


def release(sf_dir: str | None, out_dir: str, *, gzip_shards: bool = True,
            **kwargs) -> dict:
    """Run :func:`release_documents` and PUBLISH it: one content-addressed
    JSONL export per split (``<out_dir>/train``, ``<out_dir>/holdout``,
    sources/export layout with sha256 manifests). Returns
    {split: manifest DataFrame}."""
    from ..sources.export import export_jsonl

    released = release_documents(sf_dir, **kwargs).materialize()
    manifests = {}
    for split in ("train", "holdout"):
        part = released.map_batches(
            lambda df, s=split: df[df["split"] == s],
            batch_format="pandas")
        manifests[split] = export_jsonl(
            part, os.path.join(out_dir, split),
            columns=["doc_id", "lang", "source", "text", "n_tokens"],
            gzip_shards=gzip_shards, sort_within_shard="doc_id")
    return manifests


def released_corpus_stats(sf_dir: str | None, **kwargs):
    """→ (lang, split, n_docs, n_tokens, avg_tokens): the shape of the
    released corpus per language and side — the release's headline
    scorecard (golden-frozen: the chain includes the LSH cluster closure,
    which is approximate-by-design and not SQL-expressible; chain
    properties are certified in tests/test_curate.py)."""
    return group_agg(
        release_documents(sf_dir, **kwargs), ["lang", "split"],
        {"n_docs": ("doc_id", "size"), "n_tokens": ("n_tokens", "sum")},
        finish=lambda g: g.assign(
            avg_tokens=(g["n_tokens"] / g["n_docs"]).round(6)),
        num_partitions=4)


_FUNNEL_ORDER = ("raw", "gopher_gate", "blockword_gate",
                 "line_dedup_residual", "keep_best")


def release_funnel_stats(sf_dir: str | None, **kwargs):
    """→ DataFrame(step, stage, n_docs): the release chain's FUNNEL — how
    many documents survive each macro stage (raw → gopher gate →
    blockword gate → line-dedup+residual → near-dup keep-best → final
    train/holdout sides). The observability table every large curation
    run reads first: a stage that suddenly eats 40% of the corpus is a
    recipe bug, and at 100 TB you want that from counters, not by
    diffing exports. Counts are exact integers ⇒ golden-freezable (the
    chain includes the LSH closure, so no exact SQL twin exists;
    chain-shape properties are certified in tests/test_curate.py)."""
    from ..state.groupby import collect_pandas

    counts: dict = {}
    released = release_documents(sf_dir, stage_counts=counts,
                                 **kwargs).materialize()
    sides = collect_pandas(
        group_agg(released, ["split"], {"n": ("doc_id", "size")},
                  num_partitions=2),
        ["split", "n"]).set_index("split")["n"].to_dict()

    rows = [{"step": i, "stage": s, "n_docs": int(counts[s])}
            for i, s in enumerate(_FUNNEL_ORDER)]
    for side in ("train", "holdout"):
        rows.append({"step": len(rows), "stage": f"released_{side}",
                     "n_docs": int(sides.get(side, 0))})
    return pd.DataFrame(rows)


# --------------------------------------------------------------------------
# Training-shard publication: the last mile from a released corpus to the
# shard streams a trainer actually reads (r5 flagship journey, part 2).
# --------------------------------------------------------------------------


def publish_training_shards(sf_dir: str | None, *, docs=None,
                            seq_len: int = 512, n_shards: int = 8,
                            split: str = "train", seed: int = 42,
                            out_dir: str | None = None,
                            **release_kwargs):
    """Released corpus → trainer-ready shard streams:

    1. :func:`release_documents` (gates → dedup → split → scrub);
    2. the requested ``split`` side only (train by default — the holdout
       must never enter training shards);
    3. ``shard_shuffle`` assigns every doc a deterministic (shard, pos)
       — a content-hash permutation, bit-identical at any parallelism;
    4. ONE shard-keyed exchange packs each shard independently in pos
       order: greedy concatenation into ``seq_len``-token sequences
       (GPT-style document packing), seq ids NEVER straddle a shard
       boundary — each shard file is a self-contained stream;
    5. optional per-shard JSONL export (content-addressed, ordered by
       pos) when ``out_dir`` is given.

    Returns Dataset(doc_id, lang, source, n_tokens, shard, pos,
    start_seq, end_seq). Scale shape: the only exchange beyond the
    release chain's own is the shard-keyed pack — shards are equal-ish
    by construction (md5 modulus), so no partition exceeds
    corpus/n_shards rows, and only (id, tokens, shard, pos) ints move
    for the pack; text joins back via the auto-tier hash join only for
    the export hop."""
    from ..stages.sampling import shard_shuffle
    from ..state.groupby import partition_reduce
    from ..state.joins import hash_join

    released = release_documents(sf_dir, docs=docs, seed=seed,
                                 **release_kwargs)

    def side(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["split"] == split]

    part = released.map_batches(side, batch_format="pandas").materialize()
    shards = shard_shuffle(part, "doc_id", n_shards, seed=seed)

    def meta(df: pd.DataFrame) -> pd.DataFrame:
        return df[["doc_id", "lang", "source", "n_tokens"]]

    tagged = hash_join(part.map_batches(meta, batch_format="pandas"),
                       shards, on="doc_id")

    def pack_shard(grp: pd.DataFrame) -> pd.DataFrame:
        # all rows of one (or more) shard(s); pack each shard in pos order
        grp = grp.sort_values(["shard", "pos"], kind="stable")
        out = []
        for sh, g in grp.groupby("shard", sort=False):
            tok = g["n_tokens"].to_numpy(dtype="int64")
            prefix = np.concatenate(([0], np.cumsum(tok)[:-1]))
            nz = tok > 0
            start = prefix // seq_len
            end = (prefix + np.maximum(tok, 1) - 1) // seq_len
            o = g.copy()
            o["start_seq"] = start
            o["end_seq"] = end
            out.append(o[nz])  # zero-token docs occupy no sequence
        # a partition holds at least one row, so at least one shard
        return pd.concat(out, ignore_index=True)

    packed = partition_reduce(tagged, ["shard"], pack_shard)

    if out_dir is not None:
        from ..sources.export import export_jsonl

        full = hash_join(packed,
                         part.map_batches(lambda d: d[["doc_id", "text"]],
                                          batch_format="pandas"),
                         on="doc_id").materialize()
        for sh in range(n_shards):
            piece = full.map_batches(
                lambda df, s=sh: df[df["shard"] == s],
                batch_format="pandas")
            export_jsonl(piece, os.path.join(out_dir, f"shard-{sh:05d}"),
                         columns=["doc_id", "pos", "start_seq", "end_seq",
                                  "n_tokens", "text"],
                         sort_within_shard="pos")
    return packed


def training_shards_stats(sf_dir: str | None, *, seq_len: int = 512,
                          n_shards: int = 8, **kwargs):
    """→ (shard, n_docs, n_tokens, n_seqs): the shape of each published
    training shard — n_seqs is exact for straddle-free within-shard
    packing (= max end_seq + 1). Golden-frozen (chains the release flow's
    LSH closure); packing/shuffle kernels are REAL-SQL-oracled separately
    (packed_doc_spans, doc_shard_shuffle)."""
    packed = publish_training_shards(sf_dir, seq_len=seq_len,
                                     n_shards=n_shards, **kwargs)
    return group_agg(
        packed, ["shard"],
        {"n_docs": ("doc_id", "size"), "n_tokens": ("n_tokens", "sum"),
         "n_seqs": ("end_seq", "max")},
        finish=lambda g: g.assign(n_seqs=g["n_seqs"] + 1).astype("int64"),
        num_partitions=4)
