"""Text-analysis queries over the ``documents`` table: language, quality
and token statistics, n-gram language models, tokenizer training,
normalization and chunking.

Each query is declared in the registry (pipelines/registry.py) next to its
function, with its oracle. The SQL twins are built from the same stopword
lists and regexes the Ray kernels use (stages/textstats.py and the other
stage modules), so the two sides cannot drift.
"""

from __future__ import annotations

import os

import pandas as pd

from ..stages.chunking import chunk_spans_sql
from ..stages.cooccur import cooccurrence_pmi_sql
from ..stages.diversity import distinct_ngram_sql
from ..stages.ngramlm import bigram_lm_sql, kneser_ney_sql, perplexity_buckets_sql
from ..stages.overlap import source_overlap_sql
from ..stages.postings import postings_sql
from ..stages.readability import flesch_sql
from ..stages.textnorm import normalize_text_sql
from ..stages.textstats import repetition_sql, unigram_logprob_sql
from ..stages.tfidf import tfidf_sql
from ..stages.zipf import zipf_law_sql
from ..state.groupby import group_agg
from .benchqueries import _pq
from .registry import register

_BPE = ("iterative merge fixpoint (tokenizer training), not SQL-expressible; "
        "both tiers bit-match a naive single-process reference in "
        "tests/test_bpe.py")


def _sql_list(words) -> str:
    return "[" + ", ".join(f"'{w}'" for w in sorted(words)) + "]"


def _lang_id_sql() -> str:
    from docprocai_service_ray.stages.textstats import _STOPWORDS

    word_re = "[a-zàâäéèêëîïôöùûüß]+"
    score = {
        lang: (
            f"len(list_filter(regexp_extract_all(lower(coalesce(text, '')), "
            f"'{word_re}'), x -> list_contains({_sql_list(sw)}, x)))"
        )
        for lang, sw in _STOPWORDS.items()
    }
    # python rule: langs scanned in sorted order, strictly-greater score
    # wins → earlier language wins ties; all-zero → 'und'
    return f"""
        WITH sc AS (
            SELECT {score['de']} AS de, {score['en']} AS en, {score['fr']} AS fr
            FROM documents
        )
        SELECT CASE WHEN de = 0 AND en = 0 AND fr = 0 THEN 'und'
                    WHEN de >= en AND de >= fr THEN 'de'
                    WHEN en >= fr THEN 'en'
                    ELSE 'fr' END AS lang_guess,
               COUNT(*) AS n
        FROM sc GROUP BY 1
    """


@register("lang_id_docs", sql=_lang_id_sql)
def _lang_id_docs(sf_dir: str):
    from docprocai_service_ray.stages.textstats import lang_id

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return group_agg(
        ds.map_batches(lambda df: pd.DataFrame({"lang_guess": lang_id(df["text"])}),
                       batch_format="pandas"),
        ["lang_guess"], {"n": ("lang_guess", "size")}, num_partitions=4)


def _quality_sql() -> str:
    from docprocai_service_ray.stages.textstats import _STOPWORDS

    word_re = "[a-zàâäéèêëîïôöùûüß]+"
    en = _sql_list(_STOPWORDS["en"])
    return f"""
        WITH d AS (SELECT source, coalesce(text, '') AS t FROM documents),
        m AS (
            SELECT source,
                   length(t) AS n,
                   len(regexp_extract_all(t, '\\S+')) AS tok,
                   len(regexp_extract_all(t, '[.!?,;:]'))::DOUBLE
                       / greatest(length(t), 1) AS pr,
                   len(list_filter(regexp_extract_all(lower(t), '{word_re}'),
                                   x -> list_contains({en}, x)))::DOUBLE
                       / greatest(len(regexp_extract_all(lower(t), '{word_re}')), 1)
                       AS swr
            FROM d
        ),
        q AS (
            SELECT source, tok,
                   ROUND(0.4::DOUBLE * (CASE WHEN n BETWEEN 50 AND 100000 THEN 1 ELSE 0 END)
                       + 0.3::DOUBLE * (CASE WHEN pr > 0.0 AND pr < 0.2 THEN 1 ELSE 0 END)
                       + 0.3::DOUBLE * (CASE WHEN swr > 0.02 THEN 1 ELSE 0 END), 6) AS q
            FROM m
        )
        SELECT source, COUNT(*) AS n_docs,
               ROUND(SUM(q) / COUNT(*), 4) AS avg_quality,
               CAST(SUM(tok) AS BIGINT) AS total_tokens
        FROM q GROUP BY 1
    """


@register("quality_by_source", sql=_quality_sql)
def _quality_by_source(sf_dir: str):
    from docprocai_service_ray.stages.textstats import quality_score, token_counts

    ds = _pq(sf_dir, "documents", ["source", "text"])

    def scores(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "source": df["source"],
            "q": quality_score(df["text"]),
            "tok": token_counts(df["text"]),
        })

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "source": g["source"],
            "n_docs": g["n_docs"],
            "avg_quality": (g["qs"] / g["n_docs"]).round(4),
            "total_tokens": g["total_tokens"],
        })

    return group_agg(
        ds.map_batches(scores, batch_format="pandas"), ["source"],
        {"n_docs": ("q", "size"), "qs": ("q", "sum"), "total_tokens": ("tok", "sum")},
        finish=finish, num_partitions=4)


_ROLLING_SQL = """
    WITH d AS (SELECT doc_id, coalesce(text, '') AS t FROM documents),
    g AS (SELECT unnest(range((SELECT greatest(max(length(t)) - 64, 0) + 1 FROM d))) AS i),
    win AS (
        SELECT d.doc_id, min(md5(substr(d.t, g.i + 1, 64))) AS rfp
        FROM d, g
        WHERE length(d.t) > 64
          AND g.i <= length(d.t) - 64
          AND g.i % greatest(1, (length(d.t) - 64) // 128) = 0
        GROUP BY 1
    ),
    small AS (SELECT doc_id, md5(t) AS rfp FROM d WHERE length(t) <= 64)
    SELECT d.doc_id,
           coalesce(w.rfp, s.rfp) AS rfp,
           len(regexp_extract_all(d.t, '[A-Za-z]+|\\d+|[^\\sA-Za-z\\d]')) AS bpe_tokens
    FROM d LEFT JOIN win w USING (doc_id) LEFT JOIN small s USING (doc_id)
"""


@register("rolling_fingerprints", sql=_ROLLING_SQL)
def _rolling_fingerprints(sf_dir: str):
    from docprocai_service_ray.stages.textstats import bpe_ish_token_counts, rolling_fingerprint

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(
        lambda df: pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "rfp": rolling_fingerprint(df["text"]),
                "bpe_tokens": bpe_ish_token_counts(df["text"]),
            }
        ),
        batch_format="pandas",
    )


_TOKEN_DF_SQL = """
    WITH t AS (
        SELECT doc_id,
               unnest(regexp_extract_all(lower(coalesce(text, '')), '[a-z]+')) AS token
        FROM documents
    )
    SELECT token, COUNT(DISTINCT doc_id) AS df
    FROM t GROUP BY 1 HAVING COUNT(DISTINCT doc_id) >= 5
"""


@register("token_doc_frequency", sql=_TOKEN_DF_SQL)
def _token_doc_frequency(sf_dir: str):
    """Inverted-index df stats over the documents table (tokens appearing
    in >= 5 docs)."""
    from docprocai_service_ray.stages.textstats import token_doc_frequency

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return token_doc_frequency(ds, "doc_id", "text", min_df=5)


@register("doc_top_terms", sql=tfidf_sql("documents", "doc_id", "text", 3))
def _doc_top_terms(sf_dir: str):
    """Per-doc TF-IDF top-3 terms (stages/tfidf.py): in-batch tf explode →
    df exchange → auto-tiered idf join → per-doc top-k; integer-exact
    output (the float score is rank-only)."""
    import ray.data as rd

    from docprocai_service_ray.stages.tfidf import doc_top_terms

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return doc_top_terms(ds, "doc_id", "text", 3)


@register("repetition_by_source",
          sql=repetition_sql("documents", "doc_id", "text", "source",
                             flag_threshold=0.5))
def _repetition_by_source(sf_dir: str):
    """Gopher-style within-document repetition filters aggregated per
    source (stages/textstats.repetition_stats): duplicate-word fraction,
    top-word fraction, docs over the flag threshold."""
    from docprocai_service_ray.stages.textstats import repetition_stats

    ds = _pq(sf_dir, "documents", ["doc_id", "text", "source"])
    return repetition_stats(ds, "doc_id", "text", "source",
                            flag_threshold=0.5)


@register("token_pmi",
          sql=cooccurrence_pmi_sql("documents", "doc_id", "text",
                                   min_pair_count=2))
def _token_pmi(sf_dir: str):
    """Document-level token co-occurrence PMI (stages/cooccur): the
    association-score table behind collocation mining / relation
    discovery. df pre-pass + pair-keyed count exchange + auto-tiered df
    joins; N is a metadata-only count."""
    from docprocai_service_ray.stages.cooccur import cooccurrence_pmi

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return cooccurrence_pmi(ds, "doc_id", "text", min_pair_count=2)


@register("token_postings",
          sql=postings_sql("documents", "doc_id", "text", min_df=2,
                           max_postings=16))
def _token_postings(sf_dir: str):
    """Inverted-index build (stages/postings.build_postings): per-token
    sorted postings lists over the documents table, with the max_df
    sorted postings lists over the documents table; max_postings
    exercises truncation (df stays the full count). The max_df stopword
    ceiling / hot-token defuse is parity-tested in tests/test_postings.py
    (the synthetic vocabulary is near-uniformly universal, so an absolute
    ceiling would be scale-fragile here)."""
    from docprocai_service_ray.stages.postings import build_postings

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return build_postings(ds, "doc_id", "text", min_df=2, max_postings=16)


@register("unigram_bits_by_source",
          sql=unigram_logprob_sql("documents", "doc_id", "text", "source"))
def _unigram_bits_by_source(sf_dir: str):
    """Corpus-self unigram cross-entropy per source
    (stages/textstats.unigram_logprob_stats) — the model-free analog of
    CCNet perplexity filtering: unigram LM from the corpus's own token
    counts, mean -log2 p per doc, averaged per source. Token-keyed then
    doc-keyed count exchanges; the corpus total enters as one final
    scalar shift (log2 T)."""
    from docprocai_service_ray.stages.textstats import unigram_logprob_stats

    ds = _pq(sf_dir, "documents", ["doc_id", "text", "source"])
    return unigram_logprob_stats(ds, "doc_id", "text", "source")


@register("unigram_vocab",
          golden="unigram-LM hard-EM training: int64 Viterbi counts, "
                 "bit-deterministic (tiers bit-equal in tests/test_unigram.py)")
def _unigram_vocab(sf_dir: str):
    """Unigram-LM tokenizer training (stages/unigram; Kudo 2018 hard-EM
    variant): over-complete substring seed → Viterbi E-step with exact
    int64 counts → prune — the second tokenizer family beside BPE.
    Corpus-scale work is the ONE shared word-count exchange; EM runs on
    the vocab-sized word table. Iterative, not SQL-expressible ⇒
    golden-frozen; both tiers bit-equal in tests/test_unigram.py."""
    from docprocai_service_ray.stages.unigram import unigram_train

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return unigram_train(ds, "text", vocab_size=256, seed_size=2048,
                         em_iters=3)


@register("bpe_merges", golden=_BPE)
def _bpe_merges(sf_dir: str):
    """BPE vocabulary learning (stages/bpe.bpe_train, Sennrich et al.
    2016): corpus word counts (one exchange) → iterative highest-count
    pair merges on the vocab-sized word table. Iterative and not
    SQL-expressible — golden-frozen; both tiers bit-match a naive
    single-process reference in tests/test_bpe.py."""
    from docprocai_service_ray.stages.bpe import bpe_train

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return bpe_train(ds, "text", num_merges=48)


@register("bpe_token_stats", golden=_BPE)
def _bpe_token_stats(sf_dir: str):
    """Learned-tokenizer corpus statistics (stages/bpe.bpe_apply): encode
    every doc with the merges from _bpe_merges and report per-lang total
    subword tokens + distinct token types — the fertility check run after
    tokenizer training. Pure map over the corpus (merge table ships in
    the closure, per-word memoized) + lang-keyed partial reduce."""
    import pandas as pd

    from docprocai_service_ray.stages.bpe import bpe_apply, bpe_train
    from docprocai_service_ray.state.groupby import partition_reduce

    ds = _pq(sf_dir, "documents", ["doc_id", "text", "lang"])
    merges = bpe_train(ds, "text", num_merges=48)
    enc = bpe_apply(ds, "text", merges)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        e = df[["lang"]].assign(tok=df["bpe_tokens"]).explode("tok").dropna(
            subset=["tok"])
        g = e.groupby(["lang", "tok"], as_index=False).agg(n=("tok", "size"))
        return g

    def final(part: pd.DataFrame) -> pd.DataFrame:
        g = part.groupby(["lang", "tok"], as_index=False).agg(n=("n", "sum"))
        out = g.groupby("lang", as_index=False).agg(
            total_tokens=("n", "sum"), token_types=("tok", "nunique"))
        return out.astype({"total_tokens": "int64", "token_types": "int64"})

    # (lang, tok) partials co-locate per lang: one lang never splits, so
    # the per-lang nunique/total in `final` is exact
    return partition_reduce(enc.map_batches(partial, batch_format="pandas"),
                            ["lang"], final, num_partitions=4)


# dirty text PLANTED on both sides: tabs/NBSP/zero-width chars and a
# DECOMPOSED é (e + U+0301) that NFC must compose
_DIRTY_SQL = """(
    SELECT doc_id,
           CASE doc_id % 3
             WHEN 0 THEN '  ' || chr(9) || coalesce(text, '')
                         || ' ' || chr(8203) || ' tail  '
             WHEN 1 THEN coalesce(text, '') || chr(160) || chr(160) || 'x'
             ELSE coalesce(text, '') || ' caf' || chr(101) || chr(769)
           END AS text
    FROM documents
)"""


@register("normalized_text_docs", sql=f"""
        SELECT doc_id, length(text) AS n_in,
               length({normalize_text_sql('text')}) AS n_out,
               md5({normalize_text_sql('text')}) AS fp
        FROM {_DIRTY_SQL}
    """)
def _normalized_text_docs(sf_dir: str):
    """C4/CCNet cleanup pass (stages/textnorm.normalize_text): NFC +
    control/zero-width strip + whitespace collapse, run BEFORE dedup so
    byte-variant duplicates collide. Dirty text is PLANTED identically
    on both sides; certificate = (doc_id, md5, lengths). REAL-SQL-oracled
    (nfc_normalize + the same RE2 chain)."""
    import pandas as pd

    from docprocai_service_ray.stages.textnorm import normalize_text
    from docprocai_service_ray.stages.textstats import fingerprint_md5

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])

    def plant(df: pd.DataFrame) -> pd.DataFrame:
        i = df["doc_id"]
        t = df["text"].fillna("")
        out = ("  \t" + t + " ​ tail  ").where(i % 3 == 0,
              (t + "  x").where(i % 3 == 1,
               t + " caf" + "é"))
        return pd.DataFrame({"doc_id": i, "text": out})

    planted = ds.map_batches(plant, batch_format="pandas")
    normed = normalize_text(planted, "text", out_col="text_norm")

    def cert(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"],
            "n_in": df["text"].str.len().astype("int64"),
            "n_out": df["text_norm"].str.len().astype("int64"),
            "fp": fingerprint_md5(df["text_norm"]),
        })

    return normed.map_batches(cert, batch_format="pandas")


@register("doc_chunk_spans",
          sql=chunk_spans_sql("documents", "doc_id", "text", chunk_tokens=32,
                              stride=24))
def _doc_chunk_spans(sf_dir: str):
    """RAG/embedding chunk preparation (stages/chunking.chunk_spans):
    overlapping token windows with deterministic (id, chunk_id) keys and
    token-offset spans — the segment-table design the KG sentences stage
    uses, generalized to fixed windows. Pure map; REAL-SQL-oracled
    (same window rule in DuckDB)."""
    from docprocai_service_ray.stages.chunking import chunk_spans

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return chunk_spans(ds, "doc_id", "text", chunk_tokens=32, stride=24)


@register("bigram_bits_by_source",
          sql=bigram_lm_sql("documents", "doc_id", "text", "source"))
def _bigram_bits_by_source(sf_dir: str):
    """CCNet-style LM perplexity signal (stages/ngramlm.bigram_lm_bits):
    per source, mean −log2 p(w_i|w_{i-1}) under the corpus's own
    add-1-smoothed bigram model — the order-1 upgrade of
    unigram_bits_by_source. Count-shaped exchanges only; REAL-SQL-oracled
    (lag-window + join twin)."""
    from docprocai_service_ray.stages.ngramlm import bigram_lm_bits

    ds = _pq(sf_dir, "documents", ["doc_id", "text", "source"])
    return bigram_lm_bits(ds, "doc_id", "text", "source")


@register("perplexity_buckets_docs",
          sql=perplexity_buckets_sql("documents", "doc_id", "text", "source"))
def _perplexity_buckets_docs(sf_dir: str):
    """CCNet head/middle/tail perplexity bucketing (stages/ngramlm.
    perplexity_buckets, Wenzek 2020 §4.3): score every doc with the
    corpus's own bigram LM, split each source at its exact tercile
    cutoffs (quantile_disc), report per-(source, bucket) doc count and
    mean bits. REAL-SQL-oracled (the bigram twin + quantile_disc CASE)."""
    from docprocai_service_ray.stages.ngramlm import perplexity_buckets

    ds = _pq(sf_dir, "documents", ["doc_id", "text", "source"])
    return perplexity_buckets(ds, "doc_id", "text", "source")


@register("kneser_ney_bits_by_source",
          sql=kneser_ney_sql("documents", "doc_id", "text", "source"))
def _kneser_ney_bits_by_source(sf_dir: str):
    """Interpolated Kneser–Ney bigram LM bits per source (stages/ngramlm.
    kneser_ney_bits, Kneser & Ney 1995 / Chen & Goodman 1998) — the
    KenLM/CCNet smoothing family: continuation-count backoff instead of
    add-k. One extra type-level exchange over the add-k pipeline;
    REAL-SQL-oracled."""
    from docprocai_service_ray.stages.ngramlm import kneser_ney_bits

    ds = _pq(sf_dir, "documents", ["doc_id", "text", "source"])
    return kneser_ney_bits(ds, "doc_id", "text", "source")


@register("zipf_corpus_stats",
          sql=zipf_law_sql("documents", "text", top_k=1000))
def _zipf_corpus_stats(sf_dir: str):
    """Zipf-law corpus health scan (stages/zipf.zipf_law_stats): type/
    token + hapax shares and the log-log slope/r² of the top-1000 ranks
    — the standard pre-training corpus sanity signal. One word-count
    exchange; the fit sees only top-k rows. REAL-SQL-oracled
    (ROW_NUMBER + REGR_SLOPE twin)."""
    from docprocai_service_ray.stages.zipf import zipf_law_stats

    ds = _pq(sf_dir, "documents", ["text"])
    return zipf_law_stats(ds, "text", top_k=1000)


@register("source_overlap_matrix",
          sql=source_overlap_sql("documents", "text", "source", n=3))
def _source_overlap_matrix(sf_dir: str):
    """Pairwise source n-gram Jaccard (stages/overlap.
    source_overlap_jaccard): the mixture-redundancy matrix consulted
    before weighting sources into a training mix. One gram-hash-keyed
    exchange; driver folds #sources² rows. REAL-SQL-oracled
    (string-compared grams — hash collisions would surface)."""
    from docprocai_service_ray.stages.overlap import source_overlap_jaccard

    ds = _pq(sf_dir, "documents", ["text", "source"])
    return source_overlap_jaccard(ds, "text", "source", n=3)


@register("distinct_ngrams_by_source",
          sql=distinct_ngram_sql("documents", "text", "source", n=3))
def _distinct_ngrams_by_source(sf_dir: str):
    """distinct-n diversity per source (stages/diversity.
    distinct_ngram_stats, Li 2016 / Texygen): share of distinct 3-grams
    among all 3-gram positions — the text-degeneration signal beside
    repetition/compression gates. One gram-hash-keyed exchange;
    REAL-SQL-oracled (string-compared grams)."""
    from docprocai_service_ray.stages.diversity import distinct_ngram_stats

    ds = _pq(sf_dir, "documents", ["text", "source"])
    return distinct_ngram_stats(ds, "text", "source", n=3)


@register("flesch_by_source", sql=flesch_sql("documents", "text", "source"))
def _flesch_by_source(sf_dir: str):
    """Flesch reading-ease per source (stages/readability.
    flesch_by_group, Flesch 1948 / Kincaid 1975) — the FineWeb-Edu-style
    audience-level stratifier. Pure map + one group-keyed exchange;
    REAL-SQL-oracled (identical regexes both sides)."""
    from docprocai_service_ray.stages.readability import flesch_by_group

    ds = _pq(sf_dir, "documents", ["text", "source"])
    return flesch_by_group(ds, "text", "source")


@register("compression_ratio_by_source",
          golden="zlib is not expressible in DuckDB; the golden pins the "
                 "fixed-point deterministic profile (mirror and direction in "
                 "tests/test_compressratio.py)")
def _compression_ratio_by_source(sf_dir: str):
    """zlib compressibility profile per source (stages/textstats.
    compression_ratio_stats): the standard-beside-perplexity quality
    signal (templated boilerplate compresses hard, noise barely). Fixed-
    point int64 partials ⇒ bit-deterministic; zlib is not expressible in
    DuckDB, so golden-frozen — mirror + direction properties in
    tests/test_compressratio.py."""
    from docprocai_service_ray.stages.textstats import compression_ratio_stats

    ds = _pq(sf_dir, "documents", ["doc_id", "text", "source"])
    return compression_ratio_stats(ds, "source", "text")
