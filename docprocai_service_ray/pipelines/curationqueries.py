"""Curation queries over the ``documents`` table: deterministic sampling,
dedup and decontamination, quality and lexical gates, url and domain
hygiene, mixture weights, the release flow and shard publication.

Each query is declared in the registry (pipelines/registry.py) next to its
function, with its oracle. Where the corpus lacks the signal a stage
needs (urls, PII, duplicated spans, dirty text), the same deterministic
rows are PLANTED on both sides, in pandas here and in the SQL twin.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd

from ..stages.decontam import decontam_sql
from ..stages.domains import domain_rollup_sql
from ..stages.exactsubstr import dup_span_scrub_sql
from ..stages.gopher import gopher_rules_sql
from ..stages.lexgate import blockword_stats_sql, oov_rate_sql
from ..stages.linededup import line_dedup_sql
from ..stages.packing import pack_sql
from ..stages.pii import pii_stats_sql
from ..stages.sampling import (
    sample_k_per_group_sql,
    sample_sql_predicate,
    shard_shuffle_sql,
    stratified_sql_predicate,
    weighted_sample_sql,
)
from ..stages.softdedup import soft_dedup_sql
from ..stages.substring import dup_gram_sql
from ..stages.taxonomy import taxonomy_sql, topic_stratified_sql
from ..stages.textstats import lang_mix_alpha_sql, lang_mix_sql, unimax_allocation_sql
from ..stages.urltools import blocklist_predicate_sql, normalize_url_sql
from ..stages.versioning import corpus_diff_sql
from ..stages.winnow import winnow_pairs_sql, winnow_sql
from ..state.groupby import group_agg
from .benchqueries import _CFG, _pq
from .registry import register
from .textqueries import _sql_list

_RELEASE = ("end-to-end release chain containing the LSH closure; the golden "
            "pins the composed rollup, chain properties (drops, scrub, "
            "no-straddle) are asserted in tests/test_curate.py")


# language-rebalancing rates for the stratified-sampling query: downsample
# the majority language, keep most of the minority tails (the classic
# training-mix reweighting move)
_STRATA_RATES = {"en": 0.2, "de": 0.8, "fr": 0.8, "es": 0.8, "zh": 0.8}
_SAMPLE_10 = sample_sql_predicate("doc_id", 0.10, seed=_CFG.seed)
_HOLDOUT_20 = sample_sql_predicate("doc_id", 0.2, seed=_CFG.seed)
_STRATA = stratified_sql_predicate("doc_id", "lang", _STRATA_RATES, seed=_CFG.seed)


@register("sample_docs",
          sql=f"SELECT doc_id, lang, source FROM documents WHERE {_SAMPLE_10}")
def _sample_docs(sf_dir: str):
    """Deterministic 10% corpus sample keyed on a content hash of doc_id —
    same rows survive at any parallelism / cluster shape; the SQL oracle
    evaluates the IDENTICAL md5-prefix predicate."""
    from docprocai_service_ray.stages.sampling import hash_sample

    ds = _pq(sf_dir, "documents", ["doc_id", "lang", "source"])
    return hash_sample(ds, "doc_id", 0.10, seed=_CFG.seed)


@register("train_holdout_counts", sql=f"""
            SELECT CASE WHEN {_HOLDOUT_20} THEN 'holdout' ELSE 'train' END AS split,
                   source, COUNT(*) AS n
            FROM documents GROUP BY 1, 2
        """)
def _train_holdout_counts(sf_dir: str):
    """Complementary train/holdout split (every row in exactly one side):
    per-source row counts of both sides."""
    from docprocai_service_ray.stages.sampling import split_train_holdout

    ds = _pq(sf_dir, "documents", ["doc_id", "source"])
    train, holdout = split_train_holdout(ds, "doc_id", 0.2, seed=_CFG.seed)

    def tagged(d, split):
        return d.map_batches(lambda df: df.assign(split=split), batch_format="pandas")

    both = tagged(train, "train").union(tagged(holdout, "holdout"))
    return group_agg(both, ["split", "source"], {"n": ("doc_id", "size")},
                     num_partitions=4)


@register("stratified_docs_sample",
          sql=f"SELECT doc_id, lang, source FROM documents WHERE {_STRATA}")
def _stratified_docs_sample(sf_dir: str):
    """Per-language deterministic rebalancing sample
    (stages/sampling.stratified_sample): different keep-rate per stratum,
    same content-hash predicate — a pure map, SQL-reproducible."""
    from docprocai_service_ray.stages.sampling import stratified_sample

    ds = _pq(sf_dir, "documents", ["doc_id", "lang", "source"])
    return stratified_sample(ds, "doc_id", "lang", _STRATA_RATES, seed=_CFG.seed)


@register("weighted_sample_docs",
          sql=weighted_sample_sql("documents", ["doc_id", "lang", "n_chars"],
                                  "doc_id", "n_chars", 25, seed=_CFG.seed))
def _weighted_sample_docs(sf_dir: str):
    """Deterministic weighted sampling without replacement (exp-key /
    Efraimidis-Spirakis with content-hash uniforms): longer docs
    proportionally likelier — stages/sampling.weighted_sample."""
    from docprocai_service_ray.stages.sampling import weighted_sample

    ds = _pq(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    return weighted_sample(ds, "doc_id", "n_chars", 25, seed=_CFG.seed)


@register("per_source_doc_sample",
          sql=sample_k_per_group_sql("documents", "doc_id", "source", 5,
                                     seed=_CFG.seed))
def _per_source_doc_sample(sf_dir: str):
    """Exact-k per-stratum sample (stages/sampling.sample_k_per_group):
    min(k, |group|) docs per source by deterministic salted-md5 order —
    the bounded review/eval sample a rate predicate cannot promise.
    Per-batch local top-k partials; exchange carries <= k rows per
    (group, batch)."""
    from docprocai_service_ray.stages.sampling import sample_k_per_group

    ds = _pq(sf_dir, "documents", ["doc_id", "source"])
    return sample_k_per_group(ds, "doc_id", "source", 5, seed=_CFG.seed)


@register("doc_shard_shuffle",
          sql=shard_shuffle_sql("documents", "doc_id", 8, seed=_CFG.seed))
def _doc_shard_shuffle(sf_dir: str):
    """Deterministic global shuffle into training shards
    (stages/sampling.shard_shuffle): every doc gets a (shard, pos) slot in
    a content-hash-keyed pseudo-random permutation — identical at any
    parallelism, on any cluster shape, and in SQL (random_shuffle() can
    promise none of those). Rank via the pack_spans range-bucket shape."""
    from docprocai_service_ray.stages.sampling import shard_shuffle

    ds = _pq(sf_dir, "documents", ["doc_id"])
    return shard_shuffle(ds, "doc_id", 8, seed=_CFG.seed)


def _release_planted_docs(sf_dir: str):
    """Documents table + deterministic planted rows exercising every
    release stage: 8 blocklisted docs (pass the gopher gate, carry the
    'xblocked' marker — only the blockword stage can drop them), 6
    PII-bearing docs (pass every gate, scrub must rewrite them), 2 docs
    under min_words (gopher R1 must drop them). The stages/pii.py
    planting pattern, shared by the golden and the tests."""
    import pandas as pd
    import ray.data as rd

    base = _pq(sf_dir, "documents", ["doc_id", "text", "lang", "source"])
    # ≥3-char mean word length (gopher R2) — short w0-style fillers fail it
    filler = " ".join(f"word{j:02d}" for j in range(30))
    rows = []
    for i in range(8):
        rows.append({"doc_id": 1_000_000 + i, "lang": "en",
                     "source": "planted",
                     "text": f"doc {i} xblocked content {filler} tail{i}"})
    for i in range(6):
        rows.append({"doc_id": 1_000_100 + i, "lang": "de",
                     "source": "planted",
                     "text": (f"doc {i} mail p{i}@example.com host 10.0."
                              f"{i}.1 {filler} tail{i}")})
    for i in range(2):
        rows.append({"doc_id": 1_000_200 + i, "lang": "en",
                     "source": "planted", "text": f"too short {i}"})
    return base.union(rd.from_pandas(pd.DataFrame(rows)))


@register("released_corpus_stats", golden=_RELEASE)
def _released_corpus_stats(sf_dir: str):
    """Flagship end-to-end curation RELEASE flow (pipelines/curate.
    release_documents, VERDICT r4 #5): gopher gate → blockword gate →
    C4 line dedup (rewrite) → MinHash keep-best + leakage-safe split
    over ONE shared pair graph → PII scrub, rolled up per (lang, split).
    Golden-frozen (the LSH cluster closure is approximate-by-design and
    not SQL-expressible); each link of the chain is independently
    SQL-oracled or brute-verified, and the composition's drop/scrub/
    no-straddle properties are asserted in tests/test_curate.py."""
    from docprocai_service_ray.pipelines.curate import released_corpus_stats

    return released_corpus_stats(None, docs=_release_planted_docs(sf_dir),
                                 cfg=_CFG)


@register("release_funnel_stats",
          golden="release-chain funnel counters: the same LSH-closure chain as "
                 "released_corpus_stats; the golden pins the exact per-stage "
                 "counts")
def _release_funnel_stats(sf_dir: str):
    """Release-chain FUNNEL (pipelines/curate.release_funnel_stats):
    exact doc counts surviving each macro stage of the flagship release
    flow (raw → gopher → blockwords → line-dedup+residual → keep-best →
    train/holdout) — the counters a 100-TB curation run watches instead
    of diffing exports. Integer counts over the same planted corpus as
    released_corpus_stats; golden-frozen (the chain includes the LSH
    closure), chain properties certified in tests/test_curate.py."""
    from docprocai_service_ray.pipelines.curate import release_funnel_stats

    return release_funnel_stats(None, docs=_release_planted_docs(sf_dir),
                                cfg=_CFG)


@register("training_shards_stats", golden=_RELEASE)
def _training_shards_stats(sf_dir: str):
    """Training-shard publication (pipelines/curate.publish_training_
    shards): released train-side docs → deterministic content-hash
    shard_shuffle → ONE shard-keyed exchange packs each shard
    independently in pos order (straddle-free GPT-style concatenation) →
    per-shard (n_docs, n_tokens, n_seqs). The last mile of the curation
    journey. Golden-frozen (chains the release flow's LSH closure);
    the shuffle/pack kernels are REAL-SQL-oracled separately
    (doc_shard_shuffle, packed_doc_spans); chain properties in
    tests/test_curate.py."""
    from docprocai_service_ray.pipelines.curate import training_shards_stats

    return training_shards_stats(None, docs=_release_planted_docs(sf_dir),
                                 seq_len=128, n_shards=4, cfg=_CFG)


@register("decontam_by_source",
          sql=decontam_sql("(SELECT * FROM documents WHERE doc_id % 97 <> 0)",
                           "(SELECT * FROM documents WHERE doc_id % 97 = 0)",
                           "doc_id", "text", "source", n=3))
def _decontam_by_source(sf_dir: str):
    """GPT-3-style n-gram benchmark decontamination
    (stages/decontam.ngram_decontaminate): docs whose 3-grams overlap the
    held-out benchmark slice (doc_id % 97 == 0), aggregated per source
    (n=3 on the synthetic word-soup corpus gives real overlap signal —
    ~35% of docs contaminated at sf0.01; production corpora use n≈13).
    Auto-tiers broadcast/distributed on benchmark gram count."""
    from docprocai_service_ray.stages.decontam import ngram_decontaminate

    ds = _pq(sf_dir, "documents", ["doc_id", "text", "source"])
    bench = ds.map_batches(lambda df: df[df["doc_id"] % 97 == 0],
                           batch_format="pandas")
    train = ds.map_batches(lambda df: df[df["doc_id"] % 97 != 0],
                           batch_format="pandas")
    return ngram_decontaminate(train, bench, "doc_id", "text", "source",
                               n=3)


@register("dup_gram_stats",
          sql=dup_gram_sql("documents", "doc_id", "text", "source", n=4))
def _dup_gram_stats(sf_dir: str):
    """Lee-et-al-style duplicate-substring stats
    (stages/substring.dup_gram_stats): per source, how many docs share a
    4-word gram with another document and the mean duplicated-gram
    fraction — the corpus-self-overlap signal substring dedup thresholds
    on. No broadcast tier by design (the corpus is compared with itself,
    there is no small side): one gram-hash exchange + one doc-id
    exchange, 8-byte hashes only."""
    from docprocai_service_ray.stages.substring import dup_gram_stats

    ds = _pq(sf_dir, "documents", ["doc_id", "text", "source"])
    return dup_gram_stats(ds, "doc_id", "text", "source", n=4)


_PII_PLANTED_SQL = """(
    SELECT source,
           coalesce(text, '')
           || CASE WHEN doc_id % 5 = 0 THEN ' contact user' || doc_id
                   || '@example.com' ELSE '' END
           || CASE WHEN doc_id % 7 = 0 THEN ' server 10.0.'
                   || (doc_id % 256) || '.1' ELSE '' END
           || CASE WHEN doc_id % 11 = 0 THEN ' call +1 555 01'
                   || lpad(CAST(doc_id % 10 AS VARCHAR), 2, '0')
                   || ' 0199' ELSE '' END AS text
    FROM documents
)"""


@register("pii_stats_by_source",
          sql=pii_stats_sql(_PII_PLANTED_SQL, "text", "source"))
def _pii_stats_by_source(sf_dir: str):
    """Dolma-style PII pass (stages/pii.pii_stats): per source, docs
    with ≥1 email/IPv4/phone hit and per-class totals. The synthetic
    corpus has no PII, so deterministic PII is PLANTED identically on
    both sides (doc_id%5 → email, %7 → IPv4, %11 → phone) — the parity
    under test is the regex-count semantics (Python re vs DuckDB RE2 on
    the shared RE2-safe pattern subset), not the planting."""
    import pandas as pd

    from docprocai_service_ray.stages.pii import pii_stats

    ds = _pq(sf_dir, "documents", ["doc_id", "text", "source"])

    def plant(df: pd.DataFrame) -> pd.DataFrame:
        i = df["doc_id"]
        t = df["text"].fillna("")
        t = t.where(i % 5 != 0,
                    t + " contact user" + i.astype(str) + "@example.com")
        t = t.where(i % 7 != 0,
                    t + " server 10.0." + (i % 256).astype(str) + ".1")
        t = t.where(i % 11 != 0,
                    t + " call +1 555 01" +
                    (i % 10).astype(str).str.zfill(2) + " 0199")
        return pd.DataFrame({"text": t, "source": df["source"]})

    planted = ds.map_batches(plant, batch_format="pandas")
    return pii_stats(planted, "text", "source")


@register("gopher_rules_by_source",
          sql=gopher_rules_sql("documents", "text", "source", min_words=20))
def _gopher_rules_by_source(sf_dir: str):
    """Gopher Table-A1 document gate (stages/gopher.gopher_rules_stats):
    per source, per-rule failure counts + docs passing the whole gate —
    the standard pretraining quality filter (Rae et al. 2021; also
    RefinedWeb/Dolma). min_words lowered to 20 so the short synthetic
    docs exercise both sides of R1. REAL-SQL-oracled (same regexes and
    thresholds in DuckDB)."""
    from docprocai_service_ray.stages.gopher import gopher_rules_stats

    ds = _pq(sf_dir, "documents", ["text", "source"])
    return gopher_rules_stats(ds, "text", "source", min_words=20)


_BLOCKWORDS = ["vector", "stream"]


@register("blockword_stats_docs",
          sql=blockword_stats_sql("documents", "text", "source", _BLOCKWORDS))
def _blockword_stats_docs(sf_dir: str):
    """C4-style bad-words page gate (stages/lexgate.blockword_stats):
    per source, docs containing any blocked TOKEN (exact token equality,
    list rides the closure). REAL-SQL-oracled (list_filter twin)."""
    from docprocai_service_ray.stages.lexgate import blockword_stats

    ds = _pq(sf_dir, "documents", ["text", "source"])
    return blockword_stats(ds, "text", "source", _BLOCKWORDS)


@register("oov_by_source",
          sql=oov_rate_sql("documents", "text", "source", vocab_size=30))
def _oov_by_source(sf_dir: str):
    """Tokenizer-coverage diagnostic (stages/lexgate.oov_rate): share of
    token occurrences outside the corpus top-30 vocabulary per source —
    the post-BPE vocab-size sanity check. REAL-SQL-oracled."""
    from docprocai_service_ray.stages.lexgate import oov_rate

    ds = _pq(sf_dir, "documents", ["text", "source"])
    return oov_rate(ds, "text", "source", vocab_size=30)


# C4/CCNet-style crawl hygiene over PLANTED urls (the documents table has
# no url column, so both sides build the same deterministic url from
# doc_id — the parity under test is the normalization/blocklist regex
# semantics, Python re vs DuckDB RE2, exactly like _pii_stats_by_source).
_URL_PLANTED_SQL = """(
    SELECT doc_id, source,
           (CASE WHEN doc_id % 2 = 0 THEN 'http' ELSE 'https' END)
           || '://WWW.Site' || (doc_id % 50) || '.Example'
           || (CASE WHEN doc_id % 4 = 0 THEN ':80'
                    WHEN doc_id % 4 = 1 THEN ':443' ELSE '' END)
           || '/Path/' || doc_id
           || (CASE WHEN doc_id % 3 = 0 THEN '?utm_source=x&id=' || (doc_id % 7)
                    WHEN doc_id % 3 = 1 THEN '?id=' || (doc_id % 7) || '&gclid=abc'
                    ELSE '#Frag' || (doc_id % 5) END) AS url
    FROM documents
)"""


_URL_BLOCKLIST = ["site7.example", "site13.example", "www.site21.example"]


def _plant_urls(df):
    """Deterministic url per doc exercising every normalization step:
    mixed-case host, default ports, leading/non-leading tracker params,
    fragments. MUST mirror _URL_PLANTED_SQL verbatim."""
    import numpy as np
    import pandas as pd

    i = df["doc_id"]
    scheme = pd.Series(np.where(i % 2 == 0, "http", "https"), index=df.index)
    port = pd.Series(
        np.where(i % 4 == 0, ":80", np.where(i % 4 == 1, ":443", "")),
        index=df.index)
    tail = "#Frag" + (i % 5).astype(str)
    tail = tail.where(i % 3 != 0, "?utm_source=x&id=" + (i % 7).astype(str))
    tail = tail.where(i % 3 != 1, "?id=" + (i % 7).astype(str) + "&gclid=abc")
    url = (scheme + "://WWW.Site" + (i % 50).astype(str) + ".Example" + port
           + "/Path/" + i.astype(str) + tail)
    out = df.copy()
    out["url"] = url
    return out


@register("normalized_urls",
          sql=f"SELECT doc_id, {normalize_url_sql('url')} AS url_norm "
              f"FROM {_URL_PLANTED_SQL}")
def _normalized_urls(sf_dir: str):
    """URL canonicalization (stages/urltools.normalize_urls): fragment /
    tracker-param / default-port strip + scheme-host lowercase — the key
    url-dedup should group on. Pure map, REAL-SQL-oracled (the DuckDB twin
    runs the SAME rewrite chain via urltools.normalize_url_sql)."""
    from docprocai_service_ray.stages.urltools import normalize_urls

    ds = _pq(sf_dir, "documents", ["doc_id", "source"])
    planted = ds.map_batches(_plant_urls, batch_format="pandas")
    return normalize_urls(planted, "url", out_col="url_norm").select_columns(
        ["doc_id", "url_norm"])


@register("blocked_host_doc_counts",
          sql=f"SELECT source, COUNT(*) AS n_docs FROM {_URL_PLANTED_SQL} "
              f"WHERE {blocklist_predicate_sql('url', _URL_BLOCKLIST, blocked=False)} "
              "GROUP BY source")
def _blocked_host_doc_counts(sf_dir: str):
    """Host-blocklist gate (stages/urltools.host_blocklist_filter):
    exact-or-subdomain host match drops blocked docs before any expensive
    stage; survivors counted per source (partial pre-agg, source-keyed
    int exchange only)."""
    from docprocai_service_ray.stages.urltools import host_blocklist_filter

    ds = _pq(sf_dir, "documents", ["doc_id", "source"])
    planted = ds.map_batches(_plant_urls, batch_format="pandas")
    kept = host_blocklist_filter(planted, _URL_BLOCKLIST, url_col="url")
    return group_agg(kept, ["source"], {"n_docs": ("doc_id", "size")},
                     num_partitions=4)


def _domain_scorecard_sql() -> str:
    from docprocai_service_ray.stages.domains import registrable_domain_sql
    from docprocai_service_ray.stages.textstats import _STOPWORDS

    word_re = "[a-zàâäéèêëîïôöùûüß]+"
    en = _sql_list(_STOPWORDS["en"])
    blocked = ", ".join(f"'{w}'" for w in sorted(_BLOCKWORDS))
    url = """(CASE WHEN doc_id % 2 = 0 THEN 'http' ELSE 'https' END)
           || '://WWW.Site' || (doc_id % 50) || '.Example'
           || (CASE WHEN doc_id % 4 = 0 THEN ':80'
                    WHEN doc_id % 4 = 1 THEN ':443' ELSE '' END)
           || '/Path/' || doc_id
           || (CASE WHEN doc_id % 3 = 0 THEN '?utm_source=x&id=' || (doc_id % 7)
                    WHEN doc_id % 3 = 1 THEN '?id=' || (doc_id % 7) || '&gclid=abc'
                    ELSE '#Frag' || (doc_id % 5) END)"""
    host = f"regexp_extract({url}, '^[a-z]+://([^/:?#]+)', 1)"
    dom = registrable_domain_sql(host)
    return f"""
        WITH sc AS (
            SELECT {dom} AS domain, coalesce(text, '') AS t FROM documents
        ), m AS (
            SELECT domain,
                   length(t) AS n,
                   len(regexp_extract_all(t, '[.!?,;:]'))::DOUBLE
                       / greatest(length(t), 1) AS pr,
                   len(list_filter(regexp_extract_all(lower(t), '{word_re}'),
                                   x -> list_contains({en}, x)))::DOUBLE
                       / greatest(len(regexp_extract_all(lower(t),
                                                         '{word_re}')), 1)
                       AS swr,
                   len(list_filter(regexp_extract_all(lower(t), '[a-z]+'),
                       w -> w IN ({blocked}))) > 0 AS hit
            FROM sc
        ), q AS (
            SELECT domain, hit,
                   ROUND(0.4::DOUBLE * (CASE WHEN n BETWEEN 50 AND 100000
                                             THEN 1 ELSE 0 END)
                       + 0.3::DOUBLE * (CASE WHEN pr > 0.0 AND pr < 0.2
                                             THEN 1 ELSE 0 END)
                       + 0.3::DOUBLE * (CASE WHEN swr > 0.02
                                             THEN 1 ELSE 0 END), 6) AS q
            FROM m
        )
        SELECT domain, COUNT(*) AS n_docs,
               ROUND(AVG(q), 4) AS avg_quality,
               COUNT(*) FILTER (WHERE hit) AS flagged_docs
        FROM q GROUP BY 1
    """


@register("domain_scorecard", sql=_domain_scorecard_sql)
def _domain_scorecard(sf_dir: str):
    """Release scorecard per registrable domain — the table a curation
    run publishes before a dump ships: doc count, mean quality score and
    bad-word-flagged docs, keyed by eTLD+1 (composition of
    stages/domains + stages/textstats.quality_score + stages/lexgate
    over planted urls). Partial pre-agg per batch; one domain-keyed
    exchange. REAL-SQL-oracled end to end."""
    import pandas as pd

    from docprocai_service_ray.stages.domains import add_registrable_domain
    from docprocai_service_ray.stages.lexgate import _hit_mask
    from docprocai_service_ray.stages.textstats import quality_score

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    planted = ds.map_batches(_plant_urls, batch_format="pandas")
    withdom = add_registrable_domain(planted, "url", "domain")
    blocked = frozenset(_BLOCKWORDS)

    def scores(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "domain": df["domain"],
            "q": quality_score(df["text"]),
            "h": _hit_mask(df["text"], blocked).astype("int64"),
        })

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "domain": g["domain"],
            "n_docs": g["n_docs"],
            "avg_quality": (g["qs"] / g["n_docs"]).round(4),
            "flagged_docs": g["flagged_docs"],
        })

    return group_agg(
        withdom.map_batches(scores, batch_format="pandas"), ["domain"],
        {"n_docs": ("q", "size"), "qs": ("q", "sum"), "flagged_docs": ("h", "sum")},
        finish=finish, num_partitions=8)


def _corpus_datasheet_sql() -> str:
    from docprocai_service_ray.stages.pii import PII_PATTERNS
    from docprocai_service_ray.stages.textstats import _STOPWORDS

    word_re = "[a-zàâäéèêëîïôöùûüß]+"
    en = _sql_list(_STOPWORDS["en"])
    blocked = ", ".join(f"'{w}'" for w in sorted(_BLOCKWORDS))
    any_pii = " OR ".join(f"regexp_matches(t, '{p}')"
                          for p in PII_PATTERNS.values())
    py_ws = r"[\t\n\x0b\f\r\x1c-\x1f\x85\p{Z}]+"
    return f"""
        WITH d AS (
            SELECT source, lang, n_chars, coalesce(text, '') AS t,
                   md5(coalesce(text, '')) AS fp
            FROM documents
        ), m AS (
            SELECT source, lang, n_chars, fp,
                   len(list_filter(regexp_split_to_array(t, '{py_ws}'),
                                   x -> x <> '')) AS tok,
                   length(t) AS n,
                   len(regexp_extract_all(t, '[.!?,;:]'))::DOUBLE
                       / greatest(length(t), 1) AS pr,
                   len(list_filter(regexp_extract_all(lower(t), '{word_re}'),
                                   x -> list_contains({en}, x)))::DOUBLE
                       / greatest(len(regexp_extract_all(lower(t),
                                                         '{word_re}')), 1)
                       AS swr,
                   len(list_filter(regexp_extract_all(lower(t), '[a-z]+'),
                       w -> w IN ({blocked}))) > 0 AS hit,
                   ({any_pii}) AS pii
            FROM d
        ), q AS (
            SELECT *,
                   ROUND(0.4::DOUBLE * (CASE WHEN n BETWEEN 50 AND 100000
                                             THEN 1 ELSE 0 END)
                       + 0.3::DOUBLE * (CASE WHEN pr > 0.0 AND pr < 0.2
                                             THEN 1 ELSE 0 END)
                       + 0.3::DOUBLE * (CASE WHEN swr > 0.02
                                             THEN 1 ELSE 0 END), 6) AS qs
            FROM m
        ), dup AS (
            SELECT source, CAST(COALESCE(SUM(c) FILTER (WHERE c >= 2), 0)
                                AS BIGINT) AS dup_docs
            FROM (SELECT source, fp, COUNT(*) AS c FROM q GROUP BY 1, 2)
            GROUP BY 1
        )
        SELECT q.source,
               COUNT(*) AS n_docs,
               CAST(SUM(tok) AS BIGINT) AS n_tokens,
               ROUND(AVG(n_chars), 4) AS avg_chars,
               COUNT(DISTINCT lang) AS n_langs,
               ANY_VALUE(dup.dup_docs) AS dup_docs,
               CAST(SUM(CASE WHEN hit THEN 1 ELSE 0 END) AS BIGINT)
                   AS flagged_docs,
               CAST(SUM(CASE WHEN pii THEN 1 ELSE 0 END) AS BIGINT)
                   AS pii_docs,
               ROUND(AVG(qs), 4) AS avg_quality
        FROM q JOIN dup ON dup.source = q.source
        GROUP BY 1
    """


@register("corpus_datasheet", sql=_corpus_datasheet_sql)
def _corpus_datasheet(sf_dir: str):
    """THE one-table corpus datasheet a data owner reads before a dump
    ships (Gebru 2021 "Datasheets for Datasets" rolled up per source):
    doc/token/char volume, language spread, exact-dup participation,
    bad-word and PII exposure, mean quality — every signal an existing
    audited stage computes, composed into ONE exchange. Per-batch
    pre-agg emits three row kinds (scalar stats, (source, fp) dup
    counts, (source, lang) distinct markers) stacked into one
    source-keyed partition_reduce; fp rows are 16-byte hashes (the
    exact_dedup discipline — dup detection inherently co-locates a
    source's fingerprints). REAL-SQL-oracled end to end."""
    import pandas as pd

    from docprocai_service_ray.stages.lexgate import _hit_mask
    from docprocai_service_ray.stages.pii import _COMPILED
    from docprocai_service_ray.stages.textstats import (
        fingerprint_md5,
        quality_score,
        token_counts,
    )
    from docprocai_service_ray.state.groupby import partition_reduce

    ds = _pq(sf_dir, "documents",
             ["doc_id", "text", "lang", "source", "n_chars"])
    blocked = frozenset(_BLOCKWORDS)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        t = df["text"].fillna("")
        pii = None
        for rx in _COMPILED.values():
            h = t.str.count(rx) > 0
            pii = h if pii is None else (pii | h)
        per = pd.DataFrame({
            "source": df["source"],
            "tok": token_counts(t),
            "chars": df["n_chars"].astype("int64"),
            "q": quality_score(t),
            "flag": _hit_mask(t, blocked).astype("int64"),
            "pii": pii.astype("int64"),
            "lang": df["lang"],
            "fp": fingerprint_md5(t),
        })
        stats = per.groupby("source", as_index=False).agg(
            n=("tok", "size"), tok=("tok", "sum"), chars=("chars", "sum"),
            q=("q", "sum"), flag=("flag", "sum"), pii=("pii", "sum"))
        stats["kind"], stats["key"], stats["c"] = "s", "", 0
        fps = per.groupby(["source", "fp"], as_index=False).size().rename(
            columns={"size": "c", "fp": "key"})
        fps["kind"] = "f"
        langs = per[["source", "lang"]].drop_duplicates().rename(
            columns={"lang": "key"})
        langs["kind"], langs["c"] = "l", 0
        cols = ["source", "kind", "key", "c", "n", "tok", "chars", "q",
                "flag", "pii"]
        for fr in (fps, langs):
            for col in cols:
                if col not in fr.columns:
                    fr[col] = 0 if col not in ("kind", "key") else fr.get(col, "")
        return pd.concat([stats[cols], fps[cols], langs[cols]],
                         ignore_index=True)

    def final(part: pd.DataFrame) -> pd.DataFrame:
        s = part[part["kind"] == "s"].groupby("source", as_index=False).agg(
            n=("n", "sum"), tok=("tok", "sum"), chars=("chars", "sum"),
            q=("q", "sum"), flag=("flag", "sum"), pii=("pii", "sum"))
        f = part[part["kind"] == "f"].groupby(
            ["source", "key"], as_index=False)["c"].sum()
        dup = f[f["c"] >= 2].groupby("source")["c"].sum()
        nl = part[part["kind"] == "l"].groupby(
            "source")["key"].nunique()
        return pd.DataFrame({
            "source": s["source"],
            "n_docs": s["n"].astype("int64"),
            "n_tokens": s["tok"].astype("int64"),
            "avg_chars": (s["chars"] / s["n"]).round(4),
            "n_langs": s["source"].map(nl).fillna(0).astype("int64"),
            "dup_docs": s["source"].map(dup).fillna(0).astype("int64"),
            "flagged_docs": s["flag"].astype("int64"),
            "pii_docs": s["pii"].astype("int64"),
            "avg_quality": (s["q"] / s["n"]).round(4),
        })

    return partition_reduce(ds.map_batches(partial, batch_format="pandas"),
                            ["source"], final, num_partitions=8)


_DIFF_OLD_SQL = "(SELECT doc_id, text FROM documents WHERE doc_id % 11 <> 0)"


_DIFF_NEW_SQL = """(
    SELECT doc_id,
           CASE WHEN doc_id % 7 = 0 THEN coalesce(text, '') || ' v2'
                ELSE text END AS text
    FROM documents WHERE doc_id % 17 <> 0
    UNION ALL
    SELECT doc_id + 100000 AS doc_id, text FROM documents
    WHERE doc_id % 13 = 0
)"""


@register("corpus_diff_docs",
          sql=corpus_diff_sql(_DIFF_OLD_SQL, _DIFF_NEW_SQL, "doc_id", "text"))
def _corpus_diff_docs(sf_dir: str):
    """Dump-over-dump diff (stages/versioning.corpus_diff): per id,
    added/removed/changed/same by content md5 — the table incremental
    re-processing keys off. Two deterministic corpus versions are
    PLANTED from documents on both sides (drops, edits, additions).
    REAL-SQL-oracled (FULL OUTER JOIN twin)."""
    import pandas as pd

    from docprocai_service_ray.stages.versioning import corpus_diff

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    old = ds.map_batches(
        lambda df: df[df["doc_id"] % 11 != 0][["doc_id", "text"]],
        batch_format="pandas")

    def new_side(df: pd.DataFrame) -> pd.DataFrame:
        i = df["doc_id"]
        t = df["text"].fillna("")
        edited = pd.DataFrame({
            "doc_id": i, "text": t.where(i % 7 != 0, t + " v2")})
        edited = edited[edited["doc_id"] % 17 != 0]  # planted removals
        added = pd.DataFrame({
            "doc_id": i[i % 13 == 0] + 100000,
            "text": df.loc[i % 13 == 0, "text"]})
        return pd.concat([edited, added], ignore_index=True)

    new = ds.map_batches(new_side, batch_format="pandas")
    return corpus_diff(old, new, "doc_id", "text")


_DUP_SPAN_PLANTED_SQL = """(
    SELECT doc_id,
           coalesce(text, '')
           || CASE WHEN doc_id % 4 = 0
              THEN ' subscribe to our newsletter for daily updates now'
              ELSE '' END AS text
    FROM documents
)"""


@register("dup_span_scrub_docs",
          sql=dup_span_scrub_sql(_DUP_SPAN_PLANTED_SQL, "doc_id", "text",
                                 span_tokens=6))
def _dup_span_scrub_docs(sf_dir: str):
    """Lee et al. ExactSubstr analog (stages/exactsubstr.dup_span_scrub):
    every token span of ≥6 tokens occurring ≥2 times corpus-wide is
    removed from every document. The random-vocab corpus has almost no
    natural 6-gram repeats, so a boilerplate tail is PLANTED on
    doc_id%4==0 docs on both sides — those docs must lose exactly the
    planted span. REAL-SQL-oracled (gram-STRING twin — engine hash
    collisions would surface as mismatches)."""
    import pandas as pd

    from docprocai_service_ray.stages.exactsubstr import dup_span_scrub_stats

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])

    def plant(df: pd.DataFrame) -> pd.DataFrame:
        i = df["doc_id"]
        t = df["text"].fillna("")
        t = t.where(i % 4 != 0,
                    t + " subscribe to our newsletter for daily updates now")
        return pd.DataFrame({"doc_id": i, "text": t})

    planted = ds.map_batches(plant, batch_format="pandas")
    return dup_span_scrub_stats(planted, "doc_id", "text", span_tokens=6)


_WINNOW_KW = dict(k=16, w=24)  # shared-substring guarantee: ≥ 39 chars


@register("winnow_fps_docs",
          sql=winnow_sql("documents", "doc_id", "text", **_WINNOW_KW))
def _winnow_fps_docs(sf_dir: str):
    """Winnowing fingerprint sets (stages/winnow; Schleimer 2003
    all-minima variant): the distinct (doc_id, fp) table whose coverage
    theorem guarantees any ≥ w+k-1-char shared substring surfaces as a
    shared fp. Pure per-batch map, REAL-SQL-oracled (same k-gram md5s,
    same window selection via two DuckDB window frames)."""
    from docprocai_service_ray.stages.winnow import winnow_fingerprints

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return winnow_fingerprints(ds, "doc_id", "text", **_WINNOW_KW)


@register("winnow_overlap_docs",
          sql=winnow_pairs_sql("documents", "doc_id", "text", min_shared=2,
                               **_WINNOW_KW))
def _winnow_overlap_docs(sf_dir: str):
    """Cross-document syndication map: pairs sharing ≥2 winnowing
    fingerprints (fp-keyed posting grouping, star-capped pair emission,
    pair-keyed partial-sum exchange — hashes and ids move, never text).
    REAL-SQL-oracled (self-join twin; exact while no posting exceeds the
    cap — max posting at sf0.01 is 23 docs vs cap 200)."""
    from docprocai_service_ray.stages.winnow import winnow_overlap_pairs

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return winnow_overlap_pairs(ds, "doc_id", "text", min_shared=2,
                                **_WINNOW_KW)


@register("quality_classifier_history",
          golden="iterative GD fixpoint (fixed-point int64 gradient partials), "
                 "not SQL-expressible; separable-data convergence and "
                 "bit-invariance in tests/test_classifier.py, the golden pins "
                 "the loss/acc history")
def _quality_classifier_history(sf_dir: str):
    """GPT-3-style quality-filter training (stages/classifier): hashed
    bag-of-words logistic regression, fixed-point int64 gradient partials
    ⇒ bit-deterministic at any parallelism (golden-frozen). The synthetic
    corpus carries no label signal, so marker words are PLANTED on a
    doc_id-derived label (the established planting pattern) — the frozen
    loss/accuracy history converging to acc 1.0 IS the certificate that
    distributed training works."""
    import pandas as pd

    from docprocai_service_ray.stages.classifier import \
        train_quality_classifier

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])

    def plant(df: pd.DataFrame) -> pd.DataFrame:
        i = df["doc_id"]
        y = (i % 3 == 0).astype("int64")
        t = df["text"].fillna("")
        t = t.where(y == 0, t + " insight careful evidence analysis")
        t = t.where(y == 1, t + " spam click offer free")
        return pd.DataFrame({"text": t, "y": y})

    planted = ds.map_batches(plant, batch_format="pandas")
    _, history = train_quality_classifier(planted, "text", "y",
                                          dim=256, iters=20, lr=2.0)
    return history


@register("classifier_scored_by_source",
          golden="GD training + sigmoid map, no exact SQL; bit-deterministic "
                 "(fixed-point gradient partials), the golden pins train, "
                 "score and rollup")
def _classifier_scored_by_source(sf_dir: str):
    """Quality-filter INFERENCE at corpus scale (stages/classifier.
    classifier_score): train on the planted labels (the
    _quality_classifier_history setup), then score EVERY doc with the
    trained weights — a pure map, weights ride the closure — and roll up
    per source: doc count, mean quality prob (6dp), docs kept at the 0.5
    gate. Bit-deterministic end to end (fixed-point GD + float64 map) ⇒
    golden-frozen."""
    import pandas as pd

    from docprocai_service_ray.stages.classifier import (
        classifier_score,
        train_quality_classifier,
    )

    ds = _pq(sf_dir, "documents", ["doc_id", "text", "source"])

    def plant(df: pd.DataFrame) -> pd.DataFrame:
        i = df["doc_id"]
        y = (i % 3 == 0).astype("int64")
        t = df["text"].fillna("")
        t = t.where(y == 0, t + " insight careful evidence analysis")
        t = t.where(y == 1, t + " spam click offer free")
        return pd.DataFrame({"text": t, "y": y, "source": df["source"]})

    planted = ds.map_batches(plant, batch_format="pandas").materialize()
    w, _ = train_quality_classifier(planted, "text", "y",
                                    dim=256, iters=20, lr=2.0)
    scored = classifier_score(planted, "text", w)

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "source": g["source"],
            "n_docs": g["n_docs"],
            "avg_prob": (g["p_sum"] / g["n_docs"]).round(6),
            "n_kept": g["n_kept"],
        })

    return group_agg(
        scored.map_batches(lambda df: df.assign(
            kept=(df["quality_prob"] >= 0.5).astype("int64")), batch_format="pandas"),
        ["source"],
        {"n_docs": ("quality_prob", "size"), "p_sum": ("quality_prob", "sum"),
         "n_kept": ("kept", "sum")},
        finish=finish, num_partitions=4)


@register("taxonomy_by_source",
          sql=taxonomy_sql("documents", "text", "source"))
def _taxonomy_by_source(sf_dir: str):
    """Rule-based taxonomy routing (stages/taxonomy.taxonomy_stats):
    every doc gets its DOMINANT keyword-family topic (first-wins argmax
    over match counts — the deterministic cousin of WebOrganizer-style
    domain classifiers; reference analog: content-kind dispatch,
    DocProcAiService.py routing by media type). Per-batch (source, topic)
    partials, one small grouped-sum exchange; REAL-SQL-oracled (the CASE
    ladder provably equals numpy's first-wins argmax)."""
    from docprocai_service_ray.stages.taxonomy import taxonomy_stats

    ds = _pq(sf_dir, "documents", ["text", "source"])
    return taxonomy_stats(ds, "source", "text")


_TOPIC_RATES = {"joins": 0.5, "scan_exec": 0.25, "streaming": 1.0,
                "columnar": 0.1}


@register("topic_stratified_docs",
          sql=topic_stratified_sql("documents", "doc_id", "text", _TOPIC_RATES,
                                   default_rate=1.0, seed=_CFG.seed))
def _topic_stratified_docs(sf_dir: str):
    """Topic-aware rebalancing (stages/taxonomy.topic_stratified_sample):
    route each doc to its dominant topic, then sample at a per-topic rate
    (the mixture-design step after routing — downsample the head topics,
    keep the scarce ones). Two pure maps, zero exchange; REAL-SQL-oracled
    (taxonomy CASE ladder + the exact md5-threshold predicate)."""
    from docprocai_service_ray.stages.taxonomy import topic_stratified_sample

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return topic_stratified_sample(ds, "doc_id", "text", _TOPIC_RATES,
                                   default_rate=1.0, seed=_CFG.seed)


# SoftDeDup planting: every doc_id%4==0 doc becomes one of the shared
# templates (exact-dup clusters of known shape); the engine plants the
# same transform in pandas.
_SOFTDEDUP_PLANTED_SQL = (
    "(SELECT source, CASE WHEN doc_id % 4 = 0 THEN 'dup template ' || "
    "CAST(doc_id % 6 AS VARCHAR) ELSE coalesce(text, '') END AS text "
    "FROM documents)"
)


@register("soft_dedup_by_source",
          sql=soft_dedup_sql(_SOFTDEDUP_PLANTED_SQL, "source", "text",
                             beta=0.5))
def _soft_dedup_by_source(sf_dir: str):
    """SoftDeDup duplication reweighting (stages/softdedup, He et al.
    2024): instead of dropping duplicates, weight each doc by its exact-
    dup cluster size**-beta; the per-source scorecard reports doc counts,
    distinct texts, docs-in-dup-clusters and the EFFECTIVE (weight-
    summed) corpus size. One hash-keyed exchange of (h, source, cnt)
    partials — text never ships. REAL-SQL-oracled: the twin groups by the
    text itself, so a u64 collision would surface as a mismatch."""
    import pandas as pd

    from docprocai_service_ray.stages.softdedup import soft_dedup_stats

    ds = _pq(sf_dir, "documents", ["doc_id", "source", "text"])

    def plant(df: pd.DataFrame) -> pd.DataFrame:
        t = df["text"].fillna("")
        dup = "dup template " + (df["doc_id"] % 6).astype(str)
        return pd.DataFrame({"source": df["source"],
                             "text": t.where(df["doc_id"] % 4 != 0, dup)})

    planted = ds.map_batches(plant, batch_format="pandas")
    return soft_dedup_stats(planted, "source", "text", beta=0.5)


# url hosts PLANTED with suffix variety (ML2 public suffix, www/deep
# subdomains, bare 2-label) so every branch of the eTLD+1 rule runs —
# the _pii_stats_by_source planting pattern
_DOMAIN_PLANTED_SQL = """(
    SELECT doc_id,
           'https://' ||
           (CASE doc_id % 4
             WHEN 0 THEN 'a' || (doc_id % 17) || '.co.uk'
             WHEN 1 THEN 'www.b' || (doc_id % 17) || '.com'
             WHEN 2 THEN 'c' || (doc_id % 17) || '.org'
             ELSE 'deep.sub.d' || (doc_id % 17) || '.net' END)
           || '/p/' || doc_id AS url
    FROM documents
)"""


@register("domain_doc_counts",
          sql=domain_rollup_sql(_DOMAIN_PLANTED_SQL, "url"))
def _domain_doc_counts(sf_dir: str):
    """Docs per registrable domain (stages/domains.domain_rollup):
    eTLD+1 extraction (PSL 2-label rule with the built-in suffix set) +
    partial pre-agg + one domain-keyed int exchange — the grouping key
    domain-level curation filters use. REAL-SQL-oracled (same regexes,
    same suffix set in DuckDB)."""
    import numpy as np
    import pandas as pd

    from docprocai_service_ray.stages.domains import domain_rollup

    ds = _pq(sf_dir, "documents", ["doc_id"])

    def plant(df: pd.DataFrame) -> pd.DataFrame:
        i = df["doc_id"]
        k = (i % 17).astype(str)
        host = pd.Series(
            np.select(
                [i % 4 == 0, i % 4 == 1, i % 4 == 2],
                ["a" + k + ".co.uk", "www.b" + k + ".com", "c" + k + ".org"],
                default="deep.sub.d" + k + ".net"),
            index=df.index)
        return pd.DataFrame({
            "doc_id": i, "url": "https://" + host + "/p/" + i.astype(str)})

    return domain_rollup(ds.map_batches(plant, batch_format="pandas"), "url")


# the synthetic docs are single-line bags of words, so line structure is
# PLANTED identically on both sides (every 6 words become a line — a
# shared-vocabulary corpus, so ~5% of lines legitimately collide across
# docs); the parity under test is the first-(id, idx)-wins rewrite.
_LINE_PLANT_RE = r"((?:\S+ ){5}\S+) "


_LINE_PLANTED_SQL = (
    "(SELECT doc_id, regexp_replace(coalesce(text, ''), "
    f"'{_LINE_PLANT_RE}', '\\1' || chr(10), 'g') AS text FROM documents)"
)


@register("line_dedup_docs",
          sql=line_dedup_sql(_LINE_PLANTED_SQL, "doc_id", "text"))
def _line_dedup_docs(sf_dir: str):
    """C4/CCNet line-level corpus dedup (stages/linededup.line_dedup):
    every duplicated line survives only at its first (doc_id, position)
    site, docs are rebuilt from surviving lines; per-doc certificate
    (n_lines, n_kept, md5 of the rebuilt text) is REAL-SQL-oracled."""
    import pandas as pd

    from docprocai_service_ray.stages.linededup import line_dedup_stats

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])

    def plant(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"],
            "text": df["text"].fillna("").str.replace(
                _LINE_PLANT_RE, r"\1\n", regex=True),
        })

    planted = ds.map_batches(plant, batch_format="pandas")
    return line_dedup_stats(planted, "doc_id", "text")


@register("lang_mix_alpha",
          sql=lang_mix_alpha_sql("documents", "lang", "text", alpha=0.3))
def _lang_mix_alpha(sf_dir: str):
    """XLM-R temperature sampling weights (stages/textstats.
    lang_mix_alpha_weights, alpha=0.3): q_i ∝ p_i^alpha smoothing of the
    natural language mix — the published multilingual rebalancing rule
    next to the uniform-target lang_mix_weights. REAL-SQL-oracled."""
    from docprocai_service_ray.stages.textstats import lang_mix_alpha_weights

    ds = _pq(sf_dir, "documents", ["lang", "text"])
    return lang_mix_alpha_weights(ds, "lang", "text", alpha=0.3)


@register("lang_mix_weights", sql=lang_mix_sql("documents", "lang", "text"))
def _lang_mix_weights(sf_dir: str):
    """Training-mix reweighting (stages/textstats.lang_mix_weights): per
    language, token share and the uniform-target sampling multiplier
    min(1, uniform/actual) — the static rebalancing table whose
    multipliers feed stratified_sample. Lang-keyed int-partial exchange;
    finisher math on the #languages-row result."""
    from docprocai_service_ray.stages.textstats import lang_mix_weights

    ds = _pq(sf_dir, "documents", ["lang", "text"])
    return lang_mix_weights(ds, "lang", "text")


@register("unimax_allocation",
          sql=unimax_allocation_sql("documents", "lang", "text",
                                    budget_tokens=200_000, max_epochs=4.0))
def _unimax_allocation(sf_dir: str):
    """UniMax language budget allocation (stages/textstats.
    unimax_allocation, Chung et al. 2023): water-fill a fixed token
    budget across languages, capped at max_epochs passes per language —
    the published fairness upgrade over temperature sampling
    (lang_mix_alpha). One lang-keyed int exchange + a #languages-row
    driver waterfall; REAL-SQL-oracled (window-function closed form)."""
    from docprocai_service_ray.stages.textstats import unimax_allocation

    ds = _pq(sf_dir, "documents", ["lang", "text"])
    return unimax_allocation(ds, "lang", "text", budget_tokens=200_000,
                             max_epochs=4.0)


@register("dsir_selected_docs",
          golden="DSIR hashed-n-gram features (pd.util u64 hash) are not "
                 "expressible in DuckDB; certified by the single-process "
                 "reference mirror in tests/test_dsir.py")
def _dsir_selected_docs(sf_dir: str):
    """DSIR importance resampling (stages/dsir.dsir_select, Xie et al.
    2023): pick the raw docs that look like a small in-domain target via
    hashed-n-gram importance weights + content-hash Gumbel top-k. The
    target here is the deterministic planting the quality-classifier
    query uses: docs with doc_id%5==1 carry the in-domain suffix, and
    docs with doc_id%3==0 in the raw pool carry it too — selection
    should (and does) concentrate on them. Hashed features are not
    SQL-expressible ⇒ golden-frozen, certified by the single-process
    reference mirror in tests/test_dsir.py."""
    import pandas as pd

    from docprocai_service_ray.stages.dsir import dsir_select

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    suffix = " insight careful evidence analysis"

    def plant(df: pd.DataFrame) -> pd.DataFrame:
        t = df["text"].fillna("")
        return pd.DataFrame({
            "doc_id": df["doc_id"],
            "text": t.where(df["doc_id"] % 3 != 0, t + suffix),
        })

    def target(df: pd.DataFrame) -> pd.DataFrame:
        keep = df["doc_id"] % 5 == 1
        return pd.DataFrame({
            "doc_id": df["doc_id"][keep],
            "text": df["text"][keep].fillna("") + suffix,
        })

    raw = ds.map_batches(plant, batch_format="pandas")
    tgt = ds.map_batches(target, batch_format="pandas")
    return dsir_select(raw, tgt, "doc_id", "text", select_k=50,
                       buckets=4096, seed=_CFG.seed)


@register("token_shard_stats",
          golden="tokenized .bin shard publication: BPE merges are not SQL; "
                 "the frozen sha256 values pin every byte of every shard")
def _token_shard_stats(sf_dir: str):
    """Tokenized binary shard publication (sources/tokenized.
    export_token_shards): BPE-train on the corpus → sorted-vocab ids →
    content-hash shard shuffle → ONE shard-keyed exchange writes each
    shard's flat <u4 token stream (Megatron .bin convention) + idx
    sidecar + manifest. Returns the manifest (shard, n_docs, n_tokens,
    n_bytes, sha256, vocab_size) — the sha256 values PIN every byte of
    every shard, so the golden freeze certifies bit-determinism of the
    whole encode→shuffle→pack chain at any parallelism (asserted in
    tests/test_tokenized.py). BPE is not SQL-expressible ⇒ golden."""
    from docprocai_service_ray.sources.tokenized import (export_token_shards,
                                                         vocab_from_merges)
    from docprocai_service_ray.stages.bpe import bpe_train

    docs = _pq(sf_dir, "documents", ["doc_id", "text"])
    merges = bpe_train(docs, "text", num_merges=32)
    vocab = vocab_from_merges(merges)  # zero corpus passes (100-TB path)
    tag = os.path.basename(sf_dir.rstrip("/"))
    out = f"/tmp/raykg_token_shards/v1_{tag}"
    man = export_token_shards(docs, out, "doc_id", "text", merges, vocab,
                              n_shards=8, seed=_CFG.seed)
    man["vocab_size"] = np.int64(len(vocab))
    return man


_DEDUP_IDX_VER = "v1"


@register("shard_dedup_probe",
          golden="persisted-MinHash-index probe: signature-agreement estimates "
                 "are approximate by design (accuracy against exact jaccard "
                 "asserted in tests/test_dedup_index.py)")
def _shard_dedup_probe(sf_dir: str):
    """Incremental dedup of a new crawl shard against a PERSISTED MinHash
    index of the existing corpus (stages/dedup.build_dedup_index /
    probe_dedup_index — index once at ingest, probe every shard; corpus
    text is never re-shingled and never stored in the index). The shard
    is a deterministic synthetic recrawl: every doc_id%10==0 doc returns
    with a new id, half verbatim (est 1.0), half with the last 3 words
    dropped (near-dup, est ≈ true jaccard, σ≈0.05 at 64 perms).
    Deterministic (seeded hashing) ⇒ golden-frozen; estimate accuracy and
    exact/near/novel behavior tested in tests/test_dedup_index.py."""
    from docprocai_service_ray.stages.dedup import (build_dedup_index,
                                                    probe_dedup_index)
    from docprocai_service_ray.state.groupby import collect_pandas

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    tag = os.path.basename(sf_dir.rstrip("/"))
    idx = build_dedup_index(
        ds, f"/tmp/raykg_dedup_index/{_DEDUP_IDX_VER}_{tag}",
        "doc_id", "text")

    def recrawl(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["doc_id"] % 10 == 0]
        cut = df["doc_id"] % 20 == 0
        text = df["text"].where(
            ~cut, df["text"].str.split(" ").str[:-3].str.join(" "))
        return pd.DataFrame({"doc_id": df["doc_id"] + 1_000_000,
                             "text": text})

    shard = ds.map_batches(recrawl, batch_format="pandas")
    res = probe_dedup_index(shard, idx, "doc_id", "text", threshold=0.5)
    return (collect_pandas(res, ["new_id", "corpus_id", "est_jaccard"])
            .sort_values(["new_id", "corpus_id"]).reset_index(drop=True))


@register("packed_doc_spans", sql=pack_sql("documents", "doc_id", "text", 512))
def _packed_doc_spans(sf_dir: str):
    """GPT-style concat-and-chunk sequence packing over the documents
    table (stages/packing.pack_spans): each doc's [start_seq, end_seq]
    span in a 512-token packed stream — a distributed integer prefix sum,
    bit-identical to the single-threaded cumsum at any parallelism."""
    from docprocai_service_ray.stages.packing import pack_spans

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return pack_spans(ds, "doc_id", "text", budget=512)
