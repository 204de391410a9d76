"""Bigram-LM perplexity scoring — the CCNet quality signal (Wenzek et
al. 2020 score documents with an LM and filter on perplexity; the
companion stages/textstats.unigram_logprob_stats is the order-0 version
of the same idea). The LM here is the corpus's OWN add-k-smoothed bigram
model:

    p(w_i | w_{i-1}) = (c(w_{i-1}, w_i) + k) / (c_ctx(w_{i-1}) + k·V)

with c_ctx(w) = Σ_v c(w, v) (so contexts come free from the bigram
counts) and V = corpus vocabulary size. Per doc: mean −log2 p over its
bigram positions (docs with < 2 tokens have no bigram and are excluded,
exactly like the SQL twin's joins); per group: doc count + mean bits.

Scale shape (three exchanges, all count-shaped — raw text never
exchanges):
1. bigram-count exchange partitioned by the LEFT token — per-(l, r)
   totals AND the per-l context totals come out of the same reduce;
2. one tiny token-keyed exchange for V (a metadata-count scalar);
3. the scoring join: per-doc distinct (id, l, r, cnt) rows hash_join the
   stat table on (l, r) (state/joins auto tier), then id- and
   group-keyed float-partial reduces. The corpus tokenization runs twice
   (stats pass + scoring pass) — the standard trade against materializing
   an exploded token table.

Reference anchor: reference scores quality via opaque model calls; this
is the deterministic self-corpus analog, REAL-SQL-oracled end to end.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..state.groupby import group_agg

_TOKEN_RE = r"[a-z]+"


def _doc_bigrams(ds, id_col: str, text_col: str, group_col: str):
    """Per-doc distinct bigram rows (id, group, l, r, cnt) — one doc is
    one input row, so its bigrams never leave the batch."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.reset_index(drop=True)
        toks = df[text_col].fillna("").str.lower().str.findall(_TOKEN_RE)
        e = df[[id_col, group_col]].assign(r=toks).explode("r").dropna(
            subset=["r"])
        e["l"] = e.groupby(level=0)["r"].shift(1)
        e = e.dropna(subset=["l"])
        return e.groupby([id_col, group_col, "l", "r"], as_index=False).agg(
            cnt=("r", "size"))

    return ds.map_batches(fn, batch_format="pandas")


def _doc_bits(rows, id_col: str, group_col: str, finish=None):
    """Scored bigram rows ``(id, group, b = bits·cnt, n = cnt)`` → one row
    per doc with its mean ``bits = Σb / Σn`` (or ``finish`` of the sums)."""
    return group_agg(rows, [id_col, group_col],
                     {"b": ("b", "sum"), "n": ("n", "sum")},
                     finish=finish or (
                         lambda d: d.assign(bits=d["b"] / d["n"])))


def _group_avg_bits(rows, id_col: str, group_col: str):
    """Per-group ``(n_docs, avg_bits)`` over :func:`_doc_bits`' docs."""
    docs = _doc_bits(rows, id_col, group_col)
    return group_agg(
        docs, [group_col], {"n_docs": ("bits", "size"), "bs": ("bits", "sum")},
        finish=lambda g: pd.DataFrame({
            group_col: g[group_col], "n_docs": g["n_docs"],
            "avg_bits": (g["bs"] / g["n_docs"]).round(4)}),
        num_partitions=4)


def _vocab_size(ds, text_col: str) -> int:
    from ..state.groupby import partition_reduce

    def toks(df: pd.DataFrame) -> pd.DataFrame:
        t = df[text_col].fillna("").str.lower().str.findall(_TOKEN_RE)
        e = pd.DataFrame({"w": t}).explode("w").dropna()
        return e.drop_duplicates()

    def distinct(part: pd.DataFrame) -> pd.DataFrame:
        return part.drop_duplicates()

    return int(partition_reduce(ds.map_batches(toks, batch_format="pandas"),
                                ["w"], distinct).count())


def bigram_lm_bits(ds, id_col: str, text_col: str, group_col: str, *,
                   k: float = 1.0):
    """Per-group (n_docs, avg_bits) under the corpus's own smoothed
    bigram LM — low bits = predictable/templated text, high bits =
    unusual text; both tails are what CCNet-style curation inspects."""
    from ..state.groupby import partition_reduce
    from ..state.joins import hash_join

    grams = _doc_bigrams(ds, id_col, text_col, group_col)

    def pair_partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["l", "r"], as_index=False).agg(c=("cnt", "sum"))

    def pair_final(part: pd.DataFrame) -> pd.DataFrame:
        g = part.groupby(["l", "r"], as_index=False).agg(c=("c", "sum"))
        # partitioned by l ⇒ every (l, ·) row is here: context totals are
        # exact within the partition
        g["cl"] = g.groupby("l")["c"].transform("sum")
        return g.astype({"c": "int64", "cl": "int64"})

    stats = partition_reduce(
        grams.map_batches(pair_partial, batch_format="pandas"),
        ["l"], pair_final)

    vocab = _vocab_size(ds, text_col)

    scored = hash_join(grams, stats, on=["l", "r"])

    def doc_rows(df: pd.DataFrame, vocab=vocab) -> pd.DataFrame:
        bits = -np.log2((df["c"] + k) / (df["cl"] + k * vocab))
        return pd.DataFrame({
            id_col: df[id_col], group_col: df[group_col],
            "b": bits * df["cnt"], "n": df["cnt"],
        })

    return _group_avg_bits(scored.map_batches(doc_rows, batch_format="pandas"),
                           id_col, group_col)


def bigram_lm_sql(table: str, id_col: str, text_col: str, group_col: str,
                  *, k: float = 1.0) -> str:
    """DuckDB twin of :func:`bigram_lm_bits` — same tokenizer, same
    smoothing, same exclusion of sub-2-token docs."""
    return f"""
        WITH toks AS (
            SELECT {id_col}, {group_col},
                   generate_subscripts(ts, 1) AS pos, unnest(ts) AS w
            FROM (SELECT {id_col}, {group_col},
                         regexp_extract_all(lower(coalesce({text_col}, '')),
                                            '{_TOKEN_RE}') AS ts
                  FROM {table})
        ), bg AS (
            SELECT * FROM (
                SELECT {id_col}, {group_col},
                       lag(w) OVER (PARTITION BY {id_col} ORDER BY pos) AS l,
                       w AS r
                FROM toks)
            WHERE l IS NOT NULL
        ), c2 AS (
            SELECT l, r, COUNT(*) AS c FROM bg GROUP BY 1, 2
        ), cl AS (
            SELECT l, SUM(c) AS cl FROM c2 GROUP BY 1
        ), v AS (
            SELECT COUNT(DISTINCT w) AS v FROM toks
        ), per_doc AS (
            SELECT bg.{id_col}, bg.{group_col},
                   AVG(-log2((c2.c + {k}) / (cl.cl + {k} * v.v))) AS bits
            FROM bg JOIN c2 USING (l, r) JOIN cl USING (l), v
            GROUP BY 1, 2
        )
        SELECT {group_col}, COUNT(*) AS n_docs,
               ROUND(AVG(bits), 4) AS avg_bits
        FROM per_doc GROUP BY 1
    """


def doc_bigram_bits(ds, id_col: str, text_col: str, group_col: str, *,
                    k: float = 1.0, round_to: int = 6):
    """Per-DOC bigram-LM score ``(id, group, bits)`` — the same model
    and exchanges as :func:`bigram_lm_bits`, stopping at the document
    grain (bits rounded to ``round_to`` for cross-engine comparison).
    Docs with < 2 tokens have no bigram and are excluded, like the SQL
    twin's joins."""
    from ..state.groupby import partition_reduce
    from ..state.joins import hash_join

    grams = _doc_bigrams(ds, id_col, text_col, group_col)

    def pair_partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["l", "r"], as_index=False).agg(c=("cnt", "sum"))

    def pair_final(part: pd.DataFrame) -> pd.DataFrame:
        g = part.groupby(["l", "r"], as_index=False).agg(c=("c", "sum"))
        g["cl"] = g.groupby("l")["c"].transform("sum")
        return g.astype({"c": "int64", "cl": "int64"})

    stats = partition_reduce(
        grams.map_batches(pair_partial, batch_format="pandas"),
        ["l"], pair_final)
    vocab = _vocab_size(ds, text_col)
    scored = hash_join(grams, stats, on=["l", "r"])

    def doc_rows(df: pd.DataFrame, vocab=vocab) -> pd.DataFrame:
        bits = -np.log2((df["c"] + k) / (df["cl"] + k * vocab))
        return pd.DataFrame({
            id_col: df[id_col], group_col: df[group_col],
            "b": bits * df["cnt"], "n": df["cnt"],
        })

    return _doc_bits(
        scored.map_batches(doc_rows, batch_format="pandas"), id_col, group_col,
        finish=lambda d: pd.DataFrame({
            id_col: d[id_col], group_col: d[group_col],
            "bits": np.round(d["b"] / d["n"], round_to)}))


def perplexity_buckets(ds, id_col: str, text_col: str, group_col: str, *,
                       k: float = 1.0, round_to: int = 6):
    """CCNet head/middle/tail perplexity bucketing (Wenzek et al. 2020
    §4.3: score every doc with the LM, split each language at the 1/3
    and 2/3 perplexity cutoffs; training mixes keep "head" — the
    most-predictable third). Buckets are assigned against the group's
    exact PERCENTILE_DISC tercile cutoffs (an actual data point, no
    interpolation — stages/quantiles.grouped_quantiles_disc semantics),
    low bits = head. Output per (group, bucket): n_docs + avg_bits(4dp).

    Scale shape: everything corpus-sized is doc_bigram_bits' count-keyed
    exchanges; the cutoff step needs each group's (rounded) bits values
    co-located — the quantiles.py exact-tier contract, whose documented
    100-TB path is the mergeable t-digest sketch tier (swap
    grouped_quantiles_disc for grouped_quantiles_sketch; cutoffs become
    approximate, bucketing logic unchanged). The exact tier here keeps
    the op REAL-SQL-oracled. Cutoffs collect to #groups rows, ship back
    in the assign closure."""
    from ..state.groupby import collect_pandas
    from ..stages.quantiles import grouped_quantiles_disc

    docbits = doc_bigram_bits(ds, id_col, text_col, group_col, k=k,
                              round_to=round_to).materialize()
    cuts = collect_pandas(
        grouped_quantiles_disc(docbits, group_col, "bits", [1 / 3, 2 / 3],
                               round_to=round_to),
        [group_col, "n", "qd_33", "qd_67"])
    c1 = dict(zip(cuts[group_col], cuts["qd_33"]))
    c2 = dict(zip(cuts[group_col], cuts["qd_67"]))

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        lo = df[group_col].map(c1).to_numpy(dtype=np.float64)
        hi = df[group_col].map(c2).to_numpy(dtype=np.float64)
        b = df["bits"].to_numpy(dtype=np.float64)
        bucket = np.where(b <= lo, "head",
                          np.where(b <= hi, "middle", "tail"))
        return df.assign(bucket=bucket)

    return group_agg(
        docbits.map_batches(assign, batch_format="pandas"), [group_col, "bucket"],
        {"n_docs": ("bits", "size"), "bs": ("bits", "sum")},
        finish=lambda g: g.assign(
            avg_bits=np.round(g.pop("bs") / g["n_docs"], 4)))


def perplexity_buckets_sql(table: str, id_col: str, text_col: str,
                           group_col: str, *, k: float = 1.0,
                           round_to: int = 6) -> str:
    """DuckDB twin of :func:`perplexity_buckets` — same model as
    bigram_lm_sql, per-doc bits rounded identically, the same
    quantile_disc tercile cutoffs, the same <= comparisons."""
    return f"""
        WITH toks AS (
            SELECT {id_col}, {group_col},
                   generate_subscripts(ts, 1) AS pos, unnest(ts) AS w
            FROM (SELECT {id_col}, {group_col},
                         regexp_extract_all(lower(coalesce({text_col}, '')),
                                            '{_TOKEN_RE}') AS ts
                  FROM {table})
        ), bg AS (
            SELECT * FROM (
                SELECT {id_col}, {group_col},
                       lag(w) OVER (PARTITION BY {id_col} ORDER BY pos) AS l,
                       w AS r
                FROM toks)
            WHERE l IS NOT NULL
        ), c2 AS (
            SELECT l, r, COUNT(*) AS c FROM bg GROUP BY 1, 2
        ), cl AS (
            SELECT l, SUM(c) AS cl FROM c2 GROUP BY 1
        ), v AS (
            SELECT COUNT(DISTINCT w) AS v FROM toks
        ), per_doc AS (
            SELECT bg.{id_col}, bg.{group_col},
                   ROUND(AVG(-log2((c2.c + {k}) / (cl.cl + {k} * v.v))),
                         {round_to}) AS bits
            FROM bg JOIN c2 USING (l, r) JOIN cl USING (l), v
            GROUP BY 1, 2
        ), cuts AS (
            SELECT {group_col},
                   ROUND(quantile_disc(bits, {1 / 3!r}), {round_to}) AS c1,
                   ROUND(quantile_disc(bits, {2 / 3!r}), {round_to}) AS c2
            FROM per_doc GROUP BY 1
        )
        SELECT {group_col},
               CASE WHEN bits <= c1 THEN 'head'
                    WHEN bits <= c2 THEN 'middle'
                    ELSE 'tail' END AS bucket,
               COUNT(*) AS n_docs, ROUND(AVG(bits), 4) AS avg_bits
        FROM per_doc JOIN cuts USING ({group_col})
        GROUP BY 1, 2
    """


def kneser_ney_bits(ds, id_col: str, text_col: str, group_col: str, *,
                    discount: float = 0.75):
    """Per-group (n_docs, avg_bits) under an interpolated Kneser–Ney
    bigram LM (Kneser & Ney 1995; Chen & Goodman 1998 eq. 4.23 with a
    fixed absolute discount D — the KenLM/CCNet smoothing family, vs
    bigram_lm_bits' add-k):

        p(r | l) = (max(c(l,r) − D, 0) + D · N1+(l,·) · p_cont(r)) / c(l)
        p_cont(r) = N1+(·,r) / N1+(·,·)

    where N1+(l,·) = #distinct continuations of l, N1+(·,r) = #distinct
    left-contexts of r, N1+(·,·) = #distinct bigram types. Scored on the
    corpus's own model, so every (l, r) has c ≥ 1 and p > 0.

    Scale shape: the add-k pipeline's exchanges plus ONE extra type-level
    exchange keyed by the RIGHT token for the continuation counts — all
    count-shaped, raw text never ships. N1+(·,·) is a metadata count of
    the type table."""
    from ..state.groupby import partition_reduce
    from ..state.joins import hash_join

    grams = _doc_bigrams(ds, id_col, text_col, group_col)

    def pair_partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["l", "r"], as_index=False).agg(c=("cnt", "sum"))

    def pair_final(part: pd.DataFrame) -> pd.DataFrame:
        g = part.groupby(["l", "r"], as_index=False).agg(c=("c", "sum"))
        # partitioned by l ⇒ context totals AND distinct-continuation
        # counts are exact within the partition
        g["cl"] = g.groupby("l")["c"].transform("sum")
        g["nl"] = g.groupby("l")["c"].transform("size")
        return g.astype({"c": "int64", "cl": "int64", "nl": "int64"})

    stats = partition_reduce(
        grams.map_batches(pair_partial, batch_format="pandas"),
        ["l"], pair_final).materialize()

    cont = group_agg(stats, ["r"], {"nr": ("l", "size")}).materialize()
    n_types = int(cont.sum("nr"))

    scored = hash_join(hash_join(grams, stats, on=["l", "r"]),
                       cont, on=["r"])

    def doc_rows(df: pd.DataFrame, t=n_types) -> pd.DataFrame:
        c = df["c"].to_numpy(dtype=np.float64)
        p = (np.maximum(c - discount, 0.0)
             + discount * df["nl"].to_numpy(np.float64)
             * df["nr"].to_numpy(np.float64) / t) \
            / df["cl"].to_numpy(np.float64)
        bits = -np.log2(p)
        return pd.DataFrame({
            id_col: df[id_col], group_col: df[group_col],
            "b": bits * df["cnt"], "n": df["cnt"],
        })

    return _group_avg_bits(scored.map_batches(doc_rows, batch_format="pandas"),
                           id_col, group_col)


def kneser_ney_sql(table: str, id_col: str, text_col: str, group_col: str,
                   *, discount: float = 0.75) -> str:
    """DuckDB twin of :func:`kneser_ney_bits` — same tokenizer, same
    discount, same operation order in the probability expression."""
    return f"""
        WITH toks AS (
            SELECT {id_col}, {group_col},
                   generate_subscripts(ts, 1) AS pos, unnest(ts) AS w
            FROM (SELECT {id_col}, {group_col},
                         regexp_extract_all(lower(coalesce({text_col}, '')),
                                            '{_TOKEN_RE}') AS ts
                  FROM {table})
        ), bg AS (
            SELECT * FROM (
                SELECT {id_col}, {group_col},
                       lag(w) OVER (PARTITION BY {id_col} ORDER BY pos) AS l,
                       w AS r
                FROM toks)
            WHERE l IS NOT NULL
        ), c2 AS (
            SELECT l, r, COUNT(*) AS c FROM bg GROUP BY 1, 2
        ), cl AS (
            SELECT l, SUM(c) AS cl, COUNT(*) AS nl FROM c2 GROUP BY 1
        ), cr AS (
            SELECT r, COUNT(*) AS nr FROM c2 GROUP BY 1
        ), t AS (
            SELECT COUNT(*) AS t FROM c2
        ), per_doc AS (
            SELECT bg.{id_col}, bg.{group_col},
                   AVG(-log2((greatest(c2.c - {discount}, 0.0)
                              + {discount} * cl.nl * cr.nr / t.t) / cl.cl))
                       AS bits
            FROM bg JOIN c2 USING (l, r) JOIN cl USING (l)
                    JOIN cr USING (r), t
            GROUP BY 1, 2
        )
        SELECT {group_col}, COUNT(*) AS n_docs,
               ROUND(AVG(bits), 4) AS avg_bits
        FROM per_doc GROUP BY 1
    """
