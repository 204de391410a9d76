"""Text-analysis operators for large-scale training-data pipelines:
language-ID (n-gram/stopword heuristic), quality scoring, token counting,
document fingerprinting. All vectorized ``map_batches`` stages over a text
column (pandas str kernels / hashlib), no per-row Python in the hot path
except where parsing is inherently rowwise.

These are the "beyond the reference" ops the target engine adds; their
closest reference analogs are the scalar string helpers of SURVEY.md §2.7.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd

from ..state.groupby import collect_pandas, group_agg, partition_reduce

_STOPWORDS = {
    "en": {"the", "and", "of", "a", "to", "in", "is", "was", "for", "on", "with", "that", "it"},
    "de": {"der", "die", "das", "und", "ist", "von", "mit", "für", "auf", "ein", "eine", "zu"},
    "fr": {"le", "la", "les", "et", "est", "de", "des", "un", "une", "pour", "avec", "dans"},
}
_WORD_RE = re.compile(r"[a-zàâäéèêëîïôöùûüßa-z]+")
_TOKEN_RE = r"\S+"
_PUNCT_RE = r"[.!?,;:]"
# RE2 spelling of Python's Unicode \s (White_Space = \p{Z} plus the ASCII
# controls), so DuckDB twins that split on whitespace count EXACTLY the
# tokens token_counts() counts — RE2's bare \s is ASCII-only and diverges
# on NBSP/unicode-space text (the divergence textnorm.py documents).
_PY_WS_SQL = r"[\t\n\x0b\f\r\x1c-\x1f\x85\p{Z}]"


def token_counts(texts: pd.Series) -> pd.Series:
    """Whitespace token count, vectorized (0 for empty/None)."""
    return texts.fillna("").str.count(_TOKEN_RE).astype("int64")


def bpe_ish_token_counts(texts: pd.Series) -> pd.Series:
    """BPE-ish sub-token count: words + digit runs + punctuation singles
    (a GPT-2-style pre-tokenizer regex, no vocab needed)."""
    pat = r"[A-Za-z]+|\d+|[^\sA-Za-z\d]"
    return texts.fillna("").str.count(pat).astype("int64")


def punct_ratio(texts: pd.Series) -> pd.Series:
    t = texts.fillna("")
    n = t.str.len().clip(lower=1)
    return t.str.count(_PUNCT_RE) / n


def stopword_ratio(texts: pd.Series, lang: str = "en") -> pd.Series:
    sw = _STOPWORDS[lang]
    toks = texts.fillna("").str.lower().str.findall(_WORD_RE)
    return toks.map(lambda ws: sum(w in sw for w in ws) / max(1, len(ws)))


def quality_score(texts: pd.Series) -> pd.Series:
    """Composite [0,1] quality heuristic: length band + punctuation sanity +
    stopword presence (the boilerplate/garbage filter a pretraining pipeline
    applies before anything expensive)."""
    t = texts.fillna("")
    n = t.str.len()
    len_ok = ((n >= 50) & (n <= 100_000)).astype(float)
    pr = punct_ratio(t)
    punct_ok = ((pr > 0.0) & (pr < 0.2)).astype(float)
    sw_ok = (stopword_ratio(t) > 0.02).astype(float)
    return (0.4 * len_ok + 0.3 * punct_ok + 0.3 * sw_ok).round(6)


def lang_id(texts: pd.Series) -> pd.Series:
    """Stopword-vote language ID over {en, de, fr}; 'und' (undetermined)
    when no vote fires. Deterministic; ties break alphabetically."""

    def one(text: str) -> str:
        words = _WORD_RE.findall((text or "").lower())
        if not words:
            return "und"
        best_lang, best = "und", 0
        for lang in sorted(_STOPWORDS):
            score = sum(w in _STOPWORDS[lang] for w in words)
            if score > best:
                best_lang, best = lang, score
        return best_lang

    return texts.map(one)


def fingerprint_md5(texts: pd.Series) -> pd.Series:
    """Hex md5 of the text — matches DuckDB ``md5(text)`` exactly, so this
    one IS SQL-oracle-checkable."""
    return texts.fillna("").map(lambda t: hashlib.md5(t.encode("utf-8")).hexdigest())


def rolling_fingerprint(texts: pd.Series, window: int = 64) -> pd.Series:
    """Winnowing-style document fingerprint: min window-hash over
    ``window``-char windows (cheap near-dup prefilter), hex-encoded.
    md5 so the result is DuckDB-oracle-checkable (``min(md5(substr(...)))``
    over the same window set — hex min is monotone with digest min)."""

    def one(text: str) -> str:
        t = text or ""
        if len(t) <= window:
            return hashlib.md5(t.encode("utf-8")).hexdigest()
        step = max(1, (len(t) - window) // 128)  # bounded work per doc
        return min(
            hashlib.md5(t[i : i + window].encode("utf-8")).hexdigest()
            for i in range(0, len(t) - window + 1, step)
        )

    return texts.map(one)


def add_text_stats(ds, text_col: str = "text"):
    """Append token_count, punct_ratio, quality, lang_guess columns."""

    def _fn(batch: pd.DataFrame) -> pd.DataFrame:
        t = batch[text_col]
        batch = batch.copy()
        batch["token_count"] = token_counts(t)
        batch["punct_ratio"] = punct_ratio(t).round(6)
        batch["quality"] = quality_score(t)
        batch["lang_guess"] = lang_id(t)
        return batch

    return ds.map_batches(_fn, batch_format="pandas")


def token_doc_frequency(ds, id_col: str, text_col: str, *, min_df: int = 1):
    """Inverted-index statistics: document frequency per token (the
    vocabulary/df side of a postings build — the full postings list is the
    same plan with a collect instead of a count).

    Per batch: vectorized pandas ``str.findall`` → explode → within-doc
    dedup (a doc is ONE row, so its tokens stay in one batch) → per-batch
    partial counts; one hash exchange merges partials per token
    (state/groupby.group_agg). Tokenization is ``[a-z]+`` over
    ``lower()`` — byte-identical to the DuckDB oracle's
    ``regexp_extract_all(lower(text), '[a-z]+')``."""

    def doc_tokens(df: pd.DataFrame) -> pd.DataFrame:
        toks = df[text_col].fillna("").str.lower().str.findall(r"[a-z]+")
        e = df[[id_col]].assign(token=toks).explode("token").dropna(subset=["token"])
        return e.drop_duplicates([id_col, "token"])

    return group_agg(
        ds.map_batches(doc_tokens, batch_format="pandas"), ["token"],
        {"df": (id_col, "size")}, finish=lambda g: g[g["df"] >= min_df],
    )


_SENT_SPLIT_RE = re.compile(r"\.\s+")


def boilerplate_stats(ds, id_col: str, text_col: str, group_col: str, *,
                      min_chars: int = 20):
    """Cross-document duplicated-sentence ratio per group — template /
    boilerplate detection (Lee et al. 2022, "Deduplicating Training Data
    Makes Language Models Better", substring-dup family at sentence
    granularity): a sentence appearing in ≥2 docs is boilerplate; each
    doc's dup ratio is its boilerplate share, averaged per ``group_col``.

    Shape: explode+within-doc-dedup in-batch (one doc = one input row, so
    per-batch dedup IS global per-doc dedup; sentences exchange as md5
    hex digests, never text) → sentence-hash exchange computes per-sentence
    doc counts and emits per-(doc, partition) partials → doc-keyed
    exchange sums per-doc totals → tiny per-group final. Docs with no
    qualifying sentence (< ``min_chars`` after the split) are excluded,
    exactly like the SQL twin's inner join."""

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        ids, grps, hs = [], [], []
        for i, g, t in zip(df[id_col], df[group_col], df[text_col]):
            if t is None:
                continue
            seen = set()
            for s in _SENT_SPLIT_RE.split(t):
                s = s.strip(" ")  # SQL twin uses trim() = spaces only
                if len(s) >= min_chars and s not in seen:
                    seen.add(s)
                    hs.append(hashlib.md5(s.encode("utf-8")).hexdigest())
            ids.extend([i] * (len(hs) - len(ids)))
            grps.extend([g] * (len(hs) - len(grps)))
        return pd.DataFrame({id_col: ids, group_col: grps, "h": hs})

    exploded = ds.map_batches(explode, batch_format="pandas")

    def per_sentence(part: pd.DataFrame) -> pd.DataFrame:
        # rows are distinct (doc, sentence); docs-per-sentence = row count
        nd = part.groupby("h")["h"].transform("size")
        flagged = part.assign(dup=(nd >= 2).astype("int64"))
        return flagged.groupby([id_col, group_col], as_index=False).agg(
            n_sents=("dup", "size"), n_dup=("dup", "sum")
        )

    per_doc_partials = partition_reduce(
        exploded, ["h"], per_sentence,
    )

    docs = group_agg(
        per_doc_partials, [id_col, group_col],
        {"n_sents": ("n_sents", "sum"), "n_dup": ("n_dup", "sum")},
        finish=lambda d: d.assign(ratio=d["n_dup"] / d["n_sents"]),
    )

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            group_col: g[group_col],
            "n_docs": g["n_docs"],
            "avg_dup_ratio": (g["ratio_sum"] / g["n_docs"]).round(4),
        })

    return group_agg(docs, [group_col],
                     {"n_docs": ("ratio", "size"), "ratio_sum": ("ratio", "sum")},
                     finish=finish, num_partitions=4)


def boilerplate_sql(table: str, id_col: str, text_col: str, group_col: str,
                    min_chars: int = 20) -> str:
    """DuckDB twin of :func:`boilerplate_stats` (same split regex, same
    min-length gate, same ≥2-doc rule)."""
    return f"""
        WITH exploded AS (
            SELECT {id_col}, {group_col},
                   trim(unnest(regexp_split_to_array(
                       coalesce({text_col}, ''), '\\.\\s+'))) AS sent
            FROM {table}
        ),
        norm AS (
            SELECT DISTINCT {id_col}, {group_col}, sent
            FROM exploded WHERE length(sent) >= {min_chars}
        ),
        sdf AS (SELECT sent, COUNT(DISTINCT {id_col}) AS nd FROM norm GROUP BY 1),
        per_doc AS (
            SELECT n.{id_col}, n.{group_col}, COUNT(*) AS n_sents,
                   SUM(CASE WHEN sdf.nd >= 2 THEN 1 ELSE 0 END) AS n_dup
            FROM norm n JOIN sdf USING (sent) GROUP BY 1, 2
        )
        SELECT {group_col}, COUNT(*) AS n_docs,
               ROUND(AVG(CAST(n_dup AS DOUBLE) / n_sents), 4) AS avg_dup_ratio
        FROM per_doc GROUP BY 1
    """


def grouped_corr(ds, by: str, x_col: str, y_col: str, *,
                 round_to: int = 6):
    """Per-group Pearson correlation + OLS slope from SUFFICIENT
    STATISTICS: each batch contributes (n, Σx, Σy, Σx², Σy², Σxy) — six
    numbers per (group, batch) cross the exchange, never rows. The
    textbook mergeable-aggregate shape for per-stratum feature/label
    diagnostics over a corpus."""
    stats = ["n", "sx", "sy", "sxx", "syy", "sxy"]

    def moments(df: pd.DataFrame) -> pd.DataFrame:
        # SQL CORR/REGR_SLOPE ignore rows where either side is NULL
        df = df.dropna(subset=[x_col, y_col])
        x, y = df[x_col].astype("float64"), df[y_col].astype("float64")
        return pd.DataFrame({
            by: df[by], "n": 1.0, "sx": x, "sy": y,
            "sxx": x * x, "syy": y * y, "sxy": x * y,
        })

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        n = g["n"]
        cov = g["sxy"] - g["sx"] * g["sy"] / n
        vx = g["sxx"] - g["sx"] ** 2 / n
        vy = g["syy"] - g["sy"] ** 2 / n
        return pd.DataFrame({
            by: g[by],
            "n": n.astype("int64"),
            "corr": (cov / np.sqrt(vx * vy)).round(round_to),
            "slope": (cov / vx).round(round_to),
        })

    return group_agg(ds.map_batches(moments, batch_format="pandas"), [by],
                     {c: (c, "sum") for c in stats}, finish=finish)


def corr_sql(table: str, by: str, x_col: str, y_col: str,
             round_to: int = 6) -> str:
    return f"""
        SELECT {by},
               COUNT(*) FILTER ({x_col} IS NOT NULL AND {y_col} IS NOT NULL)
                   AS n,
               ROUND(CORR({x_col}, {y_col}), {round_to}) AS corr,
               ROUND(REGR_SLOPE({y_col}, {x_col}), {round_to}) AS slope
        FROM {table} GROUP BY {by}
    """


def profile_table(ds, columns: list[str]):
    """Data-quality profile: one row per column with (n_rows, n_nulls,
    n_distinct, min_v, max_v) — the ingest-time sanity scan a pipeline
    runs before training on a new table. Values are compared as strings
    (one schema for mixed column types; min/max over the VARCHAR cast,
    matching the SQL twin). Per-batch partials carry per-column local
    dedup sets as rows, so the exchange is bounded by local distincts —
    for high-cardinality columns compose with grouped_distinct_sketch's
    HLL instead."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for c in columns:
            s = df[c]
            nn = s.dropna()
            if np.issubdtype(s.dtype, np.datetime64):
                # fixed microsecond format on BOTH sides (pandas astype(str)
                # drops midnight; DuckDB's VARCHAR cast trims trailing zeros
                # differently) — injective for timestamp[us], so n_distinct
                # stays exact too
                vals = nn.dt.strftime("%Y-%m-%d %H:%M:%S.%f")
            else:
                vals = nn.astype(str)
            uniq = vals.drop_duplicates()
            frames.append(pd.DataFrame({
                "column": c,
                "v": uniq,
                "n_rows": 0,
                "n_nulls": 0,
            }))
            frames.append(pd.DataFrame({
                "column": [c], "v": [None],
                "n_rows": [len(s)], "n_nulls": [int(s.isna().sum())],
            }))
        return pd.concat(frames, ignore_index=True)

    def final(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for c, g in part.groupby("column", sort=False):
            vals = g["v"].dropna().drop_duplicates()
            rows.append({
                "column": c,
                "n_rows": int(g["n_rows"].sum()),
                "n_nulls": int(g["n_nulls"].sum()),
                "n_distinct": int(len(vals)),
                "min_v": vals.min() if len(vals) else None,
                "max_v": vals.max() if len(vals) else None,
            })
        return pd.DataFrame(rows)

    return partition_reduce(
        ds.map_batches(partial, batch_format="pandas"), ["column"], final,
    )


def profile_sql(table: str, columns: list[str],
                ts_cols: set[str] | None = None) -> str:
    """DuckDB twin of :func:`profile_table`. ``ts_cols`` names the
    timestamp columns: both sides format them with the same fixed
    microsecond strftime (DuckDB's bare VARCHAR cast trims trailing
    zeros; pandas' str cast drops midnight time parts — a shared explicit
    format sidesteps both)."""
    ts_cols = ts_cols or set()
    parts = []
    for c in columns:
        v = (f"strftime({c}, '%Y-%m-%d %H:%M:%S.%f')" if c in ts_cols
             else f"CAST({c} AS VARCHAR)")
        parts.append(
            f"""SELECT '{c}' AS "column", COUNT(*) AS n_rows,
               CAST(COUNT(*) - COUNT({c}) AS BIGINT) AS n_nulls,
               COUNT(DISTINCT {c}) AS n_distinct,
               MIN({v}) AS min_v,
               MAX({v}) AS max_v
            FROM {table}"""
        )
    return " UNION ALL ".join(parts)


def repetition_stats(ds, id_col: str, text_col: str, group_col: str, *,
                     flag_threshold: float = 0.5,
                     round_to: int = 6):
    """Gopher-style within-document repetition filters (Rae et al. 2021
    §A1.1, "Scaling Language Models: ... Gopher", repetition family):
    per doc, the duplicate-word fraction (1 - distinct/total) and the
    top-word fraction (most frequent word / total), averaged per
    ``group_col`` plus a count of docs over ``flag_threshold`` — the
    cheap pre-filter a pretraining pipeline runs before any dedup.

    Shape: per-doc metrics are map-only (one doc = one row; the word
    Counter never leaves the batch), then a two-phase grouped mean — only
    (group, float-sum, count) partials exchange. Scale-safe: the shuffle
    is O(groups × partitions) rows.

    Empty/None text counts as one empty-string word (``''.split(' ') ==
    ['']``), matching the SQL twin's ``string_split(coalesce(t,''), ' ')``.
    """
    from collections import Counter

    def per_doc(df: pd.DataFrame) -> pd.DataFrame:
        toks = df[text_col].fillna("").str.split(" ")
        nw = toks.str.len().astype("float64")
        nd = toks.map(lambda ws: len(set(ws))).astype("float64")
        tc = toks.map(lambda ws: max(Counter(ws).values())).astype("float64")
        dup = 1.0 - nd / nw
        top = tc / nw
        return pd.DataFrame({
            group_col: df[group_col], "dup": dup, "top": top,
            "fl": (dup > flag_threshold).astype("int64"),
        })

    def finish(out: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            group_col: out[group_col],
            "n_docs": out["n_docs"],
            "avg_dup_word_frac": (out["dup_sum"] / out["n_docs"]).round(round_to),
            "avg_top_word_frac": (out["top_sum"] / out["n_docs"]).round(round_to),
            "n_flagged": out["n_flagged"],
        })

    return group_agg(
        ds.map_batches(per_doc, batch_format="pandas"), [group_col],
        {"n_docs": ("dup", "size"), "dup_sum": ("dup", "sum"),
         "top_sum": ("top", "sum"), "n_flagged": ("fl", "sum")},
        finish=finish,
    )


def repetition_sql(table: str, id_col: str, text_col: str, group_col: str,
                   flag_threshold: float = 0.5, round_to: int = 6) -> str:
    """DuckDB twin of :func:`repetition_stats` (same space-split, same
    empty-string-word convention, same strict ``>`` flag rule)."""
    return f"""
        WITH pw AS (
            SELECT {id_col}, {group_col}, w, COUNT(*) AS c
            FROM (SELECT {id_col}, {group_col},
                         unnest(string_split(coalesce({text_col}, ''), ' ')) AS w
                  FROM {table})
            GROUP BY 1, 2, 3
        ),
        per_doc AS (
            SELECT {id_col}, any_value({group_col}) AS {group_col},
                   1.0 - CAST(COUNT(*) AS DOUBLE) / SUM(c) AS dup_frac,
                   CAST(MAX(c) AS DOUBLE) / SUM(c) AS top_frac
            FROM pw GROUP BY {id_col}
        )
        SELECT {group_col}, COUNT(*) AS n_docs,
               ROUND(AVG(dup_frac), {round_to}) AS avg_dup_word_frac,
               ROUND(AVG(top_frac), {round_to}) AS avg_top_word_frac,
               CAST(SUM(CASE WHEN dup_frac > {flag_threshold} THEN 1 ELSE 0 END)
                    AS BIGINT) AS n_flagged
        FROM per_doc GROUP BY 1
    """


def unigram_logprob_stats(ds, id_col: str, text_col: str, group_col: str, *,
                          round_to: int = 6):
    """Corpus-self unigram cross-entropy per group — the model-free analog
    of CCNet-style perplexity filtering (Wenzek et al. 2020, "CCNet:
    Extracting High Quality Monolingual Datasets from Web Crawl Data"):
    train a unigram LM on the corpus itself, score every document by its
    mean negative log2 token probability, and report per-``group_col``
    averages. Low-entropy groups are templated/repetitive; high-entropy
    groups are vocabulary-rich or noisy — the cheap corpus-health signal a
    pretraining mix inspects before spending on real-LM perplexity.

    Because the model is the corpus's own token counts, every token is
    in-vocabulary (no OOV smoothing), and log p(w) = log2 c(w) - log2 T
    means the corpus total T enters only as a final scalar shift:

    Shape (all exchanges carry counts/floats, never text beyond tokens):
      1. map-only explode to per-doc token counts (id, group, w, c);
      2. token-keyed ``partition_reduce``: all rows of token w co-locate,
         so the global c(w) is a per-partition transform('sum'); emits
         per-(doc, partition) partials (id, group, Σ c·log2 c(w), Σ c);
      3. doc-keyed ``group_agg``: per-doc mean;
      4. group-keyed ``group_agg`` + driver final on the #groups-row result,
         where T = Σ tokens shifts the mean by log2 T.

    Docs with zero ``[a-z]+`` tokens are excluded (the SQL twin's inner
    join). Tokenization matches token_doc_frequency's oracle contract:
    ``[a-z]+`` over ``lower()``. Returns pandas (group, n_docs, n_tokens,
    avg_bits_per_token).
    """
    def explode(df: pd.DataFrame) -> pd.DataFrame:
        toks = df[text_col].fillna("").str.lower().str.findall(r"[a-z]+")
        e = (df[[id_col, group_col]].assign(w=toks).explode("w")
             .dropna(subset=["w"]))
        return e.groupby([id_col, group_col, "w"], as_index=False).agg(
            c=("w", "size"))

    def per_token(part: pd.DataFrame) -> pd.DataFrame:
        # token partition ⇒ transform('sum') IS the global count c(w)
        cw = part.groupby("w")["c"].transform("sum").to_numpy(dtype="float64")
        c = part["c"].to_numpy(dtype="float64")
        contrib = part[[id_col, group_col]].assign(
            wlog=c * np.log2(cw), n=part["c"])
        return contrib.groupby([id_col, group_col], as_index=False).agg(
            wlog=("wlog", "sum"), n=("n", "sum"))

    token_partials = partition_reduce(
        ds.map_batches(explode, batch_format="pandas"), ["w"], per_token)
    docs = group_agg(token_partials, [id_col, group_col],
                     {"wlog": ("wlog", "sum"), "n": ("n", "sum")},
                     finish=lambda d: d.assign(ratio=d["wlog"] / d["n"]))
    grouped = group_agg(docs, [group_col],
                        {"n_docs": ("ratio", "size"), "ratio_sum": ("ratio", "sum"),
                         "n_tokens": ("n", "sum")}, num_partitions=4)
    df = (collect_pandas(grouped, [group_col, "n_docs", "ratio_sum", "n_tokens"])
          .sort_values(group_col).reset_index(drop=True))
    t = float(df["n_tokens"].sum())
    bits = np.log2(max(t, 1.0)) - df["ratio_sum"] / df["n_docs"]
    return pd.DataFrame({
        group_col: df[group_col],
        "n_docs": df["n_docs"].astype("int64"),
        "n_tokens": df["n_tokens"].astype("int64"),
        "avg_bits_per_token": np.round(bits, round_to),
    })


def unigram_logprob_sql(table: str, id_col: str, text_col: str,
                        group_col: str, round_to: int = 6) -> str:
    """DuckDB twin of :func:`unigram_logprob_stats` (same ``[a-z]+`` /
    ``lower()`` tokenizer, same inner-join doc exclusion, same
    log2-shift formulation so both sides do identical float math)."""
    return f"""
        WITH toks AS (
            SELECT {id_col}, {group_col}, w, COUNT(*) AS c
            FROM (SELECT {id_col}, {group_col},
                         unnest(regexp_extract_all(lower(coalesce(
                             {text_col}, '')), '[a-z]+')) AS w
                  FROM {table})
            GROUP BY 1, 2, 3
        ),
        model AS (SELECT w, SUM(c) AS cw FROM toks GROUP BY 1),
        tot AS (SELECT CAST(SUM(c) AS DOUBLE) AS t FROM toks),
        per_doc AS (
            SELECT t2.{id_col}, any_value(t2.{group_col}) AS {group_col},
                   SUM(t2.c * log2(CAST(m.cw AS DOUBLE))) / SUM(t2.c)
                       AS ratio,
                   SUM(t2.c) AS n
            FROM toks t2 JOIN model m USING (w)
            GROUP BY t2.{id_col}
        )
        SELECT {group_col}, COUNT(*) AS n_docs,
               CAST(SUM(n) AS BIGINT) AS n_tokens,
               ROUND((SELECT log2(GREATEST(t, 1.0)) FROM tot) - AVG(ratio),
                     {round_to}) AS avg_bits_per_token
        FROM per_doc GROUP BY 1
    """


def lang_mix_weights(ds, lang_col: str, text_col: str, *,
                     round_to: int = 6):
    """Training-mix reweighting table: per language, its token share and
    the uniform-target sampling multiplier ``min(1, uniform_share /
    actual_share)`` — the static language-rebalancing step a pretraining
    mix runs before sampling (downsample dominant languages toward a
    uniform token budget; the multipliers feed ``stratified_sample``).

    Shape: whitespace token counts are summed per batch (map-only), a
    lang-keyed exchange of (lang, sum, count) int partials merges them,
    and the final share/multiplier math runs on the #languages-row
    result — driver-sized by definition, like the grouped-sketch
    finishers. Returns a pandas DataFrame sorted by language.
    """
    df = _lang_token_table(ds, lang_col, text_col)
    total = float(df["s"].sum())
    uniform = total / max(len(df), 1)
    tok = df["s"].to_numpy(dtype="float64")
    return pd.DataFrame({
        lang_col: df[lang_col],
        "n_docs": df["n"].astype("int64"),
        "n_tokens": df["s"].astype("int64"),
        "token_share": np.round(tok / total, round_to),
        "multiplier": np.round(np.minimum(1.0, uniform / tok), round_to),
    })


def lang_mix_sql(table: str, lang_col: str, text_col: str,
                 round_to: int = 6) -> str:
    """DuckDB twin of :func:`lang_mix_weights` (same whitespace token
    count as token_stats_by_lang's oracle, same uniform target)."""
    ntok = (f"SUM(len(list_filter(regexp_split_to_array({text_col}, "
            f"'{_PY_WS_SQL}+'), x -> x <> '')))")
    return f"""
        WITH per_lang AS (
            SELECT {lang_col}, COUNT(*) AS n_docs,
                   CAST({ntok} AS BIGINT) AS n_tokens
            FROM {table} GROUP BY 1
        )
        SELECT {lang_col}, n_docs, n_tokens,
               ROUND(CAST(n_tokens AS DOUBLE) / SUM(n_tokens) OVER (),
                     {round_to}) AS token_share,
               ROUND(LEAST(1.0,
                     (CAST(SUM(n_tokens) OVER () AS DOUBLE)
                      / COUNT(*) OVER ()) / n_tokens),
                     {round_to}) AS multiplier
        FROM per_lang
    """


def lang_mix_alpha_weights(ds, lang_col: str, text_col: str, *,
                           alpha: float = 0.3, round_to: int = 6):
    """Temperature-based multilingual sampling weights — the exponent
    rule multilingual pretraining actually uses (Conneau et al. 2020
    XLM-R §3.1, mBERT's exponent smoothing): sample language i with

        q_i = p_i^alpha / Σ_j p_j^alpha,   p_i = token share

    alpha=1 keeps natural proportions, alpha→0 approaches uniform; 0.3
    is the published XLM-R setting. Returns per language the natural
    share, the smoothed sampling weight q, and the per-doc multiplier
    q_i/p_i (relative up/down-sampling rate; feeds weighted_sample).

    Same exchange shape as :func:`lang_mix_weights` (one lang-keyed int
    exchange, finisher on the #languages-row result)."""
    df = _lang_token_table(ds, lang_col, text_col)
    tok = df["s"].to_numpy(dtype="float64")
    p = tok / tok.sum()
    q = p ** alpha
    q = q / q.sum()
    return pd.DataFrame({
        lang_col: df[lang_col],
        "n_tokens": df["s"].astype("int64"),
        "token_share": np.round(p, round_to),
        "sample_weight": np.round(q, round_to),
        "rate_multiplier": np.round(q / p, round_to),
    })


def lang_mix_alpha_sql(table: str, lang_col: str, text_col: str, *,
                       alpha: float = 0.3, round_to: int = 6) -> str:
    """DuckDB twin of :func:`lang_mix_alpha_weights`."""
    ntok = (f"SUM(len(list_filter(regexp_split_to_array({text_col}, "
            f"'{_PY_WS_SQL}+'), x -> x <> '')))")
    return f"""
        WITH per_lang AS (
            SELECT {lang_col}, CAST({ntok} AS BIGINT) AS n_tokens
            FROM {table} GROUP BY 1
        ), shares AS (
            SELECT {lang_col}, n_tokens,
                   CAST(n_tokens AS DOUBLE) / SUM(n_tokens) OVER () AS p
            FROM per_lang
        )
        SELECT {lang_col}, n_tokens,
               ROUND(p, {round_to}) AS token_share,
               ROUND(pow(p, {alpha}) / SUM(pow(p, {alpha})) OVER (),
                     {round_to}) AS sample_weight,
               ROUND((pow(p, {alpha}) / SUM(pow(p, {alpha})) OVER ()) / p,
                     {round_to}) AS rate_multiplier
        FROM shares
    """


def _lang_token_table(ds, lang_col: str, text_col: str) -> pd.DataFrame:
    """Shared lang-keyed (lang, n_tokens, n_docs) exchange used by the
    mix/allocation finishers: per language, s = tokens, n = docs."""
    toks = ds.map_batches(
        lambda df: df.assign(tok=token_counts(df[text_col])), batch_format="pandas")
    grouped = group_agg(toks, [lang_col],
                        {"s": ("tok", "sum"), "n": ("tok", "size")})
    return (collect_pandas(grouped, [lang_col, "s", "n"])
            .sort_values(lang_col).reset_index(drop=True))


def unimax_allocation(ds, lang_col: str, text_col: str, *,
                      budget_tokens: int, max_epochs: float = 4.0,
                      round_to: int = 6) -> pd.DataFrame:
    """UniMax language budget allocation (Chung et al. 2023, "UniMax:
    Fairer and More Effective Language Sampling for Large-Scale
    Multilingual Pretraining"): spread a total token ``budget`` as
    uniformly as possible across languages, but never take more than
    ``max_epochs`` passes over any language's data. The classic
    water-filling: sort languages by their epoch cap ``cap_i = n_tokens_i
    * max_epochs`` ascending; walk up — a language whose cap sits below
    the current uniform waterline contributes its whole cap, every
    language above the waterline gets the waterline share
    ``t = remaining_budget / remaining_langs``.

    Shape: one lang-keyed int-partial exchange (the lang_mix_weights
    plan), then the waterfall on the #languages-row table — driver-sized
    by definition. REAL-SQL-oracled: the DuckDB twin computes the same
    closed form with window functions (first row where the cap clears
    the waterline fixes ``t``; everything below keeps its cap).

    Output per language: natural tokens, cap, allocated tokens, and the
    resulting epochs ``alloc / n_tokens`` (≤ max_epochs by construction).
    """
    df = _lang_token_table(ds, lang_col, text_col)
    df = df.sort_values(["s", lang_col]).reset_index(drop=True)
    n = len(df)
    caps = df["s"].to_numpy(dtype="float64") * float(max_epochs)
    alloc = np.empty(n, dtype=np.float64)
    remaining = float(budget_tokens)
    waterline = None
    for i in range(n):  # #languages iterations — driver-sized
        share = remaining / (n - i)
        if waterline is None and caps[i] <= share:
            alloc[i] = caps[i]
            remaining -= caps[i]
        else:
            if waterline is None:
                waterline = share
            alloc[i] = waterline
    out = pd.DataFrame({
        lang_col: df[lang_col],
        "n_tokens": df["s"].astype("int64"),
        "cap_tokens": np.round(caps, round_to),
        "alloc_tokens": np.round(alloc, round_to),
        "epochs": np.round(alloc / np.maximum(df["s"].to_numpy(dtype="float64"),
                                              1.0), round_to),
    })
    return out.sort_values(lang_col).reset_index(drop=True)


def unimax_allocation_sql(table: str, lang_col: str, text_col: str, *,
                          budget_tokens: int, max_epochs: float = 4.0,
                          round_to: int = 6) -> str:
    """DuckDB twin of :func:`unimax_allocation` — identical water-filling
    closed form: ordered by (cap, lang), the FIRST row whose cap exceeds
    its uniform share ``(B - cum_prev) / langs_left`` fixes the waterline
    ``t``; rows before it keep their caps, rows from it on get ``t``.
    Same int64 prefix sums, same IEEE division order, same rounding."""
    ntok = (f"SUM(len(list_filter(regexp_split_to_array({text_col}, "
            f"'{_PY_WS_SQL}+'), x -> x <> '')))")
    return f"""
        WITH per_lang AS (
            SELECT {lang_col}, CAST({ntok} AS BIGINT) AS n_tokens
            FROM {table} GROUP BY 1
        ), ordered AS (
            SELECT {lang_col}, n_tokens,
                   n_tokens * {max_epochs} AS cap,
                   ROW_NUMBER() OVER w AS rn,
                   COUNT(*) OVER () AS n,
                   COALESCE(SUM(n_tokens * {max_epochs}) OVER (
                       w ROWS BETWEEN UNBOUNDED PRECEDING
                       AND 1 PRECEDING), 0) AS cum_prev
            FROM per_lang
            WINDOW w AS (ORDER BY n_tokens * {max_epochs}, {lang_col})
        ), first_uncapped AS (
            SELECT rn AS j,
                   ({budget_tokens} - cum_prev) / (n - rn + 1) AS t
            FROM ordered
            WHERE cap > ({budget_tokens} - cum_prev) / (n - rn + 1)
            ORDER BY rn LIMIT 1
        )
        SELECT {lang_col}, n_tokens,
               ROUND(cap, {round_to}) AS cap_tokens,
               ROUND(CASE WHEN f.j IS NULL OR o.rn < f.j THEN o.cap
                          ELSE f.t END, {round_to}) AS alloc_tokens,
               ROUND(CASE WHEN f.j IS NULL OR o.rn < f.j THEN o.cap
                          ELSE f.t END
                     / GREATEST(CAST(n_tokens AS DOUBLE), 1.0),
                     {round_to}) AS epochs
        FROM ordered o LEFT JOIN first_uncapped f ON TRUE
        ORDER BY {lang_col}
    """


def compression_ratio_stats(ds, group_col: str, text_col: str, *,
                            level: int = 6, round_to: int = 6):
    """Per-group zlib compression-ratio profile — the
    compressibility quality signal web curation uses beside the
    repetition rules (highly compressible ⇒ templated/boilerplate/
    repetitive text; near-incompressible ⇒ random noise; both tails get
    inspected, exactly like the perplexity signal in stages/ngramlm.py).
    Ratio per doc = ``len(zlib.compress(utf8)) / len(utf8)``; empty docs
    are excluded (no ratio exists — the SQL-twin-style exclusion rule).

    Shape: per-batch the C zlib kernel runs per doc (inherently rowwise,
    like bpe_apply's encode loop) and partials collapse to per-group
    (n, Σratio, min, max) before leaving the task; one group-keyed
    exchange merges. Per-doc ratios are carried as FIXED-POINT int64
    (1e-9 units — the kmeans/classifier "int64 partials ⇒ order-free ⇒
    golden-freezable" rule), so the grouped sum is exact at any
    parallelism. zlib output is pinned by RFC 1950 for a fixed level ⇒
    deterministic; not expressible in DuckDB, so the registered query is
    golden-frozen, property-tested in tests/test_compressratio.py.
    """
    import zlib

    _FP = 10 ** 9

    def per_doc(df: pd.DataFrame) -> pd.DataFrame:
        raw = df[text_col].fillna("").str.encode("utf-8")
        n = raw.str.len().to_numpy(dtype="int64")
        keep = n > 0
        comp = np.fromiter((len(zlib.compress(b, level)) for b in raw[keep]),
                           dtype=np.int64, count=int(keep.sum()))
        r_fp = (comp * _FP) // n[keep]  # fixed-point 1e-9 ratio, exact
        return pd.DataFrame({group_col: df[group_col].to_numpy()[keep],
                             "r": r_fp})

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            group_col: g[group_col],
            "n_docs": g["n_docs"],
            "mean_ratio": np.round(g["s"] / g["n_docs"] / _FP, round_to),
            "min_ratio": np.round(g["lo"] / _FP, round_to),
            "max_ratio": np.round(g["hi"] / _FP, round_to),
        })

    return group_agg(
        ds.map_batches(per_doc, batch_format="pandas"), [group_col],
        {"n_docs": ("r", "size"), "s": ("r", "sum"), "lo": ("r", "min"),
         "hi": ("r", "max")},
        finish=finish,
    )
