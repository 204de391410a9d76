"""Lexical gating — two C4-§2.2-family corpus gates:

- ``blockword_stats`` / ``blockword_filter``: the "bad words list" page
  gate (C4 drops any page containing a term from a curated list; the
  list is a dimension-sized artifact that rides the closure, exactly
  like urltools' host blocklist). Matching is exact TOKEN equality over
  the repo tokenizer — no substring surprises ("class" never matches
  a blocked "ass"), and the semantics are SQL-mirrorable verbatim.
- ``oov_rate``: tokenizer-coverage diagnostic — the fraction of token
  OCCURRENCES per group outside the corpus's own top-``vocab_size``
  vocabulary (by total count, count DESC / token ASC tie-break). High
  OOV = the corpus slice a fixed vocab will shred into bytes; the check
  run after stages/bpe training picks a vocab size.

Scale shapes: blockword is a pure map + group-keyed int exchange; oov is
one token-count exchange → per-block partial top-V → driver merge of
≤ blocks·V tiny rows → vocab broadcast (closure) → one scoring map +
group-keyed int exchange.
"""

from __future__ import annotations

import pandas as pd

_TOKEN_RE = r"[a-z]+"


# ------------------------------------------------------------- blockwords

def _hit_mask(texts: pd.Series, blocked: frozenset) -> pd.Series:
    toks = texts.fillna("").str.lower().str.findall(_TOKEN_RE)
    return toks.map(lambda ws: any(w in blocked for w in ws))


def blockword_filter(ds, text_col: str, blockwords: list[str], *,
                     keep_flagged: bool = False):
    """Drop (or keep, for auditing) rows whose text contains any blocked
    token. Pure map."""
    blocked = frozenset(w.lower() for w in blockwords)

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        hit = _hit_mask(df[text_col], blocked)
        return df.loc[hit if keep_flagged else ~hit]

    return ds.map_batches(fn, batch_format="pandas")


def blockword_stats(ds, text_col: str, group_col: str,
                    blockwords: list[str]):
    """Per group: doc count and flagged-doc count — the release-gate
    report beside pii_stats."""
    from ..state.groupby import group_agg

    blocked = frozenset(w.lower() for w in blockwords)

    def hits(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({group_col: df[group_col],
                             "h": _hit_mask(df[text_col], blocked).astype("int64")})

    return group_agg(ds.map_batches(hits, batch_format="pandas"), [group_col],
                     {"n_docs": ("h", "size"), "flagged_docs": ("h", "sum")})


def blockword_stats_sql(table: str, text_col: str, group_col: str,
                        blockwords: list[str]) -> str:
    """DuckDB twin of :func:`blockword_stats` — same tokenizer, same
    exact-token rule."""
    in_list = ", ".join(f"'{w.lower()}'" for w in sorted(set(blockwords)))
    return f"""
        WITH bw_hits AS (
            SELECT {group_col},
                   len(list_filter(regexp_extract_all(
                       lower(coalesce({text_col}, '')), '{_TOKEN_RE}'),
                       w -> w IN ({in_list}))) > 0 AS hit
            FROM {table}
        )
        SELECT {group_col}, COUNT(*) AS n_docs,
               COUNT(*) FILTER (WHERE hit) AS flagged_docs
        FROM bw_hits GROUP BY 1
    """


# ------------------------------------------------------------------- OOV

def oov_rate(ds, text_col: str, group_col: str, *, vocab_size: int = 1000,
             round_to: int = 6):
    """Per group: token occurrences and the share outside the corpus
    top-``vocab_size`` vocabulary."""
    from ..state.groupby import group_agg
    from .bpe import word_rows

    wc = group_agg(word_rows(ds, text_col), ["word"], {"n": ("word", "size")})

    def topv(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(["n", "word"], ascending=[False, True],
                              kind="stable").head(vocab_size)

    cand = wc.map_batches(topv, batch_format="pandas").to_pandas()
    vocab = frozenset(
        cand.sort_values(["n", "word"], ascending=[False, True],
                         kind="stable").head(vocab_size)["word"])

    def tokens(df: pd.DataFrame) -> pd.DataFrame:
        toks = df[text_col].fillna("").str.lower().str.findall(_TOKEN_RE)
        e = df[[group_col]].assign(w=toks).explode("w").dropna(subset=["w"])
        return e.assign(oov=(~e["w"].isin(vocab)).astype("int64"))

    return group_agg(
        ds.map_batches(tokens, batch_format="pandas"), [group_col],
        {"total_tokens": ("oov", "size"), "oov_tokens": ("oov", "sum")},
        finish=lambda g: g.assign(
            oov_share=(g["oov_tokens"] / g["total_tokens"]).round(round_to)))


def oov_rate_sql(table: str, text_col: str, group_col: str, *,
                 vocab_size: int = 1000, round_to: int = 6) -> str:
    """DuckDB twin of :func:`oov_rate` — same tokenizer, same
    (count DESC, token ASC) vocabulary rule."""
    return f"""
        WITH toks AS (
            SELECT {group_col},
                   unnest(regexp_extract_all(lower(coalesce({text_col}, '')),
                                             '{_TOKEN_RE}')) AS w
            FROM {table}
        ), vocab AS (
            SELECT w FROM (
                SELECT w, COUNT(*) AS n FROM toks GROUP BY 1
                ORDER BY n DESC, w ASC LIMIT {vocab_size})
        )
        SELECT {group_col},
               COUNT(*) AS total_tokens,
               COUNT(*) FILTER (WHERE vocab.w IS NULL) AS oov_tokens,
               ROUND(CAST(COUNT(*) FILTER (WHERE vocab.w IS NULL) AS DOUBLE)
                     / COUNT(*), {round_to}) AS oov_share
        FROM toks LEFT JOIN vocab USING (w)
        GROUP BY 1
    """
