"""Gopher quality rules — the canonical document-level filter set of
Rae et al. 2021 (Table A1), the gate most open pretraining pipelines
(Gopher, Falcon/RefinedWeb, Dolma) apply verbatim before anything
expensive. Deterministic, vectorized, and restricted to rules whose
semantics mirror 1:1 into DuckDB so the whole gate is SQL-oracled:

  R1  word count in [min_words, max_words]           (50..100k)
  R2  mean word length in [3, 10]
  R3  hash/ellipsis symbol-to-word ratio ≤ 0.1
  R4  ≤ 90% of lines start with a bullet ('-' '*' '•')
  R5  ≤ 30% of lines end with an ellipsis ('…' or '...')
  R6  ≥ 80% of words contain an alphabetic character
  R7  ≥ 2 distinct words from the stop set
      {the, be, to, of, and, that, have, with}

A doc passes the gate iff it passes every rule. ``gopher_rules_stats``
reports per group how many docs fail each rule and how many pass all —
the release diagnostic; ``gopher_filter`` applies the gate. Pure maps +
one group-keyed int exchange.
"""

from __future__ import annotations

import pandas as pd

_WORD_RE = r"\S+"
_ALPHA_WORD_RE = r"[^\s]*[a-zA-Z][^\s]*"
_STOPSET = ("the", "be", "to", "of", "and", "that", "have", "with")
_BULLET_LINE_RE = r"(?m)^[\-\*•]"
_ELLIPSIS_LINE_RE = r"(?m)(…|\.\.\.)$"
_SYMBOL_RE = r"(#|…|\.\.\.)"


def gopher_rule_flags(texts: pd.Series, *, min_words: int = 50,
                      max_words: int = 100_000,
                      stop_min: int = 2) -> pd.DataFrame:
    """Boolean PASS column per rule (r1..r7) plus pass_all."""
    t = texts.fillna("")
    words = t.str.findall(_WORD_RE)
    n_words = words.str.len()
    total_chars = words.map(lambda ws: sum(len(w) for w in ws))
    mean_wl = total_chars / n_words.clip(lower=1)
    n_lines = t.str.count(r"\n") + 1
    out = pd.DataFrame({
        "r1": (n_words >= min_words) & (n_words <= max_words),
        "r2": (mean_wl >= 3.0) & (mean_wl <= 10.0),
        "r3": t.str.count(_SYMBOL_RE) / n_words.clip(lower=1) <= 0.1,
        "r4": t.str.count(_BULLET_LINE_RE) / n_lines <= 0.9,
        "r5": t.str.count(_ELLIPSIS_LINE_RE) / n_lines <= 0.3,
        "r6": (words.map(lambda ws: sum(1 for w in ws
                                        if any(c.isalpha() and c.isascii()
                                               for c in w)))
               / n_words.clip(lower=1)) >= 0.8,
        "r7": t.str.lower().str.findall(r"[a-z]+").map(
            lambda ws: len(set(ws) & set(_STOPSET))) >= stop_min,
    })
    out["pass_all"] = out.all(axis=1)
    return out


def gopher_filter(ds, text_col: str, **rule_kwargs):
    """Keep only docs passing every rule. Pure map."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        return df.loc[gopher_rule_flags(df[text_col],
                                        **rule_kwargs)["pass_all"].to_numpy()]

    return ds.map_batches(fn, batch_format="pandas")


def gopher_rules_stats(ds, text_col: str, group_col: str, **rule_kwargs):
    """Per group: n_docs, fail_rN per rule, n_pass_all."""
    from ..state.groupby import group_agg

    fails = [f"fail_r{i}" for i in range(1, 8)]

    def flags(df: pd.DataFrame) -> pd.DataFrame:
        f = gopher_rule_flags(df[text_col], **rule_kwargs)
        out = pd.DataFrame({group_col: df[group_col].to_numpy()})
        for c in fails:
            out[c] = (~f[c[5:]]).astype("int64").to_numpy()
        out["p"] = f["pass_all"].astype("int64").to_numpy()
        return out

    return group_agg(
        ds.map_batches(flags, batch_format="pandas"), [group_col],
        {"n_docs": ("p", "size"), **{c: (c, "sum") for c in fails},
         "n_pass_all": ("p", "sum")})


def gopher_rules_sql(table: str, text_col: str, group_col: str, *,
                     min_words: int = 50, max_words: int = 100_000,
                     stop_min: int = 2) -> str:
    """DuckDB twin of :func:`gopher_rules_stats` — same regexes, same
    thresholds."""
    stops = ", ".join(f"'{w}'" for w in _STOPSET)
    return f"""
        WITH gp AS (
            SELECT {group_col}, coalesce({text_col}, '') AS t FROM {table}
        ), m AS (
            SELECT {group_col},
                   len(regexp_extract_all(t, '{_WORD_RE}')) AS nw,
                   (SELECT coalesce(sum(length(w)), 0) FROM
                        unnest(regexp_extract_all(t, '{_WORD_RE}')) AS u(w))
                       AS total_chars,
                   len(regexp_extract_all(t, chr(10))) + 1 AS nl,
                   len(regexp_extract_all(t, '{_SYMBOL_RE}')) AS nsym,
                   len(regexp_extract_all(t, '(?m)^[\\-\\*•]')) AS nbul,
                   len(regexp_extract_all(t, '(?m)(…|\\.\\.\\.)$')) AS nell,
                   len(list_filter(regexp_extract_all(t, '{_WORD_RE}'),
                       w -> regexp_matches(w, '[a-zA-Z]'))) AS nalpha,
                   len(list_distinct(list_filter(
                       regexp_extract_all(lower(t), '[a-z]+'),
                       w -> w IN ({stops})))) AS nstop
            FROM gp
        ), f AS (
            SELECT {group_col},
                   (nw BETWEEN {min_words} AND {max_words}) AS r1,
                   (total_chars::DOUBLE / greatest(nw, 1) BETWEEN 3.0
                        AND 10.0) AS r2,
                   (nsym::DOUBLE / greatest(nw, 1) <= 0.1) AS r3,
                   (nbul::DOUBLE / nl <= 0.9) AS r4,
                   (nell::DOUBLE / nl <= 0.3) AS r5,
                   (nalpha::DOUBLE / greatest(nw, 1) >= 0.8) AS r6,
                   (nstop >= {stop_min}) AS r7
            FROM m
        )
        SELECT {group_col}, COUNT(*) AS n_docs,
               COUNT(*) FILTER (WHERE NOT r1) AS fail_r1,
               COUNT(*) FILTER (WHERE NOT r2) AS fail_r2,
               COUNT(*) FILTER (WHERE NOT r3) AS fail_r3,
               COUNT(*) FILTER (WHERE NOT r4) AS fail_r4,
               COUNT(*) FILTER (WHERE NOT r5) AS fail_r5,
               COUNT(*) FILTER (WHERE NOT r6) AS fail_r6,
               COUNT(*) FILTER (WHERE NOT r7) AS fail_r7,
               COUNT(*) FILTER (WHERE r1 AND r2 AND r3 AND r4 AND r5
                                AND r6 AND r7) AS n_pass_all
        FROM f GROUP BY 1
    """
