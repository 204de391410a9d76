"""PII detection and scrubbing: the redaction pass every released
training corpus runs (emails, IPv4 addresses, phone numbers — the
Dolma/BigScience-style rule set; Soldaini et al. 2024 §2.3 scrub exactly
these three classes with regexes before release).

Patterns are deliberately RE2-compatible (character classes, bounded
quantifiers, ``\\b``; no lookaround or backreferences) so the DuckDB
twin runs the SAME pattern strings through ``regexp_extract_all`` —
count semantics (non-overlapping, leftmost) agree between Python ``re``
and RE2 on this subset.

Scale shape: pure map over text batches (regexes compiled once per
worker process at module import) followed by a group-keyed exchange of
fixed-width int partials — O(groups × partitions) rows, the
``lang_mix_weights`` shape. ``pii_scrub`` is map-only: one pass, no
exchange at all.

No reference analog — "beyond the reference" training-data op; nearest
reference shape is the text-normalizer batch fn (SURVEY §2 M6).
"""

from __future__ import annotations

import re

import pandas as pd

# Ordered: scrub applies email before ipv4/phone so a replaced token
# cannot create a new match for a later pattern.
PII_PATTERNS: dict[str, str] = {
    "email": r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}",
    "ipv4": r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b",
    "phone": r"\+\d{1,3}[ -]\d{3}[ -]\d{3,4}[ -]\d{3,4}",
}

_COMPILED = {k: re.compile(v) for k, v in PII_PATTERNS.items()}


def pii_stats(docs_ds, text_col: str, group_col: str, *,
              patterns: dict[str, str] = PII_PATTERNS):
    """Per-``group_col`` PII counts: ``n_docs``, ``pii_docs`` (≥1 hit of
    any class) and ``<class>_hits`` totals per pattern class."""
    from ..state.groupby import partition_reduce

    names = list(patterns)
    compiled = {k: re.compile(v) for k, v in patterns.items()}

    def score(df: pd.DataFrame) -> pd.DataFrame:
        t = df[text_col].fillna("")
        out = pd.DataFrame({group_col: df[group_col]})
        any_hit = None
        for k in names:
            c = t.str.count(compiled[k]).astype("int64")
            out[f"{k}_hits"] = c
            any_hit = c > 0 if any_hit is None else (any_hit | (c > 0))
        out["pii"] = any_hit.astype("int64")
        agg = {f"{k}_hits": (f"{k}_hits", "sum") for k in names}
        return out.groupby(group_col, as_index=False).agg(
            nd=(group_col, "size"), pd_=("pii", "sum"), **agg)

    def finalize(part: pd.DataFrame) -> pd.DataFrame:
        agg = {f"{k}_hits": (f"{k}_hits", "sum") for k in names}
        g = part.groupby(group_col, as_index=False).agg(
            nd=("nd", "sum"), pd_=("pd_", "sum"), **agg)
        out = pd.DataFrame({group_col: g[group_col],
                            "n_docs": g["nd"].astype("int64"),
                            "pii_docs": g["pd_"].astype("int64")})
        for k in names:
            out[f"{k}_hits"] = g[f"{k}_hits"].astype("int64")
        return out

    partials = docs_ds.map_batches(score, batch_format="pandas")
    return partition_reduce(partials, [group_col], finalize)


def pii_scrub(docs_ds, text_col: str, *, out_col: str | None = None,
              patterns: dict[str, str] = PII_PATTERNS):
    """Map-only scrub: replace every match of each class with
    ``[<CLASS>]`` (e.g. ``[EMAIL]``), classes applied in dict order.
    Adds ``out_col`` (default: replaces ``text_col`` in place)."""
    dst = out_col or text_col
    compiled = {k: re.compile(v) for k, v in patterns.items()}

    def scrub(df: pd.DataFrame) -> pd.DataFrame:
        t = df[text_col].fillna("")
        for k, rx in compiled.items():
            t = t.str.replace(rx, f"[{k.upper()}]", regex=True)
        df = df.copy()
        df[dst] = t
        return df

    return docs_ds.map_batches(scrub, batch_format="pandas")


def pii_stats_sql(docs_sel: str, text_col: str, group_col: str,
                  patterns: dict[str, str] = PII_PATTERNS) -> str:
    """DuckDB twin of :func:`pii_stats` — the SAME pattern strings via
    RE2 ``regexp_extract_all``."""
    hit_cols = ",\n               ".join(
        f"CAST(SUM(len(regexp_extract_all({text_col}, '{p}'))) AS BIGINT) "
        f"AS {k}_hits" for k, p in patterns.items())
    any_pred = " OR ".join(
        f"regexp_matches({text_col}, '{p}')" for p in patterns.values())
    return f"""
        SELECT {group_col},
               COUNT(*) AS n_docs,
               CAST(SUM(CASE WHEN {any_pred} THEN 1 ELSE 0 END) AS BIGINT)
                   AS pii_docs,
               {hit_cols}
        FROM {docs_sel}
        GROUP BY {group_col}
    """
