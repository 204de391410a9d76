"""Flesch reading-ease per source — the classic readability signal
(Flesch 1948; Kincaid et al. 1975), used by FineWeb-Edu-style curation
to stratify corpora by audience level:

    206.835 − 1.015 · (words / sentences) − 84.6 · (syllables / words)

with the standard crawl-scale approximations, shared EXACTLY by the SQL
twin: words = ``[A-Za-z]+`` runs, sentences = ``[.!?]+`` runs (floored
at 1 per doc), syllables = ``[aeiouyAEIOUY]``-group runs (the vowel-
cluster heuristic). Docs with zero words are excluded.

Scale shape: pure map (three compiled-regex counts per doc) → one
group-keyed exchange of fixed-width partials. Text never ships.

No reference analog — "beyond the reference" training-data op; nearest
reference shape is the quality heuristics family (SURVEY §2.7 scalar
fns, stages/textstats.quality_score).
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd

_WORD_RE = re.compile(r"[A-Za-z]+")
_SENT_RE = re.compile(r"[.!?]+")
_SYL_RE = re.compile(r"[aeiouyAEIOUY]+")

_WORD_SQL = "[A-Za-z]+"
_SENT_SQL = "[.!?]+"
_SYL_SQL = "[aeiouyAEIOUY]+"


def flesch_by_group(ds, text_col: str, group_col: str, *,
                    round_to: int = 4):
    """Per-group (n_docs, avg_words, avg_flesch): doc-level Flesch
    reading ease averaged per group (``round_to`` dp, matching the SQL
    twin's ROUND)."""
    from ..state.groupby import group_agg

    def per_doc(df: pd.DataFrame) -> pd.DataFrame:
        t = df[text_col].fillna("")
        w = t.str.count(_WORD_RE).to_numpy(dtype=np.float64)
        s = np.maximum(t.str.count(_SENT_RE).to_numpy(dtype=np.float64),
                       1.0)
        syl = t.str.count(_SYL_RE).to_numpy(dtype=np.float64)
        keep = w > 0
        fl = 206.835 - 1.015 * (w[keep] / s[keep]) \
            - 84.6 * (syl[keep] / w[keep])
        return pd.DataFrame({"g": df[group_col].to_numpy()[keep],
                             "w": w[keep], "fl": fl})

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            group_col: g["g"],
            "n_docs": g["n"],
            "avg_words": (g["w"] / g["n"]).round(round_to),
            "avg_flesch": (g["fl"] / g["n"]).round(round_to),
        })

    return group_agg(
        ds.map_batches(per_doc, batch_format="pandas"), ["g"],
        {"n": ("w", "size"), "w": ("w", "sum"), "fl": ("fl", "sum")},
        finish=finish)


def flesch_sql(table: str, text_col: str, group_col: str, *,
               round_to: int = 4) -> str:
    """DuckDB twin of :func:`flesch_by_group` — identical regexes and
    operation order in the score expression."""
    return f"""
        WITH per_doc AS (
            SELECT {group_col},
                   CAST(length(regexp_extract_all(coalesce({text_col},
                        ''), '{_WORD_SQL}')) AS DOUBLE) AS w,
                   greatest(CAST(length(regexp_extract_all(
                        coalesce({text_col}, ''), '{_SENT_SQL}'))
                        AS DOUBLE), 1.0) AS s,
                   CAST(length(regexp_extract_all(coalesce({text_col},
                        ''), '{_SYL_SQL}')) AS DOUBLE) AS syl
            FROM {table}
        )
        SELECT {group_col},
               CAST(COUNT(*) AS BIGINT) AS n_docs,
               ROUND(AVG(w), {round_to}) AS avg_words,
               ROUND(AVG(206.835 - 1.015 * (w / s) - 84.6 * (syl / w)),
                     {round_to}) AS avg_flesch
        FROM per_doc WHERE w > 0 GROUP BY 1
    """
