"""Exact duplicated-span scrubbing — the ExactSubstr dedup of Lee et
al. 2021 ("Deduplicating Training Data Makes Language Models Better"):
every token position covered by a ``span_tokens``-token window that
occurs ≥ ``min_count`` times in the corpus (counting multiplicity,
within- and cross-document, like the reference suffix-array tool) is
REMOVED from the document; text outside duplicated spans survives. The
rewrite companion to stages/substring.dup_gram_stats (which only
measures) and stages/linededup (which needs line structure); this one
needs none.

Token contract: documents split on single spaces (the
stages/substring.py convention) and rebuild space-joined — byte-exact
for space-tokenized corpora, token-normalized otherwise.

Scale shape (the linededup plan, span-generalized):
1. explode pass — per batch, emit ``(gram_hash u64, id, pos)`` for every
   window position (hashes via pd.util.hash_pandas_object; the SQL twin
   compares gram STRINGS, so a collision surfaces as a mismatch);
2. hash-keyed exchange — windows with total count ≥ min_count emit their
   (id, pos) anchors (ALL occurrences scrub, first included — the
   google-research/deduplicate-text-datasets behavior);
3. id-keyed fold — anchor positions pack into one ascending CSV per doc;
4. rebuild — anchors join back on id (auto tier) and one vectorized
   in-batch pass masks [pos, pos+span) unions and rejoins survivors.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..state.groupby import partition_reduce
from ..state.joins import hash_join

_ANCH = "__anchors"


def _gram_rows(df: pd.DataFrame, id_col: str, text_col: str,
               span: int) -> pd.DataFrame:
    ids, poss = [], []
    grams: list[str] = []
    for i, t in zip(df[id_col], df[text_col].fillna("")):
        ws = t.split(" ")
        m = len(ws) - span + 1
        for p in range(max(0, m)):
            grams.append(" ".join(ws[p:p + span]))
            ids.append(i)
            poss.append(p)
    h = (pd.util.hash_pandas_object(pd.Series(grams, dtype="object"),
                                    index=False).to_numpy()
         if grams else np.empty(0, dtype="uint64"))
    return pd.DataFrame({id_col: pd.Series(ids, dtype=df[id_col].dtype),
                         "pos": pd.Series(poss, dtype="int64"), "gh": h})


def dup_span_scrub(ds, id_col: str, text_col: str, *, span_tokens: int = 6,
                   min_count: int = 2):
    """Rewrite ``text_col`` with duplicated spans removed. Returns the
    input columns with ``text_col`` rewritten plus int64 ``n_tokens`` /
    ``n_removed``."""
    span = span_tokens

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        return _gram_rows(df, id_col, text_col, span)

    exploded = ds.map_batches(explode, batch_format="pandas")

    def anchors(part: pd.DataFrame) -> pd.DataFrame:
        nd = part.groupby("gh")["gh"].transform("size")
        return part.loc[nd >= min_count, [id_col, "pos"]]

    anch = partition_reduce(exploded, ["gh"], anchors)

    def per_doc(part: pd.DataFrame) -> pd.DataFrame:
        part = part.sort_values([id_col, "pos"])
        return part.assign(s=part["pos"].astype(str)).groupby(
            id_col, as_index=False).agg(**{_ANCH: ("s", ",".join)})

    anch_lists = partition_reduce(anch, [id_col], per_doc)

    joined = hash_join(ds, anch_lists, on=id_col, how="left")

    def rebuild(df: pd.DataFrame) -> pd.DataFrame:
        df = df.reset_index(drop=True)
        texts, n_tok, n_rm = [], [], []
        for t, a in zip(df[text_col].fillna(""), df[_ANCH]):
            ws = t.split(" ")
            mask = np.zeros(len(ws), dtype=bool)
            if isinstance(a, str) and a:
                for p in a.split(","):
                    p = int(p)
                    mask[p:p + span] = True
            n_tok.append(len(ws))
            n_rm.append(int(mask.sum()))
            texts.append(" ".join(np.asarray(ws, dtype=object)[~mask]))
        out = df.drop(columns=[_ANCH, text_col])
        out[text_col] = texts
        out["n_tokens"] = pd.Series(n_tok, dtype="int64")
        out["n_removed"] = pd.Series(n_rm, dtype="int64")
        return out

    return joined.map_batches(rebuild, batch_format="pandas")


def dup_span_scrub_stats(ds, id_col: str, text_col: str, *,
                         span_tokens: int = 6, min_count: int = 2):
    """Compact certificate: (id, n_tokens, n_removed, fp = md5 of the
    scrubbed text)."""
    from .textstats import fingerprint_md5

    out = dup_span_scrub(ds, id_col, text_col, span_tokens=span_tokens,
                         min_count=min_count)

    def fp(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            id_col: df[id_col], "n_tokens": df["n_tokens"],
            "n_removed": df["n_removed"],
            "fp": fingerprint_md5(df[text_col]),
        })

    return out.map_batches(fp, batch_format="pandas")


def dup_span_scrub_sql(table: str, id_col: str, text_col: str, *,
                       span_tokens: int = 6, min_count: int = 2) -> str:
    """DuckDB twin of :func:`dup_span_scrub_stats` — same single-space
    tokens, same multiplicity rule on gram STRINGS, same coverage
    union."""
    n = span_tokens
    return f"""
        WITH d_w AS (
            SELECT {id_col},
                   string_split(coalesce({text_col}, ''), ' ') AS w
            FROM {table}
        ), g AS (
            SELECT {id_col}, CAST(i AS BIGINT) AS pos1,
                   array_to_string(list_slice(w, CAST(i AS BIGINT),
                                              CAST(i + {n - 1} AS BIGINT)),
                                   ' ') AS g
            FROM d_w, UNNEST(range(1, greatest(len(w) - {n} + 2, 1))) AS t(i)
        ), dup AS (
            SELECT g FROM g GROUP BY g HAVING COUNT(*) >= {min_count}
        ), anchors AS (
            SELECT g.{id_col}, g.pos1 FROM g JOIN dup USING (g)
        ), toks AS (
            SELECT {id_col}, generate_subscripts(w, 1) AS tpos1,
                   unnest(w) AS tok
            FROM d_w
        ), covered AS (
            SELECT DISTINCT t.{id_col}, t.tpos1
            FROM toks t JOIN anchors a ON a.{id_col} = t.{id_col}
             AND t.tpos1 BETWEEN a.pos1 AND a.pos1 + {n - 1}
        ), flagged AS (
            SELECT t.{id_col}, t.tpos1, t.tok,
                   (c.tpos1 IS NOT NULL) AS rm
            FROM toks t LEFT JOIN covered c
              ON c.{id_col} = t.{id_col} AND c.tpos1 = t.tpos1
        )
        SELECT {id_col}, COUNT(*) AS n_tokens,
               COUNT(*) FILTER (WHERE rm) AS n_removed,
               md5(coalesce(string_agg(tok, ' ' ORDER BY tpos1)
                   FILTER (WHERE NOT rm), '')) AS fp
        FROM flagged GROUP BY 1
    """
