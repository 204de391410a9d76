"""Corpus-level line deduplication — the C4 / CCNet "discard repeated
lines, keep the first occurrence" pass (Raffel et al. 2020 §2.2 dedup a
three-sentence-span variant; CCNet dedups paragraphs the same way):
every line that occurs anywhere else in the corpus survives only at its
lexicographically-first (id, position) site; documents are rebuilt from
their surviving lines. Unlike doc-level exact dedup (stages/dedup.py)
this REWRITES documents — it strips the shared navigation / cookie /
footer boilerplate that survives doc-level dedup because the documents
wrapping it differ.

Scale shape (no driver state, text never crosses an exchange):
1. explode pass — per batch, split on ``\\n`` and emit
   ``(line_hash u64, id, idx)`` for PARTICIPATING lines
   (``len >= min_len``); shorter lines are always kept and never
   exchange. Hashes are ``pd.util.hash_pandas_object`` (the same
   cross-process-deterministic u64 the other hash exchanges key on); a
   collision would merge two distinct lines and surface in the SQL
   twin — which compares line STRINGS — as a mismatch, not hide
   (the stages/decontam.py argument).
2. hash-keyed exchange — winner per line hash = min (id, idx); emits one
   ``(id, idx)`` pair per DISTINCT line in the corpus.
3. id-keyed exchange — winner positions fold into one compact
   ascending-index CSV string per doc (ints, not text).
4. rebuild — winner lists join back to the corpus on id
   (state/joins.hash_join auto tier: broadcast under the gate, bucketed
   beyond), then one vectorized in-batch explode→merge→filter→join pass
   rebuilds each doc (a doc is ONE row, so its lines never leave the
   batch).

Reference anchor: the reference service has no corpus-wide rewrite pass
(its documents are independent uploads); this op exists for the
training-data pipeline surface, same family as stages/textstats.py
boilerplate_stats (detection) — this is the removal.
"""

from __future__ import annotations

import pandas as pd

from ..state.groupby import partition_reduce
from ..state.joins import hash_join

_WIN_COL = "__win_idx"


def _explode_lines(df: pd.DataFrame, id_col: str, text_col: str,
                   min_len: int) -> pd.DataFrame:
    df = df.reset_index(drop=True)
    lines = df[text_col].fillna("").str.split("\n")
    e = df[[id_col]].assign(line=lines).explode("line")
    e["idx"] = e.groupby(level=0).cumcount().astype("int64")
    e = e[e["line"].str.len() >= min_len]
    h = pd.util.hash_pandas_object(e["line"], index=False).to_numpy()
    return pd.DataFrame({id_col: e[id_col].to_numpy(), "idx": e["idx"].to_numpy(),
                         "h": h})


def line_dedup(ds, id_col: str, text_col: str, *, min_len: int = 1):
    """Rewrite ``text_col`` with corpus-duplicate lines removed (first
    occurrence by (id, position) wins; lines shorter than ``min_len``
    always survive — the default 1 keeps empty lines as structure).
    Returns the input columns with ``text_col`` rewritten plus int64
    ``n_lines`` / ``n_kept`` diagnostics."""

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        return _explode_lines(df, id_col, text_col, min_len)

    exploded = ds.map_batches(explode, batch_format="pandas")

    def winners(part: pd.DataFrame) -> pd.DataFrame:
        # winner per hash = lexicographic min (id, idx); rows for one
        # hash are co-located by the exchange
        part = part.sort_values(["h", id_col, "idx"], kind="stable")
        return part.drop_duplicates("h")[[id_col, "idx"]]

    won = partition_reduce(exploded, ["h"], winners)

    def per_doc(part: pd.DataFrame) -> pd.DataFrame:
        part = part.sort_values([id_col, "idx"])
        return part.assign(s=part["idx"].astype(str)).groupby(
            id_col, as_index=False).agg(**{_WIN_COL: ("s", ",".join)})

    winlists = partition_reduce(won, [id_col], per_doc)

    joined = hash_join(ds, winlists, on=id_col, how="left")

    def rebuild(df: pd.DataFrame) -> pd.DataFrame:
        df = df.reset_index(drop=True)
        lines = df[text_col].fillna("").str.split("\n")
        e = df[[id_col]].assign(line=lines).explode("line")
        e["idx"] = e.groupby(level=0).cumcount().astype("int64")
        w = df[[id_col, _WIN_COL]].copy()
        w["idx"] = w[_WIN_COL].fillna("").str.split(",")
        we = w.explode("idx")
        we = we[we["idx"] != ""]
        we = pd.DataFrame({id_col: we[id_col], "idx": we["idx"].astype("int64"),
                           "__w": True})
        e = e.merge(we, on=[id_col, "idx"], how="left")
        e["keep"] = (e["line"].str.len() < min_len) | e["__w"].notna()
        kept = e[e["keep"]]
        txt = kept.groupby(id_col, sort=False)["line"].agg("\n".join)
        agg = e.groupby(id_col, sort=False).agg(n_lines=("keep", "size"),
                                                n_kept=("keep", "sum"))
        out = df.drop(columns=[_WIN_COL, text_col])
        by_id = agg.reindex(df[id_col])
        out[text_col] = txt.reindex(df[id_col]).fillna("").to_numpy()
        out["n_lines"] = by_id["n_lines"].astype("int64").to_numpy()
        out["n_kept"] = by_id["n_kept"].astype("int64").to_numpy()
        return out

    return joined.map_batches(rebuild, batch_format="pandas")


def line_dedup_stats(ds, id_col: str, text_col: str, *, min_len: int = 1):
    """Compact per-doc certificate of :func:`line_dedup`: (id, n_lines,
    n_kept, fp) where ``fp`` = md5 of the REBUILT text — value-exact
    against the SQL twin without shipping rewritten corpora around."""
    from .textstats import fingerprint_md5

    out = line_dedup(ds, id_col, text_col, min_len=min_len)

    def fp(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            id_col: df[id_col],
            "n_lines": df["n_lines"],
            "n_kept": df["n_kept"],
            "fp": fingerprint_md5(df[text_col]),
        })

    return out.map_batches(fp, batch_format="pandas")


def line_dedup_sql(table: str, id_col: str, text_col: str, *,
                   min_len: int = 1) -> str:
    """DuckDB twin of :func:`line_dedup_stats` — same split, same
    first-(id, idx)-wins rule on line STRINGS (so a u64 collision on the
    engine side would mismatch here, not hide), same md5 certificate."""
    return f"""
        WITH parts AS (
            SELECT {id_col},
                   string_split(coalesce({text_col}, ''), chr(10)) AS ls
            FROM {table}
        ), lines AS (
            SELECT {id_col}, generate_subscripts(ls, 1) - 1 AS idx,
                   unnest(ls) AS line
            FROM parts
        ), win AS (
            SELECT {id_col}, idx,
                   ROW_NUMBER() OVER (PARTITION BY line
                                      ORDER BY {id_col}, idx) AS rn
            FROM lines WHERE length(line) >= {min_len}
        ), flagged AS (
            SELECT l.{id_col}, l.idx, l.line,
                   (length(l.line) < {min_len} OR w.rn = 1) AS keepflag
            FROM lines l
            LEFT JOIN win w ON w.{id_col} = l.{id_col} AND w.idx = l.idx
        )
        SELECT {id_col},
               COUNT(*) AS n_lines,
               COUNT(*) FILTER (WHERE keepflag) AS n_kept,
               md5(coalesce(string_agg(line, chr(10) ORDER BY idx)
                   FILTER (WHERE keepflag), '')) AS fp
        FROM flagged GROUP BY 1
    """
