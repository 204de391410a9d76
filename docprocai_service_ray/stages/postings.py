"""Inverted-index construction: per-token postings lists over a document
corpus — the index-build counterpart of ``textstats.token_doc_frequency``
(which stops at document frequencies). The output (token, df, postings)
is the core artifact behind corpus search, anchor lookup and
lexical-retrieval training-data attribution.

Semantics (shared EXACTLY by the SQL twin): tokens are ``[a-z]+`` over
``lower(text)`` (the token_doc_frequency oracle contract), DISTINCT per
document; a token's postings list is its sorted containing-doc ids,
optionally truncated to the first ``max_postings`` ids (``df`` stays the
full count). Tokens outside ``min_df ≤ df ≤ max_df`` are dropped —
``max_df`` is the stopword ceiling every real index applies (postings
for "the" are both useless and the textbook hot key).

Scale shape: per-doc-distinct (token, doc_id) pairs exchange once keyed
by token, so each token's full postings assemble inside one partition.
Skew is the stopword problem: without a ceiling, one universal token
puts O(n_docs) rows in a single partition. With ``max_df`` set, a
PRE-AGGREGATED (token, count) partial exchange (one row per token per
batch — a universal token costs n_docs/batch_size rows, never n_docs)
finds tokens with df > max_df first; there are at most
total_tokens/max_df of those, a broadcastable list, and they are
filtered OUT of the pair exchange batch-locally (``np.isin`` against the
broadcast) — so the postings exchange has per-token fan-in ≤ max_df BY
CONSTRUCTION. This is the same two-tier hot-key defuse as
``substring.dup_gram_stats``'s ``hot_gram_ceiling``, with drop instead
of reroute because stopword postings are discarded, not counted.

No reference analog — "beyond the reference" op; the nearest reference
shape is the anchor-text index of the link-graph family
(stages/linkgraph.py) specialized to body text.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

_TOKEN_RE = r"[a-z]+"

# per-doc distinct (doc id, token) pairs; doc ids are integers
DOC_TOKENS_SCHEMA = pa.schema([("doc", pa.int64()), ("w", pa.string())])


def _doc_tokens(df: pd.DataFrame, id_col: str, text_col: str,
                stop: np.ndarray | None = None):
    """Per-doc DISTINCT (doc, token) pairs, vectorized, minus the sorted
    ``stop`` tokens. A batch left with no pair gives
    ``DOC_TOKENS_SCHEMA.empty_table()``: Ray cannot size a zero-row
    object column, and exchanges are sized from that estimate."""
    toks = df[text_col].fillna("").str.lower().str.findall(_TOKEN_RE)
    e = (df[[id_col]].assign(w=toks).explode("w").dropna(subset=["w"])
         .drop_duplicates([id_col, "w"]))
    if stop is not None:
        e = e.loc[~np.isin(e["w"].to_numpy(dtype=str), stop)]
    if not len(e):
        return DOC_TOKENS_SCHEMA.empty_table()
    return e.rename(columns={id_col: "doc"})


def build_postings(ds, id_col: str, text_col: str, *, min_df: int = 1,
                   max_df: int | None = None,
                   max_postings: int | None = None):
    """Inverted index over ``ds``: one row per surviving token with
    ``(token, df, postings)`` where ``postings`` is the sorted (and
    optionally ``max_postings``-truncated) list of containing doc ids.
    See module doc for the ``max_df`` stopword ceiling / hot-key defuse.
    """
    import ray

    from ..state.groupby import collect_pandas, group_agg, partition_reduce

    hot_ref = None
    if max_df is not None:
        if max_df < max(min_df, 1):
            raise ValueError(f"max_df ({max_df}) must be >= min_df "
                             f"({min_df})")

        hot = group_agg(
            ds.map_batches(lambda df: _doc_tokens(df, id_col, text_col),
                           batch_format="pandas"),
            ["w"], {"c": ("doc", "size")},
        ).map_batches(
            lambda t: t.filter(pc.greater(t["c"], max_df)).select(["w"]),
            batch_format="pyarrow")
        hot_arr = np.sort(collect_pandas(hot, ["w"])["w"].to_numpy(dtype=object))
        hot_ref = ray.put(hot_arr.astype(str))

    def explode(df: pd.DataFrame):
        stop = ray.get(hot_ref) if hot_ref is not None else None
        return _doc_tokens(df, id_col, text_col, stop)

    def assemble(part: pd.DataFrame) -> pd.DataFrame:
        # token partition ⇒ every (doc, token) pair of a token is here;
        # sort once, then one vectorized groupby builds all lists
        part = part.sort_values(["w", "doc"], kind="stable")
        g = part.groupby("w", as_index=False).agg(
            df=("doc", "size"), postings=("doc", list))
        g = g.loc[g["df"] >= min_df]
        if max_postings is not None:
            g["postings"] = g["postings"].map(lambda p: p[:max_postings])
        g["postings"] = g["postings"].map(
            lambda p: np.asarray(p, dtype="int64"))
        return pd.DataFrame({"token": g["w"], "df": g["df"].astype("int64"),
                             "postings": g["postings"]})

    return partition_reduce(
        ds.map_batches(explode, batch_format="pandas"), ["w"], assemble)


def postings_sql(table: str, id_col: str, text_col: str, min_df: int = 1,
                 max_df: int | None = None,
                 max_postings: int | None = None) -> str:
    """DuckDB twin of :func:`build_postings` (same tokenizer, same
    per-doc DISTINCT, same df window, same sorted/truncated postings —
    list_slice is 1-based inclusive)."""
    postings = f"list_sort(list({id_col}))"
    if max_postings is not None:
        postings = f"list_slice({postings}, 1, {max_postings})"
    max_clause = f" AND COUNT(*) <= {max_df}" if max_df is not None else ""
    return f"""
        WITH toks AS (
            SELECT DISTINCT {id_col}, w
            FROM (SELECT {id_col},
                         unnest(regexp_extract_all(lower(coalesce(
                             {text_col}, '')), '{_TOKEN_RE}')) AS w
                  FROM {table})
        )
        SELECT w AS token, COUNT(*) AS df, {postings} AS postings
        FROM toks GROUP BY w
        HAVING COUNT(*) >= {min_df}{max_clause}
    """
