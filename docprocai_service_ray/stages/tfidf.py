"""Per-document TF-IDF top terms (deterministic keyword extraction).

The keyword/tag extraction analog of the reference's topic-word labeling
(fileextractlib/TopicModel.py:101-141 picks representative words per topic
cluster) re-expressed corpus-wide: for every document, the k terms with
the highest tf·idf, idf = ln(n_docs / df).

Plan (two exchanges + one auto-tiered join, nothing driver-held but the
scalar n_docs):

1. tf stream — per batch: vectorized explode + ``groupby(doc, term).size``.
   A document is ONE input row, so its term counts are complete within the
   batch; no exchange.
2. df table — `stages/textstats.token_doc_frequency` (one hash exchange,
   vocab-sized output).
3. idf join — `state/joins.hash_join` on term: rides the broadcast tier
   while the vocab fits 64 MB, switches itself to the partitioned shuffle
   above it (the Heaps'-law vocab of a 10^10-doc corpus does NOT fit).
4. per-doc top-k — one `partition_reduce` on doc_id: sort (score desc,
   term asc), head k. The float score is rank-only and excluded from the
   output, so the table stays integer-exact; ties (equal tf AND df give
   bit-identical scores in any IEEE754 engine) break on the term.

Tokenization is ``[a-z]+`` over ``lower()`` — byte-identical to the
DuckDB oracle (`tfidf_sql`).
"""

from __future__ import annotations

import numpy as np
import pandas as pd


def doc_top_terms(ds, id_col: str, text_col: str, k: int = 3, *,
                  min_df: int = 1):
    """→ (id_col, term, tf, rank): top-k terms per document by tf·idf."""
    from ..state.groupby import partition_reduce
    from ..state.joins import hash_join
    from .textstats import token_doc_frequency

    n_docs = ds.count()

    def tf_partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = df[text_col].fillna("").str.lower().str.findall(r"[a-z]+")
        e = (
            df[[id_col]].assign(term=toks).explode("term")
            .dropna(subset=["term"])
        )
        out = e.groupby([id_col, "term"], as_index=False).size()
        return out.rename(columns={"size": "tf"})

    tf = ds.map_batches(tf_partial, batch_format="pandas")
    df_tbl = token_doc_frequency(ds, id_col, text_col, min_df=min_df)
    df_tbl = df_tbl.map_batches(
        lambda d: d.rename(columns={"token": "term"}), batch_format="pandas"
    )
    joined = hash_join(tf, df_tbl, on="term")

    def score(d: pd.DataFrame) -> pd.DataFrame:
        d = d.copy()
        d["score"] = d["tf"].astype("float64") * np.log(
            float(n_docs) / d["df"].astype("float64")
        )
        return d.drop(columns="df")

    scored = joined.map_batches(score, batch_format="pandas")

    def topk(part: pd.DataFrame) -> pd.DataFrame:
        part = part.sort_values(
            [id_col, "score", "term"], ascending=[True, False, True]
        )
        part["rank"] = part.groupby(id_col).cumcount() + 1
        out = part[part["rank"] <= k]
        return out[[id_col, "term", "tf", "rank"]].astype(
            {"tf": "int64", "rank": "int64"}
        )

    return partition_reduce(scored, [id_col], topk)


def tfidf_sql(table: str, id_col: str, text_col: str, k: int = 3,
              min_df: int = 1) -> str:
    """DuckDB twin, column-name-aligned with doc_top_terms."""
    return f"""
        WITH t AS (
            SELECT {id_col},
                   unnest(regexp_extract_all(lower(coalesce({text_col}, '')),
                          '[a-z]+')) AS term
            FROM {table}
        ),
        tf AS (SELECT {id_col}, term, COUNT(*) AS tf FROM t GROUP BY 1, 2),
        df AS (
            SELECT term, COUNT(DISTINCT {id_col}) AS df FROM t GROUP BY 1
            HAVING COUNT(DISTINCT {id_col}) >= {min_df}
        ),
        n AS (SELECT COUNT(*) AS n_docs FROM {table}),
        s AS (
            SELECT tf.{id_col}, tf.term, tf.tf,
                   ROW_NUMBER() OVER (
                       PARTITION BY tf.{id_col}
                       ORDER BY tf.tf * ln(n.n_docs::DOUBLE / df.df) DESC,
                                tf.term) AS rank
            FROM tf JOIN df USING (term) CROSS JOIN n
        )
        SELECT {id_col}, term, tf, rank FROM s WHERE rank <= {k}
    """
