"""BM25 lexical top-k search (Robertson/Spärck Jones probabilistic
relevance; the Okapi BM25 formula) — the lexical companion to the
engine's semantic search (pipelines/queries.semantic_search scores
stored embeddings; this scores stored text), and the consumer the
postings build (stages/postings) exists for.

    score(d) = Σ_t idf(t) · tf·(k1+1) / (tf + k1·(1 − b + b·len/avgdl))
    idf(t)   = ln((N − df + 0.5) / (df + 0.5) + 1)

Scale shape — the query-term set is TINY (it rides every closure), so
nothing corpus-sized ever concentrates:
1. one tokenizing pass emits (a) one scalar-partial row per batch
   (n_docs, Σlen over docs with ≥1 token — the avgdl inputs) and is
   reused for (b) the MATCHING-DOC rows (id, term, tf, len), a
   candidate-set-sized table (BM25 over stopword-query terms is
   pathological by definition — min_idf guards are the caller's policy);
2. df per term: per-batch (term, partial-count) rows fold on the driver
   (≤ |terms| × n_blocks tiny rows);
3. scoring: pure map over the candidate rows (idf/avgdl constants in the
   closure) → id-keyed partial-sum exchange → per-block partial top-k →
   global sort+limit over ≤ blocks·k rows (the brute_force_topk shape).

Ranking compares ROUNDED scores (6dp) with an id ASC tie-break on both
sides, so the DuckDB twin (same formula, same rounding) is value-exact.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

_TOKEN_RE = r"[a-z]+"


def bm25_topk(ds, id_col: str, text_col: str, query_terms: list[str], *,
              k: int = 10, k1: float = 1.2, b: float = 0.75,
              round_to: int = 6):
    """Top-k (id, score) rows for a bag-of-words query."""
    terms = sorted(set(t.lower() for t in query_terms))

    def _pass(df: pd.DataFrame) -> pd.DataFrame:
        df = df.reset_index(drop=True)
        toks = df[text_col].fillna("").str.lower().str.findall(_TOKEN_RE)
        e = df[[id_col]].assign(w=toks).explode("w").dropna(subset=["w"])
        lens = e.groupby(level=0).size()  # doc row-index → token count
        m = e[e["w"].isin(terms)]
        if not len(m):
            return m.assign(tf=0, len=0)
        g = (m.groupby([m.index, "w"]).size().rename("tf").reset_index()
             .rename(columns={"level_0": "__row"}))
        g[id_col] = df[id_col].reindex(g["__row"]).to_numpy()
        g["len"] = lens.reindex(g["__row"]).to_numpy()
        return g[[id_col, "w", "tf", "len"]].astype({"tf": "int64",
                                                     "len": "int64"})

    cand = ds.map_batches(_pass, batch_format="pandas").materialize()

    def scalar_partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = df[text_col].fillna("").str.lower().str.findall(_TOKEN_RE)
        n = toks.str.len()
        nz = n[n > 0]
        return pd.DataFrame({"n": [int(len(nz))], "slen": [int(nz.sum())]})

    sp = ds.map_batches(scalar_partial, batch_format="pandas").to_pandas()
    n_docs = int(sp["n"].sum())
    avgdl = float(sp["slen"].sum()) / max(1, n_docs)

    def df_partial(d: pd.DataFrame) -> pd.DataFrame:
        return d.groupby("w", as_index=False).agg(c=(id_col, "size"))

    dfp = cand.map_batches(df_partial, batch_format="pandas").to_pandas()
    df_map = (dfp.groupby("w")["c"].sum().to_dict() if len(dfp) else {})

    idf = {t: float(np.log((n_docs - df_map.get(t, 0) + 0.5)
                           / (df_map.get(t, 0) + 0.5) + 1.0))
           for t in terms}

    def contrib(d: pd.DataFrame) -> pd.DataFrame:
        w_idf = d["w"].map(idf).to_numpy()
        tf = d["tf"].to_numpy(dtype=np.float64)
        ln = d["len"].to_numpy(dtype=np.float64)
        s = w_idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * ln / avgdl))
        return pd.DataFrame({id_col: d[id_col], "s": s}).groupby(
            id_col, as_index=False).sum()

    from ..state.groupby import partition_reduce

    def per_doc(part: pd.DataFrame) -> pd.DataFrame:
        g = part.groupby(id_col, as_index=False).agg(s=("s", "sum"))
        g["score"] = g["s"].round(round_to)
        g = g.sort_values(["score", id_col], ascending=[False, True],
                          kind="stable").head(k)
        return g[[id_col, "score"]]

    scored = partition_reduce(
        cand.map_batches(contrib, batch_format="pandas"),
        [id_col], per_doc)
    return scored.sort(["score", id_col], descending=[True, False]).limit(k)


def bm25_sql(table: str, id_col: str, text_col: str,
             query_terms: list[str], *, k: int = 10, k1: float = 1.2,
             b: float = 0.75, round_to: int = 6) -> str:
    """DuckDB twin of :func:`bm25_topk` — same tokenizer, same formula,
    same rounded-score ranking."""
    terms = sorted(set(t.lower() for t in query_terms))
    in_list = ", ".join(f"'{t}'" for t in terms)
    return f"""
        WITH toks AS (
            SELECT {id_col}, unnest(regexp_extract_all(
                lower(coalesce({text_col}, '')), '{_TOKEN_RE}')) AS w
            FROM {table}
        ), lens AS (
            SELECT {id_col}, COUNT(*) AS len FROM toks GROUP BY 1
        ), stats AS (
            SELECT COUNT(*) AS n, SUM(len) AS slen FROM lens
        ), tf AS (
            SELECT {id_col}, w, COUNT(*) AS tf FROM toks
            WHERE w IN ({in_list}) GROUP BY 1, 2
        ), dfc AS (
            SELECT w, COUNT(*) AS df FROM tf GROUP BY 1
        ), scored AS (
            SELECT tf.{id_col},
                   ROUND(SUM(
                       ln((stats.n - dfc.df + 0.5) / (dfc.df + 0.5) + 1)
                       * tf.tf * ({k1} + 1)
                       / (tf.tf + {k1} * (1 - {b} + {b} * lens.len
                          / (CAST(stats.slen AS DOUBLE) / stats.n)))
                   ), {round_to}) AS score
            FROM tf
            JOIN dfc USING (w) JOIN lens USING ({id_col}), stats
            GROUP BY tf.{id_col}, stats.n, stats.slen
        )
        SELECT {id_col}, score FROM scored
        ORDER BY score DESC, {id_col} LIMIT {k}
    """
