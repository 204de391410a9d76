"""Token co-occurrence PMI: document-level pointwise mutual information
between token pairs — the association-score table behind word2vec-style
embedding pretraining, collocation mining and KG relation discovery
(Church & Hanks 1990, "Word Association Norms, Mutual Information, and
Lexicography").

Semantics (shared EXACTLY by the SQL twin): tokens are ``[a-z]+`` over
``lower(text)``, DISTINCT per document; a pair (w1 < w2) co-occurs when
one document contains both; ``pmi = log2(pair_n · N / (df(w1) · df(w2)))``
with ``N`` = TOTAL rows of the input (a metadata-only count — tokenless
docs deflate all probabilities uniformly, which cancels in pair
rankings). Pairs below ``min_pair_count`` are dropped.

Scale shape, in order:
1. (optional, ``max_df``) a PRE-AGGREGATED (token, count) partial
   exchange finds stopwords (df > max_df) — broadcastable by the same
   total/max_df argument as ``postings.build_postings`` — which are
   excluded from pairing batch-locally. This is simultaneously the
   hot-key defuse (a universal pair costs one row per containing doc —
   O(n_docs) rows in one partition without the ceiling) and a quadratic
   work cut (pairs per doc shrink with the square of tokens dropped).
   PMI of stopword pairs is noise anyway — this is the knob real
   collocation pipelines always set.
2. one pair-generation pass: per-doc distinct sorted tokens → upper-
   triangle pairs, pre-counted per batch; a pair-keyed exchange merges
   counts (fan-in ≤ max_df when set).
3. the vocabulary df table joins back onto the surviving pair table via
   ``state.joins.hash_join`` (auto broadcast/shuffle tier) — twice, once
   per pair side; PMI math is a final vectorized map.

The df table used in the PMI denominator is the UNFILTERED document
frequency (computed before any ceiling), so setting ``max_df`` changes
which pairs are REPORTED, never their scores.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .postings import _TOKEN_RE, _doc_tokens

_PAIRS_SCHEMA = pa.schema([("w1", pa.string()), ("w2", pa.string())])


def _doc_token_lists(texts: pd.Series) -> pd.Series:
    return texts.fillna("").str.lower().str.findall(_TOKEN_RE)


def cooccurrence_pmi(ds, id_col: str, text_col: str, *,
                     min_pair_count: int = 2, max_df: int | None = None,
                     round_to: int = 6):
    """Per-pair (w1, w2, pair_n, pmi) table over ``ds`` — see module doc.
    Returns a Dataset with w1 < w2 lexicographically."""
    import ray

    from ..state.groupby import collect_pandas, group_agg
    from ..state.joins import hash_join

    n_total = ds.count()  # metadata-only

    df_table = group_agg(
        ds.map_batches(lambda df: _doc_tokens(df, id_col, text_col),
                       batch_format="pandas"),
        ["w"], {"dfc": ("doc", "size")})

    hot_ref = None
    if max_df is not None:
        if max_df < 1:
            raise ValueError(f"max_df must be >= 1, got {max_df}")
        hot = df_table.map_batches(
            lambda t: t.filter(pc.greater(t["dfc"], max_df)).select(["w"]),
            batch_format="pyarrow")
        hot_arr = np.sort(
            collect_pandas(hot, ["w"])["w"].to_numpy(dtype=str))
        hot_ref = ray.put(hot_arr)

    def doc_pairs(df: pd.DataFrame) -> pd.DataFrame:
        stop = ray.get(hot_ref) if hot_ref is not None else None
        w1s, w2s = [], []
        for tokens in _doc_token_lists(df[text_col]):
            uniq = sorted(set(tokens))
            if stop is not None and len(uniq):
                arr = np.asarray(uniq, dtype=str)
                uniq = arr[~np.isin(arr, stop)].tolist()
            m = len(uniq)
            if m < 2:
                continue
            i, j = np.triu_indices(m, k=1)
            arr = np.asarray(uniq, dtype=object)
            w1s.append(arr[i])
            w2s.append(arr[j])
        if not w1s:
            return _PAIRS_SCHEMA.empty_table()
        return pd.DataFrame({"w1": np.concatenate(w1s),
                             "w2": np.concatenate(w2s)})

    pairs = group_agg(
        ds.map_batches(doc_pairs, batch_format="pandas"), ["w1", "w2"],
        {"pair_n": ("w1", "size")},
        finish=lambda g: g[g["pair_n"] >= min_pair_count])

    j1 = hash_join(
        pairs,
        df_table.map_batches(
            lambda d: d.rename(columns={"w": "w1", "dfc": "df1"}),
            batch_format="pandas"),
        "w1")
    j2 = hash_join(
        j1,
        df_table.map_batches(
            lambda d: d.rename(columns={"w": "w2", "dfc": "df2"}),
            batch_format="pandas"),
        "w2")

    def score(df: pd.DataFrame) -> pd.DataFrame:
        ratio = (df["pair_n"].to_numpy(dtype="float64") * float(n_total)
                 / (df["df1"].to_numpy(dtype="float64")
                    * df["df2"].to_numpy(dtype="float64")))
        return pd.DataFrame({
            "w1": df["w1"], "w2": df["w2"],
            "pair_n": df["pair_n"].astype("int64"),
            "pmi": np.round(np.log2(ratio), round_to),
        })

    return j2.map_batches(score, batch_format="pandas")


def cooccurrence_pmi_sql(table: str, id_col: str, text_col: str,
                         min_pair_count: int = 2,
                         max_df: int | None = None,
                         round_to: int = 6) -> str:
    """DuckDB twin of :func:`cooccurrence_pmi` (same tokenizer, same
    w1 < w2 pairing, same N = COUNT(*), same unfiltered-df denominator)."""
    stop_clause = (
        f"JOIN df ON toks.w = df.w AND df.dfc <= {max_df}"
        if max_df is not None else "")
    return f"""
        WITH toks AS (
            SELECT DISTINCT {id_col}, w
            FROM (SELECT {id_col},
                         unnest(regexp_extract_all(lower(coalesce(
                             {text_col}, '')), '{_TOKEN_RE}')) AS w
                  FROM {table})
        ),
        df AS (SELECT w, COUNT(*) AS dfc FROM toks GROUP BY 1),
        kept AS (SELECT toks.{id_col}, toks.w FROM toks {stop_clause}),
        pairs AS (
            SELECT a.w AS w1, b.w AS w2, COUNT(*) AS pair_n
            FROM kept a JOIN kept b
              ON a.{id_col} = b.{id_col} AND a.w < b.w
            GROUP BY 1, 2
            HAVING COUNT(*) >= {min_pair_count}
        ),
        n AS (SELECT COUNT(*) AS nd FROM {table})
        SELECT w1, w2, pair_n,
               ROUND(log2(CAST(pair_n AS DOUBLE) * nd
                          / (CAST(d1.dfc AS DOUBLE) * d2.dfc)),
                     {round_to}) AS pmi
        FROM pairs
        JOIN df d1 ON pairs.w1 = d1.w
        JOIN df d2 ON pairs.w2 = d2.w
        CROSS JOIN n
    """
