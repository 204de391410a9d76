"""Sequence packing for LLM pretraining: concatenate documents in id
order and chunk the token stream into fixed-budget sequences (GPT-style
concat-and-chunk), reporting each document's ``[start_seq, end_seq]``
span — the layout a trainer needs to shard a corpus into equal-length
examples without padding waste.

The core is a GLOBAL PREFIX SUM, the one aggregate Ray Data has no
built-in for. Scale shape: a range-bucket two-phase scan —
1. one narrow pass counts tokens per doc and sums them per id-range
   bucket (``num_buckets`` rows to the driver — bytes, not data),
2. exclusive bucket offsets broadcast back, and a bucket-keyed exchange
   does the within-bucket cumsum.
Only ``(id, n_tokens)`` int64 pairs ever move; text never re-shuffles
after the count pass. All arithmetic is integer, so the distributed
result is BIT-identical to a single-threaded cumsum at any parallelism.
No reference analog — this is a "beyond the reference" training-data op
(SURVEY.md §2.7 scalar-fn family is the nearest shape).
"""

from __future__ import annotations

import pandas as pd
import ray


def pack_spans(ds, id_col: str, text_col: str, budget: int, *,
               num_buckets: int = 64, id_max: int | None = None):
    """Per-doc packed-sequence spans: ``start_seq = floor(prefix/budget)``,
    ``end_seq = floor((prefix + n_tokens - 1)/budget)`` over the corpus
    concatenated in ascending ``id_col`` order. Zero-token docs occupy no
    tokens and are dropped (mirrors the SQL twin's ``WHERE n_tokens > 0``).

    ``id_max`` (the id-domain upper bound) avoids an extra aggregate pass
    when the caller knows it; ids must be UNIQUE non-negative integers
    (a duplicated id would make SQL's RANGE-framed window cumsum diverge
    from the rows-wise cumsum here — and a packing order with ties is
    meaningless anyway). At 10^10
    docs raise ``num_buckets`` so each bucket's (id, count) pairs fit a
    worker (16 bytes/doc ⇒ ~2.5 GB/bucket at 10^10 docs, 64 buckets).
    """
    from ..state.groupby import collect_pandas, partition_reduce
    from .textstats import bpe_ish_token_counts

    if id_max is None:
        id_max = ds.max(id_col)
    if id_max is None:  # empty dataset
        return ds.map_batches(
            lambda df: pd.DataFrame({
                id_col: pd.Series(dtype="int64"),
                "n_tokens": pd.Series(dtype="int64"),
                "start_seq": pd.Series(dtype="int64"),
                "end_seq": pd.Series(dtype="int64"),
            }), batch_format="pandas")
    span = int(id_max) + 1

    def count(df: pd.DataFrame) -> pd.DataFrame:
        ids = df[id_col].astype("int64")
        return pd.DataFrame({
            id_col: ids,
            "b": (ids * num_buckets // span).astype("int64"),
            "n": bpe_ish_token_counts(df[text_col]),
        })

    counted = ds.map_batches(count, batch_format="pandas")

    # phase 1: per-bucket token totals → exclusive prefix offsets (tiny)
    partials = counted.map_batches(
        lambda df: df.groupby("b", as_index=False).agg(t=("n", "sum")),
        batch_format="pandas",
    )
    totals = collect_pandas(partials, ["b", "t"])
    totals = (totals.groupby("b", as_index=False)["t"].sum()
              .sort_values("b").reset_index(drop=True))
    offsets = dict(zip(
        totals["b"].astype("int64"),
        (totals["t"].cumsum() - totals["t"]).astype("int64"),
    ))
    off_ref = ray.put(offsets)

    # phase 2: within-bucket integer cumsum + broadcast offset
    def within(part: pd.DataFrame) -> pd.DataFrame:
        offs = ray.get(off_ref)
        out = []
        for b, g in part.groupby("b", sort=False):
            g = g.sort_values(id_col)
            cum = g["n"].cumsum().astype("int64") + int(offs[int(b)])
            keep = (g["n"] > 0).to_numpy()
            out.append(pd.DataFrame({
                id_col: g[id_col].to_numpy()[keep],
                "n_tokens": g["n"].to_numpy()[keep].astype("int64"),
                "start_seq": ((cum - g["n"]) // budget).to_numpy()[keep],
                "end_seq": ((cum - 1) // budget).to_numpy()[keep],
            }))
        return pd.concat(out, ignore_index=True)

    return partition_reduce(counted, ["b"], within)


def pack_sql(table: str, id_col: str, text_col: str, budget: int) -> str:
    """DuckDB twin of :func:`pack_spans` — same BPE-ish pre-tokenizer
    regex, same integer floor arithmetic, window cumsum over id order."""
    return f"""
        WITH t AS (
            SELECT {id_col},
                   len(regexp_extract_all(coalesce({text_col}, ''),
                       '[A-Za-z]+|\\d+|[^\\sA-Za-z\\d]')) AS n_tokens
            FROM {table}
        ),
        c AS (
            SELECT {id_col}, n_tokens,
                   SUM(n_tokens) OVER (ORDER BY {id_col}) AS cum
            FROM t
        )
        SELECT {id_col}, CAST(n_tokens AS BIGINT) AS n_tokens,
               CAST((cum - n_tokens) // {budget} AS BIGINT) AS start_seq,
               CAST((cum - 1) // {budget} AS BIGINT) AS end_seq
        FROM c WHERE n_tokens > 0
    """
