"""Document chunking — the embedding/RAG preparation pass (and the
reference's segment shape: its VideoProcessor/SentenceSplitter cut
media/documents into retrieval units, `fileextractlib` segment family):
split each document into fixed-size token windows with overlap (stride <
chunk) so retrieval never loses context at a boundary.

Pure map, zero exchange: one doc = one row, its chunks are emitted
in-batch with deterministic (id, chunk_id) keys and token-offset spans —
chunk text is re-derivable from the span, so downstream stages can carry
(id, start, end) instead of duplicated text (the segment-table design
`pipelines/kg.py` uses for sentences). ``emit_text=True`` materializes
the chunk text for direct embedding feeds.

Window rule (shared verbatim with the SQL twin): starts at 0, stride
apart; the LAST window is the first one whose end reaches the token
count (shorter than chunk_tokens allowed); empty/None docs emit no
chunk.
"""

from __future__ import annotations

import pandas as pd

_TOKEN_RE = r"\S+"  # whitespace tokens — chunking must not drop bytes


def chunk_spans(ds, id_col: str, text_col: str, *, chunk_tokens: int = 128,
                stride: int = 96, emit_text: bool = False):
    """(id, chunk_id, tok_start, tok_end, n_tokens[, text]) — one row per
    window. ``stride`` must be in (0, chunk_tokens]."""
    if not 0 < stride <= chunk_tokens:
        raise ValueError(f"stride {stride} must be in (0, {chunk_tokens}]")

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        ids, cids, starts, ends, texts = [], [], [], [], []
        toks = df[text_col].fillna("").str.findall(_TOKEN_RE)
        for i, ws in zip(df[id_col], toks):
            n = len(ws)
            p, c = 0, 0
            while p < n:
                e = min(p + chunk_tokens, n)
                ids.append(i)
                cids.append(c)
                starts.append(p)
                ends.append(e)
                if emit_text:
                    texts.append(" ".join(ws[p:e]))
                if e >= n:
                    break
                p += stride
                c += 1
        out = {
            id_col: pd.Series(ids, dtype=df[id_col].dtype),
            "chunk_id": pd.Series(cids, dtype="int64"),
            "tok_start": pd.Series(starts, dtype="int64"),
            "tok_end": pd.Series(ends, dtype="int64"),
        }
        if emit_text:
            out["text"] = pd.Series(texts, dtype=object)
        res = pd.DataFrame(out)
        res["n_tokens"] = res["tok_end"] - res["tok_start"]
        return res

    return ds.map_batches(fn, batch_format="pandas")


def chunk_spans_sql(table: str, id_col: str, text_col: str, *,
                    chunk_tokens: int = 128, stride: int = 96) -> str:
    """DuckDB twin of :func:`chunk_spans` (spans only — same whitespace
    tokens, same window rule)."""
    c, s = chunk_tokens, stride
    return f"""
        WITH d_n AS (
            SELECT {id_col},
                   len(regexp_extract_all(coalesce({text_col}, ''),
                       '{_TOKEN_RE}')) AS n
            FROM {table}
        ), w AS (
            SELECT {id_col}, n, CAST(i AS BIGINT) AS chunk_id,
                   CAST(i AS BIGINT) * {s} AS tok_start
            FROM d_n, UNNEST(range(0, greatest(
                CAST(ceil((n - {c}) / CAST({s} AS DOUBLE)) AS BIGINT) + 1,
                CASE WHEN n > 0 THEN 1 ELSE 0 END))) AS t(i)
            WHERE n > 0
        )
        SELECT {id_col}, chunk_id, tok_start,
               least(tok_start + {c}, n) AS tok_end,
               least(tok_start + {c}, n) - tok_start AS n_tokens
        FROM w
    """
