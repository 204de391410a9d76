"""Winnowing document fingerprints (Schleimer/Wilkerson/Aiken 2003 — the
MOSS local fingerprinting algorithm, public formulation) and the
cross-document overlap pairs they exist for.

Reference analog: the reference dedupes ingested documents by a single
whole-text hash (DocumentDbConnector upsert-by-hash); winnowing is the
substring-robust generalization a crawl corpus needs — any shared
substring of at least ``w + k - 1`` chars between two documents GUARANTEES
a shared fingerprint (the winnowing coverage theorem), so plagiarism /
syndication / boilerplate overlap is detectable without all-pairs text
comparison.

Variant note: we select EVERY position attaining the window minimum
(all-minima winnowing) rather than MOSS's rightmost-tie-break, then emit
the DISTINCT (doc, fp) set. Ties between DIFFERENT k-grams are md5
collisions (never in practice); ties between EQUAL k-grams pick the same
fingerprint VALUE either way — so the emitted set is identical to MOSS's
except in pathological repeated-gram runs, where it is a superset that
still satisfies the coverage theorem. The win: the selection predicate
becomes two window frames, expressible EXACTLY in DuckDB (the SQL twin),
instead of run-length tie-break bookkeeping.

Hash choice: md5 of the raw k-gram (hex), not a Rabin rolling hash — md5
is what DuckDB computes natively, making the twin value-exact. A
production 100-TB run would swap in a u64 rolling hash (O(1)/gram instead
of O(k)); the selection logic and exchanges are hash-agnostic.

Scale shape:
- fingerprinting is a pure per-batch map (no exchange); per doc it costs
  O(len) md5s and a vectorized numpy sliding-window min;
- the emitted table is the DISTINCT fingerprint set (consecutive windows
  repeat their min; dedup happens in-batch before anything moves);
- overlap pairs group the (fp → docs) postings with the same star-cap
  discipline as MinHash buckets (functions/canon.bucket_candidate_pairs): a
  boilerplate fingerprint shared by thousands of docs emits O(n) star
  edges, not O(n²), and the cap event is logged. Pair counting is a
  (doc_a, doc_b)-keyed partial-sum exchange — ids and hashes move, never
  text.
"""

from __future__ import annotations

import hashlib

import pandas as pd

WINNOW_PAIR_CAP = 200  # per-fingerprint posting cap (star keeps connectivity)


def _winnow_one(text: str, k: int, w: int) -> list:
    """Distinct all-minima winnowing fingerprints of one document.

    Documents shorter than one full window still emit (the min over the
    grams they have — matching the SQL twin's shrinking trailing frame is
    avoided by clamping: see winnow_sql, which only keeps full windows and
    falls back to the global min for short docs)."""
    from collections import deque

    t = text or ""
    n = len(t) - k + 1
    if n <= 0:
        return [hashlib.md5(t.encode("utf-8")).hexdigest()]
    hs = [hashlib.md5(t[i:i + k].encode("utf-8")).hexdigest()
          for i in range(n)]
    if n <= w:
        return [min(hs)]
    # O(n) sliding-window min via monotonic deque (hex md5 compares like
    # the digest bytes; numpy has no string-reduce kernels)
    out = set()
    dq: deque = deque()  # indices with increasing hash values
    for i, h in enumerate(hs):
        while dq and hs[dq[-1]] >= h:
            dq.pop()
        dq.append(i)
        if dq[0] <= i - w:
            dq.popleft()
        if i >= w - 1:
            out.add(hs[dq[0]])
    return sorted(out)


def winnow_fingerprints(ds, id_col: str = "doc_id", text_col: str = "text",
                        *, k: int = 8, w: int = 16):
    """(id, fp) rows: the distinct winnowing fingerprint set per document.
    Guarantee: two docs sharing any substring of ≥ ``w + k - 1`` chars
    share at least one fp value. Pure map — no exchange."""

    def per_batch(df: pd.DataFrame) -> pd.DataFrame:
        fps = df[text_col].map(lambda t: _winnow_one(t, k, w))
        out = df[[id_col]].copy()
        out["fp"] = fps
        return out.explode("fp", ignore_index=True)

    return ds.map_batches(per_batch, batch_format="pandas")


def winnow_overlap_pairs(ds, id_col: str = "doc_id",
                         text_col: str = "text", *, k: int = 8, w: int = 16,
                         min_shared: int = 2, pair_cap: int = WINNOW_PAIR_CAP):
    """(doc_a, doc_b, n_shared) for document pairs sharing ≥ ``min_shared``
    winnowing fingerprints (doc_a < doc_b) — the corpus-level syndication /
    plagiarism map.

    Exchange plan: fp-keyed grouping of the postings (hash + id rows
    only), per-group pair emission star-capped at ``pair_cap`` docs (the
    MinHash-bucket discipline — the cap is a connectivity floor for
    pathological boilerplate fps and is LOGGED when it engages; the SQL
    twin is exact while no posting exceeds the cap), then a pair-keyed
    partial-sum exchange. Nothing text-sized moves."""
    from ..functions.canon import bucket_candidate_pairs
    from ..state.groupby import group_agg, partition_reduce

    fps = winnow_fingerprints(ds, id_col, text_col, k=k, w=w)

    def emit_pairs(part: pd.DataFrame) -> pd.DataFrame:
        rows_a, rows_b = [], []
        for _, g in part.groupby("fp"):
            for a, b in bucket_candidate_pairs(g[id_col].tolist(), pair_cap):
                rows_a.append(a)
                rows_b.append(b)
        dt = part[id_col].dtype  # id dtype rides through (string or int ids)
        return pd.DataFrame({"doc_a": pd.Series(rows_a, dtype=dt),
                             "doc_b": pd.Series(rows_b, dtype=dt)})

    # one row per shared fingerprint: the pair's count is its row count
    pairs = partition_reduce(fps, ["fp"], emit_pairs)
    return group_agg(pairs, ["doc_a", "doc_b"], {"n_shared": ("doc_a", "size")},
                     finish=lambda g: g[g["n_shared"] >= min_shared])


def winnow_sql(table: str, id_col: str, text_col: str, *, k: int = 8,
               w: int = 16) -> str:
    """DuckDB twin of :func:`winnow_fingerprints` — same k-gram md5s, same
    all-minima window selection, same short-doc clamps."""
    return f"""
        WITH d AS (
            SELECT {id_col}, coalesce({text_col}, '') AS t FROM {table}
        ),
        g AS (SELECT unnest(range((
            SELECT greatest(coalesce(max(length(t)), 0) - {k}, 0) + 1
            FROM d))) AS i),
        grams AS (
            SELECT d.{id_col}, g.i,
                   md5(substr(d.t, g.i + 1, {k})) AS h,
                   length(d.t) - {k} + 1 AS n
            FROM d, g
            WHERE g.i <= length(d.t) - {k}
        ),
        wins AS (
            SELECT {id_col},
                   min(h) OVER (PARTITION BY {id_col} ORDER BY i
                       ROWS BETWEEN CURRENT ROW AND {w - 1} FOLLOWING) AS fp
            FROM grams
            WHERE n > {w}
            QUALIFY i <= n - {w}
        ),
        small AS (  -- fewer grams than one window: global min
            SELECT {id_col}, min(h) AS fp FROM grams
            WHERE n <= {w} GROUP BY 1
        ),
        tiny AS (   -- shorter than one gram: md5 of the whole text
            SELECT {id_col}, md5(t) AS fp FROM d
            WHERE length(t) < {k}
        )
        SELECT DISTINCT {id_col}, fp FROM (
            SELECT * FROM wins UNION ALL
            SELECT * FROM small UNION ALL
            SELECT * FROM tiny
        )
    """


def winnow_pairs_sql(table: str, id_col: str, text_col: str, *, k: int = 8,
                     w: int = 16, min_shared: int = 2) -> str:
    """DuckDB twin of :func:`winnow_overlap_pairs` (exact while no
    fingerprint's posting exceeds the engine's pair cap)."""
    inner = winnow_sql(table, id_col, text_col, k=k, w=w)
    return f"""
        WITH fps AS ({inner})
        SELECT a.{id_col} AS doc_a, b.{id_col} AS doc_b,
               COUNT(*) AS n_shared
        FROM fps a JOIN fps b
          ON a.fp = b.fp AND a.{id_col} < b.{id_col}
        GROUP BY 1, 2
        HAVING COUNT(*) >= {min_shared}
    """
