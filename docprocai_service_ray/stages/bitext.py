"""Margin-based bitext mining (Artetxe & Schwenk 2019, the public
LASER/CCMatrix mining criterion): score candidate cross-corpus pairs by
the RATIO margin

    margin(x, y) = cos(x, y) / ((avgF(y) + avgB(x)) / 2)

where avgF(y) = mean cosine of y to its k nearest sources and avgB(x) =
mean cosine of x to its k nearest targets — absolute cosine is a poor
mining signal in hubby embedding spaces; the margin denominators
normalize each point by its own neighborhood density. This is the
corpus-construction op behind mined parallel corpora (CCMatrix/
WikiMatrix) and the cross-lingual analog of the engine's entity-link
scoring (stages/mention.py scores mentions against a broadcast alias
dictionary the same way; reference ST6 template matcher).

Scale shape (the ST7 broadcast-dictionary contract): the SOURCE side is
the dimension-sized table (a seed-language shard / alias dictionary) —
its (ids, unit matrix) ship ONCE via ray.put; the TARGET side streams.
ONE matmul pass over target batches yields BOTH directions' statistics:
per-target forward top-k (rows of the batch) and per-source backward
top-k PARTIALS (≤ k rows per source per batch → source-keyed
partition_reduce; global top-k elements are each in their batch's top-k,
so the fold is exact). The margin join-back rides hash_join's auto tier
(the avgB table is source-sized). Raw vectors cross no exchange.

Determinism contract — INTEGER micro-cosine units: every cosine is
floored to int64 micro-units (floor(cos·1e6 + 0.5), half-up on both
engines) BEFORE ranking, summing, and thresholding; ranks tie-break id
ASC; the margin is ONE float division of exact integer products:

    margin = (2 · ci · nF · nB) / (sumF · nB + sumB · nF)

so the DuckDB twin (full cross join + window functions — quadratic,
which is why it is the ORACLE and this module is the engine) computes
bit-identical margins: no float accumulation order exists anywhere.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

_SCALE = 1_000_000


def _matrix(df: pd.DataFrame, emb_col: str) -> np.ndarray:
    return np.asarray(df[emb_col].tolist(), dtype=np.float64)


def _unit(mat: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(mat, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return mat / n


def bitext_margin_pairs(src, tgt, *, id_col: str = "vec_id",
                        emb_col: str = "embedding", k: int = 4,
                        margin_threshold: float = 1.0, round_to: int = 6,
                        mutual: bool = False):
    """Mined (src_id, tgt_id, cos, margin) pairs: each target's best
    source by micro-unit cosine (id ASC tie-break), kept when the ratio
    margin ≥ ``margin_threshold``; ``mutual=True`` additionally requires
    the source's best target to be this target (the intersection
    strategy). ``src`` must be the broadcast-sized side — collected once
    and shipped via ray.put (the ST7 alias-dictionary contract); ``tgt``
    streams."""
    from ..state.groupby import collect_pandas, partition_reduce
    from ..state.joins import hash_join

    src_df = collect_pandas(src, [id_col, emb_col])
    empty = pa.table({"src_id": pa.array([], pa.int64()),
                      "tgt_id": pa.array([], pa.int64()),
                      "cos": pa.array([], pa.float64()),
                      "margin": pa.array([], pa.float64())})
    if not len(src_df):
        return ray.data.from_arrow(empty)
    src_df = src_df.sort_values(id_col, kind="stable").reset_index(drop=True)
    src_ref = ray.put((src_df[id_col].to_numpy(),
                       _unit(_matrix(src_df, emb_col))))
    kk = min(k, len(src_df))

    def one_pass(df: pd.DataFrame) -> pd.DataFrame:
        """One matmul per target batch → forward rows + backward partials
        (distinguished by ``kind``; stacked so the pass stays single)."""
        ids, smat = ray.get(src_ref)
        df = df.sort_values(id_col, kind="stable")
        tmat = _unit(_matrix(df, emb_col))
        ci = np.floor((tmat @ smat.T) * _SCALE + 0.5).astype(np.int64)
        order = np.argsort(-ci, axis=1, kind="stable")  # ties → lower src id
        topk = order[:, :kk]
        rows = np.arange(len(df))[:, None]
        fwd = pd.DataFrame({
            "kind": "f",
            "src_id": ids[topk[:, 0]],
            "tgt_id": df[id_col].to_numpy(),
            "ci": ci[rows[:, 0], topk[:, 0]],
            "sum_f": ci[rows, topk].sum(axis=1),
            "n_f": kk,
        })
        # backward neighborhoods are over TARGETS — capped by k alone,
        # not by the source count (kk) like the forward side
        bk = min(k, len(df))
        border = np.argsort(-ci, axis=0, kind="stable")[:bk]  # ties → lower tgt id
        cols = np.arange(len(ids))[None, :]
        back = pd.DataFrame({
            "kind": "b",
            "src_id": np.repeat(ids[None, :], bk, axis=0).ravel(),
            "tgt_id": df[id_col].to_numpy()[border].ravel(),
            "ci": ci[border, cols].ravel(),
            "sum_f": 0,
            "n_f": 0,
        })
        return pd.concat([fwd, back], ignore_index=True)

    passes = tgt.map_batches(one_pass, batch_format="pandas").materialize()

    def _kind(df: pd.DataFrame, which: str, cols: list) -> pd.DataFrame:
        # vectorized mask — ds.filter(fn) is per-row Python (hot-path ban)
        return df.loc[df["kind"] == which, cols]

    fwd = passes.map_batches(
        lambda df: _kind(df, "f", ["src_id", "tgt_id", "ci", "sum_f", "n_f"]),
        batch_format="pandas")

    def back_fold(part: pd.DataFrame) -> pd.DataFrame:
        g = part.sort_values(["src_id", "ci", "tgt_id"],
                             ascending=[True, False, True], kind="stable")
        g = g.groupby("src_id", as_index=False).head(k)
        return g.groupby("src_id", as_index=False).agg(
            sum_b=("ci", "sum"), n_b=("ci", "size"),
            best_tgt=("tgt_id", "first"))

    back = partition_reduce(
        passes.map_batches(
            lambda df: _kind(df, "b", ["src_id", "tgt_id", "ci"]),
            batch_format="pandas"),
        ["src_id"], back_fold)

    joined = hash_join(fwd, back, on="src_id")

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        num = 2.0 * df["ci"] * df["n_f"] * df["n_b"]
        den = (df["sum_f"] * df["n_b"] + df["sum_b"] * df["n_f"]).astype(
            "float64")
        q = num / den.where(den != 0, np.nan)
        # explicit half-up rounding, bit-identical to the SQL twin's
        # FLOOR(x*1e6 + 0.5)/1e6 — np.round is half-even, DuckDB ROUND is
        # half-away, and integer-ratio margins DO land on exact halves
        scale = 10.0 ** round_to
        margin = np.floor(q * scale + 0.5) / scale
        out = pd.DataFrame({
            "src_id": df["src_id"], "tgt_id": df["tgt_id"],
            "cos": df["ci"] / float(_SCALE), "margin": margin})
        keep = out["margin"] >= margin_threshold
        if mutual:
            keep &= df["best_tgt"].to_numpy() == df["tgt_id"].to_numpy()
        return out[keep]

    return joined.map_batches(finish, batch_format="pandas")


def bitext_sql(src_inner: str, tgt_inner: str, *, k: int = 4,
               margin_threshold: float = 1.0, round_to: int = 6,
               mutual: bool = False) -> str:
    """DuckDB twin of :func:`bitext_margin_pairs`. ``src_inner`` /
    ``tgt_inner`` must each yield (id, embedding) rows; the oracle does
    the full quadratic cross join the engine's broadcast+stream shape
    avoids. Same integer micro-cosine margin — no float accumulation."""
    mutual_pred = "AND f.tgt_id = bb.best_tgt" if mutual else ""
    return f"""
        WITH s AS ({src_inner}), t AS ({tgt_inner}),
        x AS (
            -- CAST to DOUBLE[]: list_cosine_similarity on FLOAT lists
            -- computes in float32, whose ~1e-7 error straddles the 1e-6
            -- quantization grid; in float64 both engines agree to ~1e-15
            SELECT s.id AS src_id, t.id AS tgt_id,
                   CAST(FLOOR(list_cosine_similarity(
                              CAST(s.embedding AS DOUBLE[]),
                              CAST(t.embedding AS DOUBLE[]))
                              * {_SCALE} + 0.5) AS BIGINT) AS ci
            FROM s, t
        ),
        fr AS (
            SELECT *, ROW_NUMBER() OVER (PARTITION BY tgt_id
                       ORDER BY ci DESC, src_id) AS r
            FROM x
        ),
        fa AS (
            SELECT tgt_id, SUM(ci) AS sum_f, COUNT(*) AS n_f
            FROM fr WHERE r <= {k} GROUP BY 1
        ),
        fbest AS (SELECT src_id, tgt_id, ci FROM fr WHERE r = 1),
        br AS (
            SELECT *, ROW_NUMBER() OVER (PARTITION BY src_id
                       ORDER BY ci DESC, tgt_id) AS r
            FROM x
        ),
        ba AS (
            SELECT src_id, SUM(ci) AS sum_b, COUNT(*) AS n_b
            FROM br WHERE r <= {k} GROUP BY 1
        ),
        bb AS (SELECT src_id, tgt_id AS best_tgt FROM br WHERE r = 1),
        m AS (
            SELECT f.src_id, f.tgt_id,
                   f.ci / CAST({_SCALE} AS DOUBLE) AS cos,
                   FLOOR((2.0 * f.ci * fa.n_f * ba.n_b)
                         / (fa.sum_f * ba.n_b + ba.sum_b * fa.n_f)
                         * {10.0 ** round_to} + 0.5) / {10.0 ** round_to}
                       AS margin
            FROM fbest f
            JOIN fa USING (tgt_id) JOIN ba USING (src_id)
            JOIN bb USING (src_id)
            WHERE 1=1 {mutual_pred}
        )
        SELECT src_id, tgt_id, cos, margin FROM m
        WHERE margin >= {margin_threshold}
    """
