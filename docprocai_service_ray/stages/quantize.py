"""Scalar-quantized (int8) embedding search — the memory-bandwidth play
every large ANN deployment makes (FAISS SQ8 family): store each vector
as int8 codes + one float scale (4× smaller than f32, 16× smaller than
f64), scan the QUANTIZED table for candidates, then exactly re-rank
only the candidate set against the full-precision vectors.

    q_i = round(v_i / s),  s = max|v| / 127   (per-vector symmetric SQ8)
    dot(v, w) ≈ (q_v · q_w) · s_v · s_w

Scale shape: the quantized table is what the scan touches — at 100 TB of
embeddings the prefilter reads 1/4 the bytes of a f32 scan and the int8
matmul runs in the cache. Per block: one int32-accumulated matmul → top
``rerank_factor × k`` candidate partials (the brute_force_topk shape) →
a candidate-id set (driver-sized: ≤ blocks·rerank·k ids) broadcast into
ONE exact re-rank pass over only the matching rows. Output is the EXACT
top-k whenever the true top-k survives the prefilter — recall of the
prefilter is measured (not assumed) in tests/test_quantize.py, and the
registered query is golden-frozen (deterministic: quantization and both
rankings are tie-broken on id).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray


def _as_matrix(col) -> np.ndarray:
    vals = col.to_numpy() if hasattr(col, "to_numpy") else col
    return (np.vstack([np.asarray(v, dtype=np.float64) for v in vals])
            if len(vals) else np.empty((0, 0)))


def quantize_embeddings(ds, id_col: str, emb_col: str):
    """(id, codes int8-bytes, scale f64, norm f64) — the stored SQ8
    table (norms kept so cosine needs no second pass). Pure map."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        x = _as_matrix(df[emb_col])
        amax = np.abs(x).max(axis=1)
        scale = np.where(amax > 0, amax / 127.0, 1.0)
        q = np.round(x / scale[:, None]).astype(np.int8)
        return pd.DataFrame({
            id_col: df[id_col],
            "codes": [r.tobytes() for r in q],
            "scale": scale,
            "norm": np.linalg.norm(x, axis=1),
        })

    return ds.map_batches(fn, batch_format="pandas")


def quantized_topk(ds, query: np.ndarray, k: int, *, id_col: str = "vec_id",
                   emb_col: str = "embedding", rerank_factor: int = 4,
                   round_to: int = 6):
    """Exact-rerank SQ8 cosine top-k: quantized prefilter scan →
    candidate-id broadcast → full-precision re-rank of candidates only.
    Returns (id, score) — score rounded, (score DESC, id ASC) ranked."""
    qv = np.asarray(query, dtype=np.float64)
    qa = np.abs(qv).max()
    qs = qa / 127.0 if qa > 0 else 1.0
    qq = np.round(qv / qs).astype(np.int8)
    qnorm = float(np.linalg.norm(qv))
    m = max(k, rerank_factor * k)
    quant = quantize_embeddings(ds, id_col, emb_col)

    def prefilter(df: pd.DataFrame) -> pd.DataFrame:
        codes = np.vstack([np.frombuffer(b, dtype=np.int8) for b in df["codes"]])
        dots = codes.astype(np.int32) @ qq.astype(np.int32)
        approx = dots * df["scale"].to_numpy() * qs
        denom = df["norm"].to_numpy() * qnorm
        s = np.divide(approx, denom, out=np.zeros_like(approx),
                      where=denom > 0)
        mm = min(m, len(s))
        idx = np.argpartition(-s, mm - 1)[:mm]
        return pd.DataFrame({id_col: df[id_col].to_numpy()[idx], "s": s[idx]})

    cand = (quant.map_batches(prefilter, batch_format="pandas")
            .sort(["s", id_col], descending=[True, False]).limit(m)
            .to_pandas())
    cand_ids = set(cand[id_col].tolist())
    ids_ref = ray.put(cand_ids)

    def rerank(df: pd.DataFrame) -> pd.DataFrame:
        keep = df[df[id_col].isin(ray.get(ids_ref))]
        if not len(keep):
            return keep[[id_col]].assign(score=0.0)
        x = _as_matrix(keep[emb_col])
        denom = np.linalg.norm(x, axis=1) * qnorm
        s = np.divide(x @ qv, denom, out=np.zeros(len(keep)),
                      where=denom > 0)
        return pd.DataFrame({id_col: keep[id_col],
                             "score": np.round(s, round_to)})

    return (ds.map_batches(rerank, batch_format="pandas")
            .sort(["score", id_col], descending=[True, False]).limit(k))
