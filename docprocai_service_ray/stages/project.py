"""Seeded Gaussian random projection (Johnson–Lindenstrauss) for
embedding columns, and the projected-prefilter exact-rerank top-k it
enables — the dimensionality-reduction leg of the ANN family
(stages/annindex = partition-pruning, stages/quantize = scalar
quantization, this = dimension reduction; a 100-TB similarity pass
composes all three: project 64→16 cuts every scan and index byte 4×
BEFORE SQ8 halves it again).

Public basis: JL lemma with the dense Gaussian matrix (Indyk/Motwani
formulation) — entries N(0, 1)/sqrt(dim_out) from a seeded RandomState,
so the projection is a pure function of (seed, dim_in, dim_out):
deterministic at any parallelism, rebuildable anywhere, nothing to ship
except two ints and a seed.

Scale shape: the projection matrix is (dim_in × dim_out) — KB-sized; it
is REBUILT per task from the seed inside the closure (cheaper than
shipping it). Projection is one batch matmul, a pure map. The top-k
follows stages/quantize.quantized_topk exactly: projected prefilter scan
→ per-block partial top-(rerank·k) → bounded candidate-id broadcast →
ONE exact full-precision re-rank over matching rows. Exact top-k
whenever the prefilter holds recall — which tests MEASURE, not assume.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray


def projection_matrix(dim_in: int, dim_out: int, seed: int = 0) -> np.ndarray:
    """The seeded JL matrix — a pure function of its arguments."""
    rng = np.random.RandomState(seed)
    return rng.standard_normal((dim_in, dim_out)) / np.sqrt(dim_out)


def _as_matrix(col) -> np.ndarray:
    return np.asarray(col.tolist(), dtype=np.float64)


def project_embeddings(ds, *, emb_col: str = "embedding",
                       out_col: str = "proj", dim_out: int = 16,
                       seed: int = 0):
    """Append the projected vector column (list<double>, length dim_out).
    Pure map; the matrix is rebuilt from the seed in each task."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        x = _as_matrix(df[emb_col])
        p = projection_matrix(x.shape[1], dim_out, seed)
        # round to 9dp: BLAS gemm blocking makes x @ p differ in the last
        # ulp across BATCH SHAPES, so the raw floats are not parallelism-
        # invariant; at 9dp (1e7× the ~1e-16 noise) the output is
        df[out_col] = list((x @ p).round(9))
        return df

    return ds.map_batches(fn, batch_format="pandas")


def projected_topk(ds, query: np.ndarray, k: int, *, id_col: str = "vec_id",
                   emb_col: str = "embedding", dim_out: int = 16,
                   seed: int = 0, rerank_factor: int = 4,
                   round_to: int = 6):
    """Exact-rerank JL cosine top-k: project the corpus AND the query with
    the same seeded matrix, prefilter by projected cosine, re-rank the
    bounded candidate set at full precision. Returns (id, score) rows,
    score rounded, (score DESC, id ASC) ranked — the quantized_topk
    contract with dimension reduction in place of int8 codes."""
    qv = np.asarray(query, dtype=np.float64)
    m = max(k, rerank_factor * k)
    qnorm = float(np.linalg.norm(qv))

    def prefilter(df: pd.DataFrame) -> pd.DataFrame:
        x = _as_matrix(df[emb_col])
        p = projection_matrix(x.shape[1], dim_out, seed)
        xp = x @ p
        qp = qv @ p
        denom = np.linalg.norm(xp, axis=1) * np.linalg.norm(qp)
        s = np.divide(xp @ qp, denom, out=np.zeros(len(df)),
                      where=denom > 0).round(9)  # see project_embeddings
        # (s DESC, id ASC): the per-batch cut keeps the ids the global
        # (s, id) sort below would, so ties never depend on batching
        idx = np.lexsort((df[id_col].to_numpy(), -s))[:m]
        return pd.DataFrame({id_col: df[id_col].to_numpy()[idx],
                             "s": s[idx]})

    cand = (ds.map_batches(prefilter, batch_format="pandas")
            .sort(["s", id_col], descending=[True, False]).limit(m)
            .to_pandas())
    ids_ref = ray.put(set(cand[id_col].tolist()))

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
