"""Distributed quality-classifier training — hashed-bag-of-words
logistic regression, the GPT-3 / LLaMA-style "positive-reference vs
crawl" quality filter (Brown et al. 2020 appendix A train exactly this
shape over CommonCrawl; fasttext-style linear model on hashed n-gram
features). Training is full-batch gradient descent with the engine's
fixed-point determinism contract (stages/similarity.kmeans): per-ROW
gradients quantize to int64 before summation, so the merged gradient is
bit-identical at any parallelism and the learned weights can be
golden-frozen.

Scale shape:
- featurize: pure map — tokens hash into ``dim`` buckets
  (pd.util.hash_pandas_object, the cross-process-stable u64 every
  exchange keys on), binary bucket presence by default (L1 tf
  optional); the (y, feature-bytes) design matrix is materialized ONCE,
  the raw corpus is never re-tokenized across iterations;
- per iteration: weights broadcast via ray.put → one map over the
  design matrix emitting ONE quantized (grad, loss, hits) row per batch
  → driver int-sums ≤ num_blocks rows (D ≈ KBs each) and steps. No
  shuffle anywhere; iteration cost = one corpus-width map.

Overflow bound: per-row |grad_j| ≤ 1 (|p−y| ≤ 1, |x_j| ≤ 1 in both
feature modes), so
Σ|q| ≤ n·2^24 — safe to ~2^38 rows per batch-sum at the 2^24 scale.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

_SCALE = float(1 << 24)
_TOKEN_RE = r"[a-z]+"


def _featurize(df: pd.DataFrame, text_col: str, dim: int,
               features: str = "binary"):
    """rows → dense [n, dim] hashed bag-of-words matrix (vectorized:
    explode + stable u64 hash + scatter-add). ``features``: "binary" =
    bucket presence (the fasttext-style default — marker terms carry
    full weight regardless of doc length), "tf" = L1-normalized counts."""
    df = df.reset_index(drop=True)
    toks = df[text_col].fillna("").str.lower().str.findall(_TOKEN_RE)
    e = pd.DataFrame({"row": np.repeat(np.arange(len(df)), toks.str.len()),
                      "tok": np.concatenate([np.asarray(t, dtype=object)
                                             for t in toks])
                      if len(df) and toks.str.len().sum() else
                      np.empty(0, dtype=object)})
    x = np.zeros((len(df), dim), dtype=np.float64)
    if len(e):
        h = (pd.util.hash_pandas_object(e["tok"], index=False).to_numpy()
             % np.uint64(dim)).astype(np.int64)
        np.add.at(x, (e["row"].to_numpy(), h), 1.0)
        if features == "binary":
            np.clip(x, 0.0, 1.0, out=x)
        else:
            totals = x.sum(axis=1, keepdims=True)
            np.divide(x, totals, out=x, where=totals > 0)
    return x


def featurize_docs(ds, text_col: str, label_col: str, *, dim: int = 256,
                   features: str = "binary"):
    """Materializable design-matrix dataset: one row per doc with
    (y int64, x as float64 bytes). Pure map."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        x = _featurize(df, text_col, dim, features)
        return pd.DataFrame({
            "y": df[label_col].astype("int64").to_numpy(),
            "x": [row.tobytes() for row in x],
        })

    return ds.map_batches(fn, batch_format="pandas")


def train_quality_classifier(ds, text_col: str, label_col: str, *,
                             dim: int = 256, iters: int = 30,
                             lr: float = 2.0, seed: int = 42,
                             features: str = "binary"):
    """Returns (weights float64[dim+1] — last entry is the bias,
    history DataFrame(iter, loss, acc)). Bit-deterministic at any
    parallelism (per-row int64-quantized gradient partials)."""
    import ray

    feats = featurize_docs(ds, text_col, label_col, dim=dim,
                           features=features).materialize()
    n_total = feats.count()
    w = np.zeros(dim + 1, dtype=np.float64)
    hist = []
    for it in range(iters):
        w_ref = ray.put(w)

        def partial(df: pd.DataFrame, dim=dim) -> pd.DataFrame:
            wv = ray.get(w_ref)
            x = np.vstack([np.frombuffer(b, dtype=np.float64)
                           for b in df["x"]])
            y = df["y"].to_numpy(dtype=np.float64)
            z = x @ wv[:dim] + wv[dim]
            p = 1.0 / (1.0 + np.exp(-z))
            err = p - y                                  # [n]
            g_rows = np.concatenate(
                [err[:, None] * x, err[:, None]], axis=1)  # [n, dim+1]
            q = np.round(g_rows * _SCALE).astype(np.int64).sum(axis=0)
            eps = 1e-12
            loss_rows = -(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps))
            ql = np.round(loss_rows * _SCALE).astype(np.int64).sum()
            hits = int(((p >= 0.5) == (y >= 0.5)).sum())
            return pd.DataFrame({"qg": [q.tobytes()], "ql": [ql],
                                 "hits": [hits], "n": [len(df)]})

        parts = feats.map_batches(partial, batch_format="pandas").to_pandas()
        g = np.zeros(dim + 1, dtype=np.int64)
        for b in parts["qg"]:
            g += np.frombuffer(b, dtype=np.int64)
        loss = float(parts["ql"].sum()) / _SCALE / n_total
        acc = float(parts["hits"].sum()) / n_total
        hist.append((it, round(loss, 6), round(acc, 6)))
        w = w - lr * (g.astype(np.float64) / _SCALE / n_total)
    history = pd.DataFrame(hist, columns=["iter", "loss", "acc"]).astype(
        {"iter": "int64"})
    return w, history


def classifier_score(ds, text_col: str, weights: np.ndarray, *,
                     out_col: str = "quality_prob", features: str = "binary"):
    """Score a corpus with trained weights — pure map, weights ride the
    closure (dim+1 floats)."""
    dim = len(weights) - 1
    wv = np.asarray(weights, dtype=np.float64)

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        x = _featurize(df, text_col, dim, features)
        out = df.copy()
        out[out_col] = 1.0 / (1.0 + np.exp(-(x @ wv[:dim] + wv[dim])))
        return out

    return ds.map_batches(fn, batch_format="pandas")
