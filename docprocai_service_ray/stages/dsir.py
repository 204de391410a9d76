"""DSIR — Data Selection via Importance Resampling (Xie et al. 2023,
"Data Selection for Language Models via Importance Resampling"). The
published recipe for picking raw-web documents that LOOK LIKE a small
in-domain target corpus, without training a model:

1. featurize every document as HASHED n-gram counts: unigrams + bigrams
   of the repo-wide ``[a-z]+`` tokenizer, each hashed into ``buckets``
   slots (the paper's 10k-bucket hashed bag of n-grams);
2. fit two add-k-smoothed categorical distributions over buckets — one
   on the TARGET corpus, one on the RAW pool;
3. per raw doc, the log importance weight is the doc's feature counts
   dotted with the per-bucket log-ratio vector
   ``log p_target[b] - log p_raw[b]``;
4. select k docs by Gumbel top-k over the log weights (sampling without
   replacement proportional to the importance weights — the paper's
   resampling step), with the Gumbel noise derived from a CONTENT HASH
   of the doc key (stages/sampling.weighted_sample's no-RNG-state rule:
   same row ⇒ same draw at any parallelism, on any cluster shape).

Scale shape: the only corpus-scale work is two featurize passes (one
over the target, one over the raw pool) whose per-batch output is
already bucket-aggregated — ≤ ``buckets`` rows leave any task, so the
profile exchanges are bucket-keyed and bounded by ``buckets`` (default
10k) regardless of corpus size. The log-ratio vector (``buckets``
float64 ≈ 80 KB) ships once per task in the scoring closure; selection
is per-block partial top-k + one k-row sort — nothing corpus-sized ever
reaches the driver. Raw text never exchanges.

Determinism: features hash with ``pd.util.hash_pandas_object`` (the
repo's cross-process-deterministic u64); per-doc weights are computed
from rows that never split across batches; Gumbel draws are content
hashes. Bit-identical at any parallelism — asserted in
tests/test_dsir.py alongside a single-process reference mirror.

Reference anchor: the reference scores document relevance via opaque
embedding-model calls (docprocai_service semantic search path); this is
the deterministic, SQL-free published alternative for the
training-data-curation surface (hashed features are not expressible in
DuckDB, so the registered query is golden-frozen, certified by the
reference mirror in tests/test_dsir.py).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd

_TOKEN_RE = r"[a-z]+"  # repo-wide tokenizer (token_doc_frequency contract)


def _feature_frame(df: pd.DataFrame, text_col: str, buckets: int,
                   seed: int) -> pd.DataFrame:
    """Exploded hashed-feature rows ``(__row, bucket)`` for one batch —
    one row per (doc, n-gram occurrence); ``__row`` is the doc's position
    in ``df``. Vectorized: findall → explode → shift for bigrams → one
    hash call over the concatenated feature strings."""
    toks = df[text_col].fillna("").str.lower().str.findall(_TOKEN_RE)
    e = pd.DataFrame({"w": toks}).explode("w").dropna(subset=["w"])
    if not len(e):
        return pd.DataFrame({"__row": pd.Series(dtype="int64"),
                             "bucket": pd.Series(dtype="int64")})
    e["__row"] = e.index.astype("int64")
    uni = e["w"]
    left = e.groupby("__row")["w"].shift(1)
    bi = (left + "\x1f" + e["w"]).dropna()
    feats = pd.concat([uni, bi], ignore_index=False)
    rows = feats.index.to_numpy(dtype="int64")
    h = pd.util.hash_pandas_object(f"d{seed}\x1f" + feats,
                                   index=False).to_numpy()
    return pd.DataFrame({"__row": rows,
                         "bucket": (h % np.uint64(buckets)).astype("int64")})


def hashed_ngram_profile(ds, text_col: str, *, buckets: int = 10_000,
                         seed: int = 42) -> pd.DataFrame:
    """Corpus-level hashed n-gram bucket counts ``(bucket, cnt)`` —
    the DSIR feature distribution fit. Per-batch partials are bincounted
    before leaving the task (≤ ``buckets`` rows per block), then one
    bucket-keyed grouped sum; the driver collects a ≤ ``buckets``-row
    table. The exchange takes 8 partitions because it is bounded by
    ``buckets``, not the corpus."""
    from ..state.groupby import collect_pandas, group_agg

    def features(df: pd.DataFrame) -> pd.DataFrame:
        return _feature_frame(df.reset_index(drop=True), text_col, buckets,
                              seed)[["bucket"]]

    out = collect_pandas(
        group_agg(ds.map_batches(features, batch_format="pandas"), ["bucket"],
                  {"cnt": ("bucket", "size")}, num_partitions=8),
        ["bucket", "cnt"],
    )
    return out.sort_values("bucket").reset_index(drop=True)


def dsir_log_ratio(target_profile: pd.DataFrame, raw_profile: pd.DataFrame,
                   *, buckets: int = 10_000, k: float = 1.0) -> np.ndarray:
    """Per-bucket ``log p_target[b] - log p_raw[b]`` under add-k
    smoothing — the (buckets,)-float64 importance vector (~80 KB at the
    default 10k buckets: closure-shippable, never an exchange)."""
    def logp(profile: pd.DataFrame) -> np.ndarray:
        c = np.zeros(buckets, dtype=np.float64)
        c[profile["bucket"].to_numpy()] = profile["cnt"].to_numpy()
        return np.log(c + k) - np.log(c.sum() + k * buckets)

    return logp(target_profile) - logp(raw_profile)


def dsir_scores(ds, id_col: str, text_col: str, log_ratio: np.ndarray, *,
                buckets: int = 10_000, seed: int = 42, round_to: int = 9):
    """Per-doc DSIR log importance weight ``(id, n_feats, logw)`` — one
    pure map; the log-ratio vector rides the task closure. ``logw`` is
    rounded for cross-engine/golden comparison (weights are sums of ≤
    thousands of float64 terms in deterministic per-doc order)."""
    lr = np.asarray(log_ratio, dtype=np.float64)

    def score(df: pd.DataFrame) -> pd.DataFrame:
        df = df.reset_index(drop=True)
        f = _feature_frame(df, text_col, buckets, seed)
        per_row = pd.DataFrame({
            "__row": f["__row"],
            "v": lr[f["bucket"].to_numpy()] if len(f) else
                 np.zeros(0, dtype=np.float64),
        })
        agg = per_row.groupby("__row").agg(n_feats=("v", "size"),
                                           logw=("v", "sum"))
        out = pd.DataFrame({
            id_col: df[id_col],
            "n_feats": agg["n_feats"].reindex(
                range(len(df)), fill_value=0).astype("int64").to_numpy(),
            "logw": np.round(agg["logw"].reindex(
                range(len(df)), fill_value=0.0).to_numpy(), round_to),
        })
        return out

    return ds.map_batches(score, batch_format="pandas")


def _gumbel_from_key(keys: pd.Series, seed: int) -> np.ndarray:
    """Content-hash Gumbel(0,1) draw per key — md5-derived uniform in
    (0,1), ``g = -log(-log(u))`` (the weighted_sample no-RNG-state rule
    in Gumbel form)."""
    tag = f"g{seed}\x1f"
    u = np.fromiter(
        ((int(hashlib.md5((tag + str(v)).encode()).hexdigest()[:8], 16) + 1)
         / 4294967296.0 for v in keys),
        dtype=np.float64, count=len(keys))
    return -np.log(-np.log(u))


def dsir_select(raw_ds, target_ds, id_col: str, text_col: str, *,
                select_k: int, buckets: int = 10_000, smoothing: float = 1.0,
                seed: int = 42, round_to: int = 9):
    """The full DSIR pipeline: fit target + raw hashed-n-gram profiles,
    score every raw doc, Gumbel-top-k resample. Returns the selected
    ``(id, n_feats, logw, score)`` rows, score-descending — ``score =
    logw + Gumbel(content hash)``, so the selection is a without-
    replacement sample proportional to the importance weights (Gumbel
    top-k ≡ importance resampling), yet bit-deterministic.

    Distributed shape: two bounded profile exchanges + one scoring map +
    per-block partial top-k (nlargest) + one k-row sort. The raw pool is
    read twice (profile pass + scoring pass) — the standard trade against
    materializing a feature table (stages/ngramlm.py's tokenise-twice
    rule)."""
    t_prof = hashed_ngram_profile(target_ds, text_col, buckets=buckets,
                                  seed=seed)
    r_prof = hashed_ngram_profile(raw_ds, text_col, buckets=buckets,
                                  seed=seed)
    lr = dsir_log_ratio(t_prof, r_prof, buckets=buckets, k=smoothing)
    scored = dsir_scores(raw_ds, id_col, text_col, lr, buckets=buckets,
                         seed=seed, round_to=round_to)

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        g = _gumbel_from_key(df[id_col], seed)
        out = df.assign(score=np.round(df["logw"].to_numpy() + g, round_to))
        return out.nlargest(select_k, ["score", id_col])

    return (scored.map_batches(topk, batch_format="pandas")
            .sort(["score", id_col], descending=[True, True])
            .limit(select_k))
