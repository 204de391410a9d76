"""Cluster topic terms — the BERTopic c-TF-IDF stage (Grootendorst
2022; the reference's BERTopic refit is SURVEY ST5): cluster the
embedding space with the engine's bit-deterministic kmeans, then label
each cluster with its most characteristic terms

    W(t, c) = tf(t, c) · ln(1 + A / f(t))

where tf(t, c) counts term occurrences inside cluster c, f(t) is the
term's corpus-wide count and A the mean token count per cluster — the
class-based TF-IDF that makes shared vocabulary cancel and
cluster-specific vocabulary surface.

Scale shape: kmeans labels are a distributed map (stages/similarity
contract); docs join their cluster via the auto-tiered hash join; then
per-batch (cluster, term, partial-count) rows make ONE term-keyed
exchange (f(t) is computed in-partition since a term's rows co-locate)
and one cluster-keyed exchange picks the top-n — counts are exact
int64 and the score formula is applied identically everywhere, so
output is deterministic at any parallelism (golden-freezable, like
every kmeans-family op).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

_TOKEN_RE = r"[a-z]+"


def cluster_topic_terms(docs_ds, emb_ds, *, doc_id_col: str = "doc_id",
                        vec_id_col: str = "vec_id",
                        text_col: str = "text", emb_col: str = "embedding",
                        dim: int, k: int = 8, top_n: int = 5,
                        iters: int = 10, seed: int = 42,
                        round_to: int = 6):
    """(cluster, rank, term, score) — ``top_n`` rows per kmeans cluster,
    (score DESC, term ASC) ranked."""
    from ..state.groupby import partition_reduce
    from ..state.joins import hash_join
    from .similarity import kmeans

    _, assign_fn = kmeans(emb_ds, vec_id_col, emb_col, dim, k,
                          iters=iters, seed=seed)
    labels = assign_fn(emb_ds)
    if vec_id_col != doc_id_col:
        labels = labels.map_batches(
            lambda df: df.rename(columns={vec_id_col: doc_id_col}),
            batch_format="pandas")
    joined = hash_join(docs_ds, labels, on=doc_id_col)

    def tf_partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = df[text_col].fillna("").str.lower().str.findall(_TOKEN_RE)
        e = df[["cluster"]].assign(term=toks).explode("term").dropna(
            subset=["term"])
        return e.groupby(["cluster", "term"], as_index=False).agg(
            c=("term", "size"))

    partials = joined.map_batches(tf_partial, batch_format="pandas")

    def per_term(part: pd.DataFrame) -> pd.DataFrame:
        g = part.groupby(["cluster", "term"], as_index=False).agg(
            tf=("c", "sum"))
        g["f"] = g.groupby("term")["tf"].transform("sum")
        return g.astype({"tf": "int64", "f": "int64"})

    termed = partition_reduce(partials, ["term"], per_term).materialize()

    # A = mean tokens per cluster, from metadata-sized partials
    tot = termed.map_batches(
        lambda d: pd.DataFrame({"t": [int(d["tf"].sum())]}),
        batch_format="pandas").to_pandas()
    n_clusters = k
    a = float(tot["t"].sum()) / max(1, n_clusters)

    def per_cluster(part: pd.DataFrame, a=a) -> pd.DataFrame:
        part = part.copy()
        part["score"] = (part["tf"] * np.log1p(a / part["f"])).round(round_to)
        part = part.sort_values(["cluster", "score", "term"],
                                ascending=[True, False, True], kind="stable")
        out = part.groupby("cluster").head(top_n).copy()
        out["rank"] = out.groupby("cluster").cumcount().astype("int64")
        return out[["cluster", "rank", "term", "score"]]

    return partition_reduce(termed, ["cluster"], per_cluster)
