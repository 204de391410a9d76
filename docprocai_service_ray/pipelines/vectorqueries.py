"""Embedding and retrieval queries over the ``embeddings`` table (and
``documents`` for the lexical and hybrid legs): near-dup, approximate and
exact nearest neighbours, clustering, bitext mining and BM25.

Each query is declared in the registry (pipelines/registry.py) next to its
function, with its oracle.
"""

from __future__ import annotations

import os

from ..stages.bitext import bitext_sql
from ..stages.bm25 import bm25_sql
from ..stages.fusion import rrf_sql
from ..stages.similarity import centroid_distance_sql, multi_query_topk_sql
from .benchqueries import _CFG, _pq, _query_vec
from .registry import register

_LSH = ("LSH ops are approximate by design (recall is measured against brute "
        "force in tests, not assumed); no exact SQL reproduces them, so the "
        "golden pins their deterministic output")


@register("embedding_near_dup", golden=_LSH)
def _embedding_near_dup(sf_dir: str):
    from docprocai_service_ray.stages.similarity import embedding_near_dup_pairs

    # the driver embeddings are near-orthogonal random vectors (max pairwise
    # cosine ≈ 0.51): 0.4 surfaces the true upper tail while a dup-free
    # corpus still yields few pairs
    ds = _pq(sf_dir, "embeddings", ["vec_id", "embedding"])
    return embedding_near_dup_pairs(ds, dim=64, threshold=0.4, seed=_CFG.seed)


@register("ann_lsh_topk", golden=_LSH)
def _ann_lsh_topk(sf_dir: str):
    """Approximate NN (hyperplane-LSH bucketed) — the scale path next to
    brute-force knn_topk_cosine."""
    from docprocai_service_ray.stages.similarity import lsh_topk

    q = _query_vec(sf_dir)
    ds = _pq(sf_dir, "embeddings", ["vec_id", "embedding", "label"])
    top = lsh_topk(ds, q, 10, dim=64, seed=_CFG.seed, extra_cols=("label",))
    return top.map_batches(
        lambda df: df[["vec_id", "label"]], batch_format="pandas"
    )


@register("ann_quantized_topk",
          golden="SQ8 prefilter is approximate by design (recall measured in "
                 "tests/test_quantize.py); the golden pins the deterministic "
                 "output")
def _ann_quantized_topk(sf_dir: str):
    """SQ8 quantized search (stages/quantize.quantized_topk): int8
    prefilter scan (4× fewer bytes than f32) + exact re-rank of the
    candidate set — the memory-bandwidth ANN tier beside LSH/IVF.
    Golden-frozen; prefilter recall and exact-rerank equality are
    measured in tests/test_quantize.py."""
    from docprocai_service_ray.stages.quantize import quantized_topk

    q = _query_vec(sf_dir)
    ds = _pq(sf_dir, "embeddings", ["vec_id", "embedding"])
    return quantized_topk(ds, q, 10, rerank_factor=4)


@register("ann_projected_topk",
          golden="JL projected prefilter: approximate by design (recall "
                 "measured in tests/test_project.py); seeded, so deterministic")
def _ann_projected_topk(sf_dir: str):
    """Johnson–Lindenstrauss projected search (stages/project): seeded
    Gaussian 64→16 projection prefilter (4× fewer scan bytes, rebuilt
    from the seed per task — nothing ships) + exact re-rank — the
    dimension-reduction ANN tier beside SQ8/LSH/IVF. Golden-frozen;
    prefilter recall and exact-rerank equality measured in
    tests/test_project.py."""
    from docprocai_service_ray.stages.project import projected_topk

    q = _query_vec(sf_dir)
    ds = _pq(sf_dir, "embeddings", ["vec_id", "embedding"])
    return projected_topk(ds, q, 10, dim_out=16, seed=_CFG.seed,
                          rerank_factor=4)


@register("ann_ivf_topk", golden=_LSH)
def _ann_ivf_topk(sf_dir: str):
    """Approximate NN via an IVF coarse quantizer (train on a bounded
    sample, broadcast centroids, one matmul assignment per batch, probe
    nprobe lists) — the second ANN scale path."""
    from docprocai_service_ray.stages.similarity import ivf_topk

    q = _query_vec(sf_dir)
    ds = _pq(sf_dir, "embeddings", ["vec_id", "embedding", "label"])
    top = ivf_topk(ds, q, 10, dim=64, n_lists=32, nprobe=8, seed=_CFG.seed,
                   extra_cols=("label",))
    return top.map_batches(
        lambda df: df[["vec_id", "label"]], batch_format="pandas"
    )


def _ann_index_dir(sf_dir: str) -> str:
    tok = os.path.basename(os.path.normpath(sf_dir)) or "sf"
    return f"/tmp/raykg_annidx/{tok}_d64_p8_l32_s{_CFG.seed}"


def _ensure_ann_index(sf_dir: str) -> str:
    from docprocai_service_ray.stages.annindex import build_ann_index

    return build_ann_index(
        _pq(sf_dir, "embeddings", ["vec_id", "embedding", "label"]),
        _ann_index_dir(sf_dir),
        dim=64, n_planes=8, n_lists=32, seed=_CFG.seed, extra_cols=("label",),
    )


def _ann_index_sql() -> str:
    """Real DuckDB SQL over the persisted index parquet at the driver's
    correctness scale (same lazy-ensure contract as webqueries._corpus_glob:
    the probe set is pure numpy from the seed, the index is built on demand
    when Ray is already up)."""
    import ray

    sf = "/root/testdata/sf0.01"  # driver correctness scale
    d = _ann_index_dir(sf)
    if not os.path.exists(os.path.join(d, "_SUCCESS")) and ray.is_initialized():
        _ensure_ann_index(sf)
    from docprocai_service_ray.stages.annindex import lsh_probe_buckets

    probe = ", ".join(map(str, lsh_probe_buckets(
        _query_vec(sf), dim=64, n_planes=8, seed=_CFG.seed)))
    return f"""
        WITH q AS (SELECT embedding AS qv FROM embeddings WHERE vec_id = 0)
        SELECT v.vec_id, v.label
        FROM read_parquet('{d}/vectors/*/*.parquet', hive_partitioning=1) v, q
        WHERE v.bucket IN ({probe})
        ORDER BY list_cosine_similarity(v.embedding, q.qv) DESC, v.vec_id
        LIMIT 10
    """


@register("ann_indexed_topk", sql=_ann_index_sql)
def _ann_indexed_topk(sf_dir: str):
    """Top-k probe of a PERSISTED ANN index (stages/annindex.py): bucket /
    IVF-list assignments are stored once at ingest (pgvector-column
    analog, persistence/SegmentDbConnector.py:14,34), the query hashes
    ONLY its own vector and reads only the probed bucket partitions (hive
    directory pruning) — zero corpus re-hashing, unlike ann_lsh_topk
    which re-buckets per call. REAL-SQL-oracled over the index parquet."""
    from docprocai_service_ray.stages.annindex import ann_indexed_topk

    d = _ensure_ann_index(sf_dir)
    top = ann_indexed_topk(d, _query_vec(sf_dir), 10, mode="lsh")
    return top.map_batches(
        lambda df: df[["vec_id", "label"]], batch_format="pandas"
    )


@register("embedding_outlier_stats",
          sql=centroid_distance_sql("embeddings", "label", "embedding"))
def _embedding_outlier_stats(sf_dir: str):
    """Embedding-space outlier diagnostics per label
    (stages/similarity.centroid_distance_stats): distance of every vector
    to its own label centroid → (n_vecs, avg_dist, max_dist). Centroids
    from vector-sum partials, broadcast once via ray.put; pass 2 is one
    vectorized distance kernel per batch — raw vectors never shuffle."""
    import pyarrow.parquet as pq

    from docprocai_service_ray.stages.similarity import centroid_distance_stats

    path = os.path.join(sf_dir, "embeddings.parquet")
    pf = pq.ParquetFile(path)
    d = getattr(pf.schema_arrow.field("embedding").type, "list_size", None)
    if not d:  # variable-length list: probe one row group, not the file
        d = len(pf.read_row_group(0, columns=["embedding"])["embedding"][0])
    ds = _pq(sf_dir, "embeddings", ["vec_id", "label", "embedding"])
    return centroid_distance_stats(ds, "label", "embedding", d)


@register("cluster_topic_terms",
          golden="kmeans fixpoint + exact-count c-TF-IDF, deterministic "
                 "(planted-vocab recovery and invariance in "
                 "tests/test_topics.py)")
def _cluster_topic_terms(sf_dir: str):
    """BERTopic c-TF-IDF analog (stages/topics.cluster_topic_terms; the
    reference's ST5 BERTopic refit): bit-deterministic kmeans over the
    embeddings table → per-cluster characteristic terms from the aligned
    documents (vec_id = doc_id in the testdata contract). Golden-frozen
    (kmeans fixpoint; planted-vocab recovery + invariance in
    tests/test_topics.py)."""
    import os

    import pyarrow.parquet as pq

    from docprocai_service_ray.stages.topics import cluster_topic_terms

    pf = pq.ParquetFile(os.path.join(sf_dir, "embeddings.parquet"))
    d = len(pf.read_row_group(0, columns=["embedding"])["embedding"][0])
    docs = _pq(sf_dir, "documents", ["doc_id", "text"])
    embs = _pq(sf_dir, "embeddings", ["vec_id", "embedding"])
    return cluster_topic_terms(docs, embs, dim=d, k=6, top_n=5,
                               seed=_CFG.seed)


_BM25_TERMS = ["spark", "window", "batch"]


@register("bm25_search_docs",
          sql=bm25_sql("documents", "doc_id", "text", _BM25_TERMS, k=10))
def _bm25_search_docs(sf_dir: str):
    """Okapi BM25 top-10 (stages/bm25.bm25_topk) — the lexical companion
    to kg_semantic_search and the consumer of the postings family.
    Candidate-set-sized exchanges only; REAL-SQL-oracled (same formula,
    same rounded-score ranking in DuckDB)."""
    from docprocai_service_ray.stages.bm25 import bm25_topk

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return bm25_topk(ds, "doc_id", "text", _BM25_TERMS, k=10)


@register("bitext_mined_pairs",
          sql=bitext_sql(
              "SELECT vec_id AS id, embedding FROM embeddings WHERE label = 1",
              "SELECT vec_id AS id, embedding FROM embeddings WHERE label = 2",
              k=4, margin_threshold=1.0, mutual=True))
def _bitext_mined_pairs(sf_dir: str):
    """Margin-based bitext mining (stages/bitext; Artetxe & Schwenk 2019)
    between the label-1 and label-2 embedding shards: mutual-best pairs
    with ratio margin ≥ 1. One matmul pass over the streaming target side
    yields both directions (source side broadcast — the ST7 contract);
    margins are exact-integer micro-cosine arithmetic, so the quadratic
    cross-join DuckDB twin is bit-identical."""
    import pyarrow.compute as pc

    from docprocai_service_ray.stages.bitext import bitext_margin_pairs

    ds = _pq(sf_dir, "embeddings", ["vec_id", "embedding", "label"])
    src = ds.map_batches(lambda t: t.filter(pc.equal(t["label"], 1))
                         .select(["vec_id", "embedding"]),
                         batch_format="pyarrow")
    tgt = ds.map_batches(lambda t: t.filter(pc.equal(t["label"], 2))
                         .select(["vec_id", "embedding"]),
                         batch_format="pyarrow")
    return bitext_margin_pairs(src, tgt, k=4, margin_threshold=1.0,
                               mutual=True)


@register("hybrid_search_docs", sql=rrf_sql(
    bm25_sql("(SELECT * FROM documents WHERE doc_id <> 0)",
             "doc_id", "text", _BM25_TERMS, k=50),
    """
        -- DOUBLE[] cast: FLOAT-list cosines compute in float32, whose
        -- ~1e-7 error can flip 6dp-rounded ranks vs the engine's float64
        -- (the stages/bitext lesson)
        SELECT e.vec_id AS doc_id,
               ROUND(list_cosine_similarity(CAST(e.embedding AS DOUBLE[]),
                                            CAST(q.embedding AS DOUBLE[])), 6)
                   AS score
        FROM embeddings e,
             (SELECT embedding FROM embeddings WHERE vec_id = 0) q
        WHERE e.vec_id <> 0
        ORDER BY score DESC, doc_id LIMIT 50
        """,
    "doc_id", k=10))
def _hybrid_search_docs(sf_dir: str):
    """Hybrid BM25+cosine retrieval fused with Reciprocal Rank Fusion
    (stages/fusion.hybrid_search_rrf; Cormack 2009). Both legs keep their
    distributed scoring shapes (bm25_topk candidate exchanges /
    brute_force_topk block partials); fusion touches two depth-sized
    lists only. REAL-SQL-oracled: DuckDB re-ranks both legs on the same
    6dp-rounded scores and fuses with the same 1/(60+rank) sum. doc 0 is
    the query row (vec_id 0 IS the query vector) — excluded from both
    legs like knn_topk_cosine."""
    import pyarrow.compute as pc

    from docprocai_service_ray.stages.fusion import hybrid_search_rrf

    docs = _pq(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        lambda t: t.filter(pc.not_equal(t["doc_id"], 0)),
        batch_format="pyarrow")
    embs = _pq(sf_dir, "embeddings", ["vec_id", "embedding"]).map_batches(
        lambda t: t.filter(pc.not_equal(t["vec_id"], 0)),
        batch_format="pyarrow")
    return hybrid_search_rrf(
        docs, embs, query_terms=_BM25_TERMS, query_vec=_query_vec(sf_dir),
        k=10, depth=50)


@register("semantic_decontam_topk",
          sql=multi_query_topk_sql("embeddings", "vec_id % 17 = 0", 3,
                                   extra_cols=("label",)))
def _semantic_decontam_topk(sf_dir: str):
    """Semantic decontamination retrieval (stages/similarity.
    multi_query_topk): for every benchmark embedding (vec_id%17==0 — the
    small fixed eval side), the top-3 nearest TRAINING vectors by cosine
    — the embedding-space complement of n-gram decontamination
    (decontam_by_source), Brown et al. 2020 §C generalized. The benchmark
    matrix broadcasts once (ray.put); each block does one (n,d)@(d,B)
    matmul + vectorized per-column argpartition, so the merge exchange is
    n_blocks·k·B candidate rows, never the corpus. REAL-SQL-oracled
    (list_cosine_similarity + row_number twin)."""
    import numpy as np

    from docprocai_service_ray.stages.similarity import multi_query_topk
    from docprocai_service_ray.state.joins import collect_broadcast_df

    ds = _pq(sf_dir, "embeddings", ["vec_id", "embedding", "label"])
    bench = collect_broadcast_df(
        ds.map_batches(lambda df: df[df["vec_id"] % 17 == 0],
                       batch_format="pandas"),
        ["vec_id", "embedding"])
    qmat = np.asarray(list(bench["embedding"]), dtype=np.float64)
    corpus = ds.map_batches(lambda df: df[df["vec_id"] % 17 != 0],
                            batch_format="pandas")
    return multi_query_topk(corpus, qmat, bench["vec_id"].to_numpy(), 3,
                            extra_cols=("label",))


@register("semantic_dedup_keep",
          golden="SemDeDup: kmeans fixpoint + within-cluster cosine, "
                 "deterministic (parallelism invariance and planted-duplicate "
                 "tests)")
def _semantic_dedup_keep(sf_dir: str):
    """SemDeDup-style semantic dedup over the embeddings table
    (stages/similarity.semantic_dedup): k-means clusters, then
    within-cluster cosine>=0.4 marks later-id rows as duplicates.
    Iterative float fixpoint (kmeans) ⇒ golden-frozen; determinism and
    planted-duplicate behavior tested in tests/test_packing_semdedup.py."""
    from docprocai_service_ray.stages.similarity import semantic_dedup

    ds = _pq(sf_dir, "embeddings", ["vec_id", "embedding"])
    res = semantic_dedup(ds, "vec_id", "embedding", 64, 8,
                         threshold=0.4, iters=10, seed=_CFG.seed)
    from docprocai_service_ray.state.groupby import collect_pandas

    df = collect_pandas(res, ["vec_id", "cluster", "kept"])
    return df.sort_values("vec_id").reset_index(drop=True)


@register("kmeans_embeddings",
          golden="iterative clustering, bit-deterministic via fixed-point "
                 "updates (parallelism invariance and reference mirror in "
                 "tests/test_kmeans.py)")
def _kmeans_embeddings(sf_dir: str):
    """Distributed Lloyd's k-means over the embeddings table with
    fixed-point (int64) centroid updates — integer sums are exactly
    associative, so the clustering is BIT-identical at any parallelism
    (stages/similarity.kmeans; reference-mirror + parallelism-invariance
    + blob-recovery tests in tests/test_kmeans.py). Iterative float
    fixpoint ⇒ golden-frozen."""
    from docprocai_service_ray.stages.similarity import kmeans_cluster_sizes

    ds = _pq(sf_dir, "embeddings", ["vec_id", "embedding"])
    return kmeans_cluster_sizes(ds, "vec_id", "embedding", 64, 8,
                                iters=10, seed=_CFG.seed)
