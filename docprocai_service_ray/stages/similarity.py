"""Similarity search over an embedding column (list<float>).

- ``brute_force_topk``: exact cosine top-k — per-block numpy matmul against
  a broadcast query matrix (one ``ray.put``, read per task), per-block
  partial top-k, tiny final merge. The W1 analog at scale
  (reference: pgvector ``embedding <=> q ORDER BY LIMIT k``,
  persistence/SegmentDbConnector.py:223-267).
- ``hyperplane_buckets`` / ``lsh_topk``: random-hyperplane LSH — the scale
  path: vectors land in 2^n_planes buckets; a query probes its own bucket
  plus hamming-1 neighbours. Approximate; recall is measured against brute
  force in tests, not assumed.
- ``embedding_near_dup_pairs``: within-bucket cosine ≥ τ pairs (the
  embedding near-dup deduplication op).
- ``train_ivf_centroids`` / ``ivf_assign`` / ``ivf_topk``: IVF coarse
  quantizer — seeded mini
  k-means trained ONCE on a bounded sample (driver-side, size-gated),
  centroids broadcast, every vector assigned to its nearest list by one
  matmul per batch; a query scores only the ``nprobe`` nearest lists.
  The classic train-small/assign-distributed ANN scale path next to LSH.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray


def _as_matrix(col) -> np.ndarray:
    """list<float>/fixed_size_list column → (n, d) float64 matrix."""
    arr = col.combine_chunks() if hasattr(col, "combine_chunks") else col
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if isinstance(arr, pa.FixedSizeListArray):
        d = arr.type.list_size
        return arr.values.to_numpy(zero_copy_only=False).reshape(-1, d).astype(np.float64)
    lst = arr.to_pylist()
    return np.asarray(lst, dtype=np.float64)


def _cosine_scores(mat: np.ndarray, q: np.ndarray) -> np.ndarray:
    qn = q / (np.linalg.norm(q) or 1.0)
    norms = np.linalg.norm(mat, axis=1)
    norms[norms == 0] = 1.0
    return (mat @ qn) / norms


def brute_force_topk(ds, query: np.ndarray, k: int, id_col: str = "vec_id",
                     emb_col: str = "embedding", extra_cols: tuple = ()):
    """Exact top-k rows by cosine similarity to ``query``.

    Partial top-k per block (vectorized argpartition) → global
    sort+limit over ≤ n_blocks*k candidate rows (small)."""
    q_ref = ray.put(np.asarray(query, dtype=np.float64))

    def partial(batch: pa.Table) -> pa.Table:
        q = ray.get(q_ref)
        mat = _as_matrix(batch[emb_col])
        if mat.shape[0] == 0:
            return pa.Table.from_pydict(
                {id_col: pa.array([], batch[id_col].type),
                 **{c: pa.array([], batch[c].type) for c in extra_cols},
                 "score": pa.array([], pa.float64())}
            )
        scores = _cosine_scores(mat, q)
        kk = min(k, len(scores))
        idx = np.argpartition(-scores, kk - 1)[:kk]
        cols = {id_col: batch[id_col].take(pa.array(idx))}
        for c in extra_cols:
            cols[c] = batch[c].take(pa.array(idx))
        cols["score"] = pa.array(scores[idx], pa.float64())
        return pa.Table.from_pydict(cols)

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .sort(["score", id_col], descending=[True, False])
        .limit(k)
    )


def _hyperplanes(dim: int, n_planes: int, seed: int) -> np.ndarray:
    rng = np.random.RandomState(seed)
    return rng.standard_normal((n_planes, dim))


def _bucket_ids(mat: np.ndarray, planes: np.ndarray) -> np.ndarray:
    bits = (mat @ planes.T) > 0
    return (bits.astype(np.uint32) << np.arange(planes.shape[0], dtype=np.uint32)).sum(axis=1)


def hyperplane_buckets(ds, *, dim: int, n_planes: int = 8, seed: int = 42,
                       id_col: str = "vec_id", emb_col: str = "embedding",
                       extra_cols: tuple = ()):
    """Append a ``bucket`` column (random-hyperplane LSH, 2^n_planes ids)."""
    planes_ref = ray.put(_hyperplanes(dim, n_planes, seed))

    def assign(batch: pa.Table) -> pa.Table:
        planes = ray.get(planes_ref)
        mat = _as_matrix(batch[emb_col])
        buckets = (
            _bucket_ids(mat, planes) if mat.shape[0] else np.array([], dtype=np.uint32)
        )
        cols = {id_col: batch[id_col], emb_col: batch[emb_col]}
        for c in extra_cols:
            cols[c] = batch[c]
        cols["bucket"] = pa.array(buckets.astype(np.int64), pa.int64())
        return pa.Table.from_pydict(cols)

    return ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)


def lsh_topk(ds, query: np.ndarray, k: int, *, dim: int, n_planes: int = 8,
             seed: int = 42, id_col: str = "vec_id", emb_col: str = "embedding",
             extra_cols: tuple = ()):
    """Approximate top-k: score only vectors whose bucket is the query's or
    one bit away (n_planes+1 of 2^n_planes buckets probed)."""
    planes = _hyperplanes(dim, n_planes, seed)
    q = np.asarray(query, dtype=np.float64)
    qb = int(_bucket_ids(q.reshape(1, -1), planes)[0])
    probe = {qb} | {qb ^ (1 << i) for i in range(n_planes)}
    bucketed = hyperplane_buckets(
        ds, dim=dim, n_planes=n_planes, seed=seed,
        id_col=id_col, emb_col=emb_col, extra_cols=extra_cols,
    )
    import pyarrow.compute as pc

    cand = bucketed.map_batches(
        lambda t: t.filter(pc.is_in(t["bucket"], pa.array(sorted(probe), pa.int64()))),
        batch_format="pyarrow",
    ).drop_columns(["bucket"])
    return brute_force_topk(cand, q, k, id_col=id_col, emb_col=emb_col,
                            extra_cols=extra_cols)


def multi_query_topk(ds, queries: np.ndarray, query_ids, k: int, *,
                     id_col: str = "vec_id", emb_col: str = "embedding",
                     extra_cols: tuple = ()):
    """Batched exact cosine top-k for MANY queries in one corpus pass —
    the kernel behind semantic decontamination (flag training docs too
    close to any benchmark item, Brown et al. 2020 §C generalized to
    embeddings) and batched retrieval-style eval.

    ``queries`` is a (B, d) matrix with ``query_ids`` (length B) — the
    SMALL, fixed side (a benchmark set); it ships once via ``ray.put``
    and every block does ONE (n, d) @ (d, B) matmul, then a vectorized
    per-column argpartition — per-block cost is k·B candidate rows, so
    the merge exchange is bounded by n_blocks·k·B, never the corpus.
    Final per-query top-k is a query-keyed partition reduce (nlargest),
    emitting (query_id, rank, id, *extra_cols) with rank 1..k ordered by
    (score desc, id asc) — float scores stay internal so the output is
    exactly hash-comparable against the SQL twin's row_number().

    → Dataset(query_id, rank, id, *extra_cols), sorted (query_id, rank).
    """
    qmat = np.asarray(queries, dtype=np.float64)
    qn = np.linalg.norm(qmat, axis=1)
    qn[qn == 0] = 1.0
    q_ref = ray.put(qmat / qn[:, None])
    qids = np.asarray(query_ids)

    def partial(batch: pa.Table) -> pa.Table:
        qm = ray.get(q_ref)  # (B, d), rows unit-norm
        mat = _as_matrix(batch[emb_col])
        empty = {
            "query_id": pa.array([], pa.array(qids[:0]).type),
            id_col: pa.array([], batch[id_col].type),
            **{c: pa.array([], batch[c].type) for c in extra_cols},
            "score": pa.array([], pa.float64()),
        }
        if mat.shape[0] == 0 or qm.shape[0] == 0:
            return pa.Table.from_pydict(empty)
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0] = 1.0
        scores = (mat @ qm.T) / norms[:, None]  # (n, B)
        kk = min(k, scores.shape[0])
        idx = np.argpartition(-scores, kk - 1, axis=0)[:kk]  # (kk, B)
        flat = idx.T.ravel()  # query-major
        ids = batch[id_col].to_numpy(zero_copy_only=False)[flat]
        cols = {
            "query_id": pa.array(np.repeat(qids, kk)),
            id_col: pa.array(ids),
            "score": pa.array(
                np.take_along_axis(scores, idx, axis=0).T.ravel(),
                pa.float64()),
        }
        for c in extra_cols:
            cols[c] = pa.array(
                batch[c].to_numpy(zero_copy_only=False)[flat])
        return pa.Table.from_pydict(
            {n: cols.get(n, empty[n]) for n in
             ("query_id", id_col, *extra_cols, "score")})

    cands = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True)

    def per_query(part: pd.DataFrame) -> pd.DataFrame:
        part = part.sort_values(["score", id_col],
                                ascending=[False, True], kind="stable")
        top = part.groupby("query_id", as_index=False, sort=False).head(k)
        top = top.sort_values(["query_id", "score", id_col],
                              ascending=[True, False, True], kind="stable")
        top["rank"] = top.groupby("query_id").cumcount() + 1
        cols = ["query_id", "rank", id_col, *extra_cols]
        return top[cols].astype({"rank": "int64"})

    from ..state.groupby import partition_reduce

    return partition_reduce(cands, ["query_id"], per_query,
                            num_partitions=8).sort(
        ["query_id", "rank"])


def multi_query_topk_sql(table: str, bench_pred: str, k: int, *,
                         id_col: str = "vec_id", emb_col: str = "embedding",
                         extra_cols: tuple = ()) -> str:
    """DuckDB twin of :func:`multi_query_topk` where the query set is the
    ``bench_pred`` rows of ``table`` and the corpus is the rest —
    ``list_cosine_similarity`` + ``row_number()`` per query (same
    (score desc, id asc) order as the engine's rank)."""
    extras = "".join(f", c.{c}" for c in extra_cols)
    out_extras = "".join(f", {c}" for c in extra_cols)
    return f"""
        WITH b AS (SELECT {id_col} AS query_id, {emb_col} AS qe
                   FROM {table} WHERE {bench_pred}),
        c AS (SELECT * FROM {table} WHERE NOT ({bench_pred})),
        s AS (SELECT b.query_id, c.{id_col}{extras},
                     list_cosine_similarity(c.{emb_col}, b.qe) AS score
              FROM c CROSS JOIN b)
        SELECT query_id, "rank", {id_col}{out_extras} FROM (
            SELECT query_id, {id_col}{out_extras},
                   ROW_NUMBER() OVER (PARTITION BY query_id
                                      ORDER BY score DESC, {id_col})
                       AS "rank"
            FROM s) WHERE "rank" <= {k}
    """


def embedding_near_dup_pairs(ds, *, dim: int, threshold: float = 0.95,
                             n_planes: int = 10, seed: int = 42,
                             id_col: str = "vec_id", emb_col: str = "embedding",
                             pair_cap: int = 500):
    """Embedding-cosine near-duplicate pairs: bucket by hyperplane LSH,
    all-pairs cosine within bucket (capped), keep cos ≥ threshold.
    Approximate recall (bucket boundaries) — by design; exact variant is a
    full self-join, intractable at corpus scale.

    Each vector lands in exactly ONE bucket (single hyperplane table), so a
    pair can only arise in one bucket — the output is duplicate-free by
    construction; no post-hoc pair dedup shuffle. Buckets are co-located
    with partition_reduce (one vectorized pandas call per hash partition,
    not one Ray dispatch per bucket); pair scoring is one matmul +
    triu_indices per bucket, no Python i/j loop."""
    from ..state.groupby import partition_reduce

    bucketed = hyperplane_buckets(
        ds, dim=dim, n_planes=n_planes, seed=seed, id_col=id_col, emb_col=emb_col
    )

    def pairs_partition(part: pd.DataFrame) -> pd.DataFrame:
        # drop singleton buckets vectorized before any per-bucket work
        part = part[part.groupby("bucket")["bucket"].transform("size") > 1]
        frames = []
        for _, g in part.groupby("bucket", sort=False):
            g = g.sort_values(id_col).head(pair_cap)
            n = len(g)
            if n < 2:
                continue
            ids = g[id_col].to_numpy()
            mat = np.asarray(g[emb_col].tolist(), dtype=np.float64)
            norms = np.linalg.norm(mat, axis=1)
            norms[norms == 0] = 1.0
            mat = mat / norms[:, None]
            sims = mat @ mat.T
            iu, ju = np.triu_indices(n, k=1)
            keep = sims[iu, ju] >= threshold
            if keep.any():
                frames.append(pd.DataFrame({
                    "id_a": ids[iu[keep]],
                    "id_b": ids[ju[keep]],
                    "cosine": np.round(sims[iu[keep], ju[keep]], 6),
                }))
        if not frames:
            ids = part[id_col].iloc[:0]  # the input's id type, no rows
            return pd.DataFrame({"id_a": ids, "id_b": ids,
                                 "cosine": np.empty(0)})
        return pd.concat(frames, ignore_index=True)

    return partition_reduce(bucketed, ["bucket"], pairs_partition)


def _kmeans(sample: np.ndarray, n_lists: int, seed: int, iters: int = 10) -> np.ndarray:
    """Seeded mini k-means on L2-normalized vectors (cosine ≡ dot). Fixed
    iteration count + deterministic init → identical centroids every run."""
    if len(sample) == 0:
        raise ValueError(
            "no vectors to train IVF on (empty or fully-filtered dataset)"
        )
    rng = np.random.RandomState(seed)
    sample = sample / np.maximum(np.linalg.norm(sample, axis=1, keepdims=True), 1e-12)
    cent = sample[rng.choice(len(sample), size=min(n_lists, len(sample)), replace=False)].copy()
    for _ in range(iters):
        assign = np.argmax(sample @ cent.T, axis=1)
        for c in range(len(cent)):
            members = sample[assign == c]
            if len(members):
                m = members.mean(axis=0)
                cent[c] = m / max(float(np.linalg.norm(m)), 1e-12)
    return cent


def train_ivf_centroids(ds, *, dim: int, n_lists: int = 64, sample_rows: int = 20_000,
                        seed: int = 42, emb_col: str = "embedding") -> np.ndarray:
    """Train the coarse quantizer on a BOUNDED sample (first sample_rows
    via ``ds.limit`` — deterministic, no full scan): the train-small step
    of IVF. At 100 TB the sample is still ``sample_rows`` vectors."""
    from ..state.joins import _collect_arrow

    sample_tbl = _collect_arrow(ds.limit(sample_rows))
    mat = _as_matrix(sample_tbl[emb_col])
    return _kmeans(mat, n_lists, seed)


def ivf_assign(ds, centroids: np.ndarray, *, id_col: str = "vec_id",
               emb_col: str = "embedding", extra_cols: tuple = ()):
    """Append ``ivf_list`` = argmax cosine vs broadcast centroids — one
    matmul per batch, centroids ``ray.put`` once."""
    cent_ref = ray.put(np.ascontiguousarray(centroids))

    def assign(batch: pa.Table) -> pa.Table:
        cent = ray.get(cent_ref)
        mat = _as_matrix(batch[emb_col])
        if mat.shape[0]:
            mat = mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
            lists = np.argmax(mat @ cent.T, axis=1).astype(np.int64)
        else:
            lists = np.array([], dtype=np.int64)
        cols = {id_col: batch[id_col], emb_col: batch[emb_col]}
        for c in extra_cols:
            cols[c] = batch[c]
        cols["ivf_list"] = pa.array(lists, pa.int64())
        return pa.Table.from_pydict(cols)

    return ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)


def ivf_topk(ds, query: np.ndarray, k: int, *, dim: int, n_lists: int = 64,
             nprobe: int = 8, sample_rows: int = 20_000, seed: int = 42,
             id_col: str = "vec_id", emb_col: str = "embedding",
             extra_cols: tuple = ()):
    """Approximate top-k via IVF: score only vectors whose list is among
    the query's ``nprobe`` nearest centroids. Recall is measured against
    brute force in tests, never assumed."""
    import pyarrow.compute as pc

    cent = train_ivf_centroids(
        ds, dim=dim, n_lists=n_lists, sample_rows=sample_rows, seed=seed,
        emb_col=emb_col,
    )
    q = np.asarray(query, dtype=np.float64)
    qn = q / max(float(np.linalg.norm(q)), 1e-12)
    probe = np.argsort(-(cent @ qn))[: min(nprobe, len(cent))]
    assigned = ivf_assign(ds, cent, id_col=id_col, emb_col=emb_col,
                          extra_cols=extra_cols)
    cand = assigned.map_batches(
        lambda t: t.filter(
            pc.is_in(t["ivf_list"], pa.array(sorted(int(p) for p in probe), pa.int64()))
        ),
        batch_format="pyarrow",
    ).drop_columns(["ivf_list"])
    return brute_force_topk(cand, q, k, id_col=id_col, emb_col=emb_col,
                            extra_cols=extra_cols)


def label_centroids(ds, label_col: str, vec_col: str, dim: int, *,
                    round_to: int = 6):
    """Per-label embedding centroid in long form (label, dim, avg_v) —
    the grouped VECTOR aggregate (class prototypes / cluster centers for
    IVF seeding or nearest-class-mean labeling). Per-batch partial = one
    np.vstack + index_add per label (O(batch) flops, one partial row per
    (label, batch) — the exchange never carries raw vectors), final =
    grouped sum + divide, exploded to one row per (label, dim) so the
    output is SQL-comparable."""
    import pandas as pd

    from ..state.groupby import partition_reduce

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        vecs = np.vstack(df[vec_col].to_numpy()).astype(np.float64)
        labels, inv = np.unique(df[label_col].to_numpy(), return_inverse=True)
        sums = np.zeros((len(labels), dim))
        np.add.at(sums, inv, vecs)
        counts = np.bincount(inv, minlength=len(labels))
        return pd.DataFrame({
            label_col: labels,
            "n": counts.astype("int64"),
            "s": [row.tobytes() for row in sums],
        })

    def final(part: pd.DataFrame) -> pd.DataFrame:
        rows_l, rows_d, rows_v = [], [], []
        for lab, g in part.groupby(label_col, sort=False):
            tot = np.zeros(dim)
            for payload in g["s"]:
                tot += np.frombuffer(payload, dtype=np.float64)
            avg = np.round(tot / g["n"].sum(), round_to)
            rows_l.extend([lab] * dim)
            rows_d.extend(range(dim))
            rows_v.extend(avg.tolist())
        return pd.DataFrame({
            label_col: pd.array(rows_l),
            "dim": pd.array(rows_d, dtype="int64"),
            "avg_v": pd.array(rows_v, dtype="float64"),
        })

    return partition_reduce(
        ds.map_batches(partial, batch_format="pandas"), [label_col], final,
    )


def centroid_distance_stats(ds, label_col: str, vec_col: str, dim: int, *,
                            round_to: int = 6,
                            max_labels: int = 100_000):
    """Per-label embedding outlier diagnostics: distance of every vector
    to its own label's centroid, reduced to (label, n_vecs, avg_dist,
    max_dist) — the embedding-space quality gate a curation pipeline runs
    to spot mislabeled / off-distribution documents before training
    (nearest-class-mean outlier scoring; the distance-to-prototype half
    of SemDeDup-style embedding filtering).

    Shape: centroids come from :func:`label_centroids` (vector-sum
    partials, rounded to ``round_to`` so both engine and SQL twin measure
    from IDENTICAL prototype coordinates), collected driver-side (O(labels
    × dim) — size-guarded) and broadcast once via ``ray.put``; pass 2 is
    one vectorized distance matmul per batch emitting per-(label, batch)
    partials (n, Σ dist, max dist); a label-keyed exchange merges them.
    Raw vectors never shuffle.
    """
    from ..state.groupby import collect_pandas, group_agg

    cent_long = label_centroids(ds, label_col, vec_col, dim,
                                round_to=round_to)
    cdf = collect_pandas(cent_long, [label_col, "dim", "avg_v"])
    n_labels = cdf[label_col].nunique()
    if n_labels > max_labels:
        raise ValueError(
            f"centroid_distance_stats: {n_labels} labels exceeds "
            f"max_labels={max_labels}; the centroid table no longer fits "
            "the driver — raise the bound or bucket labels first")
    cdf = cdf.sort_values([label_col, "dim"])
    labels = cdf[label_col].drop_duplicates().to_numpy()
    cmat = cdf["avg_v"].to_numpy(dtype="float64").reshape(len(labels), dim)
    index = {lab: i for i, lab in enumerate(labels)}
    cent_ref = ray.put((index, cmat))

    def distances(df: pd.DataFrame) -> pd.DataFrame:
        idx, cm = ray.get(cent_ref)
        vecs = np.vstack(df[vec_col].to_numpy()).astype(np.float64)
        # vectorized label → centroid-row codes (no per-row dict lookups)
        rows = pd.Categorical(df[label_col], categories=list(idx)).codes
        dist = np.sqrt(((vecs - cm[rows]) ** 2).sum(axis=1))
        return pd.DataFrame({label_col: df[label_col], "d": dist})

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            label_col: g[label_col],
            "n_vecs": g["n_vecs"],
            "avg_dist": np.round(g["s"] / g["n_vecs"], round_to),
            "max_dist": np.round(g["m"], round_to),
        })

    return group_agg(
        ds.map_batches(distances, batch_format="pandas"), [label_col],
        {"n_vecs": ("d", "size"), "s": ("d", "sum"), "m": ("d", "max")},
        finish=finish, num_partitions=4)


def centroid_distance_sql(table: str, label_col: str, vec_col: str,
                          round_to: int = 6) -> str:
    """DuckDB twin of :func:`centroid_distance_stats`: same rounded
    centroid (ROUND(AVG(x), round_to) per (label, dim) — the rounding is
    part of the operator contract, making both sides measure from the
    same prototype), same euclidean distance, same final rounding."""
    return f"""
        WITH e AS (
            SELECT vec_id, {label_col}, u.i AS i,
                   CAST({vec_col}[u.i] AS DOUBLE) AS x
            FROM {table},
                 UNNEST(generate_series(1, len({vec_col}))) AS u(i)
        ),
        cent AS (
            SELECT {label_col}, i, ROUND(AVG(x), {round_to}) AS c
            FROM e GROUP BY 1, 2
        ),
        d AS (
            SELECT e.vec_id, e.{label_col},
                   SQRT(SUM((e.x - cent.c) * (e.x - cent.c))) AS dist
            FROM e JOIN cent USING ({label_col}, i)
            GROUP BY 1, 2
        )
        SELECT {label_col}, COUNT(*) AS n_vecs,
               ROUND(AVG(dist), {round_to}) AS avg_dist,
               ROUND(MAX(dist), {round_to}) AS max_dist
        FROM d GROUP BY 1
    """


_KMEANS_SCALE = float(1 << 32)  # fixed-point quantum for deterministic sums


def kmeans(ds, id_col: str, vec_col: str, dim: int, k: int, *,
           iters: int = 10, seed: int = 42,
           driver_max_bytes: int = 128 << 20):
    """Distributed Lloyd's k-means with BIT-DETERMINISTIC updates.

    Float summation is order-dependent, so a naive distributed centroid
    update changes in the last ulp with block layout — and argmin flips
    can then cascade into different clusterings per run. Here every
    per-batch partial quantizes vector sums to fixed-point int64
    (scale 2^32); integer addition is exactly associative, so the merged
    centroid is IDENTICAL at any parallelism, any arrival order — the
    same determinism contract the rest of the engine keeps, which is what
    lets the result be golden-frozen. Precision cost: ~2^-32 per element
    (far below k-means' own tolerance). Overflow bound: rows-per-cluster ×
    max|v| < 2^30 per partial — raise ``_KMEANS_SCALE`` awareness before
    pointing this at unnormalized features.

    Shape per iteration: broadcast centroids (k × dim floats) → one
    argmin-matmul assignment per batch → k quantized partial rows per
    batch → one partition_reduce. Raw vectors never re-shuffle.
    Init: the k rows with the smallest md5(seed‖id) — content-addressed,
    cluster-shape independent. Empty clusters keep their centroid.

    Returns (centroids: np.ndarray [k, dim], assign_fn) where
    ``assign_fn(ds)`` labels a dataset with ``cluster``.

    Tiering (the standard gate discipline): a vector table whose metadata
    size fits ``driver_max_bytes`` runs the iterations on the driver with
    the SAME argmax + fixed-point-int64-sum kernels — integer addition is
    exactly associative, so the two tiers are BIT-IDENTICAL (parity-
    tested), and 10 distributed rounds over a vocab-sized table is pure
    pipeline overhead (~1 s/round of scheduling for µs of matmul). Pass
    ``driver_max_bytes=0`` to force the distributed tier. Labeling is
    always a distributed map.
    """
    import hashlib

    import pandas as pd
    import ray

    from ..state.groupby import partition_reduce

    def _hash_key(v) -> str:
        return hashlib.md5(f"k{seed}\x1f{v}".encode()).hexdigest()

    if driver_max_bytes:
        from ..state.joins import _meta_size_bytes

        sz = _meta_size_bytes(ds)
        if sz is not None and sz <= driver_max_bytes:
            centroids = _kmeans_driver(ds, id_col, vec_col, dim, k,
                                       iters=iters, seed=seed)
            return centroids, _make_label_fn(centroids, id_col, vec_col)

    def seed_score(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({
            "__h": [_hash_key(v) for v in df[id_col]],
            id_col: df[id_col],
            vec_col: df[vec_col],
        })
        return out.sort_values("__h").head(k)

    seed_rows = (
        ds.map_batches(seed_score, batch_format="pandas")
        .sort("__h").limit(k).to_pandas()
    )
    centroids = np.vstack(seed_rows[vec_col].to_numpy()).astype(np.float64)

    def make_assign(cent_ref):
        def assign_partial(df: pd.DataFrame) -> pd.DataFrame:
            cent = ray.get(cent_ref)
            x = np.vstack(df[vec_col].to_numpy()).astype(np.float64)
            # argmin ||x-c||^2 == argmax (x·c - |c|^2/2); ties → lowest id
            scores = x @ cent.T - 0.5 * (cent * cent).sum(axis=1)
            lab = np.argmax(scores, axis=1)
            q = np.round(x * _KMEANS_SCALE).astype(np.int64)
            rows = []
            for c in np.unique(lab):
                m = lab == c
                rows.append({
                    "cluster": int(c),
                    "n": int(m.sum()),
                    "qsum": q[m].sum(axis=0, dtype=np.int64).tobytes(),
                })
            return pd.DataFrame(rows)

        return assign_partial

    for _ in range(iters):
        cent_ref = ray.put(centroids)

        def merge(part: pd.DataFrame) -> pd.DataFrame:
            out = []
            for c, g in part.groupby("cluster", sort=False):
                tot = np.zeros(dim, dtype=np.int64)
                for payload in g["qsum"]:
                    tot += np.frombuffer(payload, dtype=np.int64)
                out.append({"cluster": int(c), "n": int(g["n"].sum()),
                            "qsum": tot.tobytes()})
            return pd.DataFrame(out)

        stats = partition_reduce(
            ds.map_batches(make_assign(cent_ref), batch_format="pandas"),
            ["cluster"], merge,
        ).to_pandas()
        new_c = centroids.copy()
        for _, r in stats.iterrows():
            tot = np.frombuffer(r["qsum"], dtype=np.int64).astype(np.float64)
            new_c[int(r["cluster"])] = tot / r["n"] / _KMEANS_SCALE
        centroids = new_c

    return centroids, _make_label_fn(centroids, id_col, vec_col)


def _make_label_fn(centroids: np.ndarray, id_col: str, vec_col: str):
    """Distributed labeling map shared by both kmeans tiers (centroids
    broadcast once via ray.put)."""
    import pandas as pd
    import ray

    final_ref = ray.put(centroids)

    def assign_fn(data):
        def label(df: pd.DataFrame) -> pd.DataFrame:
            cent = ray.get(final_ref)
            x = np.vstack(df[vec_col].to_numpy()).astype(np.float64)
            scores = x @ cent.T - 0.5 * (cent * cent).sum(axis=1)
            return pd.DataFrame({
                id_col: df[id_col],
                "cluster": np.argmax(scores, axis=1).astype("int64"),
            })

        return data.map_batches(label, batch_format="pandas")

    return assign_fn


def _kmeans_driver(ds, id_col: str, vec_col: str, dim: int, k: int, *,
                   iters: int, seed: int) -> np.ndarray:
    """Driver tier of :func:`kmeans`: one gated collect, then the SAME
    md5 seeding, argmax assignment and fixed-point int64 centroid sums —
    integer sums are associative, so the result is bit-identical to the
    distributed tier at any layout (parity-tested in tests/test_kmeans)."""
    import hashlib

    from ..state.groupby import collect_pandas

    df = collect_pandas(ds, [id_col, vec_col])
    if not len(df):
        raise ValueError("kmeans needs a non-empty dataset")
    keys = [hashlib.md5(f"k{seed}\x1f{v}".encode()).hexdigest()
            for v in df[id_col]]
    order = np.argsort(np.array(keys, dtype=object), kind="stable")[:k]
    x = np.vstack(df[vec_col].to_numpy()).astype(np.float64)
    centroids = x[order].copy()
    q = np.round(x * _KMEANS_SCALE).astype(np.int64)
    for _ in range(iters):
        scores = x @ centroids.T - 0.5 * (centroids * centroids).sum(axis=1)
        lab = np.argmax(scores, axis=1)
        for c in np.unique(lab):
            m = lab == c
            tot = q[m].sum(axis=0, dtype=np.int64).astype(np.float64)
            centroids[int(c)] = tot / int(m.sum()) / _KMEANS_SCALE
    return centroids


def kmeans_cluster_sizes(ds, id_col: str, vec_col: str, dim: int, k: int, *,
                         iters: int = 10, seed: int = 42, round_to: int = 6):
    """k-means driver query shape: (cluster, size, centroid_norm) — small,
    deterministic, golden-freezable."""
    from ..state.groupby import group_agg

    centroids, assign_fn = kmeans(ds, id_col, vec_col, dim, k,
                                  iters=iters, seed=seed)
    sizes = group_agg(assign_fn(ds), ["cluster"], {"size": (id_col, "size")},
                      num_partitions=4).to_pandas()
    norms = np.sqrt((centroids * centroids).sum(axis=1)).round(round_to)
    sizes["centroid_norm"] = sizes["cluster"].map(
        lambda c: float(norms[int(c)]))
    return sizes[["cluster", "size", "centroid_norm"]].sort_values(
        "cluster").reset_index(drop=True)


def semantic_dedup(ds, id_col: str, vec_col: str, dim: int, k: int, *,
                   threshold: float = 0.4, iters: int = 10, seed: int = 42,
                   max_cluster_rows: int = 200_000):
    """SemDeDup-style semantic deduplication (Abbas et al. 2023,
    "SemDeDup: Data-efficient learning at web-scale through semantic
    deduplication"): k-means-cluster the embedding space, then mark
    within-cluster near-duplicates. Deterministic keep rule: a row is a
    duplicate iff an EARLIER-id row in its cluster has cosine >=
    ``threshold`` (id order, not centroid distance, so the output is
    reproducible and golden-freezable — kmeans itself is bit-deterministic
    via fixed-point updates, and each cluster is scored whole in one
    group, so the result is identical at any parallelism).

    Scale shape: the all-pairs gram matrix is confined to one cluster —
    the entire point of clustering first; k is chosen so clusters are
    small (SemDeDup uses k≈10^4-10^5 at web scale). A cluster above
    ``max_cluster_rows`` raises LOUDLY instead of building an O(n²)
    matrix (same guard discipline as ``asof_join.max_partition_rows``).
    Vectors shuffle once, keyed by cluster.

    Returns (id_col, cluster, kept) for every input row.
    """
    import ray

    from ..state.groupby import partition_reduce

    centroids, _ = kmeans(ds, id_col, vec_col, dim, k, iters=iters, seed=seed)
    cent_ref = ray.put(centroids)

    def label(df: pd.DataFrame) -> pd.DataFrame:
        cent = ray.get(cent_ref)
        x = np.vstack(df[vec_col].to_numpy()).astype(np.float64)
        scores = x @ cent.T - 0.5 * (cent * cent).sum(axis=1)
        return pd.DataFrame({
            id_col: df[id_col].to_numpy(),
            "cluster": np.argmax(scores, axis=1).astype("int64"),
            vec_col: df[vec_col].to_numpy(),
        })

    labeled = ds.map_batches(label, batch_format="pandas")

    def dedup(part: pd.DataFrame) -> pd.DataFrame:
        out = []
        for c, g in part.groupby("cluster", sort=False):
            if len(g) > max_cluster_rows:
                raise ValueError(
                    f"semantic_dedup cluster {int(c)} has {len(g)} rows "
                    f"(> max_cluster_rows={max_cluster_rows}) — raise k so "
                    "clusters stay small, or raise the guard explicitly"
                )
            g = g.sort_values(id_col)
            x = np.vstack(g[vec_col].to_numpy()).astype(np.float64)
            nrm = np.linalg.norm(x, axis=1)
            nrm[nrm == 0] = 1.0
            xn = x / nrm[:, None]
            gram = xn @ xn.T
            dup = np.triu(gram >= threshold, k=1).any(axis=0)
            out.append(pd.DataFrame({
                id_col: g[id_col].to_numpy(),
                "cluster": np.full(len(g), int(c), dtype="int64"),
                "kept": ~dup,
            }))
        return pd.concat(out, ignore_index=True)

    return partition_reduce(labeled, ["cluster"], dedup)
