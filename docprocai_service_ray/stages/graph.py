"""Graph analytics over the materialized knowledge graph.

The reference stores its KG in Postgres and answers graph-shaped questions
(entity neighborhoods, link counts) with SQL over the ``entity`` /
``relation`` tables (reference: SegmentDbConnector.py's entity queries and
the GraphQL ``semanticSearch``/entity endpoints). Here the triple store is
a Parquet-backed Dataset, so the same questions become Ray Data
aggregations and iterative joins:

- :func:`entity_degree` — in/out/total degree per entity. One per-batch
  partial count + one grouped sum (partition_reduce): a single all-to-all
  over (entity, partial_count) rows, never raw triples.
- :func:`pagerank` — damped power iteration. Each iteration is ONE join
  of the (src, dst, out_deg)-edge table against the current O(V) rank
  table plus one grouped sum; ranks (not edges) are materialized between
  iterations, so per-iteration state is O(entities), while the edge scan
  streams. The rank side rides hash_join's auto tier: broadcast while it
  fits 64 MB, shuffle join beyond — the 10^12-doc path needs no code
  change.
- :func:`khop_neighborhood` — BFS frontier expansion from one seed.
  The frontier/visited sets live on the driver because the output IS the
  neighborhood (a query-surface result, bounded by the answer size, like
  the reference's per-entity GraphQL lookups); each hop is one broadcast
  semi-join filter over the streaming edge table. Whole-graph traversal
  (unbounded output) belongs to :func:`pagerank`-style iterated joins,
  not this helper.

Determinism: degree counts are exact integers; pagerank rounds the final
ranks (float sums associate differently across block orders, so only the
rounded output is stable run-to-run — tests additionally check the raw
values against a dense numpy reference at 1e-9).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from ..state.groupby import collect_pandas, distinct_rows, key_hash, partition_reduce
from ..state.joins import hash_join
from ..state.tier import choose_tier
from .canonicalize import DRIVER_EDGES_MAX


def triple_edges(triples, *, src: str = "subject_id", dst: str = "object_id",
                 num_partitions: int | None = None):
    """Distinct directed (src, dst) edges from a triple Dataset (predicates
    collapsed — multigraph edges count once, the standard PageRank/BFS
    graph view)."""
    edges = triples.map_batches(
        lambda t: t.select([src, dst]).rename_columns(["src", "dst"]),
        batch_format="pyarrow",
    )
    return distinct_rows(edges, ["src", "dst"], num_partitions=num_partitions)


def _node_set(ds, a: str, b: str, col: str, num_partitions: int | None):
    """Distinct values of columns ``a`` and ``b``, as strings, in one
    column ``col``."""
    return distinct_rows(ds.map_batches(
        lambda t: pa.table({col: pa.concat_arrays(
            [t[a].cast(pa.string()).combine_chunks(),
             t[b].cast(pa.string()).combine_chunks()])}),
        batch_format="pyarrow"), [col], num_partitions=num_partitions)


def _gated_edges(triples, weight_col: str | None, num_partitions: int | None,
                 what: str):
    """``choose_tier`` over the edge view the rank kernels iterate: the
    distinct (src, dst) edges, or with ``weight_col`` every row as
    (src, dst, w) — multiplicity matters there, so no distinct pass, and
    out-degree becomes the per-source WEIGHT SUM (w=1 reduces to the
    unweighted math)."""
    if weight_col is None:
        edges = triple_edges(triples, num_partitions=num_partitions)
    else:
        edges = triples.map_batches(
            lambda t: t.select(["subject_id", "object_id", weight_col])
            .rename_columns(["src", "dst", "w"]),
            batch_format="pyarrow",
        )
    return choose_tier(edges, DRIVER_EDGES_MAX, what=what)


def entity_degree(triples, *, src: str = "subject_id", dst: str = "object_id",
                  num_partitions: int | None = None):
    """Per-entity out/in/total triple counts.

    Phase 0 counts each batch's subjects and objects locally (two pandas
    value_counts), so the shuffle moves one (entity, out_n, in_n) row per
    distinct entity per batch — head entities (the KG's skew axis) never
    concentrate raw rows in one partition.
    """

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        o = df[src].value_counts()
        i = df[dst].value_counts()
        ent = o.index.union(i.index)
        return pd.DataFrame(
            {
                "entity": ent,
                "out_deg": o.reindex(ent, fill_value=0).astype("int64").values,
                "in_deg": i.reindex(ent, fill_value=0).astype("int64").values,
            }
        )

    def reduce(part: pd.DataFrame) -> pd.DataFrame:
        out = part.groupby("entity", as_index=False).agg(
            out_deg=("out_deg", "sum"), in_deg=("in_deg", "sum")
        )
        out["degree"] = out["out_deg"] + out["in_deg"]
        return out

    partials = triples.map_batches(partial, batch_format="pandas")
    return partition_reduce(partials, ["entity"], reduce,
                            num_partitions=num_partitions)


def _ranks_init(nodes, n: int):
    r0 = 1.0 / n

    def init(t: pa.Table) -> pa.Table:
        return t.append_column("rank", pa.array([r0] * len(t), pa.float64()))

    return nodes.map_batches(init, batch_format="pyarrow")


def _score_table(nodes, **scores):
    """(entity, *scores) as a Dataset, typed float64 scores even when empty."""
    return ray.data.from_arrow(pa.table(
        {"entity": pa.array(nodes, pa.string()),
         **{k: pa.array(v, pa.float64()) for k, v in scores.items()}}))


def _edge_index(edges_df: pd.DataFrame):
    """(nodes, src, dst, w) for the driver kernels: sorted node list and
    per-edge index/weight arrays. Edges are sorted first so float
    accumulation order (hence the rounded output) is EXACTLY reproducible
    regardless of block arrival order. Takes a pandas (src, dst[, w])
    frame: driver collection goes through ``to_pandas()`` (Arrow block
    concat), never ``take_all()`` (per-row dict conversion, ~3 orders
    slower)."""
    ws = (edges_df["w"].astype(float).tolist() if "w" in edges_df.columns
          else [1.0] * len(edges_df))
    pairs = sorted(zip(edges_df["src"].tolist(), edges_df["dst"].tolist(), ws))
    nodes = sorted({s for s, _, _ in pairs} | {d for _, d, _ in pairs})
    idx = {e: i for i, e in enumerate(nodes)}
    src = np.fromiter((idx[s] for s, _, _ in pairs), dtype=np.int64)
    dst = np.fromiter((idx[d] for _, d, _ in pairs), dtype=np.int64)
    w = np.fromiter((x for _, _, x in pairs), dtype=np.float64)
    return nodes, src, dst, w


def _pagerank_driver(edges_df: pd.DataFrame, damping: float, iters: int,
                     round_to: int | None):
    """Sparse power iteration on the driver for vocab-sized graphs —
    O(E) numpy scatter-adds per round over :func:`_edge_index` arrays."""
    nodes, src, dst, w = _edge_index(edges_df)
    n = len(nodes)
    if n == 0:
        return _score_table([], rank=[])
    out = np.bincount(src, weights=w, minlength=n).astype(np.float64)
    r = np.full(n, 1.0 / n)
    for _ in range(iters):
        contrib = np.zeros(n)
        np.add.at(contrib, dst, r[src] * w / out[src])
        dangling = r[out == 0].sum()
        r = (1.0 - damping) / n + damping * (contrib + dangling / n)
    if round_to is not None:
        r = r.round(round_to)
    return _score_table(nodes, rank=r)


def _copartition_edge_buckets(edges_deg, num_partitions: int, bucket_dir: str):
    """One-time co-partitioning of the static edge side (VERDICT r2 #6):
    bucket (entity=src, dst, out_deg) by the same ``key_hash`` the rank
    tagging uses and land one Parquet directory per bucket. Every PageRank
    iteration then shuffles only the O(V) rank table to its bucket — the
    edge table is read in place (per-bucket, node-local page cache after
    the first iteration; on a multi-node cluster pass shared storage as
    ``bucket_dir``), never re-bucketed per iteration."""

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(__bucket=key_hash(df, ["entity"]) % num_partitions)

    edges_deg.map_batches(tag, batch_format="pandas").write_parquet(
        bucket_dir, partition_cols=["__bucket"]
    )
    return tag


def _copart_contribs(ranks, tag, bucket_dir: str):
    """One co-partitioned join pass: tag ranks with the shared bucket hash,
    group by bucket, and merge each rank group against ITS pinned edge
    bucket — emits per-bucket partial (entity=dst, s) contribution sums."""

    def merge_bucket(rg: pd.DataFrame) -> pd.DataFrame:
        import glob

        import pyarrow.parquet as pq

        b = int(rg["__bucket"].iloc[0])
        files = sorted(glob.glob(f"{bucket_dir}/__bucket={b}/*.parquet"))
        if not files:
            return pd.DataFrame({"entity": pd.Series(dtype=object),
                                 "s": pd.Series(dtype="float64")})
        e = pd.concat([pq.read_table(f).to_pandas() for f in files],
                      ignore_index=True)
        m = e.merge(rg[["entity", "rank"]], on="entity")
        mw = m["w"] if "w" in m.columns else 1.0
        out = pd.DataFrame({"entity": m["dst"], "s": m["rank"] * mw / m["out_deg"]})
        return out.groupby("entity", as_index=False)["s"].sum()

    return ranks.map_batches(tag, batch_format="pandas").groupby(
        "__bucket"
    ).map_groups(merge_bucket, batch_format="pandas")


def pagerank(triples, *, damping: float = 0.85, iters: int = 20,
             num_partitions: int | None = None, round_to: int | None = 8,
             copartition: bool | None = None, bucket_dir: str | None = None,
             weight_col: str | None = None):
    """Damped PageRank over the distinct-edge view of a triple Dataset.

    Returns a Dataset of (entity, rank) with ranks summing to 1. Dangling
    mass (entities with no out-edges) is redistributed uniformly each
    iteration — the scalar is derived from the contribution total, so no
    extra dangling-node join is needed. ``round_to`` rounds the FINAL
    ranks for cross-run stability (see module docstring); pass None for
    raw floats.

    Size-gated like :func:`connected_components`: a distinct-edge set
    within ``DRIVER_EDGES_MAX`` runs a sparse numpy power iteration
    on the driver (20 distributed rounds over a vocab-sized graph is all
    fixed overhead); the streaming join path engages above the gate and
    is parity-tested against a dense reference at 1e-9.

    ``copartition`` (default auto): while the O(V) rank table fits the
    broadcast cap, each iteration's join rides hash_join's map-side
    broadcast tier (zero shuffle). Above the cap, the edge table is
    bucketed ONCE by entity hash (``_copartition_edge_buckets``) and each
    iteration shuffles only the rank table to its bucket — never the edge
    table, 20×. Pass ``bucket_dir`` on a real cluster (shared storage).
    """
    tier, edges = _gated_edges(triples, weight_col, num_partitions, "pagerank")
    if tier == "driver":
        cols = ["src", "dst"] + (["w"] if weight_col is not None else [])
        return _pagerank_driver(collect_pandas(edges, cols),
                                damping, iters, round_to)

    def _deg_partial(df: pd.DataFrame) -> pd.DataFrame:
        w = df["w"] if "w" in df.columns else 1.0
        return pd.DataFrame({"entity": df["src"], "out_deg": w}).groupby(
            "entity", as_index=False).sum()

    out_deg = partition_reduce(
        edges.map_batches(_deg_partial, batch_format="pandas"),
        ["entity"],
        lambda p: p.groupby("entity", as_index=False)["out_deg"].sum(),
        num_partitions=num_partitions,
    )

    def _rename(t: pa.Table) -> pa.Table:
        names = ["entity", "dst"] + (["w"] if weight_col is not None else [])
        return t.rename_columns(names)

    # (src→entity, dst[, w], out_deg): the static per-iteration join input.
    edges_deg = hash_join(
        edges.map_batches(_rename, batch_format="pyarrow"),
        out_deg, on="entity",
    ).materialize()

    nodes = _node_set(triples, "subject_id", "object_id", "entity",
                      num_partitions).materialize()
    n = nodes.count()
    if n == 0:
        return _score_table([], rank=[])

    ranks = _ranks_init(nodes, n).materialize()

    if copartition is None:
        from ..state.joins import _BROADCAST_MAX_BYTES, _meta_size_bytes

        rb = _meta_size_bytes(ranks)
        copartition = rb is not None and rb > _BROADCAST_MAX_BYTES
    tag = None
    if copartition:
        import tempfile

        if num_partitions is None:  # bucket layout needs a concrete count
            from ..state.joins import auto_buckets

            num_partitions = auto_buckets(edges_deg, default=32)
        bucket_dir = bucket_dir or tempfile.mkdtemp(prefix="raykg_pr_edges_")
        tag = _copartition_edge_buckets(edges_deg, num_partitions, bucket_dir)

    for _ in range(iters):
        if copartition:
            joined = _copart_contribs(ranks, tag, bucket_dir)
        else:
            def _contrib(df: pd.DataFrame) -> pd.DataFrame:
                w = df["w"] if "w" in df.columns else 1.0
                return pd.DataFrame(
                    {"entity": df["dst"], "s": df["rank"] * w / df["out_deg"]}
                ).groupby("entity", as_index=False)["s"].sum()

            joined = hash_join(edges_deg, ranks, on="entity").map_batches(
                _contrib, batch_format="pandas",
            )
        contribs = partition_reduce(
            joined,
            ["entity"],
            lambda p: p.groupby("entity", as_index=False)["s"].sum(),
            num_partitions=num_partitions,
        ).materialize()
        # ranks sum to 1, so mass not re-emitted through an out-edge is
        # exactly the dangling ranks — no dangling-node join needed.
        sent = contribs.sum("s") if contribs.count() else 0.0
        dangling = max(0.0, 1.0 - float(sent or 0.0))
        base = (1.0 - damping) / n + damping * dangling / n

        def renew(df: pd.DataFrame, base=base) -> pd.DataFrame:
            s = df["s"].fillna(0.0) if "s" in df else 0.0
            return pd.DataFrame(
                {"entity": df["entity"], "rank": base + damping * s}
            )

        ranks = hash_join(nodes, contribs, on="entity", how="left").map_batches(
            renew, batch_format="pandas"
        ).materialize()

    if round_to is not None:
        ranks = ranks.map_batches(
            lambda df: df.assign(rank=df["rank"].round(round_to)),
            batch_format="pandas",
        )
    return ranks


def _components_table(comp: dict[str, str]):
    """(entity, component_id, component_size) from a node → label map."""
    from collections import Counter

    nodes = sorted(comp)
    size = Counter(comp.values())
    return ray.data.from_arrow(pa.table({
        "entity": pa.array(nodes, pa.string()),
        "component_id": pa.array([comp[n] for n in nodes], pa.string()),
        "component_size": pa.array([size[comp[n]] for n in nodes], pa.int64()),
    }))


def connected_components(triples, cfg=None, *, num_partitions: int | None = None):
    """Weakly-connected components of the entity graph: (entity,
    component_id, component_size), component_id = lexicographic-min member.

    Size-gated like canonicalization: a distinct-edge set within
    ``DRIVER_EDGES_MAX`` runs the driver union-find (same kernel the
    entity-map path uses — shuffling a vocab-sized problem is strictly
    worse than one core); beyond the gate it reuses the canonicalization
    engine's pointer-jumping min-label propagation
    (stages/canonicalize._components_distributed — O(log diameter)
    rounds, each one partitioned join + vectorized grouped min).
    """
    from ..config import KGConfig
    from .canonicalize import _components_distributed, _components_driver

    cfg = cfg or KGConfig()
    tier, edges = choose_tier(triple_edges(triples, num_partitions=num_partitions),
                              DRIVER_EDGES_MAX, what="connected_components")
    surf = _node_set(triples, "subject_id", "object_id", "surface", num_partitions)
    if tier == "driver":
        return _components_table(_components_driver(
            collect_pandas(edges, ["src", "dst"]),
            collect_pandas(surf, ["surface"])["surface"].tolist(),
        ))
    labels = _components_distributed(edges, surf, cfg)
    if not labels.count():  # no nodes: the driver tier's typed empty table
        return _components_table({})
    labels = labels.map_batches(
        lambda t: pa.table({"entity": t["node"], "component_id": t["label"]}),
        batch_format="pyarrow",
    )
    sizes = partition_reduce(
        labels.map_batches(
            lambda df: df["component_id"].value_counts().rename_axis(
                "component_id").reset_index(name="component_size"),
            batch_format="pandas",
        ),
        ["component_id"],
        lambda p: p.groupby("component_id", as_index=False)[
            "component_size"].sum(),
        num_partitions=num_partitions,
    )
    return hash_join(labels, sizes, on="component_id")


def khop_neighborhood(triples, seed: str, k: int = 2,
                      max_frontier: int = 5_000_000):
    """Entities reachable from ``seed`` within ``k`` directed hops, with
    their BFS hop distance (seed itself at hop 0). Driver state is the
    answer set only — see module docstring for the scale contract.

    ``max_frontier`` bounds that contract LOUDLY: a hub seed on a web-scale
    graph can make a single hop's distinct-neighbor set driver-sized, so
    the per-hop distinct count is checked (metadata-only, after the
    distinct shuffle) BEFORE collecting — the guard raises with the
    offending hop instead of OOMing the driver (same discipline as
    ``asof_join.max_partition_rows``)."""
    import pyarrow.compute as pc

    edges = triple_edges(triples).materialize() if k > 1 else triple_edges(triples)
    visited: dict[str, int] = {seed: 0}
    frontier = [seed]
    for hop in range(1, k + 1):
        fr_ref = ray.put(frontier)

        def step(t: pa.Table) -> pa.Table:
            fr = ray.get(fr_ref)
            hit = t.filter(pc.is_in(t["src"], pa.array(fr, pa.string())))
            return hit.select(["dst"])

        reached = edges.map_batches(step, batch_format="pyarrow")
        dd = distinct_rows(reached, ["dst"]).materialize()
        n_new = dd.count()  # metadata-only on a materialized dataset
        if n_new > max_frontier:
            raise ValueError(
                f"khop_neighborhood hop {hop} reaches {n_new} distinct "
                f"nodes (> max_frontier={max_frontier}) — the neighborhood "
                "is not driver-sized; aggregate it distributed (e.g. "
                "entity_degree / pagerank over the k-hop edge slice) or "
                "raise the bound"
            )
        dd = dd.to_pandas()
        # empty datasets collect to a column-less frame — treat as no hits
        new = sorted(
            (set(dd["dst"]) if "dst" in dd.columns else set()) - visited.keys()
        )
        for d in new:
            visited[d] = hop
        frontier = new
        if not frontier:
            break
    ordered = sorted(visited)
    return pa.table(
        {"entity": pa.array(ordered, pa.string()),
         "hop": pa.array([visited[e] for e in ordered], pa.int64())}
    )


def _hits_driver(edges_df: pd.DataFrame, iters: int, round_to: int | None):
    """Sparse HITS power iteration on the driver for vocab-sized graphs —
    O(E) numpy scatter-adds per round over :func:`_edge_index` arrays."""
    nodes, src, dst, w = _edge_index(edges_df)
    n = len(nodes)
    if n == 0:
        return _score_table([], hub=[], authority=[])
    h = np.full(n, 1.0 / np.sqrt(n))
    a = np.zeros(n)
    for _ in range(iters):
        a = np.zeros(n)
        np.add.at(a, dst, h[src] * w)
        na = np.sqrt((a * a).sum())
        if na > 0:
            a = a / na
        h = np.zeros(n)
        np.add.at(h, src, a[dst] * w)
        nh = np.sqrt((h * h).sum())
        if nh > 0:
            h = h / nh
    if round_to is not None:
        h, a = h.round(round_to), a.round(round_to)
    return _score_table(nodes, hub=h, authority=a)


def _l2_normalize(scores, col: str):
    """Divide ``col`` by its global L2 norm (one metadata-cheap pass over a
    materialized O(V) score table + one broadcast-scalar map)."""
    ssq = scores.map_batches(
        lambda df: pd.DataFrame({"s2": [float((df[col] ** 2).sum())]}),
        batch_format="pandas",
    ).sum("s2")
    norm = float(np.sqrt(ssq)) if ssq else 0.0
    if norm <= 0.0:
        return scores
    return scores.map_batches(
        lambda df, norm=norm: df.assign(**{col: df[col] / norm}),
        batch_format="pandas",
    ).materialize()


def hits(triples, *, iters: int = 20, num_partitions: int | None = None,
         round_to: int | None = 8, weight_col: str | None = None):
    """HITS hubs & authorities (Kleinberg 1999, public formulation) over
    the distinct-edge view of a triple Dataset: per iteration
    ``authority = A^T · hub`` then ``hub = A · authority``, each L2-
    normalized. Returns (entity, hub, authority) for every node; nodes a
    score never reaches stay exactly 0. Complements :func:`pagerank` for
    host profiling: authorities = heavily-cited hosts, hubs = link
    directories (the reference's Postgres KG answers "most-linked entity"
    questions with SQL over `relation`; SegmentDbConnector.py).

    Size-gated like :func:`pagerank`: within ``DRIVER_EDGES_MAX``
    edges the sparse numpy driver kernel runs (a vocab-sized problem —
    the host graph at web scale is O(hosts), far below corpus scale);
    above the gate each half-iteration is ONE hash_join of the static
    edge table against the current O(V) score table (auto broadcast /
    shuffle tier) + one auto-sized grouped sum + one global L2 norm. The
    edge table is materialized once and streams through every iteration;
    only O(V) score tables materialize per round. ``weight_col`` makes
    contributions proportional to edge multiplicity (the host-graph
    n_links weighting).

    Determinism: same contract as pagerank — the FINAL scores are rounded
    (``round_to``), and both tiers are parity-tested against a dense
    numpy reference at 1e-9 (tests/test_graph.py::TestHITS).
    """
    tier, edges = _gated_edges(triples, weight_col, num_partitions, "hits")
    if tier == "driver":
        cols = ["src", "dst"] + (["w"] if weight_col is not None else [])
        return _hits_driver(collect_pandas(edges, cols), iters, round_to)

    nodes = _node_set(edges, "src", "dst", "entity", num_partitions).materialize()
    n = nodes.count()
    if n == 0:
        return _score_table([], hub=[], authority=[])

    def init(col: str, v: float):  # the driver tier's h, a before round 1
        return nodes.map_batches(lambda t: t.append_column(
            col, pa.array([v] * len(t), pa.float64())), batch_format="pyarrow")

    hubs = init("hub", 1.0 / float(np.sqrt(n))).materialize()
    auths = init("authority", 0.0)

    def _sum_to(joined, out_key: str, score: str):
        # joined rows: (out_key node, score, [w]) — emit grouped weighted sum
        def partial(df: pd.DataFrame) -> pd.DataFrame:
            w = df["w"] if "w" in df.columns else 1.0
            return pd.DataFrame({"entity": df[out_key], "s": df[score] * w}
                                ).groupby("entity", as_index=False)["s"].sum()

        return partition_reduce(
            joined.map_batches(partial, batch_format="pandas"),
            ["entity"],
            lambda p: p.groupby("entity", as_index=False)["s"].sum(),
            num_partitions=num_partitions,
        ).materialize()

    for _ in range(iters):
        # authority step: edges keyed by src join the hub table
        e_src = edges.map_batches(
            lambda t: t.rename_columns(
                ["entity", "dst"] + (["w"] if weight_col is not None else [])),
            batch_format="pyarrow",
        )
        a_raw = _sum_to(hash_join(e_src, hubs, on="entity"), "dst", "hub")
        auths = _l2_normalize(
            a_raw.map_batches(
                lambda t: t.rename_columns(["entity", "authority"]),
                batch_format="pyarrow"),
            "authority",
        )
        # hub step: edges keyed by dst join the authority table
        e_dst = edges.map_batches(
            lambda t: t.rename_columns(
                ["src", "entity"] + (["w"] if weight_col is not None else [])),
            batch_format="pyarrow",
        )
        h_raw = _sum_to(hash_join(e_dst, auths, on="entity"), "src", "authority")
        hubs = _l2_normalize(
            h_raw.map_batches(
                lambda t: t.rename_columns(["entity", "hub"]),
                batch_format="pyarrow"),
            "hub",
        )

    out = hash_join(
        hash_join(nodes, hubs, on="entity", how="left"),
        auths, on="entity", how="left",
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        h = df["hub"].fillna(0.0)
        a = df["authority"].fillna(0.0)
        if round_to is not None:
            h, a = h.round(round_to), a.round(round_to)
        return pd.DataFrame({"entity": df["entity"], "hub": h, "authority": a})

    return out.map_batches(finish, batch_format="pandas")


def _undirected_edges(triples, num_partitions: int | None):
    """Distinct undirected (a, b) edges with a < b as strings; self-loops
    dropped."""
    import pyarrow.compute as pc

    def undirect(t: pa.Table) -> pa.Table:
        s = t["subject_id"].cast(pa.string())
        o = t["object_id"].cast(pa.string())
        keep = pc.not_equal(s, o)
        s, o = s.filter(keep), o.filter(keep)
        return pa.table({"a": pc.min_element_wise(s, o),
                         "b": pc.max_element_wise(s, o)})

    return distinct_rows(triples.map_batches(undirect, batch_format="pyarrow"),
                         ["a", "b"], num_partitions=num_partitions)


def _symmetric(e0):
    """(node, nbr): one row per direction of each undirected edge."""
    return e0.map_batches(
        lambda t: pa.table({
            "node": pa.concat_arrays([t["a"].combine_chunks(),
                                      t["b"].combine_chunks()]),
            "nbr": pa.concat_arrays([t["b"].combine_chunks(),
                                     t["a"].combine_chunks()]),
        }),
        batch_format="pyarrow",
    ).materialize()


def triangle_counts(triples, *, num_partitions: int | None = None):
    """Per-entity triangle counts and local clustering coefficients over
    the UNDIRECTED distinct-edge view (self-loops dropped) — the classic
    community-density signal the reference's Postgres KG would answer with
    relation self-joins (SegmentDbConnector.py entity queries).

    Algorithm: degree-ordered edge orientation + wedge closing (the
    public "compact-forward" / node-iterator++ scheme, Latapy 2008).
    Orienting every edge from its lower-(degree, id) endpoint to the
    higher one bounds each node's OUT-degree by O(sqrt(E)) regardless of
    hub in-degree — a web-scale hub star generates ZERO wedges at the hub
    (all its edges point in), so per-group pair emission never goes
    quadratic in a hub's degree. Exchanges: one distinct-edge pass, one
    (node)-keyed degree sum, two edge×degree hash joins, one u-keyed
    wedge emission, one composite-key wedge×edge join, one credit sum —
    ids and small ints move, never payloads. Exact integer counts ⇒
    REAL-SQL twin (id-ordered three-way self-join — orientation changes
    the work, not the result)."""
    e0 = _undirected_edges(triples, num_partitions).materialize()

    def deg_partial(df: pd.DataFrame) -> pd.DataFrame:
        n = pd.concat([df["a"], df["b"]], ignore_index=True)
        return n.value_counts().rename_axis("node").reset_index(name="d")

    deg = partition_reduce(
        e0.map_batches(deg_partial, batch_format="pandas"),
        ["node"],
        lambda p: p.groupby("node", as_index=False)["d"].sum(),
        num_partitions=num_partitions,
    ).materialize()

    # orient each edge lower-(d, id) → higher-(d, id); keep head degree
    # for the wedge-order sort
    ea = hash_join(
        e0, deg.map_batches(lambda t: t.rename_columns(["a", "da"]),
                            batch_format="pyarrow"), on="a")
    eab = hash_join(
        ea, deg.map_batches(lambda t: t.rename_columns(["b", "db"]),
                            batch_format="pyarrow"), on="b")

    def orient(df: pd.DataFrame) -> pd.DataFrame:
        a_first = (df["da"] < df["db"]) | (
            (df["da"] == df["db"]) & (df["a"] < df["b"]))
        u = df["a"].where(a_first, df["b"])
        v = df["b"].where(a_first, df["a"])
        dv = df["db"].where(a_first, df["da"])
        return pd.DataFrame({"u": u, "v": v, "dv": dv})

    oe = eab.map_batches(orient, batch_format="pandas").materialize()

    def wedges(part: pd.DataFrame) -> pd.DataFrame:
        apex, lo, hi = [], [], []
        for u, g in part.groupby("u"):
            if len(g) < 2:
                continue
            gg = g.sort_values(["dv", "v"], kind="stable")
            vs = gg["v"].to_numpy()
            i, j = np.triu_indices(len(vs), k=1)
            apex.append(np.repeat(u, len(i)))
            lo.append(vs[i])
            hi.append(vs[j])
        if not apex:
            return pd.DataFrame({"apex": pd.Series([], dtype=object),
                                 "u": pd.Series([], dtype=object),
                                 "v": pd.Series([], dtype=object)})
        return pd.DataFrame({"apex": np.concatenate(apex),
                             "u": np.concatenate(lo),
                             "v": np.concatenate(hi)})

    wedge_ds = partition_reduce(oe, ["u"], wedges,
                                num_partitions=num_partitions)

    # a wedge (apex; u, v) closes iff the oriented edge u→v exists — the
    # (d, id) wedge ordering makes the closing edge's orientation unique
    tri = hash_join(wedge_ds, oe.map_batches(
        lambda t: t.select(["u", "v"]), batch_format="pyarrow"),
        on=["u", "v"])

    def credit(df: pd.DataFrame) -> pd.DataFrame:
        n = pd.concat([df["apex"], df["u"], df["v"]], ignore_index=True)
        return n.value_counts().rename_axis("node").reset_index(name="t")

    tc = partition_reduce(
        tri.map_batches(credit, batch_format="pandas"),
        ["node"],
        lambda p: p.groupby("node", as_index=False)["t"].sum(),
        num_partitions=num_partitions,
    ).materialize()

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        d = df["d"].astype("int64")
        t = (df["t"].fillna(0).astype("int64") if "t" in df
             else pd.Series(0, index=df.index, dtype="int64"))
        denom = (d * (d - 1)).astype("float64")
        coef = (2.0 * t / denom.where(denom > 0, np.inf)).round(6)
        return pd.DataFrame({"entity": df["node"], "degree": d,
                             "triangles": t, "clustering": coef})

    # a triangle-free graph leaves tc as a zero-column empty dataset —
    # joining on it would KeyError; degrees alone carry the answer
    joined = (hash_join(deg, tc, on="node", how="left")
              if tc.count() else deg)
    return joined.map_batches(finish, batch_format="pandas")


def triangles_sql(table: str) -> str:
    """DuckDB twin of :func:`triangle_counts` — id-ordered three-way
    self-join over the same undirected distinct-edge view (orientation is
    an execution strategy; the triangle set is orientation-free)."""
    return f"""
        WITH t AS (
            SELECT CAST(subject_id AS VARCHAR) AS s,
                   CAST(object_id AS VARCHAR) AS o
            FROM {table} WHERE subject_id <> object_id
        ),
        e0 AS (SELECT DISTINCT LEAST(s, o) AS a, GREATEST(s, o) AS b FROM t),
        deg AS (
            SELECT n, COUNT(*) AS d FROM (
                SELECT a AS n FROM e0 UNION ALL SELECT b FROM e0
            ) GROUP BY 1
        ),
        tri AS (
            SELECT xy.a AS x, xy.b AS y, yz.b AS z
            FROM e0 xy
            JOIN e0 yz ON yz.a = xy.b
            JOIN e0 xz ON xz.a = xy.a AND xz.b = yz.b
        ),
        cr AS (
            SELECT x AS n FROM tri UNION ALL SELECT y FROM tri
            UNION ALL SELECT z FROM tri
        ),
        tc AS (SELECT n, COUNT(*) AS tcount FROM cr GROUP BY 1)
        SELECT deg.n AS entity, CAST(deg.d AS BIGINT) AS degree,
               CAST(COALESCE(tc.tcount, 0) AS BIGINT) AS triangles,
               ROUND(CASE WHEN deg.d > 1 THEN
                   2.0 * COALESCE(tc.tcount, 0) / (deg.d * (deg.d - 1.0))
                   ELSE 0 END, 6) AS clustering
        FROM deg LEFT JOIN tc ON tc.n = deg.n
    """


def _coreness_driver(edges_df: pd.DataFrame):
    """Exact k-core peel on the driver for vocab-sized graphs (Batagelj/
    Zaveršnik order): repeatedly remove the minimum-degree node; its
    coreness is the running maximum of min-degrees seen. Integer-exact."""
    adj: dict = {}
    for a, b in sorted(zip(edges_df["a"], edges_df["b"])):
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    deg = {v: len(ns) for v, ns in adj.items()}
    core: dict = {}
    level = 0
    live = set(adj)
    while live:
        v = min(live, key=lambda x: (deg[x], x))
        level = max(level, deg[v])
        core[v] = level
        live.discard(v)
        for u in adj[v]:
            if u in live:
                deg[u] -= 1
    return core


def _h_index(vals: np.ndarray) -> int:
    """Largest h with at least h entries ≥ h (vectorized)."""
    s = np.sort(vals)[::-1]
    ok = s >= np.arange(1, len(s) + 1)
    return int(ok.sum())


def core_numbers(triples, *, num_partitions: int | None = None,
                 max_iters: int = 200):
    """Coreness (k-core number) per entity over the undirected distinct-
    edge view — the density/spam-farm signal (a link-farm host cluster is
    a high-core subgraph even when no individual degree stands out; the
    reference's Postgres KG would need iterative SQL it doesn't have).

    Size-gated: under ``DRIVER_EDGES_MAX`` edges the exact
    Batagelj–Zaveršnik peel runs on the driver. Above it, the h-index
    fixpoint (Lü et al. 2016: init c=degree; iterate c(v) ← H-index of
    neighbors' c; provably converges to coreness, monotonically from
    above) — each round is ONE symmetric-edge⋈score hash join (auto
    tier) + one auto-sized grouped h-index reduce, with a metadata-cheap
    changed-count aggregate deciding convergence; O(V) score tables
    materialize per round, the edge table streams. Integer-exact ⇒ both
    tiers bit-equal (tests), golden-freezable."""
    e0 = _undirected_edges(triples, num_partitions)

    def out_table(core: dict) -> "ray.data.Dataset":
        nodes = sorted(core)
        return ray.data.from_arrow(pa.table({
            "entity": pa.array(nodes, pa.string()),
            "coreness": pa.array([core[n] for n in nodes], pa.int64()),
        }))

    tier, e0 = choose_tier(e0, DRIVER_EDGES_MAX, what="core_numbers")
    if tier == "driver":
        return out_table(_coreness_driver(collect_pandas(e0, ["a", "b"])))

    # symmetric view: one row per (node, neighbor) direction
    sym = _symmetric(e0)

    def deg_partial(df: pd.DataFrame) -> pd.DataFrame:
        return df["node"].value_counts().rename_axis("entity").reset_index(
            name="c")

    scores = partition_reduce(
        sym.map_batches(deg_partial, batch_format="pandas"),
        ["entity"],
        lambda p: p.groupby("entity", as_index=False)["c"].sum(),
        num_partitions=num_partitions,
    ).materialize()
    if not scores.count():  # no nodes: the driver tier's typed empty table
        return out_table({})

    for _ in range(max_iters):
        nbr_scores = hash_join(
            sym.map_batches(lambda t: t.rename_columns(["node", "entity"]),
                            batch_format="pyarrow"),
            scores, on="entity",
        )

        def h_reduce(part: pd.DataFrame) -> pd.DataFrame:
            g = part.groupby("node")["c"].apply(
                lambda v: _h_index(v.to_numpy()))
            return g.rename_axis("entity").reset_index(name="c_new")

        new_scores = partition_reduce(
            nbr_scores.map_batches(
                lambda df: df[["node", "c"]], batch_format="pandas"),
            ["node"], h_reduce, num_partitions=num_partitions,
        ).materialize()

        changed_ds = hash_join(scores, new_scores, on="entity").map_batches(
            lambda df: pd.DataFrame(
                {"n": [int((df["c"] != df["c_new"]).sum())]}),
            batch_format="pandas",
        )
        changed = int(changed_ds.sum("n") or 0)
        scores = new_scores.map_batches(
            lambda t: t.rename_columns(["entity", "c"]),
            batch_format="pyarrow",
        ).materialize()
        if changed == 0:
            break
    else:
        raise RuntimeError(f"core_numbers did not converge in max_iters={max_iters}")

    return scores.map_batches(
        lambda t: pa.table({"entity": t["entity"],
                            "coreness": t["c"].cast(pa.int64())}),
        batch_format="pyarrow",
    )


def _lpa_mode(part: pd.DataFrame) -> pd.DataFrame:
    """Per-node neighborhood label mode with (count DESC, label ASC)
    tie-break — the deterministic LPA update kernel (vectorized: one
    groupby over the partition's (node, label) count rows)."""
    g = part.groupby(["node", "label"], as_index=False)["w"].sum()
    g = g.sort_values(["node", "w", "label"],
                      ascending=[True, False, True], kind="stable")
    top = g.groupby("node", as_index=False).first()
    return pd.DataFrame({"entity": top["node"], "label_new": top["label"]})


def label_propagation(triples, *, iters: int = 10,
                      num_partitions: int | None = None):
    """Community detection by synchronous label propagation (Raghavan
    2007, made deterministic): labels start as the node id; each round
    every node adopts the most frequent label among its neighbors
    (count DESC, label ASC tie-break — no randomness), for EXACTLY
    ``iters`` rounds (synchronous LPA can 2-cycle on bipartite-ish
    structure, so a fixed round count, not a convergence test, is the
    determinism contract). Returns (entity, community, community_size);
    community = the final label. Complements connected_components:
    components find disconnected islands, LPA finds dense regions of one
    connected web graph (link farms, host families).

    Scale shape — the pagerank/coreness loop: symmetric distinct edges
    materialized once; per round ONE edge⋈label hash join (auto tier) +
    one auto-sized grouped mode reduce; O(V) label state per round.
    Driver tier under the union-find gate runs the same kernel on pandas
    (both tiers bit-equal in tests)."""
    e0 = _undirected_edges(triples, num_partitions)

    def finish_table(lab: pd.DataFrame) -> "ray.data.Dataset":
        sizes = lab["community"].value_counts()
        lab = lab.sort_values("entity", kind="stable")
        return ray.data.from_arrow(pa.table({
            "entity": pa.array(lab["entity"], pa.string()),
            "community": pa.array(lab["community"], pa.string()),
            "community_size": pa.array(
                lab["community"].map(sizes).astype("int64"), pa.int64()),
        }))

    tier, e0 = choose_tier(e0, DRIVER_EDGES_MAX, what="label_propagation")
    if tier == "driver":
        ed = collect_pandas(e0, ["a", "b"])
        sym = pd.DataFrame({
            "node": pd.concat([ed["a"], ed["b"]], ignore_index=True),
            "nbr": pd.concat([ed["b"], ed["a"]], ignore_index=True),
        })
        labels = pd.DataFrame(
            {"entity": pd.Series(sorted(set(sym["node"])), dtype=object)})
        labels["label"] = labels["entity"]
        for _ in range(iters):
            j = sym.merge(labels.rename(columns={"entity": "nbr"}), on="nbr")
            j = j.assign(w=1)[["node", "label", "w"]]
            upd = _lpa_mode(j)
            labels = upd.rename(columns={"label_new": "label"})
        return finish_table(labels.rename(columns={"label": "community"}))

    sym = _symmetric(e0)

    labels = distinct_rows(
        sym.map_batches(lambda t: pa.table({"entity": t["node"]}),
                        batch_format="pyarrow"),
        ["entity"], num_partitions=num_partitions,
    ).map_batches(
        lambda t: t.append_column("label", t["entity"]),
        batch_format="pyarrow",
    ).materialize()

    for _ in range(iters):
        j = hash_join(
            sym.map_batches(lambda t: t.rename_columns(["node", "entity"]),
                            batch_format="pyarrow"),
            labels, on="entity",
        )

        def count_partial(df: pd.DataFrame) -> pd.DataFrame:
            g = df.groupby(["node", "label"], as_index=False).size()
            return g.rename(columns={"size": "w"})

        labels = partition_reduce(
            j.map_batches(count_partial, batch_format="pandas"),
            ["node"], _lpa_mode, num_partitions=num_partitions,
        ).map_batches(
            lambda t: t.rename_columns(["entity", "label"]),
            batch_format="pyarrow",
        ).materialize()

    lab = collect_pandas(
        labels.map_batches(
            lambda t: t.rename_columns(["entity", "community"]),
            batch_format="pyarrow"),
        ["entity", "community"])
    # community sizes are vocab-sized — the same driver-side finish the
    # under-gate tier uses (labels table is O(V) by construction)
    return finish_table(lab)
