"""entity_map stage: MinHash-LSH surface clustering + union-find merge
(the W2 analog — replaces the reference's full-corpus BERTopic refit after
every ingest, fileextractlib/TopicModel.py:28-109 +
service/DocProcAiService.py:186-219, which is a global single-node fit).

Shape (SURVEY.md §4.3 "canonicalization shuffle"):

1. mention surfaces → DISTINCT surfaces. Two-phase: per-batch set() inside
   ``map_batches`` (a head surface with 10^6 mentions leaves each batch as
   one row — this is the skew defusal), then ``groupby(surface)`` first.
2. alias-link edges: surface ↔ qid node (broadcast dict lookup, no shuffle).
3. LSH: surface → 16 (band_key, surface) rows → ``groupby(band_key)`` emits
   candidate pairs (all-pairs per bucket, capped to a connectivity chain for
   oversized buckets) → jaccard verify → similar-surface edges.
4. connected components: driver union-find when the edge set is provably
   small (≤ ``DRIVER_EDGES_MAX`` — edges are O(distinct surfaces), many
   orders below corpus size), else distributed min-label propagation
   (bounded rounds, deterministic min-label tie rule). Both paths produce
   identical components; tests assert it.
5. per component: canonical_id = min qid member, else content-derived C-id;
   emit (surface, canonical_id, cluster_size).
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from ..config import KGConfig
from .common import pool_size
from ..functions.canon import (
    PAIR_CAP,
    UnionFind,
    bucket_candidate_pairs,
    canonical_id_for_component,
    is_qid_node,
    qid_node,
    surface_bands,
    verify_pair,
)
from ..functions.hashing import minhash_params
from ..functions.linking import best_candidate, build_alias_index
from ..state.groupby import collect_pandas, key_hash
from ..state.joins import hash_join
from ..state.tier import choose_tier

# distinct edges at or below which union-find (and the graph kernels of
# stages/graph.py) run on the driver; above it, distributed rounds
DRIVER_EDGES_MAX = 2_000_000

ENTITY_MAP_SCHEMA = pa.schema(
    [
        pa.field("surface", pa.string()),
        pa.field("canonical_id", pa.string()),
        pa.field("cluster_size", pa.int64()),
    ]
)


def distinct_surfaces(triples_raw_ds, cfg: KGConfig):
    """Distinct mention surfaces; per-batch partial distinct before the
    groupby so head surfaces shuffle as one row per batch, not per mention."""

    from ..state.groupby import distinct_rows

    import pyarrow.compute as pc

    def partial(batch: pa.Table) -> pa.Table:
        both = pa.chunked_array(batch["subj"].chunks + batch["obj"].chunks)
        return pa.Table.from_arrays([pc.unique(both)], names=["surface"])

    return distinct_rows(
        triples_raw_ds.select_columns(["subj", "obj"]).map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True
        ),
        ["surface"],
    )


class _LinkEdges:
    """surface → (surface, qid-node) edge rows for dict-linked surfaces."""

    def __init__(self, alias_ref: ray.ObjectRef, cfg: KGConfig):
        self.index = build_alias_index(ray.get(alias_ref))
        self.cfg = cfg

    def __call__(self, batch: pa.Table) -> pa.Table:
        src, dst = [], []
        for s in batch["surface"].to_pylist():
            cand = best_candidate(s, self.index, self.cfg.embedding_dim)
            if cand is not None and cand[1] >= self.cfg.link_threshold:
                src.append(s)
                dst.append(qid_node(cand[0]))
        return pa.Table.from_pydict({"src": src, "dst": dst})


def lsh_edges(surfaces_ds, cfg: KGConfig):
    a, b = minhash_params(cfg.minhash_perms, cfg.seed)

    def band_rows(batch: pa.Table) -> pa.Table:
        """surface → (band_key, surface) rows."""
        keys, surfs = [], []
        for s in batch["surface"].to_pylist():
            for k in surface_bands(s, a, b, cfg.shingle_k, cfg.lsh_bands):
                keys.append(np.uint64(k))
                surfs.append(s)
        return pa.Table.from_pydict(
            {"band_key": pa.array(keys, pa.uint64()), "surface": pa.array(surfs)}
        )

    banded = surfaces_ds.map_batches(band_rows, batch_format="pyarrow")

    def pairs_partition(part: pd.DataFrame) -> pd.DataFrame:
        # all rows of a band key are co-located here. Almost every band key
        # is a singleton — drop them VECTORIZED before the per-bucket loop,
        # so Python only ever touches colliding buckets (the interesting
        # minority). One task handles thousands of buckets; never one Ray
        # dispatch per bucket (the r01 per-key map_groups anti-pattern).
        part = part[part.duplicated("band_key", keep=False)]
        out_src, out_dst = [], []
        for _, g in part.groupby("band_key", sort=False):
            for p in bucket_candidate_pairs(g["surface"].tolist(), PAIR_CAP):
                if verify_pair(p[0], p[1], cfg.shingle_k, cfg.jaccard_threshold):
                    out_src.append(p[0])
                    out_dst.append(p[1])
        return pd.DataFrame({"src": out_src, "dst": out_dst})

    from ..state.groupby import distinct_rows, partition_reduce

    # a pair found in several bands is deduped here (normalized src<dst key)
    return distinct_rows(
        partition_reduce(banded, ["band_key"], pairs_partition),
        ["src", "dst"],
    )


def _components_driver(edges_df, all_surfaces: list[str]) -> dict[str, str]:
    """Driver union-find over a pandas (src, dst) edge frame (collected via
    ``to_pandas()`` — Arrow block concat, never per-row ``take_all()``)."""
    uf = UnionFind()
    for s in all_surfaces:
        uf.find(s)
    for src, dst in sorted(zip(edges_df["src"].tolist(), edges_df["dst"].tolist())):
        uf.union(src, dst)
    return {n: uf.find(n) for n in uf.parent}


def _to_arrow(ds):
    """Normalize block type: unioning pandas-block and arrow-block datasets
    breaks downstream sort/groupby boundary sampling."""
    return ds.map_batches(lambda t: t, batch_format="pyarrow")


def _components_distributed(edges_ds, surfaces_ds, cfg: KGConfig):
    """Iterated min-label propagation with pointer jumping (bounded rounds).

    labels(node → label) starts as identity; each round (a) joins neighbour
    labels in via a partitioned hash join and takes the vectorized min per
    node (state/groupby.group_agg — ONE pandas groupby.min per hash
    partition, never one Python call per key), then (b) pointer-jumps:
    label ← label_of(label), valid because every label is itself a node and
    labels only decrease. (a) alone converges in O(diameter) rounds; with
    (b) it is O(log diameter) — star-capped LSH buckets keep diameters
    small, but adversarial chains of pairwise-similar surfaces cannot stall
    it either. Non-convergence within cfg.max_unionfind_rounds RAISES
    (silent partial merges would split entity clusters downstream).
    Returns a materialized Dataset (node, label).
    """
    from ..state.groupby import distinct_rows, group_agg

    adj = edges_ds.map_batches(
        lambda t: pa.Table.from_pydict(
            {
                "node": pa.concat_arrays([t["src"].combine_chunks(), t["dst"].combine_chunks()]),
                "nbr": pa.concat_arrays([t["dst"].combine_chunks(), t["src"].combine_chunks()]),
            }
        ),
        batch_format="pyarrow",
    ).materialize()

    nodes = distinct_rows(
        _to_arrow(surfaces_ds)
        .map_batches(
            lambda t: pa.Table.from_pydict({"node": t["surface"]}),
            batch_format="pyarrow",
        )
        .union(adj.select_columns(["node"])),
        ["node"],
    )
    labels = _to_arrow(nodes).map_batches(
        lambda t: pa.Table.from_pydict({"node": t["node"], "label": t["node"]}),
        batch_format="pyarrow",
    ).materialize()

    def _sig(lds) -> int:
        """Order-free fingerprint of the label assignment; one vectorized
        pandas hash per block, a per-block sum, tiny driver reduce."""

        def h(df: pd.DataFrame) -> pd.DataFrame:
            tot = int(key_hash(df, ["node", "label"]).sum(dtype="uint64"))
            return pd.DataFrame({"h": [tot % (1 << 63)]})

        parts = collect_pandas(lds.map_batches(h, batch_format="pandas"), ["h"])
        return sum(parts["h"].tolist()) % (1 << 63)

    logger = logging.getLogger(__name__)
    sig = _sig(labels)
    for rnd in range(cfg.max_unionfind_rounds):
        nbr_labels = labels.map_batches(
            lambda t: pa.Table.from_pydict({"nbr": t["node"], "label": t["label"]}),
            batch_format="pyarrow",
        )
        msgs = hash_join(adj, nbr_labels, on="nbr").map_batches(
            lambda df: pa.Table.from_pydict(
                {"node": df["node"].tolist(), "label": df["label"].tolist()}
            ),
            batch_format="pandas",
        )
        stepped = group_agg(
            _to_arrow(labels.union(_to_arrow(msgs))), ["node"],
            {"label": ("label", "min")},
        )
        # pointer jump: label ← label_of(label). Labels are monotone
        # decreasing and every label is a node, so the inner join is total.
        jump_src = stepped.map_batches(
            lambda df: df.rename(columns={"label": "mid"}), batch_format="pandas"
        )
        jump_map = stepped.map_batches(
            lambda df: pd.DataFrame({"mid": df["node"], "label": df["label"]}),
            batch_format="pandas",
        )
        new_labels = _to_arrow(
            hash_join(jump_src, jump_map, on="mid").map_batches(
                lambda df: df[["node", "label"]], batch_format="pandas"
            )
        ).materialize()
        new_sig = _sig(new_labels)
        labels = new_labels
        if new_sig == sig:
            logger.info(
                "min-label propagation converged in %d rounds", rnd + 1
            )
            break
        sig = new_sig
    else:
        raise RuntimeError(
            f"min-label propagation did not converge within "
            f"{cfg.max_unionfind_rounds} rounds — component diameter exceeds "
            f"2^rounds (pointer jumping); raise cfg.max_unionfind_rounds"
        )
    return labels


def _entity_rows(components) -> pa.Table:
    """Entity-map rows of components given as member lists: qid nodes name
    a component (canonical_id_for_component) but are not surfaces."""
    rows_s, rows_c, rows_n = [], [], []
    for members in components:
        cid = canonical_id_for_component(members)
        surfs = [m for m in members if not is_qid_node(m)]
        rows_s.extend(surfs)
        rows_c.extend([cid] * len(surfs))
        rows_n.extend([len(surfs)] * len(surfs))
    return pa.Table.from_pydict(
        {"surface": rows_s, "canonical_id": rows_c, "cluster_size": rows_n},
        schema=ENTITY_MAP_SCHEMA)


def build_entity_map(triples_raw_ds, alias_ref: ray.ObjectRef, cfg: KGConfig):
    """triples_raw → entity_map Dataset (surface, canonical_id, cluster_size)."""
    import ray.data as rd

    # every dataset past the distinct step is vocab-sized — small pools and
    # few partitions; big pools only burn startup time here
    pool = min(4, cfg.actor_pool_size)
    tier, surfaces = choose_tier(distinct_surfaces(triples_raw_ds, cfg),
                                 cfg.driver_canon_max, what="build_entity_map")
    if tier == "driver":
        # vocab-sized fast path: the surface set fits trivially on the
        # driver, so banding/linking/union-find run sequentially with the
        # SAME kernels (functions/canon.py) the distributed path uses —
        # identical output, none of the small-shuffle fixed costs. The
        # distributed path below is the >200k-surface scale path.
        from ..functions.canon import lsh_candidate_edges

        surface_list = sorted(collect_pandas(surfaces, ["surface"])["surface"])
        alias_table = ray.get(alias_ref)
        index = build_alias_index(alias_table)
        uf = UnionFind()
        for s in surface_list:
            uf.find(s)
            cand = best_candidate(s, index, cfg.embedding_dim)
            if cand is not None and cand[1] >= cfg.link_threshold:
                uf.union(s, qid_node(cand[0]))
        for s1, s2 in lsh_candidate_edges(
            surface_list, seed=cfg.seed, num_perms=cfg.minhash_perms,
            bands=cfg.lsh_bands, k=cfg.shingle_k, threshold=cfg.jaccard_threshold,
        ):
            uf.union(s1, s2)
        return rd.from_arrow(_entity_rows(
            members for _, members in sorted(uf.components().items())))

    link_e = surfaces.map_batches(
        _LinkEdges,
        fn_constructor_kwargs={"alias_ref": alias_ref, "cfg": cfg},
        batch_format="pyarrow",
        concurrency=pool_size(pool),
    )
    tier, edges = choose_tier(link_e.union(_to_arrow(lsh_edges(surfaces, cfg))),
                              DRIVER_EDGES_MAX, what="entity_map_components")
    if tier == "driver":
        # candidate set provably small → driver union-find (SURVEY.md §2.6 W2)
        all_surfaces = collect_pandas(surfaces, ["surface"])["surface"].tolist()
        labels_map = _components_driver(
            collect_pandas(edges, ["src", "dst"]), all_surfaces)
        lt = pa.Table.from_pydict(
            {"node": list(labels_map), "label": [labels_map[k] for k in labels_map]}
        )
        labels = rd.from_arrow(lt)
    else:
        labels = _components_distributed(edges, surfaces, cfg)

    def assign(part: pd.DataFrame) -> pd.DataFrame:
        # all nodes of a component share a label → one partition holds whole
        # components; loop components in plain Python (vocab-sized)
        return _entity_rows(group["node"].tolist() for _, group
                            in part.groupby("label", sort=False)).to_pandas()

    from ..state.groupby import partition_reduce

    return partition_reduce(labels, ["label"], assign)
