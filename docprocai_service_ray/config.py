"""Pipeline configuration.

Single dataclass passed to stages via actor constructor args — the analog of
the reference's global YAML config dict (reference: config/__init__.py:3-4,
config.yaml), but explicit and immutable (SURVEY.md §2.9 M14).
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class KGConfig:
    """Knobs for the KG-construction pipeline.

    Defaults are tuned for the single-node sandbox (32 CPUs / 128 GiB); the
    partitioning story (buckets, salts, batch sizes) is what carries to a
    multi-node cluster.
    """

    # ---- embedding space (mentions / alias dict / semantic search) ----
    embedding_dim: int = 64          # reference uses 1024 (config.yaml:38); 64 keeps tests fast
    # ---- MinHash-LSH canonicalization (SURVEY.md §2.6 W2) ----
    minhash_perms: int = 32          # signature length
    lsh_bands: int = 16              # bands × rows_per_band == minhash_perms;
                                     # 16×2 → P(candidate) ≈ 1 at jaccard ≥ 0.7
                                     # (8×4 missed ~8% of true pairs); the jaccard
                                     # verify step keeps precision
    shingle_k: int = 3               # char n-gram size over normalized surfaces
    jaccard_threshold: float = 0.68  # verify-step threshold for candidate pairs
                                     # (above cross-entity max ~0.63 on the synthetic
                                     # inventory, below same-entity variant ~0.75)
    max_unionfind_rounds: int = 12   # label-propagation round budget; with
                                     # pointer jumping each round squares the
                                     # reachable diameter (2^12 hops) — the
                                     # stage RAISES if still unconverged
    # ---- tier gates (state/tier.py; the other limits are module
    # constants next to their gates, and tests force a tier with
    # state.tier.forced) ----
    driver_canon_max: int = 200_000  # distinct-surface count at or below which the
                                     # whole LSH+union-find runs on the driver with
                                     # the same kernels (vocab-sized small side; the
                                     # banding shuffle only pays off beyond this)
    driver_dedup_max: int = 5_000_000  # docs row count at or below which the url-dedup
                                     # winners pass collects the (url, ts, hash)
                                     # projection instead of shuffling it
    emap_broadcast_max_bytes: int = 64 << 20  # entity-map byte estimate above which
                                     # triple canonicalization switches from the
                                     # broadcast Arrow map to canonicalize_via_join
                                     # (stages/materialize.build_triples_auto)
    # ---- entity linking ----
    link_threshold: float = 0.40     # cutoff on 0.5*cos+0.5*prior — structural analog of
                                     # the reference's 0.7 similarity cutoff
                                     # (service/DocProcAiService.py:755, config.yaml:50)
    # ---- graph materialization ----
    output_buckets: int = 16         # hash(subject_id) % buckets partitions the triple output
    prov_cap: int = 20               # max provenance entries kept per triple (overflow counted,
                                     # never silently dropped — manifest records the cap)
    # ---- execution ----
    actor_pool_size: int = 4         # concurrency for stateful stages in tests; bench overrides
    ingest_partitions: int = 0       # >0: checkpointed docs_raw ingest runs in this many
                                     # independent input-file shards with per-partition
                                     # manifest rows — a killed run resumes at the first
                                     # unfinished shard (state/manifest.checkpointed_partitioned)
    # ---- language filter (S1 dispatch analog; FIXTURES: non-en rows
    # exercise filters). None = process every language ----
    filter_langs: tuple[str, ...] | None = None
    # ---- corpus generation (synthetic web_pages; FIXTURES.md §1) ----
    seed: int = 42


DEFAULT_CONFIG = KGConfig()
