#!/usr/bin/env python
"""Exercise the >gate scale tiers at REAL bench size (VERDICT r2 #4).

The distributed canonicalization (LSH banding shuffle + pointer-jumping
min-label propagation), the join-tier entity-map application, the
join-tier url-dedup winners filter, and the distributed / co-partitioned
PageRank are parity-tested at toy size; this script forces every gate to
its distributed tier at the full bench corpus (sf0.1 → 500k pages) and
records wall time + convergence rounds, proving the tiers complete in
bounded time at scale — the measurement SCALE.md cites.

Run: python scripts/bench_distributed_tiers.py  (prints one JSON line)
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)


def main() -> None:
    import ray

    ray.init(
        address="local",
        num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
        include_dashboard=False,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from docprocai_service_ray.config import KGConfig
    from docprocai_service_ray.pipelines.kg import run_kg
    from docprocai_service_ray.sources.webgen import alias_dict_table, ensure_corpus
    from docprocai_service_ray.state.tier import forced

    n_pages = int(os.environ.get("TIER_BENCH_PAGES", "500000"))
    base = KGConfig()
    cfg = dataclasses.replace(base, actor_pool_size=16)
    corpus = ensure_corpus(n_pages, cfg.seed, cfg.embedding_dim)
    pages = os.path.join(corpus, "web_pages")

    # capture the propagation round count from the stage's own logging
    rounds = {"n": None}

    class _RoundHandler(logging.Handler):
        def emit(self, record):
            msg = record.getMessage()
            if "converged" in msg:
                rounds["n"] = msg

    canon_logger = logging.getLogger(
        "docprocai_service_ray.stages.canonicalize"
    )
    canon_logger.setLevel(logging.INFO)
    canon_logger.addHandler(_RoundHandler())

    from docprocai_service_ray.stages.graph import pagerank

    # every gate to its distributed tier: LSH banding shuffle, pointer-jumping
    # label propagation, url-dedup winners via partition_reduce and the
    # join-tier filter, canonicalize_via_join for triples
    with forced("distributed"):
        t0 = time.monotonic()
        res = run_kg(pages, alias_dict_table(cfg.seed, cfg.embedding_dim), cfg)
        n_triples = res["triples"].count()
        forced_wall = time.monotonic() - t0

        t0 = time.monotonic()
        pr = pagerank(res["triples"], iters=10, copartition=True)
        n_ranked = pr.count()
        pagerank_wall = time.monotonic() - t0

    # baseline comparison: the auto-gated (driver-tier) run on the same corpus
    t0 = time.monotonic()
    res_auto = run_kg(pages, alias_dict_table(base.seed, base.embedding_dim),
                      dataclasses.replace(base, actor_pool_size=16))
    n_triples_auto = res_auto["triples"].count()
    auto_wall = time.monotonic() - t0

    ray.shutdown()
    print(json.dumps({
        "metric": "distributed_tier_bench",
        "pages": n_pages,
        "forced_distributed_e2e_sec": round(forced_wall, 1),
        "auto_gated_e2e_sec": round(auto_wall, 1),
        "overhead_x": round(forced_wall / auto_wall, 2),
        "triples_forced": n_triples,
        "triples_auto": n_triples_auto,
        "triples_match": n_triples == n_triples_auto,
        "pagerank_copartitioned_sec": round(pagerank_wall, 1),
        "pagerank_entities": n_ranked,
        "propagation_log": rounds["n"],
    }))


if __name__ == "__main__":
    main()
