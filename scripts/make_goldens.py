"""Freeze golden parquet oracles for the deterministic (non-SQL) queries
at the driver's correctness scale (sf0.01 → n=2000 synthetic pages).

Two tiers:
- kg_docs / kg_sentences / kg_triples / kg_entity_map are ASSERTED against
  the INDEPENDENT scalar oracle (docprocai_service_ray/oracle/scalar.py —
  single-process, row-at-a-time, shares only the pure kernels) before being
  frozen, so the golden is oracle-certified, not self-certified;
- kg_mentions / kg_semantic_search / near-dup pair sets / media_features
  freeze the pipeline output (no independent oracle exists; the freeze
  still pins determinism across rounds).

It writes every query declared with ``golden=`` in the query registry
(docprocai_service_ray/pipelines/registry.py), which serves each golden back
to the driver as ``SELECT * FROM read_parquet(...)``.

Run: python scripts/make_goldens.py
"""

from __future__ import annotations

import os
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import ray

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

SF_DIR = "/root/testdata/sf0.01"
OUT = os.path.join(ROOT, "goldens", "sf0.01")


def main() -> None:
    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "16")),
            include_dashboard=False,
            logging_level="ERROR",
        )
    import __ray_entry__ as entry
    from docprocai_service_ray.config import KGConfig
    from docprocai_service_ray.oracle.scalar import run_oracle
    from docprocai_service_ray.pipelines import registry
    from docprocai_service_ray.sources.webgen import alias_dict_table, gen_page

    os.makedirs(OUT, exist_ok=True)
    cfg = KGConfig()
    n = 2000  # sf0.01 → max(300, 0.01 * 200_000)
    pages = [gen_page(cfg.seed, r) for r in range(n)]
    oracle = run_oracle(pages, alias_dict_table(cfg.seed, cfg.embedding_dim), cfg)

    oracle_expect = {
        "kg_docs": sorted(
            (d["url"], d["lang"], d["n_chars"]) for d in oracle["docs"]
        ),
        "kg_sentences": sorted(
            (s["url"], s["sent_id"], s["char_start"], s["char_end"])
            for s in oracle["sentences"]
        ),
        "kg_triples": sorted(
            (t["subject_id"], t["pred"], t["object_id"], t["weight"])
            for t in oracle["triples"]
        ),
        "kg_entity_map": sorted(
            (s, cid, sum(1 for v in oracle["entity_map"].values() if v == cid))
            for s, cid in oracle["entity_map"].items()
        ),
        "doc_summaries": sorted(
            (d["url"], d["summary"], d["top_entities"], d["n_triples"])
            for d in oracle["doc_summaries"]
        ),
    }

    qs = entry.queries()
    for name in registry.loaded().goldens:
        r = qs[name](SF_DIR)
        df = r.to_pandas() if hasattr(r, "to_pandas") else r
        if name in oracle_expect:
            got = sorted(map(tuple, df.itertuples(index=False)))
            want = oracle_expect[name]
            assert got == want, (
                f"{name}: pipeline output diverges from scalar oracle "
                f"({len(got)} vs {len(want)} rows; first diff "
                f"{next((a, b) for a, b in zip(got, want) if a != b) if len(got) == len(want) else ''})"
            )
            print(f"{name}: oracle-certified ({len(df)} rows)")
        else:
            print(f"{name}: frozen pipeline output ({len(df)} rows)")
        pq.write_table(
            pa.Table.from_pandas(df, preserve_index=False),
            os.path.join(OUT, f"{name}.parquet"),
        )
    ray.shutdown()
    print("goldens written to", OUT)


if __name__ == "__main__":
    main()
