"""Per-record re-ingest (pipelines/kg.reprocess_urls): delete a url's rows
from every stored stage, reprocess, and the whole output must equal a
clean full run — including the corpus-level cascade (entity_map, triples)."""

from __future__ import annotations

import pandas as pd
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from docprocai_service_ray.config import KGConfig
from docprocai_service_ray.pipelines.kg import reprocess_urls, run_kg
from docprocai_service_ray.sources.webgen import alias_dict_table
from docprocai_service_ray.state.manifest import stage_output_dir


def _table_rows(ds, cols):
    df = ds.to_pandas()[cols]
    for c in cols:
        df[c] = df[c].map(
            lambda v: v.hex() if isinstance(v, (bytes, bytearray)) else str(v)
        )
    return sorted(map(tuple, df.itertuples(index=False)))


STAGES = {
    "docs": ["url", "lang", "n_chars", "content_hash"],
    "sentences": ["url", "sent_id", "char_start", "char_end", "text"],
    "triples_raw": ["url", "sent_id", "subj", "pred", "obj"],
    "mentions": ["url", "sent_id", "surface", "role", "cand_qid"],
    "entity_map": ["surface", "canonical_id"],
    "triples": ["subject_id", "pred", "object_id", "weight"],
}


@pytest.mark.usefixtures("ray_session")
def test_reprocess_restores_clean_state(corpus_path, tmp_path):
    cfg = KGConfig()
    alias = alias_dict_table(42, cfg.embedding_dim)

    clean_dir = str(tmp_path / "clean")
    clean = run_kg(corpus_path, alias, cfg, out_dir=clean_dir, with_mentions=True)
    baseline = {s: _table_rows(clean[s], cols) for s, cols in STAGES.items()}

    # second, independent output dir that we then TAMPER: drop one url's
    # rows from every per-record stage (the reference's delete cascade)
    work_dir = str(tmp_path / "work")
    run_kg(corpus_path, alias, cfg, out_dir=work_dir, with_mentions=True)
    victim = clean["triples_raw"].take(1)[0]["url"]  # url that HAS triples
    for stage in ["docs", "sentences", "triples_raw", "mentions"]:
        sdir = stage_output_dir(work_dir, stage)
        t = rd.read_parquet(sdir).to_arrow_refs()
        import ray as _ray

        import pyarrow as pa

        tbl = pa.concat_tables(_ray.get(t), promote_options="default")
        kept = tbl.filter(pc.invert(pc.equal(tbl["url"], victim)))
        import glob
        import os
        import shutil

        shutil.rmtree(sdir)
        os.makedirs(sdir)
        pq.write_table(kept, os.path.join(sdir, "part-0.parquet"))
        if stage in ("docs", "sentences", "triples_raw"):
            assert len(kept) < len(tbl)  # the victim really had rows

    res = reprocess_urls(corpus_path, [victim], alias, cfg, out_dir=work_dir)

    for stage, cols in STAGES.items():
        assert _table_rows(res[stage], cols) == baseline[stage], stage


@pytest.mark.usefixtures("ray_session")
def test_reprocess_is_idempotent(corpus_path, tmp_path):
    cfg = KGConfig()
    alias = alias_dict_table(42, cfg.embedding_dim)
    out = str(tmp_path / "out")
    clean = run_kg(corpus_path, alias, cfg, out_dir=out)
    victim = clean["docs"].take(1)[0]["url"]
    # snapshot BEFORE reprocess — the lazy clean datasets point at stage
    # dirs that reprocess_urls atomically replaces
    baseline_triples = _table_rows(clean["triples"], STAGES["triples"])
    baseline_docs = _table_rows(clean["docs"], STAGES["docs"])
    res = reprocess_urls(corpus_path, [victim], alias, cfg, out_dir=out)
    assert _table_rows(res["triples"], STAGES["triples"]) == baseline_triples
    assert _table_rows(res["docs"], STAGES["docs"]) == baseline_docs


@pytest.mark.parametrize("marker", [
    {"sources": [{"pages_path": "a", "urls": ["u1", "u2"]},
                 {"pages_path": "b", "urls": ["u2", "u3"]}]},
    {"urls": ["u1", "u2", "u3"]},
], ids=["sources", "legacy_urls"])
def test_resume_refusal_counts_pending_urls(corpus_path, tmp_path, marker):
    """The refusal names how many urls the pending cascade holds, for the
    per-source marker reprocess_urls writes and for the legacy flat one."""
    from docprocai_service_ray.state.manifest import begin_inflight

    cfg = KGConfig()
    out_dir = str(tmp_path / "kg")
    begin_inflight(out_dir, "reprocess", marker)
    with pytest.raises(RuntimeError, match=r"cascade \(3 urls\)"):
        run_kg(corpus_path, alias_dict_table(42, cfg.embedding_dim), cfg,
               out_dir=out_dir, resume=True)


@pytest.mark.usefixtures("ray_session")
def test_interrupted_cascade_detected_and_redriven(corpus_path, tmp_path):
    """ADVICE r2: a crash mid-cascade leaves an in-flight marker; resume
    refuses, and the next reprocess call re-drives the pending urls."""
    from docprocai_service_ray.state.manifest import begin_inflight, get_inflight

    cfg = KGConfig()
    alias = alias_dict_table(42, cfg.embedding_dim)
    out_dir = str(tmp_path / "kg")
    res = run_kg(corpus_path, alias, cfg, out_dir=out_dir)
    victim = res["triples_raw"].take(1)[0]["url"]
    before = _table_rows(res["triples"], STAGES["triples"])

    # simulate a cascade that died after writing its marker
    begin_inflight(out_dir, "reprocess", {"urls": [victim]})
    with pytest.raises(RuntimeError, match="interrupted reprocess"):
        run_kg(corpus_path, alias, cfg, out_dir=out_dir, resume=True)

    # an empty reprocess call picks up the pending urls and completes
    healed = reprocess_urls(corpus_path, [], alias, cfg, out_dir=out_dir)
    assert get_inflight(out_dir, "reprocess") is None
    assert _table_rows(healed["triples"], STAGES["triples"]) == before
    # and resume works again
    run_kg(corpus_path, alias, cfg, out_dir=out_dir, resume=True)
