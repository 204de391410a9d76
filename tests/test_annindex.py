"""Persisted ANN index (stages/annindex.py): indexed probes must equal
the per-call compute paths (lsh_topk / ivf_topk) bit-for-bit, the build
must be idempotent, and the run_kg(with_ann_index=True) hook must land a
probe-able index over the stored sentence vectors."""

from __future__ import annotations

import os

import numpy as np
import pytest
import ray.data as rd

from docprocai_service_ray.stages.annindex import (
    ann_indexed_topk,
    build_ann_index,
    lsh_probe_buckets,
)

SF = "/root/testdata/sf0.01"


@pytest.fixture(scope="module")
def index_dir(tmp_path_factory):
    from docprocai_service_ray.pipelines.benchqueries import _pq

    d = str(tmp_path_factory.mktemp("ann") / "idx")
    ds = _pq(SF, "embeddings", ["vec_id", "embedding", "label"])
    return build_ann_index(ds, d, dim=64, n_planes=8, n_lists=32, seed=42,
                           extra_cols=("label",))


def _q():
    from docprocai_service_ray.pipelines.benchqueries import _query_vec

    return _query_vec(SF)


class TestIndexedProbeParity:
    def test_lsh_mode_equals_per_call_lsh(self, index_dir):
        from docprocai_service_ray.pipelines.benchqueries import _pq
        from docprocai_service_ray.stages.similarity import lsh_topk

        ds = _pq(SF, "embeddings", ["vec_id", "embedding", "label"])
        got = ann_indexed_topk(index_dir, _q(), 10, mode="lsh").to_pandas()
        want = lsh_topk(ds, _q(), 10, dim=64, seed=42,
                        extra_cols=("label",)).to_pandas()
        assert got[["vec_id", "label"]].values.tolist() == \
            want[["vec_id", "label"]].values.tolist()

    def test_ivf_mode_equals_per_call_ivf(self, index_dir):
        from docprocai_service_ray.pipelines.benchqueries import _pq
        from docprocai_service_ray.stages.similarity import ivf_topk

        ds = _pq(SF, "embeddings", ["vec_id", "embedding", "label"])
        got = ann_indexed_topk(index_dir, _q(), 10, mode="ivf",
                               nprobe=8).to_pandas()
        want = ivf_topk(ds, _q(), 10, dim=64, n_lists=32, nprobe=8, seed=42,
                        extra_cols=("label",)).to_pandas()
        assert got[["vec_id", "label"]].values.tolist() == \
            want[["vec_id", "label"]].values.tolist()

    def test_probe_set_is_hamming_ball(self):
        probe = lsh_probe_buckets(_q(), dim=64, n_planes=8, seed=42)
        assert len(probe) == 9  # own bucket + 8 single-bit flips
        assert all(0 <= b < 256 for b in probe)

    def test_rebuild_is_idempotent(self, index_dir):
        from docprocai_service_ray.pipelines.benchqueries import _pq

        ds = _pq(SF, "embeddings", ["vec_id", "embedding", "label"])
        before = os.path.getmtime(os.path.join(index_dir, "_SUCCESS"))
        build_ann_index(ds, index_dir, dim=64, n_planes=8, n_lists=32,
                        seed=42, extra_cols=("label",))
        assert os.path.getmtime(
            os.path.join(index_dir, "_SUCCESS")) == before


class TestRunKgAnnIndex:
    def test_hook_requires_embeddings_and_out_dir(self, tmp_path):
        from docprocai_service_ray.config import KGConfig
        from docprocai_service_ray.pipelines.kg import run_kg
        from docprocai_service_ray.sources.webgen import alias_dict_table

        with pytest.raises(ValueError, match="with_ann_index"):
            run_kg("/nonexistent", alias_dict_table(42, 64), KGConfig(),
                   out_dir=str(tmp_path), with_ann_index=True)

    def test_hook_lands_probeable_index(self, corpus_path, tmp_path):
        from docprocai_service_ray.config import KGConfig
        from docprocai_service_ray.pipelines.kg import run_kg
        from docprocai_service_ray.sources.webgen import alias_dict_table

        cfg = KGConfig()
        res = run_kg(corpus_path, alias_dict_table(42, cfg.embedding_dim),
                     cfg, out_dir=str(tmp_path / "kg"),
                     with_sentence_embeddings=True, with_ann_index=True)
        idx = res["ann_index_dir"]
        assert os.path.exists(os.path.join(idx, "_SUCCESS"))
        # probe with a stored vector as the query: its own url must rank 1.
        # Boilerplate sentences share one vector across many pages, so the
        # probe takes the first (by url) vector that only one url holds.
        emb = res["sentence_embeddings"].select_columns(
            ["url", "embedding"]).to_pandas().sort_values("url", kind="stable")
        key = emb["embedding"].map(
            lambda v: np.asarray(v, dtype=np.float32).tobytes())
        n_urls = emb.groupby(key)["url"].transform("nunique")
        row = emb[n_urls.to_numpy() == 1].iloc[0]
        q = np.asarray(row["embedding"], dtype=np.float64)
        top = ann_indexed_topk(idx, q, 5, mode="lsh").to_pandas()
        assert len(top) >= 1
        assert top["url"].iloc[0] == row["url"]
