"""mentions stage: triples_raw → mention rows with embeddings and
entity-link scores (ST3/ST7/J2 analog).

Actor pool whose ``__init__`` reads the broadcast alias dictionary from
the object store (``ray.put`` once on the driver — the sharded-dictionary
pattern of SURVEY.md §2.3 ST7) and builds the surface index + an embedding
cache. Embeddings are computed per *distinct* surface per batch, not per
mention — the reference's per-segment-call embedding generator
(LectureVideoEmbeddingGenerator.py:14-16, N HTTP calls) is the anti-pattern;
we adopt its document-batch sibling (LectureDocumentEmbeddingGenerator.py:12).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from ..config import KGConfig
from .common import pool_size
from ..functions.hashing import hash_embedding
from ..functions.linking import best_candidate, build_alias_index

EMBED_BATCH_SIZE = 2048  # triple rows per mention-linking batch


def mentions_schema(dim: int) -> pa.Schema:
    return pa.schema(
        [
            pa.field("url", pa.string()),
            pa.field("sent_id", pa.int32()),
            pa.field("surface", pa.string()),
            pa.field("role", pa.string()),  # subj | obj
            pa.field("cand_qid", pa.string()),
            pa.field("link_score", pa.float32()),
            pa.field("embedding", pa.list_(pa.float32(), dim)),
        ]
    )


class MentionLinker:
    def __init__(self, alias_ref: ray.ObjectRef, cfg: KGConfig):
        alias_table = ray.get(alias_ref)  # zero-copy read of the broadcast side
        self.index = build_alias_index(alias_table)
        self.cfg = cfg
        self.emb_cache: dict[str, np.ndarray] = {}
        self.link_cache: dict[str, tuple[str | None, float]] = {}

    def _emb(self, surface: str) -> np.ndarray:
        e = self.emb_cache.get(surface)
        if e is None:
            e = hash_embedding(surface, self.cfg.embedding_dim)
            self.emb_cache[surface] = e
        return e

    def _link(self, surface: str) -> tuple[str | None, float]:
        r = self.link_cache.get(surface)
        if r is None:
            cand = best_candidate(surface, self.index, self.cfg.embedding_dim, self._emb(surface))
            if cand is not None and cand[1] >= self.cfg.link_threshold:
                r = (cand[0], cand[1])
            else:
                r = (None, 0.0)
            self.link_cache[surface] = r
        return r

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        sids = batch["sent_id"].to_pylist()
        subjs = batch["subj"].to_pylist()
        objs = batch["obj"].to_pylist()
        dim = self.cfg.embedding_dim
        o_url, o_sid, o_surf, o_role, o_qid, o_score = [], [], [], [], [], []
        embs: list[np.ndarray] = []
        for url, sid, subj, obj in zip(urls, sids, subjs, objs):
            for role, surface in (("subj", subj), ("obj", obj)):
                qid, score = self._link(surface)
                o_url.append(url)
                o_sid.append(sid)
                o_surf.append(surface)
                o_role.append(role)
                o_qid.append(qid)
                o_score.append(score)
                embs.append(self._emb(surface))
        flat = (
            np.concatenate(embs).astype(np.float32)
            if embs
            else np.empty(0, dtype=np.float32)
        )
        emb_arr = pa.FixedSizeListArray.from_arrays(pa.array(flat), dim)
        return pa.Table.from_arrays(
            [
                pa.array(o_url, pa.string()),
                pa.array(o_sid, pa.int32()),
                pa.array(o_surf, pa.string()),
                pa.array(o_role, pa.string()),
                pa.array(o_qid, pa.string()),
                pa.array(o_score, pa.float32()),
                emb_arr,
            ],
            schema=mentions_schema(dim),
        )


def build_mentions(triples_raw_ds, alias_ref: ray.ObjectRef, cfg: KGConfig):
    return triples_raw_ds.select_columns(["url", "sent_id", "subj", "obj"]).map_batches(
        MentionLinker,
        fn_constructor_kwargs={"alias_ref": alias_ref, "cfg": cfg},
        batch_format="pyarrow",
        batch_size=EMBED_BATCH_SIZE,
        concurrency=pool_size(cfg.actor_pool_size),
        num_cpus=1,
    )
