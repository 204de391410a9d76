"""Empty blocks change no stage's result. Each case runs one public stage
of a module whose UDFs carry no empty-input branch (Ray never calls a
UDF on zero rows, ``test_udf_empty_batches``) twice: on a frame alone,
and on the same rows behind a leading empty typed block, a filter's
empty output and a column-less empty block (``with_empty_blocks``)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

pytestmark = pytest.mark.usefixtures("ray_session")

_WORDS = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
          "hotel", "india", "juliet", "kilo", "lima", "mike", "november"]


def _docs() -> pd.DataFrame:
    """24 docs of 20-30 words: an exact duplicate pair, a near-duplicate
    pair, two sources, two languages and a 0/1 label."""
    rng = np.random.default_rng(3)
    texts = [" ".join(rng.choice(_WORDS, size=rng.integers(20, 31)))
             for _ in range(24)]
    texts[5] = texts[2]
    texts[9] = texts[8] + " oscar"
    return pd.DataFrame({
        "doc_id": np.arange(24, dtype="int64"),
        "text": texts,
        "lang": ["en" if i % 3 else "de" for i in range(24)],
        "source": [f"s{i % 2}" for i in range(24)],
        "y": np.array([i % 2 for i in range(24)], dtype="int64"),
    })


def _vecs() -> pd.DataFrame:
    rng = np.random.default_rng(4)
    return pd.DataFrame({
        "vec_id": np.arange(30, dtype="int64"),
        "embedding": [rng.standard_normal(6).round(3).tolist()
                      for _ in range(30)],
        "label": [f"c{i % 3}" for i in range(30)],
    })


def _frame(out) -> pd.DataFrame:
    """A stage result (Dataset, DataFrame or ndarray) as a frame."""
    if isinstance(out, np.ndarray):
        return pd.DataFrame({"v": out.ravel()})
    return out if isinstance(out, pd.DataFrame) else out.to_pandas()


def _canon(out) -> pd.DataFrame:
    """Rows in a fixed order, array and list cells as tuples."""
    df = _frame(out).copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].map(lambda v: tuple(np.asarray(v).tolist())
                              if isinstance(v, (list, np.ndarray)) else v)
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def _versioning(ds, tmp):
    from docprocai_service_ray.stages.versioning import corpus_diff

    new = _docs().iloc[4:].assign(text=lambda d: d["text"].str.upper())
    return corpus_diff(ds, rd.from_pandas(new), "doc_id", "text")


def _softdedup(ds, tmp):
    from docprocai_service_ray.stages.softdedup import soft_dedup_weights

    return soft_dedup_weights(ds, "doc_id", "text", keep_cols=("lang",))


def _softdedup_stats(ds, tmp):
    from docprocai_service_ray.stages.softdedup import soft_dedup_stats

    return soft_dedup_stats(ds, "source", "text")


def _dsir(ds, tmp):
    from docprocai_service_ray.stages.dsir import dsir_select

    target = rd.from_pandas(_docs().iloc[:6])
    return dsir_select(ds, target, "doc_id", "text", select_k=5, buckets=64)


def _dedup(ds, tmp):
    from docprocai_service_ray.stages.dedup import (build_dedup_index,
                                                    probe_dedup_index)

    index_dir = str(tmp / "index")
    build_dedup_index(rd.from_pandas(_docs().iloc[:12]), index_dir,
                      "doc_id", "text")
    return probe_dedup_index(ds, index_dir, "doc_id", "text", threshold=0.3)


def _bitext(ds, tmp):
    from docprocai_service_ray.stages.bitext import bitext_margin_pairs

    src = rd.from_pandas(_vecs().iloc[:10].drop(columns="label"))
    return bitext_margin_pairs(src, ds.drop_columns(["label"]), k=2,
                               margin_threshold=0.9)


def _quantize(ds, tmp):
    from docprocai_service_ray.stages.quantize import quantized_topk

    return quantized_topk(ds, np.linspace(-1, 1, 6), 5)


def _project(ds, tmp):
    from docprocai_service_ray.stages.project import projected_topk

    return projected_topk(ds, np.linspace(-1, 1, 6), 5, dim_out=3)


def _substring(ds, tmp):
    from docprocai_service_ray.stages.substring import dup_gram_stats

    return dup_gram_stats(ds, "doc_id", "text", "source", n=4)


def _zipf(ds, tmp):
    from docprocai_service_ray.stages.zipf import zipf_law_stats

    return zipf_law_stats(ds, "text", top_k=8)


def _keepbest(ds, tmp):
    from docprocai_service_ray.stages.keepbest import keep_best_and_split

    return keep_best_and_split(ds, "doc_id", "text", threshold=0.5)


def _similarity(ds, tmp):
    from docprocai_service_ray.stages.similarity import label_centroids

    return label_centroids(ds, "label", "embedding", 6)


def _kmeans(ds, tmp):
    from docprocai_service_ray.stages.similarity import semantic_dedup

    return semantic_dedup(ds, "vec_id", "embedding", 6, 3, threshold=0.5,
                          iters=3)


def _classifier(ds, tmp):
    from docprocai_service_ray.stages.classifier import train_quality_classifier

    w, hist = train_quality_classifier(ds, "text", "y", dim=16, iters=3)
    return hist.assign(w=[tuple(w)] * len(hist))


def _winnow(ds, tmp):
    from docprocai_service_ray.stages.winnow import winnow_fingerprints

    return winnow_fingerprints(ds, "doc_id", "text", k=6, w=4)


def _curate(ds, tmp):
    from docprocai_service_ray.pipelines.curate import release_documents

    docs = ds.select_columns(["doc_id", "text", "lang", "source"])
    return release_documents(None, docs=docs, nd_threshold=0.5)


def _export(ds, tmp):
    from docprocai_service_ray.sources.export import export_jsonl

    return export_jsonl(ds, str(tmp / "jsonl"), columns=["doc_id", "text"],
                        sort_within_shard="doc_id")


def _tokenized(ds, tmp):
    from docprocai_service_ray.sources.tokenized import (build_bpe_vocab,
                                                         export_token_shards)
    from docprocai_service_ray.stages.bpe import bpe_train

    merges = bpe_train(ds, "text", num_merges=6)
    vocab = build_bpe_vocab(ds, "text", merges)
    man = export_token_shards(ds, str(tmp / "tok"), "doc_id", "text", merges,
                              vocab, n_shards=2)
    return man.assign(vocab=len(vocab), merges=len(merges))


_CASES = {
    "versioning.corpus_diff": (_docs, _versioning),
    "softdedup.soft_dedup_weights": (_docs, _softdedup),
    "softdedup.soft_dedup_stats": (_docs, _softdedup_stats),
    "dsir.dsir_select": (_docs, _dsir),
    "dedup.probe_dedup_index": (_docs, _dedup),
    "bitext.bitext_margin_pairs": (_vecs, _bitext),
    "quantize.quantized_topk": (_vecs, _quantize),
    "project.projected_topk": (_vecs, _project),
    "substring.dup_gram_stats": (_docs, _substring),
    "zipf.zipf_law_stats": (_docs, _zipf),
    "keepbest.keep_best_and_split": (_docs, _keepbest),
    "similarity.label_centroids": (_vecs, _similarity),
    "similarity.semantic_dedup": (_vecs, _kmeans),
    "classifier.train_quality_classifier": (_docs, _classifier),
    "winnow.winnow_fingerprints": (_docs, _winnow),
    "curate.release_documents": (_docs, _curate),
    "export.export_jsonl": (_docs, _export),
    "tokenized.export_token_shards": (_docs, _tokenized),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_empty_blocks_change_nothing(case, with_empty_blocks, tmp_path):
    frame, stage = _CASES[case]
    (tmp_path / "alone").mkdir()
    (tmp_path / "padded").mkdir()
    alone = _canon(stage(rd.from_pandas(frame()), tmp_path / "alone"))
    padded = _canon(stage(with_empty_blocks(frame()), tmp_path / "padded"))
    assert len(alone) > 0
    pd.testing.assert_frame_equal(padded, alone)
